"""README's Python quickstart and CLI walkthrough run as written, so the
documented API and commands cannot drift from the package."""

import re
import shlex
from pathlib import Path

from sparserec.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert "EER:" in capsys.readouterr().out


def test_readme_cli_walkthrough_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("sparserec ")]
    assert len(commands) >= 6, "README has no CLI walkthrough"
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line
