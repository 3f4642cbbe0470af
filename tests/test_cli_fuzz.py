"""A fuzz of whole commands: one input of `flatten`, `fit`, `verify`,
`identify` or `sweep-pcs` is damaged, and the command, run in-process, must
either succeed or exit 2 with one `error:` line that names the damaged file.
Any other exception, a numpy warning (the test suite turns warnings into
errors) or a second line of output fails the test.  Binary files and bundle
manifests take byte, header, value, class label and manifest damage;
features and pairs CSVs and `--config` files take one row or field changed
the way test_fileio_properties.py changes a CSV row."""

import contextlib
import csv
import io
import math
import re
import shutil
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_fileio_properties import FIELD, _with_field

from sparserec.cli import main
from sparserec.fileio import load_flat_dataset

# (argv, with {name} for each input file; the inputs that may be damaged)
COMMANDS = {
    "flatten": (["flatten", "{tensor}"], ["tensor"]),
    "fit": (["fit", "{enrolment}", "--pca", "8"], ["enrolment"]),
    "fit-pca-off": (["fit", "{enrolment}", "--pca", "off"], ["enrolment"]),
    "verify": (["verify", "{probes}", "{bundle}"],
               ["probes", "bundle/manifest.txt", "bundle/pca.bin", "bundle/enrolment.feat"]),
    "verify-knn1-pca-off": (["verify", "{probes}", "{bundle-off}", "--classifier", "knn1"],
                            ["probes", "bundle-off/manifest.txt", "bundle-off/enrolment.feat"]),
    "identify": (["identify", "{probes}", "{bundle}", "--classifier", "sacrc,crc,src,knn1"],
                 ["probes", "bundle/manifest.txt", "bundle/pca.bin", "bundle/enrolment.feat"]),
    "sweep-pcs": (["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "4"], ["enrolment", "probes"]),
}
# text inputs: a features CSV to fit from or verify, a pairs list and config files
TEXT_COMMANDS = {
    "fit-csv": (["fit", "{enrolment-csv}", "--pca", "8"], ["enrolment-csv"]),
    "fit-config": (["fit", "{enrolment}", "--config", "{fit-config}"], ["fit-config"]),
    "verify-csv": (["verify", "{probes-csv}", "{bundle}"], ["probes-csv"]),
    "verify-pairs": (["verify", "{probes}", "{bundle}", "--protocol", "pairs:{pairs}"], ["pairs"]),
    "verify-config": (["verify", "{probes}", "{bundle}", "--config", "{verify-config}"], ["verify-config"]),
    "sweep-pairs": (["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "4", "--protocol", "pairs:{pairs}"],
                    ["pairs"]),
    "sweep-config": (["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "4", "--config", "{verify-config}"],
                     ["verify-config"]),
}
FILES = {"tensor": "tensor/enrolment.feat", "enrolment": "data/enrolment.feat", "probes": "data/probes.feat",
         "enrolment-csv": "data/enrolment.csv", "probes-csv": "data/probes.csv", "pairs": "data/pairs.csv",
         "fit-config": "data/fit.cfg", "verify-config": "data/verify.cfg"}
CONFIGS = {
    "fit-config": "pca = 8\nlambda = 0.01\nsparsity_k = 4\nresidual_tol = 1e-06\nseed = 5\n",
    "verify-config": "lambda = 0.01\nsparsity_k = 4\nresidual_tol = 1e-06\nclassifier = sacrc\n"
                     "protocol = all-vs-all\nfar_targets = 0.1,0.01\nseed = 5\n",
}


def _pca_values(data: bytes) -> int:
    d, k = struct.unpack_from("<II", data, 8)
    return d + k + d * k  # the mean, the eigenvalues and the projection


# Where each binary layout's u32 header fields start, and where its float64
# values start and how many the header declares.
HEADER_FIELDS = {"flat": [4, 9, 13], "tensor": [4, 9, 13, 17, 21], "pca": [4, 8, 12]}
PAYLOAD = {
    "flat": (17, lambda data: math.prod(struct.unpack_from("<II", data, 9))),
    "tensor": (25, lambda data: math.prod(struct.unpack_from("<IIII", data, 9))),
    "pca": (16, _pca_values),
}
EXTREME = [1e155, -1e155, 1e200, -1e200]
LABELS = [0, 1, 5, 7, 2**32 - 1]
MANIFEST_VALUES = ["", "0", "1", "-1", "4", "21", "99", "1e999", "nan", "off", "abc", "0.5"]

DAMAGE = st.one_of(
    st.tuples(st.just("byte"), st.integers(min_value=0), st.integers(min_value=0, max_value=255)),
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("header"), st.integers(min_value=0),
              st.one_of(st.integers(min_value=0, max_value=64), st.just(2**32 - 1))),
    st.tuples(st.just("value"), st.integers(min_value=0), st.sampled_from(EXTREME)),
    st.tuples(st.just("label"), st.integers(min_value=0), st.sampled_from(LABELS)),
    st.tuples(st.just("manifest"), st.integers(min_value=0),
              st.one_of(st.sampled_from(MANIFEST_VALUES), st.text(max_size=6))),
)
# one line replaced by free text, or one CSV field or config value by another
TEXT_DAMAGE = st.one_of(
    st.tuples(st.just("row"), st.integers(min_value=0), st.text(max_size=40)),
    st.tuples(st.just("field"), st.integers(min_value=0), st.tuples(st.integers(min_value=0), FIELD)),
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    """Valid inputs for every command: the desk-scale fixture, its tensor form
    and two bundles fit from it, PCA at 8 and off."""
    root = tmp_path_factory.mktemp("fuzz")
    common = ["--classes", "5", "--samples-per-class", "4", "--dim", "30", "--subspace-dim", "3",
              "--noise-sigma", "0.1", "--seed", "3"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen-synthetic", *common, "--out", str(root / "data")]) == 0
        assert main(["gen-synthetic", *common, "--tensor", "2x3x5", "--out", str(root / "tensor")]) == 0
        for pca, name in (("8", "bundle"), ("off", "bundle-off")):
            assert main(["fit", str(root / "data" / "enrolment.feat"), "--pca", pca, "--out", str(root / name)]) == 0
    for name in ("enrolment", "probes"):
        ds = load_flat_dataset(root / FILES[name])
        with open(root / FILES[name + "-csv"], "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "class_label"] + [f"v{i}" for i in range(ds.dim)])
            writer.writerows([pid, label, *map(repr, row)] for pid, label, row in
                             zip(ds.ids, ds.labels.tolist(), ds.features.tolist()))
    with open(root / FILES["pairs"], "w", newline="") as fh:  # claims on the first probes
        csv.writer(fh, lineterminator="\n").writerows(
            [("probe_id", "claimed_class"), (ds.ids[0], 0), (ds.ids[1], 4), (ds.ids[2], int(ds.labels[2]))])
    for name, text in CONFIGS.items():
        (root / FILES[name]).write_text(text)
    return root


def _layout(name: str, data: bytes) -> str | None:
    if name.endswith("pca.bin"):
        return "pca"
    if name.endswith(".feat") or name in FILES:
        return "tensor" if data[8:9] == b"\x01" else "flat"
    return None


def _damaged(data: bytes, layout: str | None, how) -> bytes:
    """`data` with one damage applied; one that does not fit the file (a
    header field of a text file, say) falls back to a byte change."""
    kind, where, what = (*how, None)[:3]
    data = bytearray(data)
    if kind == "truncate":
        return bytes(data[: where % len(data)])
    if kind == "header" and layout is not None:
        offset = HEADER_FIELDS[layout][where % len(HEADER_FIELDS[layout])]
        data[offset : offset + 4] = struct.pack("<I", what)
    elif kind == "value" and layout is not None:
        start, count = PAYLOAD[layout]
        offset = start + 8 * (where % count(data))
        data[offset : offset + 8] = struct.pack("<d", what)
    elif kind == "label" and layout in ("flat", "tensor"):
        # the M u32 labels follow the payload; M is the header's last field
        start, count = PAYLOAD[layout]
        (m,) = struct.unpack_from("<I", data, start - 4)
        offset = start + 8 * count(data) + 4 * (where % m)
        data[offset : offset + 4] = struct.pack("<I", what)
    elif kind == "manifest" and layout is None:
        lines = data.decode().splitlines()
        key = lines[where % len(lines)].split(" = ")[0]
        lines[where % len(lines)] = f"{key} = {what}"
        return ("\n".join(lines) + "\n").encode()
    else:
        data[where % len(data)] = what if isinstance(what, int) and what < 256 else 0
    return bytes(data)


def _damaged_text(data: bytes, how) -> bytes:
    """`data` with one line replaced by free text, or one CSV field or one
    config value replaced by another."""
    kind, where, what = how
    lines = data.decode().splitlines()
    line = lines[where % len(lines)]
    if kind == "row":
        line = what
    elif " = " in line:  # a config line
        line = f"{line.split(' = ')[0]} = {what[1]}"
    else:
        line = _with_field(line, *what)
    lines[where % len(lines)] = line
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(target=st.integers(min_value=0), how=DAMAGE)
def test_a_damaged_input_fails_with_one_line_naming_it(pristine, command, target, how):
    argv, damageable = COMMANDS[command]
    name = damageable[target % len(damageable)]
    _check_damaged_run(pristine, argv, name, lambda data: _damaged(data, _layout(name, data), how))


@pytest.mark.parametrize("command", sorted(TEXT_COMMANDS))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(how=TEXT_DAMAGE)
def test_a_damaged_text_input_fails_with_one_line_naming_it(pristine, command, how):
    argv, (name,) = TEXT_COMMANDS[command]
    _check_damaged_run(pristine, argv, name, lambda data: _damaged_text(data, how))


def _check_damaged_run(pristine: Path, argv: list[str], name: str, damage) -> None:
    """Run `argv` on a copy of the pristine inputs with input `name` passed
    through `damage`: exit 0, or exit 2 with one `error:` line naming it."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for directory in ("data", "tensor", "bundle", "bundle-off"):
            shutil.copytree(pristine / directory, work / directory)
        path = work / FILES.get(name, name)
        path.write_bytes(damage(path.read_bytes()))
        paths = {key: str(work / value) for key, value in FILES.items()}
        paths.update({"bundle": str(work / "bundle"), "bundle-off": str(work / "bundle-off")})
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([arg.format(**paths) for arg in argv] + ["--out", str(work / "out")])
    text = err.getvalue()
    assert code in (0, 2), text
    if code == 2:
        # a bundle file that disagrees with the manifest is the file named by
        # its path; the manifest is then named as manifest.txt beside it
        names = [str(path)] if path.name != "manifest.txt" else [str(path.parent), path.name]
        assert re.fullmatch("error: .*\n", text) and all(name in text for name in names), text
