"""Run configuration: plain-text key=value files plus command-line overrides.

A config file holds `key = value` lines (# comments and blank lines are
ignored).  Unknown keys are rejected so typos cannot silently fall back to
defaults, and every run's report echoes the fully resolved configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .classifiers import CLASSIFIERS
from .errors import BadEncoding, ConfigError


@dataclass(frozen=True)
class RunConfig:
    ridge_lambda: float = 0.01
    sparsity_k: int | None = None  # None resolves to min(50, N) at solve time
    residual_tol: float = 1e-6
    pca: str = "off"  # off | <K> | retain:<fraction>
    classifier: str = "sacrc"
    protocol: str = "all-vs-all"  # all-vs-all | pairs:<file>
    far_targets: tuple[float, ...] = (0.1, 0.01, 0.001)
    seed: int = 0


def parse_pca_selection(text: str) -> tuple[str, int | float | None]:
    """Parse a PCA selection: 'off', a component count, or 'retain:<fraction>'."""
    text = text.strip()
    if text == "off":
        return "off", None
    if text.startswith("retain:"):
        try:
            rho = float(text[len("retain:") :])
        except ValueError:
            raise ConfigError(f"bad retain fraction in pca selection {text!r}") from None
        return "retain", rho
    try:
        return "fixed", int(text)
    except ValueError:
        raise ConfigError(f"bad pca selection {text!r}: use off, <K> or retain:<fraction>") from None


def parse_protocol(text: str) -> tuple[str, str | None]:
    """Parse a scoring protocol: 'all-vs-all' or 'pairs:<file>'."""
    text = text.strip()
    if text == "all-vs-all":
        return "all-vs-all", None
    if text.startswith("pairs:"):
        path = text[len("pairs:") :]
        if not path:
            raise ConfigError("pairs protocol needs a file: pairs:<file>")
        return "pairs", path
    raise ConfigError(f"bad protocol {text!r}: use all-vs-all or pairs:<file>")


def _parse_far_targets(text: str) -> tuple[float, ...]:
    targets = []
    for part in text.split(","):
        try:
            t = float(part)
        except ValueError:
            raise ConfigError(f"bad FAR target {part!r}") from None
        if not 0.0 < t < 1.0:
            raise ConfigError(f"FAR target must be in (0, 1), got {t}")
        targets.append(t)
    if not targets:
        raise ConfigError("far_targets must list at least one value")
    return tuple(targets)


def text_lines(path: str | Path) -> list[str]:
    """The lines of a UTF-8 text file; bytes that do not decode raise
    BadEncoding naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not valid UTF-8 (byte offset {exc.start})") from None


def read_config_file(path: str | Path, cfg: RunConfig) -> RunConfig:
    """`cfg` with each line of a config file applied in turn; an unknown or
    repeated key, or a bad value, raises ConfigError naming path:line."""
    seen: set[str] = set()
    for lineno, raw in enumerate(text_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate configuration key {key!r}")
        seen.add(key)
        try:
            cfg = _apply_raw(cfg, key, value)
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return cfg


def _apply_raw(cfg: RunConfig, key: str, value: str) -> RunConfig:
    try:
        if key == "lambda":
            return replace(cfg, ridge_lambda=float(value))
        if key == "sparsity_k":
            if value == "auto":
                return replace(cfg, sparsity_k=None)
            return replace(cfg, sparsity_k=int(value))
        if key == "residual_tol":
            return replace(cfg, residual_tol=float(value))
        if key == "seed":
            seed = int(value)
            if seed < 0:
                raise ConfigError(f"seed must be non-negative, got {seed}")
            return replace(cfg, seed=seed)
    except ValueError:
        raise ConfigError(f"bad value {value!r} for configuration key {key!r}") from None
    if key == "pca":
        parse_pca_selection(value)  # validate only; stored as written
        return replace(cfg, pca=value.strip())
    if key == "classifier":
        if value not in CLASSIFIERS:
            raise ConfigError(f"unknown classifier {value!r}; choose from {', '.join(CLASSIFIERS)}")
        return replace(cfg, classifier=value)
    if key == "protocol":
        parse_protocol(value)
        return replace(cfg, protocol=value.strip())
    if key == "far_targets":
        return replace(cfg, far_targets=_parse_far_targets(value))
    raise ConfigError(f"unknown configuration key {key!r}")


def config_echo(cfg: RunConfig, **extras: object) -> list[tuple[str, str]]:
    """Flatten the resolved configuration (plus run-specific extras such as
    the resolved sparsity and component counts) into ordered pairs."""
    pairs = [
        ("lambda", f"{cfg.ridge_lambda:g}"),
        ("sparsity_k", "auto" if cfg.sparsity_k is None else str(cfg.sparsity_k)),
        ("residual_tol", f"{cfg.residual_tol:g}"),
        ("pca", cfg.pca),
        ("classifier", cfg.classifier),
        ("protocol", cfg.protocol),
        ("far_targets", ",".join(f"{t:g}" for t in cfg.far_targets)),
        ("seed", str(cfg.seed)),
    ]
    pairs.extend((key, str(value)) for key, value in extras.items())
    return pairs
