"""Run configuration: plain-text key=value files plus command-line overrides.

Config files and bundle manifests hold `key = value` lines (# comments and
blank lines are ignored) and share one reader, `read_settings`.  Unknown
keys are rejected so typos cannot silently fall back to defaults, and every
run's report echoes the fully resolved configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from .classifiers import SacrcConfig, check_classifier
from .errors import BadEncoding, ConfigError, InvalidParameters


@dataclass(frozen=True)
class RunConfig:
    solver: SacrcConfig = SacrcConfig()  # lambda, sparsity_k and residual_tol
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
        if not 0.0 < rho <= 1.0:  # NaN fails too
            raise ConfigError(f"retain fraction must be in (0, 1], got {rho}")
        return "retain", rho
    try:
        k = int(text)
    except ValueError:
        raise ConfigError(f"bad pca selection {text!r}: use off, <K> or retain:<fraction>") from None
    if k < 1:
        raise ConfigError(f"component count must be >= 1, got {k}")
    return "fixed", k


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


def read_settings(path: str | Path):
    """Yield (key, value, "path:line") for each `key = value` line of a
    config file or bundle manifest, in file order.  `#` starts a comment.
    A line without `=` or a repeated key raises ConfigError naming
    path:line, and bytes that are not UTF-8 raise BadEncoding."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise BadEncoding(f"{path}: not valid UTF-8 (byte offset {exc.start})") from None
    seen: set[str] = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"{where}: duplicate configuration key {key!r}")
        seen.add(key)
        yield key, value, where


def apply_setting(cfg: RunConfig, key: str, value: str, where: str) -> RunConfig:
    """`_apply_raw`, with `where` (a file's path:line) before any error."""
    try:
        return _apply_raw(cfg, key, value)
    except (ConfigError, InvalidParameters) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _apply_raw(cfg: RunConfig, key: str, value: str) -> RunConfig:
    try:
        # SacrcConfig owns the solver settings' defaults and range checks
        if key == "lambda":
            return replace(cfg, solver=replace(cfg.solver, ridge_lambda=float(value)))
        if key == "sparsity_k":
            k = None if value == "auto" else int(value)
            return replace(cfg, solver=replace(cfg.solver, sparsity_k=k))
        if key == "residual_tol":
            return replace(cfg, solver=replace(cfg.solver, residual_tol=float(value)))
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
        check_classifier(value)
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
    solver = cfg.solver
    pairs = [
        ("lambda", f"{solver.ridge_lambda:g}"),
        ("sparsity_k", "auto" if solver.sparsity_k is None else str(solver.sparsity_k)),
        ("residual_tol", f"{solver.residual_tol:g}"),
        ("pca", cfg.pca),
        ("classifier", cfg.classifier),
        ("protocol", cfg.protocol),
        ("far_targets", ",".join(f"{t:g}" for t in cfg.far_targets)),
        ("seed", str(cfg.seed)),
    ]
    pairs.extend((key, str(value)) for key, value in extras.items())
    return pairs
