"""Command-line orchestration for the recognition pipeline.

Subcommands: gen-synthetic, flatten, fit, verify, identify, sweep-pcs.
Every command is deterministic given its input files, configuration and
seed; re-runs write byte-identical outputs.  Probes are scored in blocks by
array operations; BLAS's own thread variables (OPENBLAS_NUM_THREADS and the
like) set how many cores those use.  `entrypoint`, which the console script
and `python -m sparserec` run, freezes the import-time heap (`gc.freeze`) so
no collection walks it again, teardown included; in-process `main` does not.
Each stage that reads an input (the PCA fit, the gallery, the scoring) names
it, or the config line that set the value at fault, on the errors it raises:
each naming scope wraps only the calls that read its own input.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path

from .classifiers import CLASSIFIERS, Gallery, check_classifier
from .config import (RunConfig, _apply_raw, apply_setting, config_echo, parse_pca_selection, parse_protocol,
                     read_settings)
from .core import Dataset, dataset_from_arrays
from .errors import (DegenerateAugmentation, DegenerateData, DegenerateScoreSet, DimensionMismatch, DuplicateId,
                     InconsistentBundle, InsufficientSamples, InvalidParameters, KTooLarge, MissingClass,
                     NonFiniteValue, SingularSystem, SparserecError, UnknownClass, ZeroNormSample)
from .evaluation import build_scoreset, evaluate_verification, generate_synthetic, rank1_identification
from .fileio import (format_kv, format_panel, format_report_kv, format_report_text, load_flat_dataset,
                     read_feature_file, read_pairs_csv, read_pca_model, write_dictionary, write_flat_features,
                     write_pca_model, write_roc_csv, write_scores_csv)
from .pca import pca_fit, pca_sweep, transform_dataset

MANIFEST_NAME = "manifest.txt"
DICTIONARY_NAME = "dictionary.bin"
PCA_NAME = "pca.bin"
ENROLMENT_NAME = "enrolment.feat"


# ---------------------------------------------------------------------------
# configuration plumbing


# configuration keys that a command-line flag of the same name overrides
FLAG_KEYS = ("lambda", "sparsity_k", "pca", "classifier", "protocol", "seed")


def _resolve_config(args: argparse.Namespace, base: RunConfig | None = None) -> RunConfig:
    """Layered resolution: defaults, then bundle manifest (`base`), then
    config file, then command-line flags.  `args.set_at` maps each config
    file setting that no flag replaces to its path:line."""
    cfg, args.set_at = base or RunConfig(), {}
    if getattr(args, "config", None):
        for key, value, where in read_settings(args.config):
            cfg = apply_setting(cfg, key, value, where)
            args.set_at[key] = where
    for key in FLAG_KEYS:
        if getattr(args, key, None) is not None:
            cfg = _apply_raw(cfg, key, str(getattr(args, key)))
            args.set_at.pop(key, None)
    return cfg


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


@contextlib.contextmanager
def _naming(path, *errors: type[SparserecError]):
    """Re-raise any of `errors` from the block with `path`, unless None, before its message."""
    try:
        yield
    except errors as exc:
        raise (exc if path is None else type(exc)(f"{path}: {exc}")) from None


def _gallery(enrolment: Dataset, cfg: RunConfig, args: argparse.Namespace, path) -> Gallery:
    """The gallery of `enrolment`; its errors name `path`, a refused sparsity its config line."""
    with _naming(path, MissingClass, ZeroNormSample), _naming(args.set_at.get("sparsity_k"), InvalidParameters):
        return Gallery(enrolment, cfg.solver)


@contextlib.contextmanager
def _scoring(args: argparse.Namespace, pairs_path=None):
    """Name the probe file, pairs list or lambda's config line on what scoring raises."""
    with (_naming(args.probes, DegenerateAugmentation, DuplicateId, NonFiniteValue, ZeroNormSample),
          _naming(pairs_path, InvalidParameters, UnknownClass), _naming(pairs_path or args.probes, DegenerateScoreSet),
          _naming(args.set_at.get("lambda"), SingularSystem)):
        yield


# ---------------------------------------------------------------------------
# model bundles


def _load_bundle(args: argparse.Namespace):
    """The bundle's PCA model (or None), its gallery, built from enrolment.feat,
    and the run's configuration: the fit's hyperparameters from the manifest,
    then the config file and flags.  dictionary.bin is not read."""
    bundle = Path(args.bundle)
    manifest = {key: (value, where) for key, value, where in read_settings(bundle / MANIFEST_NAME)}
    model = read_pca_model(bundle / PCA_NAME) if (bundle / PCA_NAME).exists() else None
    enrolment = load_flat_dataset(bundle / ENROLMENT_NAME)
    # Check every file against the manifest, so a file copied in from another
    # fit is named here instead of being blamed on the probes later.
    dim_key = "dim_input" if model is None else "pca_components"
    checks = [(PCA_NAME, "components", 0 if model is None else model.num_components, "pca_components")]
    if model is not None:
        checks.append((PCA_NAME, "input dim", model.dim_in, "dim_input"))
    checks += [
        (ENROLMENT_NAME, "dim", enrolment.dim, dim_key),
        (ENROLMENT_NAME, "samples", enrolment.num_samples, "num_atoms"),
        (ENROLMENT_NAME, "classes", enrolment.num_classes, "num_classes"),
    ]
    for name, what, got, key in checks:
        said = manifest.get(key, (None,))[0]
        if str(got) != said:
            raise InconsistentBundle(
                f"{bundle / name}: {what} {got}, but {MANIFEST_NAME} says {key} = {said}")
    # the fit's hyperparameters, the base that a config file and flags override
    cfg = RunConfig()
    for key in ("lambda", "sparsity_k", "residual_tol", "pca"):
        if key in manifest:
            cfg = apply_setting(cfg, key, *manifest[key])
    n, d = enrolment.num_samples, enrolment.dim
    with _naming(bundle / MANIFEST_NAME, InvalidParameters):  # settings that fit refuses for this gallery
        cfg.solver.resolve_k(n)
        if cfg.solver.ridge_lambda == 0.0 and n > d:
            raise InvalidParameters(f"lambda = 0 with {n} atoms in dimension {d}")
    cfg = _resolve_config(args, cfg)
    return model, _gallery(enrolment, cfg, args, bundle / ENROLMENT_NAME), cfg


def _bundle_echo(cfg: RunConfig, model, gallery: Gallery, **extras) -> list[tuple[str, str]]:
    """The config echo of a bundle run: the resolved sparsity, the PCA width, then `extras`."""
    return config_echo(cfg, resolved_sparsity_k=gallery.k,
                       pca_components=0 if model is None else model.num_components, **extras)


def _load_probes(path: str, model, gallery: Gallery) -> Dataset:
    """The probe file, checked against the bundle's input dim and reduced."""
    probes = load_flat_dataset(path)
    expected = gallery.dictionary.dim if model is None else model.dim_in
    if probes.dim != expected:
        raise DimensionMismatch(f"{path}: dim {probes.dim}, but the bundle expects dim {expected}")
    with _naming(path, NonFiniteValue):  # the reduced probes are checked again
        return probes if model is None else transform_dataset(probes, model)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    shape = _parse_tensor_shape(args.tensor, args.dim) if args.tensor else None
    enrolment, probes = generate_synthetic(
        num_classes=args.classes,
        samples_per_class=args.samples_per_class,
        dim=args.dim,
        subspace_dim=args.subspace_dim,
        noise_sigma=args.noise_sigma,
        seed=cfg.seed,
        probes_per_class=args.probes_per_class,
    )
    out = _out_dir(args)
    for name, ds in (("enrolment.feat", enrolment), ("probes.feat", probes)):
        write_flat_features(out / name, ds, shape)
    print(f"wrote {out / 'enrolment.feat'} ({enrolment.num_samples} samples)")
    print(f"wrote {out / 'probes.feat'} ({probes.num_samples} samples)")
    return 0


def _parse_tensor_shape(text: str, dim: int) -> tuple[int, int, int]:
    """The map shape (n1, n2, n) that `text` names, checked to hold `dim` values."""
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise InvalidParameters(f"tensor shape must be n1xn2xn, got {text!r}")
    try:
        n1, n2, n = (int(p) for p in parts)
    except ValueError:
        raise InvalidParameters(f"tensor shape must be n1xn2xn, got {text!r}") from None
    if min(n1, n2, n) < 1:
        raise InvalidParameters(f"tensor shape dims must be positive, got {text!r}")
    if n1 * n2 * n != dim:
        raise InvalidParameters(f"tensor shape {text} holds {n1 * n2 * n} values per sample, dim is {dim}")
    return n1, n2, n


def cmd_flatten(args: argparse.Namespace) -> int:
    flat = read_feature_file(args.input)
    out = _out_dir(args)
    write_flat_features(out / "features.feat", flat)
    print(f"wrote {out / 'features.feat'} ({flat.num_samples} samples, dim {flat.dim})")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    enrolment = load_flat_dataset(args.enrolment)

    mode, param = parse_pca_selection(cfg.pca)
    model, reduced = None, enrolment
    with _naming(args.set_at.get("pca"), KTooLarge), _naming(args.enrolment, InsufficientSamples, DegenerateData):
        if mode == "fixed":
            model, reduced = pca_fit(enrolment, num_components=int(param))
        elif mode != "off":
            model, reduced = pca_fit(enrolment, retain=float(param))

    gallery = _gallery(reduced, cfg, args, args.enrolment)
    if cfg.solver.ridge_lambda == 0.0:
        # a positive lambda always gives a ridge map; at 0 the bundle's default
        # classifier would refuse it, so the fit refuses now and writes nothing
        with _naming(args.set_at.get("lambda"), SingularSystem):
            gallery.operator
    dictionary = gallery.dictionary

    out = _out_dir(args)
    write_dictionary(out / DICTIONARY_NAME, dictionary)
    if model is not None:
        write_pca_model(out / PCA_NAME, model)
    write_flat_features(out / ENROLMENT_NAME, reduced)
    manifest = {
        "bundle_version": "1",
        "dim_input": str(enrolment.dim),
        "lambda": f"{cfg.solver.ridge_lambda:g}",
        "num_atoms": str(dictionary.num_atoms),
        "num_classes": str(dictionary.num_classes),
        "pca": cfg.pca,
        "pca_components": str(0 if model is None else model.num_components),
        "residual_tol": f"{cfg.solver.residual_tol:g}",
        "sparsity_k": str(gallery.k),
    }
    (out / MANIFEST_NAME).write_text(format_kv(sorted(manifest.items())), encoding="utf-8")
    print(
        f"wrote bundle {out} ({dictionary.num_atoms} atoms, {dictionary.num_classes} classes,"
        f" dim {dictionary.dim})"
    )
    return 0


def _protocol_pairs(cfg: RunConfig):
    """The file and pairs list a `pairs:<file>` protocol names; (None, None) for all-vs-all."""
    _, path = parse_protocol(cfg.protocol)
    return path, None if path is None else read_pairs_csv(path)


def cmd_verify(args: argparse.Namespace) -> int:
    model, gallery, cfg = _load_bundle(args)
    probes = _load_probes(args.probes, model, gallery)
    pairs_path, pairs = _protocol_pairs(cfg)
    echo = _bundle_echo(cfg, model, gallery, num_atoms=gallery.dictionary.num_atoms,
                        num_classes=gallery.dictionary.num_classes)
    with _scoring(args, pairs_path):
        scoreset = build_scoreset(probes, gallery, cfg.classifier, pairs=pairs)
        report = evaluate_verification(scoreset, cfg.far_targets, echo)

    out = _out_dir(args)
    write_scores_csv(out / "scores.csv", scoreset)
    write_roc_csv(out / "roc.csv", report)
    (out / "report.txt").write_text(format_report_text(report))
    (out / "report.kv").write_text(format_report_kv(report))
    print(format_report_text(report), end="")
    return 0


def _parse_classifier_list(text: str) -> list[str]:
    names = [part.strip() for part in text.split(",") if part.strip()]
    if not names:
        raise InvalidParameters(f"classifier list {text!r} names no classifier")
    for name in names:
        check_classifier(name)
    return names


def cmd_identify(args: argparse.Namespace) -> int:
    # a comma list, checked whole before any work
    classifiers = None if args.classifiers is None else _parse_classifier_list(args.classifiers)
    model, gallery, cfg = _load_bundle(args)
    probes = _load_probes(args.probes, model, gallery)

    # Mirror the identification protocol: keep only probes whose class is enrolled.
    enrolled = probes.labels < gallery.dictionary.num_classes
    dropped = probes.num_samples - int(enrolled.sum())
    if dropped:
        if not enrolled.any():
            raise InvalidParameters(f"{args.probes}: no probe belongs to an enrolled class")
        probes = dataset_from_arrays(
            probes.features[enrolled],
            probes.labels[enrolled],
            [pid for pid, keep in zip(probes.ids, enrolled) if keep],
        )

    classifiers = classifiers or [cfg.classifier]
    with _scoring(args):
        rows = list(zip(classifiers, rank1_identification(probes, gallery, classifiers)))

    echo = _bundle_echo(cfg, model, gallery, probes_used=probes.num_samples, probes_dropped=dropped)
    out = _out_dir(args)
    csv_lines = ["classifier,rank1_accuracy"]
    csv_lines += [f"{name},{acc:.17g}" for name, acc in rows]
    (out / "rank1.csv").write_text("\n".join(csv_lines) + "\n")
    lines = [f"{name}: {100.0 * acc:.2f}%" for name, acc in rows]
    (out / "rank1.txt").write_text(format_panel("rank-1 identification", lines, echo))
    print("\n".join(lines))
    return 0


def _parse_k_list(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise InvalidParameters(f"bad component list {text!r}; use comma-separated integers") from None
    if not ks:
        raise InvalidParameters("component list is empty")
    return ks


def _sweep_row(k: int, enrol_all: Dataset, probes_all: Dataset, cfg: RunConfig, args, pairs_path, pairs) -> str:
    """One sweep.csv row: verification at the leading k columns, read as views.
    The row's gallery, score set and report are freed when it returns, before
    the next row builds its own."""
    gallery = _gallery(dataset_from_arrays(enrol_all.features[:, :k], enrol_all.labels, enrol_all.ids),
                       cfg, args, args.enrolment)
    probes = dataset_from_arrays(probes_all.features[:, :k], probes_all.labels, probes_all.ids)
    with _scoring(args, pairs_path):
        scoreset = build_scoreset(probes, gallery, cfg.classifier, pairs=pairs)
        del gallery  # free the dictionary and ridge map before the ROC sweep
        report = evaluate_verification(scoreset, cfg.far_targets)
    return ",".join([str(k), f"{report.eer:.17g}", *(f"{g.gmr:.17g}" for g in report.gmr_at_far)])


def cmd_sweep_pcs(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    k_values = _parse_k_list(args.k_list)
    enrolment = load_flat_dataset(args.enrolment)
    probes = load_flat_dataset(args.probes)
    if probes.dim != enrolment.dim:
        raise DimensionMismatch(
            f"{args.probes}: dim {probes.dim} does not match the enrolment's dim {enrolment.dim}"
        )

    pairs_path, pairs = _protocol_pairs(cfg)
    # One projection at the widest K serves every row: a row slices its
    # leading K columns.  Only the probes' projection can leave the range.
    with _naming(args.probes, NonFiniteValue), _naming(args.enrolment, InsufficientSamples, DegenerateData):
        counts, enrol_all, probes_all = pca_sweep(enrolment, probes, k_values)
    header = ["num_components", "eer"] + [f"gmr_at_far_{t:g}" for t in cfg.far_targets]
    lines = [",".join(header)]
    lines += [_sweep_row(k, enrol_all, probes_all, cfg, args, pairs_path, pairs) for k in counts]
    out = _out_dir(args)
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    echo = config_echo(cfg, k_list=",".join(str(k) for k in k_values))
    (out / "sweep.kv").write_text(format_kv(echo, "config."))
    print(f"wrote {out / 'sweep.csv'} ({len(counts)} rows)")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_common(parser: argparse.ArgumentParser, *, solver: bool = True, pca: bool = False) -> None:
    parser.add_argument("--config", help="key = value configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    if solver:
        parser.add_argument("--lambda", type=float, default=None,
                            help="ridge regularizer for the collaborative solve")
        parser.add_argument("--k", dest="sparsity_k", type=int, default=None,
                            help="sparsity budget for the greedy solve")
    if pca:
        parser.add_argument("--pca", default=None, help="off, <K> or retain:<fraction>")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparserec",
        description="Sparsity-augmented collaborative representation recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write synthetic enrolment/probe feature files")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--samples-per-class", type=int, required=True)
    p.add_argument("--probes-per-class", type=int, default=None)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--subspace-dim", type=int, required=True)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--tensor", default=None, help="emit tensor-format files with shape n1xn2xn")
    _add_common(p, solver=False)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("flatten", help="rewrite a feature file with the flat header; every command reads"
                                       " either layout, so this is optional")
    p.add_argument("input", help="feature file")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_flatten)

    p = sub.add_parser("fit", help="fit PCA + dictionary into a model bundle")
    p.add_argument("enrolment", help="enrolment feature file")
    _add_common(p, pca=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("verify", help="score probes against a bundle and report EER/GMR/ROC")
    p.add_argument("probes", help="probe feature file")
    p.add_argument("bundle", help="model bundle directory from fit")
    p.add_argument("--classifier", choices=CLASSIFIERS, default=None)
    p.add_argument("--protocol", default=None, help="all-vs-all or pairs:<file>")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identify", help="rank-1 identification accuracy per classifier")
    p.add_argument("probes", help="probe feature file")
    p.add_argument("bundle", help="model bundle directory from fit")
    p.add_argument("--classifier", dest="classifiers", metavar="CLASSIFIER",
                   help=f"comma-separated list from {', '.join(CLASSIFIERS)} (default sacrc)")
    _add_common(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("sweep-pcs", help="verification metrics across component counts")
    p.add_argument("enrolment", help="enrolment feature file")
    p.add_argument("probes", help="probe feature file")
    p.add_argument("--k-list", required=True, help="comma-separated component counts")
    p.add_argument("--classifier", choices=CLASSIFIERS, default=None)
    p.add_argument("--protocol", default=None, help="all-vs-all or pairs:<file>")
    _add_common(p)
    p.set_defaults(func=cmd_sweep_pcs)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SparserecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
