"""Tracing from outside the program: wrappers installed from this file on
the public functions of the sparserec layers, spans kept in memory, and the
per-layer metrics derived from them.  Layers, classes or functions that a
later version of the program no longer has are skipped, and their metrics
read 0.

Every span records name, start, end, thread and parent span.  A span opened
on a thread with no open span of its own (a scoring-pool worker) is parented
to the scoring span (`build_scoreset` or `rank1_identification`) that is open
at that moment.  Counts are attached to the span at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("cli", "config", "fileio", "features", "core", "pca", "classifiers", "evaluation")
# (module, class, method) pairs wrapped in addition to module-level functions.
METHODS = (
    ("classifiers", "CrcOperator", "__init__"),
    ("classifiers", "CrcOperator", "apply"),
    ("fileio", "TensorFeatureSet", "flatten"),
)
SCORING = {"evaluation.build_scoreset", "evaluation.rank1_identification"}
MB = 1e6


@dataclass
class Span:
    name: str
    start: float
    thread: int
    parent: int | None
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._scoring: int | None = None

    def open(self, name: str) -> int:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._scoring
        with self._lock:
            idx = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), threading.get_ident(), parent))
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        scoring = name in SCORING
        malloc = name in ("pca.pca_fit", "pca.pca_sweep")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            if scoring:
                outer_scoring, self._scoring = self._scoring, idx
            if malloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if malloc:
                    self.spans[idx].counts["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                if scoring:
                    self._scoring = outer_scoring
                self.close(idx)
            if count is not None:
                try:
                    count(self.spans[idx].counts, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a changed signature loses this count, not the traced run
                    self.spans[idx].counts["uncounted"] = 1
            return result

        return wrapper

    def install(self, package) -> "Installed":
        """Replace each public function of the layer modules (and every
        function of the CLI) at every `sparserec*` module attribute that
        refers to it, so callers that imported it by name see the wrapper
        too."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules.get(f"{package}.{layer}")
            for attr, obj in vars(module).items() if module else ():
                # the CLI's private helpers (config resolution, manifests,
                # output directories) are the glue between commands and layers
                if ((layer == "cli" or not attr.startswith("_")) and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        patched = []
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    patched.append((module, attr, obj))
                    setattr(module, attr, targets[id(obj)][1])
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules.get(f"{package}.{layer}"), cls_name, None)
            original = vars(cls).get(meth) if cls else None
            if original is None:
                continue
            patched.append((cls, meth, original))
            setattr(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", original))
        return Installed(patched)


class Installed:
    def __init__(self, patched):
        self._patched = patched

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# counts taken at span boundaries.  Every "*_computed" figure is derived from
# array shapes, not measured: this benchmark cannot read hardware counters or
# memory bandwidth.


def _file_mb(counts, args, kwargs, result):
    counts["mb"] = os.path.getsize(args[0]) / MB


def _omp(counts, args, kwargs, result):
    y, dictionary = args[0], args[1]
    d, n = dictionary.atoms.shape
    s = int((result != 0).sum())
    counts["atoms"] = s
    # per step j: correlations (2dn), least squares on d x j (~2dj^2), residual (2dj)
    counts["gflop"] = sum(2 * d * n + 2 * d * j * j + 2 * d * j for j in range(1, s + 1)) / 1e9


def _crc(counts, args, kwargs, result):
    op = args[1]
    d, n = op.dictionary.atoms.shape
    # bytes read: Phi for Phi^T y, the N x N triangular factor for two solves
    counts["gbytes"] = (d * n + n * n) * 8 / 1e9


def _pca(counts, args, kwargs, result):
    m, d = args[0].features.shape
    counts["dxd_mb"] = d * d * 8 / MB
    counts["gram_gflop"] = 2 * m * m * d / 1e9


def _records(counts, args, kwargs, result):
    # a record-per-comparison ScoreSet today; a columnar one may hold arrays
    rows = getattr(result, "records", None)
    if rows is None:
        rows = getattr(result, "score", getattr(result, "scores", ()))
    counts["records"] = len(rows)


def _argv(counts, args, kwargs, result):
    counts["argv0"] = args[0][0]


def _workers(counts, args, kwargs, result):
    counts["workers"] = result


COUNTERS = {
    **{f"fileio.{f}": _file_mb for f in (
        "read_feature_file", "read_pca_model", "read_dictionary", "read_features_csv",
        "read_scores_csv", "read_pairs_csv", "write_flat_features", "write_tensor_features",
        "write_pca_model", "write_dictionary", "write_scores_csv", "write_roc_csv",
        "write_features_csv")},
    "classifiers.omp_solve": _omp,
    "classifiers.crc_solve": _crc,
    "pca.pca_fit": _pca,
    "pca.pca_sweep": _pca,
    "evaluation.build_scoreset": _records,
    "evaluation.default_workers": _workers,
    "cli.main": _argv,
}
READERS = [n for n in COUNTERS if n.startswith("fileio.read_")]
WRITERS = [n for n in COUNTERS if n.startswith("fileio.write_")]


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration minus the union of the direct children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.duration - _union(children.get(i, ())) for i, s in enumerate(spans)]


def _dispatch(name: str) -> bool:
    """CLI entry and per-command dispatch spans: coverage counts only what
    runs below them."""
    return name in ("cli.main", "cli.entrypoint") or name.startswith("cli.cmd_")


def command_coverage(spans: list[Span]) -> list[tuple[str, float]]:
    """For each top-level `cli.main` span, the share of its wall time covered
    by spans of the layers below the CLI."""
    out = []
    for i, top in enumerate(spans):
        if top.name != "cli.main":
            continue
        below = [(s.start, s.end) for s in spans[i + 1:]
                 if not _dispatch(s.name) and s.start >= top.start and s.end <= top.end]
        out.append((top.counts.get("argv0", "?"), _union(below) / top.duration))
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer totals for one traced pipeline iteration.  Times are busy
    time: spans on concurrent pool threads add up."""
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, float] = {}
    peak = 0.0
    for s, st in zip(spans, own):
        dur[s.name] = dur.get(s.name, 0.0) + s.duration
        self_t[s.name] = self_t.get(s.name, 0.0) + st
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.counts.items():
            if key == "peak_alloc_mb":
                peak = max(peak, value)
            elif key in ("dxd_mb", "workers"):
                counts[key] = max(counts.get(key, 0.0), value)
            elif key not in ("argv0", "uncounted"):
                counts[f"{s.name}.{key}"] = counts.get(f"{s.name}.{key}", 0.0) + value

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def c(suffix, names):
        return sum(counts.get(f"{n}.{suffix}", 0.0) for n in names)

    return {
        "fileio.read_s": d(*READERS),
        "fileio.read_mb": c("mb", READERS),
        "fileio.write_s": d(*WRITERS),
        "fileio.write_mb": c("mb", WRITERS),
        "fileio.scores_csv_write_s": d("fileio.write_scores_csv"),
        "features.flatten_s": d("fileio.TensorFeatureSet.flatten", "features.flatten_activations"),
        "core.build_dictionary_s": d("core.build_dictionary"),
        "core.dataset_check_s": d("core.dataset_from_arrays"),
        "pca.fit_s": d("pca.pca_fit"),
        "pca.sweep_fit_s": d("pca.pca_sweep"),
        "pca.transform_s": d("pca.transform_dataset", "pca.pca_transform"),
        "pca.fit_peak_alloc_mb": peak,
        "pca.dxd_mb": counts.get("dxd_mb", 0.0),
        "pca.gram_gflop_computed": c("gram_gflop", ["pca.pca_fit", "pca.pca_sweep"]),
        "classifiers.omp_solve_s": d("classifiers.omp_solve"),
        "classifiers.omp_calls": calls.get("classifiers.omp_solve", 0),
        "classifiers.omp_atoms_selected": c("atoms", ["classifiers.omp_solve"]),
        "classifiers.omp_gflop_computed": c("gflop", ["classifiers.omp_solve"]),
        "classifiers.crc_factor_s": d("classifiers.CrcOperator.__init__"),
        "classifiers.crc_solve_s": d("classifiers.crc_solve"),
        "classifiers.crc_calls": calls.get("classifiers.crc_solve", 0),
        "classifiers.crc_gbytes_computed": c("gbytes", ["classifiers.crc_solve"]),
        "classifiers.sacrc_self_s": self_t.get("classifiers.sacrc_classify", 0.0),
        "classifiers.src_residual_s": d("classifiers.src_residual_classify"),
        "classifiers.knn1_s": d("classifiers.knn1_classify", "classifiers.knn1_class_scores"),
        "evaluation.build_scoreset_self_s": self_t.get("evaluation.build_scoreset", 0.0),
        "evaluation.score_records": c("records", ["evaluation.build_scoreset"]),
        "evaluation.metrics_s": d("evaluation.evaluate_verification"),
        "evaluation.roc_s": d("evaluation.compute_roc"),
        "evaluation.eer_s": d("evaluation.compute_eer"),
        "evaluation.gmr_s": d("evaluation.compute_gmr_at_far"),
        "evaluation.rank1_self_s": self_t.get("evaluation.rank1_identification", 0.0),
        "evaluation.workers": counts.get("workers", 0.0),
    }
