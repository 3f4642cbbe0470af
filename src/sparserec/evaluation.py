"""Verification and identification evaluation: columnar score sets, one
threshold sweep (compute_roc) from which evaluate_verification reads the EER
and GMR-at-FAR metrics, rank-1 accuracy, and the union-of-subspaces
synthetic generator used for desk-scale experiments.  Scores come from a
`Gallery`, which `build_scoreset` and `rank1_identification` take whole.

Thresholding convention, used everywhere: a comparison is accepted at
threshold t when its score is >= t.  FAR (false accept rate) is the accepted
fraction of impostor comparisons, GMR (genuine match rate) the accepted
fraction of genuine ones; FNMR = 1 - GMR.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .classifiers import Gallery
from .core import Dataset, _frozen, dataset_from_arrays
from .errors import (
    DegenerateScoreSet,
    DimensionMismatch,
    DuplicateId,
    InvalidParameters,
    NonFiniteValue,
    UnknownClass,
)

@dataclass(frozen=True, eq=False)
class ScoreSet:
    """Genuine/impostor match scores from a verification run, one read-only
    column per field: row r is probe `ids[probe[r]]` claiming class `claim[r]`
    with `score[r]`, genuine when the claim is the probe's own class."""

    ids: tuple[str, ...]
    probe: np.ndarray
    claim: np.ndarray
    score: np.ndarray
    is_genuine: np.ndarray

    def __post_init__(self) -> None:
        columns = {"probe": np.int64, "claim": np.int64, "score": np.float64, "is_genuine": bool}
        for name, dtype in columns.items():
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=dtype)))
        if self.score.ndim != 1 or len({getattr(self, name).shape for name in columns}) != 1:
            raise DimensionMismatch("score set columns must be 1-D and of equal length")

    def genuine_scores(self) -> np.ndarray:
        return self.score[self.is_genuine]

    def impostor_scores(self) -> np.ndarray:
        return self.score[~self.is_genuine]


@dataclass(frozen=True, eq=False)
class Roc:
    """Accepted impostor (`far`) and genuine (`gmr`) fractions at -inf, each
    distinct observed score and +inf, in increasing-threshold order."""

    threshold: np.ndarray
    far: np.ndarray
    gmr: np.ndarray


@dataclass(frozen=True)
class GmrAtFar:
    far_target: float
    gmr: float
    threshold: float
    insufficient_impostors: bool


@dataclass(frozen=True)
class EvalReport:
    """Verification metric panel plus the resolved configuration it came from."""

    eer: float
    gmr_at_far: tuple[GmrAtFar, ...]
    roc: Roc
    config_echo: tuple[tuple[str, str], ...]


def build_scoreset(
    probes: Dataset,
    gallery: Gallery,
    classifier: str = "sacrc",
    *,
    pairs: Sequence[tuple[str, int]] | None = None,
) -> ScoreSet:
    """Score probe/claim comparisons against an enrolled gallery.

    With `pairs` None (the all-vs-all protocol) every probe is compared
    against every enrolled class: one genuine record where the claim equals
    the probe's true class (when enrolled) and impostor records elsewhere.
    With a `pairs` list (the pairs protocol) only its (probe_id,
    claimed_class) comparisons are scored, in list order.
    """
    c = gallery.dictionary.num_classes

    if pairs is None:
        (scores,) = gallery.scores([classifier], probes.features)
        probe = np.repeat(np.arange(probes.num_samples), c)
        claim = np.tile(np.arange(c), probes.num_samples)
        return ScoreSet(probes.ids, probe, claim, scores.ravel(), claim == probes.labels[probe])
    index_of: dict[str, int] = {}
    for i, pid in enumerate(probes.ids):
        if pid in index_of:
            raise DuplicateId(f"duplicate probe id {pid!r}; pairs would be ambiguous")
        index_of[pid] = i
    pair_ids, claims = zip(*pairs) if pairs else ((), ())
    probe = np.fromiter(map(index_of.get, pair_ids, repeat(-1)), dtype=np.int64, count=len(pair_ids))
    claim = np.asarray(claims, dtype=np.int64)
    bad = np.flatnonzero((probe < 0) | (claim < 0) | (claim >= c))
    if bad.size and probe[bad[0]] < 0:
        raise InvalidParameters(f"pair references unknown probe id {pair_ids[bad[0]]!r}")
    if bad.size:
        raise UnknownClass(f"pair claims class {claims[bad[0]]}, enrolled range is [0, {c})")
    wanted = _sorted_unique(probe)
    row = np.searchsorted(wanted, probe)
    (scores,) = gallery.scores([classifier], probes.features[wanted])
    return ScoreSet(probes.ids, probe, claim, scores[row, claim], claim == probes.labels[probe])


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """np.unique(values) by the same sort and neighbour test, without the
    numpy.ma import that np.unique's first call in a process costs."""
    ordered = np.sort(values)
    keep = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def compute_roc(scoreset: ScoreSet) -> Roc:
    """Sweep thresholds over the sorted unique scores plus -inf/+inf
    sentinels; FAR and GMR are non-increasing along the result."""
    genuine = np.sort(scoreset.genuine_scores())
    impostor = np.sort(scoreset.impostor_scores())
    if genuine.size == 0 or impostor.size == 0:
        raise DegenerateScoreSet(
            f"need at least one genuine and one impostor score, got {genuine.size}/{impostor.size}"
        )
    if not (np.all(np.isfinite(genuine)) and np.all(np.isfinite(impostor))):
        raise NonFiniteValue("score set contains a non-finite score")
    thresholds = np.concatenate([[-np.inf], _sorted_unique(np.concatenate([genuine, impostor])), [np.inf]])
    # fraction of each sorted side at or above every threshold
    far, gmr = ((s.size - np.searchsorted(s, thresholds, side="left")) / s.size for s in (impostor, genuine))
    return Roc(_frozen(thresholds), _frozen(far), _frozen(gmr))


def _eer(roc: Roc) -> float:
    """Equal error rate from the FMR/FNMR crossing over the threshold sweep:
    the common value at a sweep point where they are equal, else linearly
    interpolated between the two adjacent points the crossing falls between."""
    fmr = roc.far
    fnmr = 1.0 - roc.gmr
    diff = fmr - fnmr  # non-increasing: 1 at -inf, -1 at +inf
    idx = int(np.nonzero(diff >= 0.0)[0][-1])
    if diff[idx] == 0.0:
        return float(fmr[idx])
    theta = diff[idx] / (diff[idx] - diff[idx + 1])
    return float(fnmr[idx] + theta * (fnmr[idx + 1] - fnmr[idx]))


def _gmr_at_far(roc: Roc, far_target: float, num_impostors: int) -> GmrAtFar:
    """GMR at the most permissive observed threshold whose FAR is within the
    target; when none is (the top score is an impostor's), the strictest
    threshold, flagged when there are fewer than 1/target impostors."""
    if not 0.0 < far_target < 1.0:
        raise InvalidParameters(f"FAR target must be in (0, 1), got {far_target}")
    # observed thresholds only: drop the -inf/+inf sentinels
    thresholds, far, gmr = roc.threshold[1:-1], roc.far[1:-1], roc.gmr[1:-1]
    ok = far <= far_target  # far is non-increasing, so ok is a suffix
    if np.any(ok):
        i = int(np.argmax(ok))
        return GmrAtFar(far_target, float(gmr[i]), float(thresholds[i]), False)
    flag = num_impostors < 1.0 / far_target
    return GmrAtFar(far_target, float(gmr[-1]), float(thresholds[-1]), flag)


def rank1_identification(probes: Dataset, gallery: Gallery, kinds: Sequence[str]) -> list[float]:
    """Per kind, in order, the fraction of probes whose top-ranked class is
    their true class: the argmax of each probe's score row, the lowest class
    index on ties.  Every kind is scored in one `Gallery.scores` pass.

    Callers filter probes to enrolled classes beforehand; a probe with a
    label outside the gallery's class space is an error.
    """
    c = gallery.dictionary.num_classes
    if int(probes.labels.max()) >= c:
        bad = int(np.nonzero(probes.labels >= c)[0][0])
        raise UnknownClass(
            f"probe {probes.ids[bad]!r} has class {int(probes.labels[bad])},"
            f" enrolled range is [0, {c})"
        )
    return [float(np.mean(scores.argmax(axis=1) == probes.labels))
            for scores in gallery.scores(kinds, probes.features)]


def generate_synthetic(
    num_classes: int,
    samples_per_class: int,
    dim: int,
    subspace_dim: int,
    noise_sigma: float,
    seed: int,
    probes_per_class: int | None = None,
) -> tuple[Dataset, Dataset]:
    """Union-of-subspaces generator: per class, a random orthonormal basis of
    the given subspace dimension, samples drawn as basis @ coefficients plus
    isotropic gaussian noise.

    Coefficients are half-normal (|N(0,1)|), so each class occupies a cone
    inside its subspace the way real gallery features do; with signed
    coefficients the per-class coefficient sums of a collaborative
    representation cancel and carry no class evidence.

    Fully reproducible from the seed; returns (enrolment, probes).
    """
    if probes_per_class is None:
        probes_per_class = samples_per_class
    if num_classes < 1 or samples_per_class < 1 or probes_per_class < 1:
        raise InvalidParameters("num_classes, samples_per_class and probes_per_class must be >= 1")
    if dim < 1 or not 1 <= subspace_dim < dim:
        raise InvalidParameters(
            f"need 1 <= subspace_dim < dim, got subspace_dim={subspace_dim}, dim={dim}"
        )
    if noise_sigma < 0.0:
        raise InvalidParameters(f"noise_sigma must be >= 0, got {noise_sigma}")

    rng = np.random.default_rng(seed)
    enrol_blocks, probe_blocks = [], []  # one samples x dim block per class
    for _ in range(num_classes):
        basis = np.linalg.qr(rng.standard_normal((dim, subspace_dim)))[0]
        enrol = basis @ np.abs(rng.standard_normal((subspace_dim, samples_per_class)))
        probe = basis @ np.abs(rng.standard_normal((subspace_dim, probes_per_class)))
        enrol_blocks.append((enrol + noise_sigma * rng.standard_normal(enrol.shape)).T)
        probe_blocks.append((probe + noise_sigma * rng.standard_normal(probe.shape)).T)

    def stacked(blocks, per_class, prefix):
        ids = [f"{prefix}-{cls}-{j}" for cls in range(num_classes) for j in range(per_class)]
        rows = np.ascontiguousarray(np.vstack(blocks))  # the blocks are transposed views
        return dataset_from_arrays(rows, np.arange(num_classes).repeat(per_class), ids)

    return stacked(enrol_blocks, samples_per_class, "enrol"), stacked(probe_blocks, probes_per_class, "probe")


def evaluate_verification(
    scoreset: ScoreSet,
    far_targets: Sequence[float] = (0.1, 0.01, 0.001),
    config_echo: Sequence[tuple[str, str]] = (),
) -> EvalReport:
    """Assemble the standard verification panel from one threshold sweep:
    EER, GMR at each FAR target and the full ROC."""
    roc = compute_roc(scoreset)
    num_impostors = scoreset.impostor_scores().size
    return EvalReport(
        eer=_eer(roc),
        gmr_at_far=tuple(_gmr_at_far(roc, t, num_impostors) for t in far_targets),
        roc=roc,
        config_echo=tuple(config_echo),
    )
