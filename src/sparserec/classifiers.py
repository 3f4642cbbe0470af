"""Decision machinery: the dense ridge (collaborative) solve, the greedy
l0-constrained sparse solve, their normalized augmentation summed per class
as evidence, and the residual / nearest-neighbor baselines.

`Gallery` is the one place that knows how each classifier in `CLASSIFIERS`
scores.  Built from an enrolment, it keeps only the dictionary of the
enrolment's l2-normalized samples and their squared norms (knn1 measures
distances from those), and its `scores(kinds, probes)` maps a P x D probe
block to one P x c per-class score matrix per kind, one probe per row.
Kinds asked for together share their solves: sacrc adds the ridge and sparse
codes that crc and src score alone.  A probe's decision is the argmax of its
row, so equal scores go to the lowest class index for every classifier.

The collaborative solve uses the squared-l2 ridge penalty, whose closed form
(Phi^T Phi + lambda I)^-1 Phi^T y is a fixed linear map of y: the inverse of
the smaller regularized Gram matrix is computed once per dictionary, and the
map is applied to a probe block with two matrix products.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import Dataset, Dictionary, _frozen, build_dictionary
from .errors import (
    DegenerateAugmentation,
    DimensionMismatch,
    InvalidParameters,
    SingularSystem,
    ZeroNormSample,
)

# The classifier names Gallery.scores, the configuration and the CLI accept.
CLASSIFIERS = ("sacrc", "crc", "src", "knn1")

DEFAULT_RIDGE_LAMBDA = 0.01
DEFAULT_SPARSITY_CAP = 50
DEFAULT_RESIDUAL_TOL = 1e-6

# Below this, the sum of the two coefficient vectors is treated as cancelled
# and the normalized collaborative solution is used alone.
AUGMENTATION_EPS = 1e-12

# A candidate atom whose squared distance from the span of the current support
# is below this fraction of its squared norm is linearly dependent on the
# support; the pursuit treats it like a residual orthogonal to every atom.
DEPENDENT_ATOM_EPS = 1e-12

# Probes are scored in blocks of at most _PROBE_BLOCK rows, and of fewer rows
# when a block's per-probe temporaries, for the requested kind that needs the
# most, would exceed _BLOCK_ELEMENTS float64 values (32 MB), e.g. OMP's
# selected atoms at large D.
_PROBE_BLOCK = 256
_BLOCK_ELEMENTS = 1 << 22


def _check_nonnegative(name: str, value: float) -> None:
    # written so that NaN fails too: every comparison with NaN is false
    if not 0.0 <= value < math.inf:
        raise InvalidParameters(f"{name} must be finite and >= 0, got {value}")


class SacrcConfig:
    """Hyperparameters for the augmented classifier, checked when built.

    `sparsity_k` of None resolves to min(50, N) against the dictionary when
    a `Gallery` is built.
    """

    __slots__ = ("ridge_lambda", "sparsity_k", "residual_tol")

    def __init__(self, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA, sparsity_k: int | None = None,
                 residual_tol: float = DEFAULT_RESIDUAL_TOL):
        _check_nonnegative("lambda", ridge_lambda)
        if sparsity_k is not None and sparsity_k < 1:
            raise InvalidParameters(f"sparsity_k must be >= 1, got {sparsity_k}")
        _check_nonnegative("residual_tol", residual_tol)
        self.ridge_lambda, self.sparsity_k, self.residual_tol = ridge_lambda, sparsity_k, residual_tol

    def resolve_k(self, num_atoms: int) -> int:
        k = min(DEFAULT_SPARSITY_CAP, num_atoms) if self.sparsity_k is None else self.sparsity_k
        if k > num_atoms:
            raise InvalidParameters(f"sparsity_k={k} exceeds dictionary size {num_atoms}")
        return k


class CrcOperator:
    """The ridge map y -> (Phi^T Phi + lambda I)^-1 Phi^T y of one dictionary.

    It inverts whichever regularized Gram matrix is smaller, once.  When
    D < N it applies the equal form Phi^T (Phi Phi^T + lambda I)^-1 y, so no
    N x N matrix is formed.  Immutable after construction.
    """

    def __init__(self, dictionary: Dictionary, ridge_lambda: float = DEFAULT_RIDGE_LAMBDA):
        _check_nonnegative("lambda", ridge_lambda)
        d, n = dictionary.dim, dictionary.num_atoms
        if ridge_lambda == 0.0 and n > d:
            raise SingularSystem(
                f"lambda=0 with {n} atoms in dimension {d}: Phi^T Phi is rank-deficient"
            )
        atoms = dictionary.atoms  # Phi^T
        self.wide = d < n
        gram = atoms.T @ atoms if self.wide else atoms @ atoms.T
        gram[np.diag_indices_from(gram)] += ridge_lambda
        try:
            np.linalg.cholesky(gram)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"Phi^T Phi + lambda I is not positive definite: {exc}") from exc
        self.gram_inverse = _frozen(np.linalg.inv(gram))
        self.dictionary = dictionary
        self.ridge_lambda = float(ridge_lambda)

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Collaborative coefficients of probe rows: (..., D) -> (..., N)."""
        atoms, inverse_t = self.dictionary.atoms, self.gram_inverse.T
        return (y @ inverse_t) @ atoms.T if self.wide else (y @ atoms.T) @ inverse_t


# ---------------------------------------------------------------------------
# block kernels: every probe is a row


def _unit_rows(y: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ZeroNormSample("cannot l2-normalize a zero vector")
    return y / norms


def _omp_block(atoms: np.ndarray, y: np.ndarray, k: int, tol: float) -> np.ndarray:
    """Orthogonal matching pursuit over the atoms (rows) run in lockstep over
    the rows of y.

    Each step correlates every residual with every atom in one product.  The
    Cholesky factor L of Phi_S^T Phi_S grows by one bordered row per step and
    is kept as its inverse, so the coefficients (Phi_S^T Phi_S)^-1 Phi_S^T y
    = Linv^T Linv Phi_S^T y are batched matrix products.  The residual is
    formed explicitly, and a probe leaves the block at its first stop: support
    size k, residual norm <= tol, or a residual orthogonal to every atom.
    """
    p, dim = y.shape
    alpha = np.zeros((p, atoms.shape[0]))
    sq_norms = np.einsum("nd,nd->n", atoms, atoms)
    live = np.arange(p)  # output row of each probe still in the block
    residual = y.copy()
    support = np.empty((p, k), dtype=np.intp)
    chosen = np.empty((p, k, dim))  # selected atoms, as rows
    linv = np.zeros((p, k, k))
    z = np.empty((p, k))  # Linv Phi_S^T y
    coeffs = np.empty((p, 0))
    for t in range(k):
        correlations = residual @ atoms.T
        j = np.abs(correlations).argmax(axis=1)  # first index on ties
        atom = atoms[j]
        w = (linv[:, :t, :t] @ (chosen[:, :t] @ atom[:, :, None]))[:, :, 0]
        delta_sq = sq_norms[j] - np.einsum("bt,bt->b", w, w)
        stop = (
            (np.linalg.norm(residual, axis=1) <= tol)
            | (correlations[np.arange(live.size), j] == 0.0)
            | (support[:, :t] == j[:, None]).any(axis=1)
            | (delta_sq <= DEPENDENT_ATOM_EPS * sq_norms[j])
        )
        if stop.any():
            alpha[live[stop, None], support[stop, :t]] = coeffs[stop]
            keep = ~stop
            live, y, residual, support, chosen, linv, z, coeffs, j, atom, w, delta_sq = (
                a[keep] for a in (live, y, residual, support, chosen, linv, z, coeffs,
                                  j, atom, w, delta_sq)
            )
            if not live.size:
                return alpha
        delta = np.sqrt(delta_sq)
        linv[:, t, :t] = -(w[:, None, :] @ linv[:, :t, :t])[:, 0] / delta[:, None]
        linv[:, t, t] = 1.0 / delta
        z[:, t] = (np.einsum("bd,bd->b", atom, y) - np.einsum("bt,bt->b", w, z[:, :t])) / delta
        support[:, t] = j
        chosen[:, t] = atom
        coeffs = (z[:, None, : t + 1] @ linv[:, : t + 1, : t + 1])[:, 0]
        residual = y - (coeffs[:, None, :] @ chosen[:, : t + 1])[:, 0]
    alpha[live[:, None], support] = coeffs
    return alpha


def _augment(alpha_collab: np.ndarray, alpha_sparse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise normalized sum of the two solutions.  Rows where they cancel
    fall back to the normalized collaborative solution and are flagged; a row
    where that is zero too is an error."""
    combined = alpha_collab + alpha_sparse
    norms = np.linalg.norm(combined, axis=-1, keepdims=True)
    fell_back = norms < AUGMENTATION_EPS
    if fell_back.any():
        collab_norms = np.linalg.norm(alpha_collab, axis=-1, keepdims=True)
        if np.any(fell_back & (collab_norms < AUGMENTATION_EPS)):
            raise DegenerateAugmentation("both coefficient vectors are zero")
        combined = np.where(fell_back, alpha_collab, combined)
        norms = np.where(fell_back, collab_norms, norms)
    return combined / norms, fell_back[..., 0]


def _class_residuals(y: np.ndarray, alpha: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """||y - Phi_i alpha_i|| for every row and class i, from each class's
    atoms alone: (P, D), (P, N) -> (P, c)."""
    bounds = [*dictionary.class_starts.tolist(), dictionary.num_atoms]
    residuals = np.empty((y.shape[0], dictionary.num_classes))
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        residuals[:, i] = np.linalg.norm(y - alpha[:, lo:hi] @ dictionary.atoms[lo:hi], axis=1)
    return residuals


def _knn1_scores(y: np.ndarray, dictionary: Dictionary) -> np.ndarray:
    """Minus the Euclidean distance from every row of y to each class's
    nearest enrolment sample, (P, c).  Sample j is n_j a_j, for atom a_j and
    n_j^2 = sq_norms[j], so its squared distance is ||y||^2 - 2 n_j (y.a_j)
    + n_j^2; the per-class minima are taken over each class's run of atoms.

    It sums a quarter of each term and doubles the root, exact scalings but
    for subnormals: the terms of inputs within `core._MAX_SUM_SQ` can sum to
    float64's maximum, which the full sum could round to inf."""
    sq_norms = dictionary.sq_norms
    sq = (y @ dictionary.atoms.T) * (-0.5 * np.sqrt(sq_norms))
    sq += 0.25 * np.einsum("pd,pd->p", y, y)[:, None]
    sq += 0.25 * sq_norms
    best = np.minimum.reduceat(np.sqrt(np.maximum(sq, 0.0)), dictionary.class_starts, axis=1)
    return np.where(np.isfinite(best), -2.0 * best, -np.inf)


def check_classifier(kind: str) -> None:
    if kind not in CLASSIFIERS:
        raise InvalidParameters(f"unknown classifier {kind!r}; choose from {', '.join(CLASSIFIERS)}")


class Gallery:
    """An enrolled gallery ready to score probes: the solver settings, the
    dictionary that `build_dictionary` makes of the enrolment passed in, and
    the sparsity k resolved against it.

    The enrolment itself is not kept: knn1 measures distances from the
    dictionary's atoms and squared norms.  The ridge map is set up the first
    time sacrc or crc is scored, so knn1 and src never need one.
    """

    def __init__(self, enrolment: Dataset, solver: SacrcConfig = SacrcConfig()):
        self.solver = solver
        self.dictionary = build_dictionary(enrolment)
        self.k = solver.resolve_k(self.dictionary.num_atoms)

    @cached_property
    def operator(self) -> CrcOperator:
        return CrcOperator(self.dictionary, self.solver.ridge_lambda)

    def scores(self, kinds: Sequence[str], probes: np.ndarray) -> list[np.ndarray]:
        """Per-class match scores of every probe row, one (P, c) matrix per
        kind in `kinds`, in that order.

        A kind is sacrc (augmented evidence), crc (normalized collaborative
        evidence), src (minus each class's reconstruction residual of the
        sparse code) or knn1 (minus the distance to the class's nearest
        enrolment sample).  Probes are l2-normalized first, except for knn1.
        Each row's scores depend on that row alone, and its argmax is the
        probe's decision (the lowest class index on ties).  Each probe block
        runs the ridge map at most once and the sparse solve at most once,
        whichever kinds share them.
        """
        for kind in kinds:
            check_classifier(kind)
        d = self.dictionary
        y = np.asarray(probes, dtype=np.float64)
        if y.ndim != 2 or y.shape[1] != d.dim:
            raise DimensionMismatch(f"probes have shape {y.shape}, expected (P, {d.dim})")
        wanted = set(kinds)
        y_hat = _unit_rows(y) if wanted - {"knn1"} else y
        step = self._block_rows(wanted)
        blocks = [self._block_scores(wanted, y[i : i + step], y_hat[i : i + step])
                  for i in range(0, y.shape[0], step)]
        if not blocks:
            return [np.empty((0, d.num_classes)) for _ in kinds]
        return [np.concatenate([block[kind] for block in blocks]) for kind in kinds]

    def _block_rows(self, kinds: set[str]) -> int:
        """Rows per probe block, from the kind whose step holds the most
        per-probe temporaries, so a one-kind call keeps that kind's blocks."""
        d, n, c, k = self.dictionary.dim, self.dictionary.num_atoms, self.dictionary.num_classes, self.k
        per_row = {"sacrc": k * (d + k) + 4 * n, "crc": 2 * n + c, "src": k * (d + k) + 2 * n + c,
                   "knn1": 2 * n + c}
        widest = max([per_row[kind] for kind in kinds], default=1)
        return max(1, min(_PROBE_BLOCK, _BLOCK_ELEMENTS // widest))

    def _block_scores(self, kinds: set[str], y: np.ndarray, y_hat: np.ndarray) -> dict[str, np.ndarray]:
        d, tol = self.dictionary, self.solver.residual_tol
        collab = self.operator.apply(y_hat) if kinds & {"sacrc", "crc"} else None
        sparse = _omp_block(d.atoms, y_hat, self.k, tol) if kinds & {"sacrc", "src"} else None
        out = {}
        if "sacrc" in kinds:
            out["sacrc"] = d.class_sums(_augment(collab, sparse)[0])
        if "crc" in kinds:
            norms = np.linalg.norm(collab, axis=1, keepdims=True)
            out["crc"] = d.class_sums(collab / np.where(norms > 0.0, norms, 1.0))
        if "src" in kinds:
            out["src"] = -_class_residuals(y_hat, sparse, d)
        if "knn1" in kinds:
            # knn1 takes the raw probes, which may be a mapped file's unaligned payload
            out["knn1"] = _knn1_scores(np.require(y, requirements="A"), d)
        return out
