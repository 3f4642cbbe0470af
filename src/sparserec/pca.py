"""PCA by the smaller of two equivalent eigenproblems.

The centered samples X_c (M x D) have the same nonzero eigenvalues in the
M x M Gram matrix X_c X_c^T and in the D x D scatter X_c^T X_c, and fitting
decomposes whichever is smaller.  For D >= M (the Gram, or snapshot, route)
each Gram eigenvector v with eigenvalue mu maps to the principal direction
X_c v / sqrt(mu), so the D x D covariance is never materialized; for D < M
the scatter's eigenvectors are the directions.  The component count K is
read off the eigenvalues first and only those K directions are built.

Beyond the M x D input a fit holds one centred copy, the min(M, D)^2
eigenproblem and the D x K directions.  Directions and the sign rule are
built through fixed-size chunks, never a D-sized temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _CHUNK_VALUES, Dataset, _frozen, dataset_from_arrays
from .errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientSamples,
    InvalidParameters,
    KTooLarge,
)

# Eigenvalues below this fraction of the largest are numerical noise and are
# never turned into directions (division by sqrt(mu) would blow up).
EIGENVALUE_FLOOR_RATIO = 1e-10

# Component count used when no selection is given and the data permits it.
DEFAULT_NUM_COMPONENTS = 1300

# Most columns per product when mapping Gram eigenvectors to directions.
_BLOCK = 256

@dataclass(frozen=True)
class PcaModel:
    """Mean vector plus an orthonormal D x K projection.

    `eigenvalues` are the retained eigenvalues (sums of squared
    centered values along each direction), sorted non-increasing.
    `variance_fractions` is the cumulative share of the total retained-able
    variance explained by the leading columns; it reaches 1.0 at K = rank.
    """

    mean: np.ndarray
    projection: np.ndarray
    eigenvalues: np.ndarray
    variance_fractions: np.ndarray

    @property
    def dim_in(self) -> int:
        return int(self.projection.shape[0])

    @property
    def num_components(self) -> int:
        return int(self.projection.shape[1])


def _fit(enrolment: Dataset, choose_k) -> PcaModel:
    """Fit the leading directions; `choose_k(variance_fractions)` says how many.

    The fractions cover every direction above the eigenvalue floor, so a
    model's fractions do not depend on how many directions were built.
    """
    x = enrolment.features
    m, d = x.shape
    mean = x.mean(axis=0)
    centered = x - mean
    # The M x M Gram and the D x D scatter share their nonzero eigenvalues;
    # decompose the smaller one.
    use_gram = d >= m
    evals, evecs = np.linalg.eigh(centered @ centered.T if use_gram else centered.T @ centered)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[0] <= 0.0:
        raise DegenerateData("all samples are identical; nothing to decompose")
    floor = EIGENVALUE_FLOOR_RATIO * evals[0]
    rank = int(np.count_nonzero(evals > floor))
    evals = np.ascontiguousarray(evals[:rank])
    fractions = np.cumsum(evals) / evals.sum()
    k = choose_k(fractions)
    if use_gram:
        directions = _gram_directions(centered, evecs[:, :k] / np.sqrt(evals[:k]), min(_BLOCK, rank))
    else:
        directions = np.ascontiguousarray(evecs[:, :k])
    _make_peaks_positive(directions)
    return PcaModel(
        _frozen(mean), _frozen(directions), _frozen(evals[:k].copy()), _frozen(fractions[:k].copy())
    )


def _gram_directions(centered: np.ndarray, weights: np.ndarray, block_width: int) -> np.ndarray:
    """X_c^T @ weights, computed in zero-padded blocks of `block_width` columns.

    BLAS may round a column differently depending on how many columns are
    multiplied with it (numpy takes a matrix-vector path for one column).
    With every product the same shape, and that shape independent of K,
    column j comes out the same bits whatever the total K, so a K-column fit
    equals the leading columns of a wider one.

    Each block's product is taken over row chunks of at most `_CHUNK_VALUES`
    values, so the only temporary is one chunk.  The rows are split evenly,
    so when there is more than one chunk each holds over half that many
    values: OpenBLAS then rounds every row as it does in one D-row product,
    whereas a chunk of a few rows can take its small-matrix or matrix-vector
    path and round differently.  The split depends on D and the block width
    only, never on K.
    """
    m, k = weights.shape
    d = centered.shape[1]
    directions = np.empty((d, k))
    block = np.zeros((m, block_width))
    chunks = -(-d // max(1, _CHUNK_VALUES // block_width))
    bounds = [d * i // chunks for i in range(chunks + 1)]
    product = np.empty((-(-d // chunks), block_width))
    for start in range(0, k, block_width):
        width = min(block_width, k - start)
        block[:, :width] = weights[:, start : start + width]
        block[:, width:] = 0.0
        for lo, hi in zip(bounds, bounds[1:]):
            out = product[: hi - lo]
            np.matmul(centered[:, lo:hi].T, block, out=out)
            directions[lo:hi, start : start + width] = out[:, :width]
    return directions


def _make_peaks_positive(directions: np.ndarray) -> None:
    """Sign convention, in place: the largest-magnitude entry of each column
    (the first on ties) is positive.  Columns are taken a few at a time, so
    the |value| temporary stays near `_CHUNK_VALUES` values."""
    d, k = directions.shape
    step = max(1, _CHUNK_VALUES // d)
    for start in range(0, k, step):
        cols = directions[:, start : start + step]
        peak = np.argmax(np.abs(cols.T, order="C"), axis=1)
        flip = cols[peak, np.arange(cols.shape[1])] < 0.0
        cols[:, flip] *= -1.0


def _truncate(full: PcaModel, k: int) -> PcaModel:
    if k == full.num_components:
        return full
    return PcaModel(
        full.mean,
        _frozen(np.ascontiguousarray(full.projection[:, :k])),
        _frozen(full.eigenvalues[:k].copy()),
        _frozen(full.variance_fractions[:k].copy()),
    )


def _check_fixed_k(k: int, dim: int, num_samples: int) -> None:
    if k < 1:
        raise InvalidParameters(f"component count must be >= 1, got {k}")
    bound = min(dim, num_samples - 1)
    if k > bound:
        raise KTooLarge(
            f"requested {k} components but at most min(dim={dim}, samples-1={num_samples - 1})"
            f" = {bound} are available"
        )


def pca_fit(
    enrolment: Dataset,
    *,
    num_components: int | None = None,
    retain: float | None = None,
) -> PcaModel:
    """Fit a PCA model on enrolment data.

    Exactly one of `num_components` (fixed K) or `retain` (smallest K whose
    cumulative eigenvalue fraction reaches the target) may be given; with
    neither, the default of 1300 components applies when the data permits.
    The returned model may hold fewer columns than requested when the data
    rank is smaller.
    """
    if num_components is not None and retain is not None:
        raise InvalidParameters("give either num_components or retain, not both")
    if num_components is None and retain is None:
        num_components = DEFAULT_NUM_COMPONENTS
    if retain is not None and not 0.0 < retain <= 1.0:
        raise InvalidParameters(f"retain fraction must be in (0, 1], got {retain}")
    if enrolment.num_samples < 2:
        raise InsufficientSamples(f"PCA needs at least 2 samples, got {enrolment.num_samples}")
    if num_components is not None:
        _check_fixed_k(num_components, enrolment.dim, enrolment.num_samples)
        return _fit(enrolment, lambda fractions: min(num_components, len(fractions)))
    return _fit(enrolment, lambda fractions: min(
        int(np.searchsorted(fractions, retain, side="left")) + 1, len(fractions)))


def transform_dataset(ds: Dataset, model: PcaModel) -> Dataset:
    """Project every sample of a dataset, keeping labels and ids."""
    if ds.dim != model.dim_in:
        raise DimensionMismatch(f"dataset dim {ds.dim} does not match model dim {model.dim_in}")
    projected = (ds.features - model.mean) @ model.projection
    return dataset_from_arrays(projected, ds.labels, ds.ids)


def pca_sweep(enrolment: Dataset, k_values: list[int]) -> list[PcaModel]:
    """Fit once for the largest requested count, truncate to each of them.

    All returned models share the mean and their leading columns exactly;
    the model at K equals pca_fit(num_components=K) bit for bit.
    """
    if not k_values:
        raise InvalidParameters("k_values must not be empty")
    if enrolment.num_samples < 2:
        raise InsufficientSamples(f"PCA needs at least 2 samples, got {enrolment.num_samples}")
    for k in k_values:
        _check_fixed_k(int(k), enrolment.dim, enrolment.num_samples)
    widest = max(int(k) for k in k_values)
    full = _fit(enrolment, lambda fractions: min(widest, len(fractions)))
    return [_truncate(full, min(int(k), full.num_components)) for k in k_values]
