"""PCA by the smaller of two equivalent eigenproblems.

The centered samples X_c (M x D) have the same nonzero eigenvalues in the
M x M Gram matrix X_c X_c^T and in the D x D scatter X_c^T X_c, and fitting
decomposes whichever is smaller.  For D >= M (the Gram, or snapshot, route)
each Gram eigenvector v with eigenvalue mu maps to the principal direction
X_c v / sqrt(mu), so the D x D covariance is never materialized; for D < M
the scatter's eigenvectors are the directions.  The component count K is
read off the eigenvalues first and only those K directions are built.

A Gram-route fit holds X, the M x M eigenproblem and the D x K directions.
It makes two passes over X, both centring column chunks into reused buffers
(`_centred_columns`): the Gram, and the directions as one product per chunk
against the K weights zero-padded to a multiple of 8 columns.  It takes the
enrolment's projection from the Gram as G V diag(1/sqrt(mu)) without a third
pass (the scatter route, D < M, centres X once and then projects it).  `transform_dataset`
projects other samples in row blocks.  A Gram-route sweep costs the Gram
pass, which also forms the probes' cross-Gram, plus `eigh`: it projects in
sample space and holds no D x K array.
"""

from __future__ import annotations

from typing import NamedTuple

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

# Columns of X per Gram product; a wider X sums one Gram per column chunk.
_GRAM_COLUMNS = 2048

# Values per row block when projecting (16 MB; about 70 rows at D = 30000).
# Smaller blocks re-pack the projection too often, larger ones raise the peak.
_TRANSFORM_VALUES = 1 << 21

class PcaModel(NamedTuple):
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


def _fit(enrolment: Dataset, choose_k) -> tuple[PcaModel, Dataset]:
    """Fit the leading directions; `choose_k(variance_fractions)` says how many.
    Returns the model and the enrolment projected onto it.

    The fractions cover every direction above the eigenvalue floor, so a
    model's fractions do not depend on how many directions were built.
    """
    x = enrolment.features
    m, d = x.shape
    # The M x M Gram and the D x D scatter share their nonzero eigenvalues;
    # decompose the smaller one.
    if d >= m:
        mean, evals, fractions, weights, projected, _ = _gram_route(x, choose_k)
        directions = _gram_directions(x, mean, weights)
    else:
        mean = x.mean(axis=0)
        centered = x - mean
        evals, evecs, fractions = _ranked_eigh(centered.T @ centered)
        del centered  # transform_dataset centres the enrolment again, in row blocks
        directions = np.ascontiguousarray(evecs[:, : choose_k(fractions)])
    signs = _make_peaks_positive(directions)
    k = directions.shape[1]
    model = PcaModel(
        _frozen(mean), _frozen(directions), _frozen(evals[:k].copy()), _frozen(fractions[:k].copy())
    )
    if d < m:
        return model, transform_dataset(enrolment, model)
    projected *= signs  # a negated direction negates its coordinate, bit for bit
    return model, dataset_from_arrays(projected, enrolment.labels, enrolment.ids)


def _gram_route(x: np.ndarray, choose_k, probes: np.ndarray | None = None):
    """The Gram route's eigenproblem and sample-space projection.

    Returns `(mean, evals, fractions, weights, enrolment, probes)`: the
    mean, the Gram's eigenvalues and cumulative fractions down to the rank,
    the weights V diag(1/sqrt(mu)) of the first `choose_k(fractions)`
    eigenpairs, the enrolment's projection G @ weights and, when probes are
    given, theirs from the cross-Gram.  X_c W = X_c X_c^T V diag(1/sqrt(mu))
    for the directions W = X_c^T weights, so projecting takes no pass over X.
    The enrolment's product never includes probe rows, which could change
    how BLAS splits and rounds it: a fit and a sweep get the same bits.
    """
    m = x.shape[0]
    mean = x.mean(axis=0)
    grams = _centred_gram(x, mean, probes)
    evals, evecs, fractions = _ranked_eigh(grams[:m])
    k = choose_k(fractions)
    weights = evecs[:, :k] / np.sqrt(evals[:k])
    return mean, evals, fractions, weights, grams[:m] @ weights, grams[m:] @ weights


def _ranked_eigh(matrix: np.ndarray):
    """Eigenvalues, eigenvectors and cumulative variance fractions of a
    symmetric matrix, largest first, cut at the eigenvalue floor (the rank)."""
    evals, evecs = np.linalg.eigh(matrix)
    evals = evals[::-1]
    evecs = evecs[:, ::-1]
    if evals[0] <= 0.0:
        raise DegenerateData("all samples are identical; nothing to decompose")
    rank = int(np.count_nonzero(evals > EIGENVALUE_FLOOR_RATIO * evals[0]))
    evals = np.ascontiguousarray(evals[:rank])
    return evals, evecs[:, :rank], np.cumsum(evals) / evals.sum()


def _centred_columns(mean: np.ndarray, bounds: list[int], *arrays: np.ndarray):
    """For each column range lo:hi between consecutive `bounds`, yield
    `(lo, hi, chunks)`: columns lo:hi of each array minus the mean, each a
    C-contiguous view of one buffer per array that every range reuses."""
    width = max(hi - lo for lo, hi in zip(bounds, bounds[1:]))
    buffers = [np.empty(a.shape[0] * width) for a in arrays]
    for lo, hi in zip(bounds, bounds[1:]):
        yield lo, hi, [np.subtract(a[:, lo:hi], mean[lo:hi], out=b[: a.shape[0] * (hi - lo)].reshape(-1, hi - lo))
                       for a, b in zip(arrays, buffers)]


def _centred_gram(x: np.ndarray, mean: np.ndarray, probes: np.ndarray | None = None) -> np.ndarray:
    """X_c X_c^T summed over chunks of `_GRAM_COLUMNS` columns, each centred
    into one reused buffer.  For D <= `_GRAM_COLUMNS` it is one product.

    With P probe rows Y it returns the (M + P) x M stack [X_c; Y - mean] X_c^T:
    the Gram on top, the probes' cross-Gram below, summed in the same pass.
    """
    m, d = x.shape
    y = x[:0] if probes is None else probes
    grams = np.empty((m + y.shape[0], m))
    for lo, _, (chunk, probe_chunk) in _centred_columns(mean, [*range(0, d, _GRAM_COLUMNS), d], x, y):
        if lo == 0:  # assigned, not added to zeros, so a -0.0 entry keeps its sign for eigh
            grams[:m], grams[m:] = chunk @ chunk.T, probe_chunk @ chunk.T
        else:
            grams[:m] += chunk @ chunk.T
            grams[m:] += probe_chunk @ chunk.T
    return grams


def _gram_directions(x: np.ndarray, mean: np.ndarray, weights: np.ndarray):
    """(X - mean)^T @ weights, one product per column chunk of X.

    BLAS may round a column differently depending on how many columns are
    multiplied with it: numpy takes a matrix-vector path for one column, and
    OpenBLAS can round a last group of fewer than 8 columns unlike a full
    one (seen above 192 columns).  So the weights are zero-padded to a
    multiple of 8 columns, and column j comes out the same bits whatever the
    total K: a K-column fit equals the leading columns of a wider one.

    X is taken in column chunks of at most `_CHUNK_VALUES // 256` = 1024,
    each centred once into a reused buffer.  The columns are split evenly,
    so when there is more than one chunk each holds over half that many:
    OpenBLAS then rounds every row as it does in one D-row product, whereas
    a chunk of a few rows can take its small-matrix or matrix-vector path
    and round differently.  The split depends on D only, never on K.
    """
    m, k = weights.shape
    d = x.shape[1]
    padded = np.zeros((m, -(-k // 8) * 8))
    padded[:, :k] = weights
    chunks = -(-d // (_CHUNK_VALUES // 256))
    bounds = [d * i // chunks for i in range(chunks + 1)]
    directions = np.empty((d, k))
    product = np.empty((-(-d // chunks), padded.shape[1]))
    for lo, hi, (chunk,) in _centred_columns(mean, bounds, x):
        out = product[: hi - lo]
        np.matmul(chunk.T, padded, out=out)
        directions[lo:hi] = out[:, :k]
    return directions


def _make_peaks_positive(directions: np.ndarray) -> np.ndarray:
    """Sign convention, in place: the largest-magnitude entry of each column
    (the first on ties) is positive.  A column flips when its minimum
    outweighs its maximum; on a tie (+v and -v, or all zeros) its first peak
    decides.  Returns the +-1 factor applied to each column."""
    top, bottom = directions.max(axis=0), directions.min(axis=0)
    flip = -bottom > top
    for j in np.flatnonzero(-bottom == top):
        column = directions[:, j]
        flip[j] = column[np.argmax(np.abs(column))] < 0.0
    signs = np.where(flip, -1.0, 1.0)
    directions *= signs
    return signs


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
) -> tuple[PcaModel, Dataset]:
    """Fit a PCA model on enrolment data; return it with the enrolment
    projected onto it.

    Exactly one of `num_components` (fixed K) or `retain` (smallest K whose
    cumulative eigenvalue fraction reaches the target) may be given; with
    neither, the default of 1300 components applies when the data permits.
    The returned model may hold fewer columns than requested when the data
    rank is smaller.

    On the Gram route (D >= M) the projection is G V diag(1/sqrt(mu)) with
    the sign rule's flips, from the Gram the fit has already summed, so it
    takes no pass over X.  It equals `transform_dataset(enrolment, model)`
    up to rounding and `pca_sweep`'s enrolment at the same K up to column
    sign.  On the scatter route (D < M) it is `transform_dataset`'s result.
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
    """Project every sample of a dataset, keeping labels and ids, in evenly
    split row blocks centred into one reused buffer.  OpenBLAS picks its
    thread split and kernel tails by shape, so a block may round unlike one
    product in the last bits."""
    if ds.dim != model.dim_in:
        raise DimensionMismatch(f"dataset dim {ds.dim} does not match model dim {model.dim_in}")
    x = ds.features
    m, d = x.shape
    projected = np.empty((m, model.num_components))
    blocks = min(m, -(-m * d // _TRANSFORM_VALUES))
    bounds = [m * i // blocks for i in range(blocks + 1)]
    buffer = np.empty(-(-m // blocks) * d)
    for lo, hi in zip(bounds, bounds[1:]):
        rows = buffer[: (hi - lo) * d].reshape(hi - lo, d)
        np.subtract(x[lo:hi], model.mean, out=rows)
        np.matmul(rows, model.projection, out=projected[lo:hi])
    return dataset_from_arrays(projected, ds.labels, ds.ids)


def pca_sweep(enrolment: Dataset, probes: Dataset, k_values: list[int]):
    """Project enrolment and probes at the largest requested count.

    Returns `(counts, enrolment_all, probes_all)`: each requested count
    clipped to the data's rank, and both datasets projected onto the widest
    K directions; a count of k reads their leading k columns.

    On the Gram route (D >= M) no D x K array is built.  The enrolment's
    projection is `pca_fit`'s, G V diag(1/sqrt(mu)), and the probes' is
    C V diag(1/sqrt(mu)) for the cross-Gram C = (Y - mean) X_c^T, which the
    Gram's one pass over X also sums.  The sign rule is skipped, so a column
    may come out negated against `pca_fit(K)`'s; negating one coordinate of
    every atom and probe leaves every score the same bits.
    The scatter route (D < M) fits and projects.
    """
    if not k_values:
        raise InvalidParameters("k_values must not be empty")
    if enrolment.num_samples < 2:
        raise InsufficientSamples(f"PCA needs at least 2 samples, got {enrolment.num_samples}")
    if probes.dim != enrolment.dim:
        raise DimensionMismatch(f"probes have dim {probes.dim} but the enrolment has dim {enrolment.dim}")
    for k in k_values:
        _check_fixed_k(int(k), enrolment.dim, enrolment.num_samples)
    widest = max(int(k) for k in k_values)

    def clip(fractions):
        return min(widest, len(fractions))

    m, d = enrolment.features.shape
    if d >= m:
        projected, cross = _gram_route(enrolment.features, clip, probes.features)[4:]
        enrolment_all = dataset_from_arrays(projected, enrolment.labels, enrolment.ids)
        probes_all = dataset_from_arrays(cross, probes.labels, probes.ids)
    else:
        full, enrolment_all = _fit(enrolment, clip)
        probes_all = transform_dataset(probes, full)
    return [min(int(count), enrolment_all.dim) for count in k_values], enrolment_all, probes_all
