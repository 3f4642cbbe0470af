"""Shared domain types: the validated dataset (samples as rows, with
row-aligned labels and ids, built by `dataset_from_arrays`) and the
class-labeled dictionary of unit rows every classifier solves against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParameters,
    MissingClass,
    NonFiniteValue,
    ZeroNormSample,
)


# Values per temporary (2 MB of float64) where a D-sized array is built in
# chunks: the dictionary atoms and the PCA directions.
_CHUNK_VALUES = 1 << 18


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value is finite.  A NaN or infinity makes the sum
    non-finite, so a finite sum settles it without an elementwise mask; only
    a sum that overflows needs the mask."""
    return bool(np.isfinite(a.sum()) or np.isfinite(a).all())


@dataclass(frozen=True)
class Dataset:
    """A validated sample collection with one shared feature dimension.

    `features` holds the samples as rows (M x D, float64) in input order;
    `labels` and `ids` are row-aligned.  The class index space is the
    contiguous range [0, num_classes); probe sets may leave some indices
    unused, enrolment sets may not (build_dictionary enforces that).
    """

    features: np.ndarray
    labels: np.ndarray
    ids: tuple[str, ...]

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class Dictionary:
    """Row-stacked l2-normalized gallery features plus class labels, built
    from an enrolment by `build_dictionary` (a `Gallery` builds its own).

    `atoms` is N x K with one unit-norm row per sample, ordered class-major
    (then input order within a class); the matrix Phi of the ridge and sparse
    solves is its transpose.  `sq_norms` holds each sample's squared l2 norm
    before normalization, row-aligned, so sample j is sqrt(sq_norms[j]) *
    atoms[j]; squared, because a sample's sum of squares can be exact where
    the square of its rounded root is not.
    `column_labels` maps each atom to its class and `class_starts` holds each
    class's first atom, so class i owns the atoms from class_starts[i] up to
    the next class's start.  A class's evidence is the sum of a code over its
    own atoms (`class_sums`).
    """

    atoms: np.ndarray
    sq_norms: np.ndarray
    column_labels: np.ndarray
    class_starts: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.atoms.shape[1])

    @property
    def num_atoms(self) -> int:
        return int(self.atoms.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.class_starts.shape[0])

    def class_sums(self, alpha: np.ndarray) -> np.ndarray:
        """Per-class sums over the class-major atoms: (..., N) -> (..., c)."""
        return np.add.reduceat(alpha, self.class_starts, axis=-1)


def dataset_from_arrays(
    features: np.ndarray, labels: Sequence[int] | np.ndarray, ids: Sequence[str]
) -> Dataset:
    """Build a validated Dataset from row-stacked features.

    Checks that it is non-empty, with one label and one id per row, finite
    values and non-negative integer labels; the class index space is
    [0, max label + 1).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D sample matrix, got shape {features.shape}")
    m, d = features.shape
    if m == 0:
        raise EmptyDataset("dataset has no samples")
    if d == 0:
        raise DimensionMismatch("samples must have at least one feature")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (m,):
        raise DimensionMismatch(f"expected {m} labels, got shape {labels.shape}")
    ids = tuple(str(s) for s in ids)
    if len(ids) != m:
        raise DimensionMismatch(f"expected {m} ids, got {len(ids)}")
    if not _all_finite(features):
        bad = int(np.nonzero(~np.isfinite(features).all(axis=1))[0][0])
        raise NonFiniteValue(f"sample {ids[bad]!r} contains a NaN or infinity")
    if labels.min() < 0:
        bad = int(np.nonzero(labels < 0)[0][0])
        raise InvalidParameters(f"sample {ids[bad]!r} has negative class label {int(labels[bad])}")
    return Dataset(_frozen(features), _frozen(labels), ids)


def build_dictionary(enrolment: Dataset) -> Dictionary:
    """Stack l2-normalized enrolment features as dictionary rows, keeping
    each sample's squared norm.

    Rows are ordered class-major, then input order within each class, so
    each class owns one run of rows.  Every class index in [0, num_classes)
    must have at least one sample and no sample may have zero norm.
    """
    labels = enrolment.labels
    c = enrolment.num_classes
    present = np.bincount(labels, minlength=c)
    if np.any(present == 0):
        missing = int(np.nonzero(present == 0)[0][0])
        raise MissingClass(f"class {missing} has no enrolment samples")

    order = np.argsort(labels, kind="stable")  # class-major, input order preserved
    features = enrolment.features
    m, d = features.shape
    # atoms and norms go through row chunks: no M x D temporary beside the atoms
    step = max(1, _CHUNK_VALUES // d)
    atoms, sq_norms = np.empty((m, d)), np.empty(m)
    for start in range(0, m, step):
        block, out = features[order[start : start + step]], atoms[start : start + step]
        # the squares go through the chunk's atoms; the root of their sum is np.linalg.norm's bits
        sq = sq_norms[start : start + step] = np.square(block, out=out).sum(axis=1)
        if np.any(sq == 0.0):
            bad = int(order[start + np.argmax(sq == 0.0)])
            raise ZeroNormSample(f"sample {enrolment.ids[bad]!r} has zero norm")
        np.divide(block, np.sqrt(sq)[:, None], out=out)
    starts = np.cumsum(present) - present  # first row of each class
    return Dictionary(_frozen(atoms), _frozen(sq_norms), _frozen(labels[order]), _frozen(starts))
