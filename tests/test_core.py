import tracemalloc

import numpy as np
import pytest

from reference_impls import label_matrix
from sparserec.core import build_dictionary, dataset_from_arrays
from sparserec.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParameters,
    MissingClass,
    NonFiniteValue,
    ZeroNormSample,
)


def rows(labels, values, ids=None):
    """A dataset of the given rows, one label per row."""
    return dataset_from_arrays(np.asarray(values, dtype=float), labels,
                               ids or [f"s{i}" for i in range(len(labels))])


def test_validate_wellformed():
    ds = rows([0, 1], [[1, 2, 3], [4, 5, 6]], ["a", "b"])
    assert ds.dim == 3
    assert ds.num_classes == 2
    assert ds.num_samples == 2
    assert ds.ids == ("a", "b")


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dataset_from_arrays(np.array([1.0, 2.0, 3.0]), [0], ["a"])  # not one row per sample
    with pytest.raises(DimensionMismatch):
        dataset_from_arrays(np.empty((2, 0)), [0, 1], ["a", "b"])  # no feature
    with pytest.raises(DimensionMismatch):
        dataset_from_arrays(np.ones((2, 3)), [0, 1, 1], ["a", "b"])  # labels not row-aligned
    with pytest.raises(DimensionMismatch):
        dataset_from_arrays(np.ones((2, 3)), [0, 1], ["a"])  # ids not row-aligned


def test_validate_nonfinite():
    with pytest.raises(NonFiniteValue):
        rows([0], [[1, np.nan]])
    with pytest.raises(NonFiniteValue):
        rows([0], [[1, np.inf]])


def test_validate_empty():
    with pytest.raises(EmptyDataset):
        dataset_from_arrays(np.empty((0, 3)), [], [])


def test_validate_negative_label():
    with pytest.raises(InvalidParameters):
        rows([-1], [[1.0]])


def test_samples_round_trip():
    ds = rows([0, 1], [[1, 2], [3, 4]], ["a", "b"])
    assert ds.ids[1] == "b"
    assert ds.labels[1] == 1
    assert np.array_equal(ds.features[1], [3.0, 4.0])


def test_build_dictionary_345_normalization():
    ds = rows([0, 1], [[3, 4], [0, 5]], ["a", "b"])
    d = build_dictionary(ds)
    assert np.allclose(d.atoms.T[:, 0], [0.6, 0.8])
    assert np.allclose(d.atoms.T[:, 1], [0.0, 1.0])
    assert np.array_equal(label_matrix(d.column_labels, d.num_classes), [[1, 0], [0, 1]])


def test_build_dictionary_zero_norm():
    ds = rows([0, 1], [[0.0, 0.0], [1.0, 0.0]], ["z", "b"])
    with pytest.raises(ZeroNormSample):
        build_dictionary(ds)


def test_label_matrix_shape_and_counts():
    ds = rows([0, 0, 1], [[1, 0], [0, 1], [1, 1]], ["a", "b", "c"])
    d = build_dictionary(ds)
    assert d.num_atoms == 3
    assert np.array_equal(d.class_starts, [0, 2])
    assert np.array_equal(label_matrix(d.column_labels, d.num_classes), [[1, 1, 0], [0, 0, 1]])
    # class sums add each atom's coefficient to its own class alone
    assert np.array_equal(d.class_sums(np.array([1.0, 2.0, 4.0])), [3.0, 4.0])


def test_column_order_class_major_then_input_order():
    ds = rows([1, 0, 1], [[0, 2], [3, 0], [2, 0]], ["x", "y", "z"])
    d = build_dictionary(ds)
    assert np.array_equal(d.column_labels, [0, 1, 1])
    assert np.allclose(d.atoms.T[:, 0], [1, 0])  # "y"
    assert np.allclose(d.atoms.T[:, 1], [0, 1])  # "x" before "z"
    assert np.allclose(d.atoms.T[:, 2], [1, 0])


def test_missing_class_rejected():
    ds = rows([0, 2], [[1.0], [2.0]])
    with pytest.raises(MissingClass):
        build_dictionary(ds)


def test_idempotent_on_normalized_input():
    rng = np.random.default_rng(0)
    ds = dataset_from_arrays(rng.standard_normal((6, 4)), [0, 0, 1, 1, 2, 2], list("abcdef"))
    d1 = build_dictionary(ds)
    ds2 = dataset_from_arrays(d1.atoms, d1.column_labels, [str(i) for i in range(6)])
    d2 = build_dictionary(ds2)
    assert np.max(np.abs(d1.atoms - d2.atoms)) < 1e-12


def test_deterministic_column_order():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 5))
    labels = [2, 0, 1, 2, 0, 1, 0, 2]
    d1 = build_dictionary(dataset_from_arrays(x, labels, [str(i) for i in range(8)]))
    d2 = build_dictionary(dataset_from_arrays(x.copy(), list(labels), [str(i) for i in range(8)]))
    assert d1.atoms.tobytes() == d2.atoms.tobytes()
    assert np.array_equal(d1.column_labels, d2.column_labels)


def test_unit_columns():
    rng = np.random.default_rng(2)
    ds = dataset_from_arrays(rng.standard_normal((10, 7)), [i % 2 for i in range(10)],
                             [str(i) for i in range(10)])
    d = build_dictionary(ds)
    assert np.max(np.abs(np.linalg.norm(d.atoms.T, axis=0) - 1.0)) < 1e-9


def test_build_dictionary_holds_no_copy_beside_the_atoms():
    m, d, c = 40, 100_000, 8
    rng = np.random.default_rng(3)
    ds = rows([i % c for i in range(m)], rng.standard_normal((m, d)))
    tracemalloc.start()
    try:
        dictionary = build_dictionary(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dictionary.atoms.flags.c_contiguous
    # the M x D atoms, plus chunks of at most 4 MB
    assert peak < m * d * 8 + 4e6


def test_package_exports_resolve():
    import sparserec

    assert [name for name in sparserec.__all__ if not hasattr(sparserec, name)] == []
