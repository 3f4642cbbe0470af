import numpy as np
import pytest

from sparserec.core import (
    FeatureVector,
    build_dictionary,
    dataset_from_arrays,
    validate_dataset,
)
from sparserec.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParameters,
    MissingClass,
    NonFiniteValue,
    ZeroNormSample,
)


def fv(label, values, ident="s"):
    return FeatureVector(ident, label, np.asarray(values, dtype=float))


def test_validate_wellformed():
    ds = validate_dataset([fv(0, [1, 2, 3], "a"), fv(1, [4, 5, 6], "b")])
    assert ds.dim == 3
    assert ds.num_classes == 2
    assert ds.num_samples == 2
    assert ds.ids == ("a", "b")


def test_validate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_dataset([fv(0, [1, 2, 3]), fv(1, [1, 2, 3, 4])])


def test_validate_nonfinite():
    with pytest.raises(NonFiniteValue):
        validate_dataset([fv(0, [1, np.nan])])
    with pytest.raises(NonFiniteValue):
        validate_dataset([fv(0, [1, np.inf])])


def test_validate_empty():
    with pytest.raises(EmptyDataset):
        validate_dataset([])


def test_validate_negative_label():
    with pytest.raises(InvalidParameters):
        validate_dataset([fv(-1, [1.0])])


def test_samples_round_trip():
    ds = validate_dataset([fv(0, [1, 2], "a"), fv(1, [3, 4], "b")])
    samples = ds.samples
    assert samples[1].id == "b"
    assert samples[1].class_label == 1
    assert np.array_equal(samples[1].values, [3.0, 4.0])


def test_build_dictionary_345_normalization():
    ds = validate_dataset([fv(0, [3, 4], "a"), fv(1, [0, 5], "b")])
    d = build_dictionary(ds)
    assert np.allclose(d.atoms[:, 0], [0.6, 0.8])
    assert np.allclose(d.atoms[:, 1], [0.0, 1.0])
    assert np.array_equal(d.label_matrix, [[1, 0], [0, 1]])


def test_build_dictionary_zero_norm():
    ds = validate_dataset([fv(0, [0.0, 0.0], "z"), fv(1, [1.0, 0.0], "b")])
    with pytest.raises(ZeroNormSample):
        build_dictionary(ds)


def test_label_matrix_shape_and_counts():
    ds = validate_dataset([fv(0, [1, 0], "a"), fv(0, [0, 1], "b"), fv(1, [1, 1], "c")])
    d = build_dictionary(ds)
    assert d.num_atoms == 3
    assert np.array_equal(d.label_matrix, [[1, 1, 0], [0, 0, 1]])
    # every atom belongs to exactly one class
    assert np.array_equal(d.label_matrix.sum(axis=0), np.ones(3))


def test_column_order_class_major_then_input_order():
    ds = validate_dataset(
        [fv(1, [0, 2], "x"), fv(0, [3, 0], "y"), fv(1, [2, 0], "z")]
    )
    d = build_dictionary(ds)
    assert np.array_equal(d.column_labels, [0, 1, 1])
    assert np.allclose(d.atoms[:, 0], [1, 0])  # "y"
    assert np.allclose(d.atoms[:, 1], [0, 1])  # "x" before "z"
    assert np.allclose(d.atoms[:, 2], [1, 0])


def test_missing_class_rejected():
    ds = validate_dataset([fv(0, [1.0]), fv(2, [2.0])])
    with pytest.raises(MissingClass):
        build_dictionary(ds)


def test_idempotent_on_normalized_input():
    rng = np.random.default_rng(0)
    ds = dataset_from_arrays(rng.standard_normal((6, 4)), [0, 0, 1, 1, 2, 2], list("abcdef"))
    d1 = build_dictionary(ds)
    ds2 = dataset_from_arrays(d1.atoms.T, d1.column_labels, [str(i) for i in range(6)])
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
    assert np.max(np.abs(np.linalg.norm(d.atoms, axis=0) - 1.0)) < 1e-9


def test_package_exports_resolve():
    import sparserec

    assert [name for name in sparserec.__all__ if not hasattr(sparserec, name)] == []
