"""Property tests for the binary readers: a damaged file either loads or
raises a SparserecError, never another exception."""

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparserec.core import build_dictionary
from sparserec.errors import SparserecError
from sparserec.evaluation import generate_synthetic
from sparserec.fileio import (
    read_dictionary,
    read_feature_file,
    read_pca_model,
    write_dictionary,
    write_flat_features,
    write_pca_model,
    write_tensor_features,
)
from sparserec.pca import pca_fit

READERS = {
    "flat": read_feature_file,
    "tensor": read_feature_file,
    "pca": read_pca_model,
    "dictionary": read_dictionary,
}
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    """A directory holding one valid file of each kind, named after the kind."""
    directory = tmp_path_factory.mktemp("binary")
    enrolment, _ = generate_synthetic(3, 3, 8, 2, 0.2, seed=21)
    ids = [f"s{i}-é" for i in range(enrolment.num_samples)]
    write_flat_features(directory / "flat", enrolment)
    tensors = enrolment.features.reshape(-1, 2, 2, 2)
    write_tensor_features(directory / "tensor", tensors, enrolment.labels, ids)
    write_pca_model(directory / "pca", pca_fit(enrolment, num_components=3))
    write_dictionary(directory / "dictionary", build_dictionary(enrolment))
    return directory


def _load_damaged(scratch: Path, kind: str, data: bytes):
    path = scratch / f"{kind}.damaged"
    path.write_bytes(data)
    return READERS[kind](path)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_valid_files_load(scratch, kind):
    READERS[kind](scratch / kind)


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY_SETTINGS
@given(cut=st.integers(min_value=0))
def test_any_truncation_raises_a_declared_error(scratch, kind, cut):
    data = (scratch / kind).read_bytes()
    with pytest.raises(SparserecError):
        _load_damaged(scratch, kind, data[: cut % len(data)])


@pytest.mark.parametrize("kind", sorted(READERS))
@PROPERTY_SETTINGS
@given(position=st.integers(min_value=0), value=st.integers(min_value=0, max_value=255))
def test_any_single_byte_change_loads_or_raises_a_declared_error(scratch, kind, position, value):
    data = bytearray((scratch / kind).read_bytes())
    data[position % len(data)] = value
    try:
        _load_damaged(scratch, kind, bytes(data))
    except SparserecError:
        pass
