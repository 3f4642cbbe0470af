"""Property tests for the file readers: a damaged file either loads or
raises a SparserecError, never another exception.  A CSV error also names
the file and the line."""

import csv
import io
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparserec.core import dataset_from_arrays
from sparserec.errors import SparserecError
from sparserec.evaluation import generate_synthetic
from sparserec.fileio import (
    read_feature_file,
    read_features_csv,
    read_pairs_csv,
    read_pca_model,
    write_flat_features,
    write_pca_model,
)
from sparserec.pca import pca_fit

READERS = {
    "flat": read_feature_file,
    "tensor": read_feature_file,
    "pca": read_pca_model,
}
CSV_READERS = {
    "features.csv": read_features_csv,
    "pairs.csv": read_pairs_csv,
}
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    """A directory holding one valid file of each kind, named after the kind."""
    directory = tmp_path_factory.mktemp("binary")
    enrolment, _ = generate_synthetic(3, 3, 8, 2, 0.2, seed=21)
    ids = [f"s{i}-é" for i in range(enrolment.num_samples)]
    write_flat_features(directory / "flat", enrolment)
    write_flat_features(directory / "tensor", dataset_from_arrays(enrolment.features, enrolment.labels, ids),
                        (2, 2, 2))
    write_pca_model(directory / "pca", pca_fit(enrolment, num_components=3)[0])
    with open(directory / "features.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "class_label"] + [f"v{i}" for i in range(enrolment.dim)])
        writer.writerows([pid, label, *row] for pid, label, row in
                         zip(enrolment.ids, enrolment.labels.tolist(), enrolment.features.tolist()))
    (directory / "pairs.csv").write_text("probe_id,claimed_class\np0,1\np1,0\n\"p,2\",2\n")
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


# A field value a number parser treats specially, or free text.
FIELD = st.one_of(st.text(max_size=8), st.sampled_from(
    ["", "nan", "-inf", "1e999", "-1", "0", "1", "4294967296", "9" * 25, "1_0", " 2 ", "0x1"]))


def _with_field(row: str, column: int, value: str) -> str:
    fields = next(csv.reader([row]))
    fields[column % len(fields)] = value
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(fields)
    return buf.getvalue()


@pytest.mark.parametrize("kind", sorted(CSV_READERS))
@PROPERTY_SETTINGS
@given(line=st.integers(min_value=1), column=st.integers(min_value=0),
       change=st.one_of(st.tuples(st.just("row"), st.text(max_size=40)), st.tuples(st.just("field"), FIELD)))
def test_any_csv_row_change_loads_or_names_the_line(scratch, kind, line, column, change):
    """One data row replaced by free text (quotes, separators, NUL and line
    breaks included), or one of its fields replaced by another value."""
    lines = (scratch / kind).read_text().splitlines()
    line = 1 + line % (len(lines) - 1)
    how, text = change
    lines[line] = text if how == "row" else _with_field(lines[line], column, text)
    path = scratch / f"{kind}.damaged"
    path.write_text("\n".join(lines) + "\n")
    try:
        CSV_READERS[kind](path)
    except SparserecError as exc:
        assert re.search(re.escape(str(path)) + r":\d+: ", str(exc)), str(exc)
