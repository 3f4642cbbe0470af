import csv
import struct
import tracemalloc

import numpy as np
import pytest

from reference_impls import flatten_reference, scores_csv_reference, tensor_file_reference
from sparserec.core import build_dictionary, dataset_from_arrays
from sparserec.errors import (
    BadMagic,
    InvalidParameters,
    TrailingData,
    TruncatedFile,
    VersionMismatch,
)
from sparserec.evaluation import EvalReport, Roc, ScoreSet, evaluate_verification, generate_synthetic
from sparserec.fileio import (
    _WRITE_CELLS,
    load_flat_dataset,
    read_feature_file,
    read_features_csv,
    read_pairs_csv,
    read_pca_model,
    write_dictionary,
    write_flat_features,
    write_pca_model,
    write_roc_csv,
    write_scores_csv,
)
from sparserec.pca import pca_fit


def _dataset(rng, m=5, d=4):
    return dataset_from_arrays(
        rng.standard_normal((m, d)), [i % 2 for i in range(m)], [f"s{i}" for i in range(m)]
    )


def test_flat_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    ds = _dataset(rng)
    path = tmp_path / "flat.feat"
    write_flat_features(path, ds)
    loaded = load_flat_dataset(path)
    assert loaded.features.tobytes() == ds.features.tobytes()
    assert np.array_equal(loaded.labels, ds.labels)
    assert loaded.ids == ds.ids


def test_unicode_ids_round_trip(tmp_path):
    ds = dataset_from_arrays(np.eye(2), [0, 1], ["prøbe-ø", "样本-1"])
    path = tmp_path / "u.feat"
    write_flat_features(path, ds)
    assert load_flat_dataset(path).ids == ("prøbe-ø", "样本-1")


def test_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    tensors = rng.standard_normal((3, 2, 4, 5))
    path = tmp_path / "t.feat"
    rows = dataset_from_arrays(tensors.reshape(3, -1), [0, 1, 0], ["a", "b", "c"])
    write_flat_features(path, rows, (4, 5, 2))
    # the one writer puts the documented tensor layout on disk
    assert path.read_bytes() == tensor_file_reference(tensors, [0, 1, 0], ["a", "b", "c"])
    flat = read_feature_file(path)
    assert flat.features.reshape(tensors.shape).tobytes() == tensors.tobytes()
    assert np.array_equal(flat.labels, [0, 1, 0])
    assert flat.ids == ("a", "b", "c")
    assert flat.dim == 2 * 4 * 5
    for i in range(3):  # file flattening agrees with the per-tensor index arithmetic
        assert np.array_equal(flat.features[i], flatten_reference(tensors[i]))


def test_flatten_reference_hand_case():
    maps = np.array([[[1, 2], [3, 4]], [[5, 6], [7, 8]]], dtype=float)
    assert np.array_equal(flatten_reference(maps), [1, 2, 3, 4, 5, 6, 7, 8])
    assert np.array_equal(flatten_reference(np.array([[[9.0]]])), [9.0])


def test_flattened_tensor_file_is_a_bijection(tmp_path):
    rng = np.random.default_rng(2)
    maps = rng.standard_normal((2, 3, 4, 5))  # two samples of 3 maps, 4 x 5 each
    path = tmp_path / "t.feat"
    path.write_bytes(tensor_file_reference(maps, [0, 1], ["a", "b"]))
    flat = read_feature_file(path)
    n, n1, n2 = maps.shape[1:]
    for sample in range(2):
        row = flat.features[sample]
        assert np.array_equal(row, flatten_reference(maps[sample]))
        for i, r, c in [(0, 0, 0), (1, 2, 3), (2, 3, 4), (1, 0, 4)]:
            assert row[i * n1 * n2 + r * n2 + c] == maps[sample, i, r, c]
        assert np.array_equal(row.reshape(n, n1, n2), maps[sample])


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(BadMagic):
        read_feature_file(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "v9.feat"
    path.write_bytes(b"CSRC" + struct.pack("<I", 9) + b"\x00" * 20)
    with pytest.raises(VersionMismatch):
        read_feature_file(path)


def test_truncated_payload_reports_offset(tmp_path):
    rng = np.random.default_rng(2)
    ds = _dataset(rng)
    path = tmp_path / "cut.feat"
    write_flat_features(path, ds)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(TruncatedFile, match="byte offset"):
        read_feature_file(path)


@pytest.mark.parametrize("layout", ["flat", "tensor"])
def test_reading_a_feature_file_copies_no_payload(tmp_path, layout):
    # D >> M, a 16 MB payload: the features are a view of the file's mapping,
    # so reading allocates far less than the payload.
    m, d = 8, 250_000
    values = np.random.default_rng(5).standard_normal((m, d))
    path = tmp_path / "wide.feat"
    shape = None if layout == "flat" else (125, 200, 10)
    write_flat_features(path, dataset_from_arrays(values, [0] * m, [f"s{i}" for i in range(m)]), shape)
    del values
    tracemalloc.start()
    try:
        loaded = read_feature_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.features.shape == (m, d)
    assert peak < m * d * 8 / 4


def test_rewriting_a_loaded_file_in_place_round_trips(tmp_path):
    # The loaded arrays read the file through its mapping, so writing them
    # back to the same path must not truncate that file under them.
    path = tmp_path / "same.feat"
    write_flat_features(path, _dataset(np.random.default_rng(7), m=40, d=300))
    written = path.read_bytes()
    write_flat_features(path, load_flat_dataset(path))
    assert path.read_bytes() == written


def test_declared_sizes_are_checked_before_allocating(tmp_path):
    path = tmp_path / "huge.feat"
    path.write_bytes(b"CSRC" + struct.pack("<IBII", 1, 0, 2**32 - 1, 2**32 - 1) + bytes(64))
    tracemalloc.start()
    try:
        with pytest.raises(TruncatedFile, match=r"feature payload at byte offset 17 \(need \d+ bytes, 64 left\)"):
            read_feature_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024


def test_trailing_bytes_rejected(tmp_path):
    rng = np.random.default_rng(3)
    ds = _dataset(rng)
    path = tmp_path / "extra.feat"
    write_flat_features(path, ds)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(TrailingData):
        read_feature_file(path)


def test_either_layout_loads_as_flat_rows(tmp_path):
    # the layouts differ only in their headers: 17 bytes flat, 25 bytes tensor
    rows = dataset_from_arrays(np.arange(8.0).reshape(2, 4), [0, 1], ["a", "b"])
    write_flat_features(tmp_path / "f.feat", rows)
    write_flat_features(tmp_path / "t.feat", rows, (2, 1, 2))
    flat, tensor = (tmp_path / "f.feat").read_bytes(), (tmp_path / "t.feat").read_bytes()
    assert flat[17:] == tensor[25:]
    for path in (tmp_path / "f.feat", tmp_path / "t.feat"):
        for loaded in (read_feature_file(path), load_flat_dataset(path)):
            assert loaded.features.tolist() == [[0.0, 1.0, 2.0, 3.0], [4.0, 5.0, 6.0, 7.0]]
            assert loaded.labels.tolist() == [0, 1] and loaded.ids == ("a", "b")


def test_writer_refuses_a_map_shape_that_does_not_hold_the_rows(tmp_path):
    rows = dataset_from_arrays(np.eye(4), [0, 1, 2, 3], ["a", "b", "c", "d"])
    with pytest.raises(InvalidParameters, match="map shape \\(1, 2, 3\\) holds 6 values per sample, dim is 4"):
        write_flat_features(tmp_path / "t.feat", rows, (1, 2, 3))
    assert not (tmp_path / "t.feat").exists()


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    ds = _dataset(rng, m=3, d=2)
    path = tmp_path / "f.csv"
    _reference_csv(path, ["id", "class_label", "v0", "v1"],
                   [(pid, label, *row) for pid, label, row in zip(ds.ids, ds.labels.tolist(), ds.features.tolist())])
    loaded = read_features_csv(path)
    assert np.max(np.abs(loaded.features - ds.features)) == 0.0  # 17g is lossless
    assert loaded.ids == ds.ids
    assert load_flat_dataset(path).ids == ds.ids  # .csv dispatch


def test_pca_model_round_trip(tmp_path):
    enrolment, _ = generate_synthetic(3, 4, 12, 2, 0.2, seed=5)
    model, _ = pca_fit(enrolment, num_components=4)
    path = tmp_path / "pca.bin"
    write_pca_model(path, model)
    loaded = read_pca_model(path)
    assert loaded.mean.tobytes() == model.mean.tobytes()
    assert loaded.eigenvalues.tobytes() == model.eigenvalues.tobytes()
    assert loaded.projection.tobytes() == model.projection.tobytes()


def test_dictionary_round_trip(tmp_path):
    # the layout in fileio's docstring: magic, version, atom dim K, atom count
    # N, class count c, the K x N atoms row-major, then the N column labels
    enrolment, _ = generate_synthetic(3, 4, 10, 2, 0.2, seed=6)
    d = build_dictionary(enrolment)
    path = tmp_path / "dict.bin"
    write_dictionary(path, d)
    data = path.read_bytes()
    assert data[:20] == b"CDIC" + struct.pack("<IIII", 1, 10, 12, 3)
    atoms = np.frombuffer(data[20 : 20 + 8 * 120], dtype="<f8").reshape(10, 12)
    assert atoms.tobytes() == d.atoms.T.tobytes()
    column_labels = np.frombuffer(data[20 + 8 * 120 :], dtype="<u4")
    assert np.array_equal(column_labels, d.column_labels)
    assert np.array_equal(np.flatnonzero(np.diff(column_labels, prepend=-1)), d.class_starts)


def test_dictionary_written_in_several_chunks(tmp_path, monkeypatch):
    from sparserec import fileio

    # the K x N = 10 x 12 matrix goes out 36 values (three of its rows) at a
    # time: rows 0-2, 3-5 and 6-8, then a one-row tail
    monkeypatch.setattr(fileio, "_CHUNK_VALUES", 36)
    enrolment, _ = generate_synthetic(3, 4, 10, 2, 0.2, seed=6)
    d = build_dictionary(enrolment)
    path = tmp_path / "dict.bin"
    write_dictionary(path, d)
    data = path.read_bytes()
    assert data[:20] == b"CDIC" + struct.pack("<IIII", 1, 10, 12, 3)
    assert data[20:] == np.ascontiguousarray(d.atoms.T).tobytes() + d.column_labels.astype("<u4").tobytes()


def test_scores_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    scoreset = ScoreSet(tuple(f"p{i}" for i in range(20)), np.arange(20), [i % 3 for i in range(20)],
                        rng.standard_normal(20), [bool(i % 2) for i in range(20)])
    path = tmp_path / "scores.csv"
    write_scores_csv(path, scoreset)
    ids, columns = scores_csv_reference(path)
    assert ids == scoreset.ids
    for name, column in columns.items():  # float scores survive exactly
        assert np.array_equal(column, getattr(scoreset, name))


def _reference_csv(path, header, rows):
    """Straight-line writer: csv.writer with every float as f"{x:.17g}"."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])


def _awkward_scoreset():
    # ids that need quoting, a non-ASCII id, an empty id; extreme and signed-zero scores
    ids = ("a,b", 'q"x', "zé", "", "line\nbreak", "plain")
    probe = [0, 0, 1, 1, 2, 3, 4, 5, 5]
    claim = [0, 1, 0, 1, 1, 0, 1, 0, 1]
    score = [-0.0, 5e-324, 1e300, -1e300, 0.1, 2.0 / 3.0, -2.5, 1.0, 0.1]
    genuine = [c == p % 2 for p, c in zip(probe, claim)]
    return ScoreSet(ids, probe, claim, score, genuine)


def test_csv_writers_match_reference_writer(tmp_path):
    s = _awkward_scoreset()
    write_scores_csv(tmp_path / "scores.csv", s)
    _reference_csv(tmp_path / "scores_ref.csv", ["probe_id", "claimed_class", "score", "is_genuine"],
                   [(s.ids[p], c, v, int(g)) for p, c, v, g in
                    zip(s.probe.tolist(), s.claim.tolist(), s.score.tolist(), s.is_genuine.tolist())])
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "scores_ref.csv").read_bytes()

    report = evaluate_verification(s)
    write_roc_csv(tmp_path / "roc.csv", report)
    roc = report.roc
    _reference_csv(tmp_path / "roc_ref.csv", ["threshold", "far", "gmr"],
                   zip(roc.threshold.tolist(), roc.far.tolist(), roc.gmr.tolist()))
    written = (tmp_path / "roc.csv").read_bytes()
    assert written == (tmp_path / "roc_ref.csv").read_bytes()
    lines = written.decode().splitlines()
    assert lines[1].startswith("-inf,1,1") and lines[-1] == "inf,0,0"
    assert any(line.startswith("-0,") for line in lines)


# Row counts against a writer's block of _WRITE_CELLS // width rows.
_BLOCK_CASES = {"one-row": lambda block: 1, "one-block": lambda block: block,
                "block-plus-one": lambda block: block + 1, "several-blocks": lambda block: 3 * block + 5}


def _with_specials(values):
    """`values` with signed zero, denormals and extremes at every fifth entry."""
    specials = np.array([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300])
    values[::5] = np.resize(specials, values[::5].shape)
    return values


@pytest.mark.parametrize("rows", _BLOCK_CASES.values(), ids=_BLOCK_CASES.keys())
def test_scores_csv_matches_reference_writer_across_blocks(tmp_path, rows):
    n = rows(_WRITE_CELLS // 4)
    rng = np.random.default_rng(n)
    ids = _awkward_scoreset().ids
    s = ScoreSet(ids, np.arange(n) % len(ids), rng.integers(0, 5, n), _with_specials(rng.standard_normal(n)),
                 rng.random(n) < 0.3)
    write_scores_csv(tmp_path / "scores.csv", s)
    _reference_csv(tmp_path / "scores_ref.csv", ["probe_id", "claimed_class", "score", "is_genuine"],
                   [(s.ids[p], c, v, int(g)) for p, c, v, g in
                    zip(s.probe.tolist(), s.claim.tolist(), s.score.tolist(), s.is_genuine.tolist())])
    assert (tmp_path / "scores.csv").read_bytes() == (tmp_path / "scores_ref.csv").read_bytes()


@pytest.mark.parametrize("rows", _BLOCK_CASES.values(), ids=_BLOCK_CASES.keys())
def test_roc_csv_matches_reference_writer_across_blocks(tmp_path, rows):
    n = rows(_WRITE_CELLS // 3)
    rng = np.random.default_rng(n)
    threshold = _with_specials(rng.standard_normal(n))
    threshold[-1], threshold[0] = np.inf, -np.inf  # the sentinel rows
    far, gmr = _with_specials(rng.random(n)), _with_specials(rng.random(n))
    gmr[-1] = 0.0  # the +inf row's gmr: keyed by value, it and a -0.0 of its block would print alike
    roc = Roc(threshold, far, gmr)
    write_roc_csv(tmp_path / "roc.csv", EvalReport(0.0, (), roc, ()))
    _reference_csv(tmp_path / "roc_ref.csv", ["threshold", "far", "gmr"],
                   zip(roc.threshold.tolist(), roc.far.tolist(), roc.gmr.tolist()))
    written = (tmp_path / "roc.csv").read_bytes()
    assert written == (tmp_path / "roc_ref.csv").read_bytes()
    assert written.decode().splitlines()[1].startswith("-inf,")


# Traced peak of writing a 200,000-row score set and its ROC.  Blocks of
# _WRITE_CELLS cells keep it at 2.5 MB; formatting whole columns at once
# (about 250 bytes a row) took 46 MB.
WRITE_PEAK_BOUND_MB = 8


def test_score_and_roc_writes_use_bounded_memory(tmp_path):
    n = 200_000
    rng = np.random.default_rng(8)
    ids = tuple(f"probe{i}" for i in range(500))
    s = ScoreSet(ids, np.arange(n) % 500, np.arange(n) // 500, rng.standard_normal(n), rng.random(n) < 0.01)
    report = evaluate_verification(s)
    tracemalloc.start()
    try:
        write_scores_csv(tmp_path / "scores.csv", s)
        write_roc_csv(tmp_path / "roc.csv", report)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.roc.threshold) == n + 2
    assert peak < WRITE_PEAK_BOUND_MB * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_scores_csv_round_trips_awkward_ids_and_scores(tmp_path):
    s = _awkward_scoreset()
    write_scores_csv(tmp_path / "scores.csv", s)
    ids, columns = scores_csv_reference(tmp_path / "scores.csv")
    assert ids == s.ids
    assert columns.pop("score").tobytes() == s.score.tobytes()  # bit-exact, -0.0 included
    for name, column in columns.items():
        assert np.array_equal(column, getattr(s, name))


def test_pairs_csv(tmp_path):
    path = tmp_path / "pairs.csv"
    path.write_text("probe_id,claimed_class\np0,1\np3,0\n")
    assert read_pairs_csv(path) == [("p0", 1), ("p3", 0)]
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n1,2\n")
    with pytest.raises(InvalidParameters):
        read_pairs_csv(bad)
