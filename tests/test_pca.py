import time
import tracemalloc

import numpy as np
import pytest

from reference_impls import covariance_pca_reference, peaks_positive_reference
from sparserec import pca
from sparserec.core import dataset_from_arrays
from sparserec.cli import main
from sparserec.errors import (
    DegenerateData,
    DimensionMismatch,
    InsufficientSamples,
    InvalidParameters,
    KTooLarge,
)
from sparserec.fileio import write_flat_features
from sparserec.pca import (
    DEFAULT_NUM_COMPONENTS,
    pca_fit,
    pca_sweep,
    transform_dataset,
)


def _ds(rows):
    rows = np.asarray(rows, dtype=float)
    return dataset_from_arrays(rows, [0] * rows.shape[0], [str(i) for i in range(rows.shape[0])])


def _random_ds(rng, m, d):
    return _ds(rng.standard_normal((m, d)))


def _project(x, model):
    """One vector through transform_dataset, as a one-row dataset."""
    return transform_dataset(_ds([x]), model).features[0]


def test_rank_one_data():
    model, _ = pca_fit(_ds([[1.0, 1.0], [-1.0, -1.0]]), num_components=1)
    assert model.num_components == 1
    assert np.allclose(model.projection[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(model.eigenvalues, [4.0])  # sum of squared centered values
    assert np.allclose(model.variance_fractions, [1.0])


def test_matches_direct_covariance_decomposition():
    rng = np.random.default_rng(0)
    ds = _random_ds(rng, 4, 6)
    model, _ = pca_fit(ds, num_components=3)
    mean, evals, evecs = covariance_pca_reference(ds.features)
    assert np.allclose(model.mean, mean)
    for j in range(3):
        cosine = abs(model.projection[:, j] @ evecs[:, j])
        assert cosine > 1 - 1e-8
        assert abs(model.eigenvalues[j] - evals[j]) < 1e-8 * evals[j]


def test_projection_is_orthonormal():
    rng = np.random.default_rng(1)
    model, _ = pca_fit(_random_ds(rng, 8, 12), num_components=5)
    gram = model.projection.T @ model.projection
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8


def test_transform_of_mean_is_zero():
    rng = np.random.default_rng(2)
    model, _ = pca_fit(_random_ds(rng, 5, 7), num_components=3)
    assert np.max(np.abs(_project(model.mean.copy(), model))) < 1e-12


def test_transform_of_principal_direction_is_basis_vector():
    rng = np.random.default_rng(3)
    model, _ = pca_fit(_random_ds(rng, 6, 9), num_components=4)
    x = model.mean + model.projection[:, 0]
    projected = _project(x, model)
    assert np.max(np.abs(projected - np.eye(4)[0])) < 1e-8


def test_round_trip_residual_energy():
    rng = np.random.default_rng(4)
    ds = _random_ds(rng, 7, 10)
    k = 3
    model, _ = pca_fit(ds, num_components=k)
    _, _, evecs = covariance_pca_reference(ds.features)
    x = rng.standard_normal(10)
    centered = x - model.mean
    reconstructed = model.projection @ _project(x, model)
    residual_sq = float(np.sum((centered - reconstructed) ** 2))
    # energy outside the top-k subspace per the full decomposition
    inside = sum(float(centered @ evecs[:, j]) ** 2 for j in range(k))
    expected = float(centered @ centered) - inside
    assert abs(residual_sq - expected) < 1e-8


def test_projected_second_moment_is_diagonal():
    rng = np.random.default_rng(5)
    ds = _random_ds(rng, 10, 15)
    model, _ = pca_fit(ds, num_components=6)
    projected = transform_dataset(ds, model).features
    second_moment = projected.T @ projected
    off = second_moment - np.diag(np.diag(second_moment))
    assert np.max(np.abs(off)) < 1e-6 * np.max(np.diag(second_moment))


def test_variance_fractions_reach_one_at_rank():
    rng = np.random.default_rng(6)
    ds = _random_ds(rng, 5, 20)
    model, _ = pca_fit(ds, num_components=4)  # rank = samples - 1
    assert np.all(np.diff(model.variance_fractions) >= 0)
    assert abs(model.variance_fractions[-1] - 1.0) < 1e-9


def test_retain_fraction_selection():
    rng = np.random.default_rng(7)
    ds = _random_ds(rng, 8, 10)
    full, _ = pca_fit(ds, num_components=7)
    rho = float(full.variance_fractions[3]) + 1e-12
    model, _ = pca_fit(ds, retain=rho)
    manual = int(np.argmax(full.variance_fractions >= rho)) + 1
    assert model.num_components == manual
    model_all, _ = pca_fit(ds, retain=1.0)
    assert model_all.num_components == full.num_components


def test_k_too_large():
    rng = np.random.default_rng(8)
    with pytest.raises(KTooLarge):
        pca_fit(_random_ds(rng, 4, 10), num_components=4)  # max is samples-1 = 3
    with pytest.raises(KTooLarge):
        pca_fit(_random_ds(rng, 12, 5), num_components=6)  # max is dim = 5


def test_default_component_count_is_1300():
    assert DEFAULT_NUM_COMPONENTS == 1300
    rng = np.random.default_rng(9)
    with pytest.raises(KTooLarge, match="1300"):
        pca_fit(_random_ds(rng, 10, 2000))  # too few samples for the default


def test_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        pca_fit(_ds([[1.0, 2.0]]), num_components=1)


def test_degenerate_data():
    with pytest.raises(DegenerateData):
        pca_fit(_ds([[2.0, 2.0], [2.0, 2.0], [2.0, 2.0]]), num_components=1)


def test_invalid_selections():
    rng = np.random.default_rng(10)
    ds = _random_ds(rng, 5, 5)
    with pytest.raises(InvalidParameters):
        pca_fit(ds, num_components=2, retain=0.5)
    with pytest.raises(InvalidParameters):
        pca_fit(ds, retain=0.0)
    with pytest.raises(InvalidParameters):
        pca_fit(ds, num_components=0)


def test_sweep_shares_leading_columns_exactly():
    # A Gram-route sweep reads no directions; what `retain` relies on is that
    # a k-component fit is, bit for bit, the leading columns of a wider fit.
    rng = np.random.default_rng(11)
    ds = _random_ds(rng, 9, 12)
    (small, _), (large, _) = pca_fit(ds, num_components=2), pca_fit(ds, num_components=5)
    assert small.num_components == 2 and large.num_components == 5
    assert small.mean.tobytes() == large.mean.tobytes()
    assert small.projection.tobytes() == np.ascontiguousarray(large.projection[:, :2]).tobytes()


def test_sweep_equals_individual_fit_bitwise():
    # D < M: the sweep fits and projects, the same code as fit + transform.
    rng = np.random.default_rng(12)
    ds, probes = _random_ds(rng, 20, 12), _random_ds(rng, 7, 12)
    counts, enrolment_all, probes_all = pca_sweep(ds, probes, [4])
    fitted, reduced = pca_fit(ds, num_components=4)
    assert counts == [4]
    assert reduced.features.tobytes() == transform_dataset(ds, fitted).features.tobytes()
    assert enrolment_all.features.tobytes() == transform_dataset(ds, fitted).features.tobytes()
    assert probes_all.features.tobytes() == transform_dataset(probes, fitted).features.tobytes()
    assert enrolment_all.ids == ds.ids and probes_all.labels.tobytes() == probes.labels.tobytes()


def test_sweep_validates_k_values():
    rng = np.random.default_rng(13)
    ds = _random_ds(rng, 5, 8)
    with pytest.raises(KTooLarge):
        pca_sweep(ds, ds, [2, 10])
    with pytest.raises(InvalidParameters):
        pca_sweep(ds, ds, [])
    with pytest.raises(DimensionMismatch):
        pca_sweep(ds, _random_ds(rng, 3, 7), [2])


def test_high_dimensional_fit_stays_cheap():
    # The Gram route must scale with sample count; a 20000-dim covariance
    # would be a 3.2 GB matrix and an intractable eigendecomposition.
    rng = np.random.default_rng(14)
    ds = _random_ds(rng, 6, 20000)
    start = time.perf_counter()
    model, _ = pca_fit(ds, num_components=5)
    assert time.perf_counter() - start < 10.0
    assert model.projection.shape == (20000, 5)
    gram = model.projection.T @ model.projection
    assert np.max(np.abs(gram - np.eye(5))) < 1e-8


# Shapes that take each eigenproblem: (samples M, dimension D).  The Gram
# shape's directions are one product, of up to 304 columns at its rank 299.
GRAM_SHAPE = (300, 320)
SCATTER_SHAPE = (60, 20)
# A Gram shape whose directions are multiplied in several column chunks of X,
# with a remainder that fixed-size chunks would leave as a one-row tail.
CHUNKED_SHAPE = (300, 2 * (pca._CHUNK_VALUES // 256) + 1)


def test_scatter_branch_matches_direct_covariance_decomposition():
    rng = np.random.default_rng(15)
    ds = _random_ds(rng, 40, 6)  # D < M: the D x D scatter is the smaller problem
    model, _ = pca_fit(ds, num_components=6)
    mean, evals, evecs = covariance_pca_reference(ds.features)
    assert np.allclose(model.mean, mean)
    assert np.max(np.abs(model.projection.T @ model.projection - np.eye(6))) < 1e-12
    for j in range(6):
        assert abs(model.projection[:, j] @ evecs[:, j]) > 1 - 1e-8
        assert abs(model.eigenvalues[j] - evals[j]) < 1e-8 * evals[0]


@pytest.mark.parametrize("shape", [GRAM_SHAPE, SCATTER_SHAPE], ids=["gram", "scatter"])
def test_largest_entry_of_each_direction_is_positive(shape):
    model, _ = pca_fit(_random_ds(np.random.default_rng(16), *shape), num_components=10)
    peak = np.argmax(np.abs(model.projection), axis=0)
    assert np.all(model.projection[peak, np.arange(10)] > 0)


# Gram-route pairs either side of the 8-column unit the weights are padded to.
PADDING_PAIRS = [(1, 8), (7, 9), (8, 16), (196, 200), (199, 200), (255, 257)]


@pytest.mark.parametrize("shape,pairs", [
    (GRAM_SHAPE, [(1, 299), (37, 260), (256, 257), *PADDING_PAIRS]),
    (SCATTER_SHAPE, [(1, 20), (7, 15)]),
    (CHUNKED_SHAPE, [(1, 299), (37, 260), *PADDING_PAIRS]),
], ids=["gram", "scatter", "chunked"])
def test_sweep_head_equals_fit_bitwise(shape, pairs):
    ds = _random_ds(np.random.default_rng(17), *shape)
    for k, k_big in pairs:
        wide, _ = pca_fit(ds, num_components=k_big)
        fitted, _ = pca_fit(ds, num_components=k)
        head = {
            "mean": wide.mean,
            "projection": np.ascontiguousarray(wide.projection[:, :k]),
            "eigenvalues": wide.eigenvalues[:k],
            "variance_fractions": wide.variance_fractions[:k],
        }
        for field, expected in head.items():
            assert getattr(fitted, field).tobytes() == expected.tobytes(), (k, k_big, field)


@pytest.mark.parametrize("shape", [GRAM_SHAPE, SCATTER_SHAPE], ids=["gram", "scatter"])
def test_retain_picks_the_smallest_k_reaching_the_fraction(shape):
    ds = _random_ds(np.random.default_rng(18), *shape)
    full, _ = pca_fit(ds, num_components=min(shape[0] - 1, shape[1]))
    fractions = full.variance_fractions
    for rho in (float(fractions[3]), float(fractions[3]) + 1e-12, 0.5, 0.9, 1.0):
        model, _ = pca_fit(ds, retain=rho)
        reached = np.flatnonzero(fractions >= rho)  # none when rounding keeps the last below 1.0
        expected = int(reached[0]) + 1 if reached.size else full.num_components
        assert model.num_components == expected, rho
        assert model.projection.tobytes() == np.ascontiguousarray(full.projection[:, :expected]).tobytes()


def test_many_sample_fit_never_builds_the_sample_gram():
    # M = 3000 samples in D = 20: an M x M Gram alone would be 72 MB.
    ds = _random_ds(np.random.default_rng(19), 3000, 20)
    tracemalloc.start()
    try:
        model, _ = pca_fit(ds, num_components=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert model.projection.shape == (20, 5)
    assert peak < 3000 * 3000 * 8


def test_row_chunks_give_the_bits_of_one_product(monkeypatch):
    # 260 directions: 256 columns and a group of 4 padded to 8.
    ds = _random_ds(np.random.default_rng(21), *CHUNKED_SHAPE)
    chunked, _ = pca_fit(ds, num_components=260)
    monkeypatch.setattr(pca, "_CHUNK_VALUES", 1 << 40)  # one product, one sign pass
    whole, _ = pca_fit(ds, num_components=260)
    assert chunked.projection.tobytes() == whole.projection.tobytes()
    peak = np.argmax(np.abs(chunked.projection), axis=0)
    assert np.all(chunked.projection[peak, np.arange(260)] > 0)


def test_directions_are_built_in_products_no_wider_than_k_padded_to_8(monkeypatch):
    widths, matmul = [], np.matmul

    def spy(a, b, *args, **kwargs):
        widths.append(b.shape[1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(pca.np, "matmul", spy)
    pca_fit(_random_ds(np.random.default_rng(29), *CHUNKED_SHAPE), num_components=50)
    assert len(widths) == 3 and max(widths) <= 56, widths  # one product per column chunk of X


def test_sign_rule_matches_the_per_column_oracle():
    # Small integers give ties: +v and -v in one column, repeated peaks,
    # all-zero columns, and -0.0 entries.
    rng = np.random.default_rng(22)
    for _ in range(200):
        directions = rng.integers(-3, 4, size=(rng.integers(1, 7), 9)).astype(float)
        directions[:, 0] = 0.0
        directions[:, 1] = -0.0
        directions[:, 2] = np.copysign(0.0, rng.standard_normal(directions.shape[0]))
        directions[rng.integers(0, directions.shape[0]), 3] = -0.0
        expected = peaks_positive_reference(directions)
        pca._make_peaks_positive(directions)
        assert directions.tobytes() == expected.tobytes()


# A Gram-route input whose M x D values exceed every chunk and block budget.
LARGE_GRAM_SHAPE = (40, 100_000)


def test_gram_route_never_holds_a_second_sample_matrix():
    ds = _random_ds(np.random.default_rng(23), *LARGE_GRAM_SHAPE)
    limit = ds.features.nbytes
    models = {}
    for name, run in [
        ("fit", lambda: pca_fit(ds, num_components=10)),
        ("sweep", lambda: pca_sweep(ds, ds, [5, 10])),
        ("transform", lambda: transform_dataset(ds, models["fit"][0])),
    ]:
        tracemalloc.start()
        try:
            models[name] = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, (name, peak, limit)


def test_row_blocks_give_the_bits_of_one_product(monkeypatch):
    ds = _random_ds(np.random.default_rng(24), 61, 3000)
    model, _ = pca_fit(ds, num_components=40)
    whole = np.matmul(ds.features - model.mean, model.projection)
    assert transform_dataset(ds, model).features.tobytes() == whole.tobytes()
    monkeypatch.setattr(pca, "_TRANSFORM_VALUES", 21 * 3000)  # blocks of 20, 20 and 21 rows
    assert transform_dataset(ds, model).features.tobytes() == whole.tobytes()


def test_sweep_outputs_are_read_only():
    ds = _random_ds(np.random.default_rng(25), 30, 50)
    counts, enrolment_all, probes_all = pca_sweep(ds, ds, [3, 12])
    assert counts == [3, 12]
    for projected in (enrolment_all, probes_all):
        assert projected.features.shape == (30, 12)
        assert not projected.features.flags.writeable
    model, _ = pca_fit(ds, num_components=3)
    for field in ("mean", "projection", "eigenvalues", "variance_fractions"):
        assert not getattr(model, field).flags.writeable, field


def test_gram_column_chunks_change_only_rounding(monkeypatch):
    ds = _random_ds(np.random.default_rng(26), 40, 5000)
    chunked, _ = pca_fit(ds, num_components=10)
    monkeypatch.setattr(pca, "_GRAM_COLUMNS", 5000)  # one Gram product
    whole, _ = pca_fit(ds, num_components=10)
    assert np.max(np.abs(chunked.projection - whole.projection)) < 1e-10
    assert np.max(np.abs(chunked.eigenvalues / whole.eigenvalues - 1.0)) < 1e-12


def _low_rank_ds(rng, m, d, rank):
    return _ds(rng.standard_normal((m, rank)) @ rng.standard_normal((rank, d)))


# (enrolment M, D, probes P, requested counts, rank): one Gram product
# (D <= 2048), a chunked Gram whose last chunk is one column (and whose
# directions are built in row chunks), and a rank-6 enrolment whose widest
# request is clipped to the rank.
SWEEP_CASES = {
    "gram": (*GRAM_SHAPE, 30, [5, 260, 299], None),
    "chunked": (*CHUNKED_SHAPE, 20, [37, 299], None),
    "clipped": (40, 3000, 9, [3, 30], 6),
}


@pytest.mark.parametrize("case", sorted(SWEEP_CASES))
def test_gram_sweep_projects_like_fit_and_transform(case):
    m, d, p, k_values, rank = SWEEP_CASES[case]
    rng = np.random.default_rng(27)
    if rank is None:
        ds, probes = _random_ds(rng, m, d), _random_ds(rng, p, d)
    else:
        ds, probes = _low_rank_ds(rng, m, d, rank), _random_ds(rng, p, d)
    counts, enrolment_all, probes_all = pca_sweep(ds, probes, k_values)
    widest = rank or max(k_values)
    assert counts == [min(k, widest) for k in k_values]
    model, reduced = pca_fit(ds, num_components=max(k_values))
    assert model.num_components == widest
    # The fit takes the enrolment's projection from the same Gram product as
    # the sweep: the sweep's bits, up to the sign rule the sweep skips.
    sign = np.where(np.sum(enrolment_all.features * reduced.features, axis=0) < 0.0, -1.0, 1.0)
    assert (enrolment_all.features * sign).tobytes() == reduced.features.tobytes()
    # G V diag(1/sqrt(mu)) and C V diag(1/sqrt(mu)) equal (X - mean) W and
    # (Y - mean) W in exact arithmetic.  In floats the error grows as the
    # kept eigenvalues fall: at K = M - 1 on the 300 x 320 case the last
    # column is 9e-13 of its largest entry off, so the bound is 1e-12.
    for projected, source in ((reduced, ds), (enrolment_all, ds), (probes_all, probes)):
        expected = transform_dataset(source, model).features
        got = projected.features
        assert got.shape == expected.shape
        assert projected.ids == source.ids
        # the sweep skips the sign rule: each column may come out negated
        sign = np.where(np.sum(got * expected, axis=0) < 0.0, -1.0, 1.0)
        scale = np.max(np.abs(expected), axis=0)
        assert np.max(np.abs(got * sign - expected) / scale) < 1e-12


def test_gram_sweep_holds_no_direction_matrix(tmp_path):
    # 40 x 100,000 enrolment, 4 probes: the D x K directions at K = 20 would
    # be 16 MB, so the command may hold the loaded inputs and 8 MB besides.
    rng = np.random.default_rng(28)
    enrolment = dataset_from_arrays(rng.standard_normal(LARGE_GRAM_SHAPE), np.repeat(np.arange(4), 10),
                                    [f"e{i}" for i in range(40)])
    probes = dataset_from_arrays(rng.standard_normal((4, LARGE_GRAM_SHAPE[1])), np.arange(4),
                                 [f"p{i}" for i in range(4)])
    write_flat_features(tmp_path / "enrolment.feat", enrolment)
    write_flat_features(tmp_path / "probes.feat", probes)
    limit = enrolment.features.nbytes + probes.features.nbytes + 8 * 2**20
    del enrolment, probes
    argv = ["sweep-pcs", str(tmp_path / "enrolment.feat"), str(tmp_path / "probes.feat"),
            "--k-list", "5,20,10", "--out", str(tmp_path / "sweep")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


def _unaligned(ds):
    """`ds` with its features as a float64 view at byte offset 1 of a uint8
    buffer, laid out like a mapped feature payload (not 8-byte aligned)."""
    buffer = np.zeros(ds.features.nbytes + 1, dtype=np.uint8)
    buffer[1:] = np.frombuffer(ds.features.tobytes(), dtype=np.uint8)
    view = np.frombuffer(buffer, dtype=np.float64, count=ds.features.size, offset=1)
    unaligned = dataset_from_arrays(view.reshape(ds.features.shape), ds.labels, ds.ids)
    assert not unaligned.features.flags.aligned
    return unaligned


@pytest.mark.parametrize("shape", [GRAM_SHAPE, SCATTER_SHAPE, CHUNKED_SHAPE], ids=["gram", "scatter", "chunked"])
def test_unaligned_inputs_give_the_same_bits(shape):
    rng = np.random.default_rng(41)
    ds, probes = _random_ds(rng, *shape), _random_ds(rng, 7, shape[1])
    model, reduced = pca_fit(ds, num_components=10)
    model_u, reduced_u = pca_fit(_unaligned(ds), num_components=10)
    for field in ("mean", "projection", "eigenvalues", "variance_fractions"):
        assert getattr(model_u, field).tobytes() == getattr(model, field).tobytes(), field
    assert reduced_u.features.tobytes() == reduced.features.tobytes()
    assert (transform_dataset(_unaligned(probes), model).features.tobytes()
            == transform_dataset(probes, model).features.tobytes())
    swept = pca_sweep(ds, probes, [4, 10])
    swept_u = pca_sweep(_unaligned(ds), _unaligned(probes), [4, 10])
    assert swept_u[0] == swept[0]
    for want, have in zip(swept[1:], swept_u[1:]):
        assert have.features.tobytes() == want.features.tobytes()
