from types import SimpleNamespace

import numpy as np
import pytest

from reference_impls import best_sparse_fit, label_matrix, ridge_solve_reference, sacrc_reference
from sparserec import classifiers
from sparserec.classifiers import (
    CrcOperator,
    Gallery,
    SacrcConfig,
    _augment,
    _class_residuals,
    _omp_block,
    _unit_rows,
)
from sparserec.core import build_dictionary, dataset_from_arrays
from sparserec.evaluation import build_scoreset
from sparserec.errors import (
    DegenerateAugmentation,
    DimensionMismatch,
    InvalidParameters,
    SingularSystem,
    UnknownClass,
)


def _dictionary(atoms, labels):
    """Wrap explicit unit-norm columns into a Dictionary via the constructor."""
    atoms = np.asarray(atoms, dtype=float)
    ds = dataset_from_arrays(atoms.T, labels, [str(i) for i in range(atoms.shape[1])])
    return build_dictionary(ds)


def _identity_dictionary(n, labels=None):
    return _dictionary(np.eye(n), labels or list(range(n)))


def _gallery(d, cfg=SacrcConfig()):
    """A gallery whose enrolment samples are d's own atoms.  They have unit
    norm already, so its dictionary is d up to the last bit."""
    enrolment = dataset_from_arrays(d.atoms, d.column_labels, [str(i) for i in range(d.num_atoms)])
    return Gallery(enrolment, cfg)


def _crc(y, op):
    """The ridge code of one probe."""
    return op.apply(np.asarray(y, dtype=float)[None, :])[0]


def _omp(y, d, k, tol=0.0):
    """The sparse code of one probe."""
    return _omp_block(d.atoms, np.asarray(y, dtype=float)[None, :], k, tol)[0]


def _sacrc(y, d, cfg):
    """One probe's ridge, sparse and augmented codes, fallback flag and
    sacrc class scores, from the kernels and the gallery that score it."""
    y = np.asarray(y, dtype=float)[None, :]
    gallery = _gallery(d, cfg)
    y_hat = _unit_rows(y)
    collab = gallery.operator.apply(y_hat)
    sparse = _omp_block(gallery.dictionary.atoms, y_hat, gallery.k, cfg.residual_tol)
    aug, fell_back = _augment(collab, sparse)
    (scores,) = gallery.scores(["sacrc"], y)
    return SimpleNamespace(alpha_collab=collab[0], alpha_sparse=sparse[0], alpha_aug=aug[0],
                           class_scores=scores[0], predicted_class=int(np.argmax(scores[0])),
                           used_collab_fallback=bool(fell_back[0]))


# ---------------------------------------------------------------------------
# collaborative solve


def test_crc_identity_atoms_lambda_zero():
    d = _identity_dictionary(2)
    op = CrcOperator(d, 0.0)
    assert np.allclose(_crc(np.array([0.6, 0.8]), op), [0.6, 0.8])


def test_crc_identity_atoms_lambda_one():
    d = _identity_dictionary(2)
    op = CrcOperator(d, 1.0)
    assert np.allclose(_crc(np.array([0.6, 0.8]), op), [0.3, 0.4])


def test_crc_matches_dense_solve_oracle():
    rng = np.random.default_rng(0)
    ds = dataset_from_arrays(rng.standard_normal((12, 8)), [i % 3 for i in range(12)],
                             [str(i) for i in range(12)])
    d = build_dictionary(ds)
    op = CrcOperator(d, 0.01)
    for _ in range(5):
        y = rng.standard_normal(8)
        expected = ridge_solve_reference(d.atoms.T, y, 0.01)
        assert np.max(np.abs(_crc(y, op) - expected)) < 1e-10


def test_crc_satisfies_normal_equations():
    rng = np.random.default_rng(1)
    ds = dataset_from_arrays(rng.standard_normal((10, 15)), [i % 2 for i in range(10)],
                             [str(i) for i in range(10)])
    d = build_dictionary(ds)
    for lam in (0.0, 1e-3, 1e-1):
        op = CrcOperator(d, lam)
        y = rng.standard_normal(15)
        alpha = _crc(y, op)
        rhs = d.atoms @ y
        lhs = d.atoms @ (d.atoms.T @ alpha) + lam * alpha
        assert np.max(np.abs(lhs - rhs)) < 1e-8 * np.max(np.abs(rhs))


def test_crc_singular_system():
    rng = np.random.default_rng(2)
    ds = dataset_from_arrays(rng.standard_normal((8, 4)), [i % 2 for i in range(8)],
                             [str(i) for i in range(8)])
    d = build_dictionary(ds)  # 8 atoms in dimension 4: rank-deficient gram
    with pytest.raises(SingularSystem):
        CrcOperator(d, 0.0)
    # colinear atoms make the gram singular even with N <= K
    dup = build_dictionary(
        dataset_from_arrays(np.array([[1.0, 0, 0], [2.0, 0, 0]]), [0, 1], ["a", "b"])
    )
    with pytest.raises(SingularSystem):
        CrcOperator(dup, 0.0)
    CrcOperator(dup, 0.01)  # any positive ridge restores definiteness


def test_ridge_finite_difference_optimality():
    rng = np.random.default_rng(3)
    ds = dataset_from_arrays(rng.standard_normal((6, 9)), [i % 2 for i in range(6)],
                             [str(i) for i in range(6)])
    d = build_dictionary(ds)
    lam = 0.05
    op = CrcOperator(d, lam)
    y = rng.standard_normal(9)
    alpha = _crc(y, op)

    def objective(a):
        return float(np.sum((y - d.atoms.T @ a) ** 2) + lam * np.sum(a**2))

    base = objective(alpha)
    for i in range(alpha.size):
        for delta in (1e-4, -1e-4):
            perturbed = alpha.copy()
            perturbed[i] += delta
            assert objective(perturbed) >= base - 1e-12


# ---------------------------------------------------------------------------
# greedy sparse solve


def test_omp_single_atom_match():
    d = _identity_dictionary(4, [0, 0, 1, 1])
    y = 0.9 * d.atoms.T[:, 3]
    alpha = _omp(y, d, k=1)
    expected = np.zeros(4)
    expected[3] = 0.9
    assert np.max(np.abs(alpha - expected)) < 1e-12


def test_omp_zero_probe():
    d = _identity_dictionary(3)
    assert np.array_equal(_omp(np.zeros(3), d, k=2), np.zeros(3))


def test_omp_recovers_planted_code_orthonormal():
    rng = np.random.default_rng(4)
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    d = _dictionary(q, [i % 5 for i in range(10)])
    alpha_true = np.zeros(10)
    support = rng.choice(10, size=3, replace=False)
    alpha_true[support] = rng.standard_normal(3) + np.sign(rng.standard_normal(3)) * 0.5
    y = d.atoms.T @ alpha_true
    alpha = _omp(y, d, k=3)
    assert np.max(np.abs(alpha - alpha_true)) < 1e-10
    best_res, best_support, _ = best_sparse_fit(d.atoms.T, y, 3)
    assert set(np.nonzero(alpha)[0]) == set(best_support)
    assert best_res < 1e-10


def test_omp_residual_monotone_and_orthogonal():
    rng = np.random.default_rng(5)
    ds = dataset_from_arrays(rng.standard_normal((8, 6)), [i % 2 for i in range(8)],
                             [str(i) for i in range(8)])
    d = build_dictionary(ds)
    y = rng.standard_normal(6)
    previous = np.linalg.norm(y)
    for k in range(1, 7):
        alpha = _omp(y, d, k=k)
        residual = np.linalg.norm(y - d.atoms.T @ alpha)
        assert residual <= previous + 1e-12
        previous = residual
    alpha = _omp(y, d, k=6)
    residual = y - d.atoms.T @ alpha
    support = np.nonzero(alpha)[0]
    assert np.max(np.abs(d.atoms[support] @ residual)) < 1e-8


def test_omp_respects_sparsity_budget():
    rng = np.random.default_rng(6)
    ds = dataset_from_arrays(rng.standard_normal((12, 7)), [i % 3 for i in range(12)],
                             [str(i) for i in range(12)])
    d = build_dictionary(ds)
    for k in (1, 3, 5):
        alpha = _omp(rng.standard_normal(7), d, k=k)
        assert np.count_nonzero(alpha) <= k


def test_omp_parameter_validation():
    # the sparse solve's settings are checked where a gallery takes them
    d = _identity_dictionary(3)
    with pytest.raises(InvalidParameters):
        SacrcConfig(sparsity_k=0)
    with pytest.raises(InvalidParameters):
        _gallery(d, SacrcConfig(sparsity_k=4))
    with pytest.raises(DimensionMismatch):
        _gallery(d, SacrcConfig(sparsity_k=1)).scores(["src"], np.ones((1, 2)))


@pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
def test_solver_values_must_be_finite_and_nonnegative(value):
    d = _identity_dictionary(3)
    with pytest.raises(InvalidParameters, match="lambda must be finite"):
        SacrcConfig(ridge_lambda=value)
    with pytest.raises(InvalidParameters, match="residual_tol must be finite"):
        SacrcConfig(residual_tol=value)
    with pytest.raises(InvalidParameters, match="lambda must be finite"):
        CrcOperator(d, value)
    with pytest.raises(InvalidParameters, match="residual_tol must be finite"):
        _gallery(d, SacrcConfig(sparsity_k=1, residual_tol=value))


# ---------------------------------------------------------------------------
# augmented classification


def test_sacrc_exact_atom_match():
    d = _identity_dictionary(2, [0, 1])
    cfg = SacrcConfig(ridge_lambda=0.0, sparsity_k=1)
    result = _sacrc(d.atoms.T[:, 0], d, cfg)
    assert np.allclose(result.alpha_collab, [1.0, 0.0])
    assert np.allclose(result.alpha_sparse, [1.0, 0.0])
    assert np.allclose(result.alpha_aug, [1.0, 0.0])
    assert np.allclose(result.class_scores, [1.0, 0.0])
    assert result.predicted_class == 0
    assert not result.used_collab_fallback


def test_class_scores_are_label_matrix_times_alpha():
    rng = np.random.default_rng(7)
    ds = dataset_from_arrays(rng.standard_normal((9, 12)), [i % 3 for i in range(9)],
                             [str(i) for i in range(9)])
    d = build_dictionary(ds)
    result = _sacrc(rng.standard_normal(12), d, SacrcConfig())
    dense = label_matrix(d.column_labels, d.num_classes) @ result.alpha_aug
    assert np.max(np.abs(result.class_scores - dense)) < 1e-12
    assert result.predicted_class == int(np.argmax(result.class_scores))
    assert abs(np.linalg.norm(result.alpha_aug) - 1.0) < 1e-9
    assert np.count_nonzero(result.alpha_sparse) <= SacrcConfig().resolve_k(d.num_atoms)


def test_argmax_tie_breaks_to_lowest_class():
    # alpha [0.6, 0.8] on labels [0, 1] scores class 1; symmetric probe ties to class 0
    d = _identity_dictionary(2, [0, 1])
    result = _sacrc(np.array([0.6, 0.8]), d, SacrcConfig(ridge_lambda=0.0, sparsity_k=2))
    assert np.allclose(result.class_scores, [0.6, 0.8])
    assert result.predicted_class == 1
    tie = _sacrc(np.array([0.5, 0.5]), d, SacrcConfig(ridge_lambda=0.0, sparsity_k=2))
    assert tie.predicted_class == 0


def test_scale_invariance():
    rng = np.random.default_rng(8)
    ds = dataset_from_arrays(rng.standard_normal((10, 8)), [i % 4 for i in range(10)],
                             [str(i) for i in range(10)])
    d = build_dictionary(ds)
    cfg = SacrcConfig()
    y = rng.standard_normal(8)
    base = _sacrc(y, d, cfg)
    for c in (1e-3, 7.5, 1e4):
        scaled = _sacrc(c * y, d, cfg)
        assert scaled.predicted_class == base.predicted_class
        assert np.max(np.abs(scaled.class_scores - base.class_scores)) < 1e-9


def test_orthonormal_full_sparsity_closed_form():
    # lambda=0, orthonormal atoms, k=N: both solves give Phi^T y
    rng = np.random.default_rng(9)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    d = _dictionary(q, [0, 0, 1, 1, 2, 2])
    y = rng.standard_normal(6)
    result = _sacrc(y, d, SacrcConfig(ridge_lambda=0.0, sparsity_k=6, residual_tol=0.0))
    y_hat = y / np.linalg.norm(y)
    expected = d.atoms @ y_hat
    assert np.max(np.abs(result.alpha_collab - expected)) < 1e-10
    assert np.max(np.abs(result.alpha_sparse - expected)) < 1e-10
    assert np.max(np.abs(result.alpha_aug - expected / np.linalg.norm(expected))) < 1e-10


def test_sacrc_matches_reference_implementation():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n_classes = int(rng.integers(2, 5))
        per_class = int(rng.integers(2, 5))
        dim = int(rng.integers(6, 15))
        labels = [i % n_classes for i in range(n_classes * per_class)]
        ds = dataset_from_arrays(
            rng.standard_normal((len(labels), dim)), labels, [str(i) for i in range(len(labels))]
        )
        d = build_dictionary(ds)
        lam, k, tol = 0.01, min(4, d.num_atoms), 1e-6
        y = rng.standard_normal(dim)
        result = _sacrc(y, d, SacrcConfig(lam, k, tol))
        onehot = label_matrix(d.column_labels, n_classes)
        _, _, _, q_ref, pred_ref = sacrc_reference(d.atoms.T, onehot, y, lam, k, tol)
        assert np.max(np.abs(result.class_scores - q_ref)) < 1e-8
        assert result.predicted_class == pred_ref


def test_augmentation_fallback_and_error():
    collab = np.array([0.5, -0.5])
    alpha, fell_back = _augment(collab, -collab)  # exact cancellation
    assert fell_back
    assert np.allclose(alpha, collab / np.linalg.norm(collab))
    with pytest.raises(DegenerateAugmentation):
        _augment(np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# residual baseline


def _residuals(y, d, alpha):
    return _class_residuals(np.asarray(y)[None, :], np.asarray(alpha)[None, :], d)[0]


def test_src_residual_examples():
    # the src score row is minus these residuals; its argmax is the decision
    d = _identity_dictionary(2, [0, 1])
    y = d.atoms.T[:, 0]
    residuals = _residuals(y, d, [1.0, 0.0])
    assert int(np.argmax(-residuals)) == 0
    assert np.allclose(residuals, [0.0, 1.0])
    residuals = _residuals(y, d, np.zeros(2))
    assert int(np.argmax(-residuals)) == 0  # all residuals equal ||y|| = 1, tie to class 0
    assert np.allclose(residuals, [1.0, 1.0])


def test_src_residual_matches_masked_reconstruction():
    rng = np.random.default_rng(11)
    ds = dataset_from_arrays(rng.standard_normal((9, 7)), [i % 3 for i in range(9)],
                             [str(i) for i in range(9)])
    d = build_dictionary(ds)
    y = rng.standard_normal(7)
    alpha = rng.standard_normal(9)
    residuals = _residuals(y, d, alpha)
    for i in range(3):
        masked = alpha * (d.column_labels == i)
        assert abs(residuals[i] - np.linalg.norm(y - d.atoms.T @ masked)) < 1e-12


# ---------------------------------------------------------------------------
# nearest neighbor baseline


def _knn1_decision(y, ds):
    return int(np.argmax(Gallery(ds).scores(["knn1"], y[None, :])[0][0]))


def test_knn_exact_match_and_tie_break():
    ds = dataset_from_arrays(np.array([[0.0, 1.0], [2.0, 1.0]]), [1, 0], ["a", "b"])
    assert _knn1_decision(np.array([0.0, 1.0]), ds) == 1
    # equidistant between the two samples: the class scores tie and the
    # lowest class wins, as for every classifier
    assert _knn1_decision(np.array([1.0, 1.0]), ds) == 0


def test_knn_matches_event_by_event_scan():
    rng = np.random.default_rng(12)
    ds = dataset_from_arrays(rng.standard_normal((25, 6)), [i % 5 for i in range(25)],
                             [str(i) for i in range(25)])
    for _ in range(10):
        y = rng.standard_normal(6)
        best_label, best_dist = None, np.inf
        for i in range(25):
            dist = float(np.linalg.norm(ds.features[i] - y))
            if dist < best_dist:
                best_label, best_dist = int(ds.labels[i]), dist
        assert _knn1_decision(y, ds) == best_label


def test_knn_class_scores_are_negative_min_distances():
    ds = dataset_from_arrays(np.array([[2.0], [4.0], [10.0]]), [0, 0, 1], ["a", "b", "c"])
    scores = Gallery(ds).scores(["knn1"], np.array([[1.0]]))[0][0]
    assert np.allclose(scores, [-1.0, -9.0])


# ---------------------------------------------------------------------------
# verification scoring


def _claimed_scores(probes, d, cfg, pairs):
    """The sacrc match score of each (probe id, claimed class) pair."""
    return build_scoreset(probes, _gallery(d, cfg), pairs=pairs).score


def test_match_score_claimed_atom():
    d = _identity_dictionary(2, [0, 1])
    cfg = SacrcConfig(ridge_lambda=0.0, sparsity_k=1)
    probes = dataset_from_arrays(d.atoms, [0, 1], ["a0", "a1"])
    scores = _claimed_scores(probes, d, cfg, [("a0", 0), ("a1", 0)])
    assert scores.tolist() == pytest.approx([1.0, 0.0])


def test_match_score_unknown_class():
    d = _identity_dictionary(2, [0, 1])
    probes = dataset_from_arrays(np.array([[1.0, 0.0]]), [0], ["p"])
    with pytest.raises(UnknownClass):
        _claimed_scores(probes, d, SacrcConfig(), [("p", 2)])


def test_genuine_scores_dominate_impostor_scores():
    from sparserec.evaluation import generate_synthetic

    enrolment, probes = generate_synthetic(6, 5, 40, 3, 0.1, seed=13)
    d = build_dictionary(enrolment)
    cfg = SacrcConfig()
    pairs = [(pid, claim) for pid in probes.ids for claim in range(d.num_classes)]
    scores = _claimed_scores(probes, d, cfg, pairs)
    true = dict(zip(probes.ids, probes.labels))
    genuine = np.array([claim == true[pid] for pid, claim in pairs])
    assert np.median(scores[genuine]) > np.median(scores[~genuine])


def test_crc_class_scores_normalized():
    rng = np.random.default_rng(14)
    ds = dataset_from_arrays(rng.standard_normal((8, 10)), [i % 2 for i in range(8)],
                             [str(i) for i in range(8)])
    d = build_dictionary(ds)
    op = CrcOperator(d, 0.01)
    y = rng.standard_normal(10)
    scores = _gallery(d).scores(["crc"], y[None, :])[0][0]
    alpha = _crc(y / np.linalg.norm(y), op)
    dense = label_matrix(d.column_labels, d.num_classes) @ (alpha / np.linalg.norm(alpha))
    assert np.max(np.abs(scores - dense)) < 1e-12


def _unaligned(a):
    """`a`'s values as a float64 view at byte offset 1 of a uint8 buffer, laid
    out like a mapped feature payload (not 8-byte aligned)."""
    buffer = np.zeros(a.nbytes + 1, dtype=np.uint8)
    buffer[1:] = np.frombuffer(np.ascontiguousarray(a, dtype=np.float64).tobytes(), dtype=np.uint8)
    view = np.frombuffer(buffer, dtype=np.float64, count=a.size, offset=1).reshape(a.shape)
    assert not view.flags.aligned
    return view


def test_unaligned_inputs_score_the_same_bits():
    rng = np.random.default_rng(31)
    labels = np.repeat(np.arange(8), 5)
    enrolment = dataset_from_arrays(rng.standard_normal((40, 300)), labels, [f"e{i}" for i in range(40)])
    probes = rng.standard_normal((13, 300))
    kinds = ["sacrc", "crc", "src", "knn1"]
    expected = Gallery(enrolment).scores(kinds, probes)
    unaligned = dataset_from_arrays(_unaligned(enrolment.features), labels, enrolment.ids)
    got = Gallery(unaligned).scores(kinds, _unaligned(probes))
    for kind, want, have in zip(kinds, expected, got):
        assert have.tobytes() == want.tobytes(), kind


def test_knn1_over_several_probe_blocks_scores_unaligned_inputs_the_same_bits(monkeypatch):
    # 2 x 120 atoms + 40 classes = 280 values per probe row, so blocks of at
    # most 1024 values take the 9 probes three rows at a time
    monkeypatch.setattr(classifiers, "_BLOCK_ELEMENTS", 1 << 10)
    rng = np.random.default_rng(32)
    labels = np.repeat(np.arange(40), 3)
    enrolment = dataset_from_arrays(rng.standard_normal((120, 256)), labels, [f"e{i}" for i in range(120)])
    probes = rng.standard_normal((9, 256))
    (expected,) = Gallery(enrolment).scores(["knn1"], probes)
    unaligned = dataset_from_arrays(_unaligned(enrolment.features), labels, enrolment.ids)
    (got,) = Gallery(unaligned).scores(["knn1"], _unaligned(probes))
    assert got.tobytes() == expected.tobytes()
    distances = np.linalg.norm(probes[:, None, :] - enrolment.features[None, :, :], axis=2)
    nearest = np.array([[distances[p, labels == c].min() for c in range(40)] for p in range(9)])
    assert np.max(np.abs(got + nearest)) < 1e-12
