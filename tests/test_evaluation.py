import numpy as np
import pytest

from reference_impls import eer_recount, gmr_at_far_recount, roc_recount
from sparserec.classifiers import Gallery, SacrcConfig
from sparserec.core import dataset_from_arrays
from sparserec.errors import (
    DegenerateScoreSet,
    DimensionMismatch,
    InvalidParameters,
    UnknownClass,
)
from sparserec.evaluation import (
    ScoreSet,
    build_scoreset,
    compute_roc,
    evaluate_verification,
    generate_synthetic,
    rank1_identification,
)


def _scoreset(genuine, impostor):
    """Probes g0.. make genuine claims on class 0, probes i0.. impostor claims on class 1."""
    g, i = len(genuine), len(impostor)
    ids = tuple(f"g{k}" for k in range(g)) + tuple(f"i{k}" for k in range(i))
    return ScoreSet(ids, np.arange(g + i), [0] * g + [1] * i, np.concatenate([genuine, impostor]),
                    [True] * g + [False] * i)


def _eer(scoreset):
    return evaluate_verification(scoreset).eer


def _gmr_at_far(scoreset, target):
    return evaluate_verification(scoreset, (target,)).gmr_at_far[0]


def _fitted(num_classes=3, per_class=4, dim=20, seed=0):
    enrolment, probes = generate_synthetic(num_classes, per_class, dim, 3, 0.1, seed=seed)
    gallery = Gallery(enrolment)
    return enrolment, probes, gallery.dictionary, gallery


# ---------------------------------------------------------------------------
# score-set construction


def test_all_vs_all_counting():
    enrolment, probes, d, gallery = _fitted(num_classes=3)
    two = dataset_from_arrays(probes.features[:2], probes.labels[:2], probes.ids[:2])
    scoreset = build_scoreset(two, gallery)
    assert scoreset.score.size == 6
    assert scoreset.is_genuine.sum() == 2
    assert not scoreset.score.flags.writeable and not scoreset.is_genuine.flags.writeable


def test_probe_with_unenrolled_class_is_all_impostor():
    enrolment, probes, d, gallery = _fitted(num_classes=3)
    alien = dataset_from_arrays(probes.features[:1], [7], ["alien"])
    scoreset = build_scoreset(alien, gallery)
    assert scoreset.score.size == 3
    assert not scoreset.is_genuine.any()


def test_counts_match_combinatorial_formula():
    enrolment, probes, d, gallery = _fitted(num_classes=5, per_class=3)
    scoreset = build_scoreset(probes, gallery)
    m, c = probes.num_samples, d.num_classes
    assert scoreset.score.size == m * c
    assert scoreset.is_genuine.sum() == m
    assert (~scoreset.is_genuine).sum() == m * (c - 1)
    # probe-major rows: every class claimed once per probe, in class order
    assert scoreset.ids == probes.ids
    assert np.array_equal(scoreset.probe, np.repeat(np.arange(m), c))
    assert np.array_equal(scoreset.claim, np.tile(np.arange(c), m))
    assert np.array_equal(scoreset.is_genuine, scoreset.claim == probes.labels[scoreset.probe])


def test_pairs_protocol():
    enrolment, probes, d, gallery = _fitted(num_classes=3)
    pairs = [(probes.ids[0], 0), (probes.ids[0], 2), (probes.ids[3], 1)]
    scoreset = build_scoreset(probes, gallery, pairs=pairs)
    assert scoreset.score.size == 3
    assert [(scoreset.ids[p], c) for p, c in zip(scoreset.probe, scoreset.claim)] == pairs
    full = build_scoreset(probes, gallery)
    rows = scoreset.probe * d.num_classes + scoreset.claim  # all-vs-all row of each pair
    assert np.array_equal(scoreset.score, full.score[rows])
    assert np.array_equal(scoreset.is_genuine, full.is_genuine[rows])
    with pytest.raises(UnknownClass):
        build_scoreset(probes, gallery, pairs=[(probes.ids[0], 9)])
    with pytest.raises(InvalidParameters):
        build_scoreset(probes, gallery, pairs=[("nope", 0)])


def test_scoreset_dimension_mismatch():
    enrolment, probes, d, gallery = _fitted()
    bad = dataset_from_arrays(np.ones((2, d.dim + 1)), [0, 1], ["a", "b"])
    with pytest.raises(DimensionMismatch):
        build_scoreset(bad, gallery)


# ---------------------------------------------------------------------------
# ROC


def test_roc_separable_contains_perfect_point():
    roc = compute_roc(_scoreset([0.9, 0.8], [0.1, 0.2]))
    assert np.any((roc.far == 0.0) & (roc.gmr == 1.0))


def test_roc_all_scores_identical():
    roc = compute_roc(_scoreset([0.5, 0.5], [0.5]))
    assert set(zip(roc.far.tolist(), roc.gmr.tolist())) == {(1.0, 1.0), (0.0, 0.0)}


def test_roc_matches_quadratic_recount():
    rng = np.random.default_rng(0)
    genuine = rng.normal(1.0, 1.0, size=300)
    impostor = rng.normal(0.0, 1.0, size=700)
    roc = compute_roc(_scoreset(genuine, impostor))
    recounted = roc_recount(list(genuine), list(impostor))
    assert len(roc.threshold) == len(recounted)
    for threshold, far, gmr, (t, far_ref, gmr_ref) in zip(roc.threshold, roc.far, roc.gmr, recounted):
        assert threshold == t
        assert far == far_ref
        assert gmr == gmr_ref


def test_roc_monotone_in_threshold():
    rng = np.random.default_rng(1)
    roc = compute_roc(_scoreset(rng.normal(1, 1, 50), rng.normal(0, 1, 80)))
    assert np.all(np.diff(roc.far) <= 0.0)
    assert np.all(np.diff(roc.gmr) <= 0.0)
    assert np.all(np.diff(roc.threshold) > 0.0)
    # gmr = 1 - fnmr by definition of the accept rule
    assert np.all((0.0 <= roc.far) & (roc.far <= 1.0) & (0.0 <= roc.gmr) & (roc.gmr <= 1.0))


def test_roc_degenerate():
    with pytest.raises(DegenerateScoreSet):
        compute_roc(ScoreSet(("g",), [0], [0], [1.0], [True]))


# ---------------------------------------------------------------------------
# EER


def test_eer_perfect_separation():
    assert _eer(_scoreset([0.9, 0.8], [0.1, 0.2])) == 0.0


def test_eer_identical_distributions_is_half():
    scores = [0.1, 0.4, 0.5, 0.9]
    assert abs(_eer(_scoreset(scores, scores)) - 0.5) < 1e-12


def test_eer_crossing_region_hand_case():
    assert _eer(_scoreset([0.8, 0.4], [0.6, 0.2])) == 0.5


def test_eer_matches_recount_oracle():
    rng = np.random.default_rng(2)
    for _ in range(10):
        genuine = rng.normal(0.6, 0.4, size=int(rng.integers(5, 60)))
        impostor = rng.normal(0.0, 0.4, size=int(rng.integers(5, 60)))
        assert _eer(_scoreset(genuine, impostor)) == eer_recount(list(genuine), list(impostor))


def test_eer_invariant_under_increasing_transform():
    rng = np.random.default_rng(3)
    genuine = rng.normal(1.0, 0.5, size=40)
    impostor = rng.normal(0.0, 0.5, size=60)
    base = _eer(_scoreset(genuine, impostor))
    for transform in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: np.exp(0.5 * s)):
        mapped = _eer(_scoreset(transform(genuine), transform(impostor)))
        assert abs(mapped - base) < 1e-12


def test_eer_order_independence():
    rng = np.random.default_rng(4)
    genuine = list(rng.normal(1, 1, 30))
    impostor = list(rng.normal(0, 1, 30))
    ordered = _scoreset(genuine, impostor)
    base = _eer(ordered)
    perm = rng.permutation(ordered.score.size)
    shuffled = ScoreSet(ordered.ids, ordered.probe[perm], ordered.claim[perm],
                        ordered.score[perm], ordered.is_genuine[perm])
    assert _eer(shuffled) == base
    assert _gmr_at_far(shuffled, 0.1) == _gmr_at_far(ordered, 0.1)
    a, b = compute_roc(shuffled), compute_roc(ordered)
    for column in ("threshold", "far", "gmr"):
        assert np.array_equal(getattr(a, column), getattr(b, column))


# ---------------------------------------------------------------------------
# GMR at FAR


def test_gmr_perfect_separation_any_target():
    s = _scoreset([0.9, 0.8, 0.7], [0.1, 0.2])
    for target in (0.5, 0.1, 0.01, 0.001):
        assert _gmr_at_far(s, target).gmr == 1.0


def test_gmr_chance_line():
    scores = list(np.linspace(0.0, 1.0, 200))
    result = _gmr_at_far(_scoreset(scores, scores), 0.1)
    assert abs(result.gmr - 0.1) <= 1.0 / 200 + 1e-12


def test_gmr_matches_impostor_quantile_oracle():
    rng = np.random.default_rng(5)
    genuine = rng.normal(1.0, 1.0, size=10000)
    impostor = rng.normal(0.0, 1.0, size=10000)
    s = _scoreset(genuine, impostor)
    for target in (0.1, 0.01, 0.001):
        got = _gmr_at_far(s, target)
        expected_gmr, expected_flag = gmr_at_far_recount(list(genuine), list(impostor), target)
        assert got.gmr == expected_gmr
        assert got.insufficient_impostors == expected_flag
        # independent quantile view: count genuine above the accepted threshold
        assert got.gmr == np.mean(genuine >= got.threshold)
        assert np.mean(impostor >= got.threshold) <= target


def test_gmr_insufficient_impostors_flag():
    # top score is an impostor's, so no threshold reaches FAR <= 0.001
    s = _scoreset([0.5, 0.4], [0.9, 0.1, 0.2])
    result = _gmr_at_far(s, 0.001)
    assert result.insufficient_impostors
    assert result.gmr == 0.0  # strictest threshold is the top impostor score
    with pytest.raises(InvalidParameters):
        _gmr_at_far(s, 1.5)


def test_gmr_monotone_in_target():
    rng = np.random.default_rng(6)
    s = _scoreset(rng.normal(1, 1, 400), rng.normal(0, 1, 600))
    g1 = _gmr_at_far(s, 0.1).gmr
    g2 = _gmr_at_far(s, 0.01).gmr
    g3 = _gmr_at_far(s, 0.001).gmr
    assert g1 >= g2 >= g3


# ---------------------------------------------------------------------------
# rank-1 identification


def test_rank1_probes_equal_atoms_is_perfect():
    enrolment, _, d, gallery = _fitted(num_classes=4, per_class=3)
    atom_probes = dataset_from_arrays(d.atoms, d.column_labels,
                                      [f"p{i}" for i in range(d.num_atoms)])
    gallery = Gallery(dataset_from_arrays(d.atoms, d.column_labels,
                                          [f"e{i}" for i in range(d.num_atoms)]))
    for acc in rank1_identification(atom_probes, gallery, ["sacrc", "crc", "src", "knn1"]):
        assert acc == 1.0


def test_rank1_adversarial_labels_is_zero():
    enrolment, probes, d, gallery = _fitted(num_classes=3, per_class=4, seed=7)
    predicted = [int(np.argmax(gallery.scores(["sacrc"], probes.features[i : i + 1])[0]))
                 for i in range(probes.num_samples)]
    wrong = [(p + 1) % d.num_classes for p in predicted]
    relabeled = dataset_from_arrays(probes.features, wrong, probes.ids)
    assert rank1_identification(relabeled, gallery, ["sacrc"]) == [0.0]


def test_rank1_equals_confusion_matrix_trace():
    enrolment, probes, d, gallery = _fitted(num_classes=6, per_class=4, dim=30, seed=8)
    confusion = np.zeros((d.num_classes, d.num_classes), dtype=int)
    for i in range(probes.num_samples):
        pred = int(np.argmax(gallery.scores(["sacrc"], probes.features[i : i + 1])[0]))
        confusion[int(probes.labels[i]), pred] += 1
    (acc,) = rank1_identification(probes, gallery, ["sacrc"])
    assert acc == np.trace(confusion) / probes.num_samples


def test_rank1_unknown_class_rejected():
    enrolment, probes, d, gallery = _fitted(num_classes=3)
    bad = dataset_from_arrays(probes.features[:2], [0, 5], ["a", "b"])
    with pytest.raises(UnknownClass):
        rank1_identification(bad, gallery, ["sacrc"])


def test_rank1_rejects_unknown_classifier_names():
    enrolment, probes, d, gallery = _fitted(num_classes=3, per_class=3, seed=11)
    for name in ("svm", "crc-only", "src-residual"):
        with pytest.raises(InvalidParameters):
            rank1_identification(probes, gallery, [name])


# ---------------------------------------------------------------------------
# synthetic generator


def test_generator_counts():
    enrolment, probes = generate_synthetic(3, 5, 20, 2, 0.1, seed=0)
    assert enrolment.num_samples == 15
    assert enrolment.num_classes == 3
    assert probes.num_samples == 15


def test_generator_deterministic():
    a_enrol, a_probe = generate_synthetic(4, 3, 10, 2, 0.3, seed=5)
    b_enrol, b_probe = generate_synthetic(4, 3, 10, 2, 0.3, seed=5)
    assert a_enrol.features.tobytes() == b_enrol.features.tobytes()
    assert a_probe.features.tobytes() == b_probe.features.tobytes()
    assert a_enrol.ids == b_enrol.ids
    c_enrol, _ = generate_synthetic(4, 3, 10, 2, 0.3, seed=6)
    assert a_enrol.features.tobytes() != c_enrol.features.tobytes()


def test_generator_noiseless_subspaces_classified_perfectly():
    enrolment, probes = generate_synthetic(4, 6, 30, 3, 0.0, seed=3)
    gallery = Gallery(enrolment, SacrcConfig(sparsity_k=3))  # budget covers the subspace dimension
    assert rank1_identification(probes, gallery, ["sacrc"]) == [1.0]


def test_generator_validation():
    with pytest.raises(InvalidParameters):
        generate_synthetic(0, 5, 10, 2, 0.1, seed=0)
    with pytest.raises(InvalidParameters):
        generate_synthetic(2, 5, 10, 10, 0.1, seed=0)
    with pytest.raises(InvalidParameters):
        generate_synthetic(2, 5, 10, 2, -0.5, seed=0)


# ---------------------------------------------------------------------------
# report assembly


def test_evaluate_verification_panel():
    rng = np.random.default_rng(10)
    genuine, impostor = rng.normal(1, 0.5, 200), rng.normal(0, 0.5, 400)
    s = _scoreset(genuine, impostor)
    report = evaluate_verification(s, config_echo=[("classifier", "sacrc")])
    assert report.eer == eer_recount(list(genuine), list(impostor))
    targets = [g.far_target for g in report.gmr_at_far]
    assert targets == [0.1, 0.01, 0.001]
    gmrs = [g.gmr for g in report.gmr_at_far]
    assert gmrs[0] >= gmrs[1] >= gmrs[2]
    assert report.config_echo == (("classifier", "sacrc"),)
    roc = compute_roc(s)
    for column in ("threshold", "far", "gmr"):
        assert np.array_equal(getattr(report.roc, column), getattr(roc, column))
