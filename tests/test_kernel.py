"""The batched score kernel: Gallery.scores against one-row calls and the
straight-line oracles in reference_impls.py."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from reference_impls import label_matrix, omp_reference, ridge_solve_reference, sacrc_reference
from sparserec import classifiers
from sparserec.classifiers import CrcOperator, Gallery, SacrcConfig, _augment, _omp_block
from sparserec.core import build_dictionary, dataset_from_arrays
from sparserec.errors import DegenerateAugmentation, InvalidParameters, MissingClass, ZeroNormSample
from sparserec.evaluation import build_scoreset, generate_synthetic, rank1_identification

KINDS = ("sacrc", "crc", "src", "knn1")
LAM, K, TOL = 0.01, 5, 1e-6


def _fitted(num_classes, per_class, dim, probes_per_class, seed=0):
    enrolment, probes = generate_synthetic(
        num_classes, per_class, dim, 3, 0.2, seed=seed, probes_per_class=probes_per_class
    )
    gallery = Gallery(enrolment, SacrcConfig(LAM, K, TOL))
    return enrolment, probes, gallery.dictionary, gallery


def _one_row(kind, y, gallery):
    """The kind's scores of one probe, scored alone."""
    return gallery.scores([kind], y[None, :])[0][0]


def _oracle(kind, y, d, enrolment):
    if kind == "knn1":
        best = np.full(d.num_classes, -np.inf)
        for e, label in zip(enrolment.features, enrolment.labels):
            best[label] = max(best[label], -np.linalg.norm(e - y))
        return best
    y_hat = y / np.linalg.norm(y)
    if kind == "sacrc":
        return sacrc_reference(d.atoms.T, label_matrix(d.column_labels, d.num_classes), y, LAM, K, TOL)[3]
    if kind == "crc":
        alpha = ridge_solve_reference(d.atoms.T, y_hat, LAM)
        return label_matrix(d.column_labels, d.num_classes) @ (alpha / np.linalg.norm(alpha))
    alpha = omp_reference(d.atoms.T, y_hat, K, TOL)
    return np.array([
        -np.linalg.norm(y_hat - d.atoms.T @ np.where(d.column_labels == i, alpha, 0.0))
        for i in range(d.num_classes)
    ])


def _assert_rows_match(kind, scores, probes, gallery, enrolment):
    d = gallery.dictionary
    assert scores.shape == (probes.num_samples, d.num_classes)
    for y, row in zip(probes.features, scores):
        one = _one_row(kind, y, gallery)
        assert np.max(np.abs(row - one)) <= 1e-12
        assert np.max(np.abs(row - _oracle(kind, y, d, enrolment))) <= 1e-8


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("dim", [20, 60], ids=["D<N", "D>=N"])
def test_score_matrix_matches_rows_and_oracles(kind, dim):
    enrolment, probes, d, gallery = _fitted(num_classes=8, per_class=5, dim=dim, probes_per_class=2)
    assert (d.dim < d.num_atoms) == (dim == 20)
    (scores,) = gallery.scores([kind], probes.features)
    _assert_rows_match(kind, scores, probes, gallery, enrolment)


@pytest.mark.parametrize("kind", KINDS)
def test_score_matrix_single_probe_and_block_boundary(kind):
    p = classifiers._PROBE_BLOCK + 1
    enrolment, probes, d, gallery = _fitted(num_classes=2, per_class=4, dim=12,
                                            probes_per_class=p // 2 + 1, seed=3)
    probes = dataset_from_arrays(probes.features[:p], probes.labels[:p], probes.ids[:p])
    (scores,) = gallery.scores([kind], probes.features)
    _assert_rows_match(kind, scores, probes, gallery, enrolment)
    (single,) = gallery.scores([kind], probes.features[:1])
    assert np.max(np.abs(single[0] - scores[0])) <= 1e-12


def test_shared_pass_equals_one_call_per_kind():
    p = classifiers._PROBE_BLOCK + 1
    enrolment, probes, d, gallery = _fitted(num_classes=2, per_class=4, dim=12,
                                            probes_per_class=p // 2 + 1, seed=3)
    kinds = ["src", "knn1", "sacrc", "crc", "src"]  # any order; a repeated kind scores twice
    shared = gallery.scores(kinds, probes.features)
    assert len(shared) == len(kinds)
    for kind, scores in zip(kinds, shared):
        # every kind takes 256-row blocks here, so the pass changes no bit
        assert scores.tobytes() == gallery.scores([kind], probes.features)[0].tobytes()


def test_knn1_and_src_set_up_no_ridge_map(monkeypatch):
    enrolment, probes, d, gallery = _fitted(num_classes=3, per_class=3, dim=10, probes_per_class=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a CrcOperator was built")

    monkeypatch.setattr(classifiers.CrcOperator, "__init__", refuse)
    gallery.scores(["knn1"], probes.features)
    gallery.scores(["src"], probes.features)
    assert "operator" not in vars(gallery)


def test_gallery_builds_its_dictionary_from_the_enrolment():
    enrolment, probes, d, gallery = _fitted(num_classes=3, per_class=3, dim=10, probes_per_class=1)
    # the enrolment builds the dictionary and is not kept
    assert [f.name for f in dataclasses.fields(gallery)] == ["solver", "dictionary", "k"]
    built = build_dictionary(enrolment)
    assert d.atoms.tobytes() == built.atoms.tobytes()
    assert d.sq_norms.tobytes() == built.sq_norms.tobytes()
    assert np.array_equal(d.column_labels, built.column_labels)
    assert np.array_equal(d.class_starts, built.class_starts)
    zero_row = enrolment.features.copy()
    zero_row[4] = 0.0
    with pytest.raises(ZeroNormSample, match="sample 'enrol-1-1' has zero norm"):
        Gallery(dataset_from_arrays(zero_row, enrolment.labels, enrolment.ids))
    gap = np.where(enrolment.labels == 1, 2, enrolment.labels)
    with pytest.raises(MissingClass, match="class 1 has no enrolment samples"):
        Gallery(dataset_from_arrays(enrolment.features, gap, enrolment.ids))


@pytest.mark.parametrize("kind", KINDS)
def test_pairs_protocol_scores_equal_all_vs_all(kind):
    enrolment, probes, d, gallery = _fitted(num_classes=5, per_class=4, dim=30, probes_per_class=2)
    pairs = [(probes.ids[7], 1), (probes.ids[2], 0), (probes.ids[7], 4), (probes.ids[9], 3)]
    subset = build_scoreset(probes, gallery, kind, pairs=pairs)
    full = build_scoreset(probes, gallery, kind)
    assert [(subset.ids[p], c) for p, c in zip(subset.probe, subset.claim)] == pairs
    rows = subset.probe * d.num_classes + subset.claim  # all-vs-all row of each pair
    assert np.max(np.abs(subset.score - full.score[rows])) <= 1e-12
    assert np.array_equal(subset.is_genuine, full.is_genuine[rows])


def test_zero_norm_probe_raises():
    enrolment, probes, d, gallery = _fitted(num_classes=3, per_class=3, dim=10, probes_per_class=1)
    features = probes.features.copy()
    features[1] = 0.0
    with_zero = dataset_from_arrays(features, probes.labels, probes.ids)
    for kind in ("sacrc", "crc", "src"):
        with pytest.raises(ZeroNormSample):
            gallery.scores([kind], features)
        with pytest.raises(ZeroNormSample):
            build_scoreset(with_zero, gallery, kind)
    # nearest neighbor needs no normalization: the zero probe is scored
    (scores,) = gallery.scores(["knn1"], features)
    assert np.allclose(scores[1], _oracle("knn1", features[1], d, enrolment))


def test_collaborative_fallback_rows():
    rng = np.random.default_rng(0)
    collab = rng.standard_normal((3, 4))
    sparse = rng.standard_normal((3, 4))
    sparse[1] = -collab[1]  # the two solutions cancel on row 1 only
    alpha, fell_back = _augment(collab, sparse)
    assert fell_back.tolist() == [False, True, False]
    for i in range(3):
        row_alpha, row_flag = _augment(collab[i], sparse[i])
        assert bool(row_flag) == fell_back[i]
        assert np.max(np.abs(alpha[i] - row_alpha)) <= 1e-15
    assert np.allclose(alpha[1], collab[1] / np.linalg.norm(collab[1]))
    sparse[2] = 0.0
    collab[2] = 0.0
    with pytest.raises(DegenerateAugmentation):
        _augment(collab, sparse)


def test_probe_orthogonal_to_every_atom_is_degenerate():
    # atoms span the first two coordinates; a probe along the third has zero
    # collaborative and zero sparse coefficients
    enrolment = dataset_from_arrays(np.array([[1.0, 0, 0], [0, 1.0, 0]]), [0, 1], ["a", "b"])
    gallery = Gallery(enrolment, SacrcConfig(LAM, 2, TOL))
    probes = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(DegenerateAugmentation):
        gallery.scores(["sacrc"], probes)


def test_lockstep_omp_rows_stop_independently():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    d = build_dictionary(dataset_from_arrays(q.T, [i % 4 for i in range(8)], [str(i) for i in range(8)]))
    y = np.vstack([
        d.atoms.T[:, 2],  # residual reaches 0 after one atom: tol stop
        d.atoms.T @ np.where(np.arange(8) < 3, 1.0, 0.0),  # three atoms then tol stop
        rng.standard_normal(8),  # runs to the budget
        np.zeros(8),  # zero probe: stops before any atom
    ])
    batched = _omp_block(d.atoms, y, 5, 1e-9)
    for row, alpha in zip(y, batched):
        expected = omp_reference(d.atoms.T, row, 5, 1e-9)
        assert np.array_equal(np.flatnonzero(alpha), np.flatnonzero(expected))
        assert np.max(np.abs(alpha - expected)) <= 1e-12
        assert np.max(np.abs(alpha - _omp_block(d.atoms, row[None, :], 5, 1e-9)[0])) <= 1e-12
    assert [np.count_nonzero(a) for a in batched] == [1, 3, 5, 0]


def test_knn1_from_atoms_and_norms_matches_the_brute_force_distances():
    # single-sample classes (1, 4, 5 and 6), an exact duplicate of sample 2
    # in classes 2 and 3, and sample norms from 1e-3 to 1e3
    rng = np.random.default_rng(5)
    dim = 12
    samples = rng.standard_normal((9, dim))
    samples /= np.linalg.norm(samples, axis=1, keepdims=True)
    samples *= np.logspace(-3, 3, 9)[:, None]
    samples = np.vstack([samples, samples[2]])
    labels = [0, 1, 2, 3, 4, 0, 5, 6, 2, 3]
    enrolment = dataset_from_arrays(samples, labels, [str(i) for i in range(10)])
    gallery = Gallery(enrolment)
    probes = np.vstack([
        rng.standard_normal((6, dim)) * np.logspace(-3, 3, 6)[:, None],
        samples[[0, 2, 9]],  # on a sample: distance 0
        np.zeros(dim),
    ])
    (scores,) = gallery.scores(["knn1"], probes)
    for y, row in zip(probes, scores):
        expected = _oracle("knn1", y, gallery.dictionary, enrolment)
        assert np.max(np.abs(row - expected)) <= 1e-8
        assert row.argmax() == expected.argmax()


def test_knn1_identification_is_argmax_of_score_rows():
    # the first probe is equidistant from a class-1 sample (first) and a
    # class-0 sample: the class scores tie and the lowest class wins, as for
    # every classifier
    enrolment = dataset_from_arrays(np.array([[0.0, 1.0], [2.0, 1.0]]), [1, 0], ["a", "b"])
    probes = np.array([[1.0, 1.0], [0.1, 1.0]])
    gallery = Gallery(enrolment)
    (scores,) = gallery.scores(["knn1"], probes)
    assert scores[0, 0] == scores[0, 1]
    assert scores.argmax(axis=1).tolist() == [0, 1]
    for labels, accuracy in (([0, 1], 1.0), ([1, 1], 0.5), ([1, 0], 0.0)):
        labelled = dataset_from_arrays(probes, labels, ["p", "q"])
        assert rank1_identification(labelled, gallery, ["knn1"]) == [accuracy]


def test_unknown_classifier_refused_on_an_empty_block():
    # three samples per class: K = 5 must fit in the dictionary
    enrolment, probes, d, gallery = _fitted(num_classes=2, per_class=3, dim=6, probes_per_class=1)
    for name in ("svm", "crc-only", "src-residual", ""):
        with pytest.raises(InvalidParameters):
            gallery.scores([name], np.empty((0, d.dim)))
        with pytest.raises(InvalidParameters):
            build_scoreset(probes, gallery, name, pairs=[])
    assert build_scoreset(probes, gallery, pairs=[]).score.shape == (0,)


def test_no_n_by_n_matrix_when_atoms_outnumber_dimensions():
    rng = np.random.default_rng(2)
    n, dim = 1500, 16
    enrolment = dataset_from_arrays(rng.standard_normal((n, dim)), [i % 300 for i in range(n)],
                                    [str(i) for i in range(n)])
    d = build_dictionary(enrolment)
    n_by_n = n * n * 8
    tracemalloc.start()
    try:
        op = CrcOperator(d, LAM)
        crc_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        Gallery(enrolment, SacrcConfig(LAM, 10, TOL)).scores(["src"], rng.standard_normal((4, dim)))
        omp_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.gram_inverse.shape == (dim, dim)
    assert crc_peak < n_by_n / 4
    assert omp_peak < n_by_n / 4


def _gallery(class_sizes, dim, seed):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(len(class_sizes)), class_sizes)
    rng.shuffle(labels)
    ds = dataset_from_arrays(rng.standard_normal((labels.size, dim)), labels,
                             [str(i) for i in range(labels.size)])
    return Gallery(ds, SacrcConfig(LAM, K, TOL)), rng.standard_normal((5, dim))


def _summed_codes(kind, y, gallery):
    """The unit-norm code whose per-class sums are each row's class evidence."""
    y_hat = classifiers._unit_rows(y)
    alpha = gallery.operator.apply(y_hat)
    if kind == "sacrc":
        return _augment(alpha, _omp_block(gallery.dictionary.atoms, y_hat, gallery.k, TOL))[0]
    return alpha / np.linalg.norm(alpha, axis=1, keepdims=True)


@pytest.mark.parametrize("dim", [6, 40], ids=["D<N", "D>=N"])
@pytest.mark.parametrize("sizes", [(2,) * 9, (1, 3, 7, 3, 1)], ids=["two-per-class", "unequal"])
def test_class_evidence_equals_the_dense_label_matrix_product(sizes, dim):
    gallery, y = _gallery(sizes, dim, seed=len(sizes) + dim)
    d = gallery.dictionary
    labels = label_matrix(d.column_labels, d.num_classes)
    exact = set(sizes) == {2}  # a two-atom class sum takes a single rounding

    def check(q, dense):
        if exact:
            assert q.tobytes() == dense.tobytes()
        else:
            assert np.max(np.abs(q - dense)) <= 1e-15 * np.max(np.abs(q))

    for kind in ("crc", "sacrc"):
        check(gallery.scores([kind], y)[0], _summed_codes(kind, y, gallery) @ labels.T)
    for row in y[:, None, :]:
        check(gallery.scores(["sacrc"], row)[0][0], labels @ _summed_codes("sacrc", row, gallery)[0])


@pytest.mark.parametrize("kind", ["crc", "sacrc"])
def test_class_evidence_holds_no_class_by_atom_matrix(kind):
    # 3000 classes x 2 samples: a dense c x N label matrix would take 144 MB
    c, per_class, dim = 3000, 2, 8
    rng = np.random.default_rng(4)
    n = c * per_class
    enrolment = dataset_from_arrays(rng.standard_normal((n, dim)), np.arange(n) // per_class,
                                    [str(i) for i in range(n)])
    probes = rng.standard_normal((4, dim))
    tracemalloc.start()
    try:
        gallery = Gallery(enrolment, SacrcConfig(LAM, K, TOL))
        (scores,) = gallery.scores([kind], probes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scores.shape == (4, c)
    assert peak < c * n * 8 / 10
