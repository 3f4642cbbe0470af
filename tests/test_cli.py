import contextlib
import gc
import io
import os
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from reference_impls import scores_csv_reference
from test_acceptance import pipeline

from sparserec.classifiers import CLASSIFIERS, Gallery
from sparserec import cli
from sparserec.cli import _parse_k_list, main
from sparserec.core import Dataset, build_dictionary, dataset_from_arrays
from sparserec.errors import InvalidParameters
from sparserec.evaluation import build_scoreset, rank1_identification
from sparserec.fileio import load_flat_dataset, write_flat_features
from sparserec.pca import pca_fit, transform_dataset


def run(*args):
    return main([str(a) for a in args])


def gen(out, *, classes=4, samples=5, probes=None, dim=24, subspace=3, sigma=0.1,
        seed=3, tensor=None):
    args = [
        "gen-synthetic", "--classes", classes, "--samples-per-class", samples,
        "--dim", dim, "--subspace-dim", subspace, "--noise-sigma", sigma,
        "--seed", seed, "--out", out,
    ]
    if probes is not None:
        args += ["--probes-per-class", probes]
    if tensor is not None:
        args += ["--tensor", tensor]
    assert run(*args) == 0


def test_gen_synthetic_counts_and_determinism(tmp_path):
    gen(tmp_path / "a", classes=3, samples=5, dim=20)
    enrolment = load_flat_dataset(tmp_path / "a" / "enrolment.feat")
    assert enrolment.num_samples == 15
    assert enrolment.num_classes == 3
    gen(tmp_path / "b", classes=3, samples=5, dim=20)
    assert (tmp_path / "a" / "enrolment.feat").read_bytes() == (tmp_path / "b" / "enrolment.feat").read_bytes()
    assert (tmp_path / "a" / "probes.feat").read_bytes() == (tmp_path / "b" / "probes.feat").read_bytes()


def test_flatten_tensor_file(tmp_path):
    gen(tmp_path / "data", dim=24, tensor="2x3x4")
    assert run("flatten", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "flat") == 0
    assert load_flat_dataset(tmp_path / "flat" / "features.feat").dim == 24
    # flattening only relabels the layout: the output is the flat file that
    # gen-synthetic writes from the same values without --tensor
    gen(tmp_path / "plain", dim=24)
    assert ((tmp_path / "flat" / "features.feat").read_bytes()
            == (tmp_path / "plain" / "enrolment.feat").read_bytes())


def test_flatten_2x2x2_gives_dim_8(tmp_path):
    rng = np.random.default_rng(0)
    write_flat_features(tmp_path / "t.feat", dataset_from_arrays(rng.standard_normal((3, 8)), [0, 1, 2],
                                                                 ["a", "b", "c"]), (2, 2, 2))
    assert run("flatten", tmp_path / "t.feat", "--out", tmp_path / "flat") == 0
    assert load_flat_dataset(tmp_path / "flat" / "features.feat").dim == 8


def test_flatten_conv_layer_file_gives_dim_100352(tmp_path):
    # one sample of 512 maps at 14x14, the last-convolution-layer geometry
    write_flat_features(tmp_path / "t.feat", dataset_from_arrays(np.zeros((1, 100352)), [0], ["s"]), (14, 14, 512))
    assert run("flatten", tmp_path / "t.feat", "--out", tmp_path / "flat") == 0
    assert load_flat_dataset(tmp_path / "flat" / "features.feat").dim == 100352


def test_flatten_rejects_truncated_file(tmp_path, capsys):
    gen(tmp_path / "data", tensor="2x3x4")
    path = tmp_path / "data" / "enrolment.feat"
    path.write_bytes(path.read_bytes()[:40])
    assert run("flatten", path, "--out", tmp_path / "flat") == 2
    err = capsys.readouterr().err
    assert "error:" in err and "byte offset" in err


def test_flattened_payload_is_the_tensor_payload(tmp_path):
    # a tensor file's payload starts after a 25-byte header, a flat file's after 17 bytes
    gen(tmp_path / "data", dim=24, tensor="2x3x4")
    tensor = tmp_path / "data" / "enrolment.feat"
    assert run("flatten", tensor, "--out", tmp_path / "flat") == 0
    assert (tmp_path / "flat" / "features.feat").read_bytes()[17:] == tensor.read_bytes()[25:]


def test_flatten_can_overwrite_its_input(tmp_path):
    # the output is written from the input's mapped payload, at the same path
    gen(tmp_path / "data", dim=24, tensor="2x3x4")
    tensor = tmp_path / "data" / "enrolment.feat"
    shutil.copy(tensor, tmp_path / "features.feat")
    assert run("flatten", tmp_path / "features.feat", "--out", tmp_path) == 0
    assert (tmp_path / "features.feat").read_bytes()[17:] == tensor.read_bytes()[25:]
    assert load_flat_dataset(tmp_path / "features.feat").dim == 24


def test_flatten_rejects_a_non_finite_tensor_value(tmp_path, capsys):
    gen(tmp_path / "data", dim=24, tensor="2x3x4")
    path = tmp_path / "data" / "enrolment.feat"
    data = bytearray(path.read_bytes())
    data[25:33] = struct.pack("<d", float("nan"))  # the first value of the first map
    path.write_bytes(bytes(data))
    assert run("flatten", path, "--out", tmp_path / "flat") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "NaN or infinity" in err
    assert len(err.splitlines()) == 1


def test_flatten_of_a_flat_file_rewrites_it_unchanged(tmp_path):
    gen(tmp_path / "data", dim=24)
    flat = tmp_path / "data" / "enrolment.feat"
    assert run("flatten", flat, "--out", tmp_path / "flat") == 0
    assert (tmp_path / "flat" / "features.feat").read_bytes() == flat.read_bytes()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_tensor_inputs_give_the_outputs_of_their_flattened_copies(tmp_path):
    # 20 samples in D = 24: fit and sweep take the Gram route.  The knn1 run
    # on the --pca off bundle scores raw probes read from the file's mapping.
    gen(tmp_path / "data", dim=24, probes=2, tensor="2x3x4")
    names = ("enrolment", "probes")
    for name in names:
        assert run("flatten", tmp_path / "data" / f"{name}.feat", "--out", tmp_path / f"flat-{name}") == 0
    inputs = {"tensor": [tmp_path / "data" / f"{name}.feat" for name in names],
              "flat": [tmp_path / f"flat-{name}" / "features.feat" for name in names]}
    for layout, (enrol, probes) in inputs.items():
        out = tmp_path / layout
        for argv in (
            ["fit", enrol, "--pca", "8", "--out", out / "bundle"],
            ["fit", enrol, "--pca", "off", "--out", out / "bundle-off"],
            ["verify", probes, out / "bundle", "--out", out / "verify"],
            ["verify", probes, out / "bundle-off", "--classifier", "knn1", "--out", out / "verify-knn1-off"],
            ["identify", probes, out / "bundle", "--classifier", "sacrc,crc,src,knn1", "--out", out / "identify"],
            ["sweep-pcs", enrol, probes, "--k-list", "4,8,12", "--out", out / "sweep"],
        ):
            assert run(*argv) == 0
    tensor, flat = _tree(tmp_path / "tensor"), _tree(tmp_path / "flat")
    assert tensor.keys() == flat.keys() and len(tensor) == 19
    for rel, data in tensor.items():
        assert data == flat[rel], rel


@pytest.mark.parametrize("command, flag", [
    ("flatten", "--config"), ("flatten", "--seed"), ("flatten", "--lambda"), ("flatten", "--k"),
    ("gen-synthetic", "--lambda"), ("gen-synthetic", "--k"),
])
def test_commands_refuse_options_they_do_not_read(tmp_path, capsys, command, flag):
    gen(tmp_path / "data", dim=8, tensor="2x2x2")
    argv = {
        "flatten": ["flatten", tmp_path / "data" / "enrolment.feat"],
        "gen-synthetic": ["gen-synthetic", "--classes", 2, "--samples-per-class", 2, "--dim", 8,
                          "--subspace-dim", 2],
    }[command]
    with pytest.raises(SystemExit) as exit_info:
        run(*argv, flag, "1", "--out", tmp_path / "out")
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_fit_without_pca_keeps_dimension(tmp_path):
    gen(tmp_path / "data", dim=24)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    manifest = (tmp_path / "bundle" / "manifest.txt").read_text()
    assert "pca = off" in manifest
    assert "dim_input = 24" in manifest
    # dictionary.bin: magic, version, atom dim, atom count, class count, then
    # the K x N atoms and the column labels
    data = (tmp_path / "bundle" / "dictionary.bin").read_bytes()
    magic, version, dim, num_atoms, num_classes = struct.unpack("<4sIIII", data[:20])
    assert dim == 24
    d = build_dictionary(load_flat_dataset(tmp_path / "data" / "enrolment.feat"))
    assert (magic, version, num_atoms, num_classes) == (b"CDIC", 1, d.num_atoms, d.num_classes)
    assert data[20:] == d.atoms.T.astype("<f8").tobytes() + d.column_labels.astype("<u4").tobytes()


def test_fit_can_rewrite_the_bundle_it_reads(tmp_path):
    gen(tmp_path / "data", dim=30)
    bundle, fresh = tmp_path / "bundle", tmp_path / "fresh"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "8", "--out", bundle) == 0
    assert run("fit", bundle / "enrolment.feat", "--pca", "off", "--out", fresh) == 0
    assert run("fit", bundle / "enrolment.feat", "--pca", "off", "--out", bundle) == 0
    for path in fresh.iterdir():
        assert (bundle / path.name).read_bytes() == path.read_bytes(), path.name


def test_fit_k_too_large_fails_cleanly(tmp_path, capsys):
    gen(tmp_path / "data", classes=3, samples=4, dim=50)  # 12 samples
    code = run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "1300",
               "--out", tmp_path / "bundle")
    assert code == 2
    assert "1300" in capsys.readouterr().err


def test_fit_is_deterministic(tmp_path):
    gen(tmp_path / "data", dim=30)
    for name in ("b1", "b2"):
        assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "8",
                   "--out", tmp_path / name) == 0
    for filename in ("manifest.txt", "dictionary.bin", "pca.bin", "enrolment.feat"):
        assert (tmp_path / "b1" / filename).read_bytes() == (tmp_path / "b2" / filename).read_bytes()


def test_verify_separable_data_reports_zero_eer(tmp_path):
    gen(tmp_path / "data", classes=4, samples=6, dim=40, sigma=0.0, seed=9)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    assert run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--out", tmp_path / "ver") == 0
    kv = dict(
        line.split(" = ") for line in (tmp_path / "ver" / "report.kv").read_text().splitlines()
    )
    assert float(kv["eer"]) == 0.0
    assert float(kv["gmr_at_far_0.1"]) == 1.0
    assert float(kv["gmr_at_far_0.001"]) == 1.0
    text = (tmp_path / "ver" / "report.txt").read_text()
    assert "EER: 0.00%" in text
    assert "GMR at FAR=0.1: 100.00%" in text
    assert "GMR at FAR=0.01: 100.00%" in text
    assert "GMR at FAR=0.001: 100.00%" in text


def test_verify_echoes_resolved_config(tmp_path):
    gen(tmp_path / "data", dim=30)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "8", "--lambda", "0.05",
               "--out", tmp_path / "bundle") == 0
    assert run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--out", tmp_path / "ver") == 0
    text = (tmp_path / "ver" / "report.txt").read_text()
    assert "lambda = 0.05" in text  # bundle hyperparameters flow into the report
    assert "pca_components = 8" in text
    assert "resolved_sparsity_k = 20" in text
    kv = (tmp_path / "ver" / "report.kv").read_text()
    assert "config.lambda = 0.05" in kv


def test_default_run_echoes_the_pinned_config_text(tmp_path):
    gen(tmp_path / "data", dim=20)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    bundle = tmp_path / "bundle"
    assert run("fit", enrol, "--out", bundle) == 0
    assert run("verify", probes, bundle, "--out", tmp_path / "ver") == 0
    assert run("identify", probes, bundle, "--out", tmp_path / "id") == 0
    assert run("sweep-pcs", enrol, probes, "--k-list", "2,4", "--out", tmp_path / "sw") == 0
    assert (bundle / "manifest.txt").read_text() == (
        "bundle_version = 1\ndim_input = 20\nlambda = 0.01\nnum_atoms = 20\nnum_classes = 4\n"
        "pca = off\npca_components = 0\nresidual_tol = 1e-06\nsparsity_k = 20\n"
    )
    rest = ["residual_tol = 1e-06", "pca = off", "classifier = sacrc", "protocol = all-vs-all",
            "far_targets = 0.1,0.01,0.001", "seed = 0"]
    from_bundle = ["lambda = 0.01", "sparsity_k = 20", *rest, "resolved_sparsity_k = 20", "pca_components = 0"]
    kv = (tmp_path / "ver" / "report.kv").read_text().splitlines()
    assert [line for line in kv if line.startswith("config.")] == [
        f"config.{line}" for line in [*from_bundle, "num_atoms = 20", "num_classes = 4"]]
    rank1 = (tmp_path / "id" / "rank1.txt").read_text().split("\nconfig\n------\n")[1]
    assert rank1.splitlines() == [*from_bundle, "probes_used = 20", "probes_dropped = 0"]
    sweep = ["lambda = 0.01", "sparsity_k = auto", *rest, "k_list = 2,4"]
    assert (tmp_path / "sw" / "sweep.kv").read_text() == "".join(f"config.{line}\n" for line in sweep)


def test_verify_scores_csv_matches_library(tmp_path):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=21)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    assert run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--out", tmp_path / "ver") == 0
    ids, columns = scores_csv_reference(tmp_path / "ver" / "scores.csv")
    enrolment = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    expected = build_scoreset(probes, Gallery(enrolment))
    assert ids == expected.ids
    for name, column in columns.items():
        assert np.array_equal(column, getattr(expected, name))


def test_verify_pairs_protocol(tmp_path):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=22)
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "probe_id,claimed_class\n"
        + "".join(f"{pid},{claim}\n" for pid in probes.ids[:3] for claim in (0, 1))
    )
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    assert run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--protocol", f"pairs:{pairs}", "--out", tmp_path / "ver") == 0
    ids, columns = scores_csv_reference(tmp_path / "ver" / "scores.csv")
    assert columns["score"].size == 6
    assert [ids[p] for p in columns["probe"]] == [pid for pid in probes.ids[:3] for _ in (0, 1)]


def test_identify_perfect_on_enrolment_probes(tmp_path):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=23)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    assert run("identify", tmp_path / "data" / "enrolment.feat", tmp_path / "bundle",
               "--classifier", "sacrc,crc,src,knn1", "--out", tmp_path / "ident") == 0
    lines = (tmp_path / "ident" / "rank1.csv").read_text().splitlines()
    assert lines[0] == "classifier,rank1_accuracy"
    assert len(lines) == 5  # one row per requested classifier
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 1.0


def test_identify_matches_library_call(tmp_path):
    gen(tmp_path / "data", classes=4, samples=5, dim=24, seed=24)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "10",
               "--out", tmp_path / "bundle") == 0
    assert run("identify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--classifier", "sacrc,knn1", "--out", tmp_path / "ident") == 0
    rows = dict(
        line.split(",") for line in
        (tmp_path / "ident" / "rank1.csv").read_text().splitlines()[1:]
    )
    enrolment = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    model, reduced_enrol = pca_fit(enrolment, num_components=10)
    reduced_probes = transform_dataset(probes, model)
    gallery = Gallery(reduced_enrol)
    expected_sacrc, expected_knn = rank1_identification(reduced_probes, gallery, ["sacrc", "knn1"])
    assert float(rows["sacrc"]) == expected_sacrc
    assert float(rows["knn1"]) == expected_knn


def test_identify_filters_unenrolled_probe_classes(tmp_path):
    from sparserec.core import dataset_from_arrays
    from sparserec.fileio import write_flat_features

    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=31)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    labels = probes.labels.copy()
    labels[0] = 99  # subject absent from the gallery
    mixed = dataset_from_arrays(probes.features, labels, probes.ids)
    write_flat_features(tmp_path / "mixed.feat", mixed)
    assert run("identify", tmp_path / "mixed.feat", tmp_path / "bundle",
               "--out", tmp_path / "ident") == 0
    text = (tmp_path / "ident" / "rank1.txt").read_text()
    assert f"probes_used = {probes.num_samples - 1}" in text
    assert "probes_dropped = 1" in text


@pytest.mark.parametrize("names", [",", "crc,svm", "crc-only"])
def test_identify_refuses_a_bad_classifier_list(tmp_path, capsys, names):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=33)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    capsys.readouterr()
    code = run("identify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--classifier", names, "--out", tmp_path / "ident")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("error:") == 1
    assert not (tmp_path / "ident").exists()  # refused before any output or scoring


def _exit_code(*args):
    try:
        return run(*args)
    except SystemExit as exc:  # argparse refuses a name outside its choices
        return exc.code


def test_verify_and_identify_take_the_same_classifier_names(tmp_path, capsys):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=34)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    probes = tmp_path / "data" / "probes.feat"
    for name in CLASSIFIERS + ("crc-only", "src-residual", "svm", ""):
        codes = [_exit_code(command, probes, tmp_path / "bundle", "--classifier", name,
                            "--out", tmp_path / command / (name or "empty"))
                 for command in ("verify", "identify")]
        assert codes == ([0, 0] if name in CLASSIFIERS else [2, 2]), name
    capsys.readouterr()


def _commands_on_a_wide_gallery(tmp_path):
    """Scoring commands on 20 atoms in dimension 10, each without its
    --classifier and --out."""
    gen(tmp_path / "data", classes=4, samples=5, dim=10, subspace=3, sigma=0.1, seed=3)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    assert run("fit", enrol, "--out", tmp_path / "bundle") == 0
    return {
        "verify": ["verify", probes, tmp_path / "bundle"],
        "identify": ["identify", probes, tmp_path / "bundle"],
        "sweep-pcs": ["sweep-pcs", enrol, probes, "--k-list", "5"],
    }


@pytest.mark.parametrize("command", ["verify", "identify", "sweep-pcs"])
def test_lambda_zero_is_refused_only_by_the_ridge_classifiers(tmp_path, capsys, command):
    # more atoms than dimensions: the ridge map is singular at lambda = 0, and
    # only sacrc and crc use it
    head = _commands_on_a_wide_gallery(tmp_path)[command]
    for kind in CLASSIFIERS:
        capsys.readouterr()
        code = run(*head, "--classifier", kind, "--lambda", "0", "--out", tmp_path / kind)
        err = capsys.readouterr().err
        if kind in ("knn1", "src"):
            assert code == 0, err
        else:
            assert code == 2
            assert err.startswith("error: lambda=0 with 20 atoms in dimension ")
            assert err.endswith(": Phi^T Phi is rank-deficient\n") and len(err.splitlines()) == 1
            assert not (tmp_path / kind).exists()


def test_fit_refuses_a_lambda_its_ridge_classifiers_refuse(tmp_path, capsys):
    # 20 atoms in dimension 10: at lambda = 0 the default classifier (sacrc)
    # could score nothing, so fit writes no bundle
    gen(tmp_path / "data", classes=4, samples=5, dim=10, subspace=3, sigma=0.1, seed=3)
    capsys.readouterr()
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--lambda", "0", "--out", tmp_path / "bundle") == 2
    err = capsys.readouterr().err
    assert err == "error: lambda=0 with 20 atoms in dimension 10: Phi^T Phi is rank-deficient\n"
    assert not (tmp_path / "bundle").exists()
    # with no more atoms than dimensions the ridge map exists at lambda = 0
    gen(tmp_path / "tall", classes=4, samples=5, dim=24, subspace=3, sigma=0.1, seed=3)
    assert run("fit", tmp_path / "tall" / "enrolment.feat", "--lambda", "0", "--out", tmp_path / "tall-bundle") == 0
    assert run("verify", tmp_path / "tall" / "probes.feat", tmp_path / "tall-bundle", "--out", tmp_path / "ver") == 0


@pytest.mark.parametrize("command", ["verify", "identify", "sweep-pcs"])
def test_sparsity_above_the_atom_count_is_refused_for_every_classifier(tmp_path, capsys, command):
    head = _commands_on_a_wide_gallery(tmp_path)[command]
    for kind in CLASSIFIERS:
        capsys.readouterr()
        assert run(*head, "--classifier", kind, "--k", "1000", "--out", tmp_path / kind) == 2
        assert capsys.readouterr().err == "error: sparsity_k=1000 exceeds dictionary size 20\n"
        assert not (tmp_path / kind).exists()


def test_identify_runs_one_shared_pass_per_probe_block(tmp_path, monkeypatch):
    from sparserec import classifiers

    gen(tmp_path / "data", classes=4, samples=5, probes=70, dim=24, seed=35)  # 280 probes: two blocks
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    calls = {"omp": 0, "apply": 0, "operator": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(classifiers, "_omp_block", counted("omp", classifiers._omp_block))
    monkeypatch.setattr(classifiers.CrcOperator, "apply", counted("apply", classifiers.CrcOperator.apply))
    monkeypatch.setattr(classifiers.CrcOperator, "__init__",
                        counted("operator", classifiers.CrcOperator.__init__))
    assert run("identify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--classifier", "sacrc,src,crc", "--out", tmp_path / "ident") == 0
    assert calls == {"omp": 2, "apply": 2, "operator": 1}


def test_identify_with_several_classifiers_equals_one_run_each(tmp_path):
    gen(tmp_path / "data", classes=4, samples=5, dim=24, seed=36)
    probes, bundle = tmp_path / "data" / "probes.feat", tmp_path / "bundle"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "10", "--out", bundle) == 0
    kinds = ["sacrc", "src", "crc"]
    for name in [",".join(kinds), *kinds]:
        assert run("identify", probes, bundle, "--classifier", name, "--out", tmp_path / name) == 0
    shared_csv, shared_txt = ((tmp_path / ",".join(kinds) / f).read_text().splitlines()
                              for f in ("rank1.csv", "rank1.txt"))
    alone_csv, alone_txt = ([(tmp_path / k / f).read_text().splitlines() for k in kinds]
                            for f in ("rank1.csv", "rank1.txt"))
    assert shared_csv == [alone_csv[0][0]] + [lines[1] for lines in alone_csv]
    # rank1.txt: a title, a rule and a blank line, one line per classifier, then the config echo
    assert shared_txt[3:6] == [lines[3] for lines in alone_txt]
    assert shared_txt[:3] + shared_txt[6:] == alone_txt[0][:3] + alone_txt[0][4:]


def test_verify_single_class_has_no_impostors(tmp_path, capsys):
    gen(tmp_path / "data", classes=1, samples=4, dim=12, subspace=2, seed=32)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    code = run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--out", tmp_path / "ver")
    assert code == 2
    assert "impostor" in capsys.readouterr().err


def test_sweep_two_rows(tmp_path):
    gen(tmp_path / "data", classes=4, samples=5, dim=24, seed=25)
    assert run("sweep-pcs", tmp_path / "data" / "enrolment.feat",
               tmp_path / "data" / "probes.feat", "--k-list", "4,8",
               "--out", tmp_path / "sweep") == 0
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "num_components,eer,gmr_at_far_0.1,gmr_at_far_0.01,gmr_at_far_0.001"
    assert len(lines) == 3
    assert lines[1].startswith("4,")
    assert lines[2].startswith("8,")
    echo = (tmp_path / "sweep" / "sweep.kv").read_text()
    assert "config.lambda = 0.01" in echo
    assert "config.k_list = 4,8" in echo


def test_sweep_reads_the_pairs_file_once(tmp_path, monkeypatch):
    gen(tmp_path / "data", classes=4, samples=5, dim=24, seed=25)
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("probe_id,claimed_class\n" + "".join(
        f"{pid},{label}\n{pid},{(label + 1) % 4}\n" for pid, label in zip(probes.ids, probes.labels)))
    reads = []
    real = cli.read_pairs_csv
    monkeypatch.setattr(cli, "read_pairs_csv", lambda path: reads.append(path) or real(path))
    assert run("sweep-pcs", tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat",
               "--k-list", "4,8,12", "--protocol", f"pairs:{pairs}", "--out", tmp_path / "sweep") == 0
    assert len((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()) == 4
    assert reads == [str(pairs)]


@pytest.mark.parametrize("dim", [120, 40], ids=["gram", "scatter"])
@pytest.mark.parametrize("classifier", ["crc", "src", "knn1"])
def test_sweep_rows_equal_fit_and_verify_runs(tmp_path, classifier, dim):
    # Sweep rows score column views of one widest projection; each must give
    # the metrics of its own fit at that K (criterion 9 checks sacrc).  120
    # enrolment samples: dim 120 takes the Gram route, dim 40 the scatter route.
    # K starts at 10, as in criterion 9.  At K = 5 the Gram route's src row
    # reads EER 0.291 against 0.302 from fit + verify: the sweep projects the
    # probes through the cross-Gram and verify through the directions, scores
    # then differ by up to 6e-16, and that reorders src's near-tied scores.
    gen(tmp_path / "data", classes=12, samples=10, dim=dim, subspace=5, sigma=0.2, seed=89)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    k_values = [10, 20, 40]
    assert run("sweep-pcs", enrol, probes, "--classifier", classifier,
               "--k-list", ",".join(map(str, k_values)), "--out", tmp_path / "sweep") == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == [str(k) for k in k_values]
    for row, k in zip(rows, k_values):
        assert run("fit", enrol, "--pca", k, "--out", tmp_path / f"bundle{k}") == 0
        assert run("verify", probes, tmp_path / f"bundle{k}", "--classifier", classifier,
                   "--out", tmp_path / f"verify{k}") == 0
        kv = dict(line.split(" = ") for line in (tmp_path / f"verify{k}" / "report.kv").read_text().splitlines())
        expected = [kv["eer"]] + [kv[f"gmr_at_far_{t}"] for t in ("0.1", "0.01", "0.001")]
        assert [float(v) for v in row.split(",")[1:]] == [float(v) for v in expected], f"K={k}"


def test_fit_calls_pca_fit_by_name_with_the_enrolment(tmp_path, monkeypatch):
    # perfbench's traced runs time the fit, and check its peak allocation, by
    # wrapping `pca_fit` where the CLI looks it up
    calls = []
    real = cli.pca_fit
    monkeypatch.setattr(cli, "pca_fit", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    gen(tmp_path / "data", classes=4, samples=5, dim=24, seed=26)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "3", "--out", tmp_path / "bundle") == 0
    assert len(calls) == 1
    assert isinstance(calls[0][0], Dataset) and calls[0][0].num_samples == 20


@pytest.mark.parametrize("enrol_dim, probe_dim", [(30, 12), (12, 30)], ids=["gram", "scatter"])
def test_sweep_checks_the_probe_dimension_first(tmp_path, capsys, enrol_dim, probe_dim):
    # 20 enrolment samples: dim 30 takes the Gram route, dim 12 the scatter route
    gen(tmp_path / "enrol", classes=4, samples=5, dim=enrol_dim)
    gen(tmp_path / "probe", classes=4, samples=5, dim=probe_dim)
    probes = tmp_path / "probe" / "probes.feat"
    capsys.readouterr()
    code = run("sweep-pcs", tmp_path / "enrol" / "enrolment.feat", probes, "--k-list", "2,4",
               "--out", tmp_path / "sweep")
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {probes}: dim {probe_dim} does not match the enrolment's dim {enrol_dim}\n"
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("pca", ["5", "off"])
@pytest.mark.parametrize("command", ["verify", "identify"])
def test_probes_of_another_dimension_name_their_file(tmp_path, capsys, pca, command):
    gen(tmp_path / "enrol", dim=30)
    gen(tmp_path / "probe", dim=12)
    assert run("fit", tmp_path / "enrol" / "enrolment.feat", "--pca", pca, "--out", tmp_path / "bundle") == 0
    probes = tmp_path / "probe" / "probes.feat"
    capsys.readouterr()
    assert run(command, probes, tmp_path / "bundle", "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {probes}: dim 12, but the bundle expects dim 30\n"
    assert not (tmp_path / "out").exists()


def test_sweep_accepts_the_full_grid():
    # the component grid 100..1500 step 100 parses into fifteen requests
    ks = _parse_k_list(",".join(str(k) for k in range(100, 1600, 100)))
    assert ks == list(range(100, 1600, 100))
    with pytest.raises(InvalidParameters):
        _parse_k_list("10,abc")


def test_generated_files_round_trip_the_generator(tmp_path):
    from sparserec.evaluation import generate_synthetic

    gen(tmp_path / "data", classes=3, samples=4, probes=2, dim=16, subspace=2, seed=41)
    enrol_file = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    probe_file = load_flat_dataset(tmp_path / "data" / "probes.feat")
    enrol, probes = generate_synthetic(3, 4, 16, 2, 0.1, seed=41, probes_per_class=2)
    assert enrol_file.features.tobytes() == enrol.features.tobytes()
    assert probe_file.features.tobytes() == probes.features.tobytes()
    assert enrol_file.ids == enrol.ids
    assert np.array_equal(probe_file.labels, probes.labels)


def test_negative_seed_rejected(tmp_path, capsys):
    code = run("gen-synthetic", "--classes", 2, "--samples-per-class", 2, "--dim", 8,
               "--subspace-dim", 2, "--seed", -5, "--out", tmp_path / "data")
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_missing_input_file_fails_cleanly(tmp_path, capsys):
    code = run("fit", tmp_path / "does-not-exist.feat", "--out", tmp_path / "bundle")
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = run("identify", tmp_path / "nope.feat", tmp_path / "no-bundle", "--out", tmp_path / "x")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    gen(tmp_path / "data", dim=20)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.1\nsparisty_k = 3\n")  # typo must be fatal
    code = run("fit", tmp_path / "data" / "enrolment.feat", "--config", cfg,
               "--out", tmp_path / "bundle")
    assert code == 2
    assert "sparisty_k" in capsys.readouterr().err


def test_config_file_layering(tmp_path):
    gen(tmp_path / "data", dim=30, seed=26)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.5\npca = 6\nfar_targets = 0.2,0.02\n")
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--config", cfg,
               "--lambda", "0.25", "--out", tmp_path / "bundle") == 0
    manifest = (tmp_path / "bundle" / "manifest.txt").read_text()
    assert "lambda = 0.25" in manifest  # CLI flag beats the config file
    assert "pca_components = 6" in manifest
    assert run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--config", cfg, "--out", tmp_path / "ver") == 0
    kv = (tmp_path / "ver" / "report.kv").read_text()
    assert "gmr_at_far_0.2 = " in kv and "gmr_at_far_0.02 = " in kv
    assert "gmr_at_far_0.001" not in kv


NON_FINITE_SOLVER_CASES = {
    "lambda-nan": ((), ["--lambda", "nan"], "lambda must be finite"),
    "lambda-inf": ((), ["--lambda", "inf"], "lambda must be finite"),
    "residual-tol-nan": (("residual_tol = nan",), [], "residual_tol must be finite"),
}


@pytest.mark.parametrize("case", sorted(NON_FINITE_SOLVER_CASES))
def test_fit_rejects_non_finite_solver_values(tmp_path, capsys, case):
    lines, flags, text = NON_FINITE_SOLVER_CASES[case]
    gen(tmp_path / "data", dim=20)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(line + "\n" for line in lines))
    capsys.readouterr()
    code = run("fit", tmp_path / "data" / "enrolment.feat", "--config", cfg, *flags,
               "--out", tmp_path / "bundle")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and text in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "bundle" / "manifest.txt").exists()


@pytest.mark.parametrize("line, text", [
    *((f"{key} = {value}", f"{key} must be finite and >= 0")
      for key in ("lambda", "residual_tol") for value in ("nan", "inf", "-1")),
    ("sparsity_k = 0", "sparsity_k must be >= 1"),
])
def test_bad_solver_value_in_a_config_file_names_its_line(tmp_path, capsys, line, text):
    gen(tmp_path / "data", dim=20)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pca = 4\n{line}\n")
    capsys.readouterr()
    code = run("fit", tmp_path / "data" / "enrolment.feat", "--config", cfg, "--out", tmp_path / "bundle")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: {text}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["verify", "sweep-pcs"])
def test_duplicate_probe_ids_under_a_pairs_list_name_the_probe_file(tmp_path, capsys, command):
    gen(tmp_path / "data", dim=20)
    enrol = tmp_path / "data" / "enrolment.feat"
    assert run("fit", enrol, "--out", tmp_path / "bundle") == 0
    ds = load_flat_dataset(tmp_path / "data" / "probes.feat")
    probes = tmp_path / "probes.feat"
    write_flat_features(probes, dataset_from_arrays(ds.features, ds.labels, [ds.ids[0], *ds.ids[:-1]]))
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"probe_id,claimed_class\n{ds.ids[1]},0\n")
    argv = {"verify": ["verify", probes, tmp_path / "bundle"], "sweep-pcs": ["sweep-pcs", enrol, probes, "--k-list", "4"]}
    capsys.readouterr()
    assert run(*argv[command], "--protocol", f"pairs:{pairs}", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err == f"error: {probes}: duplicate probe id {ds.ids[0]!r}; pairs would be ambiguous\n"


# a config setting that parses but that the data refuses: (command, line, text)
REFUSED_SETTINGS = {
    "fit-pca": ("fit", "pca = 99", "requested 99 components"),
    "fit-sparsity-k": ("fit", "sparsity_k = 99", "sparsity_k=99 exceeds dictionary size 20"),
    "fit-lambda-zero": ("fit --pca 4", "lambda = 0", "lambda=0 with 20 atoms in dimension 4"),
    "verify-sparsity-k": ("verify", "sparsity_k = 21", "sparsity_k=21 exceeds dictionary size 20"),
    "verify-lambda-zero": ("verify", "lambda = 0", "lambda=0 with 20 atoms in dimension 4"),
    "identify-lambda-zero": ("identify", "lambda = 0", "lambda=0 with 20 atoms in dimension 4"),
    "sweep-sparsity-k": ("sweep-pcs", "sparsity_k = 99", "sparsity_k=99 exceeds dictionary size 20"),
    "sweep-lambda-zero": ("sweep-pcs", "lambda = 0", "lambda=0 with 20 atoms in dimension 4"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_SETTINGS))
def test_a_config_setting_the_data_refuses_names_its_line(tmp_path, capsys, case):
    command, line, text = REFUSED_SETTINGS[case]
    gen(tmp_path / "data", dim=20)
    enrol, probes, bundle = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat", tmp_path / "b"
    assert run("fit", enrol, "--pca", "4", "--out", bundle) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    argv = {"fit": ["fit", enrol], "fit --pca 4": ["fit", enrol, "--pca", "4"], "verify": ["verify", probes, bundle],
            "identify": ["identify", probes, bundle], "sweep-pcs": ["sweep-pcs", enrol, probes, "--k-list", "4"]}
    capsys.readouterr()
    assert run(*argv[command], "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: ") and text in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, text", [("nobody,0", "unknown probe id 'nobody'"),
                                       ("{probe},9", "pair claims class 9"),
                                       ("{probe},{label}", "need at least one genuine and one impostor")],
                         ids=["unknown-probe", "unknown-class", "no-impostor"])
@pytest.mark.parametrize("command", ["verify", "sweep-pcs"])
def test_a_pairs_list_the_probes_refuse_names_the_pairs_file(tmp_path, capsys, command, row, text):
    gen(tmp_path / "data", dim=20)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    assert run("fit", enrol, "--out", tmp_path / "bundle") == 0
    first = load_flat_dataset(probes)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("probe_id,claimed_class\n" + row.format(probe=first.ids[0], label=first.labels[0]) + "\n")
    argv = {"verify": ["verify", probes, tmp_path / "bundle"], "sweep-pcs": ["sweep-pcs", enrol, probes, "--k-list", "4"]}
    capsys.readouterr()
    assert run(*argv[command], "--protocol", f"pairs:{pairs}", "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pairs}: ") and text in err and len(err.splitlines()) == 1, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, text", [("lambda = abc", "bad value 'abc'"),
                                        ("residual_tol = nan", "residual_tol must be finite"),
                                        ("pca = 0.5", "bad pca selection")],
                         ids=["lambda-abc", "residual-tol-nan", "pca"])
@pytest.mark.parametrize("command", ["verify", "identify"])
def test_bad_manifest_value_names_its_line(tmp_path, capsys, line, text, command):
    gen(tmp_path / "data", dim=20)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    manifest = tmp_path / "bundle" / "manifest.txt"
    key = line.split(" = ")[0]
    lines = manifest.read_text().splitlines()
    lineno = next(i for i, entry in enumerate(lines, start=1) if entry.startswith(f"{key} = "))
    lines[lineno - 1] = line
    manifest.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = run(command, tmp_path / "data" / "probes.feat", tmp_path / "bundle", "--out", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}:{lineno}: ") and text in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


def _failing_run(tmp_path, command):
    """An argv for `command` that fails its input or configuration checks."""
    gen(tmp_path / "data", dim=20, tensor="2x2x5")
    gen(tmp_path / "flat", dim=20)
    assert run("fit", tmp_path / "flat" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text("residual_tol = nan\n")
    truncated = tmp_path / "truncated.feat"
    truncated.write_bytes((tmp_path / "data" / "enrolment.feat").read_bytes()[:-4])
    probes = tmp_path / "flat" / "probes.feat"
    return {
        "gen-synthetic": ["gen-synthetic", "--classes", 2, "--samples-per-class", 2, "--dim", 8,
                          "--subspace-dim", 2, "--tensor", "2x2x3"],
        "flatten": ["flatten", truncated],
        "fit": ["fit", tmp_path / "flat" / "enrolment.feat", "--config", nan_cfg],
        "verify": ["verify", probes, tmp_path / "bundle", "--config", nan_cfg],
        "identify": ["identify", probes, tmp_path / "bundle", "--config", nan_cfg],
        "sweep-pcs": ["sweep-pcs", tmp_path / "flat" / "enrolment.feat", probes, "--k-list", "2",
                      "--config", nan_cfg],
    }[command]


@pytest.mark.parametrize("command", ["gen-synthetic", "flatten", "fit", "verify", "identify", "sweep-pcs"])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, command):
    argv = _failing_run(tmp_path, command)
    capsys.readouterr()
    assert run(*argv, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["far_targets = 0.1,", "lambda = abc", "pca = 0.5", "seed = -1",
                                  "classifier = svm", "lambda = 1\nlambda = 2",
                                  "pca = 0", "pca = retain:1.5", "pca = retain:nan"])
def test_config_errors_name_the_file_and_line(tmp_path, capsys, line):
    gen(tmp_path / "data", dim=20)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run settings\n" + line + "\n")
    capsys.readouterr()
    code = run("fit", tmp_path / "data" / "enrolment.feat", "--config", cfg,
               "--out", tmp_path / "bundle")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:{line.count(chr(10)) + 2}: ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("target", ["config", "manifest"])
def test_text_that_is_not_utf8_names_its_file(tmp_path, capsys, target):
    gen(tmp_path / "data", dim=20)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.1\n")
    path = {"config": cfg, "manifest": tmp_path / "bundle" / "manifest.txt"}[target]
    path.write_bytes(path.read_bytes() + b"pca = \xff\n")
    capsys.readouterr()
    code = run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle", "--config", cfg,
               "--out", tmp_path / "ver")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: not valid UTF-8")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("line", ["stray line", "lambda = 5"])  # no `=`; a repeated key
def test_manifest_line_without_equals_fails_cleanly(tmp_path, capsys, line):
    gen(tmp_path / "data", dim=20)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    manifest = tmp_path / "bundle" / "manifest.txt"
    manifest.write_text(manifest.read_text() + line + "\n")
    code = run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--out", tmp_path / "ver")
    assert code == 2
    lines = manifest.read_text().splitlines()
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{manifest}:{len(lines)}:" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("row", ["p0,one", "p0"], ids=["non-integer", "missing"])
def test_bad_claimed_class_in_pairs_fails_cleanly(tmp_path, capsys, row):
    gen(tmp_path / "data", classes=3, samples=4, dim=20, seed=22)
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"probe_id,claimed_class\n{probes.ids[0]},1\n{row}\n")
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    code = run("verify", tmp_path / "data" / "probes.feat", tmp_path / "bundle",
               "--protocol", f"pairs:{pairs}", "--out", tmp_path / "ver")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{pairs}:3:" in err
    assert len(err.splitlines()) == 1


def test_non_utf8_id_fails_cleanly(tmp_path, capsys):
    gen(tmp_path / "data", dim=20)
    path = tmp_path / "data" / "enrolment.feat"
    data = bytearray(path.read_bytes())
    offset = len(data) - 1  # last byte of the last id
    data[offset] = 0xFF
    path.write_bytes(bytes(data))
    code = run("fit", path, "--out", tmp_path / "bundle")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err and f"byte offset {offset}" in err
    assert len(err.splitlines()) == 1


def _fresh(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """`python <args>` run in a new interpreter importing this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=check)


def _fresh_python(code: str) -> str:
    """Standard output of `code` run in a new interpreter importing this checkout."""
    return _fresh("-c", code).stdout


def test_entrypoint_freezes_the_import_heap_before_dispatch(monkeypatch):
    before = gc.get_freeze_count()
    seen = []
    monkeypatch.setattr(cli, "main", lambda: seen.append(gc.get_freeze_count()) or 3)
    try:
        with pytest.raises(SystemExit) as exited:
            cli.entrypoint()
    finally:
        gc.unfreeze()
    assert seen[0] > before and exited.value.code == 3


def test_main_leaves_the_heap_unfrozen(tmp_path):
    gen(tmp_path / "data", dim=20)
    before = gc.get_freeze_count()
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    assert gc.get_freeze_count() == before


def _pipeline_outputs(root: Path, fresh: bool):
    """Criterion 8's pipeline under `root`, each command in its own `python -m
    sparserec` or in-process: each exit code and stdout, then every file."""
    printed = []
    for argv in pipeline(root):
        if fresh:
            proc = _fresh("-m", "sparserec", *argv, check=False)
            code, out = proc.returncode, proc.stdout
        else:
            with contextlib.redirect_stdout(io.StringIO()) as buf:
                code = main(argv)
            out = buf.getvalue()
        printed.append((code, out.replace(str(root), "<root>")))
    return printed, {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_python_m_runs_the_pipeline_like_main(tmp_path):
    fresh = _pipeline_outputs(tmp_path / "fresh", True)
    assert fresh[1] and fresh == _pipeline_outputs(tmp_path / "main", False)


def test_cli_import_leaves_scipy_unloaded():
    assert _fresh_python("import sys, sparserec.cli; print('scipy' in sys.modules)").strip() == "False"


@pytest.mark.parametrize("protocol", ["all-vs-all", "pairs"])
def test_verify_leaves_numpy_ma_unimported(tmp_path, protocol):
    # np.unique's first call in a process imports numpy.ma, about 15 ms.
    gen(tmp_path / "data", dim=20)
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", tmp_path / "bundle") == 0
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(f"probe_id,claimed_class\n{probes.ids[1]},0\n{probes.ids[0]},1\n{probes.ids[1]},1\n")
    argv = ["verify", str(tmp_path / "data" / "probes.feat"), str(tmp_path / "bundle"),
            "--protocol", protocol if protocol != "pairs" else f"pairs:{pairs}", "--out", str(tmp_path / "ver")]
    out = _fresh_python(f"import sys; from sparserec.cli import main; code = main({argv!r});"
                        f" print(code, 'numpy.ma' in sys.modules)")
    assert out.splitlines()[-1] == "0 False"


@pytest.mark.parametrize("command", ["fit", "sweep-pcs"])
def test_pca_commands_hold_one_centred_copy(tmp_path, command):
    # D >> M: beside the loaded M x D enrolment a PCA command may hold one
    # centred copy and the D x K directions, and only small temporaries.
    m, d, k_max = 40, 100_000, 20
    gen(tmp_path / "data", classes=4, samples=10, probes=1, dim=d, subspace=3)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    argv = {
        "fit": ["fit", enrol, "--pca", k_max],
        "sweep-pcs": ["sweep-pcs", enrol, probes, "--classifier", "crc", "--k-list", f"5,{k_max},10"],
    }[command]
    tracemalloc.start()
    try:
        assert run(*argv, "--out", tmp_path / "out") == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * d * 8 + d * k_max * 8 + 8 * 2**20


def test_verify_holds_no_class_by_atom_matrix(tmp_path):
    # 3000 classes x 2 samples: a dense c x N label matrix would take 144 MB
    from sparserec.fileio import write_flat_features

    c, per_class, dim = 3000, 2, 8
    n = c * per_class
    rng = np.random.default_rng(5)
    write_flat_features(tmp_path / "enrol.feat", dataset_from_arrays(
        rng.standard_normal((n, dim)), np.arange(n) // per_class, [f"e{i}" for i in range(n)]))
    write_flat_features(tmp_path / "probes.feat", dataset_from_arrays(
        rng.standard_normal((4, dim)), [0, 1, 2, 3], [f"p{i}" for i in range(4)]))
    assert run("fit", tmp_path / "enrol.feat", "--out", tmp_path / "bundle") == 0
    tracemalloc.start()
    try:
        assert run("verify", tmp_path / "probes.feat", tmp_path / "bundle", "--out", tmp_path / "ver") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c * n * 8 / 10


@pytest.mark.parametrize("row", ["b,x,1.0,0.5", "b,1,zz,0.5", "", "b,1,1.0", "b,-1,1.0,0.5", "b,1,nan,0.5",
                                 "b,1,1e999,0.5", "b,1,1.0," + "9" * 200_000],
                         ids=["non-integer-label", "non-numeric-value", "blank-line", "field-count",
                              "negative-label", "nan-value", "overflowing-value", "field-too-long"])
def test_bad_features_csv_row_fails_cleanly(tmp_path, capsys, row):
    path = tmp_path / "bad.csv"
    path.write_text(f"id,class_label,v0,v1\na,0,0.5,1.0\n{row}\nc,1,1.0,0.25\n")
    code = run("fit", path, "--out", tmp_path / "bundle")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{path}:3:" in err
    assert len(err.splitlines()) == 1


# A bundle file replaced by the same file from another fit:
# (bundle --pca, donor data, donor --pca, replaced file).  The error must name that file.
SWAPPED_FILE_CASES = {
    "pca-components": ("10", "data", "8", "pca.bin"),
    "pca-input-dim": ("10", "wide", "10", "pca.bin"),
    "enrolment-dim": ("10", "data", "8", "enrolment.feat"),
    "enrolment-samples": ("10", "fewer", "10", "enrolment.feat"),
    "pca-off-stray-pca-file": ("off", "data", "10", "pca.bin"),
}
# A manifest entry that disagrees with the stored files: (key, value, file named).
MANIFEST_EDIT_CASES = {
    "manifest-num-atoms": ("num_atoms", "21", "enrolment.feat"),
    "manifest-num-classes": ("num_classes", "5", "enrolment.feat"),
    "manifest-pca-components": ("pca_components", "8", "pca.bin"),
    # settings that fit refuses for this gallery of 20 atoms in dimension 10
    "manifest-sparsity-k": ("sparsity_k", "21", "manifest.txt"),
    "manifest-lambda-zero": ("lambda", "0", "manifest.txt"),
}


def _verify_fails_naming(tmp_path, capsys, bundle, named):
    code = run("verify", tmp_path / "data" / "probes.feat", bundle, "--out", tmp_path / "ver")
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(bundle / named) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("case", sorted(SWAPPED_FILE_CASES))
def test_bundle_with_swapped_file_names_it(tmp_path, capsys, case):
    from sparserec.fileio import write_flat_features

    pca, donor_data, donor_pca, name = SWAPPED_FILE_CASES[case]
    gen(tmp_path / "data", dim=30)  # 4 classes x 5 samples
    gen(tmp_path / "wide", dim=36)
    enrol = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    (tmp_path / "fewer").mkdir()
    write_flat_features(tmp_path / "fewer" / "enrolment.feat", dataset_from_arrays(
        enrol.features[:-1], enrol.labels[:-1], enrol.ids[:-1]))
    bundle, donor = tmp_path / "bundle", tmp_path / "donor"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", pca, "--out", bundle) == 0
    assert run("fit", tmp_path / donor_data / "enrolment.feat", "--pca", donor_pca, "--out", donor) == 0
    (bundle / name).write_bytes((donor / name).read_bytes())
    _verify_fails_naming(tmp_path, capsys, bundle, name)


@pytest.mark.parametrize("label", [7], ids=["past-class-count"])
@pytest.mark.parametrize("command", ["verify", "identify"])
def test_bundle_enrolment_labels_must_match_the_dictionary(tmp_path, capsys, label, command):
    from sparserec.fileio import write_flat_features

    gen(tmp_path / "data", dim=30)
    bundle = tmp_path / "bundle"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--out", bundle) == 0
    enrol = load_flat_dataset(bundle / "enrolment.feat")
    labels = enrol.labels.copy()
    labels[0] = label  # sample 0 is class 0
    write_flat_features(bundle / "enrolment.feat", dataset_from_arrays(enrol.features, labels, enrol.ids))
    code = run(command, tmp_path / "data" / "probes.feat", bundle, "--classifier", "knn1",
               "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and str(bundle / "enrolment.feat") in err


@pytest.mark.parametrize("case", sorted(MANIFEST_EDIT_CASES))
def test_bundle_manifest_mismatch_names_the_file(tmp_path, capsys, case):
    key, value, named = MANIFEST_EDIT_CASES[case]
    gen(tmp_path / "data", dim=30)
    bundle = tmp_path / "bundle"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", "10", "--out", bundle) == 0
    manifest = bundle / "manifest.txt"
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
             for line in manifest.read_text().splitlines()]
    manifest.write_text("\n".join(lines) + "\n")
    _verify_fails_naming(tmp_path, capsys, bundle, named)


@pytest.mark.parametrize("pca, donor_pca", [("10", "8"), ("off", "10")], ids=["pca", "pca-off"])
def test_scoring_commands_do_not_read_the_stored_dictionary(tmp_path, pca, donor_pca):
    # the gallery is built from enrolment.feat: a bundle without dictionary.bin,
    # or with one from another fit, scores exactly as the intact bundle does
    gen(tmp_path / "data", dim=30)
    enrol, probes = tmp_path / "data" / "enrolment.feat", tmp_path / "data" / "probes.feat"
    intact, missing, swapped, donor = (tmp_path / name for name in ("intact", "missing", "swapped", "donor"))
    assert run("fit", enrol, "--pca", pca, "--out", intact) == 0
    assert run("fit", enrol, "--pca", donor_pca, "--out", donor) == 0
    for bundle in (missing, swapped):
        shutil.copytree(intact, bundle)
    (missing / "dictionary.bin").unlink()
    (swapped / "dictionary.bin").write_bytes((donor / "dictionary.bin").read_bytes())
    outputs = {}
    for bundle in (intact, missing, swapped):
        for command, extra in (("verify", []), ("identify", ["--classifier", "sacrc,crc,src,knn1"])):
            out = tmp_path / "out" / bundle.name / command
            assert run(command, probes, bundle, *extra, "--out", out) == 0
            outputs.setdefault(command, []).append({p.name: p.read_bytes() for p in out.iterdir()})
    for command, (first, *rest) in outputs.items():
        assert len(first) >= 2 and all(other == first for other in rest), command


# Damaged payloads: (file under tmp_path, byte offset, bytes written there,
# command, text the error must carry[, the fit's --pca, 10 if not given]).
# The bundle is fit on dim 30 from 4 classes x 5 samples, class-major: at
# --pca 10, pca.bin holds a 16-byte header, the mean (30 f64), the eigenvalues
# (10 f64) and the projection; a flat feature file's payload follows a
# 17-byte header, and the bundle's enrolment.feat holds 20 x 10 f64 there,
# then 20 u32 labels.
NAN, INF = struct.pack("<d", float("nan")), struct.pack("<d", float("inf"))
DAMAGED_PAYLOAD_CASES = {
    "pca-nan-projection": ("bundle/pca.bin", 16 + 8 * 40, NAN, "verify", "projection matrix contains a NaN"),
    "pca-nan-mean": ("bundle/pca.bin", 16, NAN, "identify", "mean vector contains a NaN"),
    "pca-zero-eigenvalues": ("bundle/pca.bin", 16 + 8 * 30, bytes(8 * 10), "verify", "eigenvalue 0 is 0"),
    "enrolment-zero-row-verify": ("bundle/enrolment.feat", 17, bytes(8 * 10), "verify", "has zero norm"),
    "enrolment-zero-row-identify": ("bundle/enrolment.feat", 17, bytes(8 * 10), "identify", "has zero norm"),
    # class 1's samples relabelled 2, then class 3's relabelled 2
    "enrolment-class-gap": ("bundle/enrolment.feat", 17 + 8 * 200 + 4 * 5, struct.pack("<5I", *[2] * 5),
                            "identify", "class 1 has no enrolment samples"),
    "enrolment-top-class-gone": ("bundle/enrolment.feat", 17 + 8 * 200 + 4 * 15, struct.pack("<5I", *[2] * 5),
                                 "verify", "classes 3, but manifest.txt says num_classes = 4"),
    "probes-nan": ("data/probes.feat", 17, NAN, "verify", "contains a NaN or infinity"),
    "probes-zero-row-verify": ("data/probes.feat", 17 + 8 * 30, bytes(8 * 30), "verify",
                               "cannot l2-normalize a zero vector", "off"),
    "probes-zero-row-identify": ("data/probes.feat", 17 + 8 * 30, bytes(8 * 30), "identify",
                                 "cannot l2-normalize a zero vector", "off"),
}


@pytest.mark.parametrize("case", sorted(DAMAGED_PAYLOAD_CASES))
def test_damaged_payload_names_its_file(tmp_path, capsys, case):
    name, offset, value, command, text, *pca = DAMAGED_PAYLOAD_CASES[case]
    gen(tmp_path / "data", dim=30)
    bundle = tmp_path / "bundle"
    assert run("fit", tmp_path / "data" / "enrolment.feat", "--pca", *(pca or ["10"]), "--out", bundle) == 0
    path = tmp_path / name
    data = bytearray(path.read_bytes())
    data[offset : offset + len(value)] = value
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run(command, tmp_path / "data" / "probes.feat", bundle, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and text in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out").exists()


# An enrolment that cannot make a gallery or a PCA: (how it is damaged, the
# command line with {enrolment} and {probes}, the error text).  A zero row is
# not run under sweep-pcs: its centred projection is not zero.
FIT = ["fit", "{enrolment}"]
SWEEP = ["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "2"]
UNBUILDABLE_ENROLMENT_CASES = {
    "zero-row": ("zero-row", FIT, "sample 'enrol-0-2' has zero norm"),
    "missing-class": ("missing-class", FIT, "class 2 has no enrolment samples"),
    "missing-class-sweep-pcs": ("missing-class", SWEEP, "class 2 has no enrolment samples"),
    "one-sample-fit": ("one-sample", [*FIT, "--pca", "2"], "PCA needs at least 2 samples, got 1"),
    "one-sample-sweep-pcs": ("one-sample", SWEEP, "PCA needs at least 2 samples, got 1"),
    "constant-fit": ("constant", [*FIT, "--pca", "2"], "all samples are identical; nothing to decompose"),
    "constant-sweep-pcs": ("constant", SWEEP, "all samples are identical; nothing to decompose"),
}


@pytest.mark.parametrize("case", sorted(UNBUILDABLE_ENROLMENT_CASES))
def test_fit_names_the_enrolment_it_cannot_build_a_gallery_from(tmp_path, capsys, case):
    damage, argv, text = UNBUILDABLE_ENROLMENT_CASES[case]
    gen(tmp_path / "data", classes=5, samples=4, dim=30, subspace=3, sigma=0.1, seed=3)
    enrol = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    features, labels, ids = enrol.features.copy(), enrol.labels.copy(), enrol.ids
    if damage == "zero-row":
        features[2] = 0.0
    elif damage == "missing-class":
        labels[labels == 2] = 4
    elif damage == "one-sample":
        features, labels, ids = features[:1], labels[:1], ids[:1]
    else:
        features = np.ones_like(features)
    path = tmp_path / "enrol.feat"
    write_flat_features(path, dataset_from_arrays(features, labels, ids))
    capsys.readouterr()
    paths = {"enrolment": path, "probes": tmp_path / "data" / "probes.feat"}
    assert run(*[arg.format(**paths) for arg in argv], "--out", tmp_path / "bundle") == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}: {text}\n"
    assert not (tmp_path / "bundle").exists()


@pytest.mark.parametrize("command, classifier, text", [
    ("verify", "sacrc", "both coefficient vectors are zero"),
    ("identify", "sacrc", "both coefficient vectors are zero"),
    ("sweep-pcs", "sacrc", "cannot l2-normalize a zero vector"),
])
def test_scoring_errors_name_the_probe_file(tmp_path, capsys, command, classifier, text):
    gen(tmp_path / "data", classes=5, samples=4, dim=30, subspace=3, sigma=0.1, seed=3)
    enrolment_path = tmp_path / "data" / "enrolment.feat"
    enrolment = load_flat_dataset(enrolment_path)
    probes = load_flat_dataset(tmp_path / "data" / "probes.feat")
    features = probes.features.copy()
    if command == "sweep-pcs":
        # a probe at the enrolment mean projects to zero at every K
        features[1] = enrolment.features.mean(axis=0)
        argv = [command, enrolment_path, tmp_path / "probes.feat", "--k-list", "4"]
    else:
        # a probe orthogonal to the 20 gallery samples in dim 30: both of its codes vanish
        basis = np.linalg.qr(enrolment.features.T)[0]
        features[1] -= basis @ (basis.T @ features[1])
        assert run("fit", enrolment_path, "--pca", "off", "--out", tmp_path / "bundle") == 0
        argv = [command, tmp_path / "probes.feat", tmp_path / "bundle"]
    path = tmp_path / "probes.feat"
    write_flat_features(path, dataset_from_arrays(features, probes.labels, probes.ids))
    capsys.readouterr()
    code = run(*argv, "--classifier", classifier, "--out", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {path}: {text}\n"
    assert not (tmp_path / "out").exists()


# One value of an input set to an extreme finite value, whose square
# overflows float64: (input, value, command line with {name} for the input
# and the bundles).  Each fails when the input is read, naming it.
EXTREME_VALUE_CASES = {
    "fit-pca-1e155": ("enrolment", 1e155, ["fit", "{enrolment}", "--pca", "8"]),
    "fit-pca-1e200": ("enrolment", -1e200, ["fit", "{enrolment}", "--pca", "8"]),
    "fit-pca-off-1e200": ("enrolment", 1e200, ["fit", "{enrolment}", "--pca", "off"]),
    "sweep-enrolment-1e155": ("enrolment", 1e155, ["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "4"]),
    "sweep-probes-1e200": ("probes", 1e200, ["sweep-pcs", "{enrolment}", "{probes}", "--k-list", "4"]),
    "verify-knn1-1e200": ("probes", 1e200, ["verify", "{probes}", "{bundle-off}", "--classifier", "knn1"]),
    "verify-pca-1e155": ("probes", -1e155, ["verify", "{probes}", "{bundle}"]),
    "identify-crc-src-1e200": ("probes", 1e200, ["identify", "{probes}", "{bundle-off}", "--classifier", "crc,src"]),
    "fit-csv-1e200": ("enrolment-csv", 1e200, ["fit", "{enrolment-csv}", "--pca", "off"]),
}


@pytest.mark.parametrize("case", sorted(EXTREME_VALUE_CASES))
def test_an_extreme_value_fails_naming_its_file(tmp_path, capsys, case):
    name, value, argv = EXTREME_VALUE_CASES[case]
    gen(tmp_path / "data", classes=5, samples=4, dim=30, subspace=3, sigma=0.1, seed=3)
    paths = {"enrolment": tmp_path / "data" / "enrolment.feat", "probes": tmp_path / "data" / "probes.feat",
             "bundle": tmp_path / "bundle", "bundle-off": tmp_path / "bundle-off"}
    for pca, bundle in (("8", "bundle"), ("off", "bundle-off")):
        assert run("fit", paths["enrolment"], "--pca", pca, "--out", paths[bundle]) == 0
    source = paths[name.split("-")[0]]
    ds = load_flat_dataset(source)
    path = paths[name] = tmp_path / f"damaged-{name}.{'csv' if name.endswith('csv') else 'feat'}"
    if path.suffix == ".csv":
        features = ds.features.tolist()
        features[1][7] = value
        path.write_text("id,class_label," + ",".join(f"v{i}" for i in range(ds.dim)) + "\n" + "".join(
            f"{pid},{label}," + ",".join(map(repr, row)) + "\n"
            for pid, label, row in zip(ds.ids, ds.labels.tolist(), features)))
    else:  # row 1, column 7 of the flat payload after its 17-byte header
        data = bytearray(source.read_bytes())
        data[17 + 8 * (ds.dim + 7) : 17 + 8 * (ds.dim + 8)] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
    capsys.readouterr()
    assert run(*[arg.format(**paths) for arg in argv], "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == (f"error: {path}: sample {ds.ids[1]!r} holds a value of magnitude"
                                       f" {abs(value):g}; the sum of squares of all values must be at most"
                                       f" {np.finfo(float).max / 4:g}\n")
    assert not (tmp_path / "out").exists()


def test_values_just_inside_the_bound_run_like_small_ones(tmp_path):
    # The fixture scaled so that the enrolment's sum of squares is 0.9 of the
    # bound: the fit's pca.bin (eigenvalues summing to about that) loads, and
    # every classifier decides as on the unscaled files.
    gen(tmp_path / "data", classes=5, samples=4, dim=30, subspace=3, sigma=0.1, seed=3)
    from sparserec.fileio import write_flat_features

    enrolment = load_flat_dataset(tmp_path / "data" / "enrolment.feat")
    scale = np.sqrt(0.9 * np.finfo(float).max / 4 / np.sum(enrolment.features**2))
    for name in ("enrolment.feat", "probes.feat"):
        ds = load_flat_dataset(tmp_path / "data" / name)
        write_flat_features(tmp_path / f"scaled-{name}",
                            dataset_from_arrays(ds.features * scale, ds.labels, ds.ids))
    rank1 = {}
    for prefix in ("data/", "scaled-"):
        bundle, out = tmp_path / f"{prefix}bundle", tmp_path / f"{prefix}out"
        assert run("fit", tmp_path / f"{prefix}enrolment.feat", "--pca", "8", "--out", bundle) == 0
        assert run("verify", tmp_path / f"{prefix}probes.feat", bundle, "--out", out / "verify") == 0
        assert run("identify", tmp_path / f"{prefix}probes.feat", bundle, "--classifier", "sacrc,crc,src,knn1",
                   "--out", out / "identify") == 0
        rank1[prefix] = (out / "identify" / "rank1.csv").read_text()
    assert rank1["scaled-"] == rank1["data/"]


def test_a_probe_set_whose_projection_leaves_the_bound_names_the_probe_file(tmp_path, capsys):
    # Enrolment c*e0 and 3c*e0, for c^2 = bound / 11 (sum of squares 10c^2),
    # has mean 2c*e0 along its one component, so each near-zero probe
    # projects to about -2c: three of them sum to 12c^2, over the bound.
    from sparserec.fileio import write_flat_features

    c = np.sqrt(np.finfo(float).max / 44)
    enrolment = np.zeros((2, 3))
    enrolment[:, 0] = c, 3 * c
    write_flat_features(tmp_path / "enrol.feat", dataset_from_arrays(enrolment, [0, 1], ["a", "b"]))
    probes = tmp_path / "probes.feat"
    write_flat_features(probes, dataset_from_arrays(np.full((3, 3), 1e-3), [0, 1, 0], ["p", "q", "r"]))
    assert run("fit", tmp_path / "enrol.feat", "--pca", "1", "--out", tmp_path / "bundle") == 0
    for argv in (["verify", probes, tmp_path / "bundle", "--classifier", "knn1"],
                 ["sweep-pcs", tmp_path / "enrol.feat", probes, "--k-list", "1", "--classifier", "knn1"]):
        capsys.readouterr()
        assert run(*argv, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {probes}: sample ") and "holds a value of magnitude" in err
        assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()
