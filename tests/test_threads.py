"""Outputs across BLAS thread counts.

One fixture runs in fresh processes at OPENBLAS_NUM_THREADS=1 and =2, and
again at 2.  Its products are large enough (D = 3000) that OpenBLAS splits
some of them differently by thread count, so their last bits move.  What
README says about thread counts is what these tests assert:

- a rerun at one thread count writes byte-identical files;
- `pca.bin`, the reduced `enrolment.feat` and `dictionary.bin` agree to
  1e-11 of each field's largest magnitude, and the scores of `scores.csv`
  and the thresholds of `roc.csv` to 1e-13;
- every other file is byte-identical: the data, the `--pca off` bundle,
  the reports, `rank1.*` and the crc sweep;
- except for the rows of the src sweep's `sweep.csv` (`EXEMPT`).  At K = 10,
  below the resolved k = 50, src's scores are set by rounding, and the EER
  read 0.39909 at one thread and 0.39443 at two (OpenBLAS 0.3.31, 2-core
  x86-64 VM).
"""

import csv
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparserec.fileio import read_feature_file, read_pca_model

FIXTURE = ["gen-synthetic", "--classes", "60", "--samples-per-class", "10", "--probes-per-class", "3",
           "--dim", "3000", "--subspace-dim", "10", "--noise-sigma", "0.2", "--seed", "1"]
# (run name, OPENBLAS_NUM_THREADS)
RUNS = (("one", "1"), ("two", "2"), ("two-again", "2"))
BINARY_TOL = 1e-11  # of the largest magnitude in a field
CSV_TOL = 1e-13  # absolute, per score or threshold
TOLERANT = {"bundle/pca.bin", "bundle/enrolment.feat", "bundle/dictionary.bin", "verify/scores.csv",
            "verify/roc.csv"}
EXEMPT = {"sweep-src/sweep.csv"}  # src below the resolved k: rounding reorders near ties


def _commands(root: Path) -> list[list]:
    enrol, probes = root / "data" / "enrolment.feat", root / "data" / "probes.feat"
    return [
        [*FIXTURE, "--out", root / "data"],
        ["fit", enrol, "--pca", "200", "--out", root / "bundle"],
        ["fit", enrol, "--pca", "off", "--out", root / "bundle-off"],
        ["verify", probes, root / "bundle", "--classifier", "sacrc", "--out", root / "verify"],
        ["identify", probes, root / "bundle", "--classifier", "sacrc,crc,src,knn1", "--out", root / "identify"],
        *(["sweep-pcs", enrol, probes, "--k-list", "10,30,100", "--classifier", kind, "--out", root / f"sweep-{kind}"]
          for kind in ("crc", "src")),
    ]


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict[str, dict[str, Path]]:
    """Each run's output files, by path relative to its root."""
    base = tmp_path_factory.mktemp("threads")
    src = str(Path(__file__).resolve().parents[1] / "src")
    trees = {}
    for name, threads in RUNS:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for argv in _commands(base / name):
            subprocess.run([sys.executable, "-m", "sparserec", *map(str, argv)], env=env, check=True,
                           capture_output=True)
        root = base / name
        trees[name] = {str(p.relative_to(root)): p for p in sorted(root.rglob("*")) if p.is_file()}
    return trees


def test_a_rerun_at_one_thread_count_is_byte_identical(runs):
    assert runs["two"].keys() == runs["two-again"].keys()
    for rel, path in runs["two"].items():
        assert path.read_bytes() == runs["two-again"][rel].read_bytes(), rel


def test_files_are_byte_identical_across_thread_counts_but_the_named_ones(runs):
    one, two = runs["one"], runs["two"]
    assert one.keys() == two.keys() and TOLERANT | EXEMPT <= one.keys()
    identical = sorted(one.keys() - TOLERANT - EXEMPT)
    assert {"bundle-off/enrolment.feat", "verify/report.kv", "identify/rank1.csv", "sweep-crc/sweep.csv"} <= set(
        identical)
    for rel in identical:
        assert one[rel].read_bytes() == two[rel].read_bytes(), rel


def _close(a: np.ndarray, b: np.ndarray, what: str) -> None:
    assert a.shape == b.shape, what
    assert np.max(np.abs(a - b), initial=0.0) <= BINARY_TOL * np.max(np.abs(a), initial=0.0), what


def test_bundle_values_agree_within_tolerance(runs):
    one, two = runs["one"], runs["two"]
    pca = [read_pca_model(run["bundle/pca.bin"]) for run in (one, two)]
    for field in ("mean", "eigenvalues", "projection"):
        _close(getattr(pca[0], field), getattr(pca[1], field), f"pca.bin {field}")
    enrol = [read_feature_file(run["bundle/enrolment.feat"]) for run in (one, two)]
    _close(enrol[0].features, enrol[1].features, "enrolment.feat")
    assert enrol[0].ids == enrol[1].ids and np.array_equal(enrol[0].labels, enrol[1].labels)
    # dictionary.bin: a 20-byte header, K x N float64 atoms, N u32 column labels
    data = [run["bundle/dictionary.bin"].read_bytes() for run in (one, two)]
    k, n = struct.unpack_from("<II", data[0], 8)
    assert data[0][:20] == data[1][:20] and data[0][20 + 8 * k * n:] == data[1][20 + 8 * k * n:]
    _close(*(np.frombuffer(d, "<f8", k * n, 20) for d in data), "dictionary.bin")


@pytest.mark.parametrize("rel", ["verify/scores.csv", "verify/roc.csv"])
def test_csv_numbers_agree_within_tolerance(runs, rel):
    rows = [list(csv.reader(run[rel].read_text().splitlines())) for run in (runs["one"], runs["two"])]
    assert len(rows[0]) == len(rows[1])
    for row_one, row_two in zip(*rows):
        assert len(row_one) == len(row_two)
        for a, b in zip(row_one, row_two):
            assert a == b or abs(float(a) - float(b)) <= CSV_TOL, (rel, row_one, row_two)


def test_exempt_src_sweep_keeps_its_rows(runs):
    # only the metrics of the src sweep's rows may move; its rows and columns stay
    tables = [list(csv.reader(runs[name]["sweep-src/sweep.csv"].read_text().splitlines())) for name in ("one", "two")]
    assert tables[0][0] == tables[1][0]
    assert [row[0] for row in tables[0]] == [row[0] for row in tables[1]] == ["num_components", "10", "30", "100"]
