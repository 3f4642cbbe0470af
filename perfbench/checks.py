"""Output checks.  The CLI's files are read back with readers written here
against the documented formats, and compared with the benchmark's own
generated inputs, with the oracles in tests/reference_impls.py and with
pinned per-seed values (perfbench/pins.json)."""

from __future__ import annotations

import csv
import json
import struct
from pathlib import Path

import numpy as np

# Score tolerance: BLAS thread counts moved scores by up to 3.4e-14, and the
# oracles use pinv / LU where the program uses lstsq / Cholesky.
SCORE_TOL = 1e-8
# EER and rank-1 are rank statistics; rounding moves them only if it flips
# the order of two scores.
PIN_TOL = 1e-9
ORACLE_PROBES = 3
PINS_PATH = Path(__file__).resolve().parent / "pins.json"


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[tuple[str, bool, str]]:
        return [r for r in self.results if not r[1]]


# ---------------------------------------------------------------------------
# readers for the documented formats


def _unpack(fmt: str, data: bytes, offset: int):
    return struct.unpack_from(fmt, data, offset), offset + struct.calcsize(fmt)


def read_features(path: Path):
    """Read a CSRC version-1 feature file; tensor samples come back as their
    flattened rows.  Returns (values M x D, labels, ids, layout flag)."""
    data = path.read_bytes()
    (version, flag), off = _unpack("<IB", data, 4)
    if data[:4] != b"CSRC" or version != 1 or flag not in (0, 1):
        raise ValueError(f"{path}: not a version-1 CSRC feature file")
    if flag == 0:
        (d, m), off = _unpack("<II", data, off)
    else:
        (n1, n2, n, m), off = _unpack("<IIII", data, off)
        d = n1 * n2 * n
    values = np.frombuffer(data, "<f8", d * m, off).reshape(m, d)
    off += 8 * d * m
    labels = np.frombuffer(data, "<u4", m, off)
    off += 4 * m
    ids = []
    for _ in range(m):
        (n,), off = _unpack("<I", data, off)
        ids.append(data[off:off + n].decode())
        off += n
    return values, labels, ids, flag


def read_dictionary(path: Path):
    data = path.read_bytes()
    (version, k, n, c), off = _unpack("<IIII", data, 4)
    atoms = np.frombuffer(data, "<f8", k * n, off).reshape(k, n)
    column_labels = np.frombuffer(data, "<u4", n, off + 8 * k * n).astype(np.int64)
    label_matrix = np.zeros((c, n))
    label_matrix[column_labels, np.arange(n)] = 1.0
    return atoms, column_labels, label_matrix


def read_pca(path: Path):
    data = path.read_bytes()
    (version, d, k), off = _unpack("<III", data, 4)
    mean = np.frombuffer(data, "<f8", d, off)
    evals = np.frombuffer(data, "<f8", k, off + 8 * d)
    projection = np.frombuffer(data, "<f8", d * k, off + 8 * (d + k)).reshape(d, k)
    return mean, evals, projection


def read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def eer(genuine: np.ndarray, impostor: np.ndarray) -> float:
    """EER at the FMR/FNMR crossing of the threshold sweep over all observed
    scores (accept at score >= t), interpolated linearly between sweep points."""
    g, i = np.sort(genuine), np.sort(impostor)
    t = np.concatenate([[-np.inf], np.unique(np.concatenate([g, i])), [np.inf]])
    fmr = 1.0 - np.searchsorted(i, t, side="left") / i.size
    fnmr = np.searchsorted(g, t, side="left") / g.size
    diff = fmr - fnmr
    k = int(np.flatnonzero(diff >= 0.0)[-1])
    if diff[k] == 0.0:
        return float(fmr[k])
    theta = diff[k] / (diff[k] - diff[k + 1])
    return float(fnmr[k] + theta * (fnmr[k + 1] - fnmr[k]))


# ---------------------------------------------------------------------------
# observed values and pins


def observed(w, paths) -> dict:
    """EER, rank-1 per classifier and the sweep's EER per K, as the CLI
    wrote them."""
    rank1 = {row[0]: float(row[1]) for row in read_csv(paths["identify"] / "rank1.csv")[1:]}
    sweep = {row[0]: float(row[1]) for row in read_csv(paths["sweep"] / "sweep.csv")[1:]}
    return {
        "eer": float(read_kv(paths["verify"] / "report.kv")["eer"]),
        "rank1": rank1,
        "sweep_eer": sweep,
    }


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.exists() else {}


def check_pins(checks: Checks, w, seed: int, obs: dict, pins: dict) -> None:
    pin = pins.get(w.name, {}).get(str(seed))
    if pin is None:
        return
    checks.add("pinned verify EER", abs(obs["eer"] - pin["eer"]) <= PIN_TOL,
               f"{obs['eer']!r} vs pinned {pin['eer']!r}")
    for name, value in pin["rank1"].items():
        got = obs["rank1"].get(name, float("nan"))
        checks.add(f"pinned rank-1 {name}", abs(got - value) <= PIN_TOL, f"{got!r} vs pinned {value!r}")
    for k, value in pin["sweep_eer"].items():
        got = obs["sweep_eer"].get(k, float("nan"))
        checks.add(f"pinned sweep EER K={k}", abs(got - value) <= PIN_TOL, f"{got!r} vs pinned {value!r}")


def check_iteration(checks: Checks, w, seed: int, paths, pins: dict) -> None:
    """Cheap checks run after every pipeline iteration."""
    try:
        obs = observed(w, paths)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        checks.add("outputs readable", False, repr(exc))
        return
    checks.add("verify EER in (0, 0.5)", 0.0 < obs["eer"] < 0.5, repr(obs["eer"]))
    checks.add("rank-1 rows", list(obs["rank1"]) == list(w.identify_classifiers)
               and all(0.0 <= a <= 1.0 for a in obs["rank1"].values()), repr(obs["rank1"]))
    checks.add("sweep rows", list(obs["sweep_eer"]) == [str(k) for k in w.sweep_k_list]
               and all(0.0 <= e < 0.5 for e in obs["sweep_eer"].values()), repr(obs["sweep_eer"]))
    check_pins(checks, w, seed, obs, pins)


# ---------------------------------------------------------------------------
# deep checks, run once per run on the final outputs


def check_outputs(checks: Checks, w, seed: int, paths, oracle) -> None:
    try:
        enrol, enrol_labels, _, _ = read_features(paths["work"] / "enrol.feat")
        probes, probe_labels, _, _ = read_features(paths["work"] / "probes.feat")
        if w.tensor is not None:
            _check_flatten(checks, paths["flat_enrol"], enrol, enrol_labels)
            _check_flatten(checks, paths["flat_probe"], probes, probe_labels)
        atoms, column_labels, label_matrix = read_dictionary(paths["bundle"] / "dictionary.bin")
        manifest = read_kv(paths["bundle"] / "manifest.txt")
        reduce = _check_model(checks, w, paths, enrol, enrol_labels, atoms, column_labels)
        _check_scores(checks, w, seed, paths, manifest, atoms, label_matrix,
                      reduce(probes), probe_labels, oracle)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        checks.add("outputs readable", False, repr(exc))


def _check_flatten(checks, path, features, labels):
    values, got_labels, ids, flag = read_features(path / "features.feat")
    checks.add(f"flatten {path.name} exact", flag == 0 and np.array_equal(values, features)
               and np.array_equal(got_labels, labels) and len(ids) == len(labels))


def _check_model(checks, w, paths, enrol, enrol_labels, atoms, column_labels):
    """Check PCA (eigen-equation of the centred scatter, computed without a
    D x D matrix) and the dictionary against the generated enrolment; return
    the probe reduction the bundle implies."""
    if w.pca == "off":
        reduced, reduce = enrol, (lambda y: y)
    else:
        mean, evals, proj = read_pca(paths["bundle"] / "pca.bin")
        centred = enrol - mean
        reduced = centred @ proj
        scatter_p = centred.T @ reduced
        residual = np.linalg.norm(scatter_p - proj * evals, axis=0) / evals
        checks.add("PCA mean", np.allclose(mean, enrol.mean(axis=0), rtol=0, atol=1e-12))
        checks.add("PCA eigen-equation", float(residual.max()) <= 1e-8, f"max residual {residual.max():.3g}")
        checks.add("PCA orthonormal", np.abs(proj.T @ proj - np.eye(proj.shape[1])).max() <= 1e-8)
        checks.add("PCA components", proj.shape[1] == int(w.pca), str(proj.shape))
        reduce = lambda y: (y - mean) @ proj  # noqa: E731
    order = np.argsort(enrol_labels, kind="stable")
    expect = reduced[order] / np.linalg.norm(reduced[order], axis=1, keepdims=True)
    checks.add("dictionary atoms", atoms.shape == expect.T.shape
               and np.abs(atoms - expect.T).max() <= SCORE_TOL
               and np.array_equal(column_labels, enrol_labels[order]))
    return reduce


def _check_scores(checks, w, seed, paths, manifest, atoms, label_matrix, probes, probe_labels,
                  oracle):
    rows = read_csv(paths["verify"] / "scores.csv")[1:]
    c = label_matrix.shape[0]
    p = len(probe_labels)
    ids = [r[0] for r in rows]
    claims = np.array([int(r[1]) for r in rows])
    scores = np.array([float(r[2]) for r in rows])
    genuine = np.array([int(r[3]) for r in rows])
    expect_ids = [f"probe-{label}-{i}" for i, label in enumerate(probe_labels)]
    checks.add("scores.csv layout", len(rows) == p * c
               and ids == [pid for pid in expect_ids for _ in range(c)]
               and np.array_equal(claims, np.tile(np.arange(c), p))
               and np.array_equal(genuine, (claims == np.repeat(probe_labels, c)).astype(int)))
    reported = float(read_kv(paths["verify"] / "report.kv")["eer"])
    recomputed = eer(scores[genuine == 1], scores[genuine == 0])
    checks.add("EER recomputed from scores.csv", abs(reported - recomputed) <= 1e-12,
               f"{reported!r} vs {recomputed!r}")

    lam, k, tol = float(manifest["lambda"]), int(manifest["sparsity_k"]), float(manifest["residual_tol"])
    checks.add("bundle hyperparameters", (lam, k, tol) == (0.01, min(50, atoms.shape[1]), 1e-6),
               f"lambda={lam} k={k} tol={tol}")
    sample = np.random.default_rng(seed).choice(p, ORACLE_PROBES, replace=False)
    worst = 0.0
    for i in sample:
        y = probes[i]
        if w.verify_classifier == "sacrc":
            q = oracle.sacrc_reference(atoms, label_matrix, y, lam, k, tol)[3]
        else:  # crc: normalized ridge solution read through the label matrix
            alpha = oracle.ridge_solve_reference(atoms, y / np.linalg.norm(y), lam)
            q = label_matrix @ (alpha / np.linalg.norm(alpha))
        got = scores[i * c:(i + 1) * c]
        worst = max(worst, float(np.max(np.abs(got - q) / np.maximum(1.0, np.abs(q)))))
    checks.add(f"oracle scores ({ORACLE_PROBES} probes, {w.verify_classifier})", worst <= SCORE_TOL,
               f"max rel diff {worst:.3g}")
