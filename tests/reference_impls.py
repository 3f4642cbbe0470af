"""Straight-line reference implementations used as test oracles.

Everything here is written independently of the package internals: plain
loops, generic dense solvers and exhaustive enumeration.  The oracles trade
speed for obviousness so the production code can be checked against them.
"""

from __future__ import annotations

import csv
import itertools
import struct

import numpy as np


def ridge_solve_reference(phi: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    """Solve the ridge normal equations with a generic dense LU solve."""
    n = phi.shape[1]
    return np.linalg.solve(phi.T @ phi + lam * np.eye(n), phi.T @ y)


def best_sparse_fit(phi: np.ndarray, y: np.ndarray, k: int):
    """Exhaustive search over all supports of size <= k.

    Returns (best_residual_norm, best_support, best_coeffs); coefficients of
    each candidate support come from the pseudoinverse.
    """
    n = phi.shape[1]
    best = (float(np.linalg.norm(y)), (), np.zeros(0))
    for size in range(1, k + 1):
        for support in itertools.combinations(range(n), size):
            cols = phi[:, list(support)]
            coeffs = np.linalg.pinv(cols) @ y
            residual = float(np.linalg.norm(y - cols @ coeffs))
            if residual < best[0]:
                best = (residual, support, coeffs)
    return best


def omp_reference(phi: np.ndarray, y: np.ndarray, k: int, tol: float):
    """Straight-line greedy pursuit: correlate, select, refit with pinv."""
    n = phi.shape[1]
    support: list[int] = []
    coeffs = np.zeros(0)
    residual = y.copy()
    while len(support) < k:
        if np.linalg.norm(residual) <= tol:
            break
        correlations = phi.T @ residual
        j = int(np.argmax(np.abs(correlations)))
        if correlations[j] == 0.0 or j in support:
            break
        support.append(j)
        coeffs = np.linalg.pinv(phi[:, support]) @ y
        residual = y - phi[:, support] @ coeffs
    alpha = np.zeros(n)
    if support:
        alpha[support] = coeffs
    return alpha


def label_matrix(column_labels, num_classes: int) -> np.ndarray:
    """The dense c x N binary label matrix: entry (i, j) is 1 when column j
    belongs to class i, so label_matrix @ alpha is the per-class evidence."""
    matrix = np.zeros((num_classes, len(column_labels)))
    for j, label in enumerate(column_labels):
        matrix[label, j] = 1.0
    return matrix


def sacrc_reference(
    atoms: np.ndarray,
    label_matrix: np.ndarray,
    y: np.ndarray,
    lam: float,
    k: int,
    tol: float,
):
    """Straight-line augmented classification: dense ridge solve, greedy
    sparse solve, normalized sum, label-matrix scores, lowest-index argmax."""
    y_hat = y / np.linalg.norm(y)
    alpha_collab = ridge_solve_reference(atoms, y_hat, lam)
    alpha_sparse = omp_reference(atoms, y_hat, k, tol)
    combined = alpha_collab + alpha_sparse
    alpha = combined / np.linalg.norm(combined)
    q = label_matrix @ alpha
    predicted = 0
    for i in range(1, q.shape[0]):
        if q[i] > q[predicted]:
            predicted = i
    return alpha_collab, alpha_sparse, alpha, q, predicted


def accept_rate_recount(scores, threshold: float) -> float:
    """O(n) accepted fraction at one threshold, counted one score at a time."""
    accepted = 0
    for s in scores:
        if s >= threshold:
            accepted += 1
    return accepted / len(scores)


def roc_recount(genuine, impostor):
    """O(n^2) sweep: recount FAR and GMR at every threshold from scratch."""
    thresholds = [-np.inf] + sorted(set(list(genuine) + list(impostor))) + [np.inf]
    points = []
    for t in thresholds:
        points.append((t, accept_rate_recount(impostor, t), accept_rate_recount(genuine, t)))
    return points


def eer_recount(genuine, impostor) -> float:
    """EER from the recounted sweep, interpolating at the FMR/FNMR crossing."""
    thresholds = [-np.inf] + sorted(set(list(genuine) + list(impostor))) + [np.inf]
    fmr = [accept_rate_recount(impostor, t) for t in thresholds]
    fnmr = [1.0 - accept_rate_recount(genuine, t) for t in thresholds]
    idx = max(i for i in range(len(thresholds)) if fmr[i] - fnmr[i] >= 0.0)
    d0 = fmr[idx] - fnmr[idx]
    if d0 == 0.0:
        return fmr[idx]
    d1 = fmr[idx + 1] - fnmr[idx + 1]
    theta = d0 / (d0 - d1)
    return fnmr[idx] + theta * (fnmr[idx + 1] - fnmr[idx])


def gmr_at_far_recount(genuine, impostor, target: float):
    """GMR at the most permissive threshold meeting the FAR target, recounted.

    The recounted accept rate never rises as the threshold rises, so the
    first threshold meeting the target is found by bisection over the sorted
    thresholds, with a full recount at each probe.
    """
    thresholds = sorted(set(list(genuine) + list(impostor)))
    lo, hi = 0, len(thresholds)
    while lo < hi:
        mid = (lo + hi) // 2
        if accept_rate_recount(impostor, thresholds[mid]) <= target:
            hi = mid
        else:
            lo = mid + 1
    if lo < len(thresholds):
        return accept_rate_recount(genuine, thresholds[lo]), False
    flag = len(impostor) < 1.0 / target
    return accept_rate_recount(genuine, thresholds[-1]), flag


def covariance_pca_reference(features: np.ndarray):
    """Direct eigendecomposition of the D x D scatter of centered samples.

    Returns (mean, eigenvalues desc, eigenvectors as columns); eigenvalues
    are sums of squared centered values along each direction, the same
    convention as the Gram route.
    """
    mean = features.mean(axis=0)
    centered = features - mean
    scatter = centered.T @ centered
    evals, evecs = np.linalg.eigh(scatter)
    order = np.argsort(evals)[::-1]
    return mean, evals[order], evecs[:, order]


def peaks_positive_reference(directions: np.ndarray) -> np.ndarray:
    """A copy with each column negated when its first largest-magnitude entry
    is negative."""
    out = directions.copy()
    for j in range(out.shape[1]):
        peak = 0
        for i in range(out.shape[0]):
            if abs(out[i, j]) > abs(out[peak, j]):
                peak = i
        if out[peak, j] < 0.0:
            out[:, j] *= -1.0
    return out


def flatten_reference(maps: np.ndarray) -> np.ndarray:
    """Vectorize n maps of n1 x n2, one entry at a time: entry (i, r, c) goes
    to i*n1*n2 + r*n2 + c."""
    n, n1, n2 = maps.shape
    out = np.empty(n * n1 * n2)
    for i in range(n):
        for r in range(n1):
            for c in range(n2):
                out[i * n1 * n2 + r * n2 + c] = maps[i, r, c]
    return out


def tensor_file_reference(maps: np.ndarray, labels, ids) -> bytes:
    """The bytes of a tensor feature file holding the (M, n, n1, n2) stack
    `maps`, field by field as the file format documents it: header, the
    values map-major then row-major, u32 labels, length-prefixed UTF-8 ids."""
    m, n, n1, n2 = maps.shape
    out = b"CSRC" + struct.pack("<IBIIII", 1, 1, n1, n2, n, m)
    for sample in range(m):
        for i in range(n):
            for r in range(n1):
                out += b"".join(struct.pack("<d", v) for v in maps[sample, i, r])
    out += b"".join(struct.pack("<I", label) for label in labels)
    for sample_id in ids:
        encoded = sample_id.encode("utf-8")
        out += struct.pack("<I", len(encoded)) + encoded
    return out


def scores_csv_reference(path) -> tuple[tuple[str, ...], dict[str, np.ndarray]]:
    """A scores CSV parsed with the csv module, int and float: the probe ids in
    first-seen order, and the columns `probe` (an index into them), `claim`,
    `score` and `is_genuine`, one entry per row."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["probe_id", "claimed_class", "score", "is_genuine"]
    index = {pid: i for i, pid in enumerate(dict.fromkeys(row[0] for row in rows))}
    assert all(row[3] in ("0", "1") for row in rows)
    return tuple(index), {
        "probe": np.array([index[row[0]] for row in rows], dtype=np.int64),
        "claim": np.array([int(row[1]) for row in rows], dtype=np.int64),
        "score": np.array([float(row[2]) for row in rows]),
        "is_genuine": np.array([row[3] == "1" for row in rows]),
    }
