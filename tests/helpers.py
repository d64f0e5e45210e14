from __future__ import annotations

import random

import numpy as np

from lahja import CsrMatrix, compute_class_weights
from lahja.svm import _LABEL_SEED_STRIDE


def csr(rows, n_cols: int | None = None) -> CsrMatrix:
    """Dense rows -> CsrMatrix, dropping zeros; ``n_cols`` defaults to the row length."""
    dense = np.asarray(rows, dtype=np.float64).reshape(len(rows), -1 if len(rows) else n_cols or 0)
    r, c = np.nonzero(dense)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(r, minlength=dense.shape[0]))))
    return CsrMatrix(indptr, c, dense[r, c], dense.shape[1] if n_cols is None else n_cols)


def same(a: CsrMatrix, b: CsrMatrix) -> bool:
    """Equal width, structure and value bits."""
    return a.n_cols == b.n_cols and all(
        getattr(a, name).tobytes() == getattr(b, name).tobytes() for name in ("indptr", "indices", "values")
    )


def pairs(matrix: CsrMatrix, row: int = 0) -> list[tuple[int, float]]:
    """(column, value) of one row."""
    indices, values = matrix.row(row)
    return list(zip(indices.tolist(), values.tolist()))


def reference_svc_fit(X, y, n_labels, n_features, C=1.0, balanced=False, tol=1e-4,
                      max_epochs=1000, seed=0):
    """Per-sample one-vs-rest fit as ``LinearSvc.fit`` ran before samples were
    grouped by feature vector; returns (coef, intercept, objective histories)."""
    labels = np.asarray(y, dtype=np.int64)
    index_arrays = [X.row(r)[0] for r in range(len(X))]
    value_arrays = [X.row(r)[1] for r in range(len(X))]
    per_sample_c = np.full(labels.size, float(C))
    if balanced:
        per_sample_c *= compute_class_weights(labels, n_labels)[labels]
    diag = 1.0 / (2.0 * per_sample_c)
    q_diag = np.array([float(v @ v) + 1.0 for v in value_arrays]) + diag
    coef = np.zeros((n_labels, n_features), dtype=np.float64)
    intercept = np.zeros(n_labels, dtype=np.float64)
    history = []
    for label in range(n_labels):
        signs = np.where(labels == label, 1.0, -1.0)
        w, b, objective = reference_solve_binary(
            index_arrays, value_arrays, signs, diag, q_diag, n_features, tol, max_epochs,
            seed * _LABEL_SEED_STRIDE + label,
        )
        coef[label] = w
        intercept[label] = b
        history.append(objective)
    return coef, intercept, history


def reference_solve_binary(
    index_arrays: list[np.ndarray],
    value_arrays: list[np.ndarray],
    signs: np.ndarray,
    diag: np.ndarray,
    q_diag: np.ndarray,
    n_features: int,
    tol: float,
    max_epochs: int,
    seed: int,
) -> tuple[np.ndarray, float, list[float]]:
    """Dual coordinate descent for one binary subproblem; returns (w, b, objective history)."""
    n = signs.size
    w = np.zeros(n_features, dtype=np.float64)
    b = 0.0
    alpha = np.zeros(n, dtype=np.float64)
    order = list(range(n))
    rng = random.Random(seed)
    objective: list[float] = []
    for _ in range(max_epochs):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            idx = index_arrays[i]
            val = value_arrays[i]
            sign = signs[i]
            a_old = alpha[i]
            margin = (float(w[idx] @ val) + b) if idx.size else b
            gradient = sign * margin - 1.0 + a_old * diag[i]
            projected = min(gradient, 0.0) if a_old == 0.0 else gradient
            violation = abs(projected)
            if violation > max_violation:
                max_violation = violation
            if violation > 1e-12:
                a_new = a_old - gradient / q_diag[i]
                if a_new < 0.0:
                    a_new = 0.0
                delta = a_new - a_old
                if delta != 0.0:
                    alpha[i] = a_new
                    step = delta * sign
                    if idx.size:
                        w[idx] += step * val
                    b += step
        objective.append(
            float(alpha.sum() - 0.5 * (w @ w + b * b + float(alpha @ (alpha * diag))))
        )
        if max_violation < tol:
            break
    return w, b, objective
