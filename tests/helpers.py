from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from lahja import CsrMatrix, compute_class_weights, enumerate_grid, run_pipeline
from lahja.forest import _sample_without_replacement
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


# ``KnnClassifier.neighbors``' bound on the pairs and scores of one chunk.
_REFERENCE_CHUNK_BUDGET = 1 << 17


def reference_similarities(model, X: CsrMatrix) -> np.ndarray:
    """(queries x training rows) cosine similarities of a fitted
    ``KnnClassifier``, as ``KnnClassifier.similarities`` computed them before
    neighbors came from ``CsrMatrix.dot_rows``.

    Each dot product adds its terms in the query's column order.
    """
    X.check_cols(model.vectors_.n_cols)
    n_train = len(model.vectors_)
    columns = model._columns
    # Every (stored query value, training row sharing its column) pair.
    starts = columns.indptr[X.indices]
    count = columns.indptr[X.indices + 1] - starts
    slots = np.repeat(starts - (np.cumsum(count) - count), count) + np.arange(count.sum())
    keys = np.repeat(X.row_ids(), count) * n_train + columns.indices[slots]
    products = columns.values[slots] * np.repeat(X.values, count)
    scores = np.bincount(keys, weights=products, minlength=len(X) * n_train)
    scores = scores.reshape(len(X), n_train)
    denominators = X.row_norms()[:, None] * model.norms_
    sims = np.zeros(scores.shape, dtype=np.float64)
    np.divide(scores, denominators, out=sims, where=denominators > 0.0)
    return sims


def reference_neighbors(model, X: CsrMatrix) -> np.ndarray:
    """(queries x k) training ids of the most similar rows, best first, as
    ``KnnClassifier.neighbors`` found them from ``reference_similarities``.

    Queries go through ``reference_similarities`` in chunks of bounded size.
    """
    X.check_cols(model.vectors_.n_cols)
    columns = model._columns
    count = columns.indptr[X.indices + 1] - columns.indptr[X.indices]
    # Cost of the queries before each: their pairs plus their score rows.
    before = np.concatenate(([0], np.cumsum(count)))[X.indptr]
    before += len(model.vectors_) * np.arange(len(X) + 1)
    tops = [np.zeros((0, model.k), dtype=np.int64)]
    lo = 0
    while lo < len(X):
        hi = int(np.searchsorted(before, before[lo] + _REFERENCE_CHUNK_BUDGET, "right")) - 1
        hi = min(len(X), max(lo + 1, hi))
        sims = reference_similarities(model, X.take(np.arange(lo, hi)))
        tops.append(np.argsort(-sims, axis=1, kind="stable")[:, : model.k])
        lo = hi
    return np.concatenate(tops)


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


def reference_build_tree(
    columns: CsrMatrix,
    y: np.ndarray,
    n_candidates: int,
    n_labels: int,
    seed: int,
) -> list[dict]:
    """One tree as ``forest._build_tree`` grew it before the split search scored
    all candidates at once; it passes each node's samples, repeats included."""
    n_samples, n_features = columns.n_cols, len(columns)
    rng = np.random.RandomState(seed)
    bootstrap = rng.randint(0, n_samples, size=n_samples)
    feature_urn = np.arange(n_features, dtype=np.int64)
    nodes: list[dict] = [{}]
    stack: list[tuple[int, np.ndarray]] = [(0, bootstrap)]
    while stack:
        slot, samples = stack.pop()
        counts = np.bincount(y[samples], minlength=n_labels)
        if np.count_nonzero(counts) == 1:
            nodes[slot] = {"d": (counts.astype(np.float64) / samples.size).tolist()}
            continue
        candidates = _sample_without_replacement(rng, feature_urn, n_candidates)
        split = reference_best_split(columns, y, samples, candidates, n_labels, n_samples)
        if split is None:
            nodes[slot] = {"d": (counts.astype(np.float64) / samples.size).tolist()}
            continue
        feature, threshold, go_left = split
        nodes[slot] = {"f": feature, "t": threshold, "l": len(nodes), "r": len(nodes) + 1}
        stack.append((len(nodes) + 1, samples[~go_left]))
        stack.append((len(nodes), samples[go_left]))
        nodes += [{}, {}]
    return nodes


def reference_best_split(
    columns: CsrMatrix,
    y: np.ndarray,
    samples: np.ndarray,
    candidates: np.ndarray,
    n_labels: int,
    n_samples: int,
) -> tuple[int, float, np.ndarray] | None:
    """Best (feature, threshold, left mask) over the candidates, or None.

    The per-candidate loop ``forest._best_split`` replaced; ``samples`` lists
    the node's training rows, repeats included.

    Quality maximizes sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    equivalent to minimizing the weighted child Gini impurity. Ties keep the
    earlier candidate; within a feature the smallest qualifying threshold.
    """
    m = samples.size
    node_y = y[samples]
    one_hot = np.zeros((m, n_labels), dtype=np.float64)
    best_quality = -np.inf
    best: tuple[int, float, np.ndarray] | None = None
    for feature in candidates:
        rows, column = columns.row(feature)
        if not rows.size:
            continue
        dense = np.zeros(n_samples, dtype=np.float64)
        dense[rows] = column
        values = dense[samples]
        order = np.argsort(values, kind="stable")
        sorted_values = values[order]
        if sorted_values[0] == sorted_values[-1]:
            continue
        boundaries = np.flatnonzero(sorted_values[:-1] < sorted_values[1:])
        one_hot[:] = 0.0
        one_hot[np.arange(m), node_y[order]] = 1.0
        cumulative = one_hot.cumsum(axis=0)
        left_counts = cumulative[boundaries]
        total = cumulative[-1]
        n_left = (boundaries + 1).astype(np.float64)
        n_right = m - n_left
        quality = (left_counts**2).sum(axis=1) / n_left + (
            (total - left_counts) ** 2
        ).sum(axis=1) / n_right
        pick = int(np.argmax(quality))
        if quality[pick] > best_quality:
            lo = float(sorted_values[boundaries[pick]])
            hi = float(sorted_values[boundaries[pick] + 1])
            threshold = (lo + hi) / 2.0
            if threshold >= hi:  # midpoint rounded up to the right value
                threshold = lo
            best_quality = float(quality[pick])
            best = (int(feature), threshold, values <= threshold)
    return best


def reference_run_sweep(train, dev, spec, workers: int = 1) -> list:
    """``grid.run_sweep`` as it ran before the stages were shared: one whole
    ``run_pipeline`` per config, spread over ``workers`` processes."""
    configs = enumerate_grid(spec)
    workers = min(max(1, workers), len(configs))
    tasks = [(train, dev, config) for config in configs]
    if workers == 1:
        reports = [_reference_evaluate_config(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            reports = list(pool.map(_reference_evaluate_config, tasks))
    results = list(zip(configs, reports))
    results.sort(key=lambda pair: (-pair[1].f1, pair[0].canonical_json()))
    return results


def _reference_evaluate_config(args):
    train, dev, config = args
    return run_pipeline(train, dev, config)


def reference_format_float(value: float) -> str:
    """``persistence._format_float``, the per-value writer of the canonical bundle."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite real {value!r}")
    text = format(value, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"  # keep the value a JSON real
    return text


def reference_write_canonical(value: object, out: list[str]) -> None:
    """``persistence._write_canonical`` as it was before lists of one scalar
    type were written in one pass: one string per value."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(reference_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            reference_write_canonical(item, out)
        out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            reference_write_canonical(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a bundle")
