from __future__ import annotations

import json
import math
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from lahja import (
    CsrMatrix,
    DialectPipeline,
    KnnClassifier,
    LinearSvc,
    RandomForest,
    TfidfBlock,
    build_analyzer,
    compute_class_weights,
    enumerate_grid,
    evaluate,
)
from lahja.analyzers import Symbols
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


def reference_ngram_counts(kind: str, ngram_range: tuple[int, int], texts: list[str]) -> list[Counter]:
    """Each text's n-gram counts by the string analyzer of ``kind``."""
    analyze = build_analyzer(kind, ngram_range)
    return [Counter(analyze(text)) for text in texts]


def reference_vocabulary(
    kind: str, ngram_range: tuple[int, int], max_features: int | None, texts: list[str]
) -> tuple[list[str], np.ndarray]:
    """(feature names, idf) of a block fitted on ``texts`` through the string
    analyzer: the most frequent ``max_features`` n-grams, ties to the smaller
    string, in lexicographic order."""
    totals: Counter = Counter()
    document_frequency: Counter = Counter()
    for counts in reference_ngram_counts(kind, ngram_range, texts):
        totals.update(counts)
        document_frequency.update(counts.keys())
    names = sorted(totals)
    if max_features is not None:
        names = sorted(sorted(names, key=lambda name: (-totals[name], name))[:max_features])
    n = len(texts)
    idf = [math.log((1.0 + n) / (1.0 + document_frequency[name])) + 1.0 for name in names]
    return names, np.array(idf, dtype=np.float64)


def reference_tfidf(
    kind: str, ngram_range: tuple[int, int], names: list[str], idf: np.ndarray, texts: list[str]
) -> CsrMatrix:
    """The unit-norm TF-IDF rows of ``texts`` over the vocabulary ``names``,
    through the string analyzer; n-grams outside it are dropped."""
    column = {name: i for i, name in enumerate(names)}
    indptr, indices, counts = [0], [], []
    for found in reference_ngram_counts(kind, ngram_range, texts):
        known = sorted((column[name], count) for name, count in found.items() if name in column)
        indices.extend(c for c, _ in known)
        counts.extend(count for _, count in known)
        indptr.append(len(indices))
    raw = CsrMatrix(indptr, indices, np.array(counts, dtype=np.float64) * idf[indices], len(names))
    return CsrMatrix(indptr, indices, raw.values / np.repeat(raw.row_norms(), np.diff(indptr)), len(names))


def count_featurized(monkeypatch) -> dict[tuple[str, tuple[int, int]], int]:
    """Texts featurized per (analyzer, n-gram range) block from now on: the
    texts each block reads through ``Symbols.stream``."""
    counts: dict[tuple[str, tuple[int, int]], int] = {}
    blocks: list[TfidfBlock] = []  # the block whose method runs, innermost last
    stream = Symbols.stream

    def counting_stream(self, texts, grow=False):
        block = blocks[-1]
        assert self.kind == block.analyzer
        key = (self.kind, tuple(block.ngram_range))
        counts[key] = counts.get(key, 0) + len(texts)
        return stream(self, texts, grow)

    def tracked(method):
        def run(self, *args, **kwargs):
            blocks.append(self)
            try:
                return method(self, *args, **kwargs)
            finally:
                blocks.pop()

        return run

    monkeypatch.setattr(Symbols, "stream", counting_stream)
    for name in ("fit_transform", "transform"):
        monkeypatch.setattr(TfidfBlock, name, tracked(getattr(TfidfBlock, name)))
    return counts


def count_fits(monkeypatch) -> dict[str, int]:
    """Fits per model class name from now on, and ``CsrMatrix.gram`` calls
    under "gram"."""
    counts: dict[str, int] = {}

    def counted(method, name):
        def run(self, *args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return method(self, *args, **kwargs)

        return run

    for cls in (LinearSvc, RandomForest, KnnClassifier):
        monkeypatch.setattr(cls, "fit", counted(cls.fit, cls.__name__))
    monkeypatch.setattr(CsrMatrix, "gram", counted(CsrMatrix.gram, "gram"))
    return counts


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


def reference_cholesky_solve(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with ``a`` x = ``rhs`` for one symmetric positive definite ``a``, by a
    Cholesky factorization of its lower triangle, one np.sum over a fixed
    slice per entry."""
    n = len(a)
    low = np.zeros_like(a)
    for j in range(n):
        row = low[j, :j]
        low[j, j] = pivot = np.sqrt(a[j, j] - (row * row).sum())
        low[j + 1 :, j] = (a[j + 1 :, j] - (low[j + 1 :, :j] * row).sum(axis=1)) / pivot
    y = np.empty(n)
    for j in range(n):
        y[j] = (rhs[j] - (low[j, :j] * y[:j]).sum()) / low[j, j]
    x = np.empty(n)
    for j in reversed(range(n)):
        x[j] = (y[j] - (low[j + 1 :, j] * x[j + 1 :]).sum()) / low[j, j]
    return x


def reference_build_tree(
    columns: CsrMatrix,
    y: np.ndarray,
    n_candidates: int,
    n_labels: int,
    seed: int,
) -> list[dict]:
    """One tree grown alone, node by node, from ``RandomState(seed)``, with the
    per-candidate split search; it passes each node's samples, repeats
    included."""
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
        candidates = reference_sample_without_replacement(rng, feature_urn, n_candidates)
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


def reference_draws(rng: np.random.RandomState, k: int, size: int) -> list[int]:
    """The swap positions of a partial Fisher-Yates shuffle of ``size`` items:
    k scalar draws ``rng.randint(i, size)``, i = 0 .. k - 1."""
    return [int(rng.randint(i, size)) for i in range(k)]


def reference_sample_without_replacement(rng: np.random.RandomState, urn: np.ndarray, k: int) -> np.ndarray:
    """k distinct items of ``urn`` by a partial Fisher-Yates shuffle, one
    scalar draw per swap, where the forest draws a node's swaps in one call;
    ``urn`` keeps the shuffle."""
    for i, j in enumerate(reference_draws(rng, k, urn.size)):
        urn[i], urn[j] = urn[j], urn[i]
    return urn[:k].copy()


def reference_best_split(
    columns: CsrMatrix,
    y: np.ndarray,
    samples: np.ndarray,
    candidates: np.ndarray,
    n_labels: int,
    n_samples: int,
) -> tuple[int, float, np.ndarray] | None:
    """Best (feature, threshold, left mask) over the candidates, or None.

    One node's search, one candidate at a time, where the forest scores
    all candidates of many nodes at once; ``samples`` lists the node's
    training rows, repeats included.

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


def reference_run_pipeline(train, eval_dataset, config):
    """``run_pipeline`` as it ran before it ran on the sweep's engine: fit a
    whole ``DialectPipeline``, predict the eval texts and score them."""
    preds = DialectPipeline(config).fit(train).predict(eval_dataset.texts())
    return evaluate(preds, eval_dataset.label_sets(), n_labels=len(train.label_space))


def reference_run_sweep(train, dev, spec, workers: int = 1) -> list:
    """``grid.run_sweep`` as it ran before the stages were shared: one whole
    ``reference_run_pipeline`` per config, spread over ``workers`` processes."""
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
    return reference_run_pipeline(*args)


def reference_decide_labels(scores, policy) -> frozenset[int]:
    """``DecisionPolicy.decide`` as it was applied before, one row of scores
    at a time.

    argmax: singleton top label (ties to the lowest index). threshold:
    labels scoring strictly above tau, falling back to argmax when empty.
    topk: the k best labels (ties to the lower index).
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if policy.kind == "argmax":
        return frozenset((int(np.argmax(values)),))
    if policy.kind == "threshold":
        chosen = np.flatnonzero(values > policy.tau)
        if not chosen.size:
            return frozenset((int(np.argmax(values)),))
        return frozenset(int(i) for i in chosen)
    policy.check_label_count(values.size)
    order = np.lexsort((np.arange(values.size), -values))
    return frozenset(int(i) for i in order[: policy.k])


def reference_format_float(value: float) -> str:
    """The canonical bundle's text of one real, as written one value at a time."""
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite real {value!r}")
    text = format(value, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"  # keep the value a JSON real
    return text


def reference_write_canonical(value: object, out: list[str]) -> None:
    """The canonical bundle writer as it was before its reals were formatted
    together: one string per value. A numpy array is written as its
    ``tolist()``."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
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
