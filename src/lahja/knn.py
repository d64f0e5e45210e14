"""K-nearest-neighbor classification under cosine similarity over sparse feature rows."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import BaseEstimator, check_is_fitted, check_labels
from .sparse import CsrMatrix

# Bound on the values ``neighbors`` holds in one array, beyond arrays of one
# entry per stored value of the queries and the training rows.
_BUDGET = 1 << 18
_U = 2.0**-53  # unit roundoff of float64

# How far a fast cosine (``CsrMatrix.dot_rows``) can be from the exact one,
# for a query with m stored values. Both dot products add the same at most m
# nonzero products, each in some order (a column absent from either row adds
# an exact 0.0, and a fused multiply-add rounds once). Any such sum is within
# γ_m·S of the true dot product, where γ_m = m·u/(1 - m·u), u = 2**-53 and
# S = Σ|q_i·t_i| ≤ ‖q‖·‖t‖ (Higham, Accuracy and Stability of Numerical
# Algorithms, 2nd ed., eq. 3.5), so the two sums differ by at most 2γ_m·S.
# Both are divided by the same computed denominator d, and the norms and
# their product are each within a few roundings of the truth, so that
# ‖q‖·‖t‖/d ≤ ρ = 1/((1 - γ_m)(1 - γ_M)(1 - u)**3) for training rows of M
# stored values; each division adds u times a cosine of size at most
# ρ(1 + γ_m). So |fast - exact| ≤ ρ·(2γ_m + 2u(1 + γ_m)), which is below
# 2.1·(m + 1)·u while m·u and M·u are below 0.01, and δ = 8·(m + 4)·u
# bounds it with room. This model of rounding holds while no product, square
# or denominator leaves the normal range, true for stored magnitudes in
# [2**-480, 2**480] and rows of fewer than 2**40 values; outside that range
# every training row is scored exactly.
_RANGE = (2.0**-480, 2.0**480)


class KnnClassifier(BaseEstimator):
    """Cosine-similarity KNN.

    Similarity ties rank the lower training id first; a plurality-label tie
    goes to the label of the single most similar neighbor among the tied
    labels. A zero-norm vector has similarity 0 to everything.
    """

    def __init__(self, k: int = 3):
        self.k = k

    def fit(self, X: CsrMatrix, y: Sequence[int], n_labels: int | None = None) -> "KnnClassifier":
        labels, n_labels = check_labels(len(X), y, n_labels)
        if not len(X):
            raise ValueError("cannot fit KNN on an empty training set")
        if not 1 <= self.k <= len(X):
            raise ValueError(f"k must be in [1, {len(X)}] (the training size), got {self.k}")
        self.vectors_ = X
        self.labels_ = labels
        self.n_labels_ = n_labels
        self.norms_ = X.row_norms()
        self._columns = X.transpose()
        return self

    @classmethod
    def from_fitted(
        cls, params: dict, labels: Sequence[int], vectors: CsrMatrix, n_labels: int
    ) -> "KnnClassifier":
        return cls(**params).fit(vectors, labels, n_labels)

    def neighbors(self, X: CsrMatrix) -> np.ndarray:
        """(queries x k) training ids of the most similar rows, best first.

        A similarity is the dot product, summed one of the query's columns
        after another, over the product of the two row norms (0 where that
        is 0). ``CsrMatrix.dot_rows`` gives each query its candidates, and
        only these are scored in that order. Queries go in chunks of at most
        ``_BUDGET`` similarities.
        """
        check_is_fitted(self, "vectors_")
        X.check_cols(self.vectors_.n_cols)
        rows = max(1, _BUDGET // len(self.vectors_))
        in_range = _in_range(self.vectors_.values)
        tops = [np.zeros((0, self.k), dtype=np.int64)]
        for lo in range(0, len(X), rows):
            tops.append(self._top(X.take(np.arange(lo, min(lo + rows, len(X)))), in_range))
        return np.concatenate(tops)

    def _top(self, X: CsrMatrix, in_range: bool) -> np.ndarray:
        """``neighbors`` of one chunk; every training row is a candidate
        unless the stored values of both sides are within ``_RANGE``."""
        k, n_train = self.k, len(self.vectors_)
        denominators = X.row_norms()[:, None] * self.norms_
        if in_range and _in_range(X.values):
            sims = _cosines(X.dot_rows(self._columns, _BUDGET), denominators)
            # The k + 1 best fast cosines of each query, best first.
            top = np.argpartition(-sims, min(k, n_train - 1), axis=1)[:, : k + 1]
            best = np.take_along_axis(sims, top, axis=1)
            order = np.argsort(-best, axis=1)
            top, best = np.take_along_axis(top, order, axis=1), np.take_along_axis(best, order, axis=1)
            delta = 8.0 * (np.diff(X.indptr) + 4) * _U
            # Fast cosines more than 2δ apart rank as the exact ones do, so a
            # query whose k + 1 best are that far apart has its top k.
            close = np.flatnonzero(np.any(best[:, :-1] - best[:, 1:] <= 2.0 * delta[:, None], axis=1))
            # Every row of the exact top k is within 2δ of the k-th best fast cosine.
            candidates = sims[close] >= (best[close, k - 1] - 2.0 * delta[close])[:, None]
            top = top[:, :k]
        else:
            close = np.arange(len(X))
            candidates = np.ones((len(X), n_train), dtype=bool)
            top = np.zeros((len(X), k), dtype=np.int64)
        queries, train = np.nonzero(candidates)
        queries = close[queries]
        exact = _cosines(X.dot_pairs(self.vectors_, queries, train, _BUDGET), denominators[queries, train])
        ranked = np.lexsort((train, -exact, queries))
        first = np.searchsorted(queries[ranked], close)
        top[close] = train[ranked][first[:, None] + np.arange(k)]
        return top

    def predict(self, X: CsrMatrix) -> np.ndarray:
        top_labels = self.labels_[self.neighbors(X)]
        n = len(X)
        counts = np.bincount(
            (top_labels + self.n_labels_ * np.arange(n, dtype=np.int64)[:, None]).ravel(),
            minlength=n * self.n_labels_,
        ).reshape(n, self.n_labels_)
        # The best-ranked neighbor whose label has the most votes; with one
        # such label this is that label.
        votes = np.take_along_axis(counts, top_labels, axis=1)
        first = np.argmax(votes == votes.max(axis=1, keepdims=True), axis=1)
        return top_labels[np.arange(n), first]


def _cosines(dots: np.ndarray, denominators: np.ndarray) -> np.ndarray:
    sims = np.zeros(dots.shape, dtype=np.float64)
    np.divide(dots, denominators, out=sims, where=denominators > 0.0)
    return sims


def _in_range(values: np.ndarray) -> bool:
    magnitudes = np.abs(values)
    return not magnitudes.size or (_RANGE[0] <= magnitudes.min() and magnitudes.max() <= _RANGE[1])
