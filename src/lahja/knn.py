"""K-nearest-neighbor classification under cosine similarity over sparse feature rows."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import BaseEstimator, check_is_fitted, check_labels
from .sparse import CsrMatrix

# Bound on the (query, training row) products and scores held at once.
_CHUNK_BUDGET = 1 << 17


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

    def similarities(self, X: CsrMatrix) -> np.ndarray:
        """(queries x training rows) cosine similarities.

        Each dot product adds its terms in the query's column order.
        """
        check_is_fitted(self, "vectors_")
        X.check_cols(self.vectors_.n_cols)
        n_train = len(self.vectors_)
        columns = self._columns
        # Every (stored query value, training row sharing its column) pair.
        starts = columns.indptr[X.indices]
        count = columns.indptr[X.indices + 1] - starts
        slots = np.repeat(starts - (np.cumsum(count) - count), count) + np.arange(count.sum())
        keys = np.repeat(X.row_ids(), count) * n_train + columns.indices[slots]
        products = columns.values[slots] * np.repeat(X.values, count)
        scores = np.bincount(keys, weights=products, minlength=len(X) * n_train)
        scores = scores.reshape(len(X), n_train)
        denominators = X.row_norms()[:, None] * self.norms_
        sims = np.zeros(scores.shape, dtype=np.float64)
        np.divide(scores, denominators, out=sims, where=denominators > 0.0)
        return sims

    def neighbors(self, X: CsrMatrix) -> np.ndarray:
        """(queries x k) training ids of the most similar rows, best first.

        Queries go through ``similarities`` in chunks of bounded size.
        """
        check_is_fitted(self, "vectors_")
        X.check_cols(self.vectors_.n_cols)
        columns = self._columns
        count = columns.indptr[X.indices + 1] - columns.indptr[X.indices]
        # Cost of the queries before each: their pairs plus their score rows.
        before = np.concatenate(([0], np.cumsum(count)))[X.indptr]
        before += len(self.vectors_) * np.arange(len(X) + 1)
        tops = [np.zeros((0, self.k), dtype=np.int64)]
        lo = 0
        while lo < len(X):
            hi = int(np.searchsorted(before, before[lo] + _CHUNK_BUDGET, "right")) - 1
            hi = min(len(X), max(lo + 1, hi))
            sims = self.similarities(X.take(np.arange(lo, hi)))
            tops.append(np.argsort(-sims, axis=1, kind="stable")[:, : self.k])
            lo = hi
        return np.concatenate(tops)

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
