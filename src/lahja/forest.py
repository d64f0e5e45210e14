"""Random forest over sparse feature rows: Gini decision trees on bootstrap resamples.

Each tree trains on a bootstrap resample of size N (with replacement). At
every node ceil(sqrt(F)) candidate features are sampled without replacement;
the best split minimizes the weighted child Gini impurity over midpoints of
consecutive distinct observed values. A node becomes a leaf when it is pure
or no candidate feature varies on its samples; absent sparse entries read as
0.0 everywhere.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .base import BaseEstimator, check_fields, check_int, check_is_fitted, check_labels, check_reals
from .sparse import CsrMatrix

_LEAF = -1


class RandomForest(BaseEstimator):
    """Bootstrap ensemble of Gini decision trees with majority voting.

    Fitted node arrays hold all trees end to end; tree t owns the nodes
    ``tree_starts_[t]:tree_starts_[t + 1]``, its root first. ``feature_`` is
    ``_LEAF`` at a leaf, whose class distribution is its row of ``dist_``;
    an internal node routes x[feature] <= threshold to ``left_`` and the
    rest to ``right_`` (absolute node ids).
    """

    def __init__(self, n_trees: int = 100, seed: int = 0):
        self.n_trees = n_trees
        self.seed = seed

    def fit(self, X: CsrMatrix, y: Sequence[int], n_labels: int | None = None) -> "RandomForest":
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")
        labels, n_labels = check_labels(len(X), y, n_labels)
        if len(X) < 2:
            raise ValueError("training requires at least 2 samples")
        if X.n_cols < 1:
            raise ValueError("training requires at least one feature column")

        columns = X.transpose()
        n_candidates = min(X.n_cols, math.ceil(math.sqrt(X.n_cols)))
        master = np.random.RandomState(self.seed)
        tree_seeds = master.randint(0, 2**31 - 1, size=self.n_trees)
        trees = [
            _build_tree(columns, labels, n_candidates, n_labels, int(s)) for s in tree_seeds
        ]
        self._set_trees(trees, n_labels, X.n_cols)
        return self

    @classmethod
    def from_fitted(cls, params: dict, payload: dict, n_labels: int, n_features: int) -> "RandomForest":
        """The forest of a :meth:`payload` entry, which must be fitted for
        ``n_labels`` labels and ``n_features`` feature columns."""
        check_fields("forest model", payload, ("n_labels", "n_features", "trees"))
        if check_int("forest n_labels", payload["n_labels"]) != n_labels:
            raise ValueError(f"forest model has n_labels {payload['n_labels']} for {n_labels} labels")
        if check_int("forest n_features", payload["n_features"]) != n_features:
            raise ValueError(f"forest n_features {payload['n_features']} does not match union dimension {n_features}")
        forest = cls(**params)
        forest._set_trees(payload["trees"], n_labels, n_features)
        return forest

    def _set_trees(self, trees: Sequence[list], n_labels: int, n_features: int) -> None:
        """Fill the node arrays from per-tree node lists in bundle form.

        Rejects what would make prediction index out of range or loop: a
        split feature or child id that is not an int, a split feature outside
        [0, n_features), a child not after its parent or past the tree's end,
        a leaf distribution not of length n_labels; and a threshold or leaf
        distribution value that is not a finite JSON number.
        """
        if n_labels < 1 or n_features < 1 or not trees:
            raise ValueError("a forest needs at least one tree, one label and one feature")
        rows: list[tuple] = []  # (feature, threshold, left, right) per node
        dist: list = []  # every node's class distribution, end to end
        no_dist = [0.0] * n_labels
        starts = [0]
        for t, nodes in enumerate(trees):
            if not nodes:
                raise ValueError(f"tree {t} has no nodes")
            for i, node in enumerate(nodes):
                where = f"tree {t} node {i}"
                if len(node) != (1 if "d" in node else 4):
                    raise ValueError(f"{where}: a leaf holds only d, a split only f, t, l and r; got {sorted(node)}")
                if "d" in node:
                    if len(node["d"]) != n_labels:
                        raise ValueError(f"{where}: leaf distribution is not of length {n_labels}")
                    rows.append((_LEAF, 0.0, _LEAF, _LEAF))
                    dist.extend(node["d"])
                    continue
                f, lo, hi = node["f"], node["l"], node["r"]
                if type(f) is not int or type(lo) is not int or type(hi) is not int:
                    raise ValueError(f"{where}: split feature and child ids must be integers")
                if not 0 <= f < n_features:
                    raise ValueError(f"{where}: split feature {f} outside [0, {n_features})")
                if not (i < lo < len(nodes) and i < hi < len(nodes)):
                    raise ValueError(f"{where}: children must lie after it within the tree")
                rows.append((f, node["t"], starts[-1] + lo, starts[-1] + hi))
                dist.extend(no_dist)
            starts.append(starts[-1] + len(nodes))
        feature, threshold, left, right = zip(*rows)
        self.feature_ = np.array(feature, dtype=np.int64)
        self.threshold_ = check_reals("forest thresholds", list(threshold))
        self.left_ = np.array(left, dtype=np.int64)
        self.right_ = np.array(right, dtype=np.int64)
        self.dist_ = check_reals("forest leaf distributions", dist).reshape(len(rows), n_labels)
        self.tree_starts_ = np.array(starts, dtype=np.int64)
        self.n_labels_ = n_labels
        self.n_features_ = n_features

    def payload(self) -> dict:
        """The forest's bundle entry; ``trees`` holds, per tree, its nodes in
        bundle form with tree-relative child ids."""
        check_is_fitted(self, "feature_")
        feature, threshold = self.feature_.tolist(), self.threshold_.tolist()
        left, right, dist = self.left_.tolist(), self.right_.tolist(), self.dist_.tolist()
        starts = self.tree_starts_.tolist()
        trees = []
        for start, end in zip(starts[:-1], starts[1:]):
            trees.append([
                {"d": dist[i]}
                if feature[i] == _LEAF
                else {"f": feature[i], "t": threshold[i], "l": left[i] - start, "r": right[i] - start}
                for i in range(start, end)
            ])
        return {"n_labels": int(self.n_labels_), "n_features": int(self.n_features_), "trees": trees}

    def tree_votes(self, X: CsrMatrix) -> np.ndarray:
        """(docs x trees) label of the leaf each tree routes each doc to.

        All (doc, tree) pairs descend together, one tree level per step.
        """
        check_is_fitted(self, "feature_")
        X.check_cols(self.n_features_)
        n_trees = self.tree_starts_.size - 1
        node = np.tile(self.tree_starts_[:-1], len(X))
        doc = np.repeat(np.arange(len(X), dtype=np.int64), n_trees)
        active = np.flatnonzero(self.feature_[node] != _LEAF)
        while active.size:
            at = node[active]
            go_left = X.lookup(doc[active], self.feature_[at]) <= self.threshold_[at]
            node[active] = np.where(go_left, self.left_[at], self.right_[at])
            active = active[self.feature_[node[active]] != _LEAF]
        return np.argmax(self.dist_, axis=1)[node].reshape(len(X), n_trees)

    def predict(self, X: CsrMatrix) -> np.ndarray:
        """Per doc, the label most trees vote for; ties go to the lowest label."""
        votes = self.tree_votes(X)
        keys = votes + self.n_labels_ * np.arange(len(X), dtype=np.int64)[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(X) * self.n_labels_)
        return np.argmax(counts.reshape(len(X), self.n_labels_), axis=1)


def _build_tree(
    columns: CsrMatrix,
    y: np.ndarray,
    n_candidates: int,
    n_labels: int,
    seed: int,
) -> list[dict]:
    """One tree's nodes in bundle form; ``columns`` is the CSC form of the samples.

    A node holds the distinct training rows that reach it, ascending, with
    their multiplicities in the tree's bootstrap resample.
    """
    n_samples, n_features = columns.n_cols, len(columns)
    rng = np.random.RandomState(seed)
    rows, weights = np.unique(rng.randint(0, n_samples, size=n_samples), return_counts=True)
    feature_urn = np.arange(n_features, dtype=np.int64)
    nodes: list[dict] = [{}]
    stack: list[tuple[int, np.ndarray, np.ndarray]] = [(0, rows, weights)]
    while stack:
        slot, rows, weights = stack.pop()
        counts = np.bincount(y[rows], weights=weights, minlength=n_labels)
        if np.count_nonzero(counts) == 1:
            nodes[slot] = {"d": (counts / weights.sum()).tolist()}
            continue
        candidates = _sample_without_replacement(rng, feature_urn, n_candidates)
        split = _best_split(columns, y, rows, weights, candidates, n_labels)
        if split is None:
            nodes[slot] = {"d": (counts / weights.sum()).tolist()}
            continue
        feature, threshold, go_left = split
        nodes[slot] = {"f": feature, "t": threshold, "l": len(nodes), "r": len(nodes) + 1}
        stack.append((len(nodes) + 1, rows[~go_left], weights[~go_left]))
        stack.append((len(nodes), rows[go_left], weights[go_left]))
        nodes += [{}, {}]
    return nodes


def _sample_without_replacement(
    rng: np.random.RandomState, urn: np.ndarray, k: int
) -> np.ndarray:
    # Partial Fisher-Yates on a persistent urn; any permutation state is a
    # valid urn, so no restore pass is needed.
    size = urn.size
    for i in range(k):
        j = rng.randint(i, size)
        urn[i], urn[j] = urn[j], urn[i]
    return urn[:k].copy()


def _best_split(
    columns: CsrMatrix,
    y: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    candidates: np.ndarray,
    n_labels: int,
) -> tuple[int, float, np.ndarray] | None:
    """Best (feature, threshold, left mask over ``rows``) over the candidates, or None.

    ``rows`` are the node's distinct training rows and ``weights`` their
    multiplicities. Quality maximizes sum(left_counts^2)/n_left +
    sum(right_counts^2)/n_right, equivalent to minimizing the weighted child
    Gini impurity. Ties keep the earlier candidate; within a feature the
    smallest qualifying threshold.

    All candidates are scored in one pass over their stored entries at the
    node; the node's samples a candidate does not store count as one entry of
    value 0.0 (stored values are nonzero). Class counts are integer-valued
    floats, so the qualities are exact functions of the counts.
    """
    counts = np.bincount(y[rows], weights=weights, minlength=n_labels)
    n_node, n_candidates = int(weights.sum()), candidates.size
    multiplicity = np.zeros(columns.n_cols, dtype=np.int64)
    multiplicity[rows] = weights
    src, lengths = columns.entries(candidates)
    entry_rows = columns.indices[src]
    kept = np.flatnonzero(multiplicity[entry_rows])
    src, entry_rows = src[kept], entry_rows[kept]
    entry_weight, label = multiplicity[entry_rows], y[entry_rows]
    position = np.repeat(np.arange(n_candidates), lengths)[kept]
    stored = np.bincount(position * n_labels + label, weights=entry_weight, minlength=n_candidates * n_labels)
    absent = counts - stored.reshape(n_candidates, n_labels)
    with_absent = np.flatnonzero(absent.any(axis=1))

    position = np.concatenate((position, with_absent))
    value = np.concatenate((columns.values[src], np.zeros(with_absent.size)))
    order = np.lexsort((value, position))
    position, value = position[order], value[order]
    # Equal values of one candidate form one group; groups are in (candidate, value) order.
    starts = np.ones(order.size, dtype=bool)
    starts[1:] = (position[1:] != position[:-1]) | (value[1:] != value[:-1])
    group = np.empty(order.size, dtype=np.int64)
    group[order] = np.cumsum(starts) - 1
    position, value = position[starts], value[starts]
    boundaries = np.flatnonzero(position[:-1] == position[1:])
    if not boundaries.size:
        return None

    n_groups = position.size
    group_counts = np.bincount(
        group[: kept.size] * n_labels + label,
        weights=entry_weight,
        minlength=n_groups * n_labels,
    ).reshape(n_groups, n_labels)
    group_counts[group[kept.size :]] += absent[with_absent]
    # Each candidate's groups sum to the node's counts, and candidate c has c before it.
    left_counts = group_counts.cumsum(axis=0)[boundaries] - position[boundaries, None] * counts
    n_left = left_counts.sum(axis=1)
    n_right = n_node - n_left
    quality = (left_counts**2).sum(axis=1) / n_left + (
        (counts - left_counts) ** 2
    ).sum(axis=1) / n_right
    pick = boundaries[int(np.argmax(quality))]
    lo, hi = float(value[pick]), float(value[pick + 1])
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up to the right value
        threshold = lo
    feature = int(candidates[position[pick]])
    dense = np.zeros(columns.n_cols, dtype=np.float64)
    column_rows, column_values = columns.row(feature)
    dense[column_rows] = column_values
    return feature, threshold, dense[rows] <= threshold
