"""Random forest over sparse feature rows: Gini decision trees on bootstrap resamples.

Each tree trains on a bootstrap resample of size N (with replacement). At
every node ceil(sqrt(F)) candidate features are sampled without replacement,
all in one draw; the best split minimizes the weighted child Gini impurity
over midpoints of consecutive distinct observed values. A node becomes a leaf
when it is pure or no candidate feature varies on its samples; absent sparse
entries read as 0.0 everywhere.

A fit sorts each feature column by value once, so no node sorts: a node
reads its candidates' stored entries in (candidate, value) order and places
each candidate's absent 0.0 after its negative values. Prediction reads a
chunk of docs' values of the split features into one dense block and walks
every tree level from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .base import BaseEstimator, JsonObject, check_fields, check_int, check_is_fitted, check_labels, check_reals
from .sparse import CsrMatrix, spans

_LEAF = -1

# Bound on the values of one chunk's dense block of split-feature values in
# ``tree_votes``.
_BUDGET = 1 << 18


@dataclass(frozen=True)
class ForestParams(JsonObject):
    """The hyperparameters of a :class:`RandomForest`, checked once here."""

    json_name = "forest"

    n_trees: int = 100

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


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
        ForestParams(self.n_trees)  # validates it
        labels, n_labels = check_labels(len(X), y, n_labels, min_rows=2)
        if X.n_cols < 1:
            raise ValueError("training requires at least one feature column")

        columns = _Columns.of(X)
        n_candidates = min(X.n_cols, math.ceil(math.sqrt(X.n_cols)))
        rng = np.random.RandomState(self.seed)
        trees = []
        for tree_seed in rng.randint(0, 2**31 - 1, size=self.n_trees).tolist():
            rng.seed(tree_seed)  # the stream of RandomState(tree_seed), without a new generator
            trees.append(_build_tree(columns, labels, n_candidates, n_labels, rng))
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
        # The distinct split features, ascending, and each node's place among them (0 at a leaf).
        is_split = self.feature_ != _LEAF
        self.split_features_, places = np.unique(self.feature_[is_split], return_inverse=True)
        self.split_slot_ = np.zeros(len(rows), dtype=np.int64)
        self.split_slot_[is_split] = places
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

        Docs go in chunks. A chunk's values of the forest's split features,
        absent ones 0.0, fill one dense (docs x split features) block of at
        most ``_BUDGET`` values, or one doc's row. Then all (doc, tree) pairs
        of the chunk descend together, one tree level per step.
        """
        check_is_fitted(self, "feature_")
        X.check_cols(self.n_features_)
        n_trees, width = self.tree_starts_.size - 1, self.split_features_.size
        slot = np.full(self.n_features_, -1, dtype=np.int64)
        slot[self.split_features_] = np.arange(width)
        leaf_label = np.argmax(self.dist_, axis=1)
        votes = np.empty((len(X), n_trees), dtype=np.int64)
        for lo, hi in spans(np.full(len(X), max(1, width)), _BUDGET):
            entries = slice(X.indptr[lo], X.indptr[hi])
            cell = slot[X.indices[entries]]
            known = np.flatnonzero(cell >= 0)
            cell += np.repeat(np.arange(hi - lo) * width, np.diff(X.indptr[lo : hi + 1]))
            block = np.zeros((hi - lo) * width, dtype=np.float64)
            block[cell[known]] = X.values[entries][known]
            node = np.tile(self.tree_starts_[:-1], hi - lo)
            row_start = np.repeat(np.arange(hi - lo) * width, n_trees)
            active = np.flatnonzero(self.feature_[node] != _LEAF)
            while active.size:
                at = node[active]
                go_left = block[row_start[active] + self.split_slot_[at]] <= self.threshold_[at]
                node[active] = np.where(go_left, self.left_[at], self.right_[at])
                active = active[self.feature_[node[active]] != _LEAF]
            votes[lo:hi] = leaf_label[node].reshape(hi - lo, n_trees)
        return votes

    def predict(self, X: CsrMatrix) -> np.ndarray:
        """Per doc, the label most trees vote for; ties go to the lowest label."""
        votes = self.tree_votes(X)
        keys = votes + self.n_labels_ * np.arange(len(X), dtype=np.int64)[:, None]
        counts = np.bincount(keys.ravel(), minlength=len(X) * self.n_labels_)
        return np.argmax(counts.reshape(len(X), self.n_labels_), axis=1)


class _Columns(NamedTuple):
    """The samples' feature columns, each column's entries in value order.

    Column c stores samples ``rows[indptr[c]:indptr[c + 1]]`` with the
    values at the same positions, ascending, equal values by sample.
    """

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    n_samples: int

    @classmethod
    def of(cls, X: CsrMatrix) -> "_Columns":
        columns = X.transpose()
        order = np.lexsort((columns.values, columns.row_ids()))
        return cls(columns.indptr, columns.indices[order], columns.values[order], len(X))


def _build_tree(
    columns: _Columns,
    y: np.ndarray,
    n_candidates: int,
    n_labels: int,
    rng: np.random.RandomState,
) -> list[dict]:
    """One tree's nodes in bundle form, grown from the stream of ``rng``.

    A node holds the distinct training rows that reach it, ascending, with
    their multiplicities in the tree's bootstrap resample. Its candidates come
    from a partial Fisher-Yates shuffle of a persistent urn, any permutation
    of which is a valid urn: one ``randint`` call draws all the swap
    positions, the values and stream state of k scalar calls
    ``rng.randint(i, n_features)``.
    """
    n_samples, n_features = columns.n_samples, columns.indptr.size - 1
    resample = np.bincount(rng.randint(0, n_samples, size=n_samples), minlength=n_samples)
    rows = np.flatnonzero(resample)
    weights = resample[rows]
    urn = list(range(n_features))
    lows = np.arange(n_candidates)
    multiplicity = np.zeros(n_samples, dtype=np.int64)
    nodes: list[dict] = [{}]
    stack: list[tuple[int, np.ndarray, np.ndarray]] = [(0, rows, weights)]
    while stack:
        slot, rows, weights = stack.pop()
        counts = np.bincount(y[rows], weights=weights, minlength=n_labels)
        if np.count_nonzero(counts) == 1:
            nodes[slot] = {"d": (counts / weights.sum()).tolist()}
            continue
        for i, j in enumerate(rng.randint(lows, n_features).tolist()):
            urn[i], urn[j] = urn[j], urn[i]
        candidates = np.array(urn[:n_candidates], dtype=np.int64)
        split = _best_split(columns, y, rows, weights, counts, candidates, multiplicity)
        if split is None:
            nodes[slot] = {"d": (counts / weights.sum()).tolist()}
            continue
        feature, threshold, go_left = split
        nodes[slot] = {"f": feature, "t": threshold, "l": len(nodes), "r": len(nodes) + 1}
        stack.append((len(nodes) + 1, rows[~go_left], weights[~go_left]))
        stack.append((len(nodes), rows[go_left], weights[go_left]))
        nodes += [{}, {}]
    return nodes


def _best_split(
    columns: _Columns,
    y: np.ndarray,
    rows: np.ndarray,
    weights: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    multiplicity: np.ndarray,
) -> tuple[int, float, np.ndarray] | None:
    """Best (feature, threshold, left mask over ``rows``) over the candidates, or None.

    ``rows`` are the node's distinct training rows, ``weights`` their
    multiplicities and ``counts`` their class counts. ``multiplicity`` is an
    all-zero buffer of one int per sample, zero again on return. Quality
    maximizes sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    equivalent to minimizing the weighted child Gini impurity. Ties keep the
    earlier candidate; within a feature the smallest qualifying threshold.

    All candidates are scored in one pass over their stored entries at the
    node, which the value-sorted columns give in (candidate, value) order.
    The node's samples a candidate does not store count as one group of
    value 0.0 (stored values are nonzero), placed after its negative values.
    Class counts are integer-valued floats, so sums of them are exact in any
    order and the qualities are exact functions of the counts.
    """
    n_candidates, n_labels = candidates.size, counts.size
    first = columns.indptr[candidates]
    lengths = columns.indptr[candidates + 1] - first
    ends = np.cumsum(lengths)
    src = np.repeat(first - ends + lengths, lengths) + np.arange(ends[-1])
    multiplicity[rows] = weights
    entry_weight = multiplicity[columns.rows[src]]
    multiplicity[rows] = 0
    kept = np.flatnonzero(entry_weight)
    if not kept.size:
        return None
    src, entry_weight = src[kept], entry_weight[kept]
    label, value = y[columns.rows[src]], columns.values[src]
    position = np.searchsorted(ends, kept, "right")
    stored = np.bincount(label * n_candidates + position, weights=entry_weight, minlength=n_labels * n_candidates)
    absent = counts[:, None] - stored.reshape(n_labels, n_candidates)
    has_absent = absent.any(axis=0)

    # Equal values of one candidate form one group, in (candidate, value) order.
    starts = np.empty(kept.size, dtype=bool)
    starts[0] = True
    starts[1:] = (position[1:] != position[:-1]) | (value[1:] != value[:-1])
    group = np.cumsum(starts) - 1
    position, value = position[starts], value[starts]
    # Each stored group moves past the absent groups of earlier candidates,
    # and past its own candidate's if it is positive.
    shift = np.cumsum(has_absent) - has_absent
    moved = np.arange(position.size) + shift[position] + (has_absent[position] & (value > 0.0))
    n_groups = position.size + np.count_nonzero(has_absent)
    is_absent = np.ones(n_groups, dtype=bool)
    is_absent[moved] = False
    absent_at, with_absent = np.flatnonzero(is_absent), np.flatnonzero(has_absent)
    group_position = np.empty(n_groups, dtype=np.int64)
    group_position[moved] = position
    group_position[absent_at] = with_absent
    group_value = np.zeros(n_groups)
    group_value[moved] = value
    boundaries = np.flatnonzero(group_position[:-1] == group_position[1:])
    if not boundaries.size:
        return None

    # (labels x groups): each label's cumulative count runs along one row.
    group_counts = np.bincount(
        label * n_groups + moved[group], weights=entry_weight, minlength=n_labels * n_groups
    ).reshape(n_labels, n_groups)
    group_counts[:, absent_at] = absent[:, with_absent]
    # Each candidate's groups sum to the node's counts, and candidate c has c before it.
    left_counts = group_counts.cumsum(axis=1)[:, boundaries] - group_position[boundaries] * counts[:, None]
    n_left = left_counts.sum(axis=0)
    n_right = weights.sum() - n_left
    quality = (left_counts**2).sum(axis=0) / n_left + ((counts[:, None] - left_counts) ** 2).sum(axis=0) / n_right
    pick = boundaries[int(np.argmax(quality))]
    lo, hi = float(group_value[pick]), float(group_value[pick + 1])
    threshold = (lo + hi) / 2.0
    if threshold >= hi:  # midpoint rounded up to the right value
        threshold = lo
    feature = int(candidates[group_position[pick]])
    dense = np.zeros(columns.n_samples, dtype=np.float64)
    at = slice(columns.indptr[feature], columns.indptr[feature + 1])
    dense[columns.rows[at]] = columns.values[at]
    return feature, threshold, dense[rows] <= threshold
