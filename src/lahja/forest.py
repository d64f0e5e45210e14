"""Random forest over sparse feature rows: Gini decision trees on bootstrap resamples.

Each tree trains on a bootstrap resample of size N (with replacement). At
every node ceil(sqrt(F)) candidate features are sampled without replacement,
all in one draw; the best split minimizes the weighted child Gini impurity
over midpoints of consecutive distinct observed values. A node becomes a leaf
when it is pure or no candidate feature varies on its samples; absent sparse
entries read as 0.0 everywhere.

The trees grow in lockstep. Tree t draws from the stream of its own
``RandomState(tree_seed)``, the tree seeds drawn first from
``RandomState(seed)``: its bootstrap resample, then each node's candidates
in depth-first order, from an urn of its own. Each step takes the next node
of every tree that has one and searches all their splits in one batched
pass, in chunks of at most ``_STEP_BUDGET`` cells; the trees are
independent, so the interleaving cannot change a tree's bits. A fit sorts
each feature column by value once, so no node sorts: a node reads its
candidates' stored entries in (candidate, value) order, with each
candidate's absent 0.0 after its negative values. Prediction reads a chunk
of docs' values of the split features into one dense block and walks every
tree level from it; :func:`lahja.ensemble.vote_totals` counts the trees' votes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .base import BaseEstimator, JsonObject, check_int, check_is_fitted, check_labels, check_list, check_reals, read_object
from .ensemble import vote_totals
from .sparse import CsrMatrix, spans

_LEAF = -1

# Bound on the values of one chunk's dense block of split-feature values in
# ``tree_votes``.
_BUDGET = 1 << 18

# Bound on the cells of one chunk of a growth step's split search: per node,
# one per scanned column entry, per (candidate, label) and per sample.
_STEP_BUDGET = 1 << 14

# Blocks of candidate draws a tree's first batch holds; later batches double.
_FIRST_BLOCKS = 8


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
        seeds = np.random.RandomState(self.seed).randint(0, 2**31 - 1, size=self.n_trees).tolist()
        self._set_nodes(*_grow_trees(columns, labels, n_candidates, n_labels, seeds), X.n_cols)
        return self

    @classmethod
    def from_fitted(cls, params: dict, payload: dict, n_labels: int, n_features: int) -> "RandomForest":
        """The forest of a :meth:`payload` entry, which must be fitted for
        ``n_labels`` labels and ``n_features`` feature columns."""
        count, width, trees = read_object("forest model", payload, ("n_labels", "n_features", "trees"))
        if check_int("forest n_labels", count) != n_labels:
            raise ValueError(f"forest model has n_labels {count} for {n_labels} labels")
        if check_int("forest n_features", width) != n_features:
            raise ValueError(f"forest n_features {width} does not match union dimension {n_features}")
        forest = cls(**params)
        trees = check_list("forest trees", trees, list)
        if len(trees) != forest.n_trees:
            raise ValueError(f"forest holds {len(trees)} trees for n_trees {forest.n_trees}")
        forest._set_trees(trees, n_labels, n_features)
        return forest

    def _set_trees(self, trees: Sequence[list], n_labels: int, n_features: int) -> None:
        """Fill the node arrays from per-tree node lists in bundle form.

        Rejects a node that is not an object of exactly a leaf's or a split's
        fields, and what would make prediction index out of range or loop: a
        split feature or child id that is not an int, a split feature outside
        [0, n_features), a child not after its parent or past the tree's end,
        a leaf distribution not of length n_labels; and a threshold or leaf
        distribution value that is not a finite JSON number.
        """
        if n_labels < 1 or n_features < 1:
            raise ValueError("a forest needs at least one label and one feature")
        rows: list[tuple] = []  # (feature, threshold, left, right) per node
        dist: list = []  # every node's class distribution, end to end
        no_dist = [0.0] * n_labels
        starts = [0]
        for t, nodes in enumerate(trees):
            if not nodes:
                raise ValueError(f"tree {t} has no nodes")
            for i, node in enumerate(nodes):
                fields = node.keys() if type(node) is dict else None
                if fields == {"d"}:  # a leaf's class distribution
                    if type(node["d"]) is not list or len(node["d"]) != n_labels:
                        raise ValueError(f"tree {t} node {i}: leaf distribution is not a list of length {n_labels}")
                    rows.append((_LEAF, 0.0, _LEAF, _LEAF))
                    dist.extend(node["d"])
                    continue
                if fields != {"f", "t", "l", "r"}:  # a split's feature, threshold and children
                    got = type(node).__name__ if fields is None else sorted(fields)
                    raise ValueError(f"tree {t} node {i}: a leaf holds only 'd', a split 'f', 't', 'l', 'r'; got {got}")
                f, lo, hi = node["f"], node["l"], node["r"]
                if type(f) is not int or type(lo) is not int or type(hi) is not int:
                    raise ValueError(f"tree {t} node {i}: split feature and child ids must be integers")
                if not 0 <= f < n_features:
                    raise ValueError(f"tree {t} node {i}: split feature {f} outside [0, {n_features})")
                if not (i < lo < len(nodes) and i < hi < len(nodes)):
                    raise ValueError(f"tree {t} node {i}: children must lie after it within the tree")
                rows.append((f, node["t"], starts[-1] + lo, starts[-1] + hi))
                dist.extend(no_dist)
            starts.append(starts[-1] + len(nodes))
        feature, threshold, left, right = zip(*rows)
        self._set_nodes(
            np.array(starts, dtype=np.int64),
            np.array(feature, dtype=np.int64),
            check_reals("forest thresholds", list(threshold)),
            np.array(left, dtype=np.int64),
            np.array(right, dtype=np.int64),
            check_reals("forest leaf distributions", dist).reshape(len(rows), n_labels),
            n_features,
        )

    def _set_nodes(self, tree_starts, feature, threshold, left, right, dist, n_features: int) -> None:
        """Set the fitted node arrays and the split-feature slots prediction reads."""
        self.tree_starts_, self.feature_, self.threshold_ = tree_starts, feature, threshold
        self.left_, self.right_, self.dist_ = left, right, dist
        # The distinct split features, ascending, and each node's place among them (0 at a leaf).
        is_split = feature != _LEAF
        self.split_features_, places = np.unique(feature[is_split], return_inverse=True)
        self.split_slot_ = np.zeros(feature.size, dtype=np.int64)
        self.split_slot_[is_split] = places
        self.n_labels_ = dist.shape[1]
        self.n_features_ = n_features

    def payload(self) -> dict:
        """The forest's bundle entry; ``trees`` holds, per tree, its nodes in
        bundle form with tree-relative child ids. A leaf's distribution is a
        view of its ``dist_`` row, which the bundle writer reads as it is."""
        check_is_fitted(self, "feature_")
        feature, threshold = self.feature_.tolist(), self.threshold_.tolist()
        left, right, dist = self.left_.tolist(), self.right_.tolist(), self.dist_
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
        """Per doc, the plurality of its trees' votes (:mod:`lahja.ensemble`)."""
        return np.argmax(vote_totals(self.tree_votes(X), np.ones(self.tree_starts_.size - 1), self.n_labels_), axis=1)


class _Columns(NamedTuple):
    """The samples' feature columns, each column's entries in value order,
    with a zero mark among them.

    Column c stores samples ``rows[indptr[c]:indptr[c + 1]]`` with the
    values at the same positions, ascending, equal values by sample. Its
    mark, row ``n_samples`` with value 0.0, sits after its negative values,
    where the samples it does not store would sort.
    """

    indptr: np.ndarray
    rows: np.ndarray
    values: np.ndarray
    n_samples: int

    @classmethod
    def of(cls, X: CsrMatrix) -> "_Columns":
        # Stored entries by value, equal values by sample, then stably by column.
        order = np.argsort(X.values, kind="stable")
        order = order[np.argsort(X.indices[order].astype(np.min_scalar_type(X.n_cols)), kind="stable")]
        lengths = np.bincount(X.indices, minlength=X.n_cols)
        marks = np.cumsum(lengths) - lengths + np.bincount(X.indices[X.values < 0.0], minlength=X.n_cols)
        rows = np.insert(X.row_ids()[order], marks, len(X))
        values = np.insert(X.values[order], marks, 0.0)
        return cls(np.concatenate(([0], np.cumsum(lengths + 1))), rows, values, len(X))


def _grow_trees(
    columns: _Columns,
    y: np.ndarray,
    n_candidates: int,
    n_labels: int,
    seeds: Sequence[int],
) -> tuple[np.ndarray, ...]:
    """(tree starts, feature, threshold, left, right, dist): the node arrays
    of :class:`RandomForest`, tree t grown from the stream of
    ``RandomState(seeds[t])``.

    The trees grow together: each step takes the next node, depth first, of
    every tree that has one, and searches all their splits at once. A tree
    draws its bootstrap resample first, then its candidates at each node
    that is not pure. A node holds the distinct training rows that reach it
    with their multiplicities in the tree's resample: a run of
    ``rows``/``weights``, which a split reorders into its two children's
    runs, left first, each keeping its order. Its candidates come from a
    partial Fisher-Yates shuffle of its tree's row of ``urn``, any
    permutation of which is a valid urn.
    """
    n_trees = len(seeds)
    n_samples, n_features = columns.n_samples, columns.indptr.size - 1
    streams = _Streams(seeds, n_samples, n_candidates, n_features)
    rows, weights, sizes = _resamples(streams, n_trees, n_samples)
    # Each tree's pending nodes, (slot, lo, hi) each, the next one on top.
    stack = np.zeros((n_trees, 8, 3), dtype=np.int64)
    stack[:, 0, 2] = np.cumsum(sizes)
    stack[:, 0, 1] = stack[:, 0, 2] - sizes
    depth = np.ones(n_trees, dtype=np.int64)
    n_nodes = np.ones(n_trees, dtype=np.int64)
    steps = []  # per step: trees, slots, feature, threshold, left child slot, dist
    urn = np.tile(np.arange(n_features, dtype=np.min_scalar_type(n_features - 1)), (n_trees, 1))
    column_lengths = np.diff(columns.indptr)
    while depth.any():
        live = np.flatnonzero(depth)
        depth[live] -= 1
        slot, lo, hi = stack[live, depth[live]].T
        size = hi - lo
        node_end = np.cumsum(size)
        node_start = node_end - size
        node = np.repeat(np.arange(live.size), size)
        at = lo[node] + np.arange(node_end[-1]) - node_start[node]
        node_rows, node_weights = rows[at], weights[at]
        node_labels = y[node_rows]
        counts = np.bincount(
            node * n_labels + node_labels, weights=node_weights, minlength=live.size * n_labels
        ).reshape(live.size, n_labels)

        feature = np.full(live.size, _LEAF)
        threshold = np.zeros(live.size)
        go_right = np.zeros(node.size, dtype=bool)
        is_impure = np.count_nonzero(counts, axis=1) > 1
        impure = np.flatnonzero(is_impure)
        if impure.size:
            candidates = _shuffle(urn, live[impure], streams.next_blocks(live[impure].tolist()))
            lengths = column_lengths[candidates]
            costs = lengths.sum(axis=1) + n_labels * n_candidates + n_samples
            searched = np.flatnonzero(np.repeat(is_impure, size))
            bounds = np.cumsum(size[impure]) - size[impure]
            for first, last in spans(costs, _STEP_BUDGET):
                chunk = impure[first:last]
                entries = searched[bounds[first] : bounds[first] + size[chunk].sum()]
                found, cut, right = _best_splits(
                    columns,
                    node_rows[entries],
                    node_labels[entries],
                    node_weights[entries],
                    size[chunk],
                    counts[chunk],
                    candidates[first:last],
                    lengths[first:last],
                )
                feature[chunk], threshold[chunk], go_right[entries] = found, cut, right

        # Stable partition of each split node's run: left entries, then right ones.
        right_before = np.cumsum(go_right) - go_right
        right_before -= right_before[node_start][node]
        n_left = size - np.add.reduceat(go_right, node_start)
        offset = np.arange(node.size) - node_start[node]
        place = lo[node] + np.where(go_right, n_left[node] + right_before, offset - right_before)
        rows[place], weights[place] = node_rows, node_weights

        # A split node's children take its tree's next two slots; the left one goes on top.
        split = np.flatnonzero(feature != _LEAF)
        trees = live[split]
        left = np.full(live.size, _LEAF)
        left[split] = n_nodes[trees]
        n_nodes[trees] += 2
        if depth[trees].max(initial=0) + 2 > stack.shape[1]:
            stack = np.concatenate((stack, np.zeros_like(stack)), axis=1)
        middle = lo[split] + n_left[split]
        stack[trees, depth[trees]] = np.column_stack((left[split] + 1, middle, hi[split]))
        stack[trees, depth[trees] + 1] = np.column_stack((left[split], lo[split], middle))
        depth[trees] += 2
        dist = counts / counts.sum(axis=1)[:, None]
        dist[split] = 0.0
        steps.append((live, slot, feature, threshold, left, dist))

    tree_starts = np.concatenate(([0], np.cumsum(n_nodes)))
    trees, slot, feature, threshold, left, dist = (np.concatenate(parts) for parts in zip(*steps))
    left = np.where(left == _LEAF, _LEAF, tree_starts[trees] + left)
    right = np.where(left == _LEAF, _LEAF, left + 1)
    order = np.argsort(tree_starts[trees] + slot)
    return tree_starts, feature[order], threshold[order], left[order], right[order], dist[order]


def _resamples(streams: "_Streams", n_trees: int, n_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, weights, sizes): each tree's distinct bootstrap rows,
    ascending, and their multiplicities, trees end to end; tree t has
    ``sizes[t]`` of them."""
    distinct, multiplicity = [], []
    for t in range(n_trees):
        resample = np.bincount(streams.bootstrap(t), minlength=n_samples)
        distinct.append(np.flatnonzero(resample))
        multiplicity.append(resample[distinct[-1]])
    return np.concatenate(distinct), np.concatenate(multiplicity), np.array([d.size for d in distinct])


class _Streams:
    """The draws of each tree's ``RandomState(seed)``: its bootstrap resample,
    then one block of k candidate swap positions per node that draws.

    One generator serves every tree, since building one takes about 0.2 ms.
    A tree's blocks come in batches, each re-seeding the generator and
    drawing the tree's stream again from its start, twice as far as before.
    One ``randint`` call draws a batch, the values and stream state of one
    call ``rng.randint(np.arange(k), n_features)`` per block.
    """

    def __init__(self, seeds: Sequence[int], n_samples: int, n_candidates: int, n_features: int):
        self.seeds, self.n_samples, self.n_features = seeds, n_samples, n_features
        self.lows = np.arange(n_candidates)
        self.rng = np.random.RandomState(0)
        self.drawn = [0] * len(seeds)  # per tree, the blocks its stream has given
        self.blocks: list = [None] * len(seeds)  # per tree, those not yet taken

    def bootstrap(self, t: int) -> np.ndarray:
        """Tree t's bootstrap draw of sample ids, with its first batch of blocks."""
        return self._draw(t, _FIRST_BLOCKS)

    def _draw(self, t: int, n_blocks: int) -> np.ndarray:
        """Tree t's bootstrap, drawing its stream again up to ``n_blocks`` blocks."""
        self.rng.seed(self.seeds[t])
        bootstrap = self.rng.randint(0, self.n_samples, size=self.n_samples)
        blocks = self.rng.randint(np.tile(self.lows, n_blocks), self.n_features).reshape(n_blocks, -1)
        self.blocks[t] = blocks[self.drawn[t] :].astype(np.min_scalar_type(self.n_features - 1))
        self.drawn[t] = n_blocks
        return bootstrap

    def next_blocks(self, trees: list[int]) -> np.ndarray:
        """The next block of each of ``trees``, one row each."""
        taken = []
        for t in trees:
            if not len(self.blocks[t]):
                self._draw(t, 2 * self.drawn[t])
            taken.append(self.blocks[t][0])
            self.blocks[t] = self.blocks[t][1:]
        return np.array(taken)


def _shuffle(urn: np.ndarray, trees: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The next candidates of ``trees``: swap position i of tree ``trees[r]``'s
    row of ``urn`` with position ``draws[r, i]``, for i = 0, 1, ... in turn,
    then read each row's first ``draws.shape[1]`` positions."""
    flat = urn.reshape(-1)
    base = trees[:, None] * urn.shape[1]
    for i, j in zip((base + np.arange(draws.shape[1])).T, (base + draws).T):
        flat[i], flat[j] = flat[j], flat[i]
    return urn[trees, : draws.shape[1]].astype(np.int64)


def _best_splits(
    columns: _Columns,
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    counts: np.ndarray,
    candidates: np.ndarray,
    lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each node's best (feature, threshold) over its candidates, and the
    entries that go right.

    Node i holds the next ``sizes[i]`` entries of ``rows``/``labels``/
    ``weights``: its distinct training rows, their labels and their
    multiplicities; ``counts[i]`` are its class counts, ``candidates[i]``
    its candidate features and ``lengths[i]`` their columns' lengths. A node
    with no split gets feature ``_LEAF`` and sends no entry right. Quality
    maximizes sum(left_counts^2)/n_left + sum(right_counts^2)/n_right,
    equivalent to minimizing the weighted child Gini impurity. Ties keep the
    earlier candidate; within a feature the smallest qualifying threshold.
    An entry goes right where its row's value of the node's feature exceeds
    the threshold.

    All nodes' candidates are scored in one pass over their columns'
    entries at the nodes' rows, in (node, candidate, value) order: a
    segment per (node, candidate). A column's mark stands for the node's
    rows the column does not store, which read 0.0 (stored values are
    nonzero). Running sums along each segment give every boundary between
    distinct values its sums of squared counts as exact integers, so each
    quality is the same function of the counts however they are summed.
    """
    n_nodes, n_candidates = candidates.shape
    n_labels, n_samples = counts.shape[1], columns.n_samples
    n_segments = candidates.size
    feature = np.full(n_nodes, _LEAF)
    threshold = np.zeros(n_nodes)
    # The entry of (node, sample), -1 where the node lacks the sample; the
    # mark reads as one more entry, of label 0 and weight 0.
    width = n_samples + 1
    node_base = np.arange(0, n_nodes * width, width)
    entry_of = np.full(n_nodes * width, -1)
    entry_of[np.repeat(node_base, sizes) + rows] = np.arange(rows.size)
    entry_of[node_base + n_samples] = rows.size
    labels, weights = np.append(labels, 0), np.append(weights, 0)
    # Each segment scans its candidate's column and keeps the node's rows and the mark.
    lengths = lengths.ravel()
    segment = np.repeat(np.arange(n_segments), lengths)
    src = np.repeat(columns.indptr[candidates.ravel()] - np.cumsum(lengths) + lengths, lengths)
    src += np.arange(segment.size)
    scanned = np.repeat(node_base, lengths.reshape(n_nodes, -1).sum(axis=1))
    entry = entry_of.take(scanned + columns.rows.take(src))
    kept = np.flatnonzero(entry >= 0)
    segment, entry, value = segment.take(kept), entry.take(kept), columns.values.take(src.take(kept))
    label, weight = labels.take(entry), weights.take(entry)
    cell = label * n_segments + segment  # into (labels x segments) tables
    mark = np.flatnonzero(entry == rows.size)  # one per segment
    negative = np.flatnonzero(value < 0.0)

    # Per label and segment: the node's count, the stored weight, and the
    # weight of the absent rows and of the negative values.
    counts = counts.astype(np.int64)
    node_counts = np.repeat(counts.T, n_candidates, axis=1)
    stored = np.bincount(cell, weights=weight, minlength=node_counts.size).astype(np.int64)
    below = np.bincount(cell.take(negative), weights=weight.take(negative), minlength=node_counts.size)
    below = below.astype(np.int64).reshape(node_counts.shape)
    absent = node_counts - stored.reshape(node_counts.shape)

    # Each entry's weight of its label before it in its segment, the absent
    # rows counting before the positive values: its label's running sum over
    # the entries sorted by label, less the weight of the cells before its
    # own in (label, segment) order.
    order = np.argsort(label.astype(np.min_scalar_type(n_labels)), kind="stable")
    sorted_weight = weight.take(order)
    running = np.empty(kept.size, dtype=np.int64)
    running[order] = np.cumsum(sorted_weight) - sorted_weight
    earlier = np.cumsum(stored) - stored
    at = cell.copy()
    at[negative] += node_counts.size
    before = running - np.concatenate((earlier - absent.ravel(), earlier)).take(at)

    # Running sums of each entry's change of sum(left^2), of n_left and of
    # sum(node_count * left), which gives sum(right^2) = sum(node_count^2)
    # - 2 sum(node_count * left) + sum(left^2). A mark adds its segment's
    # absent rows. A segment's changes add up to its node's totals; taking
    # those off at the start of the next segment restarts the sums there.
    squares, totals = (counts**2).sum(axis=1), counts.sum(axis=1)
    gaps = absent.sum(axis=0)
    sums = np.stack((weight * (weight + 2 * before), weight, weight * node_counts.ravel().take(cell)))
    sums[:, mark] = (absent * (absent + 2 * below)).sum(axis=0), gaps, (absent * node_counts).sum(axis=0)
    previous = np.arange(n_segments - 1) // n_candidates
    sums[:, np.searchsorted(segment, np.arange(1, n_segments))] -= np.stack((squares, totals, squares))[:, previous]
    np.cumsum(sums, axis=1, out=sums)
    # A mark of no weight takes the value before it in its segment, or else
    # the one after it, so that no boundary falls on it.
    empty = mark[gaps == 0]
    after = np.minimum(empty + 1, kept.size - 1)
    same = (empty > 0) & (segment.take(empty - 1) == segment.take(empty))
    value[empty] = np.where(same, value.take(empty - 1), value.take(after))

    boundaries = np.flatnonzero((segment[:-1] == segment[1:]) & (value[:-1] != value[1:]))
    if not boundaries.size:
        return feature, threshold, np.zeros(rows.size, dtype=bool)
    node = segment.take(boundaries) // n_candidates
    left_squares, n_left, crossed = sums.take(boundaries, axis=1)
    right_squares = squares.take(node) - 2 * crossed + left_squares
    quality = left_squares / n_left + right_squares / (totals.take(node) - n_left)

    # Each node's first boundary of the highest quality.
    bounds = np.searchsorted(node, np.arange(n_nodes + 1))
    split = np.flatnonzero(bounds[1:] > bounds[:-1])
    best = np.maximum.reduceat(quality, bounds[split])
    top = np.flatnonzero(quality == np.repeat(best, bounds[split + 1] - bounds[split]))
    pick = boundaries.take(top.take(np.searchsorted(top, bounds[split])))
    lo, hi = value.take(pick), value.take(pick + 1)
    cut = (lo + hi) / 2.0
    threshold[split] = np.where(cut >= hi, lo, cut)  # a midpoint rounded up to the right value falls back to lo
    won = segment.take(pick)
    feature[split] = candidates.ravel().take(won)

    # Absent rows read 0.0; the winning segments' stored entries give the others.
    go_right = np.repeat(threshold < 0.0, sizes)
    first, last = np.searchsorted(segment, won), np.searchsorted(segment, won, "right")
    ends = np.cumsum(last - first)
    span = np.arange(ends[-1]) + np.repeat(first - ends + last - first, last - first)
    span = span[entry.take(span) < rows.size]
    go_right[entry.take(span)] = value.take(span) > threshold.take(segment.take(span) // n_candidates)
    return feature, threshold, go_right
