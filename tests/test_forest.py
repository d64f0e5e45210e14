from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lahja import BlockSpec, CsrMatrix, RandomForest, forest as forest_module, make_synthetic
from lahja.forest import _best_splits, _Columns
from lahja.persistence import dumps_canonical
from lahja.vectorizer import TfidfUnion

from helpers import csr, reference_best_split, reference_build_tree, reference_draws


def random_instance(rng: np.random.RandomState, n_samples: int, n_features: int, n_labels: int):
    """Random sparse instance with small-integer values (exact float sums)."""
    rows = []
    for _ in range(n_samples):
        dense = rng.randint(0, 4, size=n_features).astype(float)
        dense[rng.rand(n_features) < 0.5] = 0.0
        rows.append(dense)
    y = list(rng.randint(0, n_labels, size=n_samples))
    y[: n_labels] = list(range(n_labels))  # every label present
    return csr(rows), y


def read(forest: RandomForest) -> dict:
    """The forest's entry as a bundle holds it: leaf distributions become JSON lists."""
    return json.loads(dumps_canonical(forest.payload()))


def naive_tree_walk(nodes: list[dict], dense_x) -> int:
    node = nodes[0]
    while "d" not in node:
        node = nodes[node["l"]] if dense_x[node["f"]] <= node["t"] else nodes[node["r"]]
    dist = node["d"]
    best = max(dist)
    for label, p in enumerate(dist):
        if p == best:
            return label
    raise AssertionError


def naive_forest_predict(forest: RandomForest, dense_x) -> int:
    counts = [0] * forest.n_labels_
    for nodes in forest.payload()["trees"]:
        counts[naive_tree_walk(nodes, dense_x)] += 1
    best = max(counts)
    for label, c in enumerate(counts):
        if c == best:
            return label
    raise AssertionError


class TestRandomForest:
    def test_single_label_gives_single_leaf_trees(self):
        X = csr([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0]])
        forest = RandomForest(n_trees=7, seed=1).fit(X, [1, 1, 1], n_labels=2)
        assert all(len(nodes) == 1 for nodes in forest.payload()["trees"])
        assert forest.predict(csr([[5.0, 5.0]]))[0] == 1

    def test_xor_parity_fits_training_set(self):
        X = csr([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = [0, 1, 1, 0]
        forest = RandomForest(n_trees=100, seed=0).fit(X, y)
        assert forest.predict(X).tolist() == y

    def test_same_seed_identical_structure(self):
        rng = np.random.RandomState(2)
        X, y = random_instance(rng, 30, 6, 3)
        a = RandomForest(n_trees=12, seed=5).fit(X, y)
        b = RandomForest(n_trees=12, seed=5).fit(X, y)
        assert read(a)["trees"] == read(b)["trees"]

    def test_different_seed_differs(self):
        rng = np.random.RandomState(2)
        X, y = random_instance(rng, 30, 6, 3)
        a = RandomForest(n_trees=12, seed=5).fit(X, y)
        b = RandomForest(n_trees=12, seed=6).fit(X, y)
        assert read(a)["trees"] != read(b)["trees"]

    def test_leaf_distributions_sum_to_one(self):
        rng = np.random.RandomState(3)
        X, y = random_instance(rng, 40, 8, 4)
        forest = RandomForest(n_trees=10, seed=0).fit(X, y)
        for feature, dist in zip(forest.feature_, forest.dist_):
            if feature == -1:
                assert dist.sum() == pytest.approx(1.0)
                assert (dist >= 0).all()

    def test_agrees_with_naive_reimplementation(self):
        rng = np.random.RandomState(4)
        for _ in range(8):
            n_features = rng.randint(2, 11)
            X, y = random_instance(rng, rng.randint(5, 51), n_features, rng.randint(2, 5))
            forest = RandomForest(n_trees=9, seed=int(rng.randint(100))).fit(X, y)
            queries = rng.randint(0, 4, size=(10, n_features)).astype(float)
            expected = [naive_forest_predict(forest, dense) for dense in queries]
            assert forest.predict(csr(queries)).tolist() == expected

    def test_majority_tie_goes_to_lowest_label(self):
        # Two trees voting different labels: bincount argmax takes the lower.
        X = csr([[0.0, 1.0], [1.0, 0.0]])
        forest = RandomForest(n_trees=2, seed=3).fit(X, [0, 1], n_labels=2)
        (votes,) = forest.tree_votes(csr([[0.5, 0.5]]))
        if votes[0] != votes[1]:
            assert forest.predict(csr([[0.5, 0.5]]))[0] == min(votes)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            RandomForest().fit(csr([[1.0]]), [0])

    def test_non_finite_rejected(self):
        # Feature rows cannot carry non-finite values, so no forest sees one.
        with pytest.raises(ValueError, match="non-finite"):
            RandomForest().fit(CsrMatrix([0, 1, 2], [0, 0], [float("nan"), 1.0], 1), [0, 1])

    def test_absent_features_read_as_zero(self):
        # Split on feature 1; a query lacking it must route as value 0.
        X = csr([[0.0, 0.0], [0.0, 4.0]])
        forest = RandomForest(n_trees=1, seed=0).fit(X, [0, 1])
        assert forest.predict(csr([[0.0, 0.0]]))[0] == 0

    def test_batch_predict_matches_one_row_at_a_time(self):
        rng = np.random.RandomState(5)
        X, y = random_instance(rng, 40, 8, 3)
        forest = RandomForest(n_trees=15, seed=2).fit(X, y)
        queries, _ = random_instance(rng, 25, 8, 3)
        one_by_one = [forest.predict(queries.take([r]))[0] for r in range(len(queries))]
        assert forest.predict(queries).tolist() == one_by_one

    def test_dimension_mismatch_rejected(self):
        forest = RandomForest(n_trees=2, seed=0).fit(csr([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
        with pytest.raises(ValueError, match="dimension"):
            forest.predict(csr([[1.0, 0.0, 0.0]]))

    def test_votes_do_not_depend_on_the_chunk_budget(self, monkeypatch):
        rng = np.random.RandomState(6)
        X, y = random_instance(rng, 40, 8, 3)
        forest = RandomForest(n_trees=15, seed=4).fit(X, y)
        queries, _ = random_instance(rng, 25, 8, 3)
        width = forest.split_features_.size
        assert width > 1
        one_chunk = forest.tree_votes(queries)
        # Below one doc's split features each doc is a chunk; then three docs a chunk.
        for budget in (width - 1, 3 * width):
            monkeypatch.setattr(forest_module, "_BUDGET", budget)
            assert forest.tree_votes(queries).tobytes() == one_chunk.tobytes()

    def test_trees_do_not_depend_on_the_step_budget(self, monkeypatch):
        rng = np.random.RandomState(7)
        X, y = random_instance(rng, 60, 12, 3)
        default = json.dumps(read(RandomForest(n_trees=20, seed=3).fit(X, y)))
        # One node per chunk of a step's split search, then a few.
        for budget in (1, 400):
            monkeypatch.setattr(forest_module, "_STEP_BUDGET", budget)
            assert json.dumps(read(RandomForest(n_trees=20, seed=3).fit(X, y))) == default

    def test_trees_do_not_depend_on_the_draw_batch(self, monkeypatch):
        rng = np.random.RandomState(8)
        X, y = random_instance(rng, 60, 12, 3)
        default = json.dumps(read(RandomForest(n_trees=20, seed=5).fit(X, y)))
        # Each tree draws its stream again at 2, 4, 8, ... blocks.
        monkeypatch.setattr(forest_module, "_FIRST_BLOCKS", 1)
        assert json.dumps(read(RandomForest(n_trees=20, seed=5).fit(X, y))) == default


# Negative values, ties, and the two doubles after 1.0, whose midpoint rounds
# up to the right value; zeros are absent entries.
_AFTER_ONE = float(np.nextafter(1.0, 2.0))
SPLIT_VALUES = [0.0, 0.0, 0.0, -2.0, -0.5, 0.5, 1.0, _AFTER_ONE, float(np.nextafter(_AFTER_ONE, 2.0)), 3.0]


def best_split(X, y, rows, weights, counts, candidates):
    """``forest._best_splits`` searching one node: (feature, threshold,
    left mask over ``rows``), or None."""
    columns = _Columns.of(X)
    lengths = np.diff(columns.indptr)[candidates]
    feature, threshold, go_right = _best_splits(
        columns, rows, y[rows], weights, np.array([rows.size]), counts[None], candidates[None], lengths[None]
    )
    if feature[0] == -1:
        return None
    return int(feature[0]), float(threshold[0]), ~go_right


@st.composite
def split_problems(draw):
    """(samples' feature rows, y, node samples with repeats, candidates, n_labels)."""
    n_rows = draw(st.integers(2, 10))
    n_labels = draw(st.integers(2, 5))
    n_free = draw(st.integers(1, 5))
    row = st.lists(st.sampled_from(SPLIT_VALUES), min_size=n_free, max_size=n_free)
    dense = np.array(draw(st.lists(row, min_size=n_rows, max_size=n_rows)))
    # One column never stored and one constant column, beside the drawn ones.
    dense = np.column_stack((dense, np.zeros(n_rows), np.full(n_rows, 0.5)))
    y = np.array(draw(st.lists(st.integers(0, n_labels - 1), min_size=n_rows, max_size=n_rows)))
    samples = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=16)))
    n_cols = dense.shape[1]
    candidates = np.array(draw(st.permutations(range(n_cols)))[: draw(st.integers(1, n_cols))])
    return csr(dense), y, samples, candidates, n_labels


class TestSplitSearch:
    """The batched split search, on one node, against the per-candidate loop
    it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(split_problems())
    def test_same_split_as_reference(self, problem):
        X, y, samples, candidates, n_labels = problem
        rows, weights = np.unique(samples, return_counts=True)
        counts = np.bincount(y[rows], weights=weights, minlength=n_labels)
        inputs = (rows.copy(), weights.copy(), counts.copy(), candidates.copy())
        got = best_split(X, y, rows, weights, counts, candidates)
        assert all(np.array_equal(a, b) for a, b in zip(inputs, (rows, weights, counts, candidates)))
        want = reference_best_split(X.transpose(), y, samples, candidates, n_labels, len(X))
        if want is None:
            assert got is None
            return
        feature, threshold, go_left = got
        assert feature == want[0]
        assert np.float64(threshold).tobytes() == np.float64(want[1]).tobytes()
        assert go_left[np.searchsorted(rows, samples)].tolist() == want[2].tolist()

    def test_midpoint_rounded_up_falls_back_to_left_value(self):
        later = float(np.nextafter(_AFTER_ONE, 2.0))
        rows, weights = np.array([0, 1]), np.array([2, 1])
        feature, threshold, go_left = best_split(
            csr([[_AFTER_ONE], [later]]), np.array([0, 1]), rows, weights, np.array([2.0, 1.0]), np.array([0])
        )
        assert (_AFTER_ONE + later) / 2.0 == later
        assert (feature, threshold, go_left.tolist()) == (0, _AFTER_ONE, [True, False])

    @pytest.mark.parametrize(
        "corpus",
        [(3, 15, 8, 0.0, 13), (4, 12, 10, 0.15, 5), (5, 10, 12, 0.15, 42)],
        ids=["single-label", "15% multi-label", "15% multi-label, 5 labels"],
    )
    def test_trees_equal_reference_trees(self, corpus):
        *shape, seed = corpus
        dataset = make_synthetic(*shape, seed=seed)
        union = TfidfUnion(word=BlockSpec((1, 1)), char=BlockSpec((1, 3), max_features=300))
        vectors = union.fit_transform(dataset.texts())
        samples = [(doc.id, label) for doc in dataset.documents for label in sorted(doc.labels)]
        X = vectors.take([doc_id for doc_id, _ in samples])
        y = np.array([label for _, label in samples])
        n_candidates = math.ceil(math.sqrt(X.n_cols))
        for forest_seed in (0, 7, 1009):
            forest = RandomForest(n_trees=4, seed=forest_seed)
            forest.fit(X, y, n_labels=len(dataset.label_space))
            tree_seeds = np.random.RandomState(forest_seed).randint(0, 2**31 - 1, size=4)
            reference = [
                reference_build_tree(X.transpose(), y, n_candidates, len(dataset.label_space), int(s))
                for s in tree_seeds
            ]
            assert json.dumps(read(forest)["trees"]) == json.dumps(reference)


@st.composite
def forest_problems(draw, docs=(2, 8), cols=(1, 6)):
    """(X, y, n_labels) of a few docs of 1-2 labels, each doc's row repeated
    once per label, over values with signs, ties and rounding midpoints."""
    n_docs = draw(st.integers(*docs))
    n_labels = draw(st.integers(2, 4))
    n_cols = draw(st.integers(*cols))
    row = st.lists(st.sampled_from(SPLIT_VALUES), min_size=n_cols, max_size=n_cols)
    dense = draw(st.lists(row, min_size=n_docs, max_size=n_docs))
    doc_labels = draw(
        st.lists(st.sets(st.integers(0, n_labels - 1), min_size=1, max_size=2), min_size=n_docs, max_size=n_docs)
    )
    samples = [(doc, label) for doc, labels in enumerate(doc_labels) for label in sorted(labels)]
    X = csr([dense[doc] for doc, _ in samples], n_cols)
    return X, np.array([label for _, label in samples]), n_labels


class TestTreeGrowth:
    """Tree growth against the per-candidate, per-sample reference."""

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        earlier=st.lists(st.tuples(st.integers(1, 2**31 - 5), st.integers(1, 300)), max_size=2),
        data=st.data(),
    )
    def test_one_call_draw_equals_scalar_draws(self, seed, earlier, data):
        size = data.draw(st.integers(1, 2**31 - 5))
        k = data.draw(st.integers(1, min(size, 400)))
        one_call, scalar = np.random.RandomState(seed), np.random.RandomState(seed)
        for high, n in earlier:
            one_call.randint(0, high, size=n)
            scalar.randint(0, high, size=n)
        assert one_call.randint(np.arange(k), size).tolist() == reference_draws(scalar, k, size)
        assert one_call.randint(0, 2**31 - 1) == scalar.randint(0, 2**31 - 1)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.integers(1, 60),
        blocks=st.integers(1, 8),
        size=st.integers(1, 5000),
    )
    def test_one_call_of_many_blocks_equals_one_call_per_block(self, seed, k, blocks, size):
        size = max(size, k)
        one_call, per_block = np.random.RandomState(seed), np.random.RandomState(seed)
        drawn = one_call.randint(np.tile(np.arange(k), blocks), size)
        assert drawn.tolist() == [j for _ in range(blocks) for j in per_block.randint(np.arange(k), size).tolist()]
        assert one_call.randint(0, 2**31 - 1) == per_block.randint(0, 2**31 - 1)

    @settings(max_examples=200, deadline=None)
    @given(forest_problems(), st.integers(0, 2**32 - 1))
    def test_trees_equal_reference_trees(self, problem, seed):
        X, y, n_labels = problem
        forest = RandomForest(n_trees=3, seed=seed).fit(X, y, n_labels=n_labels)
        n_candidates = math.ceil(math.sqrt(X.n_cols))
        tree_seeds = np.random.RandomState(seed).randint(0, 2**31 - 1, size=3)
        reference = [reference_build_tree(X.transpose(), y, n_candidates, n_labels, int(s)) for s in tree_seeds]
        assert json.dumps(read(forest)["trees"]) == json.dumps(reference)

    @settings(max_examples=20, deadline=None)
    @given(forest_problems(docs=(8, 20), cols=(6, 16)), st.integers(16, 64), st.integers(0, 2**32 - 1))
    def test_trees_of_unequal_sizes_equal_reference_trees(self, problem, n_trees, seed):
        # The trees grow in lockstep, so the smaller ones finish steps before the larger.
        X, y, n_labels = problem
        trees = read(RandomForest(n_trees=n_trees, seed=seed).fit(X, y, n_labels=n_labels))["trees"]
        assume(len({len(nodes) for nodes in trees}) > 1)
        n_candidates = math.ceil(math.sqrt(X.n_cols))
        tree_seeds = np.random.RandomState(seed).randint(0, 2**31 - 1, size=n_trees)
        for nodes, tree_seed in zip(trees, tree_seeds):
            reference = reference_build_tree(X.transpose(), y, n_candidates, n_labels, int(tree_seed))
            assert json.dumps(nodes) == json.dumps(reference)
