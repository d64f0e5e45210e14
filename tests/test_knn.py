from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahja.knn
import lahja.sparse
from lahja import CsrMatrix, KnnClassifier, TfidfUnion, make_synthetic, preset

from helpers import csr, reference_neighbors


@st.composite
def knn_cases(draw):
    """(training rows, queries, k): small dense arrays with repeated rows,
    rows one ulp apart, negative values and empty rows."""
    n_cols = draw(st.integers(1, 6))
    cell = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 0.375, 0.1, 1.0 / 3.0, 7.0, 2.0**-53, -(2.0**-52)])
    row = st.lists(cell, min_size=n_cols, max_size=n_cols)
    train = draw(st.lists(row, min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 4))):
        copy = list(train[draw(st.integers(0, len(train) - 1))])
        if draw(st.booleans()):
            col = draw(st.integers(0, n_cols - 1))
            if copy[col]:
                copy[col] = float(np.nextafter(copy[col], draw(st.sampled_from([-np.inf, np.inf]))))
        train.insert(draw(st.integers(0, len(train))), copy)
    queries = draw(st.lists(row, min_size=0, max_size=6))
    # A query equal to a training row, and one of no stored values.
    queries += draw(st.lists(st.sampled_from(train), max_size=2)) + [[0.0] * n_cols]
    k = draw(st.integers(1, len(train)))
    return np.array(train), np.array(queries), k


def naive_knn_predict(vectors, labels, k: int, query) -> int:
    """Independent loop-based reimplementation of the prediction rule over dense rows."""

    def cosine(a, b) -> float:
        dot = sum(av * bv for av, bv in zip(a, b))
        na = math.sqrt(sum(v * v for v in a))
        nb = math.sqrt(sum(v * v for v in b))
        if na == 0.0 or nb == 0.0:
            return 0.0
        return dot / (na * nb)

    ranked = sorted(range(len(vectors)), key=lambda i: (-cosine(query, vectors[i]), i))
    top = ranked[:k]
    counts: dict[int, int] = {}
    for i in top:
        counts[labels[i]] = counts.get(labels[i], 0) + 1
    best = max(counts.values())
    tied = {label for label, c in counts.items() if c == best}
    for i in top:
        if labels[i] in tied:
            return labels[i]
    raise AssertionError


class TestKnn:
    def test_plurality(self):
        vectors = csr([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        model = KnnClassifier(k=3).fit(vectors, [0, 0, 1])
        assert model.predict(csr([[1.0, 0.05]]))[0] == 0

    def test_exact_match_is_first_neighbor(self):
        vectors = csr([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        model = KnnClassifier(k=2).fit(vectors, [0, 1, 2])
        neighbors = model.neighbors(vectors.take([1]))
        assert neighbors[0, 0] == 1
        cosine = vectors.take([1]).dot_pairs(vectors, [0], [1], 10) / model.norms_[1] ** 2
        assert cosine[0] == pytest.approx(1.0)

    def test_all_distinct_labels_tie_goes_to_most_similar(self):
        vectors = csr([[1.0, 0.0], [1.0, 0.5], [0.0, 1.0]])
        model = KnnClassifier(k=3).fit(vectors, [2, 1, 0])
        # query closest to vector 0 (label 2): counts all tie at 1.
        assert model.predict(csr([[1.0, 0.01]]))[0] == 2

    def test_similarity_tie_prefers_lower_training_id(self):
        # Identical vectors at ids 0 and 1 with different labels.
        vectors = csr([[1.0, 1.0], [1.0, 1.0], [0.0, 1.0]])
        model = KnnClassifier(k=1).fit(vectors, [1, 0, 0])
        assert model.predict(csr([[1.0, 1.0]]))[0] == 1

    def test_zero_norm_query_has_zero_similarity(self):
        vectors = csr([[1.0, 0.0], [0.0, 1.0]])
        model = KnnClassifier(k=2).fit(vectors, [0, 1])
        empty = csr([[0.0, 0.0]])
        np.testing.assert_array_equal(empty.dot_rows(model._columns, 10), [[0.0, 0.0]])
        # falls back to id order; neighbor 0 wins, label 0
        np.testing.assert_array_equal(model.neighbors(empty), [[0, 1]])
        assert model.predict(empty)[0] == 0

    def test_k_bounds(self):
        vectors = csr([[1.0], [2.0]])
        with pytest.raises(ValueError):
            KnnClassifier(k=3).fit(vectors, [0, 1])
        with pytest.raises(ValueError):
            KnnClassifier(k=0).fit(vectors, [0, 1])
        with pytest.raises(ValueError):
            KnnClassifier(k=1).fit(csr([], n_cols=1), [])

    def test_agrees_with_naive_reimplementation(self):
        rng = np.random.RandomState(11)
        for _ in range(10):
            n_features = rng.randint(2, 11)
            n_samples = rng.randint(3, 51)
            vectors = []
            for _ in range(n_samples):
                dense = rng.randint(0, 5, size=n_features).astype(float)
                dense[rng.rand(n_features) < 0.4] = 0.0
                if not dense.any():
                    dense[0] = 1.0
                vectors.append(dense)
            labels = [int(v) for v in rng.randint(0, 4, size=n_samples)]
            k = int(rng.randint(1, n_samples + 1))  # up to every training row voting
            model = KnnClassifier(k=k).fit(csr(vectors), labels)
            queries = rng.randint(0, 5, size=(8, n_features)).astype(float)
            expected = [naive_knn_predict(vectors, labels, k, query) for query in queries]
            assert model.predict(csr(queries)).tolist() == expected

    def test_similarities_match_scipy_product(self):
        # The kernel's products and the exact scorer's both match the product
        # scipy computes.
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.RandomState(12)
        train = rng.rand(30, 9) * (rng.rand(30, 9) < 0.4)
        queries = rng.rand(12, 9) * (rng.rand(12, 9) < 0.4)
        queries[3] = 0.0  # a zero-norm query
        model = KnnClassifier(k=2).fit(csr(train), [0] * 15 + [1] * 15)
        dots = (sparse.csr_matrix(queries) @ sparse.csr_matrix(train).T).toarray()
        np.testing.assert_allclose(csr(queries).dot_rows(model._columns, 64), dots, rtol=1e-12, atol=1e-15)
        rows, train_rows = np.divmod(np.arange(12 * 30), 30)
        exact = csr(queries).dot_pairs(csr(train), rows, train_rows, 64).reshape(12, 30)
        np.testing.assert_allclose(exact, dots, rtol=1e-12, atol=1e-15)

    def test_scores_sum_in_query_feature_order(self):
        # Each exact score adds its products one query column after another,
        # as a per-query loop over the query's stored values does.
        rng = np.random.RandomState(13)
        train = csr(rng.rand(20, 40) * (rng.rand(20, 40) < 0.5))
        queries = csr(rng.rand(6, 40) * (rng.rand(6, 40) < 0.5))
        dense_train = np.zeros((20, 40))
        for r in range(20):
            idx, val = train.row(r)
            dense_train[r, idx] = val
        rows, train_rows = np.divmod(np.arange(6 * 20), 20)
        exact = queries.dot_pairs(train, rows, train_rows, 50).reshape(6, 20)
        for q in range(len(queries)):
            scores = np.zeros(20)
            for column, value in zip(*queries.row(q)):
                present = dense_train[:, column] != 0.0
                scores[present] += dense_train[present, column] * value
            assert exact[q].tobytes() == scores.tobytes()

    def test_chunked_neighbors_match_one_chunk(self, monkeypatch):
        rng = np.random.RandomState(14)
        train = csr(rng.rand(25, 12) * (rng.rand(25, 12) < 0.5))
        queries = csr(rng.rand(40, 12) * (rng.rand(40, 12) < 0.5))
        model = KnnClassifier(k=3).fit(train, rng.randint(0, 3, size=25))
        whole = model.neighbors(queries)
        monkeypatch.setattr(lahja.knn, "_BUDGET", 60)
        np.testing.assert_array_equal(model.neighbors(queries), whole)

    @settings(max_examples=300, deadline=None)
    @given(knn_cases(), st.sampled_from([1, 7, 60, 1 << 18]), st.sampled_from([0.02, 0.3, 1.0]))
    def test_neighbors_equal_reference(self, case, budget, share):
        # Share 1.0 sends every column through the pair path, 0.02 (on so few
        # rows) every stored column through BLAS.
        train, queries, k = case
        model = KnnClassifier(k=k).fit(csr(train), [0] * len(train))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lahja.knn, "_BUDGET", budget)
            patch.setattr(lahja.sparse, "DENSE_SHARE", share)
            got = model.neighbors(csr(queries))
        assert got.tobytes() == reference_neighbors(model, csr(queries)).tobytes()

    def test_neighbors_rank_by_the_exact_sum(self, monkeypatch):
        # Column 0 is stored in 2 of 6 training rows, under the 0.5 share, so
        # it goes pair by pair after BLAS adds columns 1 and 2. Row 1 then
        # sums to 2**-52 + 1 = 1 + 2**-52, but in column order to
        # (1 + 2**-53) + 2**-53 = 1, as row 0 does; their norms round to 1.
        # The exact tie ranks row 0 first; the other rows point away.
        tiny = 2.0**-53
        train = [[1.0, 0.0, 0.0], [1.0, tiny, tiny], [0.0, -1.0, -1.0], [0.0, -1.0, -1.0], [0.0, -2.0, -1.0],
                 [0.0, -1.0, -2.0]]
        model = KnnClassifier(k=1).fit(csr(train), [0, 1, 0, 0, 0, 0])
        queries = csr([[1.0, 1.0, 1.0]])
        monkeypatch.setattr(lahja.sparse, "DENSE_SHARE", 0.5)
        fast = queries.dot_rows(model._columns, 100)[0]
        assert fast[1] > fast[0]
        np.testing.assert_array_equal(model.neighbors(queries), [[0]])
        np.testing.assert_array_equal(reference_neighbors(model, queries), [[0]])

    @pytest.mark.parametrize("scale", [1e-200, 2.0**490])
    def test_neighbors_outside_the_rounding_range_equal_reference(self, scale):
        # Training values outside [2**-480, 2**480]: every training row is
        # scored exactly (products of 1e-200s underflow).
        rng = np.random.RandomState(15)
        train = rng.rand(12, 5) * (rng.rand(12, 5) < 0.6)
        train[[3, 7]] = train[5]
        model = KnnClassifier(k=4).fit(csr(train * scale), [0] * 12)
        queries = csr(rng.rand(6, 5) * (rng.rand(6, 5) < 0.6))
        np.testing.assert_array_equal(model.neighbors(queries), reference_neighbors(model, queries))

    def test_neighbors_equal_reference_on_a_multi_label_corpus(self):
        # Each two-label document gives two identical training rows.
        cfg = preset("exp3-hard")
        train = make_synthetic(6, 30, 50, 0.3, seed=7)
        union = TfidfUnion(word=cfg.word, char=cfg.char, char_wb=cfg.char_wb)
        vectors = union.fit_transform(train.texts())
        rows = [doc.id for doc in train.documents for _ in doc.labels]
        model = KnnClassifier(k=cfg.k).fit(vectors.take(rows), [0] * len(rows))
        queries = union.transform(make_synthetic(6, 30, 50, 0.3, seed=8).texts())
        assert len(rows) > len(train)
        np.testing.assert_array_equal(model.neighbors(queries), reference_neighbors(model, queries))

    def test_batch_neighbors_equal_one_row_neighbors(self):
        rng = np.random.RandomState(16)
        train = rng.rand(40, 10) * (rng.rand(40, 10) < 0.5)
        train[[4, 9, 30]] = train[17]
        model = KnnClassifier(k=5).fit(csr(train), rng.randint(0, 3, size=40))
        queries = csr(np.vstack([rng.rand(20, 10) * (rng.rand(20, 10) < 0.5), train[17]]))
        batch = model.neighbors(queries)
        for r in range(len(queries)):
            np.testing.assert_array_equal(batch[r], model.neighbors(queries.take([r]))[0])


def _common_and_rare(n_rows: int, seed: int) -> CsrMatrix:
    """Rows of 10 values among 200 common columns and 5 among 4,800 rare ones."""
    rng = np.random.RandomState(seed)
    cols = [
        np.sort(np.concatenate([rng.choice(200, 10, replace=False), 200 + rng.choice(4800, 5, replace=False)]))
        for _ in range(n_rows)
    ]
    indptr = np.concatenate(([0], np.cumsum([c.size for c in cols])))
    return CsrMatrix(indptr, np.concatenate(cols), rng.rand(int(indptr[-1])) + 0.1, 5000)


def test_neighbors_memory_is_bounded_by_the_budget(monkeypatch):
    # The 200 common columns are each stored in about 5% of the 3,000
    # training rows, so their dense block is 3,000 x 200 floats (4.8 MB).
    # neighbors builds it in slabs: what it holds at once is a few arrays of
    # at most _BUDGET values, plus arrays of one entry per stored value.
    train, queries = _common_and_rare(3000, 1), _common_and_rare(100, 2)
    model = KnnClassifier(k=3).fit(train, [0] * len(train))
    budget = 1 << 14
    monkeypatch.setattr(lahja.knn, "_BUDGET", budget)
    bound = 8 * (6 * budget + 4 * (train.nnz + queries.nnz))
    frequent = np.diff(model._columns.indptr) > lahja.sparse.DENSE_SHARE * len(train)
    assert 8 * len(train) * frequent.sum() > 2 * bound
    expected = reference_neighbors(model, queries)
    tracemalloc.start()
    try:
        got = model.neighbors(queries)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    np.testing.assert_array_equal(got, expected)
