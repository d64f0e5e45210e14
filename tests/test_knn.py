from __future__ import annotations

import math

import numpy as np
import pytest

from lahja import KnnClassifier

from helpers import csr


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
        assert model.similarities(vectors.take([1]))[0, 1] == pytest.approx(1.0)

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
        np.testing.assert_array_equal(model.similarities(empty), [[0.0, 0.0]])
        # falls back to id order; neighbor 0 wins, label 0
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
            k = int(rng.randint(1, min(6, n_samples + 1)))
            model = KnnClassifier(k=k).fit(csr(vectors), labels)
            queries = rng.randint(0, 5, size=(8, n_features)).astype(float)
            expected = [naive_knn_predict(vectors, labels, k, query) for query in queries]
            assert model.predict(csr(queries)).tolist() == expected

    def test_similarities_match_scipy_product(self):
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.RandomState(12)
        train = rng.rand(30, 9) * (rng.rand(30, 9) < 0.4)
        queries = rng.rand(12, 9) * (rng.rand(12, 9) < 0.4)
        queries[3] = 0.0  # a zero-norm query
        model = KnnClassifier(k=2).fit(csr(train), [0] * 15 + [1] * 15)
        dots = (sparse.csr_matrix(queries) @ sparse.csr_matrix(train).T).toarray()
        norms = np.outer(np.linalg.norm(queries, axis=1), np.linalg.norm(train, axis=1))
        expected = np.divide(dots, norms, out=np.zeros_like(dots), where=norms > 0)
        np.testing.assert_allclose(model.similarities(csr(queries)), expected, rtol=1e-12, atol=1e-15)

    def test_scores_sum_in_query_feature_order(self):
        # Each score adds its products one query column after another, as a
        # per-query loop over the query's stored values does.
        rng = np.random.RandomState(13)
        train = csr(rng.rand(20, 40) * (rng.rand(20, 40) < 0.5))
        queries = csr(rng.rand(6, 40) * (rng.rand(6, 40) < 0.5))
        model = KnnClassifier(k=1).fit(train, [0] * 20)
        dense_train = np.zeros((20, 40))
        for r in range(20):
            idx, val = train.row(r)
            dense_train[r, idx] = val
        sims = model.similarities(queries)
        norms = train.row_norms()
        for q in range(len(queries)):
            scores = np.zeros(20)
            for column, value in zip(*queries.row(q)):
                present = dense_train[:, column] != 0.0
                scores[present] += dense_train[present, column] * value
            expected = np.zeros(20)
            np.divide(scores, norms * queries.row_norms()[q], out=expected, where=norms > 0.0)
            assert sims[q].tobytes() == expected.tobytes()

    def test_chunked_neighbors_match_one_chunk(self, monkeypatch):
        import lahja.knn

        rng = np.random.RandomState(14)
        train = csr(rng.rand(25, 12) * (rng.rand(25, 12) < 0.5))
        queries = csr(rng.rand(40, 12) * (rng.rand(40, 12) < 0.5))
        model = KnnClassifier(k=3).fit(train, rng.randint(0, 3, size=25))
        whole = model.neighbors(queries)
        monkeypatch.setattr(lahja.knn, "_CHUNK_BUDGET", 60)
        np.testing.assert_array_equal(model.neighbors(queries), whole)
