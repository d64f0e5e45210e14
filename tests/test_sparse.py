from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lahja import CsrMatrix

from helpers import csr, pairs, same

sparse = pytest.importorskip("scipy.sparse")


@st.composite
def dense_matrices(draw, max_rows: int = 6, max_cols: int = 7):
    """Small dense arrays, about half zeros, as lists of rows."""
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols))
    cell = st.sampled_from([0.0, 0.0, 0.0, 1.0, -2.5, 0.375, 7.0])
    return draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols), min_size=n_rows, max_size=n_rows)), n_cols


def as_scipy(matrix: CsrMatrix):
    return sparse.csr_matrix((matrix.values, matrix.indices, matrix.indptr), shape=(len(matrix), matrix.n_cols))


def assert_same(matrix: CsrMatrix, oracle) -> None:
    oracle = sparse.csr_matrix(oracle)
    oracle.sort_indices()
    assert (len(matrix), matrix.n_cols) == oracle.shape
    np.testing.assert_array_equal(matrix.indptr, oracle.indptr)
    np.testing.assert_array_equal(matrix.indices, oracle.indices)
    np.testing.assert_array_equal(matrix.values, oracle.data)


def test_rejects_unsorted_indices():
    with pytest.raises(ValueError, match="increasing"):
        CsrMatrix([0, 2], [2, 1], [1.0, 1.0], 3)


def test_rejects_duplicate_indices():
    with pytest.raises(ValueError, match="increasing"):
        CsrMatrix([0, 2], [1, 1], [1.0, 2.0], 3)


def test_rows_may_restart_their_columns():
    matrix = CsrMatrix([0, 2, 2, 4], [1, 2, 0, 2], [1.0, 2.0, 3.0, 4.0], 3)
    assert pairs(matrix, 2) == [(0, 3.0), (2, 4.0)]


def test_rejects_explicit_zeros():
    with pytest.raises(ValueError, match="zeros"):
        CsrMatrix([0, 2], [0, 3], [1.0, 0.0], 4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="non-finite"):
        CsrMatrix([0, 1], [0], [value], 1)


@pytest.mark.parametrize(
    "indptr, indices",
    [([0, 1], [3]), ([0, 1], [-1]), ([1, 1], [0]), ([0, 2], [0]), ([0, 1, 0], [0]), ([], [])],
)
def test_rejects_malformed_structure(indptr, indices):
    with pytest.raises(ValueError):
        CsrMatrix(indptr, indices, [1.0] * len(indices), 3)


def test_lookup_reads_absent_as_zero():
    matrix = csr([[0.0, 2.0, 0.0, 0.0, 3.0], [5.0, 0.0, 0.0, 0.0, 0.0]])
    values = matrix.lookup(np.array([0, 0, 0, 1, 1]), np.array([1, 2, 4, 0, 4]))
    np.testing.assert_array_equal(values, [2.0, 0.0, 3.0, 5.0, 0.0])
    assert csr([[0.0, 0.0]]).lookup(np.array([0]), np.array([1]))[0] == 0.0


def test_empty_vector():
    matrix = csr([[0.0, 0.0, 0.0]])
    assert len(matrix) == 1 and matrix.nnz == 0
    assert matrix.row_norms()[0] == 0.0
    assert pairs(matrix) == []


def test_concat_keeps_order_and_offsets():
    a = csr([[0.5], [0.0]])
    b = csr([[0.0, 0.3], [0.7, 0.0]])
    c = csr([[0.0], [0.0]])
    merged = CsrMatrix.hstack([a, b, c], [0, 3, 13], 14)
    assert pairs(merged, 0) == [(0, 0.5), (4, 0.3)]
    assert pairs(merged, 1) == [(3, 0.7)]


def test_immutability():
    matrix = csr([[1.0]])
    with pytest.raises(AttributeError):
        matrix.indices = np.array([1])
    with pytest.raises(ValueError):
        matrix.values[0] = 2.0  # numpy read-only flag


@given(dense_matrices())
def test_pickle_round_trip_is_bit_identical(case):
    rows, n_cols = case
    matrix = csr(rows, n_cols)
    copy = pickle.loads(pickle.dumps(matrix))
    assert same(copy, matrix)
    with pytest.raises(AttributeError, match="immutable"):
        copy.n_cols = 0
    assert not copy.values.flags.writeable


class _ForgedPickle:
    """Pickles as a CsrMatrix built from an explicit zero."""

    def __reduce__(self):
        return CsrMatrix, (np.array([0, 1]), np.array([0]), np.array([0.0]), 1)


def test_unpickling_checks_like_the_constructor():
    with pytest.raises(ValueError, match="explicit zeros"):
        pickle.loads(pickle.dumps(_ForgedPickle()))


def test_iteration_yields_one_row_matrices():
    matrix = csr([[1.0, 0.0], [0.0, 0.0], [2.0, 3.0]])
    assert [row.nnz for row in matrix] == [1, 0, 2]
    assert same(list(matrix)[2], matrix.take([2]))


@given(
    st.dictionaries(
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda x: x != 0.0),
        max_size=12,
    )
)
def test_norm_matches_math(entries):
    columns = sorted(entries)
    matrix = CsrMatrix([0, len(columns)], columns, [entries[c] for c in columns], 51)
    expected = math.sqrt(sum(x * x for x in entries.values()))
    assert matrix.row_norms()[0] == pytest.approx(expected, abs=1e-12)


@given(dense_matrices())
def test_row_norms_are_each_rows_own_dot_product(case):
    rows, n_cols = case
    matrix = csr(rows, n_cols)
    for r in range(len(matrix)):
        values = np.array([v for v in rows[r] if v != 0.0])
        assert matrix.row_norms()[r] == (np.sqrt(values @ values) if values.size else 0.0)


@given(dense_matrices())
def test_transpose_matches_scipy(case):
    rows, n_cols = case
    matrix = csr(rows, n_cols)
    assert_same(matrix.transpose(), as_scipy(matrix).T)


@given(dense_matrices(), dense_matrices(), st.integers(0, 5))
def test_hstack_matches_scipy(first, second, gap):
    n_rows = min(len(first[0]), len(second[0]))
    a = csr(first[0][:n_rows], first[1])
    b = csr(second[0][:n_rows], second[1])
    n_cols = a.n_cols + gap + b.n_cols
    stacked = CsrMatrix.hstack([a, b], [0, a.n_cols + gap], n_cols)
    padding = sparse.csr_matrix((n_rows, gap))
    assert_same(stacked, sparse.hstack([as_scipy(a), padding, as_scipy(b)]))


@given(dense_matrices(), st.data())
def test_take_matches_scipy(case, data):
    rows, n_cols = case
    matrix = csr(rows, n_cols)
    picks = data.draw(st.lists(st.integers(0, max(len(matrix) - 1, 0)), max_size=10 if len(matrix) else 0))
    assert_same(matrix.take(picks), as_scipy(matrix)[np.array(picks, dtype=np.int64)])


@given(dense_matrices(), st.data())
def test_lookup_matches_scipy(case, data):
    rows, n_cols = case
    matrix = csr(rows, n_cols)
    if not len(matrix):
        return
    r = np.array(data.draw(st.lists(st.integers(0, len(matrix) - 1), min_size=1, max_size=12)))
    c = np.array(data.draw(st.lists(st.integers(0, n_cols - 1), min_size=r.size, max_size=r.size)))
    np.testing.assert_array_equal(matrix.lookup(r, c), as_scipy(matrix).toarray()[r, c])
