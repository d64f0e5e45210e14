"""Compressed sparse row (CSR) feature matrices.

One immutable type carries every batch of feature rows from featurization to
the classifiers: row r holds the columns ``indices[indptr[r]:indptr[r + 1]]``
with the values at the same positions. Within a row the columns are strictly
increasing and every stored value is finite and nonzero.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

# ``dot_rows`` multiplies a column of B densely when more than this share of
# B's rows store it.
DENSE_SHARE = 0.02


class CsrMatrix:
    """Immutable CSR matrix with ``n_cols`` columns and ``len(indptr) - 1`` rows."""

    __slots__ = ("indptr", "indices", "values", "n_cols")

    def __init__(self, indptr, indices, values, n_cols: int):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        n_cols = int(n_cols)
        if indptr.ndim != 1 or indices.ndim != 1 or values.ndim != 1 or indices.shape != values.shape:
            raise ValueError("indptr, indices and values must be 1-d, indices and values of equal length")
        if not indptr.size or indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must rise from 0 to the number of stored values")
        if n_cols < 0:
            raise ValueError(f"n_cols must be >= 0, got {n_cols}")
        if indices.size:
            if indices.min() < 0 or indices.max() >= n_cols:
                raise ValueError(f"column index outside [0, {n_cols})")
            # A column may not rise above its successor unless that successor starts a row.
            row_start = np.zeros(indices.size, dtype=bool)
            row_start[indptr[:-1][indptr[:-1] < indices.size]] = True
            if np.any((np.diff(indices) <= 0) & ~row_start[1:]):
                raise ValueError("column indices must be strictly increasing within a row")
            if np.any(values == 0.0):
                raise ValueError("explicit zeros are not allowed")
            if not np.all(np.isfinite(values)):
                raise ValueError("non-finite feature values are not allowed")
        for array in (indptr, indices, values):
            array.setflags(write=False)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "n_cols", n_cols)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("CsrMatrix is immutable")

    def __reduce__(self) -> tuple:
        # Unpickling goes through __init__, so a pickle is checked like any input.
        return CsrMatrix, (self.indptr, self.indices, self.values, self.n_cols)

    @classmethod
    def hstack(cls, blocks: Sequence["CsrMatrix"], offsets: Sequence[int], n_cols: int) -> "CsrMatrix":
        """Blocks of equal row count side by side, block b's columns shifted by ``offsets[b]``."""
        n_rows = len(blocks[0])
        if any(len(block) != n_rows for block in blocks) or len(blocks) != len(offsets):
            raise ValueError("blocks must have equal row counts and one offset each")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        for block in blocks:
            indptr += block.indptr
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        values = np.empty(indices.size, dtype=np.float64)
        start = indptr[:-1].copy()
        for block, offset in zip(blocks, offsets):
            lengths = np.diff(block.indptr)
            dest = np.repeat(start - block.indptr[:-1], lengths) + np.arange(block.nnz)
            indices[dest] = block.indices + offset
            values[dest] = block.values
            start += lengths
        return cls(indptr, indices, values, n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    def check_cols(self, n_cols: int) -> None:
        """Raise ValueError unless the matrix is ``n_cols`` wide (a model's dimension)."""
        if self.n_cols != n_cols:
            raise ValueError(f"matrix has {self.n_cols} columns for model dimension {n_cols}")

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (columns, values) views of row r."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def __iter__(self) -> Iterator["CsrMatrix"]:
        for r in range(len(self)):
            yield self.take([r])

    def take(self, rows: Sequence[int]) -> "CsrMatrix":
        """The given rows, in the given order; rows may repeat."""
        src, lengths = self.entries(rows)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        return CsrMatrix(indptr, self.indices[src], self.values[src], self.n_cols)

    def entries(self, rows: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Positions in ``indices``/``values`` of the given rows' stored entries,
        row after row in the given order, and the number of entries of each row."""
        rows = np.asarray(rows, dtype=np.int64)
        lengths = self.indptr[rows + 1] - self.indptr[rows]
        positions = np.repeat(self.indptr[rows] - np.cumsum(lengths) + lengths, lengths)
        positions += np.arange(positions.size)
        return positions, lengths

    def row_ids(self) -> np.ndarray:
        """The row of each stored value."""
        return np.repeat(np.arange(len(self), dtype=np.int64), np.diff(self.indptr))

    def transpose(self) -> "CsrMatrix":
        """The CSC form: row c of the result lists (row, value) of column c, rows ascending."""
        order = np.argsort(self.indices, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.indices, minlength=self.n_cols))))
        return CsrMatrix(indptr, self.row_ids()[order], self.values[order], len(self))

    def lookup(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Values at the (row, col) pairs; absent entries read as 0.0."""
        wanted = np.asarray(rows, dtype=np.int64) * self.n_cols + cols
        if not self.nnz:
            return np.zeros(wanted.shape, dtype=np.float64)
        keys = self.row_ids() * self.n_cols + self.indices
        pos = np.minimum(np.searchsorted(keys, wanted), self.nnz - 1)
        return np.where(keys[pos] == wanted, self.values[pos], 0.0)

    def row_norms(self) -> np.ndarray:
        """Euclidean norm of each row, each summed as that row's own dot product."""
        norms = np.zeros(len(self), dtype=np.float64)
        for r in np.flatnonzero(np.diff(self.indptr)):
            values = self.values[self.indptr[r] : self.indptr[r + 1]]
            norms[r] = np.sqrt(values @ values)
        return norms

    def dot_rows(self, columns: "CsrMatrix", budget: int) -> np.ndarray:
        """A·Bᵀ as a dense (len(A) x len(B)) array, A being this matrix and
        ``columns`` B's CSC form, ``B.transpose()``.

        Columns stored in more than ``DENSE_SHARE`` of B's rows are multiplied
        by BLAS, in slabs of columns whose dense blocks of A and B together
        hold at most ``budget`` values. The other columns are summed pair by
        pair with np.bincount, at most ``budget`` pairs at a time. The split
        depends on B alone. The two parts add in different orders, so a
        product can differ from any one sequential sum in its last bits.
        """
        self.check_cols(len(columns))
        n_rows, n_other = len(self), columns.n_cols
        counts = np.diff(columns.indptr)
        frequent = counts > DENSE_SHARE * n_other
        rows = self.row_ids()
        out = np.zeros((n_rows, n_other), dtype=np.float64)

        dense_cols = np.flatnonzero(frequent)
        slot = np.cumsum(frequent) - 1  # a frequent column's place among them
        at = np.flatnonzero(frequent[self.indices])
        at_slot = slot[self.indices[at]]
        width = max(1, budget // max(1, n_rows + n_other))
        for lo in range(0, dense_cols.size, width):
            hi = min(lo + width, dense_cols.size)
            mine = (at_slot >= lo) & (at_slot < hi)
            block = np.zeros((n_rows, hi - lo), dtype=np.float64)
            block[rows[at[mine]], at_slot[mine] - lo] = self.values[at[mine]]
            src, lengths = columns.entries(dense_cols[lo:hi])
            other = np.zeros((hi - lo, n_other), dtype=np.float64)
            other[np.repeat(np.arange(hi - lo), lengths), columns.indices[src]] = columns.values[src]
            out += block @ other

        rare = np.flatnonzero(~frequent[self.indices])
        flat = out.reshape(-1)
        for lo, hi in _spans(counts[self.indices[rare]], budget):
            part = rare[lo:hi]
            src, lengths = columns.entries(self.indices[part])
            keys = np.repeat(rows[part] * n_other, lengths) + columns.indices[src]
            products = columns.values[src] * np.repeat(self.values[part], lengths)
            flat += np.bincount(keys, weights=products, minlength=flat.size)
        return out

    def dot_pairs(self, other: "CsrMatrix", rows: np.ndarray, other_rows: np.ndarray, budget: int) -> np.ndarray:
        """Dot product of row ``rows[i]`` of this matrix with row
        ``other_rows[i]`` of ``other``, for each i.

        Each sum starts at 0.0 and adds ``other``'s value times this row's
        value, one of this row's columns after another, as np.bincount adds
        them. A column ``other`` lacks adds ±0.0, which leaves the sum as it
        was: a sum that starts at +0.0 never becomes -0.0. At most ``budget``
        products are held at a time, or one pair's if it alone has more.
        """
        self.check_cols(other.n_cols)
        rows = np.asarray(rows, dtype=np.int64)
        other_rows = np.asarray(other_rows, dtype=np.int64)
        out = np.empty(rows.size, dtype=np.float64)
        for lo, hi in _spans(np.diff(self.indptr)[rows], budget):
            src, lengths = self.entries(rows[lo:hi])
            found = other.lookup(np.repeat(other_rows[lo:hi], lengths), self.indices[src])
            pair = np.repeat(np.arange(hi - lo), lengths)
            out[lo:hi] = np.bincount(pair, weights=found * self.values[src], minlength=hi - lo)
        return out


def _spans(costs: np.ndarray, budget: int) -> Iterator[tuple[int, int]]:
    """Consecutive [lo, hi) runs of items whose costs add up to at most
    ``budget``; an item that costs more is a run of its own."""
    ends = np.cumsum(costs)
    lo = 0
    while lo < ends.size:
        spent = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, spent + budget, "right")))
        yield lo, hi
        lo = hi
