"""Compressed sparse row (CSR) feature matrices.

One immutable type carries every batch of feature rows from featurization to
the classifiers: row r holds the columns ``indices[indptr[r]:indptr[r + 1]]``
with the values at the same positions. Within a row the columns are strictly
increasing and every stored value is finite and nonzero.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np


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
