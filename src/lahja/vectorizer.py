"""TF-IDF feature blocks per analyzer and their weighted union.

Each block learns a lexicographically ordered vocabulary with smoothed
inverse document frequencies idf(t) = ln((1 + N) / (1 + df(t))) + 1. A
document transforms to raw counts * idf, L2-normalized per block. The union
owns the transformer weights: it concatenates the three blocks (word, char,
char_wb) with fixed column offsets, each block's values scaled by its
weight as they are copied.
"""

from __future__ import annotations

import itertools
import math
from array import array
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Iterable, Sequence

import numpy as np

from .analyzers import ANALYZER_KINDS, CHAR, CHAR_WB, WORD, build_analyzer
from .base import BaseEstimator, JsonObject, check_int, check_is_fitted, check_ngram_range
from .sparse import CsrMatrix

BLOCK_ORDER = (WORD, CHAR, CHAR_WB)


@dataclass(frozen=True)
class BlockSpec(JsonObject):
    """Per-block configuration: n-gram range, vocabulary cap, transformer weight."""

    json_name = "block spec"

    ngram_range: tuple[int, int] = (1, 1)
    max_features: int | None = None
    weight: float = 1.0

    def __post_init__(self) -> None:
        check_ngram_range(self.ngram_range)
        if self.max_features is not None and check_int("max_features", self.max_features) < 1:
            raise ValueError(f"max_features must be >= 1 or None, got {self.max_features}")
        if not 0.0 < self.weight <= 1.0:
            raise ValueError(f"transformer weight must be in (0, 1], got {self.weight}")


class TfidfBlock(BaseEstimator):
    """Single-analyzer TF-IDF vectorizer.

    Fitted attributes: ``vocabulary_`` (feature -> column, lexicographic),
    ``idf_`` (float array), ``n_features_``.
    """

    def __init__(
        self,
        analyzer: str = WORD,
        ngram_range: tuple[int, int] = (1, 1),
        max_features: int | None = None,
    ):
        self.analyzer = analyzer
        self.ngram_range = ngram_range
        self.max_features = max_features

    def _check_params(self) -> Callable[[str], list[str]]:
        if self.analyzer not in ANALYZER_KINDS:
            raise ValueError(f"unknown analyzer {self.analyzer!r}; expected one of {ANALYZER_KINDS}")
        BlockSpec(tuple(self.ngram_range), self.max_features)  # validates the rest
        return build_analyzer(self.analyzer, tuple(self.ngram_range))

    def fit(self, texts: Sequence[str]) -> "TfidfBlock":
        self.fit_transform(texts)
        return self

    def fit_transform(self, texts: Sequence[str]) -> CsrMatrix:
        """Fit on ``texts`` and return their matrix, analyzing each text once.

        Each new n-gram gets a provisional id in first-seen order; once the
        vocabulary is fixed the ids map to lexicographic columns.
        """
        analyze = self._check_params()
        texts = list(texts)
        if not texts:
            raise ValueError("cannot fit a TF-IDF block on an empty corpus")
        ids: defaultdict[str, int] = defaultdict()
        ids.default_factory = ids.__len__
        rows, stream = _analyze_all(texts, analyze, partial(map, ids.__getitem__))
        names = list(ids)
        if not names:
            raise ValueError("no features survived fitting; corpus produced no analyzer output")
        totals = np.bincount(stream, minlength=len(names)).tolist()
        document_frequency = np.bincount(
            np.unique(rows * len(names) + stream) % len(names), minlength=len(names)
        ).tolist()
        kept = range(len(names))
        if self.max_features is not None and len(names) > self.max_features:
            # Keep the features with the highest total corpus count; ties go
            # to the lexicographically smaller feature string.
            kept = sorted(kept, key=lambda i: (-totals[i], names[i]))[: self.max_features]
        kept = sorted(kept, key=names.__getitem__)
        n_docs = len(texts)
        self.vocabulary_ = {names[i]: column for column, i in enumerate(kept)}
        self.idf_ = np.array(
            [math.log((1.0 + n_docs) / (1.0 + document_frequency[i])) + 1.0 for i in kept],
            dtype=np.float64,
        )
        self.n_features_ = len(kept)
        self._analyze = analyze
        columns = np.full(len(names), -1, dtype=np.int64)
        columns[kept] = np.arange(len(kept))
        return self._tfidf(rows, columns[stream], n_docs)

    @classmethod
    def from_fitted(
        cls,
        analyzer: str,
        ngram_range: tuple[int, int],
        max_features: int | None,
        feature_names: Sequence[str],
        idf: Sequence[float],
    ) -> "TfidfBlock":
        """Rebuild a fitted block from persisted state."""
        if any(a >= b for a, b in zip(feature_names, feature_names[1:])):
            raise ValueError("persisted vocabulary must be strictly increasing (sorted, no repeats)")
        if len(feature_names) != len(idf):
            raise ValueError("vocabulary and idf lengths differ")
        idf = np.asarray(idf, dtype=np.float64)
        if not np.all(idf >= 1.0):
            raise ValueError("persisted idf values must be >= 1")
        block = cls(analyzer, tuple(ngram_range), max_features)
        block._analyze = block._check_params()
        block.vocabulary_ = {name: i for i, name in enumerate(feature_names)}
        block.idf_ = idf
        block.n_features_ = len(feature_names)
        return block

    def feature_names(self) -> list[str]:
        check_is_fitted(self, "vocabulary_")
        return sorted(self.vocabulary_, key=self.vocabulary_.get)

    def transform(self, texts: Sequence[str]) -> CsrMatrix:
        check_is_fitted(self, "vocabulary_")
        texts = list(texts)
        vocabulary = self.vocabulary_
        rows, columns = _analyze_all(
            texts, self._analyze, lambda features: map(vocabulary.get, features, repeat(-1))
        )
        return self._tfidf(rows, columns, len(texts))

    def _tfidf(self, rows: np.ndarray, columns: np.ndarray, n_rows: int) -> CsrMatrix:
        """Counts of the (row, column) pairs, column -1 dropped, as idf-weighted
        rows of L2 norm 1."""
        known = columns >= 0
        n = self.n_features_
        keys, counts = np.unique(rows[known] * n + columns[known], return_counts=True)
        row_of, columns = np.divmod(keys, n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_rows))))
        raw = CsrMatrix(indptr, columns, counts.astype(np.float64) * self.idf_[columns], n)
        return CsrMatrix(indptr, columns, raw.values / np.repeat(raw.row_norms(), np.diff(indptr)), n)


def _analyze_all(
    texts: Sequence[str],
    analyze: Callable[[str], list[str]],
    lookup: Callable[[list[str]], Iterable[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """(text index, id) of every n-gram of every text, in text order; ``lookup``
    maps one text's n-grams to their ids."""
    stream = array("q")
    lengths = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        before = len(stream)
        stream.extend(lookup(analyze(text)))
        lengths[i] = len(stream) - before
    rows = np.repeat(np.arange(len(texts), dtype=np.int64), lengths)
    return rows, np.frombuffer(stream, dtype=np.int64)


class TfidfUnion(BaseEstimator):
    """Weighted concatenation of the three analyzer blocks in fixed order.

    Any slot may be None (block disabled); enabled blocks keep the fixed
    word, char, char_wb column order with prefix-sum offsets.
    """

    def __init__(
        self,
        word: BlockSpec | None = BlockSpec((1, 1)),
        char: BlockSpec | None = BlockSpec((1, 5)),
        char_wb: BlockSpec | None = BlockSpec((1, 5)),
    ):
        self.word = word
        self.char = char
        self.char_wb = char_wb

    def _specs(self) -> tuple[BlockSpec | None, ...]:
        specs = (self.word, self.char, self.char_wb)
        if all(spec is None for spec in specs):
            raise ValueError("at least one block must be enabled")
        return specs

    def fit(self, texts: Sequence[str]) -> "TfidfUnion":
        self.fit_transform(texts)
        return self

    def fit_transform(self, texts: Sequence[str]) -> CsrMatrix:
        """Fit every block and return the union matrix of ``texts``; one
        analyzer call per text per block."""
        texts = list(texts)
        blocks = [
            None if spec is None else TfidfBlock(kind, spec.ngram_range, spec.max_features)
            for kind, spec in zip(BLOCK_ORDER, self._specs())
        ]
        parts = [block.fit_transform(texts) for block in blocks if block is not None]
        self._set_fitted(blocks)
        return self.stack(parts)

    def _set_fitted(self, blocks: Sequence[TfidfBlock | None]) -> None:
        widths = [0 if block is None else block.n_features_ for block in blocks]
        *offsets, self.n_features_ = itertools.accumulate(widths, initial=0)
        self.blocks_ = tuple(blocks)
        self.offsets_ = tuple(offsets)

    @classmethod
    def from_fitted(
        cls, specs: Sequence[BlockSpec | None], blocks: Sequence[TfidfBlock | None]
    ) -> "TfidfUnion":
        """Rebuild a fitted union from its block specs and the blocks fitted to
        them, both in word, char, char_wb order."""
        union = cls(*specs)
        union._set_fitted(blocks)
        return union

    def transform_one(self, text: str) -> CsrMatrix:
        return self.transform([text])

    def transform(self, texts: Sequence[str]) -> CsrMatrix:
        check_is_fitted(self, "blocks_")
        texts = list(texts)
        return self.stack([block.transform(texts) for block in self.blocks_ if block is not None])

    def stack(self, parts: Sequence[CsrMatrix]) -> CsrMatrix:
        """The union matrix of ``parts``, the unit-norm matrices of the enabled
        blocks in slot order, each scaled by its spec's weight."""
        weights = [spec.weight for spec in self._specs() if spec is not None]
        *offsets, n_cols = itertools.accumulate((part.n_cols for part in parts), initial=0)
        return CsrMatrix.hstack(parts, offsets, weights, n_cols)
