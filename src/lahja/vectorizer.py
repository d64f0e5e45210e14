"""TF-IDF feature blocks per analyzer and their weighted union.

Each block learns a lexicographically ordered vocabulary with smoothed
inverse document frequencies idf(t) = ln((1 + N) / (1 + df(t))) + 1. A
document transforms to raw counts * idf, L2-normalized per block. The union
owns the transformer weights: it concatenates the three blocks (word, char,
char_wb) with fixed column offsets, each block's values scaled by its
weight as they are copied.

Every block featurizes a whole batch with numpy, in chunks of at most
``_BUDGET`` code points: an n-gram is a row of integer symbols (token ids
for word, code points for char and char_wb, see
:class:`~lahja.analyzers.Symbols`) rather than a string. Its vocabulary,
idf and matrices are bit for bit those of counting the strings of
``word_ngrams``, ``char_ngrams`` and ``char_wb_ngrams``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .analyzers import ANALYZER_KINDS, CHAR, CHAR_WB, MAX_IDS, WORD, CodeStream, Symbols
from .analyzers import build_analyzer  # noqa: F401  (perfbench/tracing.py wraps it; no block calls it)
from .base import BaseEstimator, JsonObject, check_int, check_is_fitted, check_ngram_range
from .sparse import CsrMatrix, row_norms, spans

BLOCK_ORDER = (WORD, CHAR, CHAR_WB)

# Code points of the texts a block featurizes at once, or one longer text. The arrays of a
# chunk take about 0.1 kB per code point at n up to 5, so 2**14 bounds them
# near 2 MB whatever the batch size; larger chunks were no faster.
_BUDGET = 1 << 14
# An n-gram's key is its prefix's node * _BASE + its last symbol. Nodes and
# token ids stay below MAX_IDS = 2**31 (the id of an unseen token is at most
# MAX_IDS) and code points below 0x110000, so every key is at most
# (MAX_IDS - 1) * _BASE + MAX_IDS < 2**63 - 1 = _NO_KEY.
_BASE = 1 << 32
_NO_KEY = np.iinfo(np.int64).max


def _idf(n_docs: int, document_frequency: int) -> float:
    """The smoothed idf of a feature in ``document_frequency`` of ``n_docs`` documents."""
    return math.log((1.0 + n_docs) / (1.0 + document_frequency)) + 1.0


# The largest idf a fit can give, at df = 1 in a corpus of 2**63 - 1
# documents: about 43.98. A larger persisted one could overflow a row's norm.
_MAX_IDF = _idf(np.iinfo(np.int64).max, 1)


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

    A block reads a batch as a :class:`~lahja.analyzers.CodeStream` of
    symbols (token ids or code points), in chunks of at most ``_BUDGET``
    code points, and codes every window as an integer, one n-gram length
    after another: an n-gram is the pair (node of its (n-1)-prefix, its last
    symbol) in a :class:`_Trie`. Fitting grows the trie over the batch and
    decodes only its distinct n-grams to names; a fitted block walks the
    trie of its vocabulary's prefixes, so a window whose prefix is not in
    it, or that holds a token or char absent from it, is out of vocabulary.
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

    def _check_params(self) -> None:
        if self.analyzer not in ANALYZER_KINDS:
            raise ValueError(f"unknown analyzer {self.analyzer!r}; expected one of {ANALYZER_KINDS}")
        BlockSpec(tuple(self.ngram_range), self.max_features)  # validates the rest

    def fit(self, texts: Sequence[str]) -> "TfidfBlock":
        self.fit_transform(texts)
        return self

    def fit_transform(self, texts: Sequence[str]) -> CsrMatrix:
        """Fit on ``texts`` and return their matrix, featurizing each text once."""
        self._check_params()
        texts = list(texts)
        if not texts:
            raise ValueError("cannot fit a TF-IDF block on an empty corpus")
        symbols, names, rows, docs, grams, counts = self._count(texts)
        if not names:
            raise ValueError("no features survived fitting; corpus produced no analyzer output")
        totals = np.bincount(grams, weights=counts, minlength=len(names)).tolist()
        document_frequency = np.bincount(grams, minlength=len(names)).tolist()
        kept = range(len(names))
        if self.max_features is not None and len(names) > self.max_features:
            # Keep the features with the highest total corpus count; ties go
            # to the lexicographically smaller feature string.
            kept = sorted(kept, key=lambda i: (-totals[i], names[i]))[: self.max_features]
        kept = sorted(kept, key=names.__getitem__)
        n_docs = len(texts)
        self.idf_ = np.array([_idf(n_docs, document_frequency[i]) for i in kept], dtype=np.float64)
        rows = rows[kept]
        symbol = rows >= 0
        self._set_vocabulary(symbols, rows[symbol], np.count_nonzero(symbol, axis=1), [names[i] for i in kept])
        columns = np.full(len(names), -1, dtype=np.int64)
        columns[kept] = np.arange(len(kept))
        columns = columns[grams]
        known = columns >= 0
        keys = docs[known] * self.n_features_ + columns[known]
        order = np.argsort(keys)
        return self._tfidf(keys[order], counts[known][order], n_docs)

    def _count(
        self, texts: list[str]
    ) -> tuple[Symbols, list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The symbols the fit grew over ``texts``; the distinct n-grams of
        ``texts``, length by length, as names and as rows of their symbols
        padded with -1 to the longest; and the (text, n-gram index, count)
        of every distinct pair."""
        hi = self.ngram_range[1]
        symbols = Symbols(self.analyzer)
        trie = _Trie(hi)
        found: list[list[tuple[np.ndarray, ...]]] = [[] for _ in range(hi)]
        for first, last in spans(list(map(len, texts)), _BUDGET):
            stream = symbols.stream(texts[first:last], grow=True)
            for level, positions, nodes in self._windows(stream, trie.grow):
                size = len(trie.ids[level])
                keys, counts = np.unique(stream.doc[positions] * size + nodes, return_counts=True)
                found[level].append((keys // size + first, keys % size, counts))
        names: list[str] = []
        # Symbols are token ids below MAX_IDS = 2**31 or code points.
        rows = [np.zeros((0, hi), dtype=np.int32)]
        pairs = [(np.zeros(0, dtype=np.int64),) * 3]
        for level, codes in enumerate(trie.codes()):
            if not found[level]:
                continue
            docs, nodes, counts = map(np.concatenate, zip(*found[level]))
            emitted = np.unique(nodes)
            pairs.append((docs, len(names) + np.searchsorted(emitted, nodes), counts))
            names.extend(symbols.names(codes[emitted]))
            padded = np.full((len(emitted), hi), -1, dtype=np.int32)
            padded[:, : level + 1] = codes[emitted]
            rows.append(padded)
        docs, grams, counts = map(np.concatenate, zip(*pairs))
        return symbols, names, np.concatenate(rows), docs, grams, counts

    def _windows(self, stream: CodeStream, lookup: Callable[[int, np.ndarray], np.ndarray]):
        """(level, positions, nodes) of the n-grams of ``stream`` that are
        ``level + 1`` symbols long, in increasing length. ``lookup(level, keys)``
        gives the trie nodes of keys at a level, or -1 where it has none; a
        window with no node has no longer windows either.

        The string analyzers' windows, as sizes per segment of length L: word
        and char take n in [lo, min(hi, L)]; char_wb, the one analyzer that
        takes a padded word shorter than ``lo`` whole, n in
        [min(lo, L), min(hi, L)].
        """
        lo, hi = self.ngram_range
        whole = self.analyzer == CHAR_WB
        positions = np.arange(len(stream.codes))
        nodes = np.zeros(len(positions), dtype=np.int64)
        for level in range(hi):
            nodes = lookup(level, nodes * _BASE + stream.codes[positions + level])
            found = nodes >= 0
            room = stream.room[positions]
            if level + 1 >= lo:
                yield level, positions[found], nodes[found]
            elif whole:
                taken = found & stream.start[positions] & (room == level + 1)
                yield level, positions[taken], nodes[taken]
            longer = found & (room > level + 1)
            positions, nodes = positions[longer], nodes[longer]

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
        if not np.all(idf <= _MAX_IDF):
            raise ValueError(f"persisted idf values must be <= {_MAX_IDF!r}, the largest a fit gives")
        block = cls(analyzer, tuple(ngram_range), max_features)
        block._check_params()
        block.idf_ = idf
        names = list(feature_names)
        block._set_vocabulary(*Symbols.of(analyzer, names, block.ngram_range[1]), names)
        return block

    def _set_vocabulary(self, symbols: Symbols, codes: np.ndarray, lengths: np.ndarray, names: list[str]) -> None:
        """Fix the vocabulary to ``names``, in column order, whose symbols
        under ``symbols`` are ``codes``, ``lengths`` of them each, with the
        trie of their prefixes that ``transform`` walks."""
        self._symbols = symbols
        self._trie = _Trie.of(codes, lengths, self.ngram_range[1])
        self.vocabulary_ = {name: column for column, name in enumerate(names)}
        self.n_features_ = len(names)

    def feature_names(self) -> list[str]:
        check_is_fitted(self, "vocabulary_")
        return list(self.vocabulary_)

    def transform(self, texts: Sequence[str]) -> CsrMatrix:
        check_is_fitted(self, "vocabulary_")
        texts = list(texts)
        found = [(np.zeros(0, dtype=np.int64),) * 2]
        for first, last in spans(list(map(len, texts)), _BUDGET):
            stream = self._symbols.stream(texts[first:last])
            row_keys = (stream.doc + first) * self.n_features_
            pairs = []
            for level, positions, nodes in self._windows(stream, self._trie.find):
                columns = self._trie.columns[level][nodes]
                known = columns >= 0
                pairs.append(row_keys[positions[known]] + columns[known])
            found.append(np.unique(np.concatenate(pairs), return_counts=True))
        keys, counts = map(np.concatenate, zip(*found))
        return self._tfidf(keys, counts, len(texts))

    def _tfidf(self, keys: np.ndarray, counts: np.ndarray, n_rows: int) -> CsrMatrix:
        """Rows of L2 norm 1 from the increasing keys row * n_features_ +
        column of the stored (row, column) pairs and their counts, each count
        weighted by its column's idf."""
        n = self.n_features_
        row_of, columns = np.divmod(keys, n)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row_of, minlength=n_rows))))
        values = counts.astype(np.float64) * self.idf_[columns]
        return CsrMatrix(indptr, columns, values / np.repeat(row_norms(indptr, values), np.diff(indptr)), n)


class _Trie:
    """Sets of n-grams by length, each n-gram a node numbered within its
    length.

    An n-gram's key is its (n-1)-prefix's node * ``_BASE`` + its last symbol
    (the empty prefix is node 0). ``keys[level]`` holds the keys of
    the (level + 1)-grams in increasing order and ``ids[level]`` their
    nodes, each array closed by a sentinel that matches no key. The trie of
    a vocabulary, made by :meth:`of`, also maps its nodes to columns.
    """

    def __init__(self, depth: int):
        self.keys = [np.array([_NO_KEY], dtype=np.int64) for _ in range(depth)]
        self.ids = [np.array([-1], dtype=np.int64) for _ in range(depth)]

    @classmethod
    def of(cls, codes: np.ndarray, lengths: np.ndarray, depth: int) -> "_Trie":
        """The trie of every prefix of the n-grams whose symbols are ``codes``,
        one after another, ``lengths`` of them each and each at most ``depth``,
        with ``columns[level][node]`` the index of a node that is a whole
        n-gram, -1 for a proper prefix only."""
        trie = cls(depth)
        starts = np.cumsum(lengths) - lengths
        nodes = np.zeros(len(lengths), dtype=np.int64)
        alive = np.arange(len(lengths))
        trie.columns = []
        for level in range(depth):
            alive = alive[lengths[alive] > level]
            nodes[alive] = trie.grow(level, nodes[alive] * _BASE + codes[starts[alive] + level])
            columns = np.full(len(trie.ids[level]) - 1, -1, dtype=np.int64)
            ends = alive[lengths[alive] == level + 1]
            columns[nodes[ends]] = ends
            trie.columns.append(columns)
        return trie

    def find(self, level: int, keys: np.ndarray) -> np.ndarray:
        """The node of each key at ``level``, -1 where there is none."""
        table = self.keys[level]
        at = np.searchsorted(table, keys)
        return np.where(table[at] == keys, self.ids[level][at], -1)

    def grow(self, level: int, keys: np.ndarray) -> np.ndarray:
        """The node of each key at ``level``, adding the keys not yet there
        under new nodes."""
        table, ids = self.keys[level], self.ids[level]
        distinct, inverse = np.unique(keys, return_inverse=True)
        at = np.searchsorted(table, distinct)
        new = table[at] != distinct
        added = np.count_nonzero(new)
        if len(table) - 1 + added > MAX_IDS:
            raise ValueError(f"more than {MAX_IDS} distinct n-grams of one length")
        nodes = ids[at]
        nodes[new] = len(table) - 1 + np.arange(added)
        self.keys[level] = np.insert(table, at[new], distinct[new])
        self.ids[level] = np.insert(ids, at[new], nodes[new])
        return nodes[inverse]

    def codes(self) -> Iterator[np.ndarray]:
        """Per level, the (nodes x level + 1) symbols of its n-grams."""
        codes = np.zeros((1, 0), dtype=np.uint32)
        for keys, ids in zip(self.keys, self.ids):
            by_node = np.empty(len(ids) - 1, dtype=np.int64)
            by_node[ids[:-1]] = keys[:-1]
            parents, last = np.divmod(by_node, _BASE)
            codes = np.column_stack((codes[parents], last.astype(np.uint32)))
            yield codes


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
        """Fit every block and return the union matrix of ``texts``,
        featurizing each text once per block."""
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
