"""N-gram analyzers mapping raw text to streams of feature strings.

Three modes: word n-grams over tokenized text, character n-grams over the
whitespace-collapsed character sequence, and character n-grams bounded within
space-padded words. No case folding or accent stripping is applied anywhere.

The string functions here specify each mode; the TF-IDF blocks do not call
them. A block reads a whole batch at once through :class:`Symbols`: the
same tokens as integer token ids, or the same characters as integer code
points, cut into segments that the block windows with numpy. This module
holds everything that depends on the analyzer but the window rule: how
texts become symbol streams, and how rows of symbols become n-gram names
and back.
"""

from __future__ import annotations

import itertools
import re
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .base import check_ngram_range

WORD = "word"
CHAR = "char"
CHAR_WB = "char_wb"
ANALYZER_KINDS = (WORD, CHAR, CHAR_WB)
# Token ids, and the nodes of the blocks' n-gram tries, stay below this.
MAX_IDS = 1 << 31

# \w in Python 3 matches Unicode letters/digits plus underscore; everything
# else is a separator.
_TOKEN_RE = re.compile(r"\w+")
_WHITESPACE_RE = re.compile(r"\s+")


def tokenize_words(text: str) -> list[str]:
    """Split text into maximal runs of Unicode letters/digits/underscore."""
    return _TOKEN_RE.findall(text)


def collapse_whitespace(text: str) -> str:
    """Replace every whitespace run with a single space."""
    return _WHITESPACE_RE.sub(" ", text)


def word_ngrams(tokens: list[str], ngram_range: tuple[int, int]) -> list[str]:
    """Space-joined token windows for each n in the range, n ascending."""
    lo, hi = check_ngram_range(ngram_range)
    out: list[str] = []
    count = len(tokens)
    for n in range(lo, hi + 1):
        for i in range(count - n + 1):
            out.append(" ".join(tokens[i : i + n]))
    return out


def char_ngrams(text: str, ngram_range: tuple[int, int]) -> list[str]:
    """Every contiguous n-character window of the whitespace-collapsed text."""
    lo, hi = check_ngram_range(ngram_range)
    t = collapse_whitespace(text)
    length = len(t)
    out: list[str] = []
    for n in range(lo, hi + 1):
        for i in range(length - n + 1):
            out.append(t[i : i + n])
    return out


def char_wb_ngrams(text: str, ngram_range: tuple[int, int]) -> list[str]:
    """Character n-grams confined within space-padded words.

    Each word is padded with one space on each side. For each n (ascending),
    windows are taken inside the padded word; once n reaches the padded
    length, the whole padded word is emitted once and larger n contribute
    nothing for that word.
    """
    lo, hi = check_ngram_range(ngram_range)
    out: list[str] = []
    for token in tokenize_words(text):
        padded = f" {token} "
        length = len(padded)
        for n in range(lo, hi + 1):
            if n >= length:
                out.append(padded)
                break
            for i in range(length - n + 1):
                out.append(padded[i : i + n])
    return out


def build_analyzer(kind: str, ngram_range: tuple[int, int]) -> Callable[[str], list[str]]:
    """Return a picklable callable mapping text to its feature strings."""
    check_ngram_range(ngram_range)
    if kind == WORD:
        return partial(_analyze_word, ngram_range=ngram_range)
    if kind == CHAR:
        return partial(char_ngrams, ngram_range=ngram_range)
    if kind == CHAR_WB:
        return partial(char_wb_ngrams, ngram_range=ngram_range)
    raise ValueError(f"unknown analyzer {kind!r}; expected one of {ANALYZER_KINDS}")


def _analyze_word(text: str, ngram_range: tuple[int, int]) -> list[str]:
    return word_ngrams(tokenize_words(text), ngram_range)


class CodeStream(NamedTuple):
    """The symbols an analyzer windows over, for a batch. Per position:
    ``codes`` its symbol, ``doc`` the index of its text, ``room`` the number
    of positions from it to the end of its segment and ``start`` whether it
    begins one. A segment is one text's tokens (word), one
    whitespace-collapsed text (char) or one space-padded word (char_wb), and
    every n-gram of the string analyzer is a window inside one segment."""

    codes: np.ndarray
    doc: np.ndarray
    room: np.ndarray
    start: np.ndarray


class Symbols:
    """How one analyzer's texts become symbol streams, and rows of symbols
    n-gram names and back. A char or char_wb symbol is a code point; a word
    symbol is a token's id in ``ids``, numbered as first seen, and a word
    n-gram's name is its tokens joined by single spaces."""

    def __init__(self, kind: str):
        self.kind = kind
        self.ids = _TokenIds()

    @classmethod
    def of(cls, kind: str, names: Sequence[str], hi: int) -> tuple["Symbols", np.ndarray, np.ndarray]:
        """The symbols of a vocabulary of ``kind`` n-grams, and its ``names``
        as one array of symbols and their lengths. Raises ValueError for an
        entry the analyzer cannot emit: one that is empty, longer than ``hi``
        or, for word, holds an empty token."""
        symbols = cls(kind)
        if kind == WORD:
            lengths = np.array(list(map(str.count, names, itertools.repeat(" "))), dtype=np.int64) + 1
            tokens = itertools.chain.from_iterable(map(str.split, names, itertools.repeat(" ")))
            codes = np.fromiter(map(symbols.ids.__getitem__, tokens), dtype=np.int64, count=int(lengths.sum()))
        else:
            codes, lengths = _code_points("".join(names)), np.array(list(map(len, names)), dtype=np.int64)
        if len(names) and ("" in symbols.ids or lengths.min() < 1 or lengths.max() > hi):
            unit = "tokens joined by single spaces" if kind == WORD else "chars long"
            raise ValueError(f"every {kind} vocabulary entry must be 1 to {hi} {unit}")
        return symbols, codes, lengths

    def stream(self, texts: Sequence[str], grow: bool = False) -> CodeStream:
        """The :class:`CodeStream` of ``texts``. A token not in ``ids`` is
        added there if ``grow``, else gets the id ``len(ids)``, which no
        n-gram of the vocabulary holds."""
        if self.kind == WORD:
            found = list(map(_TOKEN_RE.findall, texts))
            tokens = list(itertools.chain.from_iterable(found))
            unseen = itertools.repeat(len(self.ids))
            ids = map(self.ids.__getitem__, tokens) if grow else map(self.ids.get, tokens, unseen)
            doc = np.repeat(np.arange(len(texts)), list(map(len, found)))
            return _segmented(np.fromiter(ids, dtype=np.int64, count=len(tokens)), doc, doc)
        points = _code_points("".join(texts))
        doc = np.repeat(np.arange(len(texts)), list(map(len, texts)))
        # Whether the position before each one is in the same text and of the class.
        after = np.zeros(len(points), dtype=bool)
        after[1:] = doc[1:] == doc[:-1]
        if self.kind == CHAR:
            space = _in_class(points, _WHITESPACE_RE)
            after[1:] &= space[:-1]
            keep = ~(space & after)
            return _segmented(np.where(space, 32, points)[keep], doc[keep], doc[keep])
        word = _in_class(points, _TOKEN_RE)
        after[1:] &= word[:-1]
        begins = (word & ~after)[word]
        token = np.cumsum(begins) - 1  # of each word char
        sizes = np.bincount(token, minlength=int(begins.sum())) + 2
        codes = np.full(int(sizes.sum()), 32, dtype=np.int64)
        codes[np.arange(len(token)) + 2 * token + 1] = points[word]
        segment = np.repeat(np.arange(len(sizes)), sizes)
        return _segmented(codes, np.repeat(doc[word][begins], sizes), segment)

    def names(self, rows: np.ndarray) -> list[str]:
        """The names of the n-grams whose symbols are the rows of ``rows``."""
        if self.kind == WORD:
            return list(map(" ".join, np.array(list(self.ids), dtype=object)[rows].tolist()))
        length = rows.shape[1]
        text = rows.astype("<u4").tobytes().decode("utf-32-le", "surrogatepass")
        return [text[i : i + length] for i in range(0, len(text), length)]


class _TokenIds(dict):
    """Token -> id; looking up a new token with ``[]`` numbers it next."""

    def __missing__(self, token: str) -> int:
        if len(self) >= MAX_IDS:
            raise ValueError(f"more than {MAX_IDS} distinct tokens")
        self[token] = number = len(self)
        return number


def _code_points(text: str) -> np.ndarray:
    return np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)


def _segmented(codes: np.ndarray, doc: np.ndarray, segment: np.ndarray) -> CodeStream:
    """The stream of ``codes``, cut where ``segment``, non-decreasing, steps."""
    sizes = np.bincount(segment)
    room = np.cumsum(sizes)[segment] - np.arange(len(codes))
    return CodeStream(codes, doc, room, room == sizes[segment])


def _in_class(points: np.ndarray, pattern: re.Pattern) -> np.ndarray:
    """Whether each code point on its own is matched by ``pattern``."""
    distinct, inverse = np.unique(points, return_inverse=True)
    matched = [pattern.fullmatch(chr(point)) is not None for point in distinct.tolist()]
    return np.array(matched, dtype=bool)[inverse]
