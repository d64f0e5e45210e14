"""N-gram analyzers mapping raw text to streams of feature strings.

Three modes: word n-grams over tokenized text, character n-grams over the
whitespace-collapsed character sequence, and character n-grams bounded within
space-padded words. No case folding or accent stripping is applied anywhere.

The string functions here specify each mode. The TF-IDF blocks featurize
word n-grams through them, one text at a time; char and char_wb blocks read
a whole batch at once from :func:`code_stream`, the same characters as
integer code points cut into segments, and window those with numpy.
"""

from __future__ import annotations

import re
from functools import partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .base import check_ngram_range

WORD = "word"
CHAR = "char"
CHAR_WB = "char_wb"
ANALYZER_KINDS = (WORD, CHAR, CHAR_WB)

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
    """The characters a char or char_wb analyzer windows over, for a batch.

    Per position: ``codes`` its code point, ``doc`` the index of its text,
    ``room`` the number of positions from it to the end of its segment and
    ``start`` whether it begins one. A char segment is one
    whitespace-collapsed text; a char_wb segment is one space-padded word.
    Every n-gram of the string analyzer is a window inside one segment.
    """

    codes: np.ndarray
    doc: np.ndarray
    room: np.ndarray
    start: np.ndarray


def code_stream(texts: Sequence[str], kind: str) -> CodeStream:
    """The :class:`CodeStream` of ``texts`` under a char or char_wb analyzer."""
    lengths = np.fromiter(map(len, texts), dtype=np.int64, count=len(texts))
    points = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4").astype(np.int64)
    doc = np.repeat(np.arange(len(texts)), lengths)
    # Whether the position before each one is in the same text and of the class.
    after = np.zeros(len(points), dtype=bool)
    after[1:] = doc[1:] == doc[:-1]
    if kind == CHAR:
        space = _in_class(points, _WHITESPACE_RE)
        after[1:] &= space[:-1]
        keep = ~(space & after)
        codes, doc = np.where(space, 32, points)[keep], doc[keep]
        segment = doc
    elif kind == CHAR_WB:
        word = _in_class(points, _TOKEN_RE)
        after[1:] &= word[:-1]
        begins = (word & ~after)[word]
        token = np.cumsum(begins) - 1  # of each word char
        sizes = np.bincount(token, minlength=int(begins.sum())) + 2
        codes = np.full(int(sizes.sum()), 32, dtype=np.int64)
        codes[np.arange(len(token)) + 2 * token + 1] = points[word]
        segment = np.repeat(np.arange(len(sizes)), sizes)
        doc = np.repeat(doc[word][begins], sizes)
    else:
        raise ValueError(f"no code stream for analyzer {kind!r}; expected {CHAR!r} or {CHAR_WB!r}")
    sizes = np.bincount(segment)
    room = np.cumsum(sizes)[segment] - np.arange(len(codes))
    return CodeStream(codes, doc, room, room == sizes[segment])


def _in_class(points: np.ndarray, pattern: re.Pattern) -> np.ndarray:
    """Whether each code point on its own is matched by ``pattern``."""
    distinct, inverse = np.unique(points, return_inverse=True)
    matched = [pattern.fullmatch(chr(point)) is not None for point in distinct.tolist()]
    return np.array(matched, dtype=bool)[inverse]
