"""Integer-coded word, char and char_wb n-grams against the string analyzers.

A block featurizes a batch as symbols (token ids or code points) and never
builds its n-grams as strings; these tests hold it to ``word_ngrams``,
``char_ngrams`` and ``char_wb_ngrams`` n-gram by n-gram and TF-IDF bit by
bit.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lahja.analyzers
import lahja.vectorizer
from lahja import TfidfBlock
from lahja.analyzers import Symbols

from helpers import reference_ngram_counts, reference_tfidf, reference_vocabulary, same

KINDS = ("word", "char", "char_wb")

# Characters the analyzers treat unlike plain letters: Arabic letters with
# diacritics and tatweel, combining marks, astral emoji joined by ZWJ, lone
# surrogates (a Python str may hold them), Unicode whitespace, a zero-width
# space (not whitespace), and word and non-word ASCII.
SPECIAL = [
    "\u0645", "\u0631", "\u062d", "\u064e", "\u0651", "\u0652", "\u0640",
    "e", "\u0301", "\u0308",
    "\U0001F469", "\u200d", "\U0001F4BB", "\U0001F600",
    "\ud800", "\udbff", "\udc00", "\udfff",
    " ", "\u00a0", "\u2003", "\u3000", "\t", "\n", "\x1c", "\x85", "\u2028", "\u200b",
    "a", "b", "_", "1", "-", ".",
]
chars = st.one_of(st.sampled_from(SPECIAL), st.characters())
# Texts of a few tokens, so that word n-grams repeat within and across texts:
# Arabic, a letter before a combining mark (which ends the token), astral
# letters, digits and underscore, between whitespace and non-word separators.
TOKENS = ["a", "b", "ab", "\u0645\u0631", "e\u0301", "x_1", "\U0001D400", "7"]
SEPARATORS = [" ", "  ", "\t", "\n ", "-", ".", "\u00a0", "\u3000", "\u200b", "\U0001F600"]
token_text = st.lists(st.tuples(st.sampled_from(TOKENS), st.sampled_from(SEPARATORS)), max_size=12).map(
    lambda pairs: "".join(token + separator for token, separator in pairs)
)
text = st.one_of(st.text(chars, max_size=30), token_text)
texts = st.lists(text, min_size=1, max_size=8)
ranges = st.tuples(st.integers(1, 10), st.integers(1, 10)).map(lambda p: (min(p), max(p)))
# A budget of 1 code point gives every text a chunk of its own.
budgets = st.sampled_from([1, 7, 1 << 14])


def coded_counts(kind: str, ngram_range: tuple[int, int], batch: list[str]) -> list[Counter]:
    """Each text's n-gram counts as a block fit counts them."""
    _, names, _, docs, grams, counts = TfidfBlock(kind, ngram_range)._count(batch)
    found = [Counter() for _ in batch]
    for doc, gram, count in zip(docs.tolist(), grams.tolist(), counts.tolist()):
        found[doc][names[gram]] += count
    return found


def assert_matches_string_path(kind, ngram_range, max_features, train, test) -> None:
    """Fit on ``train`` and transform ``test``: the same vocabulary, idf and
    matrix bits as the string analyzer gives."""
    names, idf = reference_vocabulary(kind, ngram_range, max_features, train)
    block = TfidfBlock(kind, ngram_range, max_features)
    try:
        fitted = block.fit_transform(train)
    except ValueError:
        assert not names  # no n-gram in any training text
        return
    assert block.feature_names() == names
    assert block.idf_.tobytes() == idf.tobytes()
    assert same(fitted, reference_tfidf(kind, ngram_range, names, idf, train))
    assert same(block.transform(test), reference_tfidf(kind, ngram_range, names, idf, test))


@given(kind=st.sampled_from(KINDS), ngram_range=ranges, batch=texts, budget=budgets)
@settings(max_examples=150, deadline=None)
def test_ngram_counts_match_string_analyzer(kind, ngram_range, batch, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lahja.vectorizer, "_BUDGET", budget)
        assert coded_counts(kind, ngram_range, batch) == reference_ngram_counts(kind, ngram_range, batch)


@given(
    kind=st.sampled_from(KINDS),
    ngram_range=ranges,
    max_features=st.sampled_from([None, 1, 2, 5, 40]),
    train=texts,
    test=st.lists(text, max_size=6),
    budget=budgets,
)
@settings(max_examples=150, deadline=None)
def test_tfidf_bytes_match_string_path(kind, ngram_range, max_features, train, test, budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lahja.vectorizer, "_BUDGET", budget)
        assert_matches_string_path(kind, ngram_range, max_features, train, test)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ngram_range", [(1, 10), (8, 10)])
def test_wide_alphabet_and_long_ngrams(monkeypatch, kind, ngram_range):
    """Over 4,096 distinct code points (CJK and astral), n up to 10, in
    chunks of about 256 code points."""
    monkeypatch.setattr(lahja.vectorizer, "_BUDGET", 256)
    rng = np.random.default_rng(5)
    alphabet = np.concatenate((np.arange(0x4E00, 0x4E00 + 5000), np.arange(0x1F300, 0x1F300 + 1000), [32] * 600))
    texts = ["".join(map(chr, rng.choice(alphabet, rng.integers(0, 80)))) for _ in range(300)]
    train, test = texts[:240], texts[240:]
    assert len(set("".join(train))) > 4096
    assert_matches_string_path(kind, ngram_range, None, train, test)
    assert_matches_string_path(kind, ngram_range, 300, train, test)


@pytest.mark.parametrize("kind", KINDS)
def test_chars_absent_at_fit_are_out_of_vocabulary(kind):
    block = TfidfBlock(kind, (1, 3)).fit(["ab ba", "abc"])
    found = block.transform(["zzz\U0001F600\ud800"]).indices
    assert {block.feature_names()[c] for c in found} <= {" "}  # char_wb pads zzz with spaces
    # A window is out of vocabulary once any of its chars, or tokens, is.
    assert_matches_string_path(kind, (1, 3), None, ["ab ba", "abc"], ["azb", "q", "ab\u0301", "ab q ba ab ba"])


def test_char_wb_takes_a_padded_word_shorter_than_lo_whole():
    block = TfidfBlock("char_wb", (5, 7)).fit(["a bb ccc dddd"])
    assert block.feature_names() == [" a ", " bb ", " ccc ", " dddd", " dddd ", "dddd "]
    assert_matches_string_path("char_wb", (5, 7), None, ["a bb ccc dddd"], ["a", "ccc x", "eeeeeeee"])


@pytest.mark.parametrize("kind", KINDS)
def test_max_features_ties_go_to_the_smaller_string(kind):
    # Every 1-gram and 2-gram occurs once per text: all tie on their counts.
    train = ["xyzw", "wzyx", "ab", "ba"]
    for max_features in range(1, 20):
        assert_matches_string_path(kind, (1, 2), max_features, train, ["wxyz ab"])


@pytest.mark.parametrize("kind", KINDS)
def test_documents_with_no_ngrams(kind):
    # Empty, too short for n = 4, whitespace or punctuation only.
    train = ["", "abcdef", "ab", "   ", "--", "\t", "abc de"]
    assert_matches_string_path(kind, (4, 5), None, train, ["", "ab", "-"])
    with pytest.raises(ValueError, match="no features"):
        TfidfBlock(kind, (4, 5)).fit(["", "--"])


@pytest.mark.parametrize("kind", KINDS)
def test_code_stream_segments_hold_every_window(kind):
    text = " a  b\t\nc--dd \ud800\U0001F600 "
    symbols = Symbols(kind)
    stream = symbols.stream([text, "", "x"], grow=True)
    segments = np.split(stream.codes, np.flatnonzero(stream.start)[1:])
    strings = [symbols.names(segment[None, :])[0] for segment in segments]
    if kind == "word":
        assert strings == ["a b c dd", "x"]
    elif kind == "char":
        assert strings == [" a b c--dd \ud800\U0001F600 ", "x"]
    else:
        assert strings == [" a ", " b ", " c ", " dd ", " x "]
    assert stream.doc.tolist() == [0] * (len(stream.codes) - len(segments[-1])) + [2] * len(segments[-1])


def test_ids_and_nodes_past_the_key_bound_rejected(monkeypatch):
    # Keys stay below 2**63 because token ids and trie nodes stay below MAX_IDS.
    monkeypatch.setattr(lahja.analyzers, "MAX_IDS", 3)
    with pytest.raises(ValueError, match="more than 3 distinct tokens"):
        TfidfBlock("word", (1, 1)).fit(["a b c d"])
    monkeypatch.setattr(lahja.vectorizer, "MAX_IDS", 3)
    with pytest.raises(ValueError, match="more than 3 distinct n-grams of one length"):
        TfidfBlock("char", (1, 1)).fit(["abcd"])
    assert TfidfBlock("char", (1, 2)).fit(["abc", "cab"]).n_features_ == 6  # 3 nodes a level
