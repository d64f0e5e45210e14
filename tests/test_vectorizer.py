from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lahja.vectorizer
from lahja import BlockSpec, NotFittedError, TfidfBlock, TfidfUnion

from helpers import count_featurized, pairs, same

TWO_DOC_CORPUS = ["a b a", "b c"]


class TestFitBlock:
    def test_vocabulary_sorted_and_idf(self):
        block = TfidfBlock("word", (1, 1)).fit(TWO_DOC_CORPUS)
        assert block.vocabulary_ == {"a": 0, "b": 1, "c": 2}
        expected = [math.log(3 / 2) + 1, 1.0, math.log(3 / 2) + 1]
        np.testing.assert_allclose(block.idf_, expected, atol=1e-12)

    def test_max_features_tie_breaks_lexicographically(self):
        # a and b both total 2 occurrences; a wins the single slot.
        block = TfidfBlock("word", (1, 1), max_features=1).fit(TWO_DOC_CORPUS)
        assert block.vocabulary_ == {"a": 0}

    def test_max_features_prefers_higher_counts(self):
        block = TfidfBlock("word", (1, 1), max_features=2).fit(["z z z y", "y x"])
        assert set(block.vocabulary_) == {"y", "z"}
        assert block.vocabulary_ == {"y": 0, "z": 1}

    def test_single_doc_idf_is_one(self):
        block = TfidfBlock("word", (1, 1)).fit(["t t"])
        assert block.idf_[block.vocabulary_["t"]] == pytest.approx(1.0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfidfBlock("word", (1, 1)).fit([])

    def test_no_surviving_features_rejected(self):
        with pytest.raises(ValueError):
            TfidfBlock("word", (1, 1)).fit(["...", "!!"])

    def test_invalid_weight_rejected(self):
        with pytest.raises(ValueError):
            BlockSpec((1, 1), weight=0.0)
        with pytest.raises(ValueError):
            BlockSpec((1, 1), weight=1.5)

    def test_fit_is_corpus_order_invariant(self):
        a = TfidfBlock("word", (1, 2), max_features=4).fit(["a b a", "b c", "c d e"])
        b = TfidfBlock("word", (1, 2), max_features=4).fit(["c d e", "a b a", "b c"])
        assert a.vocabulary_ == b.vocabulary_
        np.testing.assert_array_equal(a.idf_, b.idf_)

    @given(
        st.lists(
            st.text(alphabet="abcd ", min_size=1, max_size=10).filter(lambda t: t.strip()),
            min_size=1,
            max_size=8,
        )
    )
    def test_idf_lower_bound(self, texts):
        try:
            block = TfidfBlock("char", (1, 2)).fit(texts)
        except ValueError:
            return  # corpus produced no features
        assert (block.idf_ >= 1.0).all()


class TestTransformBlock:
    def test_hand_computed_values(self):
        block = TfidfBlock("word", (1, 1)).fit(TWO_DOC_CORPUS)
        vec = block.transform(["a b a"])
        assert [i for i, _ in pairs(vec)] == [0, 1]
        np.testing.assert_allclose(vec.values, [0.942156, 0.335176], atol=1e-6)

    def test_oov_only_input_is_empty(self):
        block = TfidfBlock("word", (1, 1)).fit(TWO_DOC_CORPUS)
        assert block.transform(["zzz qqq"]).nnz == 0

    def test_weight_scales_every_value(self):
        texts = TWO_DOC_CORPUS + ["b a c", "c c a"]
        full = TfidfUnion(word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=None).fit(TWO_DOC_CORPUS)
        quarter = TfidfUnion(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 2), weight=0.25), char_wb=None
        ).fit(TWO_DOC_CORPUS)
        v1, v2 = full.transform(texts), quarter.transform(texts)
        np.testing.assert_array_equal(v2.indptr, v1.indptr)
        np.testing.assert_array_equal(v2.indices, v1.indices)
        char = v1.indices >= full.offsets_[1]
        assert char.any() and not char.all()
        np.testing.assert_array_equal(v2.values[char], v1.values[char] * 0.25)
        np.testing.assert_array_equal(v2.values[~char], v1.values[~char])

    def test_unit_norm_at_weight_one(self):
        block = TfidfBlock("char", (1, 3)).fit(TWO_DOC_CORPUS)
        for text in TWO_DOC_CORPUS + ["b a c"]:
            vec = block.transform([text])
            if vec.nnz:
                assert abs(vec.row_norms()[0] - 1.0) < 1e-9

    def test_transform_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            TfidfBlock().transform(["a"])


@pytest.mark.parametrize("kind", ["word", "char", "char_wb"])
def test_fitted_block_pickles(kind):
    block = TfidfBlock(kind, (1, 3)).fit(["a b a", "b c"])
    copy = pickle.loads(pickle.dumps(block))
    assert same(copy.transform(["a b c d", "c b"]), block.transform(["a b c d", "c b"]))


@pytest.mark.parametrize("kind", ["word", "char", "char_wb"])
@pytest.mark.parametrize("max_features", [None, 6])
def test_loaded_block_matches_the_fitted_one(kind, max_features):
    """A fitted block's vocabulary trie comes from the fit's symbols, a
    loaded block's from its names: the same columns for every n-gram."""
    train = ["b a c a", "c b b zz", "a c zz b a"]
    block = TfidfBlock(kind, (1, 3), max_features).fit(train)
    if max_features is not None:
        assert len(TfidfBlock(kind, (1, 3)).fit(train).vocabulary_) > block.n_features_ == max_features
    loaded = TfidfBlock.from_fitted(kind, (1, 3), max_features, block.feature_names(), block.idf_)
    assert loaded.vocabulary_ == block.vocabulary_
    # Unseen tokens and chars, and tokens of n-grams the cap dropped.
    texts = train + ["a q b c", "\u0645 zz a", "zz zz c b", "é b a c a"]
    assert same(loaded.transform(texts), block.transform(texts))


class TestCharVocabularyOnLoad:
    def test_padded_words_shorter_than_lo_load(self):
        block = TfidfBlock("char_wb", (5, 7)).fit(["a bb", "a"])
        assert block.feature_names() == [" a ", " bb "]
        loaded = TfidfBlock.from_fitted("char_wb", (5, 7), None, block.feature_names(), block.idf_)
        assert same(loaded.transform(["bb a a"]), block.transform(["bb a a"]))

    @pytest.mark.parametrize("kind", ["char", "char_wb"])
    @pytest.mark.parametrize("names", [["", "a"], ["a", "abcdefgh"]])
    def test_entries_no_analyzer_emits_rejected(self, kind, names):
        with pytest.raises(ValueError, match="must be 1 to 7 chars long"):
            TfidfBlock.from_fitted(kind, (5, 7), None, names, [1.0, 1.0])

    @pytest.mark.parametrize(
        "names", [["", "a"], ["a", "a b c d e f g h"], [" a", "b"], ["a ", "b"], ["a  b", "b"]]
    )
    def test_word_entries_no_analyzer_emits_rejected(self, names):
        # Empty, more than 7 tokens, or an empty token: a leading, trailing or doubled space.
        with pytest.raises(ValueError, match="must be 1 to 7 tokens joined by single spaces"):
            TfidfBlock.from_fitted("word", (5, 7), None, names, [1.0, 1.0])

    def test_word_entries_of_1_to_hi_tokens_load(self):
        names = ["a", "a b c d e f g", "b_1 \u0645\u0631"]
        block = TfidfBlock.from_fitted("word", (5, 7), None, names, [1.0, 1.0, 1.0])
        assert block.transform(["a b c d e f g", "b_1 \u0645\u0631"]).indices.tolist() == [1]


class TestUnion:
    def test_offsets_are_prefix_sums(self):
        union = TfidfUnion(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=BlockSpec((1, 2))
        ).fit(TWO_DOC_CORPUS)
        sizes = [b.n_features_ for b in union.blocks_]
        assert union.offsets_ == (0, sizes[0], sizes[0] + sizes[1])
        assert union.n_features_ == sum(sizes)

    def test_disabled_blocks_contribute_zero_width(self):
        union = TfidfUnion(word=BlockSpec((1, 1)), char=None, char_wb=None).fit(TWO_DOC_CORPUS)
        assert union.blocks_[1] is None and union.blocks_[2] is None
        assert union.n_features_ == union.blocks_[0].n_features_

    def test_all_disabled_rejected(self):
        with pytest.raises(ValueError):
            TfidfUnion(word=None, char=None, char_wb=None).fit(TWO_DOC_CORPUS)

    def test_empty_text_transforms_to_empty_vector(self):
        union = TfidfUnion(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=BlockSpec((1, 2))
        ).fit(TWO_DOC_CORPUS)
        assert union.transform_one("@@@").nnz == 0

    def test_slices_match_independent_block_transforms(self):
        union = TfidfUnion(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=BlockSpec((1, 2))
        ).fit(TWO_DOC_CORPUS)
        for text in TWO_DOC_CORPUS + ["c a b a"]:
            combined = union.transform_one(text)
            rebuilt = []
            for block, offset in zip(union.blocks_, union.offsets_):
                for idx, value in pairs(block.transform([text])):
                    rebuilt.append((idx + offset, value))
            assert pairs(combined) == rebuilt

    def test_per_block_weight_scaling_leaves_other_slices_bit_identical(self):
        base = TfidfUnion(
            word=BlockSpec((1, 1), weight=1.0),
            char=BlockSpec((1, 2), weight=1.0),
            char_wb=BlockSpec((1, 2), weight=1.0),
        ).fit(TWO_DOC_CORPUS)
        scaled = TfidfUnion(
            word=BlockSpec((1, 1), weight=1.0),
            char=BlockSpec((1, 2), weight=0.25),
            char_wb=BlockSpec((1, 2), weight=1.0),
        ).fit(TWO_DOC_CORPUS)
        text = "a b c"
        v_base = dict(pairs(base.transform_one(text)))
        v_scaled = dict(pairs(scaled.transform_one(text)))
        assert set(v_base) == set(v_scaled)
        lo, hi = base.offsets_[1], base.offsets_[2]
        for idx, value in v_base.items():
            if lo <= idx < hi:
                assert v_scaled[idx] == value * 0.25
            else:
                assert v_scaled[idx] == value  # other slices untouched

    def test_dimension_bound_with_caps(self):
        union = TfidfUnion(
            word=BlockSpec((1, 3), max_features=10),
            char=BlockSpec((1, 5), max_features=10),
            char_wb=BlockSpec((1, 5), max_features=10),
        ).fit(["abc def ghi jkl", "mno pqr stu", "vwx yz abc"])
        assert union.n_features_ <= 30

    @given(
        st.lists(st.text(alphabet="ab c\u0628\u062a", min_size=0, max_size=12), min_size=1, max_size=8),
        st.sampled_from([None, 3, 8]),
    )
    def test_fit_transform_equals_fit_then_transform(self, texts, max_features):
        def union():
            return TfidfUnion(
                word=BlockSpec((1, 2), max_features, 0.5),
                char=BlockSpec((1, 3), max_features),
                char_wb=BlockSpec((2, 4), max_features, 0.75),
            )

        try:
            fitted = union().fit(texts)
        except ValueError:
            return  # some block found no features
        once = union().fit_transform(texts)
        again = fitted.transform(texts)
        np.testing.assert_array_equal(once.indptr, again.indptr)
        np.testing.assert_array_equal(once.indices, again.indices)
        assert once.values.tobytes() == again.values.tobytes()
        assert once.n_cols == again.n_cols == fitted.n_features_

    def test_batch_rows_equal_one_text_rows(self):
        union = TfidfUnion(
            word=BlockSpec((1, 2)), char=BlockSpec((1, 3), max_features=20), char_wb=BlockSpec((1, 3))
        ).fit(TWO_DOC_CORPUS)
        texts = ["a b a", "zz", "c b", "b a c a"]
        batch = union.transform(texts)
        assert all(same(batch.take([r]), union.transform_one(t)) for r, t in enumerate(texts))

    def test_one_analyzer_call_per_text_per_block(self, monkeypatch):
        featurized = count_featurized(monkeypatch)
        texts = ["a b a", "b c", "", "c d e"]
        # A budget of 1 code point puts each text in a chunk of its own.
        for budget in (1, 1 << 14):
            monkeypatch.setattr(lahja.vectorizer, "_BUDGET", budget)
            featurized.clear()
            TfidfUnion(word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=BlockSpec((2, 3))).fit_transform(texts)
            assert featurized == {("word", (1, 1)): 4, ("char", (1, 2)): 4, ("char_wb", (2, 3)): 4}

    def test_get_params_round_trip(self):
        spec = BlockSpec((1, 3), 100, 0.5)
        union = TfidfUnion(word=spec, char=None, char_wb=None)
        params = union.get_params()
        clone = TfidfUnion(**params)
        assert clone.get_params() == params
