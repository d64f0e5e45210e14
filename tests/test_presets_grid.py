from __future__ import annotations

import pytest

from lahja import (
    GridSizeError,
    GridSpec,
    PRESET_NAMES,
    enumerate_grid,
    preset,
)


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == (
            "baseline",
            "exp1",
            "exp2-1",
            "exp2-2",
            "exp2-3",
            "exp2-4",
            "exp2-5",
            "exp3-hard",
            "exp3-weighted",
        )

    def test_baseline_is_word_unigram_svc(self):
        cfg = preset("baseline")
        assert cfg.word is not None and cfg.word.ngram_range == (1, 1) and cfg.word.weight == 1.0
        assert cfg.char is None and cfg.char_wb is None
        assert cfg.classifier == "svc"
        assert cfg.svc.balanced is False

    def test_exp1_ranges_weights_and_classifier(self):
        cfg = preset("exp1")
        assert cfg.word.ngram_range == (1, 3)
        assert cfg.char.ngram_range == (1, 5)
        assert cfg.char_wb.ngram_range == (1, 5)
        assert (cfg.word.weight, cfg.char.weight, cfg.char_wb.weight) == (1.0, 1.0, 1.0)
        assert cfg.svc.C == 5.0 and cfg.svc.balanced is True

    def test_exp2_2_row(self):
        cfg = preset("exp2-2")
        assert cfg.word.ngram_range == (1, 5)
        assert cfg.char.ngram_range == (1, 5)
        assert cfg.char_wb.ngram_range == (1, 5)
        assert (cfg.word.weight, cfg.char.weight, cfg.char_wb.weight) == (0.65, 0.85, 0.85)
        assert cfg.svc.C == 4.0 and cfg.svc.balanced is True

    def test_exp2_3_unbalanced(self):
        cfg = preset("exp2-3")
        assert cfg.word.ngram_range == (1, 3)
        assert cfg.char.ngram_range == (1, 4)
        assert cfg.char_wb.ngram_range == (1, 5)
        assert (cfg.word.weight, cfg.char.weight, cfg.char_wb.weight) == (0.45, 0.5, 0.75)
        assert cfg.svc.balanced is False

    def test_vote_presets(self):
        hard = preset("exp3-hard")
        weighted = preset("exp3-weighted")
        assert hard.classifier == "vote" and weighted.classifier == "vote"
        assert hard.vote_weights == (1.0, 1.0, 1.0)
        assert weighted.vote_weights == (0.4, 0.3, 0.3)
        assert hard.k == 3 and hard.forest.n_trees == 100

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ValueError, match="baseline"):
            preset("exp9")


class TestEnumerateGrid:
    def test_cross_product_count(self):
        spec = GridSpec(n=(1, 2, 3), C=(1.0, 2.0))
        assert len(enumerate_grid(spec)) == 6

    def test_all_singleton_spec(self):
        spec = GridSpec(n=(2,), C=(3.0,))
        configs = enumerate_grid(spec)
        assert len(configs) == 1
        assert configs[0].word.ngram_range == (1, 2)
        assert configs[0].svc.C == 3.0

    def test_ordering_n_slowest_then_c(self):
        spec = GridSpec(n=(1, 2, 3, 4, 5), C=(1.0, 2.0, 3.0, 4.0, 5.0))
        configs = enumerate_grid(spec)
        assert len(configs) == 25
        seen = [(cfg.word.ngram_range[1], cfg.svc.C) for cfg in configs]
        assert seen[:6] == [(1, 1.0), (1, 2.0), (1, 3.0), (1, 4.0), (1, 5.0), (2, 1.0)]

    def test_count_is_product_of_list_lengths(self):
        spec = GridSpec(n=(1, 2), w1=(0.5, 1.0), C=(1.0,), v3=(0.1, 0.2, 0.3))
        assert spec.size() == 12
        assert len(enumerate_grid(spec)) == 12

    def test_safety_cap_error_reports_count(self):
        spec = GridSpec(n=(1, 2, 3, 4, 5), C=(1.0, 2.0, 3.0, 4.0, 5.0))
        with pytest.raises(GridSizeError, match="25"):
            enumerate_grid(spec, max_configs=10)

    def test_weights_map_to_blocks(self):
        spec = GridSpec(
            n=(3,), w1=(0.4,), w2=(0.5,), w3=(0.6,), max_features=(200,), C=(2.0,),
            v1=(0.3,), v2=(0.2,), v3=(0.1,), classifier="vote",
        )
        (cfg,) = enumerate_grid(spec)
        assert cfg.word.weight == 0.4 and cfg.char.weight == 0.5 and cfg.char_wb.weight == 0.6
        assert cfg.word.max_features == 200
        assert cfg.vote_weights == (0.3, 0.2, 0.1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown"):
            GridSpec.from_dict({"n": [1], "alpha": [0.1]})

    def test_dict_round_trip(self):
        spec = GridSpec(n=(1, 3), C=(2.0,), classifier="vote", balanced=False, seed=4)
        assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(n=())

    @pytest.mark.parametrize(
        "payload",
        [
            {"n": [2.5]},
            {"n": [2.0]},
            {"n": [True]},
            {"n": ["2"]},
            {"max_features": [300.0]},
            {"max_features": [False]},
            {"k": 3.9},
            {"k": "3"},
            {"n_trees": True},
            {"n_trees": 10.0},
            {"seed": 1.5},
            {"balanced": "false"},
            {"balanced": 0},
            {"balanced": None},
            {"C": [True]},
            {"C": ["1.0"]},
            {"w1": [False]},
            {"w2": ["0.5"]},
            {"w3": [None]},
            {"v1": [True]},
            {"v2": ["0.2"]},
            {"v3": [[0.1]]},
        ],
    )
    def test_from_dict_rejects_wrong_json_types(self, payload):
        with pytest.raises(ValueError, match="must be"):
            GridSpec.from_dict(payload)

    def test_from_dict_reads_json_numbers(self):
        spec = GridSpec.from_dict(
            {"n": [2], "max_features": [None, 300], "C": [1, 2.5], "w1": [1], "v3": [0.5],
             "balanced": False, "k": 5, "n_trees": 7, "seed": 3}
        )
        assert spec.n == (2,) and spec.max_features == (None, 300)
        assert spec.C == (1.0, 2.5) and all(type(c) is float for c in spec.C)
        assert spec.w1 == (1.0,) and spec.v3 == (0.5,)
        assert spec.balanced is False and (spec.k, spec.n_trees, spec.seed) == (5, 7, 3)
