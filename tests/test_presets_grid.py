from __future__ import annotations

import json

import pytest

from lahja import (
    DialectPipeline,
    GridSizeError,
    GridSpec,
    PRESET_NAMES,
    PipelineConfig,
    dumps_model,
    enumerate_grid,
    make_synthetic,
    preset,
    save_tsv,
)
from lahja.cli import main

# Mistyped fields, one (reader, payload) row each. A "grid" row is read as a
# grid file. A "config" row is read as a config file, which must exit 1 before
# training, and merged into a fitted bundle's config, which must exit 2.
MISTYPED = [
    ("grid", {"n": [2.5]}),
    ("grid", {"n": [2.0]}),
    ("grid", {"n": [True]}),
    ("grid", {"n": ["2"]}),
    ("grid", {"max_features": [300.0]}),
    ("grid", {"max_features": [False]}),
    ("grid", {"k": 3.9}),
    ("grid", {"k": "3"}),
    ("grid", {"n_trees": True}),
    ("grid", {"n_trees": 10.0}),
    ("grid", {"seed": 1.5}),
    ("grid", {"balanced": "false"}),
    ("grid", {"balanced": 0}),
    ("grid", {"balanced": None}),
    ("grid", {"C": [True]}),
    ("grid", {"C": ["1.0"]}),
    ("grid", {"w1": [False]}),
    ("grid", {"w2": ["0.5"]}),
    ("grid", {"w3": [None]}),
    ("grid", {"v1": [True]}),
    ("grid", {"v2": ["0.2"]}),
    ("grid", {"v3": [[0.1]]}),
    ("grid", {"C": [float("inf")]}),
    ("grid", {"C": [10**400]}),
    ("grid", {"classifier": 1}),
    ("grid", {"policy": {"kind": "argmax", "tau": "0.5"}}),
    ("config", {"svc": {"balanced": "false"}}),
    ("config", {"svc": {"balanced": 1}}),
    ("config", {"svc": {"C": True}}),
    ("config", {"svc": {"C": "1e999"}}),
    ("config", {"svc": {"C": float("inf")}}),
    ("config", {"svc": {"C": 10**400}}),
    ("config", {"svc": {"tol": True}}),
    ("config", {"svc": {"max_epochs": 1000.0}}),
    ("config", {"svc": None}),
    ("config", {"policy": {"kind": "threshold", "tau": "nan"}}),
    ("config", {"policy": {"kind": "threshold", "tau": True}}),
    ("config", {"policy": {"kind": "topk", "k": 1.0}}),
    ("config", {"word": {"ngram_range": 5}}),
    ("config", {"word": {"ngram_range": [1, 1, 1]}}),
    ("config", {"word": {"ngram_range": [1, "2"]}}),
    ("config", {"word": {"weight": "0.5"}}),
    ("config", {"word": {"weight": True}}),
    ("config", {"char": {"max_features": 50.0}}),
    ("config", {"vote_weights": 5}),
    ("config", {"vote_weights": [True, 1, 1]}),
    ("config", {"vote_weights": [1, 1]}),
    ("config", {"vote_weights": ["0.4", 0.3, 0.3]}),
    ("config", {"k": "3"}),
    ("config", {"seed": None}),
    ("config", {"classifier": ["svc"]}),
    ("config", {"forest": {"n_trees": True}}),
    # A seed numpy's RandomState cannot take used to fail only once training began.
    ("grid", {"seed": -1}),
    ("grid", {"seed": 2**40}),
    ("config", {"seed": -1}),
    ("config", {"seed": 2**32}),
]


def merged(base: dict, edit: dict) -> dict:
    """``base`` with ``edit`` written into it, object fields merged recursively."""
    out = dict(base)
    for key, value in edit.items():
        both = isinstance(value, dict) and isinstance(base.get(key), dict)
        out[key] = merged(base[key], value) if both else value
    return out


@pytest.fixture(scope="module")
def vote_files(tmp_path_factory):
    """A training TSV and the bundle of a voting pipeline fitted on it."""
    root = tmp_path_factory.mktemp("typed")
    ds = make_synthetic(3, 10, 8, 0.0, seed=2)
    save_tsv(ds, root / "train.tsv")
    bundle = json.loads(dumps_model(DialectPipeline(PipelineConfig(classifier="vote")).fit(ds)))
    return root, bundle


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
        spec = GridSpec(n=(1, 2), w1=(0.5, 1.0), C=(1.0,), v3=(0.1, 0.2, 0.3), classifier="vote")
        assert spec.size() == 12
        assert len(enumerate_grid(spec)) == 12

    @pytest.mark.parametrize(
        "fields, count",
        [
            ({"classifier": "knn"}, 5),
            ({"n": [1, 2], "C": [1.0, 2.0], "classifier": "knn", "k": 3}, 2),
            ({"n": [1], "C": [2.0, 1.0], "v1": [0.2, 0.6], "classifier": "forest"}, 1),
            ({"n": [1], "C": [2.0, 1.0], "v1": [0.2, 0.6], "v3": [0.5, 1.0]}, 2),
            ({"n": [1], "C": [2.0, 1.0], "v1": [0.2, 0.6], "v3": [0.5, 1.0], "classifier": "vote"}, 8),
        ],
        ids=["knn-defaults", "knn-C", "forest-C-v1", "svc-v1-v3", "vote-reads-all"],
    )
    def test_a_field_the_configs_never_read_keeps_its_first_candidate(self, fields, count):
        spec = GridSpec.from_dict(fields)
        configs = enumerate_grid(spec)
        assert spec.size() == len(configs) == len(set(configs)) == count
        if spec.classifier in ("forest", "knn"):
            assert {config.svc.C for config in configs} == {spec.C[0]}
        if spec.classifier != "vote":
            assert {config.vote_weights for config in configs} == {(spec.v1[0], spec.v2[0], spec.v3[0])}
        with pytest.raises(GridSizeError, match=str(count)):
            enumerate_grid(spec, max_configs=count - 1)

    @pytest.mark.parametrize("field, bad", [("C", 0.0), ("v2", -1.0)])
    def test_an_unread_field_is_still_validated(self, field, bad):
        with pytest.raises(ValueError, match=f"grid field '{field}' candidate"):
            GridSpec.from_dict({"classifier": "knn", field: [1.0, bad]})

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

    @pytest.mark.parametrize("payload", MISTYPED)
    def test_from_dict_rejects_wrong_json_types(self, payload, vote_files, capsys):
        reader, fields = payload
        if reader == "grid":
            with pytest.raises(ValueError, match="must be"):
                GridSpec.from_dict(fields)
            return
        root, bundle = vote_files
        (root / "config.json").write_text(json.dumps(fields), encoding="utf-8")
        out = root / "never.json"
        assert main(["train", "--train-file", str(root / "train.tsv"), "--config",
                     str(root / "config.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("lahja: error: config file") and "must be" in err
        assert not out.exists()

        edited = dict(bundle, config=merged(bundle["config"], fields))
        (root / "bundle.json").write_text(json.dumps(edited), encoding="utf-8")
        assert main(["predict", "--model", str(root / "bundle.json"), "--in", str(root / "train.tsv"),
                     "--out", str(root / "preds.tsv")]) == 2
        assert capsys.readouterr().err.startswith("lahja: data error:")

    def test_from_dict_reads_json_numbers(self):
        spec = GridSpec.from_dict(
            {"n": [2], "max_features": [None, 300], "C": [1, 2.5], "w1": [1], "v3": [0.5],
             "balanced": False, "k": 5, "n_trees": 7, "seed": 3}
        )
        assert spec.n == (2,) and spec.max_features == (None, 300)
        assert spec.C == (1.0, 2.5) and all(type(c) is float for c in spec.C)
        assert spec.w1 == (1.0,) and spec.v3 == (0.5,)
        assert spec.balanced is False and (spec.k, spec.n_trees, spec.seed) == (5, 7, 3)
