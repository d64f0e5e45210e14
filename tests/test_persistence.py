from __future__ import annotations

import json
import random
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lahja import (
    BlockSpec,
    BundleFormatError,
    DialectPipeline,
    PipelineConfig,
    dumps_model,
    load_model,
    loads_model,
    PRESET_NAMES,
    make_synthetic,
    preset,
    save_model,
)
from lahja import persistence
from lahja.persistence import bundle_to_dict, dumps_canonical, pipeline_from_dict

from helpers import reference_write_canonical, same


@pytest.fixture(scope="module")
def fitted_vote_pipeline():
    ds = make_synthetic(3, 15, 8, 0.0, seed=13)
    cfg = PipelineConfig(
        word=BlockSpec((1, 1)),
        char=BlockSpec((1, 3), max_features=50),
        char_wb=BlockSpec((1, 3), max_features=50),
        classifier="vote",
        vote_weights=(0.4, 0.3, 0.3),
        seed=3,
    )
    return DialectPipeline(cfg).fit(ds), ds


def random_texts(dataset, count: int, seed: int) -> list[str]:
    rng = random.Random(seed)
    tokens = sorted({tok for text in dataset.texts() for tok in text.split()})
    texts = []
    for _ in range(count):
        picks = [rng.choice(tokens) for _ in range(rng.randint(3, 10))]
        if rng.random() < 0.3:
            picks.append("zz_unseen_token")
        texts.append(" ".join(picks))
    return texts


class TestRoundTrip:
    def test_predictions_bit_identical_after_round_trip(self, fitted_vote_pipeline, tmp_path):
        pipeline, ds = fitted_vote_pipeline
        path = tmp_path / "model.json"
        save_model(pipeline, path)
        loaded = load_model(path)
        for text in random_texts(ds, 100, seed=1):
            x1 = pipeline.union_.transform_one(text)
            x2 = loaded.union_.transform_one(text)
            assert same(x1, x2)
            assert pipeline.predict_text(text) == loaded.predict_text(text)
            assert (
                pipeline.models_["svc"].decision_function(x1).tobytes()
                == loaded.models_["svc"].decision_function(x2).tobytes()
            )

    def test_double_save_byte_identical(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        assert dumps_model(pipeline) == dumps_model(pipeline)

    def test_save_load_save_byte_identical(self, fitted_vote_pipeline, tmp_path):
        pipeline, _ = fitted_vote_pipeline
        first = dumps_model(pipeline)
        assert dumps_model(loads_model(first)) == first

    def test_svc_only_bundle_round_trips(self, tmp_path):
        ds = make_synthetic(2, 10, 6, 0.0, seed=5)
        pipeline = DialectPipeline(preset("baseline")).fit(ds)
        path = tmp_path / "svc.json"
        save_model(pipeline, path)
        loaded = load_model(path)
        assert "forest" not in loaded.models_ and "knn" not in loaded.models_
        for doc in ds.documents:
            assert loaded.predict_text(doc.text) == pipeline.predict_text(doc.text)


class TestModelEntries:
    """Each model's ``payload`` and ``from_fitted``, without the rest of the bundle."""

    @staticmethod
    def entry(fitted_vote_pipeline, name):
        pipeline, ds = fitted_vote_pipeline
        model = pipeline.models_[name]
        shape = (pipeline.n_labels_, pipeline.union_.n_features_)
        return model, shape, pipeline.union_.transform(random_texts(ds, 60, seed=2))

    @staticmethod
    def read(model) -> dict:
        """The model's entry as a bundle holds it: arrays become JSON lists."""
        return json.loads(dumps_canonical(model.payload()))

    @pytest.mark.parametrize("name", ["svc", "forest", "knn"])
    def test_from_fitted_predicts_bit_for_bit(self, fitted_vote_pipeline, name):
        model, shape, X = self.entry(fitted_vote_pipeline, name)
        loaded = type(model).from_fitted(model.get_params(), self.read(model), *shape)
        assert loaded.predict(X).tobytes() == model.predict(X).tobytes()
        assert dumps_canonical(loaded.payload()) == dumps_canonical(model.payload())
        if name == "svc":
            assert loaded.decision_function(X).tobytes() == model.decision_function(X).tobytes()

    @pytest.mark.parametrize("name", ["svc", "forest", "knn"])
    def test_other_label_count_or_width_rejected(self, fitted_vote_pipeline, name):
        model, (n_labels, n_features), _ = self.entry(fitted_vote_pipeline, name)
        payload = self.read(model)
        # A KNN entry records no width: a union too narrow for a column it stores.
        width = max(i for row in payload["vectors"] for i in row["i"]) if name == "knn" else n_features - 1
        for shape in [(n_labels + 1, n_features), (n_labels - 1, n_features), (n_labels, width)]:
            with pytest.raises(ValueError):
                type(model).from_fitted(model.get_params(), payload, *shape)


def written(write, value) -> str:
    out: list[str] = []
    write(value, out)
    return "".join(out)


def canonical(value, out: list[str]) -> None:
    """Append ``dumps_canonical``'s text of ``value``, without its closing newline."""
    out.append(dumps_canonical(value).decode("utf-8").removesuffix("\n"))


FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([0.0, -0.0, 1e16, 1e17, -1e17, 5e-324, 1.5e300, 123456789012345678.0]),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    FLOATS,
    FLOATS.map(np.float64),
    st.text(),
    st.text(st.characters(codec="utf-8", max_codepoint=0x7F)),
    st.sampled_from(["", "é", "\x00\x1f\n\t\"\\", "ج ي", "\u2028", "😀"]),
)
VALUES = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS), st.lists(st.integers()), st.lists(st.text())),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=5),
    ),
    max_leaves=30,
)


@st.composite
def array_payloads(draw) -> dict:
    """Float64 arrays of reals drawn from a small pool, so that they repeat:
    1-D and 2-D arrays, empty ones, and slices of one array, as a bundle's
    KNN rows are."""
    pool = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e17] + draw(st.lists(FLOATS, max_size=4)))
    base = draw(hnp.arrays(np.float64, st.integers(0, 12), elements=pool))
    bounds = [0, *sorted(draw(st.lists(st.integers(0, base.size), max_size=4))), base.size]
    shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=4)
    return {
        "vector": draw(hnp.arrays(np.float64, st.integers(0, 8), elements=pool)),
        "matrix": draw(hnp.arrays(np.float64, shapes, elements=pool)),
        "rows": [{"i": np.arange(lo, hi), "v": base[lo:hi]} for lo, hi in zip(bounds, bounds[1:])],
        "real": draw(pool),
        "reals": draw(st.lists(pool, max_size=4)),
    }


class TestCanonicalWriter:
    """Every real, lone or in a float64 array, is formatted in one pass over
    the document's distinct reals, with the bytes of the per-value writer
    it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(VALUES)
    def test_matches_per_value_writer(self, value):
        assert written(canonical, value) == written(reference_write_canonical, value)

    @pytest.mark.parametrize(
        "value",
        [
            [1.0, 2.0, -0.0, 0.0, 1e16, 1e17, 5e-324, 0.1, -3.0],
            [0, -1, 10**30, -(10**30), 7],
            ["a", "é", "\x00", "\x7f", "\u2028", "\"\\", "😀"],
            [1, True],
            [1.0, 1],
            [True, False],
            [np.float64(1.0), np.float64(0.5)],
            [1.0, np.float64(2.0)],
            [[], [[]], {}],
            [[1.5, 2.0], [3.0]],
        ],
    )
    def test_edge_lists(self, value):
        assert written(canonical, value) == written(reference_write_canonical, value)

    @pytest.mark.parametrize("real", [1e16, -0.0, 5e-324])
    def test_lone_real_and_list_of_reals(self, real):
        payload = {"lone": real, "list": [real, 0.5]}
        assert dumps_canonical(payload).decode("utf-8") == written(reference_write_canonical, payload) + "\n"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", [0, 2, "lone"])
    def test_non_finite_raises_the_same_error(self, bad, where):
        value = [0.5, 1.0, 2.0]
        if where == "lone":
            value = bad
        else:
            value[where] = bad
        with pytest.raises(ValueError) as new:
            written(canonical, value)
        with pytest.raises(ValueError) as old:
            written(reference_write_canonical, value)
        assert str(new.value) == str(old.value)

    @settings(max_examples=200, deadline=None)
    @given(array_payloads())
    def test_arrays_match_per_value_writer(self, payload):
        assert dumps_canonical(payload).decode("utf-8") == written(reference_write_canonical, payload) + "\n"

    def test_real_shared_by_two_models(self):
        shared = 0.1 + 0.2
        payload = {
            "svc": {"coef": np.array([[shared, -0.0], [0.0, 1.0]]), "intercept": np.array([shared, 1.0])},
            "knn": {
                "labels": np.array([1, 0]),
                "vectors": [
                    {"i": np.array([3]), "v": np.array([shared])},
                    {"i": np.array([], dtype=np.int64), "v": np.array([])},
                ],
            },
        }
        text = dumps_canonical(payload).decode("utf-8")
        assert text == written(reference_write_canonical, payload) + "\n"
        assert text.count("0.30000000000000004") == 3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["first", "second", "matrix"])
    def test_non_finite_in_an_array_raises_the_same_error(self, bad, where):
        payload = {
            "first": np.array([0.5, 1.0]),
            "second": np.array([2.0, -0.0, 0.5]),
            "matrix": np.array([[0.5], [4.0]]),
        }
        payload[where].flat[1] = bad
        with pytest.raises(ValueError) as new:
            dumps_canonical(payload)
        with pytest.raises(ValueError) as old:
            written(reference_write_canonical, payload)
        assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_bundles_match_per_value_writer(self, name, monkeypatch):
        pipeline = DialectPipeline(preset(name)).fit(make_synthetic(3, 8, 12, 0.2, seed=11))
        payload = bundle_to_dict(pipeline)
        real_texts = persistence._real_texts
        formatted = []  # the number of reals of each call of the one formatter of reals

        def counted(values):
            formatted.append(values.size)
            return real_texts(values)

        monkeypatch.setattr(persistence, "_real_texts", counted)
        text = dumps_model(pipeline).decode("utf-8")
        assert text == written(reference_write_canonical, payload) + "\n"
        reals = []
        json.loads(text, parse_float=reals.append)
        assert formatted == [len(reals)]

    @pytest.mark.parametrize(
        "array", [np.array([True, False]), np.array([0.5, 1.0], dtype=np.float32)], ids=["bool", "float32"]
    )
    def test_array_of_other_dtype_rejected(self, array):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            dumps_canonical({"a": array})

    def test_bundle_is_json_with_real_reals(self):
        text = dumps_canonical({"a": [1.0, 2.5e-7], "b": [3, 4], "c": ["x"]}).decode("utf-8")
        assert text == '{"a":[1.0,2.4999999999999999e-07],"b":[3,4],"c":["x"]}\n'
        assert json.loads(text) == {"a": [1.0, 2.5e-7], "b": [3, 4], "c": ["x"]}


class TestFormat:
    def test_versioned_document(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        assert payload["format_version"] == 1
        assert set(payload) == {"format_version", "config", "label_space", "union", "models"}
        assert len(payload["union"]["blocks"]) == 3

    def test_vocabulary_stored_sorted(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        for block in payload["union"]["blocks"]:
            if block is not None:
                assert block["vocabulary"] == sorted(block["vocabulary"])

    def test_reals_use_17_significant_digits(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        raw = dumps_model(pipeline).decode("utf-8")
        # the word-block idf for a common feature should be a long literal
        payload = json.loads(raw)
        idf = payload["union"]["blocks"][0]["idf"]
        assert any(len(f"{v!r}") >= 12 for v in idf)
        # every parsed float round-trips exactly against the literal text
        assert json.loads(raw) == json.loads(dumps_model(loads_model(raw.encode("utf-8"))))

    def test_unknown_version_rejected_with_both_versions(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        payload["format_version"] = 999
        with pytest.raises(BundleFormatError, match=r"999.*version 1"):
            loads_model(json.dumps(payload).encode("utf-8"))

    def test_truncated_file_rejected(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        data = dumps_model(pipeline)
        with pytest.raises(BundleFormatError, match="JSON"):
            loads_model(data[: len(data) // 2])

    @pytest.mark.parametrize(
        "data", [b"[" * 100_000, b'{"format_version": 1' + b"0" * 5000 + b"}"], ids=["deep", "long integer"]
    )
    def test_hostile_json_rejected(self, data):
        with pytest.raises(BundleFormatError, match="JSON"):
            loads_model(data)

    def test_missing_model_for_classifier_rejected(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        del payload["models"]["forest"]
        with pytest.raises(BundleFormatError, match="forest"):
            loads_model(json.dumps(payload).encode("utf-8"))

    def test_dimension_mismatch_rejected(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        payload["models"]["svc"]["coef"] = [row[:-1] for row in payload["models"]["svc"]["coef"]]
        with pytest.raises(BundleFormatError, match="dimension"):
            loads_model(json.dumps(payload).encode("utf-8"))


class TestSvcPayloadChecks:
    """Crafted SVC payloads that used to load and then mispredict or crash."""

    @staticmethod
    def load_with(pipeline, edit) -> None:
        payload = json.loads(dumps_model(pipeline))
        edit(payload["models"]["svc"])
        loads_model(json.dumps(payload).encode("utf-8"))

    def test_coef_missing_a_row_rejected(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        with pytest.raises(BundleFormatError, match="rows for 3 labels"):
            self.load_with(pipeline, lambda svc: svc["coef"].pop())

    def test_short_intercept_rejected(self, fitted_vote_pipeline):
        pipeline, _ = fitted_vote_pipeline
        with pytest.raises(BundleFormatError, match="intercept"):
            self.load_with(pipeline, lambda svc: svc["intercept"].pop())

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coef_rejected(self, fitted_vote_pipeline, value):
        pipeline, _ = fitted_vote_pipeline

        def poison(svc):
            svc["coef"][0][0] = value

        with pytest.raises(BundleFormatError, match="non-finite"):
            self.load_with(pipeline, poison)

    def test_nan_bundle_is_data_error_on_the_command_line(
        self, fitted_vote_pipeline, tmp_path, capsys
    ):
        from lahja.cli import main

        pipeline, ds = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        payload["models"]["svc"]["intercept"][0] = float("nan")
        bundle = tmp_path / "nan.json"
        bundle.write_text(json.dumps(payload), encoding="utf-8")
        texts = tmp_path / "in.tsv"
        texts.write_text(f"0\t{ds.documents[0].text}\n", encoding="utf-8")
        code = main(["predict", "--model", str(bundle), "--in", str(texts),
                     "--out", str(tmp_path / "out.tsv")])
        assert code == 2
        assert "non-finite real NaN" in capsys.readouterr().err


def _first_split(nodes: list[dict]) -> int:
    return next(i for i, node in enumerate(nodes) if "d" not in node)


def _n_features(payload: dict) -> int:
    return sum(len(block["vocabulary"]) for block in payload["union"]["blocks"] if block)


def _set_first_split(payload: dict, key: str, value) -> None:
    nodes = next(t for t in payload["models"]["forest"]["trees"] if len(t) > 1)
    nodes[_first_split(nodes)][key] = value(nodes, _first_split(nodes))


def _set_first_leaf_dist(payload: dict) -> None:
    nodes = payload["models"]["forest"]["trees"][0]
    next(node for node in nodes if "d" in node)["d"].pop()


def _set_first_leaf(payload: dict, value) -> None:
    leaf = next(node for node in payload["models"]["forest"]["trees"][0] if "d" in node)
    leaf["d"] = value(leaf["d"])


def _set_knn_vector(payload: dict, key: str, value) -> None:
    row = next(r for r in payload["models"]["knn"]["vectors"] if len(r["i"]) >= 2)
    row[key] = value(row[key], payload)


CRAFTED = {
    "knn labels shorter than vectors": lambda p: p["models"]["knn"]["labels"].pop(),
    "knn vector index past the union": lambda p: _set_knn_vector(
        p, "i", lambda i, p: [*i[:-1], _n_features(p)]
    ),
    "knn label past n_labels": lambda p: p["models"]["knn"]["labels"].__setitem__(0, 3),
    "knn n_labels unlike the label space": lambda p: p["models"]["knn"].__setitem__("n_labels", 4),
    "knn row indices not increasing": lambda p: _set_knn_vector(p, "i", lambda i, p: i[::-1]),
    "knn row indices repeated": lambda p: _set_knn_vector(p, "i", lambda i, p: [i[0], *i[:-1]]),
    "knn zero value": lambda p: _set_knn_vector(p, "v", lambda v, p: [0.0, *v[1:]]),
    "knn non-finite value": lambda p: _set_knn_vector(p, "v", lambda v, p: [float("inf"), *v[1:]]),
    "knn indices and values of unequal length": lambda p: _set_knn_vector(p, "v", lambda v, p: v[:-1]),
    "forest split feature past the union": lambda p: _set_first_split(p, "f", lambda n, i: _n_features(p)),
    "forest split feature negative": lambda p: _set_first_split(p, "f", lambda n, i: -1),
    "forest child pointing at its parent": lambda p: _set_first_split(p, "l", lambda n, i: i),
    "forest child before its parent": lambda p: _set_first_split(p, "r", lambda n, i: i - 1),
    "forest child past the node count": lambda p: _set_first_split(p, "r", lambda n, i: len(n)),
    "forest leaf distribution too short": _set_first_leaf_dist,
    "forest n_labels unlike the label space": lambda p: p["models"]["forest"].__setitem__("n_labels", 2),
    "forest n_features unlike the union": lambda p: p["models"]["forest"].__setitem__(
        "n_features", p["models"]["forest"]["n_features"] + 1
    ),
    "forest with an empty tree": lambda p: p["models"]["forest"]["trees"].__setitem__(0, []),
    "forest without trees": lambda p: p["models"]["forest"].__setitem__("trees", []),
    "forest tree count unlike its n_trees": lambda p: p["models"]["forest"]["trees"].pop(),
    # Integer fields holding reals or booleans used to load truncated, or to fail at predict.
    "format version true": lambda p: p.__setitem__("format_version", True),
    "config k a real": lambda p: p["config"].__setitem__("k", 3.5),
    "config seed a bool": lambda p: p["config"].__setitem__("seed", False),
    "config n_trees a real": lambda p: p["config"]["forest"].__setitem__("n_trees", 100.5),
    "config policy k a real": lambda p: p["config"]["policy"].__setitem__("k", 1.5),
    "block ngram_range bound a real": lambda p: p["union"]["blocks"][1].__setitem__("ngram_range", [1, 3.5]),
    "block max_features a real": lambda p: p["union"]["blocks"][1].__setitem__("max_features", 50.5),
    "svc max_epochs a real": lambda p: p["models"]["svc"]["params"].__setitem__("max_epochs", 1000.5),
    "knn k a real": lambda p: p["models"]["knn"]["params"].__setitem__("k", 2.9),
    "knn k a bool": lambda p: p["models"]["knn"]["params"].__setitem__("k", True),
    "knn n_labels a real": lambda p: p["models"]["knn"].__setitem__("n_labels", 3.7),
    "knn label a real": lambda p: p["models"]["knn"]["labels"].__setitem__(0, 1.7),
    "knn vector index a real": lambda p: _set_knn_vector(p, "i", lambda i, p: [i[0] + 0.5, *i[1:]]),
    "knn vector index a bool": lambda p: _set_knn_vector(p, "i", lambda i, p: [False, *i[1:]]),
    "knn vector index a string": lambda p: _set_knn_vector(p, "i", lambda i, p: [str(i[0]), *i[1:]]),
    "knn label a bool": lambda p: p["models"]["knn"]["labels"].__setitem__(0, True),
    "forest split feature a real": lambda p: _set_first_split(p, "f", lambda n, i: n[i]["f"] + 0.9),
    "forest child a real": lambda p: _set_first_split(p, "l", lambda n, i: n[i]["l"] + 0.5),
    "forest n_trees a real": lambda p: p["models"]["forest"]["params"].__setitem__("n_trees", 2.5),
    "forest n_labels a real": lambda p: p["models"]["forest"].__setitem__("n_labels", 3.7),
    "forest n_features a real": lambda p: p["models"]["forest"].__setitem__(
        "n_features", p["models"]["forest"]["n_features"] + 0.5
    ),
    # Vocabulary and idf.
    "vocabulary entry repeated": lambda p: p["union"]["blocks"][0]["vocabulary"].__setitem__(
        1, p["union"]["blocks"][0]["vocabulary"][0]
    ),
    "idf of 0": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, 0.0),
    "idf negative": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, -1.5),
    "idf below 1": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, 0.999),
    # A fit's idf is at most 1 + ln(2**62); a larger one can overflow a row's norm.
    "idf above any fit's": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, 1e200),
    # Lists are typed as they load: numpy would parse strings and bools as numbers.
    "label space a string": lambda p: p.__setitem__("label_space", "abc"),
    "label space of integers": lambda p: p.__setitem__("label_space", [0, 1, 2]),
    "vocabulary of integers": lambda p: p["union"]["blocks"][0].__setitem__(
        "vocabulary", list(range(len(p["union"]["blocks"][0]["vocabulary"])))
    ),
    "idf a string": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, "7"),
    "idf a bool": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, True),
    "idf an integer beyond the float range": lambda p: p["union"]["blocks"][0]["idf"].__setitem__(0, 10**400),
    "block weight a bool": lambda p: p["union"]["blocks"][0].__setitem__("weight", True),
    "block ngram_range a number": lambda p: p["union"]["blocks"][0].__setitem__("ngram_range", 5),
    "block ngram_range of three bounds": lambda p: p["union"]["blocks"][0].__setitem__("ngram_range", [1, 1, 1]),
    "svc coef a string": lambda p: p["models"]["svc"]["coef"][0].__setitem__(0, "0.5"),
    "svc coef an integer beyond the float range": lambda p: p["models"]["svc"]["coef"][0].__setitem__(0, 10**400),
    "svc intercept a bool": lambda p: p["models"]["svc"]["intercept"].__setitem__(0, True),
    "forest threshold a string": lambda p: _set_first_split(p, "t", lambda n, i: "0.5"),
    "forest threshold a bool": lambda p: _set_first_split(p, "t", lambda n, i: True),
    "forest threshold an integer beyond the float range": lambda p: _set_first_split(p, "t", lambda n, i: 10**400),
    "forest leaf distribution of strings": lambda p: _set_first_leaf(p, lambda d: [str(v) for v in d]),
    "forest leaf distribution with a bool": lambda p: _set_first_leaf(p, lambda d: [True, *d[1:]]),
    "knn value a string": lambda p: _set_knn_vector(p, "v", lambda v, p: ["0.5", *v[1:]]),
    "knn value a bool": lambda p: _set_knn_vector(p, "v", lambda v, p: [True, *v[1:]]),
    "knn value an integer beyond the float range": lambda p: _set_knn_vector(p, "v", lambda v, p: [10**400, *v[1:]]),
    "knn vector indices a number": lambda p: _set_knn_vector(p, "i", lambda i, p: 5),
    "forest leaf distribution a number": lambda p: _set_first_leaf(p, lambda d: 0.5),
    # Model params must be the ones the config implies.
    "knn params k unlike the config": lambda p: p["models"]["knn"]["params"].__setitem__("k", 1),
    "svc params C unlike the config": lambda p: p["models"]["svc"]["params"].__setitem__("C", 2.0),
    "svc params without a seed": lambda p: p["models"]["svc"]["params"].pop("seed"),
    "forest params seed unlike the config": lambda p: p["models"]["forest"]["params"].__setitem__("seed", 4),
    "config seed unlike the params": lambda p: p["config"].__setitem__("seed", 4),
    "config k unlike the params": lambda p: p["config"].__setitem__("k", 1),
    # So must the union's blocks.
    "config ngram_range unlike the block": lambda p: p["config"]["word"].__setitem__("ngram_range", [1, 2]),
    "config block absent from the union": lambda p: p["config"].__setitem__("char_wb", None),
    "union block missing where the config has one": lambda p: p["union"]["blocks"].__setitem__(2, None),
    "block weight unlike the config": lambda p: p["union"]["blocks"][1].__setitem__("weight", 0.5),
    # The models must be exactly the config's: an extra one would join the vote.
    "svc config whose bundle also carries a forest": lambda p: [
        p["config"].__setitem__("classifier", "svc"),
        p["models"].pop("knn"),
    ],
    "top-k policy wider than the label space": lambda p: [
        p["config"].update(classifier="svc", policy={"kind": "topk", "k": len(p["label_space"]) + 1}),
        p["models"].pop("forest"),
        p["models"].pop("knn"),
    ],
    "config and params seed negative": lambda p: [
        section.__setitem__("seed", -1)
        for section in (p["config"], p["models"]["svc"]["params"], p["models"]["forest"]["params"])
    ],
    # A config field read as its default could change the predictions: each of these loaded once.
    "config without policy": lambda p: p["config"].pop("policy"),
    "config without vote_weights": lambda p: p["config"].pop("vote_weights"),
    "threshold policy without tau": lambda p: [
        p["config"].update(classifier="svc", policy={"kind": "threshold"}),
        p["models"].pop("forest"),
        p["models"].pop("knn"),
    ],
    # No save writes an argmax policy's k, so a bundle that holds one was not written as it reads.
    "argmax policy carrying k": lambda p: p["config"]["policy"].__setitem__("k", 2),
}


# Every JSON object of a bundle that the loader reads field by field.
UNKNOWN_FIELDS = {
    "root": lambda p: p,
    "config": lambda p: p["config"],
    "union": lambda p: p["union"],
    "word block": lambda p: p["union"]["blocks"][0],
    "char block": lambda p: p["union"]["blocks"][1],
    "char_wb block": lambda p: p["union"]["blocks"][2],
    "svc model": lambda p: p["models"]["svc"],
    "svc params": lambda p: p["models"]["svc"]["params"],
    "forest model": lambda p: p["models"]["forest"],
    "forest leaf": lambda p: next(n for n in p["models"]["forest"]["trees"][0] if "d" in n),
    "forest split": lambda p: next(n for n in p["models"]["forest"]["trees"][0] if "d" not in n),
    "knn model": lambda p: p["models"]["knn"],
    "knn vector row": lambda p: p["models"]["knn"]["vectors"][0],
}


# The fields each object of ``UNKNOWN_FIELDS`` holds, every one of which the loader requires.
MISSING_FIELDS = {
    "root": ("format_version", "config", "label_space", "union", "models"),
    "config": ("word", "char", "char_wb", "classifier", "svc", "forest", "k", "vote_weights", "policy", "seed"),
    "union": ("blocks",),
    **dict.fromkeys(
        ("word block", "char block", "char_wb block"),
        ("analyzer", "ngram_range", "max_features", "weight", "vocabulary", "idf"),
    ),
    "svc model": ("params", "coef", "intercept"),
    "svc params": ("C", "balanced", "tol", "max_epochs", "seed"),
    "forest model": ("params", "n_labels", "n_features", "trees"),
    "forest leaf": ("d",),
    "forest split": ("f", "t", "l", "r"),
    "knn model": ("params", "n_labels", "labels", "vectors"),
    "knn vector row": ("i", "v"),
}


def _set_vocabulary_entry(payload: dict, slot: int, index: int, value) -> None:
    vocabulary = payload["union"]["blocks"][slot]["vocabulary"]
    vocabulary[index] = value(vocabulary[index])


# Vocabulary entries no analyzer emits, each kept in sorted order; the word
# block holds 1-grams, the char blocks (1, 3)-grams.
UNEMITTABLE_ENTRIES = {
    "char entry empty": lambda p: _set_vocabulary_entry(p, 1, 0, lambda v: ""),
    "char entry longer than n": lambda p: _set_vocabulary_entry(p, 1, -1, lambda v: v + "x" * 14),
    "char_wb entry empty": lambda p: _set_vocabulary_entry(p, 2, 0, lambda v: ""),
    "char_wb entry longer than n": lambda p: _set_vocabulary_entry(p, 2, -1, lambda v: v + "x"),
    "word entry empty": lambda p: _set_vocabulary_entry(p, 0, 0, lambda v: ""),
    "word entry longer than n": lambda p: _set_vocabulary_entry(p, 0, -1, lambda v: v + " x"),
    "word entry leading space": lambda p: _set_vocabulary_entry(p, 0, 0, lambda v: " " + v),
    "word entry trailing space": lambda p: _set_vocabulary_entry(p, 0, -1, lambda v: v + " "),
    "word entry doubled space": lambda p: _set_vocabulary_entry(p, 0, -1, lambda v: v + "  x"),
}


# Where each real the loader reads sits in a bundle, as (container, key).
OVERFLOW_FIELDS = {
    "svc intercept": lambda p: (p["models"]["svc"]["intercept"], 0),
    "idf": lambda p: (p["union"]["blocks"][0]["idf"], 0),
    "forest threshold": lambda p: (next(n for n in p["models"]["forest"]["trees"][0] if "d" not in n), "t"),
    "config svc C": lambda p: (p["config"]["svc"], "C"),
    "config svc tol": lambda p: (p["config"]["svc"], "tol"),
    "config vote weight": lambda p: (p["config"]["vote_weights"], 0),
    "config policy tau": lambda p: (p["config"]["policy"], "tau"),
    "config block weight": lambda p: (p["config"]["word"], "weight"),
    "union block weight": lambda p: (p["union"]["blocks"][0], "weight"),
    "svc params C": lambda p: (p["models"]["svc"]["params"], "C"),
    "svc params tol": lambda p: (p["models"]["svc"]["params"], "tol"),
    "svc coef": lambda p: (p["models"]["svc"]["coef"][0], 0),
    "forest leaf distribution": lambda p: (
        next(n for n in p["models"]["forest"]["trees"][0] if "d" in n)["d"], 0
    ),
    "knn vector value": lambda p: (next(r for r in p["models"]["knn"]["vectors"] if r["v"])["v"], 0),
}


class TestCraftedBundles:
    """Bundles that would make prediction index out of range, loop or answer wrongly."""

    @pytest.mark.parametrize("edit", CRAFTED.values(), ids=CRAFTED.keys())
    def test_rejected_at_load(self, fitted_vote_pipeline, edit):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        pipeline_from_dict(json.loads(dumps_model(pipeline)))  # the unedited bundle loads
        edit(payload)
        with pytest.raises(BundleFormatError):
            pipeline_from_dict(payload)

    @staticmethod
    def predict_with(fitted_vote_pipeline, tmp_path, case: str) -> int:
        """Exit code of ``lahja predict`` with a bundle edited by ``CRAFTED[case]``."""
        from lahja.cli import main

        pipeline, ds = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        CRAFTED[case](payload)
        bundle = tmp_path / "crafted.json"
        bundle.write_text(json.dumps(payload), encoding="utf-8")
        texts = tmp_path / "in.tsv"
        texts.write_text(f"{ds.documents[0].text}\t\n", encoding="utf-8")
        return main(["predict", "--model", str(bundle), "--in", str(texts),
                     "--out", str(tmp_path / "out.tsv")])

    def test_forest_self_loop_is_data_error_on_the_command_line(
        self, fitted_vote_pipeline, tmp_path, capsys
    ):
        assert self.predict_with(fitted_vote_pipeline, tmp_path, "forest child pointing at its parent") == 2
        assert "children must lie after it" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, message",
        [
            ("knn k a real", "knn k must be an integer"),
            ("idf of 0", "idf values must be >= 1"),
            ("idf above any fit's", "idf values must be <= 43.97"),
            ("top-k policy wider than the label space", "top-k policy with k=4 exceeds label count 3"),
            ("svc config whose bundle also carries a forest", "holds the models ['forest', 'svc'], not ['svc']"),
            ("forest n_features unlike the union", "does not match union dimension"),
            ("knn vector indices a number", "indices and values must be lists of equal length"),
            ("forest leaf distribution a number", "leaf distribution is not a list of length 3"),
            ("knn vector index a bool", "knn vector indices must be a list of integers"),
            ("knn vector index a string", "knn vector indices must be a list of integers"),
            ("knn label a bool", "knn labels must be a list of integers"),
        ],
    )
    def test_crafted_bundle_is_data_error_on_the_command_line(
        self, fitted_vote_pipeline, tmp_path, capsys, case, message
    ):
        assert self.predict_with(fitted_vote_pipeline, tmp_path, case) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where", UNKNOWN_FIELDS.values(), ids=UNKNOWN_FIELDS.keys())
    def test_unknown_field_rejected(self, fitted_vote_pipeline, where):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        where(payload)["zz"] = 0
        with pytest.raises(BundleFormatError, match="zz"):
            pipeline_from_dict(payload)

    def test_missing_fields_table_covers_every_object(self, fitted_vote_pipeline):
        payload = json.loads(dumps_model(fitted_vote_pipeline[0]))
        assert {name: tuple(UNKNOWN_FIELDS[name](payload)) for name in UNKNOWN_FIELDS} == MISSING_FIELDS

    @pytest.mark.parametrize(
        "where, field",
        [(where, field) for where, fields in MISSING_FIELDS.items() for field in fields],
        ids=[f"{where} without {field}" for where, fields in MISSING_FIELDS.items() for field in fields],
    )
    def test_missing_field_rejected(self, fitted_vote_pipeline, where, field):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        del UNKNOWN_FIELDS[where](payload)[field]
        with pytest.raises(BundleFormatError, match=f"'{field}'"):
            pipeline_from_dict(payload)

    def test_unknown_root_field_is_data_error_on_the_command_line(self, fitted_vote_pipeline, tmp_path, capsys):
        from lahja.cli import main

        pipeline, ds = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        payload["zz"] = 0
        bundle = tmp_path / "unknown.json"
        bundle.write_text(json.dumps(payload), encoding="utf-8")
        texts = tmp_path / "in.tsv"
        texts.write_text(f"{ds.documents[0].text}\t\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert main(["predict", "--model", str(bundle), "--in", str(texts), "--out", str(out)]) == 2
        assert "unknown bundle root fields: ['zz']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("entry", UNEMITTABLE_ENTRIES, ids=UNEMITTABLE_ENTRIES.keys())
    def test_unemittable_char_vocabulary_entry_rejected(self, fitted_vote_pipeline, entry):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        UNEMITTABLE_ENTRIES[entry](payload)
        if entry.startswith("word"):
            message = "vocabulary entry must be 1 to 1 tokens joined by single spaces"
        else:
            message = "vocabulary entry must be 1 to 3 chars long"
        with pytest.raises(BundleFormatError, match=message):
            pipeline_from_dict(payload)

    @pytest.mark.parametrize("where", OVERFLOW_FIELDS.values(), ids=OVERFLOW_FIELDS.keys())
    def test_overflowing_literal_rejected(self, fitted_vote_pipeline, where):
        pipeline, _ = fitted_vote_pipeline
        payload = json.loads(dumps_model(pipeline))
        container, key = where(payload)
        container[key] = 1.2345e300
        text = json.dumps(payload)
        assert text.count("1.2345e+300") == 1
        with pytest.raises(BundleFormatError, match="finite"):
            loads_model(text.replace("1.2345e+300", "1e999").encode("utf-8"))


def _paths(value, prefix: tuple = ()) -> list[tuple]:
    """The path of every value below ``value`` in a JSON tree."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return []
    found = []
    for key, item in items:
        found.append((*prefix, key))
        found.extend(_paths(item, (*prefix, key)))
    return found


def _perturbed(value):
    """``value`` changed but of the same JSON type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return -value if value else 1.0
    if isinstance(value, str):
        return value + "x"
    if isinstance(value, list):
        return value[1:] if value else [0]
    if isinstance(value, dict):
        return {**value, "zz": 0}
    return 0


# Replacement values of a retyped or NaN-ified field.
RETYPED = [True, "x", [], None, 10**400, float("nan")]
# A mutant that loads must load and label the probe texts within this time.
MUTANT_SECONDS = 20.0


@pytest.fixture(scope="module")
def exp3_bundle():
    """A fitted exp3-hard bundle, its value paths grouped by section, and 100 probe texts."""
    ds = make_synthetic(3, 8, 12, 0.2, seed=11)
    text = dumps_model(DialectPipeline(preset("exp3-hard")).fit(ds)).decode("utf-8")
    sections: dict[tuple, list[tuple]] = {}
    for path in _paths(json.loads(text)):
        sections.setdefault(path[:2], []).append(path)
    return text, list(sections.values()), random_texts(ds, 100, seed=5)


def _timeout(signum, frame):
    raise TimeoutError(f"mutant took longer than {MUTANT_SECONDS} s")


class TestMutationFuzz:
    """One field of a fitted bundle dropped, retyped, perturbed or NaN-ified:
    the bundle is rejected as a format error, or it loads and labels text."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_mutant_is_rejected_or_predicts(self, exp3_bundle, data):
        text, sections, probes = exp3_bundle
        section = data.draw(st.sampled_from(sections), label="section")
        path = data.draw(st.sampled_from(section), label="path")
        payload = json.loads(text)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        mutation = data.draw(st.sampled_from(["drop", "retype", "perturb"]), label="mutation")
        if mutation == "drop":
            del parent[path[-1]]
        elif mutation == "retype":
            parent[path[-1]] = data.draw(st.sampled_from(RETYPED), label="value")
        else:
            parent[path[-1]] = _perturbed(parent[path[-1]])
        mutant = json.dumps(payload).encode("utf-8")

        previous = signal.signal(signal.SIGALRM, _timeout)
        signal.setitimer(signal.ITIMER_REAL, MUTANT_SECONDS)
        start = time.perf_counter()
        try:
            try:
                pipeline = loads_model(mutant)
            except BundleFormatError:
                return
            labels = pipeline.predict(probes)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - start < MUTANT_SECONDS
        n_labels = len(pipeline.label_space_)
        assert len(labels) == len(probes)
        assert all(found and all(0 <= label < n_labels for label in found) for found in labels)
