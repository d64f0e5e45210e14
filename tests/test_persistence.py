from __future__ import annotations

import json
import random

import pytest

from lahja import (
    BlockSpec,
    BundleFormatError,
    DialectPipeline,
    PipelineConfig,
    dumps_model,
    load_model,
    loads_model,
    make_synthetic,
    preset,
    save_model,
)


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
            x1 = pipeline.transform_text(text)
            x2 = loaded.transform_text(text)
            assert x1 == x2
            assert pipeline.predict_text(text) == loaded.predict_text(text)
            assert (
                pipeline.svc_.decision_function(x1).tobytes()
                == loaded.svc_.decision_function(x2).tobytes()
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
        assert loaded.forest_ is None and loaded.knn_ is None
        for doc in ds.documents:
            assert loaded.predict_text(doc.text) == pipeline.predict_text(doc.text)


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
