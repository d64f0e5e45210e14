from __future__ import annotations

import io
import random

import pytest

import lahja.vectorizer
from lahja import (
    BlockSpec,
    DecisionPolicy,
    DialectPipeline,
    GridSpec,
    PipelineConfig,
    make_synthetic,
    parse_tsv,
    preset,
    run_component_comparison,
    run_pipeline,
    run_sweep,
    split_dataset,
    weighted_hard_vote,
    write_sweep_tsv,
)
from lahja.forest import RandomForest
from lahja.knn import KnnClassifier
from lahja.svm import LinearSvc

from helpers import reference_run_sweep


class TestConfig:
    def test_dict_round_trip(self):
        for name in ("baseline", "exp2-3", "exp3-weighted"):
            cfg = preset(name)
            assert PipelineConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            PipelineConfig.from_dict({"classifierr": "svc"})

    def test_score_policies_require_svc(self):
        with pytest.raises(ValueError, match="argmax"):
            PipelineConfig(classifier="vote", policy=DecisionPolicy("threshold", tau=0.0))
        with pytest.raises(ValueError, match="argmax"):
            PipelineConfig(classifier="knn", policy=DecisionPolicy("topk", k=2))

    def test_all_blocks_disabled_rejected(self):
        with pytest.raises(ValueError):
            PipelineConfig(word=None, char=None, char_wb=None)

    def test_vote_weights_validated(self):
        with pytest.raises(ValueError):
            PipelineConfig(classifier="vote", vote_weights=(0.5, 0.5))
        with pytest.raises(ValueError):
            PipelineConfig(classifier="vote", vote_weights=(0.5, -0.1, 0.2))


class TestPipeline:
    def test_each_classifier_fits_separable_data(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        base = dict(word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=BlockSpec((1, 3)))
        for classifier in ("svc", "forest", "knn"):
            cfg = PipelineConfig(classifier=classifier, **base)
            report = run_pipeline(train, out, cfg)
            assert report.f1 >= 0.9, classifier

    def test_vote_pipeline_runs(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)),
            char=BlockSpec((1, 3)),
            char_wb=BlockSpec((1, 3)),
            classifier="vote",
            vote_weights=(0.4, 0.3, 0.3),
        )
        report = run_pipeline(train, out, cfg)
        assert report.f1 >= 0.9

    def test_train_equals_eval_is_near_perfect(self, tiny_corpus):
        cfg = preset("exp1")
        report = run_pipeline(tiny_corpus, tiny_corpus, cfg)
        assert report.f1 >= 0.99

    def test_deterministic_given_seed(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 2)), char_wb=None, classifier="svc"
        )
        assert run_pipeline(train, out, cfg) == run_pipeline(train, out, cfg)

    def test_multi_label_training_and_threshold_policy(self):
        ds = make_synthetic(3, 30, 10, 0.5, seed=11)
        train, out = split_dataset(ds, 0.8, seed=1)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)),
            char=BlockSpec((1, 3)),
            char_wb=None,
            classifier="svc",
            policy=DecisionPolicy("threshold", tau=0.0),
        )
        report = run_pipeline(train, out, cfg)
        assert report.recall > 0.5

    def test_unlabeled_documents_train_union_only(self):
        ds = parse_tsv(b"aa bb\tX\ncc dd\tY\nee ff\t\n")
        cfg = PipelineConfig(word=BlockSpec((1, 1)), char=None, char_wb=None)
        pipeline = DialectPipeline(cfg).fit(ds)
        assert pipeline.union_.blocks_[0].vocabulary_.get("ee") is not None
        assert pipeline.svc_.n_labels_ == 2

    def test_all_unlabeled_rejected(self):
        ds = parse_tsv(b"aa\t\nbb\t\n")
        cfg = PipelineConfig(word=BlockSpec((1, 1)), char=None, char_wb=None)
        with pytest.raises(ValueError, match="no labeled documents"):
            DialectPipeline(cfg).fit(ds)

    def test_mismatched_label_spaces_rejected(self):
        a = parse_tsv(b"aa\tX\nbb\tY\n")
        b = parse_tsv(b"cc\tZ\ndd\tZ\n")
        cfg = PipelineConfig(word=BlockSpec((1, 1)), char=None, char_wb=None)
        with pytest.raises(ValueError, match="label space"):
            run_pipeline(a, b, cfg)

    def test_word_only_never_beats_full_union(self, synthetic_split):
        train, out = synthetic_split
        full = preset("exp1")
        word_only = PipelineConfig(
            word=full.word, char=None, char_wb=None, classifier="svc", svc=full.svc
        )
        full_report = run_pipeline(train, out, full)
        word_report = run_pipeline(train, out, word_only)
        assert word_report.f1 <= full_report.f1 + 1e-12


class TestComponentComparison:
    def test_reports_all_components(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)),
            char=BlockSpec((1, 3)),
            char_wb=BlockSpec((1, 3)),
            classifier="vote",
            forest=preset("exp3-hard").forest,
        )
        reports = run_component_comparison(train, out, cfg)
        assert set(reports) == {"svc", "forest", "knn", "vote"}
        for report in reports.values():
            assert 0.0 <= report.f1 <= 1.0

    def test_vote_is_built_on_component_votes(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=None,
            classifier="vote", vote_weights=(0.2, 0.5, 0.4), forest=preset("exp3-hard").forest,
        )
        pipeline = DialectPipeline(cfg).fit(train)
        X = pipeline.union_.transform(out.texts())
        votes = pipeline.component_votes(X)
        components = (pipeline.svc_, pipeline.forest_, pipeline.knn_)
        assert votes.T.tolist() == [model.predict(X).tolist() for model in components]
        expected = [frozenset((weighted_hard_vote(row, cfg.vote_weights),)) for row in votes.tolist()]
        assert pipeline.predict(out.texts()) == expected

    @pytest.mark.parametrize("classifier", ["svc", "forest", "knn"])
    def test_single_model_is_a_one_voter_vote(self, tiny_corpus, classifier):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=None,
            classifier=classifier, forest=preset("exp3-hard").forest,
        )
        pipeline = DialectPipeline(cfg).fit(train)
        X = pipeline.union_.transform(out.texts())
        model = getattr(pipeline, f"{classifier}_")
        assert list(pipeline.models_) == [classifier]
        votes = pipeline.component_votes(X)
        assert votes.shape == (len(out), 1) and votes[:, 0].tolist() == model.predict(X).tolist()
        assert pipeline.predict(out.texts()) == [frozenset((int(label),)) for label in votes[:, 0]]

    def test_batch_predict_equals_one_text_at_a_time(self):
        ds = make_synthetic(3, 30, 10, 0.5, seed=11)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=None,
            policy=DecisionPolicy("threshold", tau=-0.2),
        )
        pipeline = DialectPipeline(cfg).fit(ds)
        texts = ds.texts() + ["zz_unseen qq_unseen"]
        assert pipeline.predict(texts) == [pipeline.predict_text(text) for text in texts]

    def test_requires_vote_config(self, tiny_corpus):
        train, out = split_dataset(tiny_corpus, 0.8, seed=0)
        with pytest.raises(ValueError, match="voting"):
            run_component_comparison(train, out, preset("baseline"))


class TestSweep:
    def test_results_sorted_by_f1_descending(self, tiny_corpus):
        train, dev = split_dataset(tiny_corpus, 0.8, seed=0)
        spec = GridSpec(n=(1, 2), C=(1.0, 3.0))
        results = run_sweep(train, dev, spec)
        assert len(results) == 4
        f1s = [report.f1 for _, report in results]
        assert f1s == sorted(f1s, reverse=True)

    def test_sweep_deterministic(self, tiny_corpus):
        train, dev = split_dataset(tiny_corpus, 0.8, seed=0)
        spec = GridSpec(n=(1,), C=(1.0, 2.0))
        a = run_sweep(train, dev, spec)
        b = run_sweep(train, dev, spec)
        assert a == b

    def test_parallel_workers_match_sequential(self, tiny_corpus):
        train, dev = split_dataset(tiny_corpus, 0.8, seed=0)
        spec = GridSpec(n=(1,), C=(1.0, 2.0))
        sequential = run_sweep(train, dev, spec, workers=1)
        parallel = run_sweep(train, dev, spec, workers=2)
        assert sequential == parallel


def sweep_tsv(results) -> str:
    out = io.StringIO()
    write_sweep_tsv(results, out)
    return out.getvalue()


def noisy_corpus(n_docs: int = 64, seed: int = 5):
    """Four labels over overlapping vocabularies with some wrong and some second
    labels, so that the configs of a small grid score differently."""
    rng = random.Random(seed)
    shared = [f"s{i}" for i in range(8)]
    lines = []
    for i in range(n_docs):
        label = i % 4
        own = [f"l{label}w{j}" for j in range(4)]
        text = " ".join(rng.choice(own if rng.random() < 0.4 else shared) for _ in range(rng.randint(3, 8)))
        labels = {label if rng.random() < 0.8 else rng.randrange(4)}
        if rng.random() < 0.15:
            labels.add(rng.randrange(4))
        lines.append(f"{text}\t{','.join(f'L{x}' for x in sorted(labels))}\n")
    return parse_tsv("".join(lines).encode("utf-8"))


SHARED_GRIDS = {
    "svc-n-C": GridSpec(n=(1, 2), C=(1.0, 3.0)),
    "weights": GridSpec(n=(2,), w1=(0.3, 1.0), w2=(0.5,), w3=(0.2, 0.9), C=(2.0,), balanced=False),
    "vote-tied": GridSpec(
        n=(2,), C=(1.0,), v1=(0.1, 0.2), v2=(0.1, 0.2), v3=(0.1, 0.3),
        classifier="vote", n_trees=5, seed=4,
    ),
    "forest": GridSpec(n=(1, 2), max_features=(None, 40), C=(1.0,), classifier="forest", n_trees=7, seed=3),
    "knn": GridSpec(n=(1, 3), w1=(0.2, 1.0), C=(1.0,), classifier="knn", k=3),
}


class TestSharedSweep:
    """The staged sweep against one whole ``run_pipeline`` per config."""

    @pytest.fixture(scope="class")
    def split(self):
        return split_dataset(noisy_corpus(), 0.75, seed=1)

    @pytest.mark.parametrize("name", sorted(SHARED_GRIDS))
    def test_tsv_byte_identical_to_per_config_runs(self, split, name):
        train, dev = split
        spec = SHARED_GRIDS[name]
        expected = sweep_tsv(reference_run_sweep(train, dev, spec))
        assert sweep_tsv(run_sweep(train, dev, spec, workers=1)) == expected
        assert sweep_tsv(run_sweep(train, dev, spec, workers=2)) == expected

    def test_each_block_and_model_group_fitted_once(self, split, monkeypatch):
        train, dev = split
        texts = len(train) + len(dev)
        analyzed: dict[tuple, int] = {}
        fits: dict[str, int] = {}
        build = lahja.vectorizer.build_analyzer

        def counting_build(kind, ngram_range):
            analyze = build(kind, ngram_range)

            def counted(text):
                analyzed[kind, ngram_range] = analyzed.get((kind, ngram_range), 0) + 1
                return analyze(text)

            return counted

        monkeypatch.setattr(lahja.vectorizer, "build_analyzer", counting_build)
        for cls in (LinearSvc, RandomForest, KnnClassifier):
            fit = cls.fit

            def counting_fit(self, *args, _fit=fit, _name=cls.__name__, **kwargs):
                fits[_name] = fits.get(_name, 0) + 1
                return _fit(self, *args, **kwargs)

            monkeypatch.setattr(cls, "fit", counting_fit)
        # 2 n x 2 C model groups, each re-voted with 4 weight triples.
        spec = GridSpec(n=(1, 2), C=(1.0, 2.0), v1=(0.2, 0.4), v2=(0.1, 0.3), classifier="vote", n_trees=3)
        assert len(run_sweep(train, dev, spec, workers=1)) == 16
        blocks = {(kind, (1, n)) for kind in ("word", "char", "char_wb") for n in (1, 2)}
        assert analyzed == {block: texts for block in blocks}
        assert fits == {"LinearSvc": 4, "RandomForest": 4, "KnnClassifier": 4}

    def test_label_space_mismatch_rejected(self, split):
        train, dev = split
        other = parse_tsv(b"aa bb\tZZ\n")
        with pytest.raises(ValueError, match="label spaces differ"):
            run_sweep(train, other, GridSpec(n=(1,), C=(1.0,)))
