from __future__ import annotations

import io
import random
from dataclasses import replace

import pytest

from lahja import (
    PRESET_NAMES,
    BlockSpec,
    Dataset,
    DecisionPolicy,
    DialectPipeline,
    ForestParams,
    GridSpec,
    LinearSvc,
    PipelineConfig,
    make_synthetic,
    merge_label_spaces,
    parse_tsv,
    preset,
    run_component_comparison,
    run_pipeline,
    run_sweep,
    split_dataset,
    weighted_votes,
    write_sweep_tsv,
)

from helpers import count_featurized, count_fits, reference_run_pipeline, reference_run_sweep


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
        assert pipeline.models_["svc"].n_labels_ == 2

    def test_all_unlabeled_rejected(self):
        ds = parse_tsv(b"aa\t\nbb\t\n")
        cfg = PipelineConfig(word=BlockSpec((1, 1)), char=None, char_wb=None)
        with pytest.raises(ValueError, match="no labeled documents"):
            DialectPipeline(cfg).fit(ds)

    @pytest.mark.parametrize("name", ["baseline", "exp3-hard"])
    @pytest.mark.parametrize("fit", ["pipeline", "run_pipeline"])
    def test_no_labeled_document_fails_before_featurizing(self, monkeypatch, fit, name):
        dev = parse_tsv(b"aa bb\tX\ncc dd\tY\nee ff\tX\n")
        train = Dataset(tuple(replace(doc, labels=frozenset()) for doc in dev.documents), dev.label_space)
        featurized = count_featurized(monkeypatch)
        with pytest.raises(ValueError, match="no labeled documents available for classifier training"):
            if fit == "pipeline":
                DialectPipeline(preset(name)).fit(train)
            else:
                run_pipeline(train, dev, preset(name))
        assert featurized == {}

    @pytest.mark.parametrize(
        "config, fitted",
        [
            (preset("exp3-hard"), {"LinearSvc": 1, "RandomForest": 1, "KnnClassifier": 1, "gram": 1}),
            (PipelineConfig(classifier="forest", forest=ForestParams(n_trees=7)), {"RandomForest": 1}),
            (PipelineConfig(classifier="knn"), {"KnnClassifier": 1}),
        ],
    )
    def test_fits_each_model_once_and_a_gram_only_for_an_svc(self, monkeypatch, config, fitted):
        train = make_synthetic(3, 20, 8, 0.0, seed=1)
        fits = count_fits(monkeypatch)
        DialectPipeline(config).fit(train)
        assert fits == fitted

    @pytest.mark.parametrize("classifier", ["forest", "knn"])
    def test_model_without_an_svc_fits_a_one_label_training_set(self, classifier):
        train = parse_tsv(b"aa bb\tX\ncc dd\tX\nee ff\tX\n")
        pipeline = DialectPipeline(PipelineConfig(classifier=classifier, forest=ForestParams(n_trees=3))).fit(train)
        assert pipeline.predict(["aa zz", "qq"]) == [frozenset({0})] * 2

    @pytest.mark.parametrize("fit", ["pipeline", "run_pipeline"])
    def test_topk_wider_than_the_label_space_fails_before_featurizing(self, monkeypatch, fit):
        train = make_synthetic(3, 20, 8, 0.0, seed=1)
        config = PipelineConfig(policy=DecisionPolicy("topk", k=5))
        featurized = count_featurized(monkeypatch)
        with pytest.raises(ValueError, match="top-k policy with k=5 exceeds label count 3"):
            if fit == "pipeline":
                DialectPipeline(config).fit(train)
            else:
                run_pipeline(train, train, config)
        assert featurized == {}

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

    @pytest.mark.parametrize("policy", [DecisionPolicy("threshold", tau=-0.3), DecisionPolicy("topk", k=2)])
    def test_score_policy_applies_to_the_svc_margins(self, policy):
        ds = make_synthetic(3, 30, 10, 0.5, seed=11)
        cfg = PipelineConfig(word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=None, policy=policy)
        pipeline = DialectPipeline(cfg).fit(ds)
        X = pipeline.union_.transform(ds.texts())
        predicted = pipeline.predict_matrix(X)
        assert predicted == policy.decide(pipeline.models_["svc"].decision_function(X))
        assert any(len(labels) > 1 for labels in predicted)


# The synthetic corpora score alike under any block weights; the noisy one does not.
RUN_PIPELINE_SPLITS = {
    "disjoint": lambda: split_dataset(make_synthetic(6, 200, 50, 0.0, 42), 0.8, seed=1),
    "overlap": lambda: split_dataset(make_synthetic(10, 60, 60, 0.15, 3), 0.8, seed=1),
    "overlap-small": lambda: split_dataset(make_synthetic(10, 30, 60, 0.15, 1009), 0.8, seed=1),
    "noisy": lambda: split_dataset(noisy_corpus(), 0.75, seed=1),
}
_SMALL_UNION = dict(word=BlockSpec((1, 2)), char=BlockSpec((1, 3)), char_wb=None)
RUN_PIPELINE_CONFIGS = {
    **{name: preset(name) for name in PRESET_NAMES},
    "threshold": PipelineConfig(**_SMALL_UNION, policy=DecisionPolicy("threshold", tau=-0.3)),
    "topk": PipelineConfig(**_SMALL_UNION, policy=DecisionPolicy("topk", k=2)),
    "forest": PipelineConfig(**_SMALL_UNION, classifier="forest", forest=ForestParams(n_trees=7), seed=3),
    "knn": PipelineConfig(**_SMALL_UNION, classifier="knn", k=5),
    # Every fifth training document loses its labels.
    "vote-unlabeled": PipelineConfig(**_SMALL_UNION, classifier="vote", forest=ForestParams(n_trees=7), k=5),
}


class TestRunPipeline:
    """``run_pipeline`` on the sweep's engine against a whole ``DialectPipeline``."""

    @pytest.fixture(scope="class", params=list(RUN_PIPELINE_SPLITS))
    def split(self, request):
        return RUN_PIPELINE_SPLITS[request.param]()

    @pytest.mark.parametrize("name", list(RUN_PIPELINE_CONFIGS))
    def test_report_equals_a_fitted_pipeline_scored(self, split, name):
        train, dev = split
        if name == "vote-unlabeled":
            documents = tuple(replace(doc, labels=frozenset()) if doc.id % 5 == 0 else doc for doc in train.documents)
            train = Dataset(documents, train.label_space)
        config = RUN_PIPELINE_CONFIGS[name]
        assert run_pipeline(train, dev, config).to_dict() == reference_run_pipeline(train, dev, config).to_dict()

    def test_eval_set_without_gold_fails_before_any_fit(self, monkeypatch):
        train = parse_tsv(b"aa bb\tX\ncc dd\tY\n")
        _, dev = merge_label_spaces(train, parse_tsv(b"aa bb\tX\ncc\t\n"))
        fits = count_fits(monkeypatch)
        with pytest.raises(ValueError, match="sample 1 has an empty gold label set"):
            run_pipeline(train, dev, PipelineConfig(word=BlockSpec((1, 1)), char=None, char_wb=None))
        assert fits == {}


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
        assert list(pipeline.models_) == ["svc", "forest", "knn"]
        votes = zip(*[model.predict(X).tolist() for model in pipeline.models_.values()])
        expected = [frozenset((weighted_votes([row], cfg.vote_weights)[0],)) for row in votes]
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
        model = pipeline.models_[classifier]
        assert list(pipeline.models_) == [classifier]
        (votes,) = [entry.predict(X) for entry in pipeline.models_.values()]
        assert len(votes) == len(out) and votes.tolist() == model.predict(X).tolist()
        assert pipeline.predict(out.texts()) == [frozenset((int(label),)) for label in votes]

    def test_batch_predict_equals_one_text_at_a_time(self):
        ds = make_synthetic(3, 30, 10, 0.5, seed=11)
        cfg = PipelineConfig(
            word=BlockSpec((1, 1)), char=BlockSpec((1, 3)), char_wb=None,
            policy=DecisionPolicy("threshold", tau=-0.2),
        )
        pipeline = DialectPipeline(cfg).fit(ds)
        texts = ds.texts() + ["zz_unseen qq_unseen"]
        assert pipeline.predict(texts) == [pipeline.predict_text(text) for text in texts]

    @pytest.mark.parametrize("corpus", ["synthetic", "noisy"])
    @pytest.mark.parametrize("name", ["exp3-hard", "exp3-weighted"])
    def test_component_comparison_equals_run_pipeline(self, monkeypatch, name, corpus):
        """Each report is that of a whole ``DialectPipeline`` of its
        one-classifier config or the vote config, and each of the three
        models is fitted once."""
        if corpus == "synthetic":
            train, dev = split_dataset(make_synthetic(10, 30, 60, 0.15, 1009), 0.8, seed=1009)
        else:
            train, dev = split_dataset(noisy_corpus(), 0.75, seed=1)
        config = preset(name)
        fits = count_fits(monkeypatch)
        reports = run_component_comparison(train, dev, config)
        assert fits == {"LinearSvc": 1, "RandomForest": 1, "KnnClassifier": 1, "gram": 1}
        assert list(reports) == ["svc", "forest", "knn", "vote"]
        for classifier, report in reports.items():
            expected = reference_run_pipeline(train, dev, replace(config, classifier=classifier))
            assert report.to_dict() == expected.to_dict()

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

    def test_library_sweep_ignores_lahja_threads(self, tiny_corpus, monkeypatch):
        # LAHJA_THREADS is read by ``lahja sweep``; run_sweep defaults to one worker.
        train, dev = split_dataset(tiny_corpus, 0.8, seed=0)
        spec = GridSpec(n=(1,), C=(1.0, 2.0))
        monkeypatch.setenv("LAHJA_THREADS", "many")
        assert run_sweep(train, dev, spec) == run_sweep(train, dev, spec, workers=1)


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
    "svc-warm": GridSpec(n=(1, 2), C=(1.0, 2.0, 4.0)),
    "weights": GridSpec(n=(2,), w1=(0.3, 1.0), w2=(0.5,), w3=(0.2, 0.9), C=(2.0,), balanced=False),
    "vote-tied": GridSpec(
        n=(2,), C=(1.0,), v1=(0.1, 0.2), v2=(0.1, 0.2), v3=(0.1, 0.3),
        classifier="vote", n_trees=5, seed=4,
    ),
    "forest": GridSpec(n=(1, 2), max_features=(None, 40), C=(1.0,), classifier="forest", n_trees=7, seed=3),
    "knn": GridSpec(n=(1, 3), w1=(0.2, 1.0), C=(1.0,), classifier="knn", k=3),
    "svc-threshold": GridSpec(n=(1, 2), C=(1.0, 3.0), policy=DecisionPolicy("threshold", tau=-0.3)),
    "svc-topk": GridSpec(n=(1, 2), C=(1.0, 3.0), policy=DecisionPolicy("topk", k=2)),
    "vote-C": GridSpec(n=(1, 2), C=(1.0, 3.0), v1=(0.2, 0.6), classifier="vote", n_trees=5),
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
        analyzed = count_featurized(monkeypatch)
        fits = count_fits(monkeypatch)
        # 2 n x 2 C SVCs, and per n one forest and one KNN that the C values
        # share, each config deciding with one of 4 weight triples.
        spec = GridSpec(n=(1, 2), C=(1.0, 2.0), v1=(0.2, 0.4), v2=(0.1, 0.3), classifier="vote", n_trees=3)
        assert len(run_sweep(train, dev, spec, workers=1)) == 16
        blocks = {(kind, (1, n)) for kind in ("word", "char", "char_wb") for n in (1, 2)}
        assert analyzed == {block: texts for block in blocks}
        # One Gram per distinct union: the C values share it.
        assert fits == {"LinearSvc": 4, "RandomForest": 2, "KnnClassifier": 2, "gram": 2}

    @pytest.mark.parametrize("name, fitted", [("forest", {"RandomForest": 4}), ("knn", {"KnnClassifier": 4})])
    def test_grid_without_an_svc_builds_no_gram(self, split, monkeypatch, name, fitted):
        train, dev = split
        fits = count_fits(monkeypatch)
        run_sweep(train, dev, SHARED_GRIDS[name], workers=1)
        assert fits == fitted  # one model per union: n x max_features, n x w1

    def test_later_svc_fits_of_a_union_start_warm_with_the_cold_bits(self, split, monkeypatch):
        train, dev = split
        fits = []
        real_fit = LinearSvc.fit

        def capture(self, X, y, n_labels=None, **shared):
            fits.append((self, X, y, n_labels, shared))
            return real_fit(self, X, y, n_labels, **shared)

        monkeypatch.setattr(LinearSvc, "fit", capture)
        run_sweep(train, dev, SHARED_GRIDS["svc-warm"], workers=1)
        monkeypatch.undo()
        assert len(fits) == 6
        unions = {}  # by the shared Gram
        for model, X, y, n_labels, shared in fits:
            unions.setdefault(id(shared["_gram"]), []).append((model, shared["_start"]))
        assert [[start is None for _, start in members] for members in unions.values()] == [[True, False, False]] * 2
        for members in unions.values():
            for (previous, _), (_, start) in zip(members, members[1:]):
                assert start is previous._supports  # the supports of the union's previous fit
        for model, X, y, n_labels, _ in fits:
            cold = LinearSvc(**model.get_params()).fit(X, y, n_labels)
            assert model.coef_.tobytes() == cold.coef_.tobytes()
            assert model.intercept_.tobytes() == cold.intercept_.tobytes()

    @pytest.mark.parametrize(
        "dev_text, message",
        [(b"", "cannot evaluate an empty sample list"), (b"s1 s2\tL0\ns3 s4\t\n", "sample 1 has an empty gold label set")],
    )
    def test_dev_set_the_scorer_refuses_fails_before_any_fit(self, split, monkeypatch, dev_text, message):
        train, _ = split
        _, dev = merge_label_spaces(train, parse_tsv(dev_text))
        analyzed = count_featurized(monkeypatch)
        with pytest.raises(ValueError, match=message):
            run_sweep(train, dev, GridSpec(n=(1, 2), C=(1.0,)))
        assert analyzed == {}

    def test_label_space_mismatch_rejected(self, split):
        train, dev = split
        other = parse_tsv(b"aa bb\tZZ\n")
        with pytest.raises(ValueError, match="label spaces differ"):
            run_sweep(train, other, GridSpec(n=(1,), C=(1.0,)))
