"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from lahja import (
    DialectPipeline,
    LinearSvc,
    TfidfBlock,
    char_ngrams,
    char_wb_ngrams,
    compute_class_weights,
    dumps_model,
    evaluate,
    load_model,
    make_synthetic,
    preset,
    run_component_comparison,
    run_pipeline,
    save_model,
    save_tsv,
    split_dataset,
    tokenize_words,
    weighted_votes,
    word_ngrams,
)
from lahja.cli import main as cli_main

from helpers import same
from test_ensemble import oracle_vote
from test_svm import separable_instance


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}", flush=True)
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description}", flush=True)


def test_criterion_01_tfidf_oracle():
    with criterion(1, "tf-idf transform matches hand-computed values within 1e-6, < 1s"):
        start = time.perf_counter()
        block = TfidfBlock("word", (1, 1)).fit(["a b a", "b c"])
        vec = block.transform(["a b a"])
        assert vec.indices.tolist() == [0, 1]
        np.testing.assert_allclose(vec.values, [0.942156, 0.335176], atol=1e-6)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_analyzer_golden_set():
    with criterion(2, "the nine analyzer examples reproduce exactly"):
        assert word_ngrams(["a", "b", "c"], (1, 2)) == ["a", "b", "c", "a b", "b c"]
        assert word_ngrams(["a"], (2, 2)) == []
        assert word_ngrams(["a", "b"], (1, 1)) == ["a", "b"]
        assert char_ngrams("ab c", (2, 2)) == ["ab", "b ", " c"]
        assert char_ngrams("ab", (3, 3)) == []
        assert char_ngrams("aa", (1, 2)) == ["a", "a", "aa"]
        assert char_wb_ngrams("ab cd", (3, 3)) == [" ab", "ab ", " cd", "cd "]
        assert char_wb_ngrams("ab", (2, 2)) == [" a", "ab", "b "]
        assert char_wb_ngrams("a", (5, 5)) == [" a "]
        # supporting tokenizer examples
        assert tokenize_words("مرحبا يا عالم") == ["مرحبا", "يا", "عالم"]
        assert tokenize_words("a-b c") == ["a", "b", "c"]
        assert tokenize_words("") == []


def test_criterion_03_svm_correctness():
    with criterion(3, "100% training accuracy on 20 separable instances; dual objective monotone; < 5s"):
        start = time.perf_counter()
        rng = np.random.RandomState(1234)
        for _ in range(20):
            n_points = rng.randint(4, 21)
            n_dims = rng.randint(2, 6)
            X, y = separable_instance(rng, n_points, n_dims)
            model = LinearSvc(C=1.0, seed=int(rng.randint(1000))).fit(X, y)
            assert model.predict(X).tolist() == y
            for history in model.dual_objective_history_:
                assert (np.diff(history) >= -1e-9).all()
        assert time.perf_counter() - start < 5.0


def test_criterion_04_class_weight_identity():
    with criterion(4, "sum_c w(c)*count(c) = N exactly on 100 random label multisets"):
        rng = np.random.RandomState(99)
        for _ in range(100):
            n_labels = int(rng.randint(2, 9))
            labels = list(rng.randint(0, n_labels, size=int(rng.randint(n_labels, 80))))
            labels.extend(range(n_labels))
            counts = np.bincount(labels, minlength=n_labels)
            total = len(labels)
            # identity checked in exact rational arithmetic over the defining
            # formula; floats cannot carry it bit-exactly for arbitrary counts
            exact = [Fraction(total, n_labels * int(c)) for c in counts]
            assert sum(w * int(c) for w, c in zip(exact, counts)) == total
            weights = compute_class_weights(labels, n_labels)
            for w_float, w_exact in zip(weights, exact):
                assert w_float == w_exact.numerator / w_exact.denominator


def test_criterion_05_voting_oracle():
    with criterion(5, "weighted vote matches brute force on 27,648 cases, zero mismatches, < 5s"):
        start = time.perf_counter()
        weight_grid = tuple(round(0.1 * i, 1) for i in range(1, 7))
        checked = 0
        for votes in itertools.product(range(4), repeat=3):
            for weights in itertools.product(weight_grid, repeat=3):
                expected = oracle_vote(votes, weights)
                assert weighted_votes([votes], weights)[0] == expected
                checked += 1
                # scale invariance doubles the case count
                doubled = tuple(w * 2.0 for w in weights)
                assert weighted_votes([votes], doubled)[0] == expected
                checked += 1
        assert checked == 27_648
        assert time.perf_counter() - start < 5.0


def test_criterion_06_metric_anchor():
    with criterion(6, "P=0.6322, R=0.1287 harmonize to f1 = 0.2139 +- 0.0005"):
        preds, golds = [], []
        for _ in range(452):
            preds.append({0})
            golds.append({0, 1, 2, 3})
        for _ in range(5870):
            preds.append({0})
            golds.append({0, 1, 2, 3, 4})
        for _ in range(3678):
            preds.append({5})
            golds.append({0})
        report = evaluate(preds, golds, n_labels=6)
        assert report.precision == pytest.approx(0.6322, abs=1e-12)
        assert report.recall == pytest.approx(0.1287, abs=1e-12)
        assert abs(report.f1 - 0.2139) <= 0.0005


def test_criterion_07_end_to_end(synthetic_split):
    with criterion(7, "preset exp1 on the 6x200 synthetic corpus, 80/20 split: f1 >= 0.90, < 60s"):
        train, held_out = synthetic_split
        start = time.perf_counter()
        report = run_pipeline(train, held_out, preset("exp1"))
        elapsed = time.perf_counter() - start
        assert report.f1 >= 0.90
        assert elapsed < 60.0


def test_criterion_08_ensemble_sanity(synthetic_split):
    with criterion(8, "all five exp2 presets and both voting presets complete with valid reports"):
        train, held_out = synthetic_split
        for name in ("exp2-1", "exp2-2", "exp2-3", "exp2-4", "exp2-5"):
            report = run_pipeline(train, held_out, preset(name))
            assert 0.0 <= report.f1 <= 1.0
            assert report.n_samples == len(held_out)
            print(f"  {name}: f1={report.f1:.4f} P={report.precision:.4f} R={report.recall:.4f}")
        for name in ("exp3-hard", "exp3-weighted"):
            reports = run_component_comparison(train, held_out, preset(name))
            assert set(reports) == {"svc", "forest", "knn", "vote"}
            side_by_side = " ".join(f"{k}={reports[k].f1:.4f}" for k in ("svc", "forest", "knn", "vote"))
            print(f"  {name}: {side_by_side}")
            for report in reports.values():
                assert 0.0 <= report.f1 <= 1.0
                assert report.n_samples == len(held_out)


def test_criterion_09_persistence(tmp_path):
    with criterion(9, "save/load predictions bit-identical on 100 docs; double save byte-identical"):
        corpus = make_synthetic(4, 20, 10, 0.2, seed=17)
        config = preset("exp3-weighted")
        pipeline = DialectPipeline(config).fit(corpus)
        path = tmp_path / "bundle.json"
        save_model(pipeline, path)
        loaded = load_model(path)

        import random

        rng = random.Random(5)
        tokens = sorted({tok for text in corpus.texts() for tok in text.split()})
        for _ in range(100):
            text = " ".join(rng.choice(tokens) for _ in range(rng.randint(3, 12)))
            x_orig = pipeline.union_.transform_one(text)
            x_load = loaded.union_.transform_one(text)
            assert same(x_orig, x_load)
            assert pipeline.predict_text(text) == loaded.predict_text(text)
            assert (
                pipeline.models_["svc"].decision_function(x_orig).tobytes()
                == loaded.models_["svc"].decision_function(x_load).tobytes()
            )
        assert dumps_model(pipeline) == dumps_model(pipeline)
        assert dumps_model(loaded) == path.read_bytes()


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "repeated train and sweep commands produce byte-identical outputs"):
        corpus = make_synthetic(3, 15, 8, 0.0, seed=23)
        train, dev = split_dataset(corpus, 0.8, seed=1)
        train_path = tmp_path / "train.tsv"
        dev_path = tmp_path / "dev.tsv"
        save_tsv(train, train_path)
        save_tsv(dev, dev_path)

        model_a = tmp_path / "model_a.json"
        model_b = tmp_path / "model_b.json"
        for out in (model_a, model_b):
            code = cli_main(
                ["train", "--train-file", str(train_path), "--preset", "exp2-2", "--out", str(out)]
            )
            assert code == 0
        assert model_a.read_bytes() == model_b.read_bytes()

        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"n": [1, 2], "C": [1.0, 2.0]}', encoding="utf-8")
        sweep_a = tmp_path / "sweep_a.tsv"
        sweep_b = tmp_path / "sweep_b.tsv"
        for out in (sweep_a, sweep_b):
            code = cli_main(
                [
                    "sweep",
                    "--train-file", str(train_path),
                    "--dev-file", str(dev_path),
                    "--grid", str(grid_path),
                    "--out", str(out),
                ]
            )
            assert code == 0
        assert sweep_a.read_bytes() == sweep_b.read_bytes()
