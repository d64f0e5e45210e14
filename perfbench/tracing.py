"""Span recording around lahja's public functions, installed from outside.

The program has no trace hook of its own yet, so the benchmark wraps the
public functions of each module for the length of a traced pass and puts
the originals back afterwards. Each span records its name, start, end,
parent span and step; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import math
import statistics
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# Layers in report order; a span's layer is the part of its name before the dot.
LAYERS = (
    "cli", "corpus", "analyzers", "vectorizer", "svm", "forest", "knn",
    "pipeline", "persistence", "grid", "metrics",
)


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self) -> None:
        # (name, start, end, parent index or -1, step index)
        self.spans: list[tuple[str, float, float, int, int]] = []
        # span index -> facts a hook read from the wrapped call's result
        self.facts: dict[int, dict] = {}
        self.step = -1
        self.step_names: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            index = len(spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            spans.append((name, 0.0, 0.0, parent, tracer.step))
            tracer._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                spans[index] = (name, start, end, parent, tracer.step)
            if hook is not None:
                tracer.facts[index] = hook(args, result)
            return result

        return traced

    @contextmanager
    def step_span(self, name: str) -> Iterator[None]:
        """Root span for one CLI call; its self time is the CLI layer's own work."""
        self.step += 1
        self.step_names.append(name)
        name = f"cli.{name}"
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, -1, self.step))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, self.step)

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every traced function; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, wrapped in self._wrappers():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapped)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrappers(self) -> list[tuple[object, str, object]]:
        import lahja.cli
        import lahja.grid
        import lahja.persistence
        import lahja.vectorizer
        from lahja.forest import RandomForest
        from lahja.knn import KnnClassifier
        from lahja.pipeline import DialectPipeline
        from lahja.svm import LinearSvc
        from lahja.vectorizer import TfidfUnion

        original_build = lahja.vectorizer.build_analyzer

        def build_analyzer(kind, ngram_range):
            return self.wrap(f"analyzers.{kind}", original_build(kind, ngram_range))

        def method(cls, attr, name, hook=None):
            return (cls, attr, self.wrap(name, cls.__dict__[attr], hook))

        from_fitted = KnnClassifier.__dict__["from_fitted"].__func__
        return [
            (lahja.vectorizer, "build_analyzer", build_analyzer),
            (lahja.cli, "parse_tsv", self.wrap("corpus.parse_tsv", lahja.cli.parse_tsv)),
            (lahja.cli, "evaluate", self.wrap("metrics.evaluate", lahja.cli.evaluate)),
            method(TfidfUnion, "fit", "vectorizer.fit"),
            method(TfidfUnion, "transform", "vectorizer.transform", _nnz_facts),
            method(TfidfUnion, "transform_one", "vectorizer.transform_one"),
            method(LinearSvc, "fit", "svm.fit", _svm_facts),
            method(LinearSvc, "decision_function", "svm.decision"),
            method(RandomForest, "fit", "forest.fit"),
            method(RandomForest, "predict", "forest.predict"),
            method(KnnClassifier, "fit", "knn.fit"),
            (KnnClassifier, "from_fitted", classmethod(self.wrap("knn.from_fitted", from_fitted))),
            method(KnnClassifier, "predict", "knn.predict"),
            method(DialectPipeline, "fit", "pipeline.fit"),
            method(DialectPipeline, "predict_text", "pipeline.predict_text"),
            (lahja.persistence, "dumps_model", self.wrap("persistence.dumps", lahja.persistence.dumps_model)),
            (lahja.persistence, "loads_model", self.wrap("persistence.loads", lahja.persistence.loads_model)),
            (lahja.grid, "run_pipeline", self.wrap("grid.config", lahja.grid.run_pipeline)),
        ]


def _nnz_facts(args: tuple, vectors: list) -> dict:
    return {"docs": len(vectors), "nnz": sum(int(v.nnz) for v in vectors)}


def _svm_facts(args: tuple, model) -> dict:
    return {
        "epochs": [len(h) for h in model.dual_objective_history_],
        "samples": len(args[1]),
        "max_epochs": int(model.max_epochs),
    }


def self_times(spans: list[tuple[str, float, float, int, int]]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def tail_percentile(count: int) -> float | None:
    """The highest of a fixed ladder of percentiles with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if count - math.ceil(p / 100.0 * count) >= 10:
            return p
    return None


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def per_doc(values: list[float]) -> dict:
    """p50 and the tail percentile of per-doc durations, in microseconds."""
    if not values:
        return {"n": 0, "p50_us": 0.0, "tail_us": 0.0, "tail_p": None}
    tail = tail_percentile(len(values))
    us = [v * 1e6 for v in values]
    return {
        "n": len(values),
        "p50_us": statistics.median(us),
        "tail_p": tail,
        # With under 10 docs beyond even p50, the maximum stands in and says so.
        "tail_us": percentile(us, tail) if tail is not None else max(us),
    }


def summarize(
    tracer: Tracer,
    first: int,
    last: int,
    train_docs: int,
    sweep_docs: int,
    distinct_unions: int,
) -> dict:
    """Per-layer numbers for the spans ``first:last`` of one traced pass.

    Train-step numbers come from the ``train`` call, per-doc latencies from
    the ``predict`` call over the test file, grid numbers from the ``sweep``
    call. ``sweep_docs`` is train plus dev docs; the fewest analyzer calls a
    sweep can make is one per doc per block per distinct union.
    """
    spans = tracer.spans
    own = self_times(spans)
    groups: dict[tuple[str, str], list[int]] = {}
    for i in range(first, last):
        name, _, _, _, step = spans[i]
        groups.setdefault((tracer.step_names[step], name), []).append(i)
        groups.setdefault(("*", name), []).append(i)

    def durations(step: str, name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in groups.get((step, name), [])]

    def total(step: str, name: str) -> float:
        return sum(durations(step, name))

    def facts(step: str, name: str) -> list[dict]:
        return [tracer.facts[i] for i in groups.get((step, name), []) if i in tracer.facts]

    kinds = [k for k in ("word", "char", "char_wb") if ("train", f"analyzers.{k}") in groups]
    out: dict = {"corpus.parse_tsv_s": total("*", "corpus.parse_tsv")}
    train_calls = 0
    for kind in ("word", "char", "char_wb"):
        calls = durations("train", f"analyzers.{kind}")
        train_calls += len(calls)
        # Mean analyzer call times the doc count: one analysis of the train texts.
        out[f"analyzers.{kind}_s"] = sum(calls) / len(calls) * train_docs if calls else 0.0
    out["analyzers.calls_per_doc"] = train_calls / (train_docs * len(kinds)) if kinds else 0.0

    out["vectorizer.fit_s"] = total("train", "vectorizer.fit")
    out["vectorizer.transform_s"] = total("train", "vectorizer.transform")
    nnz = facts("train", "vectorizer.transform")
    docs = sum(f["docs"] for f in nnz)
    out["vectorizer.nnz_per_doc"] = sum(f["nnz"] for f in nnz) / docs if docs else 0.0
    latency = {
        name: per_doc(durations("predict", name))
        for name in (
            "vectorizer.transform_one", "svm.decision", "forest.predict",
            "knn.predict", "pipeline.predict_text",
        )
    }
    out["vectorizer.transform_one_p50_us"] = latency["vectorizer.transform_one"]["p50_us"]
    out["vectorizer.transform_one_tail_us"] = latency["vectorizer.transform_one"]["tail_us"]

    out["svm.fit_s"] = total("train", "svm.fit")
    svm = facts("train", "svm.fit")
    epochs = [e for f in svm for e in f["epochs"]]
    out["svm.epochs_total"] = sum(epochs)
    out["svm.epochs_max"] = max(epochs, default=0)
    out["svm.labels_at_max_epochs"] = sum(
        1 for f in svm for e in f["epochs"] if e >= f["max_epochs"]
    )
    out["svm.coord_steps"] = sum(sum(f["epochs"]) * f["samples"] for f in svm)
    out["svm.decision_p50_us"] = latency["svm.decision"]["p50_us"]
    out["forest.fit_s"] = total("train", "forest.fit")
    out["forest.predict_p50_us"] = latency["forest.predict"]["p50_us"]
    out["knn.fit_s"] = total("train", "knn.fit")
    # The index rebuild each bundle load pays, in the set-up and predict calls.
    out["knn.load_index_s"] = statistics.median(durations("*", "knn.from_fitted") or [0.0])
    out["knn.predict_p50_us"] = latency["knn.predict"]["p50_us"]

    out["pipeline.fit_self_s"] = sum(own[i] for i in groups.get(("train", "pipeline.fit"), []))
    out["pipeline.predict_text_p50_us"] = latency["pipeline.predict_text"]["p50_us"]
    out["pipeline.predict_text_tail_us"] = latency["pipeline.predict_text"]["tail_us"]
    out["persistence.dumps_s"] = total("train", "persistence.dumps")
    loads = durations("*", "persistence.loads")
    out["persistence.loads_s"] = statistics.median(loads) if loads else 0.0

    configs = durations("sweep", "grid.config")
    sweep_calls = [len(durations("sweep", f"analyzers.{k}")) for k in ("word", "char", "char_wb")]
    sweep_blocks = sum(1 for calls in sweep_calls if calls)
    out["grid.configs"] = len(configs)
    out["grid.config_p50_s"] = statistics.median(configs) if configs else 0.0
    out["grid.analyze_efficiency"] = (
        sweep_docs * sweep_blocks * distinct_unions / sum(sweep_calls) if sweep_blocks else 0.0
    )

    steps = sorted({tracer.step_names[spans[i][4]] for i in range(first, last)})
    by_layer = {step: dict.fromkeys(LAYERS, 0.0) for step in [*steps, "*"]}
    for i in range(first, last):
        layer = spans[i][0].split(".", 1)[0]
        step = tracer.step_names[spans[i][4]]
        by_layer[step][layer] += own[i]
        by_layer["*"][layer] += own[i]
    traced_wall = sum(total("*", f"cli.{step}") for step in steps)
    for layer in LAYERS:
        out[f"{layer}.self_pct"] = 100.0 * by_layer["*"][layer] / traced_wall

    detail = {
        "latency": latency,
        "self_s": by_layer,
        "traced_wall_s": traced_wall,
        "report_only": {
            "pipeline.fit_s": total("train", "pipeline.fit"),
            "svm.epochs_per_label": epochs,
        },
    }
    return {"metrics": out, "detail": detail}
