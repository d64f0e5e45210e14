"""Scoring configs against a dev set: one config, a hyperparameter grid's
deterministic enumeration and sweep, and the component comparison.

A :class:`GridSpec` holds one candidate list per tunable field; the sweep
runs the Cartesian product with the declared field order (``n`` varies
slowest, ``v3`` fastest), where a field the configs never read (``C``
without an SVC, ``v1``-``v3`` without the vote) keeps its first candidate.
Classifier choice and other non-swept settings are fixed scalar fields; a
candidate or setting no config could take fails when the grid is built.
:func:`run_pipeline`, the sweep and the component comparison score their
configs on one engine, :func:`_score_configs`, which fits each distinct
block, union and model once, the models through the loop ``lahja train``
uses; each report scores the dev predictions of ``DialectPipeline(config)``
fitted on the training set.
Sweep workers can run in separate processes, as many as the caller's
``workers`` argument allows (default 1; ``lahja sweep`` reads it from
``LAHJA_THREADS``), and results are sorted by f1 and then canonical JSON, so
output is independent of scheduling.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Sequence

from .base import JsonObject
from .corpus import Dataset, check_label_spaces
from .ensemble import DecisionPolicy
from .metrics import MetricsReport, check_golds, evaluate
from .pipeline import (
    CLASSIFIER_CHOICES,
    ForestParams,
    PipelineConfig,
    SvcParams,
    check_fittable,
    fit_models,
    training_samples,
)
from .sparse import CsrMatrix
from .vectorizer import BLOCK_ORDER, BlockSpec, TfidfBlock, TfidfUnion

DEFAULT_MAX_CONFIGS = 10_000

# Documented candidate domains for the tunable fields.
N_DOMAIN = (1, 2, 3, 4, 5)
C_DOMAIN = (1.0, 2.0, 3.0, 4.0, 5.0)

_PRODUCT_FIELDS = ("n", "w1", "w2", "w3", "max_features", "C", "v1", "v2", "v3")


class GridSizeError(ValueError):
    """Grid product exceeds the configured safety cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(
            f"grid enumerates {count} configurations, exceeding the safety cap of {cap}; "
            "raise the cap explicitly to proceed"
        )


@dataclass(frozen=True)
class GridSpec(JsonObject):
    """Candidate value lists per tunable field plus fixed run settings.

    ``n`` is a shared upper n-gram bound applied as range (1, n) to all
    three blocks; ``w1``/``w2``/``w3`` are the word/char/char_wb transformer
    weights, ``max_features`` the shared per-block cap, ``v1``/``v2``/``v3``
    the vote weights.
    """

    json_name = "grid"

    n: tuple[int, ...] = N_DOMAIN
    w1: tuple[float, ...] = (1.0,)
    w2: tuple[float, ...] = (1.0,)
    w3: tuple[float, ...] = (1.0,)
    max_features: tuple[int | None, ...] = (None,)
    C: tuple[float, ...] = C_DOMAIN
    v1: tuple[float, ...] = (1.0,)
    v2: tuple[float, ...] = (1.0,)
    v3: tuple[float, ...] = (1.0,)
    classifier: str = "svc"
    balanced: bool = True
    k: int = 3
    n_trees: int = 100
    policy: DecisionPolicy = field(default_factory=DecisionPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _PRODUCT_FIELDS:
            values = getattr(self, name)
            if isinstance(values, list):
                values = tuple(values)
                object.__setattr__(self, name, values)
            if not isinstance(values, tuple) or not values:
                raise ValueError(f"grid field {name!r} must be a non-empty sequence of candidates")
        # The fixed settings must make a config with the default candidates,
        # and so must every candidate with the other fields at their defaults.
        defaults = {f.name: f.default for f in fields(self)}
        base = [defaults[name][0] for name in _PRODUCT_FIELDS]
        self.config(*base)
        for i, name in enumerate(_PRODUCT_FIELDS):
            for value in getattr(self, name):
                try:
                    self.config(*base[:i], value, *base[i + 1 :])
                except ValueError as exc:
                    raise ValueError(f"grid field {name!r} candidate {value!r}: {exc}") from exc

    def size(self) -> int:
        return math.prod(map(len, self._swept()))

    def _swept(self) -> list[tuple]:
        """Each product field's candidates the sweep runs, in declared order:
        the first alone for a field the configs never read (``C`` without an
        SVC, ``v1``-``v3`` without the vote), otherwise all of them."""
        first = self.config(*(getattr(self, name)[0] for name in _PRODUCT_FIELDS))
        unread = set() if "svc" in first.model_params() else {"C"}
        if self.classifier != "vote":
            unread.update(("v1", "v2", "v3"))
        return [getattr(self, name)[: 1 if name in unread else None] for name in _PRODUCT_FIELDS]

    def config(self, n, w1, w2, w3, max_features, C, v1, v2, v3) -> PipelineConfig:
        """The config of one candidate per product field, in declared order."""
        return PipelineConfig(
            word=BlockSpec((1, n), max_features, w1),
            char=BlockSpec((1, n), max_features, w2),
            char_wb=BlockSpec((1, n), max_features, w3),
            classifier=self.classifier,
            svc=SvcParams(C=C, balanced=self.balanced),
            forest=ForestParams(n_trees=self.n_trees),
            k=self.k,
            vote_weights=(v1, v2, v3),
            policy=self.policy,
            seed=self.seed,
        )


def enumerate_grid(spec: GridSpec, max_configs: int = DEFAULT_MAX_CONFIGS) -> list[PipelineConfig]:
    """Cartesian product of the swept candidate lists (:meth:`GridSpec._swept`),
    in declared field order."""
    count = spec.size()
    if count > max_configs:
        raise GridSizeError(count, max_configs)
    return [spec.config(*values) for values in itertools.product(*spec._swept())]


def run_pipeline(train: Dataset, eval_dataset: Dataset, config: PipelineConfig) -> MetricsReport:
    """The report of ``config`` fitted on ``train`` and scored on ``eval_dataset``."""
    return _score_configs(train, eval_dataset, [config], workers=1)[0]


def run_sweep(
    train: Dataset,
    dev: Dataset,
    spec: GridSpec,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    workers: int = 1,
) -> list[tuple[PipelineConfig, MetricsReport]]:
    """Run every grid configuration and sort results by f1 descending.

    The configs are scored together by :func:`_score_configs`, each as
    :func:`run_pipeline` scores it alone, over up to ``workers`` processes.
    Ties order by the config's canonical JSON serialization.
    """
    configs = enumerate_grid(spec, max_configs=max_configs)
    results = list(zip(configs, _score_configs(train, dev, configs, workers)))
    results.sort(key=lambda pair: (-pair[1].f1, pair[0].canonical_json()))
    return results


def run_component_comparison(train: Dataset, eval_dataset: Dataset, config: PipelineConfig) -> dict[str, MetricsReport]:
    """Score each base classifier of a voting config beside the vote.

    Returns reports keyed "svc", "forest", "knn", "vote", each equal to
    ``run_pipeline`` of ``config`` with that ``classifier``, scored in process
    by :func:`_score_configs`: each of the three models is fitted once.
    """
    if config.classifier != "vote":
        raise ValueError("component comparison requires a voting configuration")
    configs = [replace(config, classifier=name) for name in CLASSIFIER_CHOICES]
    return dict(zip(CLASSIFIER_CHOICES, _score_configs(train, eval_dataset, configs, workers=1)))


def _score_configs(
    train: Dataset, dev: Dataset, configs: list[PipelineConfig], workers: int
) -> list[MetricsReport]:
    """The dev report of each config, in order: ``evaluate`` of the label
    sets ``DialectPipeline(config).fit(train)`` predicts for dev's texts,
    against dev's gold sets. The configs share one policy.

    The work is shared in two stages. Each distinct TF-IDF block (its
    analyzer, n-gram range and cap) is fitted once and transforms dev once.
    Each distinct union (blocks and transformer weights) is stacked from
    those matrices with ``TfidfUnion.stack``, as ``transform`` does, and each
    distinct model of its configs (an entry of ``model_params()``: name and
    constructor params) is fitted once, by the ``pipeline.fit_models`` that
    ``DialectPipeline.fit`` uses, and keeps its output on dev. Each config's
    label sets are then decided from its models' outputs by
    ``PipelineConfig.decide``, as ``predict_matrix`` decides them. With
    ``workers`` above one, the blocks and then the unions, each with all of
    its models, are spread over worker processes. A dev set the scorer would
    refuse fails before any fit.
    """
    check_fittable(train, configs[0].policy)
    check_label_spaces(train, dev)
    check_golds(dev.label_sets())
    unions: dict[tuple, list[PipelineConfig]] = {}  # by block specs, weights included
    for config in configs:
        unions.setdefault((config.word, config.char, config.char_wb), []).append(config)
    block_keys = list(dict.fromkeys(key for members in unions.values() for key in _block_keys(members[0])))
    workers = min(max(1, workers), max(len(block_keys), len(unions)))
    train_texts, dev_texts = train.texts(), dev.texts()
    with contextlib.ExitStack() as stack:
        mapper = map
        if workers > 1:
            # Only a multi-worker sweep pays for importing these.
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            spawn = multiprocessing.get_context("spawn")
            mapper = stack.enter_context(ProcessPoolExecutor(workers, mp_context=spawn)).map
        fitted = mapper(_fit_block, block_keys, itertools.repeat(train_texts), itertools.repeat(dev_texts))
        blocks = dict(zip(block_keys, fitted))
        parts = [[blocks[key] for key in _block_keys(members[0])] for members in unions.values()]
        fitted = mapper(_fit_union, unions.values(), parts, itertools.repeat(train), itertools.repeat(dev))
        reports: dict[PipelineConfig, MetricsReport] = {}
        for members, scored in zip(unions.values(), fitted):
            reports.update(zip(members, scored))
    return [reports[config] for config in configs]


BlockKey = tuple[str, tuple[int, int], int | None]


def _block_keys(config: PipelineConfig) -> list[BlockKey]:
    """The key of each enabled block, in union order."""
    specs = (config.word, config.char, config.char_wb)
    return [
        (kind, spec.ngram_range, spec.max_features)
        for kind, spec in zip(BLOCK_ORDER, specs)
        if spec is not None
    ]


def _fit_block(
    key: BlockKey, train_texts: list[str], dev_texts: list[str]
) -> tuple[CsrMatrix, CsrMatrix]:
    """The train and dev matrices of one block fitted on train."""
    block = TfidfBlock(*key)
    return block.fit_transform(train_texts), block.transform(dev_texts)


def _fit_union(
    configs: list[PipelineConfig], parts: list[tuple[CsrMatrix, CsrMatrix]], train: Dataset, dev: Dataset
) -> list[MetricsReport]:
    """The dev report of each config of one union: ``fit_models`` fits the
    configs' models on the train matrices of the union's blocks, as ``lahja
    train`` fits one config's, and each distinct model keeps its output on
    the dev ones, under the one policy the configs share."""
    union = TfidfUnion(configs[0].word, configs[0].char, configs[0].char_wb)
    train_X, dev_X = (union.stack([pair[side] for pair in parts]) for side in (0, 1))
    X, y = training_samples(train_X, train)
    n_labels = len(train.label_space)
    golds = dev.label_sets()
    outputs = {}  # by model, which configs may share
    reports = []
    for config, models in zip(configs, fit_models(configs, X, y, n_labels)):
        for model in models.values():
            if model not in outputs:
                outputs[model] = config.model_output(model, dev_X)
        decided = config.decide([outputs[model] for model in models.values()])
        reports.append(evaluate(decided, golds, n_labels=n_labels))
    return reports


def write_sweep_tsv(
    results: Sequence[tuple[PipelineConfig, MetricsReport]], destination: str | Path | IO[str]
) -> None:
    """Write sweep results as TSV: f1, precision, recall, macro_f1, config JSON."""
    lines = ["f1\tprecision\trecall\tmacro_f1\tconfig\n"]
    for config, report in results:
        lines.append(
            f"{report.f1:.6f}\t{report.precision:.6f}\t{report.recall:.6f}"
            f"\t{report.macro_f1:.6f}\t{config.canonical_json()}\n"
        )
    text = "".join(lines)
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")
