"""Hyperparameter grids: deterministic enumeration and sweep execution.

A :class:`GridSpec` holds one candidate list per tunable field; the sweep
runs the full Cartesian product with the declared field order (``n`` varies
slowest, ``v3`` fastest). Classifier choice and other non-swept settings are
fixed scalar fields. The sweep fits each distinct TF-IDF block once, stacks
each config's union from the block matrices with that config's transformer
weights, fits each distinct model group once and re-votes its argmax votes
per vote-weight triple, a single classifier being a one-voter vote (see
:func:`run_sweep`). Sweep workers can run in separate processes — the
``LAHJA_THREADS`` environment variable caps the worker count (default 1) —
and results are merged in config order, so output is independent of
scheduling.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .base import JsonObject
from .corpus import Dataset
from .ensemble import DecisionPolicy
from .metrics import MetricsReport, evaluate
from .pipeline import DialectPipeline, ForestParams, PipelineConfig, SvcParams
from .pipeline import run_pipeline  # noqa: F401  (perfbench/tracing.py wraps lahja.grid.run_pipeline)
from .sparse import CsrMatrix
from .vectorizer import BLOCK_ORDER, BlockSpec, TfidfBlock, TfidfUnion

DEFAULT_MAX_CONFIGS = 10_000

# Documented candidate domains for the tunable fields.
N_DOMAIN = (1, 2, 3, 4, 5)
C_DOMAIN = (1.0, 2.0, 3.0, 4.0, 5.0)
TRANSFORMER_WEIGHT_DOMAIN = tuple(round(0.1 * i, 1) for i in range(1, 11))
VOTE_WEIGHT_DOMAIN = tuple(round(0.1 * i, 1) for i in range(1, 7))
MAX_FEATURES_DOMAIN = (300, 1000)  # inclusive bounds, any value in between

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
        PipelineConfig(classifier=self.classifier, seed=self.seed)  # checks both as a config does

    def size(self) -> int:
        count = 1
        for name in _PRODUCT_FIELDS:
            count *= len(getattr(self, name))
        return count


def enumerate_grid(spec: GridSpec, max_configs: int = DEFAULT_MAX_CONFIGS) -> list[PipelineConfig]:
    """Full Cartesian product of the candidate lists, in declared field order."""
    count = spec.size()
    if count > max_configs:
        raise GridSizeError(count, max_configs)
    configs: list[PipelineConfig] = []
    for n, w1, w2, w3, max_features, C, v1, v2, v3 in itertools.product(
        spec.n, spec.w1, spec.w2, spec.w3, spec.max_features, spec.C, spec.v1, spec.v2, spec.v3
    ):
        configs.append(
            PipelineConfig(
                word=BlockSpec((1, n), max_features, w1),
                char=BlockSpec((1, n), max_features, w2),
                char_wb=BlockSpec((1, n), max_features, w3),
                classifier=spec.classifier,
                svc=SvcParams(C=C, balanced=spec.balanced),
                forest=ForestParams(n_trees=spec.n_trees),
                k=spec.k,
                vote_weights=(v1, v2, v3),
                policy=spec.policy,
                seed=spec.seed,
            )
        )
    return configs


def _worker_count() -> int:
    raw = os.environ.get("LAHJA_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"LAHJA_THREADS must be an integer, got {raw!r}") from None
    return max(1, count)


def run_sweep(
    train: Dataset,
    dev: Dataset,
    spec: GridSpec,
    max_configs: int = DEFAULT_MAX_CONFIGS,
    workers: int | None = None,
) -> list[tuple[PipelineConfig, MetricsReport]]:
    """Run every grid configuration and sort results by f1 descending.

    Each report equals ``run_pipeline(train, dev, config)``, but the work is
    shared in three stages. Each distinct TF-IDF block (its analyzer, n-gram
    range and cap) is fitted once and transforms dev once. Each model group
    (a config with its vote weights set aside) stacks its union from those
    matrices with ``TfidfUnion.stack``, as ``transform`` does, is fitted
    once and predicts dev once; an argmax group keeps the argmax votes of
    its models. Each config is then scored from its group's output, an
    argmax group's votes re-voted with the config's own weights. Ties
    order by the config's canonical JSON serialization.
    ``workers`` defaults to the LAHJA_THREADS cap; with more than one, the
    blocks and then the model groups are spread over worker processes.
    """
    configs = enumerate_grid(spec, max_configs=max_configs)
    if not len(train):
        raise ValueError("cannot fit on an empty dataset")
    if train.label_space.names != dev.label_space.names:
        raise ValueError(
            "train and eval label spaces differ; align them first (see corpus.merge_label_spaces)"
        )
    groups = list(dict.fromkeys(_model_group(config) for config in configs))
    block_keys = list(dict.fromkeys(key for group in groups for key in _block_keys(group)))
    if workers is None:
        workers = _worker_count()
    workers = min(max(1, workers), max(len(block_keys), len(groups)))
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
        parts = [[blocks[key] for key in _block_keys(group)] for group in groups]
        outputs = dict(zip(groups, mapper(_fit_group, groups, parts, itertools.repeat(train))))
    golds = dev.label_sets()
    n_labels = len(train.label_space)
    results = []
    for config in configs:
        output = outputs[_model_group(config)]
        if config.policy.kind == "argmax":
            output = config.vote(output)
        results.append((config, evaluate(output, golds, n_labels=n_labels)))
    results.sort(key=lambda pair: (-pair[1].f1, pair[0].canonical_json()))
    return results


BlockKey = tuple[str, tuple[int, int], int | None]


def _model_group(config: PipelineConfig) -> PipelineConfig:
    """The config with its vote weights set aside: the models it fits."""
    return replace(config, vote_weights=(1.0, 1.0, 1.0))


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


def _fit_group(
    group: PipelineConfig, parts: list[tuple[CsrMatrix, CsrMatrix]], train: Dataset
) -> list[frozenset[int]] | np.ndarray:
    """Fit one model group on the train matrices of its blocks and predict the
    dev ones: for an argmax group the component votes, otherwise the label
    sets of its score policy."""
    union = TfidfUnion(group.word, group.char, group.char_wb)
    train_X, dev_X = (union.stack([pair[side] for pair in parts]) for side in (0, 1))
    pipeline = DialectPipeline(group).fit_matrix(train_X, train)
    if group.policy.kind == "argmax":
        return pipeline.component_votes(dev_X)
    return pipeline.predict_matrix(dev_X)


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
