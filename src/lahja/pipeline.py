"""End-to-end pipeline: weighted TF-IDF union into a classifier or their vote.

A pipeline fits the feature union on every training text, then trains the
models of ``PipelineConfig.model_params()`` on one sample per (document,
gold label) pair; documents with empty label sets shape the union only.
A threshold/top-k policy reads the SVC margins; an argmax policy takes the
weighted hard vote of the models' argmax labels, one model voting alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .base import BaseEstimator, JsonObject, check_is_fitted, check_seed
from .corpus import Dataset
from .ensemble import CLASSIFIER_ORDER, DecisionPolicy, decide_labels, weighted_votes
from .forest import RandomForest
from .knn import KnnClassifier
from .metrics import MetricsReport, evaluate
from .sparse import CsrMatrix
from .svm import LinearSvc
from .vectorizer import BlockSpec, TfidfUnion

CLASSIFIER_CHOICES = (*CLASSIFIER_ORDER, "vote")
MODEL_TYPES = {"svc": LinearSvc, "forest": RandomForest, "knn": KnnClassifier}


@dataclass(frozen=True)
class SvcParams(JsonObject):
    json_name = "svc"

    C: float = 1.0
    balanced: bool = False
    tol: float = 1e-4
    max_epochs: int = 1000

    def __post_init__(self) -> None:
        if not self.C > 0:
            raise ValueError(f"C must be > 0, got {self.C}")
        if not self.tol > 0:
            raise ValueError(f"tol must be > 0, got {self.tol}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")


@dataclass(frozen=True)
class ForestParams(JsonObject):
    json_name = "forest"

    n_trees: int = 100

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError(f"n_trees must be >= 1, got {self.n_trees}")


@dataclass(frozen=True)
class PipelineConfig(JsonObject):
    """Complete run configuration; JSON config files mirror these field names."""

    json_name = "config"

    word: BlockSpec | None = field(default_factory=lambda: BlockSpec((1, 1)))
    char: BlockSpec | None = None
    char_wb: BlockSpec | None = None
    classifier: str = "svc"
    svc: SvcParams = field(default_factory=SvcParams)
    forest: ForestParams = field(default_factory=ForestParams)
    k: int = 3
    vote_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)
    policy: DecisionPolicy = field(default_factory=DecisionPolicy)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_CHOICES:
            raise ValueError(
                f"unknown classifier {self.classifier!r}; expected one of {CLASSIFIER_CHOICES}"
            )
        if all(block is None for block in (self.word, self.char, self.char_wb)):
            raise ValueError("at least one feature block must be enabled")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if len(self.vote_weights) != 3 or any(not w > 0 for w in self.vote_weights):
            raise ValueError("vote_weights must be three positive reals")
        check_seed(self.seed)
        if self.classifier != "svc" and self.policy.kind != "argmax":
            raise ValueError(
                f"policy {self.policy.kind!r} needs per-label scores; "
                f"classifier {self.classifier!r} supports only argmax"
            )

    def model_params(self) -> dict[str, dict]:
        """Constructor arguments of the models this config fits, by name in
        vote order (svc, forest, knn): all three for ``vote``, otherwise the
        one ``classifier`` names."""
        params = {
            "svc": {**self.svc.to_dict(), "seed": self.seed},
            "forest": {**self.forest.to_dict(), "seed": self.seed},
            "knn": {"k": self.k},
        }
        if self.classifier == "vote":
            return params
        return {self.classifier: params[self.classifier]}

    def vote(self, votes: np.ndarray) -> list[frozenset[int]]:
        """The label sets of the weighted hard vote over ``votes``, one column
        per model of :meth:`model_params`, each weighing its ``vote_weights``
        entry."""
        weights = dict(zip(CLASSIFIER_ORDER, self.vote_weights))
        return _singletons(weighted_votes(votes, [weights[name] for name in self.model_params()]))

    def canonical_json(self) -> str:
        """Deterministic serialization used for tie-ordering sweep results."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class DialectPipeline(BaseEstimator):
    """Fitted union + classifier(s) + decision policy over a Dataset."""

    def __init__(self, config: PipelineConfig = PipelineConfig()):
        self.config = config

    def fit(self, dataset: Dataset) -> "DialectPipeline":
        cfg = self.config
        if not len(dataset):
            raise ValueError("cannot fit on an empty dataset")
        union = TfidfUnion(word=cfg.word, char=cfg.char, char_wb=cfg.char_wb)
        self.fit_matrix(union.fit_transform(dataset.texts()), dataset)
        self.union_ = union
        return self

    def fit_matrix(self, vectors: CsrMatrix, dataset: Dataset) -> "DialectPipeline":
        """Fit the configured classifier(s) on ``vectors``, row i being the
        features of ``dataset``'s document i; the union is left unset."""
        cfg = self.config
        samples = [(doc.id, label) for doc in dataset.documents for label in sorted(doc.labels)]
        if not samples:
            raise ValueError("no labeled documents available for classifier training")
        X = vectors.take([doc_id for doc_id, _ in samples])
        y = [label for _, label in samples]

        n_labels = len(dataset.label_space)
        cfg.policy.check_label_count(n_labels)
        self.models_ = {
            name: MODEL_TYPES[name](**params).fit(X, y, n_labels=n_labels)
            for name, params in cfg.model_params().items()
        }
        self.label_space_ = dataset.label_space
        self.n_labels_ = n_labels
        return self

    # The fitted models by name; None for a model the config does not fit.
    svc_ = property(lambda self: self.models_.get("svc"))
    forest_ = property(lambda self: self.models_.get("forest"))
    knn_ = property(lambda self: self.models_.get("knn"))

    def component_votes(self, X: CsrMatrix) -> np.ndarray:
        """(docs x models) argmax votes of the fitted models, one column per
        model of ``config.model_params()``, in that order."""
        check_is_fitted(self, "label_space_")
        return np.column_stack([model.predict(X) for model in self.models_.values()])

    def predict(self, texts: Sequence[str]) -> list[frozenset[int]]:
        """Label sets of ``texts``, featurized together as one matrix."""
        check_is_fitted(self, "union_")
        return self.predict_matrix(self.union_.transform(texts))

    def predict_matrix(self, X: CsrMatrix) -> list[frozenset[int]]:
        """Label sets of the feature rows of ``X``."""
        check_is_fitted(self, "label_space_")
        policy = self.config.policy
        if policy.kind != "argmax":  # the config allows score policies on the svc only
            return [decide_labels(margins, policy) for margins in self.svc_.decision_function(X)]
        return self.config.vote(self.component_votes(X))

    def predict_text(self, text: str) -> frozenset[int]:
        return self.predict([text])[0]

    def predict_dataset(self, dataset: Dataset) -> list[frozenset[int]]:
        self._check_label_space(dataset)
        return self.predict(dataset.texts())

    def _check_label_space(self, dataset: Dataset) -> None:
        check_is_fitted(self, "union_")
        if dataset.label_space.names and dataset.label_space.names != self.label_space_.names:
            raise ValueError(
                "dataset label space does not match the fitted label space; "
                "align the datasets first (see corpus.merge_label_spaces)"
            )


def run_pipeline(train: Dataset, eval_dataset: Dataset, config: PipelineConfig) -> MetricsReport:
    """Fit on ``train``, predict ``eval_dataset`` and score the predictions."""
    if train.label_space.names != eval_dataset.label_space.names:
        raise ValueError(
            "train and eval label spaces differ; align them first (see corpus.merge_label_spaces)"
        )
    pipeline = DialectPipeline(config).fit(train)
    preds = pipeline.predict_dataset(eval_dataset)
    golds = eval_dataset.label_sets()
    return evaluate(preds, golds, n_labels=len(train.label_space))


def run_component_comparison(
    train: Dataset, eval_dataset: Dataset, config: PipelineConfig
) -> dict[str, MetricsReport]:
    """Fit a voting pipeline once and score each base classifier beside the vote.

    Returns reports keyed "svc", "forest", "knn", "vote".
    """
    if config.classifier != "vote":
        raise ValueError("component comparison requires a voting configuration")
    if train.label_space.names != eval_dataset.label_space.names:
        raise ValueError("train and eval label spaces differ; align them first")
    pipeline = DialectPipeline(config).fit(train)
    golds = eval_dataset.label_sets()
    n_labels = len(train.label_space)
    votes = pipeline.component_votes(pipeline.union_.transform(eval_dataset.texts()))
    reports = {
        name: evaluate(_singletons(column), golds, n_labels=n_labels)
        for name, column in zip(config.model_params(), votes.T)
    }
    reports["vote"] = evaluate(config.vote(votes), golds, n_labels=n_labels)
    return reports


def _singletons(labels: Sequence[int]) -> list[frozenset[int]]:
    return [frozenset((int(label),)) for label in labels]
