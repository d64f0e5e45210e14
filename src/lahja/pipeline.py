"""End-to-end pipeline: weighted TF-IDF union into a classifier or their vote.

A pipeline fits the feature union on every training text, then trains the
models of ``PipelineConfig.model_params()`` on one sample per (document,
gold label) pair; documents with empty label sets shape the union only.
A threshold/top-k policy reads the SVC margins; an argmax policy takes the
weighted hard vote of the models' argmax labels, one model voting alone.
This is the deployable model that ``lahja train``/``predict`` and the bundle
use; scoring configs against a dev set (``run_pipeline``, the sweep and the
component comparison) runs on one engine in :mod:`lahja.grid`. Both fit
their models through :func:`fit_models`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .base import BaseEstimator, JsonObject, check_is_fitted, check_seed
from .corpus import Dataset
from .ensemble import CLASSIFIER_ORDER, DecisionPolicy, weighted_votes
from .forest import ForestParams, RandomForest
from .knn import KnnClassifier
from .sparse import CsrMatrix
from .svm import LinearSvc, SvcParams, fit_svcs
from .vectorizer import BlockSpec, TfidfUnion

CLASSIFIER_CHOICES = (*CLASSIFIER_ORDER, "vote")
MODEL_TYPES = {"svc": LinearSvc, "forest": RandomForest, "knn": KnnClassifier}


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

    def model_output(self, model, X: CsrMatrix) -> np.ndarray:
        """What :meth:`decide` reads of a fitted model on the rows of ``X``:
        its argmax votes under the argmax policy, otherwise its margins."""
        if self.policy.kind == "argmax":
            return model.predict(X)
        return model.decision_function(X)

    def decide(self, outputs: Sequence[np.ndarray]) -> list[frozenset[int]]:
        """The label sets of the rows given the :meth:`model_output` of each
        model of :meth:`model_params`, in that order. Under the argmax policy
        they are the weighted hard vote of the models' votes, each model
        weighing its ``vote_weights`` entry; otherwise the policy applied to
        the SVC's margins."""
        if self.policy.kind != "argmax":  # the config allows score policies on the svc only
            (margins,) = outputs
            return self.policy.decide(margins)
        weights = dict(zip(CLASSIFIER_ORDER, self.vote_weights))
        votes = np.column_stack(outputs)
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
        check_fittable(dataset, cfg.policy)
        union = TfidfUnion(word=cfg.word, char=cfg.char, char_wb=cfg.char_wb)
        X, y = training_samples(union.fit_transform(dataset.texts()), dataset)
        n_labels = len(dataset.label_space)
        (self.models_,) = fit_models([cfg], X, y, n_labels)
        self.union_ = union
        self.label_space_ = dataset.label_space
        self.n_labels_ = n_labels
        return self

    def predict(self, texts: Sequence[str]) -> list[frozenset[int]]:
        """Label sets of ``texts``, featurized together as one matrix."""
        check_is_fitted(self, "union_")
        return self.predict_matrix(self.union_.transform(texts))

    def predict_matrix(self, X: CsrMatrix) -> list[frozenset[int]]:
        """Label sets of the feature rows of ``X``."""
        check_is_fitted(self, "label_space_")
        cfg = self.config
        return cfg.decide([cfg.model_output(model, X) for model in self.models_.values()])

    def predict_text(self, text: str) -> frozenset[int]:
        return self.predict([text])[0]


def check_fittable(train: Dataset, policy: DecisionPolicy) -> None:
    """Raise ValueError if no pipeline deciding by ``policy`` can fit on
    ``train``: it has no document, no labeled document, or fewer labels than
    the policy picks. Fits check this before they featurize anything."""
    if not len(train):
        raise ValueError("cannot fit on an empty dataset")
    if not any(doc.labels for doc in train.documents):
        raise ValueError("no labeled documents available for classifier training")
    policy.check_label_count(len(train.label_space))


def fit_models(configs: Sequence[PipelineConfig], X: CsrMatrix, y: Sequence[int], n_labels: int) -> list[dict]:
    """Each config's models of ``model_params()``, by name, fitted on the
    samples ``X``, ``y``; configs share the instance of a model (name and
    params) they share, fitted once. The SVCs are fitted first, in order of
    first appearance, by :func:`lahja.svm.fit_svcs`, then the forests and
    KNNs: one config's models are fitted svc, forest, knn."""
    keys = [[(name, tuple(params.items())) for name, params in config.model_params().items()] for config in configs]
    distinct = dict.fromkeys(key for config_keys in keys for key in config_keys)
    models = {key: MODEL_TYPES[key[0]](**dict(key[1])) for key in distinct}
    fit_svcs([model for (name, _), model in models.items() if name == "svc"], X, y, n_labels)
    for (name, _), model in models.items():
        if name != "svc":
            model.fit(X, y, n_labels=n_labels)
    return [{name: models[name, params] for name, params in config_keys} for config_keys in keys]


def training_samples(vectors: CsrMatrix, dataset: Dataset) -> tuple[CsrMatrix, list[int]]:
    """The classifiers' training samples: the row of ``vectors`` of each
    (document, gold label) pair of ``dataset``, and the labels."""
    samples = [(doc.id, label) for doc in dataset.documents for label in sorted(doc.labels)]
    return vectors.take([doc_id for doc_id, _ in samples]), [label for _, label in samples]


def _singletons(labels: Sequence[int]) -> list[frozenset[int]]:
    return [frozenset((int(label),)) for label in labels]
