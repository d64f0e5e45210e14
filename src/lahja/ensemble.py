"""Vote combination and label-set decision policies, each over a batch.

Hard voting (:func:`weighted_votes`): each base classifier contributes its
single predicted label with a scalar weight; the label with the largest
weight sum wins. Score ties go to the vote of the highest-weight classifier
among those voting for tied labels, then to the fixed classifier priority
svc > forest > knn (the positional order of the votes).
:meth:`DecisionPolicy.decide` maps a (rows x labels) score array to one
label set per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .base import JsonObject

CLASSIFIER_ORDER = ("svc", "forest", "knn")

POLICY_KINDS = ("argmax", "threshold", "topk")


@dataclass(frozen=True)
class DecisionPolicy(JsonObject):
    """Rule mapping per-label scores to a predicted label set."""

    json_name = "policy"

    kind: str = "argmax"
    tau: float = 0.0
    k: int = 1

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}; expected one of {POLICY_KINDS}")
        if self.k < 1:
            raise ValueError(f"top-k policy requires k >= 1, got {self.k}")

    def check_label_count(self, n_labels: int) -> None:
        """Raise ValueError if the policy picks more labels than there are."""
        if self.kind == "topk" and self.k > n_labels:
            raise ValueError(f"top-k policy with k={self.k} exceeds label count {n_labels}")

    def decide(self, scores: np.ndarray) -> list[frozenset[int]]:
        """The label set of each row of the (rows x labels) ``scores``.

        argmax: the top label (ties to the lowest index). threshold: the
        labels scoring strictly above tau, falling back to argmax when none
        does. topk: the k best labels (ties to the lower index).
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.ndim != 2 or not scores.shape[1]:
            raise ValueError(f"scores must be a (rows x labels) array with a label column, got shape {scores.shape}")
        self.check_label_count(scores.shape[1])
        if self.kind == "topk":
            chosen = np.argsort(-scores, axis=1, kind="stable")[:, : self.k]
            return [frozenset(row) for row in chosen.tolist()]
        best = np.argmax(scores, axis=1).tolist()
        if self.kind == "argmax":
            return [frozenset((label,)) for label in best]
        return [
            frozenset(np.flatnonzero(row).tolist()) or frozenset((label,))
            for row, label in zip(scores > self.tau, best)
        ]

    def to_dict(self) -> dict:
        if self.kind == "threshold":
            return {"kind": self.kind, "tau": self.tau}
        if self.kind == "topk":
            return {"kind": self.kind, "k": self.k}
        return {"kind": self.kind}

    @classmethod
    def from_dict(cls, payload: dict, what: str = "policy") -> "DecisionPolicy":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError(f"{what} must be an object with a 'kind' field")
        return super().from_dict(payload, what)


def weighted_votes(votes: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """The winner of the weighted hard vote of each row of the (rows x
    voters) label array ``votes``, voter j weighing ``weights[j]``: a
    voter scores the weights of the voters agreeing with it, summed in voter
    order, and the winner is the vote of the heaviest, then first, voter
    scoring the row's best (the module docstring's tie rules)."""
    votes = np.asarray(votes, dtype=np.int64)
    if votes.ndim != 2 or votes.shape[1] != len(weights) or not len(weights):
        raise ValueError(f"votes need one column per weight and at least one, got {votes.shape} for {len(weights)}")
    if votes.size and votes.min() < 0:
        raise ValueError(f"invalid label index {votes.min()}")
    if any(not w > 0 for w in weights):
        raise ValueError(f"vote weights must be > 0, got {list(weights)}")
    scores = np.zeros(votes.shape, dtype=np.float64)
    for j in range(votes.shape[1]):
        for i, weight in enumerate(weights):
            scores[:, j] += np.where(votes[:, i] == votes[:, j], float(weight), 0.0)
    rank = np.array(sorted(range(len(weights)), key=lambda j: (-weights[j], j)))
    leads = scores[:, rank] == scores.max(axis=1)[:, None]
    return votes[np.arange(len(votes)), rank[np.argmax(leads, axis=1)]]
