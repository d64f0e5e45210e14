"""Vote counting, hard voting and label-set decision policies, each over a batch.

:func:`vote_totals` is the one vote count: per row and label, the weights of
the voters choosing it, added in voter order. The forest takes its argmax
(ties to the lowest label). In a hard vote (:func:`weighted_votes`) the
label with the largest total wins; ties go to the vote of the highest-weight
voter among those voting for tied labels, then to the first: svc > forest >
knn in the ensemble, the most similar neighbour in the KNN's equal-weight vote.
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


def vote_totals(votes: np.ndarray, weights: Sequence[float], n_labels: int) -> np.ndarray:
    """The (rows x ``n_labels``) weight each label gathers in each row of
    the (rows x voters) label array ``votes``, voter j weighing
    ``weights[j]``: its voters' weights, added in voter order."""
    rows = len(votes)
    keys = votes + n_labels * np.arange(rows, dtype=np.int64)[:, None]
    each = np.broadcast_to(np.asarray(weights, dtype=np.float64), keys.shape)
    return np.bincount(keys.ravel(), weights=each.ravel(), minlength=rows * n_labels).reshape(rows, n_labels)


def weighted_votes(votes: np.ndarray, weights: Sequence[float]) -> np.ndarray:
    """The winner of the weighted hard vote of each row of the (rows x
    voters) label array ``votes``, voter j weighing ``weights[j]``: a
    voter scores its label's :func:`vote_totals`, and the winner is the vote
    of the heaviest, then first, voter scoring the row's best (the module
    docstring's tie rules)."""
    votes = np.asarray(votes, dtype=np.int64)
    if votes.ndim != 2 or votes.shape[1] != len(weights) or not len(weights):
        raise ValueError(f"votes need one column per weight and at least one, got {votes.shape} for {len(weights)}")
    if votes.min(initial=0) < 0:
        raise ValueError(f"invalid label index {votes.min()}")
    if any(not w > 0 for w in weights):
        raise ValueError(f"vote weights must be > 0, got {list(weights)}")
    scores = np.take_along_axis(vote_totals(votes, weights, votes.max(initial=0) + 1), votes, axis=1)
    rank = np.argsort(-np.asarray(weights, dtype=np.float64), kind="stable")
    leads = scores[:, rank] == scores.max(axis=1)[:, None]
    return votes[np.arange(len(votes)), rank[np.argmax(leads, axis=1)]]
