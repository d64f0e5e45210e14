"""Vote combination and label-set decision policies.

Hard voting: each base classifier contributes its single predicted label
with a scalar weight; the label with the largest weight sum wins. Score ties
go to the vote of the highest-weight classifier among those voting for tied
labels, then to the fixed classifier priority svc > forest > knn (the
positional order of the votes).
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


def weighted_hard_vote(votes: Sequence[int], weights: Sequence[float]) -> int:
    """Winner of a weighted hard vote; see the module docstring for tie rules."""
    if len(votes) != len(weights):
        raise ValueError(f"votes and weights lengths differ: {len(votes)} vs {len(weights)}")
    if not votes:
        raise ValueError("at least one vote is required")
    for vote in votes:
        if vote < 0:
            raise ValueError(f"invalid label index {vote}")
    for weight in weights:
        if not weight > 0:
            raise ValueError(f"vote weights must be > 0, got {weight}")
    scores: dict[int, float] = {}
    for vote, weight in zip(votes, weights):
        scores[vote] = scores.get(vote, 0.0) + weight
    best_score = max(scores.values())
    tied = {label for label, score in scores.items() if score == best_score}
    if len(tied) == 1:
        return next(iter(tied))
    # Highest-weight classifier among those voting for a tied label; equal
    # weights fall back to positional priority.
    best_position = min(
        (i for i in range(len(votes)) if votes[i] in tied),
        key=lambda i: (-weights[i], i),
    )
    return votes[best_position]


def decide_labels(scores: Sequence[float], policy: DecisionPolicy) -> frozenset[int]:
    """Convert per-label scores into a predicted label set.

    argmax: singleton top label (ties to the lowest index). threshold:
    labels scoring strictly above tau, falling back to argmax when empty.
    topk: the k best labels (ties to the lower index).
    """
    values = np.asarray(scores, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("scores must be a non-empty 1-d sequence")
    if policy.kind == "argmax":
        return frozenset((int(np.argmax(values)),))
    if policy.kind == "threshold":
        chosen = np.flatnonzero(values > policy.tau)
        if not chosen.size:
            return frozenset((int(np.argmax(values)),))
        return frozenset(int(i) for i in chosen)
    if policy.k > values.size:
        raise ValueError(f"top-k policy with k={policy.k} exceeds label count {values.size}")
    order = np.lexsort((np.arange(values.size), -values))
    return frozenset(int(i) for i in order[: policy.k])
