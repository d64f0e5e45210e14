"""Sample-averaged multi-label scoring.

Per sample i: precision p_i = |pred_i ∩ gold_i| / |pred_i| (0 when pred_i is
empty) and recall r_i = |pred_i ∩ gold_i| / |gold_i|. Headline P and R are
the sample means; f1 is their harmonic mean. macro_f1 averages per-label F1
computed from global (tp, fp, fn) counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Sequence


@dataclass(frozen=True)
class LabelCounts:
    tp: int
    fp: int
    fn: int

    def f1(self) -> float:
        precision = self.tp / (self.tp + self.fp) if self.tp + self.fp else 0.0
        recall = self.tp / (self.tp + self.fn) if self.tp + self.fn else 0.0
        if precision + recall == 0.0:
            return 0.0
        return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class MetricsReport:
    precision: float
    recall: float
    f1: float
    macro_f1: float
    n_samples: int
    per_label: tuple[LabelCounts, ...]

    def to_dict(self) -> dict:
        return {
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "macro_f1": self.macro_f1,
            "n_samples": self.n_samples,
            "per_label": [{"tp": c.tp, "fp": c.fp, "fn": c.fn} for c in self.per_label],
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def to_text(self) -> str:
        """Flat key-value lines, one per scalar plus one per label."""
        lines = [
            f"precision\t{self.precision:.6f}",
            f"recall\t{self.recall:.6f}",
            f"f1\t{self.f1:.6f}",
            f"macro_f1\t{self.macro_f1:.6f}",
            f"n_samples\t{self.n_samples}",
        ]
        for i, counts in enumerate(self.per_label):
            lines.append(f"label\t{i}\ttp={counts.tp}\tfp={counts.fp}\tfn={counts.fn}")
        return "\n".join(lines) + "\n"


def check_golds(golds: Sequence[AbstractSet[int]]) -> None:
    """Raise ValueError unless there is a gold set and none is empty."""
    if not golds:
        raise ValueError("cannot evaluate an empty sample list")
    for i, gold in enumerate(golds):
        if not gold:
            raise ValueError(f"sample {i} has an empty gold label set")


def evaluate(
    preds: Sequence[AbstractSet[int]],
    golds: Sequence[AbstractSet[int]],
    n_labels: int | None = None,
) -> MetricsReport:
    """Score predicted label sets against gold label sets.

    Lengths must match and every gold set must be non-empty; ``n_labels``
    sizes the per-label table (default: max observed index + 1).
    """
    if len(preds) != len(golds):
        raise ValueError(f"preds and golds lengths differ: {len(preds)} vs {len(golds)}")
    check_golds(golds)
    observed = max(max(gold) for gold in golds)
    for pred in preds:
        if pred:
            observed = max(observed, max(pred))
    if n_labels is None:
        n_labels = observed + 1
    elif observed >= n_labels:
        raise ValueError(f"label index {observed} outside label space of size {n_labels}")

    precision_sum = 0.0
    recall_sum = 0.0
    tp = [0] * n_labels
    fp = [0] * n_labels
    fn = [0] * n_labels
    for pred, gold in zip(preds, golds):
        hits = len(pred & gold)
        if pred:
            precision_sum += hits / len(pred)
        recall_sum += hits / len(gold)
        for label in pred & gold:
            tp[label] += 1
        for label in pred - gold:
            fp[label] += 1
        for label in gold - pred:
            fn[label] += 1

    n = len(golds)
    precision = precision_sum / n
    recall = recall_sum / n
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0.0 else 0.0
    per_label = tuple(LabelCounts(tp[i], fp[i], fn[i]) for i in range(n_labels))
    macro_f1 = (
        sum(counts.f1() for counts in per_label) / n_labels if n_labels else 0.0
    )
    return MetricsReport(
        precision=precision,
        recall=recall,
        f1=f1,
        macro_f1=macro_f1,
        n_samples=n,
        per_label=per_label,
    )
