"""Estimator plumbing shared across the package.

Estimators follow the scikit-learn convention: constructor arguments are
stored verbatim under the same names, learned state lives in attributes with
a trailing underscore, and ``fit`` returns ``self``.
"""

from __future__ import annotations

import inspect
from typing import Any, Sequence

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when transform/predict is called on an unfitted estimator."""


class BaseEstimator:
    """Minimal parameter container compatible with sklearn-style tooling."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return sorted(
            p.name
            for p in sig.parameters.values()
            if p.name != "self" and p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )

    def get_params(self, deep: bool = True) -> dict[str, Any]:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseEstimator":
        valid = self._param_names()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"unknown parameter {key!r} for {type(self).__name__}; valid parameters: {valid}"
                )
            setattr(self, key, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


def check_is_fitted(estimator: Any, *attributes: str) -> None:
    missing = [name for name in attributes if getattr(estimator, name, None) is None]
    if missing:
        raise NotFittedError(
            f"{type(estimator).__name__} is not fitted (missing {', '.join(missing)}); call fit() first"
        )


def check_ngram_range(ngram_range: tuple[int, int]) -> tuple[int, int]:
    """Validate an (lo, hi) n-gram range; bounds must satisfy 1 <= lo <= hi <= 10."""
    try:
        lo, hi = ngram_range
    except (TypeError, ValueError):
        raise ValueError(f"ngram_range must be a (lo, hi) pair, got {ngram_range!r}") from None
    if type(lo) is not int or type(hi) is not int:
        raise ValueError(f"ngram_range bounds must be integers, got {ngram_range!r}")
    if not 1 <= lo <= hi <= 10:
        raise ValueError(f"ngram_range must satisfy 1 <= lo <= hi <= 10, got ({lo}, {hi})")
    return lo, hi


def check_labels(n_rows: int, y: Sequence[int], n_labels: int | None) -> tuple[np.ndarray, int]:
    """One label index per row as an array, and the label count (default: the
    largest label + 1); labels must lie in [0, n_labels)."""
    labels = np.asarray(y, dtype=np.int64)
    if labels.ndim != 1 or labels.size != n_rows:
        raise ValueError(f"X and y lengths differ: {n_rows} vs {labels.size}")
    if labels.size and labels.min() < 0:
        raise ValueError("label indices must be >= 0")
    if n_labels is None:
        n_labels = int(labels.max()) + 1 if labels.size else 0
    elif labels.size and labels.max() >= n_labels:
        raise ValueError("label index outside [0, n_labels)")
    return labels, n_labels


def check_int(name: str, value: object) -> int:
    """``value`` if it is an int; a real or a bool read from JSON would
    silently truncate or count as 0/1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_positive(name: str, value: float) -> float:
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value
