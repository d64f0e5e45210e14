"""Estimator plumbing shared across the package.

Estimators follow the scikit-learn convention: constructor arguments are
stored verbatim under the same names, learned state lives in attributes with
a trailing underscore, and ``fit`` returns ``self``.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from typing import Any, Collection, Sequence

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when transform/predict is called on an unfitted estimator."""


class BaseEstimator:
    """Minimal parameter container compatible with sklearn-style tooling."""

    @classmethod
    def _param_names(cls) -> list[str]:
        return sorted(_init_hints(cls))

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


def check_labels(n_rows: int, y: Sequence[int], n_labels: int | None, min_rows: int = 0) -> tuple[np.ndarray, int]:
    """One label index per row as an array, and the label count (default: the
    largest label + 1); labels must lie in [0, n_labels), and a training set
    needs at least ``min_rows`` rows."""
    labels = np.asarray(y, dtype=np.int64)
    if labels.ndim != 1 or labels.size != n_rows:
        raise ValueError(f"X and y lengths differ: {n_rows} vs {labels.size}")
    if labels.size and labels.min() < 0:
        raise ValueError("label indices must be >= 0")
    if n_labels is None:
        n_labels = int(labels.max()) + 1 if labels.size else 0
    elif labels.size and labels.max() >= n_labels:
        raise ValueError("label index outside [0, n_labels)")
    if n_rows < min_rows:
        raise ValueError(f"training requires at least {min_rows} samples")
    return labels, n_labels


def check_int(name: str, value: object) -> int:
    """``value`` if it is an int; a real or a bool read from JSON would
    silently truncate or count as 0/1."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` can seed numpy's RandomState."""
    if not 0 <= seed < 2**32:
        raise ValueError(f"seed must be in [0, 2**32), got {seed}")


def check_real(name: str, value: object) -> float:
    """``value`` as a float if it is a finite JSON number; a bool would count
    as 0/1 and a string would parse."""
    if type(value) in (int, float):
        try:
            real = float(value)
        except OverflowError:  # an integer beyond the float range
            real = math.inf
        if math.isfinite(real):
            return real
    raise ValueError(f"{name} must be a finite number, got {value!r}")


# The JSON types a list item may have, and their name, by the type it is read as.
_ITEM_TYPES = {
    int: ({int}, "integers"),
    float: ({int, float}, "numbers"),
    str: ({str}, "strings"),
    list: ({list}, "lists"),
    dict: ({dict}, "objects"),
}


def check_list(name: str, value: object, item: type) -> list:
    """``value`` if it is a JSON list whose items all read as ``item``, checked
    in one pass; ``float`` items are JSON numbers, with no bools or strings."""
    kinds, noun = _ITEM_TYPES[item]
    if type(value) is not list or not set(map(type, value)) <= kinds:
        raise ValueError(f"{name} must be a list of {noun}")
    return value


def check_reals(name: str, value: object) -> np.ndarray:
    """``value``, a JSON list of finite numbers, as a float64 array."""
    items = check_list(name, value, float)
    try:
        reals = np.array(items, dtype=np.float64)
        if np.isfinite(reals).all():
            return reals
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} must be a list of finite numbers")


@functools.cache
def _init_hints(cls: type) -> dict[str, Any]:
    """The resolved type hints of the parameters of ``cls.__init__``, in order."""
    hints = typing.get_type_hints(cls.__init__)
    hints.pop("return", None)
    return hints


def read_fields(cls: type, payload: object, what: str) -> dict[str, Any]:
    """The keyword arguments of ``cls`` held by the JSON object ``payload``,
    each read by its type hint on ``cls.__init__``; absent fields keep their
    defaults. Errors call the object ``what`` and a field ``what`` + name."""
    hints = _init_hints(cls)
    check_fields(what, payload, hints.keys())
    return {name: _read_value(f"{what} {name}", hints[name], value) for name, value in payload.items()}


def check_fields(what: str, payload: object, names: Collection[str]) -> None:
    """Reject a ``payload`` that is not a JSON object, or holds a field not in
    ``names``: a reader would drop it, and the next save would lose it."""
    if type(payload) is not dict:
        raise ValueError(f"{what} must be an object, got {type(payload).__name__}")
    unknown = payload.keys() - names
    if unknown:
        raise ValueError(f"unknown {what} fields: {sorted(unknown)}")


def read_object(what: str, payload: object, names: Sequence[str]) -> list:
    """The values of the fields ``names`` of the JSON object ``payload``, in
    order; ValueError if it is not an object, or lacks or adds a field."""
    check_fields(what, payload, names)
    if len(payload) < len(names):
        missing = next(name for name in names if name not in payload)
        raise ValueError(f"{what} is missing field {missing!r}")
    return [payload[name] for name in names]


def _read_value(name: str, hint: Any, value: object) -> Any:
    """``value`` read from JSON as type ``hint``: int, finite float, bool, str,
    ``X | None``, a tuple from a list, or a :class:`JsonObject`."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = [arg for arg in args if arg is not type(None)]
        return _read_value(name, hint, value)
    if origin is tuple:
        if type(value) is not list:
            raise ValueError(f"{name} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{name} must be a list of {len(args)} items, got {value!r}")
        return tuple(_read_value(f"{name}[{i}]", arg, item) for i, (arg, item) in enumerate(zip(args, value)))
    if hint is int:
        return check_int(name, value)
    if hint is float:
        return check_real(name, value)
    if hint is bool:
        if type(value) is not bool:
            raise ValueError(f"{name} must be true or false, got {value!r}")
        return value
    if hint is str:
        if type(value) is not str:
            raise ValueError(f"{name} must be a string, got {value!r}")
        return value
    if isinstance(hint, type) and issubclass(hint, JsonObject):
        return hint.from_dict(value, name)
    raise TypeError(f"no JSON reader for {name} of type {hint!r}")


class JsonObject:
    """A value kept as a JSON object of its constructor fields, read by
    :func:`read_fields` and written in declared order: tuples as lists, nested
    objects by their own ``to_dict``. ``json_name`` names it in errors."""

    json_name = "object"

    @classmethod
    def from_dict(cls, payload: dict, what: str | None = None) -> Any:
        return cls(**read_fields(cls, payload, what or cls.json_name))

    def to_dict(self) -> dict:
        payload = {}
        for name in _init_hints(type(self)):
            value = getattr(self, name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, JsonObject):
                value = value.to_dict()
            payload[name] = value
        return payload
