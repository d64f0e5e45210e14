"""Versioned JSON persistence for fitted pipelines.

The bundle is a single canonical JSON document: fixed key order, reals
printed with 17 significant digits (lossless for IEEE doubles), vocabulary
entries in sorted order with implicit column indices. Saving the same
fitted pipeline twice produces byte-identical files, and a load/save round
trip reproduces predictions bit-for-bit.

The models and blocks hand their arrays (weights, idf, forest leaf
distributions, KNN rows and columns) to the writer as they are; it takes
float64 and integer arrays only. Every real of the bundle, lone or in an
array, is formatted in one pass by :func:`_real_texts`, each distinct bit
pattern once, and each array is written by slicing the texts: a fitted
model repeats most of its reals.

Top-level layout::

    {
      "format_version": 1,
      "config": {...},            # PipelineConfig fields
      "label_space": ["...", ...],
      "union": {"blocks": [block-or-null x3]},
      "models": {"svc": {...}?, "forest": {...}?, "knn": {...}?}
    }

``models`` holds exactly the models of ``PipelineConfig.model_params()``,
written in its order. The loader iterates over the same table and rejects a
bundle with a model missing, or one the config does not fit: it would join
the vote.

Each model writes and reads its own entry: ``payload()`` gives everything
but ``params``, and ``from_fitted(params, entry, n_labels, n_features)``
reads it back, checked once against the label space and the union width.
This module keeps the union's block slots, which pair the config's block
spec with the fitted block.

Every object of a bundle holds exactly the fields a save writes: an unread
field would vanish on the next save, and a missing one load as a default.
:func:`lahja.base.read_object` reads the root, the union, the blocks, the
model entries and the KNN rows; the forest checks its nodes inline, and the
config and model ``params`` are compared with what they write.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .base import check_list, check_reals, read_fields, read_object
from .corpus import LabelSpace
from .pipeline import MODEL_TYPES, DialectPipeline, PipelineConfig
from .vectorizer import BLOCK_ORDER, BlockSpec, TfidfBlock, TfidfUnion

FORMAT_VERSION = 1


class BundleFormatError(ValueError):
    """Unreadable or incompatible model bundle."""


def _write_canonical(value: object, out: list, arrays: list[int], keys: dict[str, str]) -> None:
    """Append the canonical text of ``value`` to ``out``. A real or a float64
    array goes into ``out`` as a float64 array, and its place into
    ``arrays``: :func:`dumps_canonical` formats the reals of all of them at
    once. ``keys`` holds the text of each dict key written so far, which a
    forest repeats at every node."""
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, float) or isinstance(value, np.ndarray) and value.dtype == np.float64:
        arrays.append(len(out))
        out.append(np.asarray(value))
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iu":
        out.append(_nested(list(map(str, value.ravel().tolist())), value.shape))
    elif isinstance(value, (list, tuple)):
        if value and set(map(type, value)) == {str}:  # a vocabulary or the label space
            out.append(json.dumps(value, ensure_ascii=False, separators=(",", ":")))
        else:
            out.append("[")
            for i, item in enumerate(value):
                if i:
                    out.append(",")
                _write_canonical(item, out, arrays, keys)
            out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(",")
            key = str(key)
            text = keys.get(key)
            if text is None:
                text = keys[key] = json.dumps(key, ensure_ascii=False) + ":"
            out.append(text)
            _write_canonical(item, out, arrays, keys)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a bundle")


def _real_texts(values: np.ndarray) -> list[str]:
    """The canonical text of each real of the 1-D float64 ``values``: 17
    significant digits, and ``.0`` after a whole value to keep it a JSON
    real. Each distinct bit pattern is formatted once, 0.0 and -0.0 apart."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite real {values[~finite][0].item()!r}")
    distinct, inverse = np.unique(values.view(np.int64), return_inverse=True)
    reals = distinct.view(np.float64).tolist()
    texts = np.array([t if "." in t or "e" in t else t + ".0" for t in map("%.17g".__mod__, reals)], dtype=object)
    return texts[inverse].tolist()


def _nested(texts: list[str], shape: tuple[int, ...]) -> str:
    """The JSON text of the array of ``shape`` whose items, in row-major
    order, have the texts ``texts``."""
    if not shape:
        return texts[0]
    if len(shape) == 1:
        return f"[{','.join(texts)}]"
    step = math.prod(shape[1:])
    return f"[{','.join(_nested(texts[i * step : (i + 1) * step], shape[1:]) for i in range(shape[0]))}]"


def dumps_canonical(payload: dict) -> bytes:
    out: list = []
    arrays: list[int] = []
    _write_canonical(payload, out, arrays, {})
    if arrays:
        texts = _real_texts(np.concatenate([out[at].ravel() for at in arrays]))
        start = 0
        for at in arrays:
            shape, size = out[at].shape, out[at].size
            out[at] = _nested(texts[start : start + size], shape)
            start += size
    out.append("\n")
    return "".join(out).encode("utf-8")


# The fields of the bundle root and of an enabled block, in written order.
_ROOT_FIELDS = ("format_version", "config", "label_space", "union", "models")
_BLOCK_FIELDS = ("analyzer", "ngram_range", "max_features", "weight", "vocabulary", "idf")


def _block_payload(block: TfidfBlock | None, spec: BlockSpec | None) -> dict | None:
    if block is None:
        return None
    spec_fields = (list(spec.ngram_range), spec.max_features, float(spec.weight))
    return dict(zip(_BLOCK_FIELDS, (block.analyzer, *spec_fields, block.feature_names(), block.idf_)))


def bundle_to_dict(pipeline: DialectPipeline) -> dict:
    union = getattr(pipeline, "union_", None)
    if union is None:
        raise ValueError("cannot save an unfitted pipeline")
    specs = (union.word, union.char, union.char_wb)
    # The models were built from these, and the loader checks them against the config.
    models = {
        name: {"params": params, **pipeline.models_[name].payload()}
        for name, params in pipeline.config.model_params().items()
    }
    union_payload = {"blocks": list(map(_block_payload, union.blocks_, specs))}
    values = (FORMAT_VERSION, pipeline.config.to_dict(), list(pipeline.label_space_.names), union_payload, models)
    return dict(zip(_ROOT_FIELDS, values))


def dumps_model(pipeline: DialectPipeline) -> bytes:
    return dumps_canonical(bundle_to_dict(pipeline))


def save_model(pipeline: DialectPipeline, path: str | Path) -> None:
    Path(path).write_bytes(dumps_model(pipeline))


def _same_fields(what: str, payload: object, written: object) -> None:
    """Raise ValueError unless the JSON ``payload`` holds, at every depth,
    exactly the fields of ``written``: the ``to_dict()`` of what was read
    from it, which a save writes."""
    if isinstance(written, dict):
        for name, value in zip(written, read_object(what, payload, tuple(written))):
            _same_fields(f"{what} {name}", value, written[name])


def _load_block(payload: object, kind: str, spec: BlockSpec | None) -> TfidfBlock | None:
    """The fitted block of one union slot, whose payload must repeat the
    config's ``spec`` of that slot; None for a disabled slot."""
    if (payload is None) != (spec is None):
        side = "the config" if payload is None else "the union"
        raise ValueError(f"{kind} block is enabled in {side} only")
    if payload is None:
        return None
    analyzer, ngram_range, max_features, weight, vocabulary, idf = read_object(
        f"bundle {kind} block", payload, _BLOCK_FIELDS
    )
    if analyzer != kind:
        raise ValueError(f"block analyzer {analyzer!r} does not match slot {kind!r}")
    found = BlockSpec.from_dict({"ngram_range": ngram_range, "max_features": max_features, "weight": weight}, "block")
    if found != spec:
        raise ValueError(f"{kind} block {found} differs from the config's {spec}")
    vocabulary, idf = check_list(f"{kind} vocabulary", vocabulary, str), check_reals(f"{kind} idf", idf)
    return TfidfBlock.from_fitted(kind, spec.ngram_range, spec.max_features, vocabulary, idf)


def pipeline_from_dict(payload: object) -> DialectPipeline:
    """The fitted pipeline of a bundle's JSON document. Whatever the loader
    rejects in it raises :class:`BundleFormatError`."""
    try:
        version, config_payload, names, union_payload, models = read_object("bundle root", payload, _ROOT_FIELDS)
        if type(version) is not int or version != FORMAT_VERSION:
            raise ValueError(f"unsupported bundle format version {version}; this build reads version {FORMAT_VERSION}")
        config = PipelineConfig.from_dict(config_payload)
        _same_fields("config", config_payload, config.to_dict())
        label_space = LabelSpace(tuple(check_list("label space", names, str)))
        n_labels = len(label_space)
        config.policy.check_label_count(n_labels)
        (blocks,) = read_object("bundle union", union_payload, ("blocks",))
        if type(blocks) is not list or len(blocks) != 3:
            raise ValueError("union must hold exactly 3 block slots")
        specs = (config.word, config.char, config.char_wb)
        union = TfidfUnion.from_fitted(specs, list(map(_load_block, blocks, BLOCK_ORDER, specs)))
        if type(models) is not dict:
            raise ValueError("models must be an object")
        expected = config.model_params()
        if models.keys() != expected.keys():  # a missing model could not vote, an extra one would
            raise ValueError(
                f"bundle configured for classifier {config.classifier!r} holds the models {sorted(models)}, "
                f"not {list(expected)}"
            )
        fitted = {}
        for name, params in expected.items():
            # An entry is the model's params and its payload(), which its from_fitted reads.
            entry = models[name]
            rest = [key for key in entry if key != "params"] if type(entry) is dict else []
            given, *values = read_object(f"{name} model", entry, ("params", *rest))
            _same_fields(f"{name} params", given, params)
            # Both sides are read by the same type hints, so equal values have
            # equal types: a k of 3.0 fails as a real before it could match 3.
            found = read_fields(MODEL_TYPES[name], given, name)
            if found != params:
                raise ValueError(f"{name} params {found} differ from {params}, set by the config")
            fitted[name] = MODEL_TYPES[name].from_fitted(found, dict(zip(rest, values)), n_labels, union.n_features_)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an int64 index beyond range
        raise BundleFormatError(str(exc)) from exc

    pipeline = DialectPipeline(config)
    pipeline.union_ = union
    pipeline.models_ = fitted
    pipeline.label_space_ = label_space
    pipeline.n_labels_ = n_labels
    return pipeline


def _reject_constant(name: str) -> None:
    raise BundleFormatError(f"bundle holds the non-finite real {name}")


def loads_model(data: bytes) -> DialectPipeline:
    # A literal like 1e999 parses to infinity; the typed reader of each real rejects it.
    try:
        payload = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or too deep nesting
        raise BundleFormatError(f"bundle is not valid JSON (truncated or corrupt?): {exc}") from exc
    return pipeline_from_dict(payload)


def load_model(path: str | Path) -> DialectPipeline:
    return loads_model(Path(path).read_bytes())
