"""Versioned JSON persistence for fitted pipelines.

The bundle is a single canonical JSON document: fixed key order, reals
printed with 17 significant digits (lossless for IEEE doubles), vocabulary
entries in sorted order with implicit column indices. Saving the same
fitted pipeline twice produces byte-identical files, and a load/save round
trip reproduces predictions bit-for-bit.

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
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .base import check_int, check_list, check_reals, read_fields
from .corpus import LabelSpace
from .forest import RandomForest
from .knn import KnnClassifier
from .pipeline import MODEL_TYPES, DialectPipeline, PipelineConfig
from .sparse import CsrMatrix
from .svm import LinearSvc
from .vectorizer import BLOCK_ORDER, BlockSpec, TfidfBlock, TfidfUnion

FORMAT_VERSION = 1


class BundleFormatError(ValueError):
    """Unreadable or incompatible model bundle."""


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot serialize non-finite real {value!r}")
    text = format(value, ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"  # keep the value a JSON real
    return text


def _write_canonical(value: object, out: list[str]) -> None:
    if value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(str(value))
    elif isinstance(value, float):
        out.append(_format_float(value))
    elif isinstance(value, str):
        out.append(json.dumps(value, ensure_ascii=False))
    elif isinstance(value, (list, tuple)):
        text = _uniform_list(value)
        if text is not None:
            out.append(text)
        else:
            out.append("[")
            for i, item in enumerate(value):
                if i:
                    out.append(",")
                _write_canonical(item, out)
            out.append("]")
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(",")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(":")
            _write_canonical(item, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__} into a bundle")


def _uniform_list(items: list | tuple) -> str | None:
    """The text of a non-empty list whose items are all exactly float, all
    exactly int or all exactly str, written in one pass; None otherwise."""
    kinds = set(map(type, items))
    if kinds == {float}:
        texts = [t if "." in t or "e" in t else t + ".0" for t in map("%.17g".__mod__, items)]
        text = ",".join(texts)
        if "n" in text:  # "inf" or "nan"
            _format_float(next(v for v in items if not math.isfinite(v)))
        return f"[{text}]"
    if kinds == {int}:
        return f"[{','.join(map(str, items))}]"
    if kinds == {str}:
        return json.dumps(items, ensure_ascii=False, separators=(",", ":"))
    return None


def dumps_canonical(payload: dict) -> bytes:
    out: list[str] = []
    _write_canonical(payload, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _block_payload(block: TfidfBlock | None, spec: BlockSpec | None) -> dict | None:
    if block is None:
        return None
    return {
        "analyzer": block.analyzer,
        "ngram_range": [int(spec.ngram_range[0]), int(spec.ngram_range[1])],
        "max_features": spec.max_features,
        "weight": float(spec.weight),
        "vocabulary": block.feature_names(),
        "idf": block.idf_.tolist(),
    }


def _svc_payload(model: LinearSvc) -> dict:
    return {
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_.tolist(),
    }


def _forest_payload(model: RandomForest) -> dict:
    return {
        "n_labels": int(model.n_labels_),
        "n_features": int(model.n_features_),
        "trees": model.tree_payloads(),
    }


def _knn_payload(model: KnnClassifier) -> dict:
    return {
        "n_labels": int(model.n_labels_),
        "labels": [int(label) for label in model.labels_],
        "vectors": [
            {"i": idx.tolist(), "v": val.tolist()}
            for idx, val in map(model.vectors_.row, range(len(model.vectors_)))
        ],
    }


_PAYLOADS = {"svc": _svc_payload, "forest": _forest_payload, "knn": _knn_payload}


def bundle_to_dict(pipeline: DialectPipeline) -> dict:
    union = getattr(pipeline, "union_", None)
    if union is None:
        raise ValueError("cannot save an unfitted pipeline")
    specs = (union.word, union.char, union.char_wb)
    # The models were built from these, and the loader checks them against the config.
    models = {
        name: {"params": params, **_PAYLOADS[name](pipeline.models_[name])}
        for name, params in pipeline.config.model_params().items()
    }
    return {
        "format_version": FORMAT_VERSION,
        "config": pipeline.config.to_dict(),
        "label_space": list(pipeline.label_space_.names),
        "union": {"blocks": list(map(_block_payload, union.blocks_, specs))},
        "models": models,
    }


def dumps_model(pipeline: DialectPipeline) -> bytes:
    return dumps_canonical(bundle_to_dict(pipeline))


def save_model(pipeline: DialectPipeline, path: str | Path) -> None:
    Path(path).write_bytes(dumps_model(pipeline))


def _require(payload: dict, key: str, context: str) -> object:
    if not isinstance(payload, dict) or key not in payload:
        raise BundleFormatError(f"bundle {context} is missing field {key!r}")
    return payload[key]


def _load_block(payload: dict | None, kind: str, spec: BlockSpec | None) -> TfidfBlock | None:
    """The fitted block of one union slot, whose payload must repeat the
    config's ``spec`` of that slot; None for a disabled slot."""
    if (payload is None) != (spec is None):
        side = "the config" if payload is None else "the union"
        raise BundleFormatError(f"{kind} block is enabled in {side} only")
    if payload is None:
        return None
    where = f"{kind} block"
    analyzer = _require(payload, "analyzer", where)
    if analyzer != kind:
        raise BundleFormatError(f"block analyzer {analyzer!r} does not match slot {kind!r}")
    for name in ("ngram_range", "weight", "vocabulary", "idf"):
        _require(payload, name, where)
    try:
        found = BlockSpec.from_dict(
            {name: payload[name] for name in ("ngram_range", "max_features", "weight") if name in payload},
            "block",
        )
        if found != spec:
            raise ValueError(f"{found} differs from the config's {spec}")
        return TfidfBlock.from_fitted(
            analyzer=kind,
            ngram_range=spec.ngram_range,
            max_features=spec.max_features,
            feature_names=check_list("vocabulary", payload["vocabulary"], str),
            idf=check_reals("idf", payload["idf"]),
        )
    except (TypeError, ValueError) as exc:
        raise BundleFormatError(f"invalid {kind} block: {exc}") from exc


def _load_svc(entry: dict, params: dict, union: TfidfUnion) -> LinearSvc:
    coef = check_list("svc coef", _require(entry, "coef", "svc model"), list)
    return LinearSvc.from_fitted(
        params,
        np.array([check_reals("svc coef row", row) for row in coef]),
        check_reals("svc intercept", _require(entry, "intercept", "svc model")),
    )


def _load_forest(entry: dict, params: dict, union: TfidfUnion) -> RandomForest:
    return RandomForest.from_fitted(
        params,
        n_labels=check_int("forest n_labels", _require(entry, "n_labels", "forest model")),
        n_features=check_int("forest n_features", _require(entry, "n_features", "forest model")),
        trees=_require(entry, "trees", "forest model"),
    )


def _load_knn(entry: dict, params: dict, union: TfidfUnion) -> KnnClassifier:
    labels = check_list("knn labels", _require(entry, "labels", "knn model"), int)
    rows = _require(entry, "vectors", "knn model")
    if any(len(row["i"]) != len(row["v"]) for row in rows):
        raise ValueError("a knn vector has different numbers of indices and values")
    vectors = CsrMatrix(
        np.concatenate(([0], np.cumsum([len(row["i"]) for row in rows], dtype=np.int64))),
        check_list("knn vector indices", [i for row in rows for i in row["i"]], int),
        check_reals("knn vector values", [v for row in rows for v in row["v"]]),
        union.n_features_,
    )
    n_labels = check_int("knn n_labels", _require(entry, "n_labels", "knn model"))
    return KnnClassifier.from_fitted(params, labels=labels, vectors=vectors, n_labels=n_labels)


_LOADERS = {"svc": _load_svc, "forest": _load_forest, "knn": _load_knn}


def pipeline_from_dict(payload: dict) -> DialectPipeline:
    if not isinstance(payload, dict):
        raise BundleFormatError("bundle root must be a JSON object")
    version = _require(payload, "format_version", "root")
    if type(version) is not int or version != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported bundle format version {version}; this build reads version {FORMAT_VERSION}"
        )
    try:
        config = PipelineConfig.from_dict(_require(payload, "config", "root"))
    except ValueError as exc:
        raise BundleFormatError(f"invalid config: {exc}") from exc
    try:
        names = check_list("label space", _require(payload, "label_space", "root"), str)
        label_space = LabelSpace(tuple(names))
        config.policy.check_label_count(len(label_space))
    except ValueError as exc:
        raise BundleFormatError(f"invalid label space: {exc}") from exc

    union_payload = _require(payload, "union", "root")
    blocks_payload = _require(union_payload, "blocks", "union")
    if not isinstance(blocks_payload, list) or len(blocks_payload) != 3:
        raise BundleFormatError("union must hold exactly 3 block slots")
    specs = (config.word, config.char, config.char_wb)
    union = TfidfUnion.from_fitted(specs, list(map(_load_block, blocks_payload, BLOCK_ORDER, specs)))

    models = _require(payload, "models", "root")
    if not isinstance(models, dict):
        raise BundleFormatError("models must be an object")
    expected = config.model_params()
    if models.keys() != expected.keys():  # a missing model could not vote, an extra one would
        raise BundleFormatError(
            f"bundle configured for classifier {config.classifier!r} holds the models {sorted(models)}, "
            f"not {list(expected)}"
        )
    fitted = {}
    try:
        for name, params in expected.items():
            # Both sides are read by the same type hints, so equal values have
            # equal types: a k of 3.0 fails as a real before it could match 3.
            found = read_fields(MODEL_TYPES[name], _require(models[name], "params", f"{name} model"), name)
            if found != params:
                raise ValueError(f"{name} params {found} differ from {params}, set by the config")
            fitted[name] = _LOADERS[name](models[name], found, union)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:  # overflow: an int64 index beyond range
        raise BundleFormatError(f"invalid classifier payload: {exc}") from exc

    n_labels, dims = len(label_space), union.n_features_
    for name, model in fitted.items():
        if getattr(model, "n_features_", dims) != dims:
            raise BundleFormatError(f"{name} model dimension {model.n_features_} does not match union dimension {dims}")
    svc = fitted.get("svc")
    if svc is not None and svc.n_labels_ != n_labels:
        raise BundleFormatError(f"svc coef has {svc.n_labels_} rows for {n_labels} labels")
    if svc is not None and svc.intercept_.shape != (n_labels,):
        raise BundleFormatError(f"svc intercept has shape {svc.intercept_.shape} for {n_labels} labels")
    for name, model in fitted.items():
        if model.n_labels_ != n_labels:
            raise BundleFormatError(f"{name} model has n_labels {model.n_labels_} for {n_labels} labels")

    pipeline = DialectPipeline(config)
    pipeline.union_ = union
    pipeline.models_ = fitted
    pipeline.label_space_ = label_space
    pipeline.n_labels_ = n_labels
    return pipeline


def _reject_constant(name: str) -> None:
    raise BundleFormatError(f"bundle holds the non-finite real {name}")


def _parse_finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise BundleFormatError(f"bundle holds the non-finite real {text} (overflows to {value})")
    return value


def loads_model(data: bytes) -> DialectPipeline:
    try:
        payload = json.loads(
            data.decode("utf-8"), parse_float=_parse_finite, parse_constant=_reject_constant
        )
    except (ValueError, RecursionError) as exc:  # also an over-long integer or too deep nesting
        raise BundleFormatError(f"bundle is not valid JSON (truncated or corrupt?): {exc}") from exc
    return pipeline_from_dict(payload)


def load_model(path: str | Path) -> DialectPipeline:
    return loads_model(Path(path).read_bytes())
