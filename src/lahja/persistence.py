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
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import LabelSpace
from .forest import RandomForest
from .knn import KnnClassifier
from .pipeline import DialectPipeline, PipelineConfig
from .sparse import SparseVector
from .svm import LinearSvc
from .vectorizer import BLOCK_ORDER, TfidfBlock, TfidfUnion

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


def dumps_canonical(payload: dict) -> bytes:
    out: list[str] = []
    _write_canonical(payload, out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _floats(values: Sequence[float]) -> list[float]:
    return [float(v) for v in values]


def _block_payload(block: TfidfBlock | None) -> dict | None:
    if block is None:
        return None
    return {
        "analyzer": block.analyzer,
        "ngram_range": [int(block.ngram_range[0]), int(block.ngram_range[1])],
        "max_features": block.max_features,
        "weight": float(block.weight),
        "vocabulary": block.feature_names(),
        "idf": _floats(block.idf_),
    }


def _svc_payload(model: LinearSvc) -> dict:
    return {
        "params": {
            "C": float(model.C),
            "balanced": bool(model.balanced),
            "tol": float(model.tol),
            "max_epochs": int(model.max_epochs),
            "seed": int(model.seed),
        },
        "coef": [_floats(row) for row in model.coef_],
        "intercept": _floats(model.intercept_),
    }


def _forest_payload(model: RandomForest) -> dict:
    return {
        "params": {"n_trees": int(model.n_trees), "seed": int(model.seed)},
        "n_labels": int(model.n_labels_),
        "n_features": int(model.n_features_),
        "trees": [tree.to_payload() for tree in model.trees_],
    }


def _knn_payload(model: KnnClassifier) -> dict:
    return {
        "params": {"k": int(model.k)},
        "n_labels": int(model.n_labels_),
        "labels": [int(label) for label in model.labels_],
        "vectors": [
            {"i": [int(i) for i in vec.indices], "v": _floats(vec.values)}
            for vec in model.vectors_
        ],
    }


def bundle_to_dict(pipeline: DialectPipeline) -> dict:
    if getattr(pipeline, "union_", None) is None:
        raise ValueError("cannot save an unfitted pipeline")
    models: dict = {}
    if pipeline.svc_ is not None:
        models["svc"] = _svc_payload(pipeline.svc_)
    if pipeline.forest_ is not None:
        models["forest"] = _forest_payload(pipeline.forest_)
    if pipeline.knn_ is not None:
        models["knn"] = _knn_payload(pipeline.knn_)
    return {
        "format_version": FORMAT_VERSION,
        "config": pipeline.config.to_dict(),
        "label_space": list(pipeline.label_space_.names),
        "union": {"blocks": [_block_payload(block) for block in pipeline.union_.blocks_]},
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


def _load_block(payload: dict | None, kind: str) -> TfidfBlock | None:
    if payload is None:
        return None
    analyzer = _require(payload, "analyzer", f"{kind} block")
    if analyzer != kind:
        raise BundleFormatError(f"block analyzer {analyzer!r} does not match slot {kind!r}")
    lo, hi = _require(payload, "ngram_range", f"{kind} block")
    try:
        return TfidfBlock.from_fitted(
            analyzer=kind,
            ngram_range=(int(lo), int(hi)),
            max_features=payload.get("max_features"),
            weight=float(_require(payload, "weight", f"{kind} block")),
            feature_names=list(_require(payload, "vocabulary", f"{kind} block")),
            idf=[float(v) for v in _require(payload, "idf", f"{kind} block")],
        )
    except ValueError as exc:
        raise BundleFormatError(f"invalid {kind} block: {exc}") from exc


def pipeline_from_dict(payload: dict) -> DialectPipeline:
    if not isinstance(payload, dict):
        raise BundleFormatError("bundle root must be a JSON object")
    version = _require(payload, "format_version", "root")
    if version != FORMAT_VERSION:
        raise BundleFormatError(
            f"unsupported bundle format version {version}; this build reads version {FORMAT_VERSION}"
        )
    try:
        config = PipelineConfig.from_dict(_require(payload, "config", "root"))
    except ValueError as exc:
        raise BundleFormatError(f"invalid config: {exc}") from exc
    try:
        label_space = LabelSpace(tuple(_require(payload, "label_space", "root")))
    except ValueError as exc:
        raise BundleFormatError(f"invalid label space: {exc}") from exc

    union_payload = _require(payload, "union", "root")
    blocks_payload = _require(union_payload, "blocks", "union")
    if not isinstance(blocks_payload, list) or len(blocks_payload) != 3:
        raise BundleFormatError("union must hold exactly 3 block slots")
    blocks = [_load_block(block, kind) for block, kind in zip(blocks_payload, BLOCK_ORDER)]
    union = TfidfUnion.from_fitted_blocks(blocks)

    models = _require(payload, "models", "root")
    if not isinstance(models, dict):
        raise BundleFormatError("models must be an object")
    svc = forest = knn = None
    try:
        if "svc" in models:
            entry = models["svc"]
            svc = LinearSvc.from_fitted(
                dict(_require(entry, "params", "svc model")),
                np.asarray(_require(entry, "coef", "svc model"), dtype=np.float64),
                np.asarray(_require(entry, "intercept", "svc model"), dtype=np.float64),
            )
        if "forest" in models:
            entry = models["forest"]
            forest = RandomForest.from_fitted(
                dict(_require(entry, "params", "forest model")),
                n_labels=int(_require(entry, "n_labels", "forest model")),
                n_features=int(_require(entry, "n_features", "forest model")),
                trees=_require(entry, "trees", "forest model"),
            )
        if "knn" in models:
            entry = models["knn"]
            knn = KnnClassifier.from_fitted(
                dict(_require(entry, "params", "knn model")),
                labels=_require(entry, "labels", "knn model"),
                vectors=[
                    SparseVector(item["i"], item["v"])
                    for item in _require(entry, "vectors", "knn model")
                ],
                n_labels=int(_require(entry, "n_labels", "knn model")),
            )
    except (TypeError, ValueError, KeyError) as exc:
        raise BundleFormatError(f"invalid classifier payload: {exc}") from exc

    needed = {"svc": ("svc",), "forest": ("forest",), "knn": ("knn",), "vote": ("svc", "forest", "knn")}
    fitted = {"svc": svc, "forest": forest, "knn": knn}
    for name in needed[config.classifier]:
        if fitted[name] is None:
            raise BundleFormatError(
                f"bundle configured for classifier {config.classifier!r} lacks the {name} model"
            )
    for name, model in fitted.items():
        dims = getattr(model, "n_features_", None)
        if dims is not None and dims != union.n_features_:
            raise BundleFormatError(
                f"{name} model dimension {dims} does not match union dimension {union.n_features_}"
            )
    if svc is not None:
        if svc.n_labels_ != len(label_space):
            raise BundleFormatError(
                f"svc coef has {svc.n_labels_} rows for {len(label_space)} labels"
            )
        if svc.intercept_.shape != (len(label_space),):
            raise BundleFormatError(
                f"svc intercept has shape {svc.intercept_.shape} for {len(label_space)} labels"
            )

    pipeline = DialectPipeline(config)
    pipeline.union_ = union
    pipeline.svc_ = svc
    pipeline.forest_ = forest
    pipeline.knn_ = knn
    pipeline.label_space_ = label_space
    pipeline.n_labels_ = len(label_space)
    return pipeline


def _reject_constant(name: str) -> None:
    raise BundleFormatError(f"bundle holds the non-finite real {name}")


def loads_model(data: bytes) -> DialectPipeline:
    try:
        payload = json.loads(data.decode("utf-8"), parse_constant=_reject_constant)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleFormatError(f"bundle is not valid JSON (truncated or corrupt?): {exc}") from exc
    return pipeline_from_dict(payload)


def load_model(path: str | Path) -> DialectPipeline:
    return loads_model(Path(path).read_bytes())
