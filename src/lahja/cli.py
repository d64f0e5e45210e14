"""Command-line interface: train, predict, eval and sweep over TSV datasets.

Exit codes: 0 on success, 1 for usage errors (bad flags, unknown preset,
malformed config/grid schema, a grid value no config could take, grid size
over the cap, an unwritable ``--out``, a malformed ``LAHJA_THREADS``, found
before any data is read), 2 for data errors (unreadable or malformed
TSV/model files, training sets the classifiers cannot fit).

``sweep`` reads the ``LAHJA_THREADS`` environment variable, the cap on its
worker processes (default 1); nothing else in the package reads it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from pathlib import Path
from typing import Sequence, TypeVar

from .base import JsonObject
from .corpus import Dataset, LabelSpace, TsvFormatError, merge_label_spaces, parse_tsv, split_labels, tsv_rows
from .grid import DEFAULT_MAX_CONFIGS, GridSizeError, GridSpec, run_sweep, write_sweep_tsv
from .metrics import evaluate
from . import persistence
from .persistence import BundleFormatError
from .pipeline import DialectPipeline, PipelineConfig
from .presets import PRESET_NAMES, preset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

T = TypeVar("T", bound=JsonObject)


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; this tool reserves 2 for
    # data errors.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="lahja",
        description="Multi-label dialect identification: TF-IDF n-gram unions plus classical classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train = sub.add_parser("train", help="fit a pipeline on a TSV dataset and save the model")
    train.add_argument("--train-file", required=True, help="training TSV (text<TAB>label,label,...)")
    source = train.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="pipeline config JSON file")
    source.add_argument("--preset", help=f"named preset: {', '.join(PRESET_NAMES)}")
    train.add_argument("--out", required=True, help="output model bundle path (JSON)")
    train.add_argument("--has-header", action="store_true", help="skip one header line in the TSV")
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="predict label sets for a TSV file")
    predict.add_argument("--model", required=True, help="model bundle path")
    predict.add_argument("--in", dest="input", required=True, help="input TSV (labels may be empty)")
    predict.add_argument("--out", required=True, help="output predictions TSV (id<TAB>labels)")
    predict.add_argument("--has-header", action="store_true", help="skip one header line in the TSV")
    predict.set_defaults(func=_cmd_predict)

    evaluate_cmd = sub.add_parser("eval", help="score a predictions file against gold labels")
    evaluate_cmd.add_argument("--pred", required=True, help="predictions TSV from `lahja predict`")
    evaluate_cmd.add_argument("--gold", required=True, help="gold dataset TSV")
    evaluate_cmd.add_argument("--json", action="store_true", help="print the report as JSON")
    evaluate_cmd.add_argument("--has-header", action="store_true", help="skip one header line in the gold TSV")
    evaluate_cmd.set_defaults(func=_cmd_eval)

    sweep = sub.add_parser("sweep", help="grid-search configurations against a dev set")
    sweep.add_argument("--train-file", required=True, help="training TSV")
    sweep.add_argument("--dev-file", required=True, help="held-out dev TSV")
    sweep.add_argument("--grid", required=True, help="grid spec JSON file")
    sweep.add_argument("--out", required=True, help="output results TSV, best first")
    sweep.add_argument(
        "--max-configs",
        type=int,
        default=DEFAULT_MAX_CONFIGS,
        help=f"safety cap on the grid product (default {DEFAULT_MAX_CONFIGS})",
    )
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def _read_bytes(path: str, what: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path!r}: {exc}") from exc


def _check_out(path: str, what: str) -> None:
    """Raise a UsageError unless ``path`` is no directory and lies in an
    existing writable one, so a long fit is not lost; nothing is created."""
    parent = Path(path).parent
    if Path(path).is_dir() or not (parent.is_dir() and os.access(parent, os.W_OK)):
        raise UsageError(f"cannot write {what} {path!r}: not a file in a writable directory")


def _write_bytes(path: str, what: str, data: bytes) -> None:
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise UsageError(f"cannot write {what} {path!r}: {exc}") from exc


def _read_json_file(path: str, what: str, cls: type[T]) -> T:
    """``cls`` read from the JSON file at ``path``; a schema error is a usage error."""
    raw = _read_bytes(path, what)
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an over-long integer or too deep nesting
        raise UsageError(f"{what} {path!r} is not valid JSON: {exc}") from exc
    try:
        return cls.from_dict(payload)
    except ValueError as exc:
        raise UsageError(f"{what} {path!r}: {exc}") from exc


def _load_dataset(path: str, has_header: bool = False) -> Dataset:
    data = _read_bytes(path, "TSV file")
    try:
        return parse_tsv(data, has_header=has_header)
    except TsvFormatError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _resolve_config(args: argparse.Namespace) -> PipelineConfig:
    if args.preset is not None:
        try:
            return preset(args.preset)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    return _read_json_file(args.config, "config file", PipelineConfig)


def _cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _check_out(args.out, "model bundle")
    dataset = _load_dataset(args.train_file, args.has_header)
    try:
        pipeline = DialectPipeline(config).fit(dataset)
    except ValueError as exc:
        raise DataError(f"training failed: {exc}") from exc
    _write_bytes(args.out, "model bundle", persistence.dumps_model(pipeline))
    print(
        f"trained {config.classifier} pipeline on {len(dataset)} documents, "
        f"{len(dataset.label_space)} labels, {pipeline.union_.n_features_} features -> {args.out}"
    )
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    _check_out(args.out, "predictions file")
    try:
        pipeline = persistence.loads_model(_read_bytes(args.model, "model"))
    except BundleFormatError as exc:
        raise DataError(f"{args.model}: {exc}") from exc
    dataset = _load_dataset(args.input, args.has_header)
    names = pipeline.label_space_.names
    lines = [
        f"{doc.id}\t{','.join(names[i] for i in sorted(labels))}\n"
        for doc, labels in zip(dataset.documents, pipeline.predict(dataset.texts()))
    ]
    _write_bytes(args.out, "predictions file", "".join(lines).encode("utf-8"))
    print(f"predicted {len(dataset)} documents -> {args.out}")
    return EXIT_OK


def _parse_predictions(path: str) -> dict[int, tuple[str, ...]]:
    data = _read_bytes(path, "predictions file")
    rows: dict[int, tuple[str, ...]] = {}
    try:
        for line_no, (id_field, label_field) in tsv_rows(data, ("id", "labels")):
            try:
                doc_id = int(id_field)
            except ValueError:
                raise DataError(f"{path}: line {line_no}: id {id_field!r} is not an integer") from None
            if doc_id in rows:
                raise DataError(f"{path}: line {line_no}: duplicate id {doc_id}")
            rows[doc_id] = split_labels(label_field)
    except TsvFormatError as exc:
        if isinstance(exc.__cause__, UnicodeDecodeError):
            raise DataError(f"{path}: line {exc.line_no}: invalid UTF-8") from exc
        raise DataError(f"{path}: {exc}") from exc
    return rows


def _cmd_eval(args: argparse.Namespace) -> int:
    gold = _load_dataset(args.gold, args.has_header)
    predictions = _parse_predictions(args.pred)
    missing = [doc.id for doc in gold.documents if doc.id not in predictions]
    if missing:
        raise DataError(f"{args.pred}: no prediction for document id(s) {missing[:5]}")
    extra = sorted(set(predictions) - {doc.id for doc in gold.documents})
    if extra:
        raise DataError(f"{args.pred}: prediction id(s) {extra[:5]} not present in the gold file")

    names = set(gold.label_space.names)
    for labels in predictions.values():
        names.update(labels)
    space = LabelSpace.from_names(names)
    gold_sets = [
        frozenset(space.index(gold.label_space.names[i]) for i in doc.labels)
        for doc in gold.documents
    ]
    pred_sets = [
        frozenset(space.index(name) for name in predictions[doc.id]) for doc in gold.documents
    ]
    try:
        report = evaluate(pred_sets, gold_sets, n_labels=len(space))
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(), end="")
    return EXIT_OK


def _worker_count() -> int:
    """The sweep's worker cap from ``LAHJA_THREADS`` (default 1, at least 1)."""
    raw = os.environ.get("LAHJA_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"LAHJA_THREADS must be an integer, got {raw!r}") from None
    return max(1, count)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _read_json_file(args.grid, "grid file", GridSpec)
    if spec.size() > args.max_configs:
        raise UsageError(str(GridSizeError(spec.size(), args.max_configs)))
    _check_out(args.out, "sweep results")
    try:
        workers = _worker_count()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    train = _load_dataset(args.train_file)
    dev = _load_dataset(args.dev_file)
    train, dev = merge_label_spaces(train, dev)
    try:
        results = run_sweep(train, dev, spec, max_configs=args.max_configs, workers=workers)
    except ValueError as exc:
        raise DataError(f"sweep failed: {exc}") from exc
    out = io.StringIO()
    write_sweep_tsv(results, out)
    _write_bytes(args.out, "sweep results", out.getvalue().encode("utf-8"))
    best_config, best_report = results[0]
    print(f"swept {len(results)} configurations -> {args.out}")
    print(f"best f1={best_report.f1:.6f} config={best_config.canonical_json()}")
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"lahja: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"lahja: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
