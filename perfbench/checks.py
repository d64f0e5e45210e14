"""Output checks applied to every CLI call the benchmark makes.

Each check returns a list of problems; an empty list means the output is
correct. The checks read only the files the CLI wrote and the inputs the
benchmark generated, never the program's own parsers.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

SWEEP_HEADER = "f1\tprecision\trecall\tmacro_f1\tconfig"
# The ROADMAP's allowance: f1 may sit at most this far below the seed commit.
F1_ALLOWANCE = 0.005
_MAX_PROBLEMS = 5


def _lines(path: Path) -> tuple[list[str] | None, list[str]]:
    try:
        text = path.read_bytes().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return None, [f"{path.name}: unreadable: {exc}"]
    if text and not text.endswith("\n"):
        return None, [f"{path.name}: last line is not newline-terminated"]
    return text.split("\n")[:-1], []


def check_predictions(path: Path, n_docs: int, label_names: Sequence[str]) -> list[str]:
    """One ``id<TAB>labels`` line per input doc, ids 0..n-1 in order.

    Labels are a non-empty, sorted, duplicate-free comma list drawn from the
    trained label space.
    """
    lines, problems = _lines(path)
    if lines is None:
        return problems
    if len(lines) != n_docs:
        problems.append(f"{path.name}: {len(lines)} lines for {n_docs} input docs")
    known = set(label_names)
    for expected_id, line in enumerate(lines):
        if len(problems) >= _MAX_PROBLEMS:
            break
        fields = line.split("\t")
        if len(fields) != 2:
            problems.append(f"{path.name}: line {expected_id + 1}: {len(fields)} fields")
            continue
        if fields[0] != str(expected_id):
            problems.append(f"{path.name}: line {expected_id + 1}: id {fields[0]!r}, expected {expected_id}")
        labels = fields[1].split(",")
        if not fields[1] or labels != sorted(set(labels)):
            problems.append(f"{path.name}: line {expected_id + 1}: labels {fields[1]!r} not a sorted set")
        unknown = [name for name in labels if name and name not in known]
        if unknown:
            problems.append(f"{path.name}: line {expected_id + 1}: labels {unknown} outside the label space")
    return problems


def check_sweep(path: Path, n_configs: int) -> list[str]:
    """One row per config, distinct configs, sorted by f1 best first."""
    lines, problems = _lines(path)
    if lines is None:
        return problems
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"{path.name}: missing header {SWEEP_HEADER!r}"]
    rows = lines[1:]
    if len(rows) != n_configs:
        problems.append(f"{path.name}: {len(rows)} rows for {n_configs} configs")
    f1s: list[float] = []
    configs: list[dict] = []
    for row_no, row in enumerate(rows, start=2):
        fields = row.split("\t")
        try:
            if len(fields) != 5:
                raise ValueError(f"{len(fields)} fields")
            f1s.append(float(fields[0]))
            configs.append(json.loads(fields[4]))
        except ValueError as exc:
            problems.append(f"{path.name}: line {row_no}: {exc}")
            return problems
    if any(a < b for a, b in zip(f1s, f1s[1:])):
        problems.append(f"{path.name}: rows not sorted by f1, best first")
    if len({json.dumps(c, sort_keys=True) for c in configs}) != len(configs):
        problems.append(f"{path.name}: repeated configs")
    return problems


def parse_eval_f1(stdout: str) -> tuple[float | None, list[str]]:
    """The sample-averaged f1 from ``lahja eval --json`` output."""
    try:
        report = json.loads(stdout)
        return float(report["f1"]), []
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"eval output is not a JSON report with f1: {exc}"]


def f1_floor(baseline_f1: dict[str, float] | None, seed: int) -> float | None:
    """The seed commit's f1 for ``seed`` less the allowance; ``None`` for an unrecorded seed."""
    recorded = (baseline_f1 or {}).get(str(seed))
    return None if recorded is None else recorded - F1_ALLOWANCE
