"""Self-test of the benchmark harness: tiny workloads through the real code path.

Usage, from the repository root::

    python3 perfbench/selftest.py

Runs every workload at a tiny size, untraced and traced, through the same
``run.run`` the benchmark uses, and checks that every metric BENCHMARK.json
names is emitted with its unit. Then checks that the output checks catch a
corrupted predictions file, a corrupted sweep table and differing bytes, and
that the benchmark refuses to run without the program's sources. Exits 1 on
the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run
from checks import check_predictions, check_sweep
from workloads import WORKLOADS, write_inputs

# Small enough for a few seconds per run; the shapes match the real workloads.
TINY = {
    "svc-overlap": {"corpus": (4, 10, 12, 0.15), "test_corpus": (4, 15, 12, 0.15), "sweep_corpus": (4, 5, 12, 0.15)},
    "sweep-vote": {"corpus": (3, 20, 12, 0.0), "test_corpus": (3, 10, 12, 0.0)},
}
SEED = 3


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], name=f"{name}-tiny", **TINY[name])


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest: FAIL - {message}", flush=True)
        sys.exit(1)


def check_metrics_emitted(spec: dict) -> None:
    for name in TINY:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            record = run.run(tiny(name), SEED, 0.1, trace, baseline=None)
            line = record["line"]
            where = f"{name} trace={int(trace)}"
            expect(line["correct"] and line["failed"] == 0 and line["attempted"] >= 1,
                   f"{where}: run not correct: {line['failed']}/{line['attempted']} failed")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            expect(list(line["metrics"]) == list(wanted), f"{where}: metric names differ from BENCHMARK.json")
            for metric, entry in line["metrics"].items():
                value = entry["value"]
                expect(entry["unit"] == wanted[metric], f"{where}: {metric} unit {entry['unit']!r}")
                expect(isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value),
                       f"{where}: {metric} value {value!r} is not a finite number")
                if not trace:
                    expect(value > 0, f"{where}: end-to-end metric {metric} is 0")
            json.dumps(line, allow_nan=False)
            print(f"selftest: PASS - {where}: {len(wanted)} metrics with units", flush=True)


def check_corruption_detected() -> None:
    workload = tiny("sweep-vote")
    workdir = run.OUT / "selftest-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = write_inputs(workload, SEED, workdir)
        invoke = run.inprocess_invoker()
        clean = run.run_pass(workload, inputs, invoke, workdir, floor=None)
        expect(clean.complete() and not any(c.problems for c in clean.calls), "clean pass has problems")

        predictions = (workdir / "predictions.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        corruptions = {
            "dropped last line": predictions[:-1],
            "swapped two lines": [predictions[1], predictions[0], *predictions[2:]],
            "unknown label": [predictions[0].replace("\t", "\tzz-unknown,", 1), *predictions[1:]],
            "empty labels": [predictions[0].split("\t")[0] + "\t\n", *predictions[1:]],
            "no final newline": [*predictions[:-1], predictions[-1].rstrip("\n")],
        }
        bad = workdir / "corrupt.tsv"
        for what, lines in corruptions.items():
            bad.write_text("".join(lines), encoding="utf-8")
            expect(bool(check_predictions(bad, inputs.test_docs, inputs.labels)),
                   f"predictions check missed: {what}")

        sweep = (workdir / "sweep.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        for what, lines in {
            "dropped row": sweep[:-1],
            "duplicated row": [*sweep[:-1], sweep[1]],
            "unsorted": [sweep[0], *sweep[1:-1], sweep[-1].replace(sweep[-1].split("\t")[0], "1.5", 1)],
        }.items():
            bad.write_text("".join(lines), encoding="utf-8")
            expect(bool(check_sweep(bad, workload.grid_size())), f"sweep check missed: {what}")

        def corrupting(step: str, argv: list[str]) -> run.Call:
            call = invoke(step, argv)
            if step == "predict":
                out = Path(argv[argv.index("--out") + 1])
                out.write_text("".join(out.read_text(encoding="utf-8").splitlines(keepends=True)[:-1]))
            return call

        broken = run.run_pass(workload, inputs, corrupting, workdir, floor=None)
        expect(not broken.complete() and any(c.problems for c in broken.calls if c.step == "predict"),
               "a corrupted predictions file did not fail the predict call")

        differing = run.run_pass(workload, inputs, invoke, workdir, floor=None)
        differing.hashes["bundle"] = "0" * 64
        run.check_determinism([clean, differing], None)
        expect(bool(differing.producers["bundle"].problems), "differing bundle bytes were not counted as failed")

        low = run.run_pass(workload, inputs, invoke, workdir, floor=1.5)
        expect(any(c.problems for c in low.calls if c.step == "eval"), "f1 below the floor was not counted")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest: PASS - corrupted predictions, sweep rows, bytes and f1 fail their checks", flush=True)


def check_refuses_without_sources() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "svc-overlap", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0, "run without sources exited 0")
    expect('"correct"' not in done.stdout, "run without sources printed a result")
    print("selftest: PASS - refuses to run without the program's sources", flush=True)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_metrics_emitted(spec)
    check_corruption_detected()
    check_refuses_without_sources()
    print("selftest: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
