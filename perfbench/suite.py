"""Run the benchmark over several seeds and workloads and summarize the spread.

Usage, from the repository root::

    python3 perfbench/suite.py --seeds 1-10
    python3 perfbench/suite.py --seeds 42,43 --workloads sweep-vote --trace 1

Each (seed, workload) is one ``run.py`` child, run one after another. For
every metric the summary gives the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (Q3 - Q1) as a
share of the median, and for end-to-end metrics that spread against the
metric's bound in BENCHMARK.json. ``--write-baseline`` stores the medians,
the per-seed f1 and the output hashes in ``perfbench/baseline.json``; run it
only at the commit that is to become the baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".perfbench_out" / "results"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and (Q3 - Q1) / median."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 42,43")
    parser.add_argument("--workloads", default="all", help="comma-separated names, or all")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args(argv)

    names = [w["name"] for w in spec["workloads"]]
    if args.workloads != "all":
        names = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)
    group = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[group]}
    units = {m["name"]: m["unit"] for m in spec[group]}

    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    records: dict[str, dict[int, dict]] = {name: {} for name in names}
    attempted = failed = 0
    for seed in seeds:
        for name in names:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            start = perf_counter()
            done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
            wall = perf_counter() - start
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{name} seed={seed}: exit {done.returncode}\n{done.stderr[-2000:]}", flush=True)
                failed += 1
                attempted += 1
                continue
            line = json.loads(lines[-1])
            attempted += line["attempted"]
            failed += line["failed"]
            record = json.loads((RESULTS / f"{name}-seed{seed}-trace{args.trace}.json").read_text())
            records[name][seed] = record
            for metric, entry in line["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            flag = "" if line["correct"] else "  INCORRECT"
            print(f"{name} seed={seed} wall={wall:.1f}s passes={record['passes']} "
                  f"failed={line['failed']}/{line['attempted']}{flag}", flush=True)
            for text in lines[:-1]:
                if text.startswith("FAILED"):
                    print(f"  {text}", flush=True)

    print(f"\nops: attempted={attempted} failed={failed} "
          f"ops_failed_frac={failed / attempted if attempted else 0.0:.6g}")
    summary: dict[str, dict[str, dict]] = {}
    for name in names:
        print(f"\n{name} ({len(records[name])} runs)")
        print(f"  {'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summary[name] = {}
        for metric, vals in values[name].items():
            median, q1, q3, rel = spread(vals)
            bound = bounds.get(metric)
            mark = ""
            if bound is not None:
                mark = "  OVER BOUND" if rel > bound else ("  over bound/3" if rel > bound / 3 else "")
            print(f"  {metric:34s} {units[metric]:6s} {median:12.6g} {q1:12.6g} {q3:12.6g} {100 * rel:7.2f}% "
                  f"{'' if bound is None else f'{100 * bound:5.1f}%'}{mark}")
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "n": len(vals)}

    if args.write_baseline:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        first = next(r for recs in records.values() for r in recs.values())
        baseline.setdefault("environment", first["environment"])
        baseline[key] = {"seeds": seeds, "seconds": args.seconds, "medians": summary}
        for name in names:
            f1 = baseline.setdefault("f1", {}).setdefault(name, {})
            hashes = baseline.setdefault("hashes", {}).setdefault(name, {})
            for seed, record in records[name].items():
                f1[str(seed)] = record["f1"]
                hashes[str(seed)] = record["hashes"]
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"\nwrote {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
