"""Benchmark for lahja: train, predict and sweep through the CLI, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload svc-overlap --seed 42 --seconds 10 --trace 0

One run generates the workload's corpora from ``--seed`` and repeats passes
of the workload's CLI session (sweep, train, set-up probes, predicts, eval)
for ``--seconds``. The first pass always runs whole; after it, a call starts
only if it should end within ``--seconds``, so the last pass may stop part
way. With ``--trace 0`` every call is a child process started one after
another by this script: a closed loop with one client, ``LAHJA_THREADS=1``
and the BLAS thread count pinned to 1. It prints the end-to-end metrics
BENCHMARK.json names, each the median over the run's calls of its step.

The time metrics are corrected for the host's speed. A shared host's speed
moves every call of a run together, by up to 1.5x between runs minutes
apart, and CPU time moves with wall time. So before each sweep, train and
predict of the test file the run also times ``perfbench/reference.py``, a
fixed child program doing the same kinds of work. Each call's wall time is
multiplied by ``REFERENCE_S`` over the mean of the reference times taken
just before the call's step and just after it: seconds on a host where the
reference takes ``REFERENCE_S``. The metrics are medians of these. The reference
is the benchmark's own code, so a change to the program moves the corrected
times as much as the raw ones. The raw medians are printed too.

With ``--trace 1`` the same session runs in-process through ``lahja.cli.main``,
each call once untraced and once traced by wrappers around each module's
public functions, and prints the per-layer metrics, a self-time breakdown
and the tracing overhead.

Every call's output is checked; a call that exits non-zero, fails a check
or writes bytes that differ from an earlier run of the same source and seed
counts as failed. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Full results, and in traced runs
the spans, go under ``.perfbench_out/``. ``perfbench/suite.py`` runs many
seeds and summarizes; ``perfbench/selftest.py`` checks the harness itself.

Seed 42 is the seed to tune a change on; seed 1009 is held out, to check a
claim on data it was not tuned on. ``perfbench/baseline.json`` holds the
seed commit's results, including the per-seed f1 the f1 check compares to;
a seed it does not list runs without an f1 floor.
"""

from __future__ import annotations

import os

# Pin the thread counts before numpy is imported here or in any child.
THREAD_ENV = {
    "LAHJA_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import check_predictions, check_sweep, f1_floor, parse_eval_f1  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, Inputs, Workload, write_inputs  # noqa: E402

# Set-up probes and predicts of the test file per pass. Short calls vary the
# most from call to call, so they are repeated to give their medians more
# samples than the one sweep and one train of each pass.
PROBES = 4
PREDICTS = 2
# Median time of perfbench/reference.py on a 2 vCPU Intel Xeon, Python 3.11.
REFERENCE_S = 0.35
# Steps before which the reference runs.
GAUGED_STEPS = ("sweep", "train", "predict")
# Child calls still running this long after the run started are killed and
# counted as failed, so a hung program cannot keep a run past its 180 s limit.
RUN_LIMIT_S = 165.0


@dataclasses.dataclass
class Call:
    step: str
    wall: float
    rss_mb: float | None
    code: int
    stdout: str
    stderr: str
    problems: list[str] = dataclasses.field(default_factory=list)
    # Index of the last reference time taken before the call.
    reference: int = -1


@dataclasses.dataclass
class Pass:
    calls: list[Call] = dataclasses.field(default_factory=list)
    hashes: dict[str, str] = dataclasses.field(default_factory=dict)
    producers: dict[str, Call] = dataclasses.field(default_factory=dict)
    bundle_bytes: int | None = None
    facts: dict = dataclasses.field(default_factory=dict)
    f1: float | None = None

    def record(self, call: Call, problems: list[str]) -> bool:
        if call.code != 0:
            problems = [f"exit code {call.code}: {call.stderr.strip()[-300:]}", *problems]
        call.problems.extend(problems)
        self.calls.append(call)
        return not call.problems

    def produced(self, kind: str, path: Path, call: Call) -> None:
        self.hashes[kind] = hashlib.sha256(path.read_bytes()).hexdigest()
        self.producers[kind] = call

    def complete(self) -> bool:
        return self.f1 is not None


Invoke = Callable[[str, list[str]], Call]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def time_reference() -> float:
    """Wall time of one run of the fixed reference program.

    A blocking wait, not ``subprocess.run(timeout=...)``, whose polling
    would round the time up to its 50 ms sleeps.
    """
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "reference.py")], env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL
    )
    killer = threading.Timer(60.0, proc.kill)
    killer.start()
    try:
        code = proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = perf_counter() - start
    if code != 0:
        raise RuntimeError(f"perfbench/reference.py exited {code}")
    return wall


def child_invoker(workdir: Path) -> Invoke:
    """Run each CLI call as a child process; max RSS comes from wait4."""
    env = child_env()
    deadline = perf_counter() + RUN_LIMIT_S

    def invoke(step: str, argv: list[str]) -> Call:
        out_path, err_path = workdir / "call.stdout", workdir / "call.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "lahja.cli", *argv], stdout=out, stderr=err, env=env, cwd=ROOT
            )
            killer = threading.Timer(max(0.0, deadline - start), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Call(
            step,
            wall,
            usage.ru_maxrss / 1024.0,
            proc.returncode,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
        )

    return invoke


def inprocess_invoker(tracer: Tracer | None = None) -> Invoke:
    """Call ``lahja.cli.main`` in this process, inside a step span when traced."""
    from lahja.cli import main

    def invoke(step: str, argv: list[str]) -> Call:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    code = main(argv)
                else:
                    with tracer.step_span(step):
                        code = main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Call(step, perf_counter() - start, None, code, out.getvalue(), err.getvalue())

    return invoke


def paired_invoker(tracer: Tracer, overhead: list[tuple[str, float, float]]) -> Invoke:
    """Run each call untraced and then traced, back to back, in this process.

    The traced call's outputs are the ones checked. Pairing each call keeps
    both timings close in time, so the difference estimates tracing overhead
    rather than drift in the host's speed.
    """
    plain, traced = inprocess_invoker(), inprocess_invoker(tracer)

    def invoke(step: str, argv: list[str]) -> Call:
        untraced = plain(step, argv)
        with tracer.installed():
            call = traced(step, argv)
        if untraced.code != 0:
            call.problems.append(f"untraced call exited {untraced.code}")
        overhead.append((step, untraced.wall, call.wall))
        return call

    return invoke


def run_pass(
    workload: Workload,
    inputs: Inputs,
    invoke: Invoke,
    workdir: Path,
    floor: float | None,
    fits: Callable[[str], bool] = lambda step: True,
) -> Pass:
    """One closed-loop session: sweep, train, set-up probes, predicts, eval.

    The pass stops before the first call for which ``fits`` is false.
    """
    model = workdir / "model.json"
    predictions = workdir / "predictions.tsv"
    probe_out = workdir / "probe_predictions.tsv"
    sweep_out = workdir / "sweep.tsv"
    for stale in (model, predictions, probe_out, sweep_out):
        stale.unlink(missing_ok=True)
    result = Pass()

    if not fits("sweep"):
        return result
    call = invoke("sweep", [
        "sweep", "--train-file", str(inputs.sweep_train), "--dev-file", str(inputs.dev),
        "--grid", str(inputs.grid), "--out", str(sweep_out),
    ])
    problems = check_sweep(sweep_out, workload.grid_size()) if call.code == 0 else []
    if not result.record(call, problems):
        return result
    result.produced("sweep", sweep_out, call)

    if not fits("train"):
        return result
    call = invoke("train", ["train", "--train-file", str(inputs.train), "--preset", workload.preset, "--out", str(model)])
    problems = [] if call.code != 0 or model.is_file() else ["no bundle written"]
    if not result.record(call, problems):
        return result
    result.produced("bundle", model, call)
    result.bundle_bytes = model.stat().st_size
    result.facts = bundle_facts(model)

    for _ in range(PROBES):
        if not fits("setup"):
            return result
        call = invoke("setup", ["predict", "--model", str(model), "--in", str(inputs.probe), "--out", str(probe_out)])
        result.record(call, check_predictions(probe_out, 1, inputs.labels) if call.code == 0 else [])

    for _ in range(PREDICTS):
        if not fits("predict"):
            return result
        predictions.unlink(missing_ok=True)
        call = invoke("predict", ["predict", "--model", str(model), "--in", str(inputs.test), "--out", str(predictions)])
        problems = check_predictions(predictions, inputs.test_docs, inputs.labels) if call.code == 0 else []
        if not result.record(call, problems):
            return result
        result.produced("predictions", predictions, call)

    if not fits("eval"):
        return result
    call = invoke("eval", ["eval", "--pred", str(predictions), "--gold", str(inputs.test), "--json"])
    f1, problems = parse_eval_f1(call.stdout) if call.code == 0 else (None, [])
    if f1 is not None and floor is not None and f1 < floor:
        problems.append(f"f1 {f1:.6f} below the floor {floor:.6f}")
    if result.record(call, problems):
        result.f1 = f1
    return result


def check_determinism(passes: list[Pass], reference: dict[str, str] | None) -> dict[str, str]:
    """Every pass must write the bytes of the first, and of the reference when given.

    A mismatch is a problem of the call that wrote the file. Returns the
    hashes this run settled on.
    """
    settled = dict(reference or {})
    for p in passes:
        for kind, digest in p.hashes.items():
            expected = settled.setdefault(kind, digest)
            if digest != expected:
                p.producers[kind].problems.append(
                    f"{kind} sha256 {digest[:12]} differs from {expected[:12]} written from the same source and seed"
                )
    return settled


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lahja").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": source_fingerprint(),
        "threads": THREAD_ENV,
        "loop": "closed, one client, CLI calls one after another",
    }


def bundle_facts(model: Path) -> dict:
    """Features per block, and forest size, read from the bundle JSON."""
    payload = json.loads(model.read_bytes())
    blocks = payload["union"]["blocks"]
    facts = {
        "features_per_block": {
            kind: (None if block is None else len(block["vocabulary"]))
            for kind, block in zip(("word", "char", "char_wb"), blocks)
        },
        "forest_nodes": 0,
        "forest_max_depth": 0,
    }
    forest = payload["models"].get("forest")
    for nodes in forest["trees"] if forest else []:
        facts["forest_nodes"] += len(nodes)
        depth = {0: 0}
        for i, node in enumerate(nodes):
            if "l" in node:
                depth[node["l"]] = depth[node["r"]] = depth[i] + 1
        facts["forest_max_depth"] = max(facts["forest_max_depth"], max(depth.values()))
    return facts


def import_time(samples: int = 5) -> float:
    """Median fresh-interpreter time of ``import lahja.cli``."""
    code = "import time; t = time.perf_counter(); import lahja.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(),
            cwd=ROOT, timeout=60, check=True,
        )
        times.append(float(done.stdout))
    return statistics.median(times)


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.replace(path)


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


TIME_METRICS = ("sweep_s", "train_s", "predict_docs_per_s", "setup_s")


def e2e_metrics(
    passes: list[Pass], inputs: Inputs, scale: Callable[[Call], float]
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end values (medians over the run's calls) and the sample count behind each.

    Each call's wall time is multiplied by ``scale(call)``, the host-speed correction.
    """
    calls = [c for p in passes for c in p.calls]

    def walls(step: str) -> list[float]:
        return [c.wall * scale(c) for c in calls if c.step == step and not c.problems]

    complete = [p for p in passes if p.complete()]
    samples = {
        "sweep_s": walls("sweep"),
        "train_s": walls("train"),
        "predict_docs_per_s": [inputs.test_docs / w for w in walls("predict")],
        "setup_s": walls("setup"),
        "peak_rss_mb": [max((c.rss_mb or 0.0) for c in calls)] if calls else [],
        "bundle_mb": [p.bundle_bytes / 1e6 for p in passes if p.bundle_bytes],
        "f1": [p.f1 for p in complete],
    }
    return (
        {name: median_or_zero(values) for name, values in samples.items()},
        {name: len(values) for name, values in samples.items()},
    )


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: Workload, seed: int, seconds: float, trace: bool, baseline: dict | None) -> dict:
    """One benchmark run; returns the result record (the printed JSON is its ``line``)."""
    spec = load_json(ROOT / "BENCHMARK.json")
    group = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    workdir = OUT / "work" / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        inputs = write_inputs(workload, seed, workdir)
        floor = f1_floor((baseline or {}).get("f1", {}).get(workload.name), seed)
        env = environment()
        # Compile bytecode and fill the file cache before anything is timed.
        subprocess.run([sys.executable, "-c", "import lahja.cli"], env=child_env(), cwd=ROOT, check=True, timeout=120)
        start = perf_counter()
        passes: list[Pass] = []
        spans: list[tuple[int, int]] = []
        overhead: list[tuple[str, float, float]] = []
        tracer = Tracer()
        invoke = paired_invoker(tracer, overhead) if trace else child_invoker(workdir)
        # Passes run back to back. The first always runs whole; after it, a
        # call starts only if, as long as the last call of its step, it still
        # ends within --seconds. The last pass may so stop part way.
        deadline = start + seconds
        last: dict[str, float] = {}
        reference: list[float] = []

        def timed(step: str, argv: list[str]) -> Call:
            began = perf_counter()
            if not trace and step in GAUGED_STEPS:
                reference.append(time_reference())
            call = invoke(step, argv)
            call.reference = len(reference) - 1
            last[step] = perf_counter() - began
            return call

        def fits(step: str) -> bool:
            return not passes or perf_counter() + last[step] <= deadline

        while not passes or (passes[-1].complete() and perf_counter() < deadline):
            first = len(tracer.spans)
            passes.append(run_pass(workload, inputs, timed, workdir, floor, fits))
            spans.append((first, len(tracer.spans)))
        measured_s = perf_counter() - start

        fingerprint = env["src_sha256"]
        registry_path = OUT / "hashes.json"
        registry = load_json(registry_path)
        key = f"{json.dumps(dataclasses.asdict(workload), sort_keys=True)}|seed={seed}|src={fingerprint}"
        settled = check_determinism(passes, registry.get(key))
        facts = next((p.facts for p in reversed(passes) if p.facts), {})
        calls = [c for p in passes for c in p.calls]
        failed = sum(1 for c in calls if c.problems)
        if not failed and key not in registry:
            registry[key] = settled
            write_json(registry_path, registry)
        seed_commit = (baseline or {}).get("hashes", {}).get(workload.name, {}).get(str(seed))

        record = {
            "workload": workload.name,
            "seed": seed,
            "trace": int(trace),
            "seconds": seconds,
            "measured_s": measured_s,
            "passes": len(passes),
            "environment": env,
            "inputs": {
                "train_docs": inputs.train_docs,
                "sweep_docs": inputs.sweep_docs,
                "test_docs": inputs.test_docs,
                "labels": len(inputs.labels),
                "expanded_samples": inputs.samples,
                **facts,
            },
            "f1": median_or_zero([p.f1 for p in passes if p.complete()]),
            "f1_floor": floor,
            "hashes": settled,
            "same_bytes_as_seed_commit": None if seed_commit is None else seed_commit == settled,
            "calls": [
                {"step": c.step, "wall_s": c.wall, "rss_mb": c.rss_mb, "exit": c.code, "problems": c.problems,
                 "reference": c.reference}
                for c in calls
            ],
        }
        if trace:
            values, counts, extra = trace_metrics(workload, inputs, tracer, passes, spans, overhead, facts)
            record["trace_detail"] = extra
        else:
            def corrected(call: Call) -> float:
                # The step's own reference time, and the next one, or the same
                # again after the run's last gauged step.
                around = reference[call.reference:call.reference + 2]
                return REFERENCE_S / statistics.mean(around)

            values, counts = e2e_metrics(passes, inputs, corrected)
            raw, _ = e2e_metrics(passes, inputs, lambda call: 1.0)
            record["host_speed"] = {
                "reference_s": REFERENCE_S,
                "reference_median_s": statistics.median(reference),
                "reference_runs": reference,
                "raw": {name: raw[name] for name in TIME_METRICS},
            }
        record["samples"] = counts
        record["all_values"] = values
        missing = sorted(set(units) - set(values))
        if missing:
            raise KeyError(f"BENCHMARK.json names metrics this run does not compute: {missing}")
        record["line"] = {
            "correct": failed == 0 and bool(calls),
            "attempted": len(calls),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
        if trace:
            write_spans(workload, seed, tracer)
        write_json(OUT / "results" / f"{workload.name}-seed{seed}-trace{int(trace)}.json", record)
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_metrics(workload, inputs, tracer, passes, spans, overhead, facts) -> tuple[dict, dict, dict]:
    """Per-layer values: the median over whole traced passes of each pass's summary.

    A last pass cut short would read 0 for the steps it skipped, so only
    whole passes count; if even the first failed part way, it counts alone.
    """
    whole = [pair for pair, p in zip(spans, passes) if p.complete()] or spans[:1]
    summaries = [
        summarize(tracer, first, last, inputs.train_docs, inputs.sweep_docs, workload.distinct_unions())
        for first, last in whole
    ]
    names = summaries[0]["metrics"].keys()
    values = {name: statistics.median(s["metrics"][name] for s in summaries) for name in names}
    values["cli.import_s"] = import_time()
    values["vectorizer.n_features"] = sum(n for n in facts.get("features_per_block", {}).values() if n)
    values["forest.nodes"] = facts.get("forest_nodes", 0)
    values["forest.max_depth"] = facts.get("forest_max_depth", 0)
    values["pipeline.samples"] = inputs.samples

    per_step: dict[str, dict[str, float]] = {}
    for step, untraced, traced in overhead:
        entry = per_step.setdefault(step, {"untraced_s": 0.0, "traced_s": 0.0})
        entry["untraced_s"] += untraced
        entry["traced_s"] += traced
    last = summaries[-1]["detail"]
    extra = {"passes": len(summaries), "overhead": per_step, **last}
    return values, {name: len(summaries) for name in values}, extra


def write_spans(workload: Workload, seed: int, tracer: Tracer) -> None:
    path = OUT / "spans" / f"{workload.name}-seed{seed}.jsonl.gz"
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for name, start, end, parent, step in tracer.spans:
            out.write(json.dumps([name, start, end, parent, tracer.step_names[step]]) + "\n")


def report(record: dict) -> list[str]:
    """Human-readable lines printed before the result line."""
    env, inputs, line = record["environment"], record["inputs"], record["line"]
    lines = [
        f"perfbench workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"passes={record['passes']} measured_s={record['measured_s']:.2f}",
        f"environment: nproc={env['nproc']} usable={env['cpus_usable']} cpu={env['cpu_model']!r} "
        f"python={env['python']} numpy={env['numpy']} commit={env['commit']} src_sha256={env['src_sha256'][:16]} "
        + " ".join(f"{k}={v}" for k, v in env["threads"].items()),
        "inputs: " + " ".join(f"{k}={v}" for k, v in inputs.items()),
        f"f1 floor: {record['f1_floor']}" + ("" if record["f1_floor"] is not None else " (seed not in baseline.json)"),
        "hashes: " + " ".join(f"{k}={v[:16]}" for k, v in sorted(record["hashes"].items()))
        + f" same_bytes_as_seed_commit={record['same_bytes_as_seed_commit']}",
        f"{'metric':34s} {'value':>14s} {'unit':6s} n",
    ]
    for name, entry in line["metrics"].items():
        lines.append(f"{name:34s} {entry['value']:14.6g} {entry['unit']:6s} {record['samples'][name]}")
    speed = record.get("host_speed")
    if speed:
        lines.append(f"host speed: reference.py median {speed['reference_median_s']:.4f}s over "
                     f"{len(speed['reference_runs'])} runs; times above are scaled to {speed['reference_s']}s per run")
        lines.append("uncorrected: " + " ".join(f"{k}={v:.6g}" for k, v in speed["raw"].items()))
    ops = line["attempted"]
    lines.append(f"ops: attempted={ops} failed={line['failed']} "
                 f"ops_failed_frac={line['failed'] / ops if ops else 0.0:.6g}")
    for call in record["calls"]:
        for problem in call["problems"]:
            lines.append(f"FAILED {call['step']}: {problem}")
    trace = record.get("trace_detail")
    if trace:
        lines.append("tracing overhead per step (traced - untraced, in-process):")
        for kind, entry in trace["overhead"].items():
            diff = entry["traced_s"] - entry["untraced_s"]
            pct = 100.0 * diff / entry["untraced_s"] if entry["untraced_s"] else 0.0
            lines.append(f"  {kind:8s} untraced={entry['untraced_s']:.4f}s traced={entry['traced_s']:.4f}s "
                         f"overhead={diff:+.4f}s ({pct:+.1f}%)")
        lines.append(f"self time by layer and step (s), traced wall {trace['traced_wall_s']:.3f}s:")
        steps = [s for s in trace["self_s"] if s != "*"] + ["*"]
        lines.append("  " + f"{'layer':12s}" + "".join(f"{s:>10s}" for s in steps) + f"{'share':>8s}")
        total = trace["traced_wall_s"] or 1.0
        for layer, value in trace["self_s"]["*"].items():
            cells = "".join(f"{trace['self_s'][s][layer]:10.3f}" for s in steps)
            lines.append(f"  {layer:12s}{cells}{100.0 * value / total:7.1f}%")
        for name, entry in trace["latency"].items():
            if entry["n"]:
                tail = f"p{entry['tail_p']:g}" if entry["tail_p"] else "max (<10 docs beyond p50)"
                lines.append(f"  per doc {name}: p50={entry['p50_us']:.1f}us {tail}={entry['tail_us']:.1f}us "
                             f"over {entry['n']} docs")
        for name, value in trace["report_only"].items():
            lines.append(f"  {name}: {value}")
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "lahja" / "cli.py").is_file():
        print(f"perfbench: no lahja sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    baseline = load_json(HERE / "baseline.json")
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), baseline)
    for text in report(record):
        print(text)
    print(json.dumps(record["line"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
