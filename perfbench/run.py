"""Run one benchmark workload against the engine in ``src/`` and report it.

Usage, from the repository root::

    python3 perfbench/run.py --workload tc_fixpoint --seed 1 --seconds 18 --trace 0

One client runs a closed loop in this process: the next op starts when the
previous one returns, with no think time.  The engine uses its default
``EngineOptions``.  With ``--trace 0`` the run times ops until their summed
latency reaches ``--seconds`` and sets the workload up once before them,
four times evenly spread among them and once after them; ``setup_s`` is
the median.  ``peak_rss_mb`` is read after the workload's ``fixed_ops``,
before any set-up among the ops.  With
``--trace 1`` it first runs ``fixed_ops`` ops untraced in a child process,
then installs the span wrappers (:mod:`tracer`) and runs the same ops
traced; the per-layer metrics and ``trace.overhead_ratio`` come from that
pair.

Op latencies are gated in units of a reference loop (:func:`reference_ms`),
a fixed pure-Python loop timed before the first op and after every
``REF_EVERY_S`` of op time.  On a shared host the CPU's speed drifts by up
to half in phases of seconds to minutes, and a pure-Python loop slows with
it; an op's time over the mean of the two reference times around it
cancels most of that drift, so one run compares with another.  The raw
milliseconds are in the report and the results file.

Every answer is checked against an independent oracle (:mod:`oracles`)
outside the timed span.  The run prints a readable report, writes every
sample plus host and commit metadata to ``perfbench/out/``, and ends with
one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: set-ups among the timed ops, besides one before and one after them;
#: ``setup_s`` is the median of all.  The host's speed drifts within a run,
#: so set-ups at one end alone would report the speed of that moment
SETUP_AMONG = 4
#: op time between two timings of the reference loop
REF_EVERY_S = 0.1
#: a timed run also stops after this many wall seconds per requested second
WALL_FACTOR = 3.0
#: time limit for the untraced child of a traced run
CHILD_TIMEOUT_S = 150


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--ops", type=int, default=None,
        help="run exactly this many ops instead of --seconds (default for "
        "traced runs: the workload's fixed_ops)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0 or (args.ops is not None and args.ops < 1):
        parser.error("--seconds must be positive and --ops at least 1")
    return args


# ------------------------------------------------------------------ stats
def quartiles(values: list[float]) -> dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def host_metadata() -> dict[str, Any]:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    sha = None
    # a checkout without .git has no commit; do not let git search the
    # directories above it
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
    }


# ------------------------------------------------------------------- loop
def reference_ms() -> float:
    """Time in ms of a fixed pure-Python loop, with the collector paused.

    Dict updates, tuple keys, ``Fraction`` arithmetic and small sorts, as in
    the engine's own inner loops; about 4.5 ms on a 2-vCPU Xeon VM with
    Python 3.11.  The loop is part of the benchmark: changing it changes
    the unit of every ``op_cost_*`` metric.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        begin = time.perf_counter()
        table: dict[tuple[int, int, str], int] = {}
        total = Fraction(0)
        for i in range(60):
            for j in range(12):
                key = (i % 7, j, "x")
                table[key] = table.get(key, 0) + 1
                total += Fraction(j + 1, i % 5 + 2)
            top = sorted(table.items(), key=lambda kv: (kv[1], kv[0]), reverse=True)[:8]
            if total > top[0][1]:
                total -= top[0][1]
        return (time.perf_counter() - begin) * 1000.0
    finally:
        if enabled:
            gc.enable()


def peak_rss() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(
    workload: Any, seconds: float, ops: int | None, tracer: Any = None,
    set_up: Callable[[], None] | None = None,
) -> dict:
    """The closed loop; returns per-op samples and the traced op windows.

    Each sample's ``cost`` is its latency over the mean of the reference
    times taken just before and just after the stretch of ops it is in.
    A timed run calls ``set_up`` ``SETUP_AMONG`` times, evenly spread over
    the timed seconds left after the first ``fixed_ops`` ops.  A set-up clears
    the plan cache, so the next op of the live workload compiles its plan
    again: a few ms in a run of seconds."""
    samples: list[dict[str, Any]] = []
    windows: list[tuple[int, float, float]] = []
    refs = [reference_ms()]
    since_ref = 0.0
    peak_rss_mb = None
    timed = 0.0
    fixed_s = None
    set_ups = 0
    started = time.perf_counter()
    index = 0
    while True:
        if ops is not None:
            if index >= ops:
                break
        elif index % workload.round_ops == 0:
            if timed >= seconds or time.perf_counter() - started >= WALL_FACTOR * seconds:
                break
            if (
                set_up is not None and fixed_s is not None and set_ups < SETUP_AMONG
                and timed >= fixed_s + (set_ups + 1) * (seconds - fixed_s) / (SETUP_AMONG + 1)
            ):
                # end the stretch before the set-up and start a new one after it
                refs.append(reference_ms())
                set_up()
                set_ups += 1
                refs.append(reference_ms())
                since_ref = 0.0
        op = workload.make_op(index)
        if tracer is not None:
            tracer.op = index
            tracer.recording = True
        error = None
        result = None
        begin = time.perf_counter()
        try:
            result = workload.run(op)
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tracer is not None:
            tracer.recording = False
            windows.append((index, begin, end))
        if error is None:
            try:
                error = workload.check(op, result)
            except Exception as exc:
                error = f"oracle raised {type(exc).__name__}: {exc}"
        timed += end - begin
        samples.append({
            "kind": op.kind, "ms": (end - begin) * 1000.0, "error": error,
            "ref": len(refs) - 1,
        })
        index += 1
        if index == workload.fixed_ops:
            peak_rss_mb = peak_rss()
            fixed_s = timed
        since_ref += end - begin
        if since_ref >= REF_EVERY_S:
            refs.append(reference_ms())
            since_ref = 0.0
    refs.append(reference_ms())
    for sample in samples:
        sample["cost"] = sample["ms"] / ((refs[sample["ref"]] + refs[sample["ref"] + 1]) / 2)
    return {
        "samples": samples,
        "refs_ms": refs,
        "request_ops": workload.request_ops,
        "request_kind": workload.request_kind,
        "timed_s": timed,
        "windows": windows,
        "peak_rss_mb": peak_rss_mb if peak_rss_mb is not None else peak_rss(),
    }


def end_to_end(setup: list[float], loop: dict) -> tuple[dict, dict]:
    """(the gated metrics, the full per-kind report)."""
    samples = loop["samples"]
    ok = [s for s in samples if s["error"] is None]
    requests = grouped(samples, loop["request_ops"])
    served = [r for r in requests if r["error"] is None] or requests
    costs = [r["cost"] for r in served]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_cost_p50": {"value": statistics.median(costs), "unit": "ref"},
        "op_cost_mean": {"value": statistics.fmean(costs), "unit": "ref"},
        "peak_rss_mb": {"value": loop["peak_rss_mb"], "unit": "MB"},
    }
    report = dict(metrics)
    report["ops_per_s"] = {
        "value": sum(r["error"] is None for r in requests) / loop["timed_s"], "unit": "1/s"
    }
    report["op_ms_p50"] = {"value": statistics.median(r["ms"] for r in served), "unit": "ms"}
    if loop["request_kind"]:
        report[f"{loop['request_kind']}_ms_p50"] = report["op_ms_p50"]
    report["ref_ms_p50"] = {"value": statistics.median(loop["refs_ms"]), "unit": "ms"}
    report["fail_frac"] = {"value": (len(samples) - len(ok)) / len(samples), "unit": "ratio"}
    for kind, values in sorted(by_kind(ok).items()):
        report[f"{kind}_ms_p50"] = {"value": statistics.median(values), "unit": "ms"}
        if kind == "query":
            report["query_ms_p90"] = {"value": percentile(values, 90), "unit": "ms"}
    return metrics, report


def grouped(samples: list[dict[str, Any]], size: int) -> list[dict[str, Any]]:
    """Consecutive samples summed into requests of ``size`` ops each; a
    request fails with its first failed op."""
    requests = []
    for start in range(0, len(samples), size):
        part = samples[start:start + size]
        requests.append({
            "ms": sum(s["ms"] for s in part),
            "cost": sum(s["cost"] for s in part),
            "error": next((s["error"] for s in part if s["error"] is not None), None),
        })
    return requests


def by_kind(samples: list[dict[str, Any]]) -> dict[str, list[float]]:
    """Latencies in ms grouped by op kind."""
    groups: dict[str, list[float]] = {}
    for sample in samples:
        groups.setdefault(sample["kind"], []).append(sample["ms"])
    return groups


def summaries(setup: list[float], loop: dict) -> dict[str, Any]:
    """Median and quartiles of every sampled series."""
    series = {"setup_s": setup, "all_ms": [s["ms"] for s in loop["samples"]]}
    series.update((f"{kind}_ms", values) for kind, values in by_kind(loop["samples"]).items())
    return {name: {**quartiles(values), "n": len(values)} for name, values in series.items()}


# --------------------------------------------------------------- the runs
def untraced(args: argparse.Namespace, workloads: Any) -> tuple[dict, dict, dict]:
    factory = workloads.WORKLOADS[args.workload]
    setup: list[float] = []

    def set_up() -> Any:
        workload = factory(args.seed)
        gc.collect()
        begin = time.perf_counter()
        workload.setup()
        setup.append(time.perf_counter() - begin)
        return workload

    workload = set_up()
    try:
        loop = run_ops(workload, args.seconds, args.ops, set_up=lambda: set_up().close())
    finally:
        workload.close()
    set_up().close()
    metrics, report = end_to_end(setup, loop)
    details = {"setup_samples_s": setup, "summaries": summaries(setup, loop), **loop}
    return metrics, report, details


def untraced_child(args: argparse.Namespace, ops: int) -> float:
    """Summed cost of ``ops`` untraced ops, run in a fresh interpreter."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--ops", str(ops),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"untraced child failed:\n{done.stderr}")
    with open(result_path(args, trace=0, ops=ops), encoding="utf-8") as handle:
        return sum(sample["cost"] for sample in json.load(handle)["samples"])


def traced(args: argparse.Namespace, workloads: Any) -> tuple[dict, dict, dict]:
    import tracer as tracing

    factory = workloads.WORKLOADS[args.workload]
    ops = args.ops or factory.fixed_ops
    baseline = untraced_child(args, ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        workload = factory(args.seed)
        tracer.op = -1
        tracer.recording = True
        begin = time.perf_counter()
        workload.setup()
        setup = time.perf_counter() - begin
        tracer.recording = False
        try:
            loop = run_ops(workload, args.seconds, ops, tracer)
        finally:
            workload.close()
    finally:
        tracer.uninstall()
    spans = tracer.records()
    wall = setup + sum(end - start for _, start, end in loop["windows"])
    layers, self_s = tracing.layer_metrics(
        spans, wall, workload.cache_counts(), workload.counters()
    )
    layers["trace.overhead_ratio"] = sum(s["cost"] for s in loop["samples"]) / baseline
    layers["trace.coverage"] = tracing.coverage(spans, loop["windows"])
    units = per_layer_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in layers.items()}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.json.gz")
    details = {
        "setup_samples_s": [setup],
        "untraced_cost": baseline,
        "spans": len(spans),
        "self_s": self_s,
        "summaries": summaries([setup], loop),
        **loop,
    }
    return metrics, metrics, details


def per_layer_units() -> dict[str, str]:
    with open(BENCHMARK, encoding="utf-8") as handle:
        benchmark = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in benchmark["per_layer"]}


def result_path(args: argparse.Namespace, trace: int, ops: int | None) -> Path:
    suffix = f"-ops{ops}" if ops is not None else ""
    return OUT / f"{args.workload}-seed{args.seed}-trace{trace}{suffix}.json"


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    run = traced if args.trace else untraced
    metrics, report, details = run(args, workloads)
    samples = details["samples"]
    failed = sum(1 for s in samples if s["error"] is not None)
    for name, entry in report.items():
        print(f"{args.workload:20} {name:32} {entry['value']:.6g} {entry['unit']}")
    for sample in samples:
        if sample["error"] is not None:
            print(f"failed {sample['kind']} op: {sample['error']}")
    OUT.mkdir(exist_ok=True)
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_metadata(),
        "metrics": report,
        **{k: v for k, v in details.items() if k != "windows"},
    }
    with open(result_path(args, args.trace, args.ops), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
