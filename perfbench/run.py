"""applekit benchmark: four seeded workloads, end-to-end metrics, and a
traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's inputs from
the seed, measures set-up in several fresh processes, runs the workload as
one closed-loop client for S seconds in another fresh process, checks every
output, and prints a report.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the
end_to_end metrics of BENCHMARK.json with --trace 0, its per_layer metrics
with --trace 1.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verdict-batch", "query-stream", "reason-ingest", "cli-cold")
SETUP_SAMPLES = 5  # fresh processes timed for setup_s per run; the median is reported
DEADLINE_S = 170.0  # a run must end within 180 s, builds included


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args: argparse.Namespace, work: Path, deadline: float, *extra: str) -> dict:
    """Run worker.py in a fresh process group; kill the group at the deadline."""
    result = work / f"result-{time.monotonic_ns()}.json"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
            "--result", str(result), *extra]
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError("workload process did not finish before the deadline") from None
    finally:
        # Whatever the worker started (cli-cold's children) ends with it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if code != 0:
        raise RuntimeError(f"workload process exited with code {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method, so small samples work)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            return q, quantile(values, q)
    return 50, statistics.median(values)


def step_rates(samples: list) -> list[float]:
    """Per step: successful operations per second of operation time."""
    busy: dict[int, float] = {}
    done: dict[int, int] = {}
    for lat, outcome, _, factor, step in samples:
        busy[step] = busy.get(step, 0.0) + lat * factor
        done[step] = done.get(step, 0) + (outcome == "ok")
    return [done[step] / busy[step] for step in busy if busy[step] > 0]


def end_to_end(workload: str, main: dict, setups: list[float]) -> tuple[dict, list[str]]:
    samples = main["samples"]
    ok_ms = [lat * factor * 1e3 for lat, outcome, _, factor, _ in samples if outcome == "ok"]
    raw_ms = [lat * 1e3 for lat, outcome, _, _, _ in samples if outcome == "ok"]
    ops_per_s = statistics.median(step_rates(samples))
    setup_s = statistics.median(setups)
    p50 = statistics.median(ok_ms) if ok_ms else 0.0
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": p50,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    q, q_value = tail(ok_ms) if ok_ms else (50, 0.0)
    failed = sum(1 for _, outcome, _, _, _ in samples if outcome != "ok")
    speed = statistics.median(factor for _, _, _, factor, _ in samples)
    lines = [
        f"setup_s        {setup_s:.4f} s (median of {len(setups)} fresh processes, at reference speed)",
        f"timing         median {p50:.3f} ms, p{q} {q_value:.3f} ms (n={len(ok_ms)})",
        f"raw wall time  median {statistics.median(raw_ms) if raw_ms else 0.0:.3f} ms"
        f" (median speed factor {speed:.3f})",
        f"error_rate     {failed / len(samples):.4f} ({failed} of {len(samples)} operations failed or wrong)",
        f"peak_rss_mb    {main['peak_rss_mb']:.1f} MB",
    ]
    # The same measurements under their per-workload names.
    if workload in ("verdict-batch", "reason-ingest"):
        lines.append(f"triples_per_s  {main['asserted'] * ops_per_s:.1f} 1/s ({main['asserted']} asserted triples per operation)")
    elif workload == "query-stream":
        lines.append(f"query_p50_ms   {p50:.3f} ms")
        lines.append(f"query_p99_ms   {quantile(ok_ms, 99):.3f} ms")
        lines.append(f"queries_per_s  {ops_per_s:.1f} 1/s")
    else:
        lines.append(f"cli_p50_ms     {p50:.3f} ms")
        lines.append(f"cli_p90_ms     {quantile(ok_ms, 90):.3f} ms")
    return metrics, lines


def per_layer(main: dict) -> tuple[dict, list[str]]:
    layers = main["layers"]
    lines = [f"{name:28s} {value:.6g}" for name, value in sorted(layers.items())]
    lines.append("scaling flags (time ratio above 8 at 4x input): " + (", ".join(main["flagged"]) or "none"))
    lines.append(f"spans written to {main['spans_file']}")
    return layers, lines


def main() -> int:
    parser = argparse.ArgumentParser(description="applekit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "applekit" / "__init__.py").is_file():
        print("perfbench: applekit sources not found under src/; run from a repository checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_worker(args, work, deadline, "--warmup")  # byte-compiles the sources, untimed
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES):
                setups.append(run_worker(args, work, deadline, "--setup-only")["setup_s"])
        main_result = run_worker(args, work, deadline)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    samples = main_result["samples"]
    outcomes = [outcome for _, outcome, _, _, _ in samples]
    correct = main_result["deep_check"] and "wrong" not in outcomes and "failed" not in outcomes
    if args.trace:
        values, lines = per_layer(main_result)
    else:
        values, lines = end_to_end(args.workload, main_result, setups)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  correct        {correct} (outputs checked: {len(samples)} operations)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(1 for outcome in outcomes if outcome != "ok")
    print(json.dumps({"correct": bool(correct), "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
