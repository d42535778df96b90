"""mixbench benchmark: run workloads through the CLI and report their metrics.

    python3 bench/run.py --workload fock_boson --seed 1 --seconds 20 --trace 0
    python3 bench/run.py                       # every workload, one after another

Each workload runs in its own child process (``worker.py``), one client
issuing CLI invocations one after another.  With ``--trace 0`` the last
line of output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a separate traced run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
# A run may take --seconds plus one round; no round comes near this.
WORKER_TIMEOUT_S = 170

# Time a fresh interpreter spends importing mixbench and building the CLI parser.
SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import mixbench.cli
mixbench.cli.make_parser()
elapsed = time.perf_counter() - start
if not mixbench.cli.__file__.startswith(sys.argv[1]):
    sys.exit(f"imported mixbench from {mixbench.cli.__file__}")
print(repr(elapsed))
"""

END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
LAYER_UNITS = {
    "states.init_s": "s",
    "states.init_terms": "count",
    "states.merge_s": "s",
    "states.norm_s": "s",
    "engine.scatter_self_s": "s",
    "engine.paths": "count",
    "engine.paths_per_s": "1/s",
    "engine.path_yield": "ratio",
    "engine.final_terms": "count",
    "amplitudes.forms_built": "count",
    "oracle.init_s": "s",
    "oracle.apply_s": "s",
    "oracle.terms_out": "count",
    "formulas.closed_s": "s",
    "cli.render_s": "s",
    "cli.self_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """The program could not be run or measured; no result is printed."""


def measure_setup() -> float:
    """Median over fresh interpreters, after one that warms the file cache."""
    src = str(ROOT / "src")
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, src],
            capture_output=True, text=True, timeout=60, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"importing mixbench failed:\n{proc.stderr}")
        samples.append(float(proc.stdout))
    return statistics.median(samples[1:])


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: worker did not finish within {WORKER_TIMEOUT_S} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"{workload}: worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload's result: correct, attempted, failed and its metrics with units."""
    setup_s = None if trace else measure_setup()
    worker = run_worker(workload, seed, seconds, trace)
    if trace:
        metrics = {name: {"value": worker["layers"][name], "unit": unit} for name, unit in LAYER_UNITS.items()}
    else:
        values = {"wall_s": worker["wall_s"], "peak_rss_mb": worker["peak_rss_mb"], "setup_s": setup_s}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    print(f"workload {workload}: seed {seed}, {worker['rounds']} rounds, trace {'on' if trace else 'off'}")
    for name, metric in metrics.items():
        print(f"  {name:24s} {metric['value']:.6g} {metric['unit']}")
    print(f"  operations               attempted {worker['attempted']}, failed {worker['failed']}")
    for failure in worker["failures"]:
        print(f"  FAILED: {failure}")
    if trace:
        print(f"  spans written to {worker['trace_file']}")
        print(
            f"  layer self times cover {worker['self_total_s']:.4f} s"
            f" of {worker['traced_total_s']:.4f} s traced wall time"
        )
    return {
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "mixbench" / "cli.py").is_file():
        print(f"error: no mixbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in workloads}
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        (summary,) = results.values()
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": metric for w, r in results.items() for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
