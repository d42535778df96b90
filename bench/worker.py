"""Runs one workload in this process, closed loop, and prints its result as JSON.

Run by ``run.py`` as a child process, so that the workload's peak memory
is measured alone:

    python3 bench/worker.py --workload fock_boson --seed 1 --seconds 20 --trace 0

Rounds repeat until ``--seconds`` have passed; a round that has started
always finishes, so every run attempts whole rounds.  With ``--trace 1``
the first half of the time runs untraced and the second half traced.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from checks import Tally
from tracing import Tracer
from workloads import WORKLOADS, build_ops

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def load_program():
    """Import mixbench from this checkout's src/, never from anywhere else."""
    package = ROOT / "src" / "mixbench"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no mixbench sources at {package}")
    sys.path.insert(0, str(package.parent))
    from mixbench import amplitudes, cli, engine

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported mixbench from {cli.__file__}, not {package}")
    return cli, engine, amplitudes


def invoke(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def run_round(ops, tally: Tally, main) -> None:
    """One invocation and its checks per operation; a crash or non-zero exit fails it."""
    for op in ops:
        tally.attempted += 1
        try:
            code, stdout = main(op)
        except Exception:
            traceback.print_exc()
            tally.failures.append(f"{op.label}: raised")
            continue
        if code != 0:
            tally.failures.append(f"{op.label}: exit code {code}")
            continue
        try:
            op.check(tally, stdout)
        except Exception as exc:  # output the checks cannot read is wrong output
            traceback.print_exc()
            tally.failures.append(f"{op.label}: output unreadable ({exc!r})")


def timed_rounds(seconds: float, body) -> list[float]:
    times: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        body()
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - start >= seconds:
            return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    cli, engine, amplitudes = load_program()
    RESULTS.mkdir(exist_ok=True)
    ops = build_ops(args.workload, args.seed, RESULTS)
    tally = Tally()

    def plain_main(op):
        return invoke(cli, op.argv)

    result: dict = {}
    if not args.trace:
        rounds = timed_rounds(args.seconds, lambda: run_round(ops, tally, plain_main))
        result["wall_s"] = statistics.median(rounds)
    else:
        untraced = timed_rounds(args.seconds / 2, lambda: run_round(ops, tally, plain_main))
        tracer = Tracer()
        tracer.install(cli, engine, amplitudes.AmplitudeForm)

        def traced_main(op):
            return tracer.call("cli.main", invoke, (cli, op.argv), {}, op.label)

        traced = timed_rounds(
            args.seconds / 2,
            lambda: tracer.call("bench.round", run_round, (ops, tally, traced_main), {}),
        )
        rounds = untraced + traced
        trace_path = RESULTS / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        layers = tracer.layer_metrics(len(traced))
        layers["trace.wall_s"] = statistics.median(traced)
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["layers"] = layers
        result["trace_file"] = str(trace_path.relative_to(ROOT))
        result["traced_total_s"] = sum(traced)
        result["self_total_s"] = sum(tracer.self_times().values())
    result.update(
        rounds=len(rounds),
        attempted=tally.attempted,
        failed=len(tally.failures),
        failures=tally.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
