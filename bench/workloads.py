"""The benchmark's workloads: fixed parameter points, seeded amplitudes, checks.

A workload is a list of operations.  Each operation is one ``mixbench``
CLI invocation and the check of what it printed; one round runs them all
in order.  The seed only draws the (sA, sB) pairs handed to the CLI.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from checks import Tally, check_paths_doc, check_run_rows, check_verify_report, complex_arg

WORKLOADS = ("verify", "fock_boson", "coherent_fermion", "paths_provenance")

VERIFY_NMAX = 8
# Boson type1 at n = 10, from seed-heavy (symmetrize dominates) to
# seed-light (scatter dominates).
FOCK_BOSON_POINTS = ((2, 2, 6), (2, 3, 5), (3, 3, 4), (4, 3, 3))
# Type2 fermions at n = 8 with a seed, so each expands to 3^8 terms.
COHERENT_FERMION_POINTS = ((8, 0.2), (8, 0.5))
PATHS_POINT = (8, 0.2)
PATHS_DESTINATION = "phi phi psi psi v v v u"
# A run at a small point beside the listing, so that the norm, oracle and
# closed-form layers are timed here too; a layer that never ran would read
# exactly 0 s in every traced run.
PATHS_COMPANION_POINT = {"n": 4, "epsilon": 0.2}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: Callable[[Tally, str], None]


def seeded_pairs(seed: int, count: int) -> list[tuple[complex, complex]]:
    """(sA, sB) pairs with real and imaginary parts drawn from [-1, 1] to 3 decimals."""
    rng = random.Random(seed)

    def draw() -> complex:
        return complex(round(rng.uniform(-1.0, 1.0), 3), round(rng.uniform(-1.0, 1.0), 3))

    return [(draw(), draw()) for _ in range(count)]


def _amplitude_args(sa: complex, sb: complex) -> tuple[str, ...]:
    return (f"--sa={complex_arg(sa)}", f"--sb={complex_arg(sb)}")


def run_op(experiment: str, statistics: str, point: dict, sa: complex, sb: complex) -> Op:
    point_args = tuple(arg for key, value in point.items() for arg in (f"--{key}", str(value)))
    argv = ("run", "--experiment", experiment, "--statistics", statistics, *point_args, "--format", "csv")

    def check(tally: Tally, stdout: str) -> None:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        check_run_rows(tally, rows, experiment, statistics, point, sa, sb)

    label = f"run {experiment} {statistics} " + " ".join(f"{k}={v}" for k, v in point.items())
    return Op(label, argv + _amplitude_args(sa, sb), check)


def _verify_op(out_dir: Path) -> Op:
    # verify writes its report into the working directory unless told otherwise.
    report_path = out_dir / "verify-report.json"

    def check(tally: Tally, stdout: str) -> None:
        with open(report_path, encoding="utf-8") as handle:
            report = json.load(handle)
        check_verify_report(tally, report, stdout.splitlines()[0])

    argv = ("verify", "--nmax", str(VERIFY_NMAX), "--out", str(report_path))
    return Op(f"verify --nmax {VERIFY_NMAX}", argv, check)


def _paths_op(sa: complex, sb: complex) -> Op:
    n, epsilon = PATHS_POINT
    argv = (
        "paths", "--experiment", "type2", "--statistics", "fermion",
        "--n", str(n), "--epsilon", str(epsilon), PATHS_DESTINATION, "--format", "json",
    )

    def check(tally: Tally, stdout: str) -> None:
        check_paths_doc(tally, json.loads(stdout), n, epsilon, PATHS_DESTINATION, sa, sb)

    return Op(f"paths type2 fermion n={n} eps={epsilon}", argv + _amplitude_args(sa, sb), check)


def build_ops(workload: str, seed: int, out_dir: Path) -> list[Op]:
    if workload == "verify":
        return [_verify_op(out_dir)]
    if workload == "fock_boson":
        pairs = seeded_pairs(seed, len(FOCK_BOSON_POINTS))
        return [
            run_op("type1", "boson", {"n1": n1, "n2": n2, "n3": n3}, sa, sb)
            for (n1, n2, n3), (sa, sb) in zip(FOCK_BOSON_POINTS, pairs)
        ]
    if workload == "coherent_fermion":
        pairs = seeded_pairs(seed, len(COHERENT_FERMION_POINTS))
        return [
            run_op("type2", "fermion", {"n": n, "epsilon": epsilon}, sa, sb)
            for (n, epsilon), (sa, sb) in zip(COHERENT_FERMION_POINTS, pairs)
        ]
    if workload == "paths_provenance":
        (sa, sb), = seeded_pairs(seed, 1)
        return [_paths_op(sa, sb), run_op("type2", "fermion", PATHS_COMPANION_POINT, sa, sb)]
    raise ValueError(f"unknown workload {workload!r}")
