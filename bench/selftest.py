"""Self-test of the benchmark's checks: real output passes, perturbed output fails.

    python3 bench/selftest.py

Runs the CLI on small points, feeds its output to the same checks the
workloads use, then perturbs one value at a time and requires the checks
to catch it.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import sys

from checks import Tally, check_paths_doc, check_run_rows, check_verify_report, complex_arg, parse_complex_text
from worker import RESULTS, invoke, load_program
from workloads import run_op

SA, SB = 0.3 - 0.7j, -0.45 + 0.2j


def failures_of(check, *args) -> list[str]:
    tally = Tally()
    check(tally, *args)
    if tally.attempted == 0:
        return ["nothing was checked"]
    return tally.failures


def main() -> int:
    cli = load_program()[0]
    amplitudes = [f"--sa={complex_arg(SA)}", f"--sb={complex_arg(SB)}"]
    cases = []

    def output(argv) -> str:
        code, out = invoke(cli, argv)
        if code != 0:
            raise SystemExit(f"mixbench {' '.join(argv)} exited with code {code}")
        return out

    for experiment, statistics, point in (
        ("type1", "boson", {"n1": 2, "n2": 2, "n3": 1}),
        ("type2", "fermion", {"n": 4, "epsilon": 0.3}),
    ):
        rows = list(csv.DictReader(io.StringIO(output(run_op(experiment, statistics, point, SA, SB).argv))))
        where = f"run {experiment} {statistics}"
        cases.append((f"{where}: as printed", False, (check_run_rows, rows, experiment, statistics, point, SA, SB)))
        bad = copy.deepcopy(rows)
        bad[1]["amplitude"] = repr(float(bad[1]["amplitude"]) * (1 + 1e-8))
        cases.append((f"{where}: one engine off by 1e-8", True, (check_run_rows, bad, experiment, statistics, point, SA, SB)))

    RESULTS.mkdir(exist_ok=True)
    report_path = RESULTS / "selftest-verify-report.json"
    summary = output(["verify", "--nmax", "4", "--out", str(report_path)]).splitlines()[0]
    with open(report_path, encoding="utf-8") as handle:
        report = json.load(handle)
    cases.append(("verify: as written", False, (check_verify_report, report, summary)))
    records = report["records"]

    def perturbed(edit):
        bad = copy.deepcopy(report)
        edit(bad["records"])
        return (check_verify_report, bad, summary)

    zero = next(i for i, r in enumerate(records) if r["statistics"] == "fermion" and r["n3"] >= max(r["n1"], r["n2"]))
    cases.append(("verify: Pauli zero turned into 5e-324", True, perturbed(lambda rs: rs[zero]["values"].__setitem__("oracle", 5e-324))))
    first_pass = next(i for i, r in enumerate(records) if r["status"] == "pass" and r["experiment"] == "type2")
    cases.append(("verify: pass relabelled known-divergence", True, perturbed(lambda rs: rs[first_pass].__setitem__("status", "known-divergence"))))
    boson = next(i for i, r in enumerate(records) if r["statistics"] == "boson" and r["experiment"] == "type1")
    cases.append(("verify: boson firstq off by 1e-8", True, perturbed(lambda rs: rs[boson]["values"].__setitem__("firstq", rs[boson]["values"]["firstq"] + 1e-8))))
    cases.append(("verify: one grid record missing", True, perturbed(lambda rs: rs.pop(boson + 3))))

    destination = "phi psi v u"
    argv = ["paths", "--experiment", "type2", "--statistics", "fermion", "--n", "4", "--epsilon", "0.3"]
    doc = json.loads(output([*argv, destination, "--format", "json", *amplitudes]))
    cases.append(("paths: as printed", False, (check_paths_doc, doc, 4, 0.3, destination, SA, SB)))
    bad = copy.deepcopy(doc)
    bad[0]["paths"].pop()
    cases.append(("paths: one path record missing", True, (check_paths_doc, bad, 4, 0.3, destination, SA, SB)))
    bad = copy.deepcopy(doc)
    bad[2]["value"] = complex_arg(parse_complex_text(bad[2]["value"]) * 1.001)
    cases.append(("paths: destination value off by 0.1%", True, (check_paths_doc, bad, 4, 0.3, destination, SA, SB)))
    bad = copy.deepcopy(doc)
    bad[1]["total"] = "0"
    cases.append(("paths: destination total replaced by 0", True, (check_paths_doc, bad, 4, 0.3, destination, SA, SB)))

    ok = True
    for name, should_fail, (check, *args) in cases:
        failures = failures_of(check, *args)
        good = bool(failures) == should_fail
        ok &= good
        verdict = "caught" if failures else "passed"
        print(f"{'ok  ' if good else 'BAD '} {name}: {verdict}" + (f" ({failures[0]})" if failures else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
