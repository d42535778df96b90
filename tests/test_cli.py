import contextlib
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench import cli, oracle
from mixbench.amplitudes import AmplitudeForm, format_complex, format_form, parse_complex
from mixbench.cli import main
from mixbench.engine import PROCESS_A, PROCESS_B, apply_first_order, path_report
from mixbench.formulas import coherent_counts, fock_counts
from mixbench.states import (
    Mode,
    SingleParticleState,
    Statistics,
    coefficient_norm,
    coherent_initial_state,
    fock_initial_state,
    parse_term,
    render_term,
)
from helpers import b, contribution, render_path_table


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejecting the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows_typed(text):
    rows = []
    for row in csv.DictReader(io.StringIO(text)):
        rows.append(
            {
                "experiment": row["experiment"],
                "statistics": row["statistics"],
                "n1": int(row["n1"]) if row["n1"] else None,
                "n2": int(row["n2"]) if row["n2"] else None,
                "n3": int(row["n3"]) if row["n3"] else None,
                "n": int(row["n"]) if row["n"] else None,
                "epsilon": float(row["epsilon"]) if row["epsilon"] else None,
                "sA": row["sA"],
                "sB": row["sB"],
                "engine": row["engine"],
                "amplitude": float(row["amplitude"]),
            }
        )
    return rows


def test_run_boson_worked_example(capsys):
    code, out, err = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "1",
        "--format", "csv",
    )
    assert code == 0
    rows = csv_rows_typed(out)
    assert len(rows) == 3
    for row in rows:
        assert row["amplitude"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)
        assert row["sA"] == "1" and row["sB"] == "1"  # the default pair


def test_run_fermion_known_divergence_still_exits_zero(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "3", "--n2", "2", "--n3", "1",
    )
    assert code == 0
    assert "known-divergence" in out
    assert "cross-a" in out


def test_run_unexpected_mismatch_exits_one(capsys):
    # exact engines differ by a few ulps; an absurdly tight tolerance must
    # surface that as a real failure, not a known divergence
    code, out, _ = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "2", "--n2", "3", "--n3", "4",
        "--engines", "firstq,oracle",
        "--tolerance", "1e-18",
    )
    assert code == 1
    assert "fail" in out


def test_csv_and_json_serialize_the_same_records(capsys, tmp_path):
    args = (
        "run",
        "--experiment", "type2", "--statistics", "boson",
        "--n", "2:4", "--epsilon", "0,0.2",
        "--sa", "0.3+0.1i", "--sb", "0.2",
    )
    code, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, json_text, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    assert csv_rows_typed(csv_text) == json.loads(json_text)


def test_negative_zero_epsilon_is_the_zero_point(capsys):
    args = (
        "run", "--experiment", "type2", "--statistics", "fermion", "--n", "2",
        "--epsilon=0,-0", "--engines", "closed",
    )
    code, csv_text, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    assert [row["epsilon"] for row in rows] == ["0.0", "0.0"]
    assert len({row["amplitude"] for row in rows}) == 1
    code, table, _ = run_cli(capsys, *args)
    assert code == 0
    assert table.count("n=2 eps=0 ") == 2
    assert "-0" not in csv_text + table


def test_output_is_byte_stable(capsys):
    args = (
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "1:3", "--n2", "1:2", "--n3", "0:1",
        "--format", "json",
    )
    code1, first, _ = run_cli(capsys, *args)
    code2, second, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert first == second


def test_sweep_grid_is_lexicographic(capsys):
    args = (
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1:2", "--n2", "1", "--n3", "0,2",
        "--engines", "closed",
        "--format", "csv",
    )
    code, out, _ = run_cli(capsys, "run", *args)
    assert code == 0
    points = [(r["n1"], r["n2"], r["n3"]) for r in csv_rows_typed(out)]
    assert points == [(1, 1, 0), (1, 1, 2), (2, 1, 0), (2, 1, 2)]
    # run is the one command for points and grids; sweep is no alias of it.
    code, out, err = run_cli(capsys, "sweep", *args)
    assert (code, out) == (2, "")
    assert err.startswith("usage: mixbench")
    assert "invalid choice: 'sweep'" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "result.csv"
    code, out, _ = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "0",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("experiment,statistics,")


def test_config_file_with_cli_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "experiment = type2\n"
        "statistics = fermion\n"
        "n = 3\n"
        "epsilon = 0.2\n"
        "engines = closed\n"
        "format = csv\n"
    )
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert csv_rows_typed(out)[0]["statistics"] == "fermion"

    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--statistics", "boson")
    assert code == 0
    assert csv_rows_typed(out)[0]["statistics"] == "boson"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--experiment", "type1", "--statistics", "boson", "--n1", "1", "--n2", "1"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "1", "--n", "4"),
        ("run", "--experiment", "type2", "--statistics", "boson", "--n", "3"),
        ("run", "--experiment", "type2", "--statistics", "boson", "--n", "1", "--epsilon", "0"),
        ("run", "--experiment", "type2", "--statistics", "boson", "--n", "3", "--epsilon", "1.0"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "0", "--n2", "1", "--n3", "0"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "3:1", "--n2", "1", "--n3", "0"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "x", "--n2", "1", "--n3", "0"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "--sa", "frog"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "--engines", "guess"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "--tolerance", "0"),
        ("run", "--config", "/nonexistent/path.cfg"),
        ("verify", "--nmax", "2"),
        ("verify", "--tolerance", "0"),
        ("verify", "--nmax", "9"),
        ("paths", "--experiment", "type1", "--statistics", "fermion",
         "--n1", "5", "--n2", "4", "--n3", "0", "phi v u phi phi psi psi psi psi"),
        ("paths", "--experiment", "type1", "--statistics", "fermion",
         "--n1", "1", "--n2", "1", "--n3", "0", "v(1) v(1)"),
        ("paths", "--experiment", "type1", "--statistics", "fermion",
         "--n1", "1", "--n2", "1", "--n3", "0", "v(1) v"),
        ("paths", "--experiment", "type1", "--statistics", "fermion",
         "--n1", "2", "--n2", "1", "--n3", "0", "v(1) u u"),
        ("verify", "--nmax", "x"),
        ("verify", "--tolerance", "abc"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "2", "--n2", "2", "--n3", "1", "--tolerance", "nan"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "2", "--n2", "2", "--n3", "1", "--tolerance", "inf"),
        ("verify", "--nmax", "3", "--tolerance", "nan"),
        ("verify", "--nmax", "3", "--tolerance", "inf"),
        ("paths", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "v u", "--format", "csv"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "--out", "/nonexistent/dir/x"),
        ("paths", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "v u", "--out", "/nonexistent/dir/x"),
        ("verify", "--nmax", "3", "--out", "/nonexistent/dir/x"),
        ("paths", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "v u", "--engines", "closed"),
        ("paths", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "v(1) u"),
        ("paths", "--experiment", "type1", "--statistics", "fermion",
         "--n1", "2", "--n2", "1", "--n3", "0", "phi(2) v u"),
        ("run", "--experiment", "type1", "--statistics", "boson",
         "--n1", "1", "--n2", "1", "--n3", "0", "--sa", ""),
        ("verify", "--nmax", "3", "--out", ""),
    ],
)
def test_usage_errors_exit_two(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    # Our own checks print one error line; argparse prints its usage first.
    assert err.startswith(("error:", "usage: mixbench"))
    assert list(tmp_path.iterdir()) == []  # no report or listing left behind


def force_pool(monkeypatch, pooled):
    """Open or shut the pool gate for every grid, however small; open needs fork and two CPUs."""
    if pooled and (not hasattr(os, "fork") or cli._available_cpus() < 2):
        pytest.skip("a pool needs fork and two CPUs")
    monkeypatch.setattr(cli, "POOL_MIN_PATHS", -1 if pooled else math.inf)


def assert_no_child_left():
    """Every forked worker has been reaped: this process has no child, running or exited."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def log_calls(monkeypatch, name, log, detail=lambda *args, **kwargs: "call"):
    """Append the pid and ``detail`` of each call of cli.<name> to a file.

    A file, because a pool worker's calls would not reach a list of this process.
    """
    wrapped = getattr(cli, name)

    def spy(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()} {detail(*args, **kwargs)}\n")
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)


def logged_calls(log):
    """(pid, detail text) of each logged call."""
    if not log.exists():
        return []
    lines = log.read_text().splitlines()
    return [(int(pid), detail) for pid, detail in (line.split(" ", 1) for line in lines)]


def log_routes(monkeypatch, log):
    """Log each route, one engine at one point, with the pid that runs it."""
    log_calls(monkeypatch, "route_values", log, lambda point, engine, pairs: f"{point!r} {engine}")


RUN_GRID = ("run", "--experiment", "type1", "--statistics", "boson",
            "--n1", "2", "--n2", "1:2", "--n3", "1")
VERIFY_3 = ("verify", "--nmax", "3", "--out", "report.json")


@pytest.mark.parametrize(
    "argv,pooled",
    [
        pytest.param(RUN_GRID, False, id="argv0"),
        pytest.param(VERIFY_3, False, id="argv1"),
        pytest.param(
            ("paths", "--experiment", "type2", "--statistics", "fermion",
             "--n", "3", "--epsilon", "0.2", "phi v u"),
            False,
            id="argv2",
        ),
        pytest.param(RUN_GRID, True, id="run-pooled"),
        pytest.param(VERIFY_3, True, id="verify-pooled"),
    ],
)
def test_each_command_scatters_in_the_process_its_grid_runs_in(
    capsys, monkeypatch, tmp_path, argv, pooled
):
    force_pool(monkeypatch, pooled)
    log_calls(monkeypatch, "apply_first_order", tmp_path / "scatters.log")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    calls = logged_calls(tmp_path / "scatters.log")
    if argv[0] == "paths":
        assert len(calls) == 1  # one sector scatter, whose sums the listing reads
    else:
        assert calls
    # A pooled grid scatters only in workers; a serial one only here.
    assert {pid != os.getpid() for pid, _ in calls} == {pooled}
    assert_no_child_left()


# One point whose two exact routes each walk 20,412 paths: enough for a
# worker each at the default POOL_MIN_PATHS.
SPLIT_POINT = ("run", "--experiment", "type2", "--statistics", "fermion", "--n", "7",
               "--epsilon", "0.2", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv")
POOL_CASES = [
    ("verify", "--nmax", "5", "--out", "report.json"),
    ("run", "--experiment", "type2", "--statistics", "fermion", "--n", "2:4",
     "--epsilon", "0,0.2", "--sa=0.3+0.1i", "--sb=-0.7+0.2i", "--format", "csv"),
    ("run", "--experiment", "type1", "--statistics", "boson", "--n1", "1:3", "--n2", "1:3",
     "--n3", "0:2", "--format", "csv"),
    # From (1,3,2) on most points overflow, the costliest (3,3,2) among them:
    # the pool reports the first in grid order, as the serial loop does.
    ("run", "--experiment", "type1", "--statistics", "boson", "--n1", "1:3", "--n2", "1:3",
     "--n3", "0:2", "--sa=5e153"),
    SPLIT_POINT,
]


@pytest.mark.parametrize("argv", POOL_CASES)
def test_a_pooled_grid_gives_the_serial_bytes(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    log_routes(monkeypatch, tmp_path / "points.log")
    results = []
    for pooled in (False, True):
        force_pool(monkeypatch, pooled)
        code, out, err = run_cli(capsys, *argv)
        report = (tmp_path / "report.json").read_bytes() if argv[0] == "verify" else None
        results.append((code, out, err, report))
        assert_no_child_left()
    assert results[0] == results[1]
    pids = [pid for pid, _ in logged_calls(tmp_path / "points.log")]
    assert os.getpid() in pids and set(pids) - {os.getpid()}  # it did run in workers
    if "--sa=5e153" in argv:
        assert results[0][:3] == (
            2,
            "",
            "error: --sa/--sb too large: sA=5e+153, sB=1 overflow the amplitude"
            " at n1=1 n2=3 n3=2\n",
        )


def test_a_costly_point_runs_its_exact_routes_in_two_workers(capsys, monkeypatch, tmp_path):
    if not hasattr(os, "fork") or cli._available_cpus() < 2:
        pytest.skip("a pool needs fork and two CPUs")
    for name in ("apply_first_order", "apply_fwm_operator"):
        log_calls(monkeypatch, name, tmp_path / f"{name}.log")
    code, out, _ = run_cli(capsys, *SPLIT_POINT)
    assert code == 0 and out.count("\n") == 4  # the header and one row per engine
    (scatter,), (ladder,) = (
        {pid for pid, _ in logged_calls(tmp_path / f"{name}.log")}
        for name in ("apply_first_order", "apply_fwm_operator")
    )
    assert len({scatter, ladder, os.getpid()}) == 3
    assert_no_child_left()


def test_a_pooled_grid_leaves_buffered_output_to_this_process(tmp_path):
    """Output still buffered when the workers fork is written once, not once per worker."""
    if not hasattr(os, "fork") or cli._available_cpus() < 2:
        pytest.skip("a pool needs fork and two CPUs")
    snippet = (
        "import os, resource, sys\n"
        "from mixbench import cli\n"
        "cli.POOL_MIN_PATHS = -1\n"
        "sys.stdout.write('pending ')\n"
        f"code = cli.main({[*RUN_GRID, '--out', os.devnull]!r})\n"
        "sys.stderr.write(f'forked: {resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss > 0}')\n"
        "sys.exit(code)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run([sys.executable, "-c", snippet], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "pending ", "forked: True")


def test_a_pooled_grid_runs_without_a_stdout(monkeypatch):
    """A process started with its stdout closed has sys.stdout None; the grid still forks."""
    force_pool(monkeypatch, True)
    monkeypatch.setattr(sys, "stdout", None)
    assert main([*RUN_GRID, "--out", os.devnull]) == 0
    assert_no_child_left()


def test_a_route_that_raises_in_a_worker_is_raised_here_in_grid_order(capsys, monkeypatch, tmp_path):
    """Every route but firstq raises; the first to do so in grid order is the one raised.

    It raises late, so that a later route's failure in another worker is
    written first.
    """
    wrapped = cli.route_values

    def spy(point, engine, pairs):
        if engine == "firstq":
            return wrapped(point, engine, pairs)
        with open(tmp_path / "raised.log", "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        if point.n2 == 1:
            time.sleep(0.2)
        raise LookupError(f"{engine} at {point.text()}")

    monkeypatch.setattr(cli, "route_values", spy)
    for pooled in (False, True):
        force_pool(monkeypatch, pooled)
        (tmp_path / "raised.log").unlink(missing_ok=True)
        with pytest.raises(LookupError, match=r"^oracle at n1=2 n2=1 n3=1$"):
            run_cli(capsys, *RUN_GRID)
        raised_in = {int(pid) for pid in (tmp_path / "raised.log").read_text().split()}
        assert (os.getpid() not in raised_in) == pooled
        assert_no_child_left()


def test_a_worker_that_exits_without_its_values_is_an_error_not_a_hang(capsys, monkeypatch):
    force_pool(monkeypatch, True)
    parent = os.getpid()
    wrapped = cli.route_values

    def spy(point, engine, pairs):
        if os.getpid() != parent and engine == "oracle":
            os._exit(3)
        return wrapped(point, engine, pairs)

    monkeypatch.setattr(cli, "route_values", spy)
    with pytest.raises(RuntimeError, match=r"^a worker exited without the oracle values at n1=2 n2=1 n3=1$"):
        main(list(RUN_GRID))
    assert_no_child_left()


class TwoArgumentError(Exception):
    """Pickle rebuilds it from its one joined argument, but it takes two."""

    def __init__(self, route, detail):
        super().__init__(f"{route}: {detail}")


@pytest.mark.parametrize(
    "make,sent_back",
    [
        pytest.param(ValueError, True, id="value-error"),
        pytest.param(lambda text: TwoArgumentError(text, "rebuilt"), False, id="two-arguments"),
        pytest.param(lambda text: LookupError(text, lambda: None), False, id="holds-a-lambda"),
    ],
)
def test_a_worker_exception_is_raised_here_with_the_worker_traceback(monkeypatch, make, sent_back):
    """What a worker's route raises comes back with its traceback as the cause.

    An exception that cannot make the trip, because pickle cannot write it
    or cannot rebuild it, becomes a RuntimeError that names the route.
    """
    force_pool(monkeypatch, True)
    wrapped = cli.route_values

    def spy(point, engine, pairs):
        if engine == "oracle" and point.n2 == 1:
            raise make(f"oracle at {point.text()}")
        return wrapped(point, engine, pairs)

    monkeypatch.setattr(cli, "route_values", spy)
    with pytest.raises(Exception) as raised:
        main(list(RUN_GRID))
    assert_no_child_left()
    if sent_back:
        assert type(raised.value) is ValueError
        assert str(raised.value) == "oracle at n1=2 n2=1 n3=1"
    else:
        assert type(raised.value) is RuntimeError
        assert str(raised.value) == (
            "the oracle route at n1=2 n2=1 n3=1 raised in a worker"
            " an exception that cannot be sent back"
        )
    cause = raised.value.__cause__
    assert isinstance(cause, cli.WorkerTraceback)
    trace = str(cause)
    assert trace.startswith("Traceback (most recent call last):\n")
    assert ", in spy\n" in trace and "raise make(" in trace
    assert "oracle at n1=2 n2=1 n3=1" in trace.splitlines()[-1]


def test_closing_the_routes_after_the_first_value_reaps_every_worker(monkeypatch):
    force_pool(monkeypatch, True)
    points = [cli.FockPoint(2, n2, 1, Statistics.BOSON) for n2 in (1, 2)]
    routes = [(point, engine) for point in points for engine in cli.ALL_ENGINES]
    pairs = ((1 + 0j, 1 + 0j),)
    first = cli.route_values(*routes[0], pairs)
    wrapped = cli.route_values

    def spy(point, engine, pairs):
        if (point, engine) != routes[0]:
            time.sleep(60)  # still running when the generator is closed
        return wrapped(point, engine, pairs)

    monkeypatch.setattr(cli, "route_values", spy)
    per_route = cli._map_routes(routes, pairs)
    assert next(per_route) == first
    start = time.monotonic()
    per_route.close()
    assert time.monotonic() - start < 30  # killed, not waited for
    assert_no_child_left()


def test_one_cpu_runs_the_grid_in_this_process(capsys, monkeypatch, tmp_path):
    force_pool(monkeypatch, True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    log_routes(monkeypatch, tmp_path / "points.log")
    code, _, _ = run_cli(capsys, *RUN_GRID)
    assert code == 0
    assert {pid for pid, _ in logged_calls(tmp_path / "points.log")} == {os.getpid()}


def test_without_an_affinity_mask_the_cpu_count_sizes_the_pool(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._available_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._available_cpus() == 1


def attempted_paths(point, engine):
    """The paths ``engine`` attempts at the point, counted on the input it builds.

    Each term or fermion key tries both processes on every (phi slot, psi
    slot) pair; the boson oracle takes one merged vertex per occupation
    vector with a phi and a psi.
    """

    def per_pair(terms):
        total = 0
        for term in terms:
            modes = [slot.mode for slot in term]
            total += 2 * modes.count(Mode.PHI) * modes.count(Mode.PSI)
        return total

    if engine == "firstq":
        return per_pair(point.first_quantized().terms)
    keys = point.occupation().terms
    if point.statistics is Statistics.FERMION:
        return per_pair(keys)
    return sum(1 for n_phi, n_psi, _, _ in keys if n_phi and n_psi)


def small_points():
    """Every type1 point with n <= 7 and type2 with n <= 7 at eps 0, 0.2 and 0.5, and (2,3,4)."""
    for statistics in Statistics:
        for n1 in range(1, 7):
            for n2 in range(1, 8 - n1):
                for n3 in range(8 - n1 - n2):
                    yield cli.FockPoint(n1, n2, n3, statistics)
        yield cli.FockPoint(2, 3, 4, statistics)
        for n in range(2, 8):
            for epsilon in (0.0, 0.2, 0.5):
                yield cli.CoherentPoint(n, epsilon, statistics)


@pytest.mark.parametrize(
    "point", small_points(), ids=lambda p: f"{p.statistics.value} {p.experiment} {p.text()}"
)
def test_point_paths_count_what_the_scatter_attempts(point):
    for engine in ("firstq", "oracle"):
        assert point.paths(engine) == attempted_paths(point, engine)
    assert point.paths("closed") == 0


def sector_loop_paths(point, engine):
    """The per-sector sum that once predicted a type2 point's paths, kept as the reference."""
    n, epsilon, statistics = point
    per_term = engine == "firstq" or statistics is Statistics.FERMION
    paths = 0
    for m in range(1, n):
        for k in range(1, n - m + 1):
            counts = coherent_counts(n, m, k, epsilon)
            if counts.group_amplitude != 0:  # epsilon = 0 keeps only m + k = n
                paths += 2 * counts.process_terms if per_term else 1
    return paths


def test_point_paths_are_the_counting_functions_closed():
    for statistics in Statistics:
        for n in range(2, 31):
            for epsilon in (0.0, 0.1, 0.2, 1 / 3, 0.5, 0.9):
                point = cli.CoherentPoint(n, epsilon, statistics)
                for engine in ("firstq", "oracle"):
                    assert point.paths(engine) == sector_loop_paths(point, engine), (point, engine)
        for n1 in range(1, 8):
            for n2 in range(1, 8):
                for n3 in range(6):
                    point = cli.FockPoint(n1, n2, n3, statistics)
                    if statistics is Statistics.BOSON:
                        assert point.paths("firstq") == 2 * fock_counts(n1, n2, n3).process_terms


SIGNED_ZERO_PAIRS = [
    (complex(-0.0, 0.0), complex(0.0, -0.0)),
    (complex(1.0, -0.0), complex(-0.0, -0.0)),
    (0.3 + 0.1j, complex(-0.0, 0.2)),
    (1 + 0j, -1 + 0j),
]


@pytest.mark.parametrize(
    "point",
    [
        pytest.param(cli.FockPoint(2, 3, 1, Statistics.BOSON), id="Statistics.BOSON-point0"),
        pytest.param(cli.FockPoint(3, 2, 1, Statistics.FERMION), id="Statistics.FERMION-point1"),
        pytest.param(cli.CoherentPoint(4, 0.2, Statistics.BOSON), id="Statistics.BOSON-point2"),
        pytest.param(cli.CoherentPoint(4, 0.2, Statistics.FERMION), id="Statistics.FERMION-point3"),
    ],
)
def test_firstq_evaluator_is_state_norm_and_keeps_only_pairs(monkeypatch, point):
    results = []
    scatter = cli.apply_first_order

    def spy(state, **kwargs):
        result = scatter(state, **kwargs)
        results.append(weakref.ref(result))
        return result

    monkeypatch.setattr(cli, "apply_first_order", spy)
    firstq = cli.engine_evaluator(point, "firstq")
    gc.collect()
    assert [ref() for ref in results] == [None]  # the result, its state and sums are gone
    (pairs,) = firstq.args  # what the evaluator keeps: (ca, cb) pairs, no terms or forms
    assert all(type(ca) is complex and type(cb) is complex for ca, cb in pairs)
    final = scatter(point.first_quantized()).final_state
    final_pairs = [(form.ca, form.cb) for form in final.terms.values()]
    for sa, sb in SIGNED_ZERO_PAIRS:
        assert firstq(sa, sb) == coefficient_norm(final_pairs, sa, sb)


def test_main_builds_its_parser_once(capsys):
    good = ("run", "--experiment", "type1", "--statistics", "boson",
            "--n1", "2", "--n2", "1", "--n3", "1", "--format", "csv")
    expected = run_cli(capsys, *good)  # builds the parser
    gc.collect()
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)  # keep what a collection finds unreachable
    try:
        assert run_cli(capsys, *good) == expected
        assert run_cli(capsys, *good) == expected
        gc.collect()
        dropped = [obj for obj in gc.garbage if type(obj).__module__ == "argparse"]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert dropped == []
    assert cli.make_parser() is cli.make_parser()
    # A usage error leaves the shared parser as it was.
    code, out, err = run_cli(capsys, "run", "--experiment", "type3")
    assert (code, out) == (2, "") and err.startswith("usage: mixbench")
    assert run_cli(capsys, *good) == expected


def test_one_config_file_serves_run_and_paths(capsys, tmp_path):
    point = "experiment = type1\nstatistics = boson\nn1 = 2\nn2 = 1\nn3 = 1\n"
    plain, shared = tmp_path / "plain.cfg", tmp_path / "shared.cfg"
    plain.write_text(point)
    shared.write_text(point + "engines = closed\ntolerance = 1e-6\n")
    run = run_cli(capsys, "run", "--config", str(shared))
    assert run == run_cli(
        capsys, "run", "--config", str(plain), "--engines", "closed", "--tolerance", "1e-6"
    )
    assert run[0] == 0 and "firstq" not in run[1]
    expected = run_cli(capsys, "paths", "--config", str(plain), "phi v v u")
    assert expected[0] == 0 and "paths: 4" in expected[1]
    assert run_cli(capsys, "paths", "--config", str(shared), "phi v v u") == expected
    # paths neither parses nor checks the two keys: values run rejects are ignored too.
    shared.write_text(point + "engines = guess\ntolerance = nan\n")
    assert run_cli(capsys, "paths", "--config", str(shared), "phi v v u") == expected


def test_paths_rejects_csv_format(capsys):
    code, out, err = run_cli(
        capsys, "paths", "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "0", "v u", "--format", "csv",
    )
    assert (code, out) == (2, "")
    assert err == "error: paths --format must be table or json\n"


def test_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment = type1\nmystery = 4\n")
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "mystery" in err


def test_one_config_file_serves_run_and_verify(capsys, tmp_path):
    cfg = tmp_path / "shared.cfg"
    cfg.write_text(
        "experiment = type1\n"
        "statistics = boson\n"
        "n1 = 2\n"
        "n2 = 1\n"
        "n3 = 1\n"
        "format = csv\n"
        "nmax = 3\n"
    )
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, err) == (0, "")
    assert {(row["n1"], row["n2"], row["n3"]) for row in csv_rows_typed(out)} == {(2, 1, 1)}

    report_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--out", str(report_path))
    assert (code, err) == (0, "")
    assert json.loads(report_path.read_text())["nmax"] == 3


def test_verify_rejects_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 7\nn1 = 5\n")
    code, out, err = run_cli(
        capsys, "verify", "--config", str(cfg), "--out", str(tmp_path / "report.json")
    )
    assert code == 2
    assert out == ""
    assert "unknown config keys: bogus" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    ("line", "message"),
    [("sa =", "empty complex literal"), ("format =", "--format must be table, csv or json")],
    ids=["sa", "format"],
)
def test_run_rejects_an_empty_config_value(capsys, tmp_path, line, message):
    # An empty value is malformed; only a setting left out reads its default.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = type1\nstatistics = boson\nn1 = 1\nn2 = 1\nn3 = 0\n" + line)
    assert run_cli(capsys, "run", "--config", str(cfg)) == (2, "", f"error: {message}\n")


def test_verify_refuses_an_unwritable_out_before_computing(capsys, tmp_path, monkeypatch):
    def grid(*args):
        raise AssertionError("verify computed its grid before opening --out")

    monkeypatch.setattr(cli, "verify_records", grid)
    out = tmp_path / "missing" / "report.json"
    code, stdout, err = run_cli(capsys, "verify", "--nmax", "3", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == f"error: cannot write {out}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_nmax_above_its_grids(capsys, tmp_path):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("nmax = 9\n")
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert "at most 8" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    ("line", "message"),
    [
        ("nmax = x", "--nmax expects an integer, got 'x'"),
        ("tolerance = abc", "--tolerance expects a real number, got 'abc'"),
        ("tolerance = nan", "--tolerance must be finite, got 'nan'"),
        ("tolerance = inf", "--tolerance must be finite, got 'inf'"),
    ],
    ids=["nmax", "tolerance", "tolerance-nan", "tolerance-inf"],
)
def test_verify_rejects_malformed_config_values(capsys, tmp_path, line, message):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text(line + "\n")
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "verify", "--config", str(cfg), "--out", str(out_path))
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


def test_fermion_cap_blocks_explicit_firstq(capsys):
    code, _, err = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "5", "--n2", "4", "--n3", "1",
        "--engines", "firstq",
    )
    assert code == 2
    assert "capped at n = 8" in err
    assert "MIXBENCH_NMAX_CAP" in err


def test_fermion_cap_drops_firstq_from_defaults(capsys):
    code, out, _ = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "5", "--n2", "4", "--n3", "1",
        "--format", "csv",
    )
    assert code == 0
    engines = {row["engine"] for row in csv_rows_typed(out)}
    assert engines == {"oracle", "closed"}


def test_cap_override_via_environment(capsys, monkeypatch):
    monkeypatch.setenv("MIXBENCH_NMAX_CAP", "10")
    code, out, _ = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "5", "--n2", "4", "--n3", "1",
        "--engines", "firstq,oracle",
        "--format", "csv",
    )
    assert code == 0
    rows = csv_rows_typed(out)
    values = {row["engine"]: row["amplitude"] for row in rows}
    assert values["firstq"] == pytest.approx(values["oracle"], abs=1e-10)

    monkeypatch.setenv("MIXBENCH_NMAX_CAP", "5")
    code, _, err = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "2", "--n2", "2", "--n3", "2",
        "--engines", "firstq",
    )
    assert code == 2
    assert "capped at n = 5" in err


@pytest.mark.parametrize("pooled", [False, True])
def test_a_grid_reports_its_first_refusal_in_grid_order(capsys, monkeypatch, pooled):
    """The capped last point is refused only if the points before it raise nothing."""
    force_pool(monkeypatch, pooled)
    monkeypatch.setenv("MIXBENCH_NMAX_CAP", "5")
    grid = ("run", "--experiment", "type1", "--statistics", "fermion",
            "--n1", "2", "--n2", "2", "--n3", "0:2", "--engines", "firstq")
    code, out, err = run_cli(capsys, *grid, "--sa=5e154")
    assert (code, out) == (2, "")
    assert err == (
        "error: --sa/--sb too large: sA=5e+154, sB=1 overflow the amplitude at n1=2 n2=2 n3=0\n"
    )
    code, out, err = run_cli(capsys, *grid)
    assert (code, out) == (2, "")
    assert err.startswith("error: first-quantized fermion engine capped at n = 5")


def test_invalid_cap_environment_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("MIXBENCH_NMAX_CAP", "many")
    code, _, err = run_cli(
        capsys,
        "run",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "0",
    )
    assert code == 2
    assert "MIXBENCH_NMAX_CAP" in err


BOSON_221 = ("--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
             "--n3", "1")


@pytest.mark.parametrize("engines", [(), ("--engines", "oracle")])
@pytest.mark.parametrize("pair", [("--sa=1e308", "--sb=1e308"), ("--sa=1e154",)])
def test_run_refuses_an_amplitude_that_overflows(capsys, engines, pair):
    # Once an OverflowError traceback with exit 1, or, from the oracle
    # alone, an amplitude of nan with status pass.
    code, out, err = run_cli(capsys, "run", *BOSON_221, *pair, *engines)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --sa/--sb too large: sA=1e+")
    assert err.endswith(" overflow the amplitude at n1=2 n2=2 n3=1\n")
    assert err.count("\n") == 1


def test_paths_refuses_a_total_that_overflows(capsys):
    code, out, err = run_cli(
        capsys, "paths", "--experiment", "type1", "--statistics", "fermion",
        "--n1", "1", "--n2", "1", "--n3", "0", "--sa=1e308", "--sb=-1e308", "v(1) u(1)",
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: --sa/--sb too large: sA=1e+308, sB=-1e+308 overflow the amplitude"
        " at n1=1 n2=1 n3=0\n"
    )


@pytest.mark.parametrize("engines", [(), ("--engines", "oracle")])
def test_run_keeps_large_finite_amplitudes(capsys, engines):
    code, out, _ = run_cli(
        capsys, "run", *BOSON_221, "--sa=1e100", "--sb=1e100", "--format", "csv", *engines
    )
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == (1 if engines else 3)
    for row in rows:
        assert row.startswith("type1,boson,2,2,1,5,,1e+100,1e+100,")
        assert row.endswith(",5.656854249492381e+100")


def csv_amplitudes(out):
    return {row["engine"]: float(row["amplitude"]) for row in csv.DictReader(io.StringIO(out))}


@pytest.mark.parametrize(
    "flags,sa,sb",
    [
        (("--experiment", "type1", "--statistics", "boson", "--n1", "1", "--n2", "1",
          "--n3", "0"), 1e-200, 1e-200),
        (("--experiment", "type2", "--statistics", "fermion", "--n", "4", "--epsilon", "0.2"),
         1e-160, 3e-160),
        (("--experiment", "type2", "--statistics", "boson", "--n", "4", "--epsilon", "0.2"),
         1e-170, -2e-170),
    ],
)
def test_run_keeps_tiny_amplitudes_exact(capsys, flags, sa, sb):
    """A norm whose squares underflow is not read as a Pauli zero, nor loses digits."""
    code, out, _ = run_cli(capsys, "run", *flags, f"--sa={sa!r}", f"--sb={sb!r}", "--format", "csv")
    assert code == 0
    tiny = csv_amplitudes(out)
    code, out, _ = run_cli(capsys, "run", *flags, f"--sa={sa / sa!r}", f"--sb={sb / sa!r}",
                           "--format", "csv")
    unit = csv_amplitudes(out)
    for engine in ("firstq", "oracle"):
        assert tiny[engine] > 0.0
        assert tiny[engine] == pytest.approx(tiny["closed"], rel=1e-14, abs=0.0)
        assert tiny[engine] == pytest.approx(unit[engine] * sa, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n1,n2,n3,sb", [("1", "1", "0", "1e-200"), ("2", "2", "2", "3e-200")])
def test_run_keeps_tiny_pauli_zeros_exact(capsys, n1, n2, n3, sb):
    code, out, _ = run_cli(
        capsys, "run", "--experiment", "type1", "--statistics", "fermion",
        "--n1", n1, "--n2", n2, "--n3", n3, "--sa=1e-200", f"--sb={sb}", "--format", "csv",
    )
    assert code == 0
    values = csv_amplitudes(out)
    assert values["firstq"] == values["oracle"] == 0.0


@pytest.mark.parametrize(
    "point",
    [
        cli.FockPoint(3, 2, 1, Statistics.FERMION),
        cli.CoherentPoint(4, 0.2, Statistics.FERMION),
        cli.FockPoint(3, 2, 1, Statistics.BOSON),
        cli.CoherentPoint(4, 0.2, Statistics.BOSON),
    ],
)
def test_each_route_builds_only_its_own_input(monkeypatch, point):
    builders = {
        cli: ("fock_initial_state", "coherent_initial_state",
              "fock_occupation_state", "coherent_occupation_state"),
        oracle: ("fock_initial_state", "coherent_initial_state"),
    }
    builds = []
    for module, names in builders.items():
        for name in names:
            def counted(*args, build=getattr(module, name), name=name):
                builds.append((name, args))
                return build(*args)

            monkeypatch.setattr(module, name, counted)
    kind = "fock" if point.experiment == "type1" else "coherent"
    # The fermion oracle reads the Slater keys of the first-quantized input.
    oracle_input = [f"{kind}_occupation_state"]
    if point.statistics is Statistics.FERMION:
        oracle_input.append(f"{kind}_initial_state")
    expected = {"firstq": [f"{kind}_initial_state"], "oracle": oracle_input, "closed": []}
    values = {}
    for engine in cli.ALL_ENGINES:
        builds.clear()
        (values[engine],) = cli.route_values(point, engine, ((1, 1),))
        assert [name for name, _ in builds] == expected[engine]
        assert all(args == tuple(point) for _, args in builds)  # a point is its builder's arguments
    assert values["oracle"] == pytest.approx(values["firstq"], abs=1e-12)


ROUTE_GRIDS = [
    ("verify", "--nmax", "5", "--out", "report.json"),
    ("run", "--experiment", "type2", "--statistics", "fermion", "--n", "2:7",
     "--epsilon", "0,0.2", "--format", "csv"),
]


@pytest.mark.parametrize("argv", ROUTE_GRIDS, ids=["verify", "type2-fermion"])
def test_a_pooled_grid_runs_each_route_once(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    log = tmp_path / "routes.log"
    log_routes(monkeypatch, log)
    runs = []
    for pooled in (False, True):
        force_pool(monkeypatch, pooled)
        before = len(logged_calls(log))
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        runs.append(logged_calls(log)[before:])
    serial, pooled = runs
    routes = [route for _, route in serial]
    assert len(set(routes)) == len(routes)  # the serial loop runs each (point, engine) once
    assert sorted(route for _, route in pooled) == sorted(routes)
    assert {pid for pid, _ in serial} == {os.getpid()}
    assert os.getpid() not in {pid for pid, _ in pooled}
    assert_no_child_left()


def test_an_engine_named_twice_runs_once(capsys, monkeypatch, tmp_path):
    point = ("run", "--experiment", "type2", "--statistics", "fermion", "--n", "4",
             "--epsilon", "0.2", "--format", "csv")
    force_pool(monkeypatch, False)
    _, once, _ = run_cli(capsys, *point, "--engines", "firstq,oracle,closed")
    log_routes(monkeypatch, tmp_path / "routes.log")
    code, out, _ = run_cli(capsys, *point, "--engines", "firstq, oracle,firstq,closed,oracle")
    assert (code, out) == (0, once)
    engines = [route.rsplit(" ", 1)[1] for _, route in logged_calls(tmp_path / "routes.log")]
    assert engines == ["firstq", "oracle", "closed"]


def test_paths_builds_only_the_source_sector(monkeypatch, capsys):
    # The paths_provenance point: 560 of the 6,561 input terms can reach the destination.
    sizes = []

    def counted(*args, build=cli.coherent_initial_state, **kwargs):
        state = build(*args, **kwargs)
        sizes.append(len(state.terms))
        return state

    monkeypatch.setattr(cli, "coherent_initial_state", counted)
    point = ("--experiment", "type2", "--statistics", "fermion", "--n", "8", "--epsilon", "0.2")
    code, out, _ = run_cli(capsys, "paths", *point, "phi phi psi psi v v v u")
    assert code == 0
    assert sizes == [560]
    assert out.endswith("matched destinations: 1680, paths: 10080\n")
    # With no u slot the source sector is empty, and the listing stays.
    code, out, _ = run_cli(capsys, "paths", *point, "phi phi psi psi v v v v")
    assert code == 0
    assert sizes == [560, 0]
    assert out == "destination: phi phi psi psi v v v v\npaths: 0\ntotal: 0 = 0 at sa=1, sb=1\n"


def test_paths_builds_nothing_for_an_unreachable_fock_destination(monkeypatch, capsys):
    # A type1 input is the one sector (n1, n2, n3, 0); all-v slots need (1, 1, 13, -1).
    builds = []
    monkeypatch.setattr(cli, "fock_initial_state", lambda *args: builds.append(args))
    destination = " ".join(["v"] * 14)
    code, out, err = run_cli(
        capsys, "paths", "--experiment", "type1", "--statistics", "boson",
        "--n1", "5", "--n2", "5", "--n3", "4", destination,
    )
    assert (code, err, builds) == (0, "", [])
    assert out == f"destination: {destination}\npaths: 0\ntotal: 0 = 0 at sa=1, sb=1\n"


def test_paths_refuses_a_partly_labelled_fermion_destination(capsys):
    for destination in ("phi(2) v u", "v(1) v(2) u"):
        code, out, err = run_cli(
            capsys, "paths", "--experiment", "type1", "--statistics", "fermion",
            "--n1", "2", "--n2", "1", "--n3", "0", destination,
        )
        assert (code, out) == (2, "")
        assert err == "error: fermion destination must label every slot with q, or none\n"


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize(
    "flags,destination",
    [
        pytest.param(
            ["--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
             "--n3", "1"],
            "psi phi v u v",
            id="boson",
        ),
        pytest.param(
            ["--experiment", "type1", "--statistics", "fermion", "--n1", "3", "--n2", "2",
             "--n3", "1"],
            "v(3) phi(2) phi(1) psi(2) v(1) u(1)",
            id="fermion-labelled",
        ),
        pytest.param(
            ["--experiment", "type2", "--statistics", "fermion", "--n", "5", "--epsilon", "0.2"],
            "phi psi v v u",
            id="fermion-sector",
        ),
    ],
)
def test_paths_builds_no_amplitude_form(monkeypatch, capsys, flags, destination, fmt):
    def refuse(form, *args, **kwargs):
        raise AssertionError("paths built an AmplitudeForm")

    monkeypatch.setattr(AmplitudeForm, "__init__", refuse)
    code, out, err = run_cli(
        capsys, "paths", *flags, "--sa=0.3-0.1i", destination, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert "*sa" in out


def test_paths_boson_worked_example(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "1",
        "v v u",
    )
    assert code == 0
    assert "paths: 4" in out
    assert "0.8164965809277261*sa + 0.8164965809277261*sb" in out


def test_paths_json_structure(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "1",
        "--format", "json",
        "v v u",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc) == 1
    entry = doc[0]
    assert entry["destination"] == "v v u"
    assert len(entry["paths"]) == 4
    assert {p["process"] for p in entry["paths"]} == {"A", "B"}
    assert entry["value"] == "1.6329931618554523"


def test_paths_fermion_fully_blocked(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "1", "--n2", "1", "--n3", "1",
        "v v u",
    )
    assert code == 0
    assert "paths: 0" in out
    assert "total: 0" in out


def test_paths_fermion_aggregates_unlabeled_destination(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "fermion",
        "--n1", "2", "--n2", "1", "--n3", "0",
        "phi v u",
    )
    assert code == 0
    # three labelled destinations share the phi v u mode signature
    assert "matched destinations: 3" in out
    assert "phi(1) v(2) u(1)" in out


def test_paths_coherent_two_path_case(capsys):
    code, out, _ = run_cli(
        capsys,
        "paths",
        "--experiment", "type2", "--statistics", "boson",
        "--n", "3", "--epsilon", "0",
        "v u phi",
    )
    assert code == 0
    assert "paths: 2" in out


def test_paths_rejects_grids_and_bad_destinations(capsys):
    code, _, err = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1:2", "--n2", "1", "--n3", "0",
        "v u",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "0",
        "v w",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys,
        "paths",
        "--experiment", "type1", "--statistics", "boson",
        "--n1", "1", "--n2", "1", "--n3", "0",
        "v u u",
    )
    assert code == 2
    assert "slots" in err


def test_verify_writes_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(capsys, "verify", "--nmax", "3")
    assert code == 0
    assert "0 fail" in out
    report = json.loads((tmp_path / "mixbench_verify.json").read_text())
    assert report["nmax"] == 3
    assert report["counts"]["fail"] == 0
    assert report["counts"]["known_divergence"] > 0
    total = sum(report["counts"].values())
    assert total == len(report["records"])
    statuses = {r["status"] for r in report["records"]}
    assert statuses <= {"pass", "known-divergence"}
    # identity records ride along with the grid records
    kinds = {r["experiment"] for r in report["records"]}
    assert kinds == {"type1", "type2", "identity"}


def test_verify_report_is_deterministic(capsys, tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    code1, _, _ = run_cli(capsys, "verify", "--nmax", "3", "--out", str(first))
    code2, _, _ = run_cli(capsys, "verify", "--nmax", "3", "--out", str(second))
    assert code1 == code2 == 0
    assert first.read_bytes() == second.read_bytes()


# -- the paths JSON listing against json.dumps of reference dicts --------------


def path_to_dict(path):
    """Reference: one path record as the JSON listing holds it."""
    # The contribution is the value in the process's component, 0 elsewhere.
    value = format_complex(path.value)
    ca, cb = (value, "0") if path.process == PROCESS_A else ("0", value)
    return {
        "source": render_term(path.source_term),
        "process": path.process,
        "phi_slot": path.phi_slot,
        "psi_slot": path.psi_slot,
        "sign": path.sign,
        "contribution": {"c0": "0", "ca": ca, "cb": cb},
        "destination": render_term(path.destination_term),
    }


def test_path_records_carry_provenance():
    result = apply_first_order(fock_initial_state(1, 1, 0, Statistics.BOSON))
    v_u = b(Mode.V, Mode.U)
    paths, _ = path_report(result, v_u)[v_u]
    assert len(paths) == 2
    by_process = {p.process: p for p in paths}
    a = by_process[PROCESS_A]
    assert a.source_term == b(Mode.PHI, Mode.PSI)
    assert (a.phi_slot, a.psi_slot) == (0, 1)
    assert a.sign == 1
    # A path's value lands in ca for process A and in cb for process B.
    w = 1 / math.sqrt(2)
    assert {p.process: contribution(p) for p in paths} == {
        PROCESS_A: (pytest.approx(w), 0j),
        PROCESS_B: (0j, pytest.approx(w)),
    }
    d = path_to_dict(a)
    assert d["process"] == "A"
    assert d["destination"] == "v u"
    table = render_path_table(paths)
    assert "phi psi" in table and "A" in table


def reference_listing(state, destination, sa, sb, fmt):
    """The listing of the whole state's scatter, built from ``path_report``'s PathRecords.

    Totals and values come from the final state's forms, and JSON from the
    indenting encoder, so none of it shares the CLI's rendering.
    """
    result = apply_first_order(state)
    forms = result.final_state.terms
    entries = []
    for dest, (paths, _) in path_report(result, parse_term(destination)).items():
        form = forms.get(dest)
        value = 0j if form is None else form.ca * parse_complex(sa) + form.cb * parse_complex(sb)
        total = "0" if form is None else format_form(form.ca, form.cb)
        entries.append((dest, paths, total, value))
    if fmt == "json":
        doc = [
            {
                "destination": render_term(dest),
                "paths": [path_to_dict(p) for p in paths],
                "total": total,
                "value": format_complex(value),
            }
            for dest, paths, total, value in entries
        ]
        return json.dumps(doc, indent=2) + "\n"
    at = f" at sa={format_complex(parse_complex(sa))}, sb={format_complex(parse_complex(sb))}"
    gap = "" if len(entries) == 1 else "\n"
    blocks = [
        f"destination: {render_term(dest)}\n"
        + (render_path_table(paths) + "\n" if paths else "")
        + f"paths: {len(paths)}\ntotal: {total} = {format_complex(value)}{at}\n{gap}"
        for dest, paths, total, value in entries
    ]
    if gap:
        count = sum(len(paths) for _, paths, _, _ in entries)
        blocks.append(f"matched destinations: {len(entries)}, paths: {count}\n")
    return "".join(blocks)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize(
    "state,flags,destination",
    [
        pytest.param(
            fock_initial_state(2, 2, 1, Statistics.BOSON),
            ["--experiment", "type1", "--statistics", "boson", "--n1", "2", "--n2", "2",
             "--n3", "1"],
            "psi phi v u v",
            id="boson-type1",
        ),
        pytest.param(
            fock_initial_state(3, 2, 1, Statistics.FERMION),
            ["--experiment", "type1", "--statistics", "fermion", "--n1", "3", "--n2", "2",
             "--n3", "1"],
            "v(3) phi(2) phi(1) psi(2) v(1) u(1)",
            id="fermion-labelled",
        ),
        pytest.param(
            fock_initial_state(1, 1, 1, Statistics.FERMION),
            ["--experiment", "type1", "--statistics", "fermion", "--n1", "1", "--n2", "1",
             "--n3", "1"],
            "v v u",
            id="fermion-blocked",
        ),
        pytest.param(
            coherent_initial_state(5, 0.2, Statistics.FERMION),
            ["--experiment", "type2", "--statistics", "fermion", "--n", "5", "--epsilon", "0.2"],
            "phi psi v v u",
            id="fermion-sector",
        ),
    ],
)
def test_paths_listing_is_the_reference(capsys, state, flags, destination, fmt):
    sa, sb = "0.3-0.1i", "-0.7+0.2i"
    code, out, err = run_cli(
        capsys, "paths", *flags, f"--sa={sa}", f"--sb={sb}", destination, "--format", fmt
    )
    assert (code, err) == (0, "")
    assert out == reference_listing(state, destination, sa, sb, fmt)


@st.composite
def listing_queries(draw):
    """A point of either experiment and statistics, its CLI flags and one destination.

    The destination is one the scatter reaches, that term with its slots
    scrambled, an unlabelled sector, or a random term, which may be
    unreachable or Pauli blocked or carry a q past every label of the point.
    """
    statistics = draw(st.sampled_from(list(Statistics)))
    if draw(st.booleans()):
        n1, n2, n3 = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
        state = fock_initial_state(n1, n2, n3, statistics)
        flags = ["--experiment", "type1", "--n1", str(n1), "--n2", str(n2), "--n3", str(n3)]
    else:
        n, epsilon = draw(st.integers(2, 5)), draw(st.sampled_from(["0", "0.2", "0.5"]))
        state = coherent_initial_state(n, float(epsilon), statistics)
        flags = ["--experiment", "type2", "--n", str(n), "--epsilon", epsilon]
    fermion = statistics is Statistics.FERMION
    reached = list(apply_first_order(state).final_state.terms)
    kind = draw(st.sampled_from(["reached", "scrambled", "unlabelled", "random"]))
    if kind in ("reached", "scrambled") and reached:
        destination = draw(st.sampled_from(reached))
        if kind == "scrambled":
            destination = tuple(draw(st.permutations(destination)))
    elif kind == "unlabelled":
        destination = b(*draw(st.lists(st.sampled_from(list(Mode)), min_size=state.n,
                                       max_size=state.n)))
    else:
        slot = st.tuples(st.sampled_from(list(Mode)),
                         st.integers(1, state.n + 1) if fermion else st.none())
        destination = draw(st.lists(slot, min_size=state.n, max_size=state.n,
                                    unique=fermion))
        destination = tuple(SingleParticleState(mode, q) for mode, q in destination)
    sa, sb = draw(st.sampled_from([("1", "1"), ("1", "-1"), ("0.3-0.1i", "-0.7+0.2i")]))
    argv = ["paths", "--statistics", statistics.value, *flags, f"--sa={sa}", f"--sb={sb}"]
    return state, argv, render_term(destination), sa, sb


@settings(max_examples=150, deadline=None)
@given(listing_queries(), st.sampled_from(["json", "table"]))
def test_paths_listing_is_the_reference_byte_for_byte(query, fmt):
    state, argv, destination, sa, sb = query
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([*argv, destination, "--format", fmt]) == 0
    assert out.getvalue() == reference_listing(state, destination, sa, sb, fmt)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_reading_the_paths_first_leaves_the_report_and_the_listing_alone(
    capsys, monkeypatch, fmt
):
    """A traced run reads ``result.paths`` right after each scatter, before the listing."""
    state = coherent_initial_state(5, 0.2, Statistics.FERMION)
    destination = parse_term("phi psi v v u")
    untouched = repr(path_report(apply_first_order(state), destination))
    result = apply_first_order(state)
    assert result.paths
    assert repr(path_report(result, destination)) == untouched
    code, expected, _ = run_cli(capsys, *SECTOR_5, "--format", fmt)
    assert code == 0
    scatter = cli.apply_first_order

    def read_paths_first(*args, **kwargs):
        result = scatter(*args, **kwargs)
        assert result.paths
        return result

    monkeypatch.setattr(cli, "apply_first_order", read_paths_first)
    assert run_cli(capsys, *SECTOR_5, "--format", fmt) == (0, expected, "")


def test_paths_json_writes_an_empty_listing_as_json_dumps_does():
    written = []
    cli.render_paths_json([], render_term, written.append)
    assert written == [json.dumps([], indent=2) + "\n"] == ["[]\n"]


# The benchmark's paths_provenance listing: 1,680 destinations, 10,080 paths.
PATHS_PROVENANCE = ("paths", "--experiment", "type2", "--statistics", "fermion", "--n", "8",
                    "--epsilon", "0.2", "--sa=0.3-0.1i", "--sb=-0.7+0.2i",
                    "phi phi psi psi v v v u")


class SpyStdout:
    """A stdout that keeps the length of each write, and its text when asked to."""

    def __init__(self, keep=False):
        self.sizes = []
        self.texts = [] if keep else None

    def write(self, text):
        self.sizes.append(len(text))
        if self.texts is not None:
            self.texts.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_paths_writes_its_listing_one_destination_at_a_time(capsys, monkeypatch, fmt):
    code, whole, _ = run_cli(capsys, *PATHS_PROVENANCE, "--format", fmt)
    assert code == 0
    spy = SpyStdout(keep=True)
    monkeypatch.setattr(sys, "stdout", spy)
    assert main([*PATHS_PROVENANCE, "--format", fmt]) == 0
    assert "".join(spy.texts) == whole
    assert len(spy.sizes) >= 1680  # at least one write per destination
    assert max(spy.sizes) <= 64 * 1024


def test_the_json_listing_peaks_below_the_document_it_writes(monkeypatch):
    """The listing is never held whole: its peak is the sector's sums and paths, not the text."""
    monkeypatch.setattr(sys, "stdout", SpyStdout())
    argv = [*PATHS_PROVENANCE, "--format", "json"]
    assert main(argv) == 0  # fills this process's caches, which later listings share
    spy = SpyStdout()
    monkeypatch.setattr(sys, "stdout", spy)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(spy.sizes) > 4_000_000
    assert peak < sum(spy.sizes)


def test_a_boson_destination_listing_keeps_no_record_per_sector_path(monkeypatch):
    """The sector scatter keeps only its sums; the listing walks back from one key.

    The (4,3,3) source sector scatters along 100,800 paths into 12,600
    keys.  Its listing peaked at about 3.9 MB under ``tracemalloc`` when
    measured, and at 14.2 MB while the scatter kept a record per path.
    """
    argv = ["paths", "--experiment", "type1", "--statistics", "boson", "--n1", "4", "--n2", "3",
            "--n3", "3", "--format", "json", "phi phi phi psi psi v v v v u"]
    monkeypatch.setattr(sys, "stdout", SpyStdout())
    assert main(argv) == 0  # fills this process's caches, which later listings share
    spy = SpyStdout(keep=True)
    monkeypatch.setattr(sys, "stdout", spy)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert '"phi_slot"' in "".join(spy.texts)
    assert peak < 8_000_000


# A type2 fermion sector point whose unlabelled destination matches several terms.
SECTOR_5 = ("paths", "--experiment", "type2", "--statistics", "fermion", "--n", "5",
            "--epsilon", "0.2", "--sa=0.3-0.1i", "--sb=-0.7+0.2i", "phi psi v v u")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_paths_out_writes_the_bytes_of_stdout(capsys, tmp_path, fmt):
    code, out, err = run_cli(capsys, *SECTOR_5, "--format", fmt)
    assert (code, err) == (0, "")
    assert out.count("destination") > 2
    target = tmp_path / "listing"
    assert run_cli(capsys, *SECTOR_5, "--format", fmt, "--out", str(target)) == (0, "", "")
    assert target.read_bytes() == out.encode("utf-8")


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_an_overflowing_paths_out_creates_no_file(capsys, tmp_path, fmt):
    target = tmp_path / "listing"
    code, out, err = run_cli(
        capsys, "paths", "--experiment", "type1", "--statistics", "fermion",
        "--n1", "1", "--n2", "1", "--n3", "0", "--sa=1e308", "--sb=-1e308", "v(1) u(1)",
        "--format", fmt, "--out", str(target),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: --sa/--sb too large: ")
    assert list(tmp_path.iterdir()) == []
