"""Command-line interface: runs over points and grids, path reports, verification.

Exit codes: 0 when everything passes (known divergences included), 1 when
engines disagree unexpectedly, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import io
import json
import marshal
import math
import os
import sys
from contextlib import contextmanager
from functools import cache, partial
from itertools import product
from typing import NamedTuple, NoReturn, TextIO

from collections import Counter
from collections.abc import Callable, Generator, Iterator

# bench/tracing.py times the layers by replacing the functions imported below,
# and json, by name on this module: call them through these globals, and
# build no import-time table of them.
from .amplitudes import approx_eq, format_complex, format_form, parse_complex
from .engine import (
    PROCESSES,
    PathGroup,
    apply_first_order,
    check_destination,
    group_paths,
    source_sector,
)
from .formulas import (
    CROSS_CASES,
    coherent_amplitude,
    coherent_counts,
    fock_boson_amplitude,
    fock_counts,
    fock_fermion_amplitude,
    fock_fermion_case,
)
from .oracle import (
    apply_fwm_operator,
    coherent_occupation_state,
    fock_occupation_state,
    oracle_scattered_norm,
)
from .states import (
    ManyBodyState,
    SectorSpec,
    Statistics,
    coefficient_norm,
    coherent_initial_state,
    fock_initial_state,
    parse_term,
    render_term,
    validate_coherent_point,
    validate_fock_point,
)

__all__ = ["main"]

ALL_ENGINES = ("firstq", "oracle", "closed")
EXACT_ENGINES = frozenset({"firstq", "oracle"})
DEFAULT_TOLERANCE = 1e-10
DEFAULT_CAP = 8
VERIFY_PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0.2 + 0j))
VERIFY_EPSILONS = (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5)
# Largest verify --nmax: the boson grids and the coherent-gain records stop
# here, and the fermion grids stop at 7 (type1) and 6 (type2).
VERIFY_NMAX_LIMIT = 8

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_KNOWN = "known-divergence"


class UsageError(Exception):
    """Configuration or usage problem; maps to exit code 2."""


def nmax_cap() -> int:
    raw = os.environ.get("MIXBENCH_NMAX_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"MIXBENCH_NMAX_CAP must be an integer, got {raw!r}") from None
    if cap < 2:
        raise UsageError("MIXBENCH_NMAX_CAP must be at least 2")
    return cap


class RunConfig(NamedTuple):
    points: list[Point]  # the grid, in lexicographic order of its flags
    sa: complex
    sb: complex
    engines: tuple[str, ...] | None
    fmt: str
    out: str | None
    tolerance: float


class VerificationRecord(NamedTuple):
    experiment: str
    statistics: str
    point: Point | None  # None for the identity records that have no point
    sa: complex
    sb: complex
    values: dict[str, float]
    max_deviation: float
    status: str
    note: str


def parse_int_grid(text: str, name: str) -> tuple[int, ...]:
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise ValueError
            return tuple(range(lo, hi + 1))
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(
            f"--{name} expects an integer, a lo:hi range or a comma list, got {text!r}"
        ) from None


def parse_float_grid(text: str, name: str) -> tuple[float, ...]:
    try:
        # + 0.0 turns -0.0 into 0.0, so -0 runs and prints as the point 0;
        # every other value keeps its bits.
        return tuple(float(part) + 0.0 for part in text.split(","))
    except ValueError:
        raise UsageError(f"--{name} expects a real number or a comma list, got {text!r}") from None


Evaluator = Callable[[complex, complex], float]


# One point type per experiment holds all that differs between the two.  A
# point is the whole request: its fields, statistics last, are the arguments
# of its experiment's state builders, and ``point[:-1]`` those of its closed
# forms.  Its methods reach both through this module's globals, so that
# replacing those names on the module reaches them.
class FockPoint(NamedTuple):
    """Type I: independent Fock states of n1 phi, n2 psi and n3 seed v particles."""

    n1: int
    n2: int
    n3: int
    statistics: Statistics

    experiment = "type1"

    @property
    def n(self) -> int:
        return self.n1 + self.n2 + self.n3

    @staticmethod
    def grid(n1: str, n2: str, n3: str) -> tuple[tuple[int, ...], ...]:
        """Parse the flags' grids; every point is valid when the grid minima are."""
        grids = (parse_int_grid(n1, "n1"), parse_int_grid(n2, "n2"), parse_int_grid(n3, "n3"))
        validate_fock_point(*map(min, grids))
        return grids

    def first_quantized(self):
        return fock_initial_state(*self)

    def sector_state(self, sector: SectorSpec):
        """Only the sector's terms of the input: all of it in (n1, n2, n3, 0), else none."""
        if sector != (*self[:-1], 0):
            return ManyBodyState(self.statistics, self.n, {})
        return fock_initial_state(*self)

    def occupation(self):
        return fock_occupation_state(*self)

    def closed_form(self) -> Evaluator:
        if self.statistics is Statistics.BOSON:
            return partial(fock_boson_amplitude, *self[:-1])
        return partial(fock_fermion_amplitude, *self[:-1])

    def paths(self, engine: str) -> int:
        """The paths ``engine`` attempts at this point, counted exactly.

        A scatter tries both processes on each (phi slot, psi slot) pair of
        each term or key.  The fermion input is one Slater key, which both
        exact routes walk.  The boson oracle's one occupation vector takes
        one merged vertex, and the closed form walks nothing.
        """
        if engine == "closed":
            return 0
        if self.statistics is Statistics.FERMION:
            return 2 * self.n1 * self.n2
        if engine == "oracle":
            return 1
        return 2 * fock_counts(*self[:-1]).process_terms

    def divergence_note(self) -> str | None:
        if self.statistics is Statistics.FERMION:
            case = fock_fermion_case(*self[:-1])
            if case in CROSS_CASES:
                return (
                    f"closed-form cross term ({case}) uses +2*(min(n1,n2)-n3);"
                    " exact enumeration gives -(min(n1,n2)-n3)"
                )
        return None

    def text(self) -> str:
        return f"n1={self.n1} n2={self.n2} n3={self.n3}"


class CoherentPoint(NamedTuple):
    """Type II: n particles, each in one superposition with |v amplitude|^2 = epsilon."""

    n: int
    epsilon: float
    statistics: Statistics

    experiment = "type2"

    @staticmethod
    def grid(n: str, epsilon: str) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Parse the flags' grids; every point is valid when the smallest n is."""
        ns, epsilons = parse_int_grid(n, "n"), parse_float_grid(epsilon, "epsilon")
        for e in epsilons:
            validate_coherent_point(min(ns), e)
        return ns, epsilons

    def first_quantized(self):
        return coherent_initial_state(*self)

    def sector_state(self, sector: SectorSpec):
        """Only the sector's terms of the input."""
        return coherent_initial_state(*self, sector=sector)

    def occupation(self):
        return coherent_occupation_state(*self)

    def closed_form(self) -> Evaluator:
        return partial(coherent_amplitude, *self[:-1])

    def paths(self, engine: str) -> int:
        """The paths ``engine`` attempts at this point, counted exactly.

        A scatter tries both processes on each (phi slot, psi slot) pair of
        each term or key.  ``firstq`` walks the 3^n terms of the expansion,
        and so does a fermion oracle, whose Slater keys are those terms.
        The boson oracle takes one merged vertex per occupation vector with
        a phi and a psi, and the closed form walks nothing.
        """
        if engine == "closed":
            return 0
        n, epsilon, statistics = self
        per_term = engine == "firstq" or statistics is Statistics.FERMION
        paths = 0
        for m in range(1, n):
            for k in range(1, n - m + 1):
                counts = coherent_counts(n, m, k, epsilon)
                if counts.group_amplitude != 0:  # epsilon = 0 keeps only m + k = n
                    paths += 2 * counts.process_terms if per_term else 1
        return paths

    def divergence_note(self) -> str | None:
        return None

    def text(self) -> str:
        return f"n={self.n} eps={self.epsilon:g}"


Point = FockPoint | CoherentPoint
POINT_TYPES = {point_type.experiment: point_type for point_type in (FockPoint, CoherentPoint)}
# The grid flags of all experiments, in the order records list them: each
# point type's fields but the statistics.
POINT_FIELDS = tuple(
    field for point_type in POINT_TYPES.values() for field in point_type._fields[:-1]
)


def read_config_file(path: str) -> dict[str, str]:
    """Parse a flat ``key = value`` file; blank lines and # comments allowed.

    Keys outside ``_CONFIG_KEYS`` are a usage error for every command.
    """
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = line.partition("=")
                values[key.strip()] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    unknown = set(values) - _CONFIG_KEYS
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    return values


# The flags of run, with their argparse settings; each is also a config key.
RUN_FLAGS = {
    "experiment": {"choices": tuple(POINT_TYPES)},
    "statistics": {"choices": ("boson", "fermion")},
    "n1": {"help": "phi-mode count (int, lo:hi or comma list)"},
    "n2": {"help": "psi-mode count (int, lo:hi or comma list)"},
    "n3": {"help": "seed v-mode count (int, lo:hi or comma list)"},
    "n": {"help": "total particle count for type2"},
    "epsilon": {"help": "v amplitude squared per particle for type2"},
    "sa": {"help": "process A amplitude, a+bi form (default 1)"},
    "sb": {"help": "process B amplitude, a+bi form (default 1)"},
    "engines": {"help": "comma list from firstq, oracle, closed"},
    "format": {"choices": ("table", "csv", "json")},
    "out": {"help": "write the output to a file instead of stdout"},
    "tolerance": {"help": "cross-engine comparison tolerance"},
}
# paths lists the first-quantized engine's paths and compares no engines.
ENGINE_FLAGS = ("engines", "tolerance")
_CONFIG_KEYS = {*RUN_FLAGS, "nmax"}


def config_reader(args: argparse.Namespace) -> Callable[[str], str | None]:
    """Look up a setting: its flag if given, else the --config file's value, else None.

    A key the command has no flag for is not one of its settings and reads
    None, so one file can serve every command; ``paths`` ignores the file's
    ``engines`` and ``tolerance`` as ``run`` ignores its ``nmax``.
    """
    file_values = read_config_file(args.config) if args.config else {}

    def pick(key: str) -> str | None:
        if not hasattr(args, key):
            return None
        flag = getattr(args, key)
        if flag is not None:
            return flag
        return file_values.get(key)

    return pick


def parse_tolerance(text: str | None) -> float:
    if text is None:
        return DEFAULT_TOLERANCE
    try:
        tolerance = float(text)
    except ValueError:
        raise UsageError(f"--tolerance expects a real number, got {text!r}") from None
    if not math.isfinite(tolerance):
        raise UsageError(f"--tolerance must be finite, got {text!r}")
    if tolerance <= 0:
        raise UsageError("--tolerance must be positive")
    return tolerance


def build_config(args: argparse.Namespace) -> RunConfig:
    pick = config_reader(args)

    point_type = POINT_TYPES.get(pick("experiment"))
    if point_type is None:
        raise UsageError(f"--experiment must be {' or '.join(POINT_TYPES)}")
    statistics_text = pick("statistics")
    if statistics_text not in ("boson", "fermion"):
        raise UsageError("--statistics must be boson or fermion")
    statistics = Statistics(statistics_text)

    fields = point_type._fields[:-1]  # the grid flags; statistics is its own
    for key in POINT_FIELDS:
        if key not in fields and pick(key) is not None:
            raise UsageError(f"--{key} does not apply to {point_type.experiment}")
    raw = [pick(key) for key in fields]
    if None in raw:
        *head, last = (f"--{key}" for key in fields)
        raise UsageError(f"{point_type.experiment} needs {', '.join(head)} and {last}")
    try:
        grids = point_type.grid(*raw)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    points = [point_type(*values, statistics) for values in product(*grids)]

    # A setting left out reads the default; an empty one is malformed.
    sa_text, sb_text = pick("sa"), pick("sb")
    try:
        sa = parse_complex("1" if sa_text is None else sa_text)
        sb = parse_complex("1" if sb_text is None else sb_text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    engines: tuple[str, ...] | None = None
    engines_text = pick("engines")
    if engines_text is not None:
        # An engine named twice runs once, in the place it is first named.
        engines = tuple(
            dict.fromkeys(part.strip() for part in engines_text.split(",") if part.strip())
        )
        bad = [e for e in engines if e not in ALL_ENGINES]
        if bad or not engines:
            raise UsageError(f"--engines accepts a comma list from {', '.join(ALL_ENGINES)}")

    fmt = pick("format")
    if fmt is None:
        fmt = "table"
    elif fmt not in ("table", "csv", "json"):
        raise UsageError("--format must be table, csv or json")

    return RunConfig(
        points=points,
        sa=sa,
        sb=sb,
        engines=engines,
        fmt=fmt,
        out=pick("out"),
        tolerance=parse_tolerance(pick("tolerance")),
    )


def engines_for(point: Point, requested: tuple[str, ...] | None, cap: int) -> tuple[str, ...]:
    fermionic = point.statistics is Statistics.FERMION
    if requested is not None:
        if "firstq" in requested and fermionic and point.n > cap:
            raise UsageError(
                f"first-quantized fermion engine capped at n = {cap}"
                " (set MIXBENCH_NMAX_CAP to raise)"
            )
        return requested
    if fermionic and point.n > cap:
        return tuple(e for e in ALL_ENGINES if e != "firstq")
    return ALL_ENGINES


def engine_evaluator(point: Point, engine: str) -> Evaluator:
    """One engine's callable (sa, sb) -> amplitude at one grid point, from its own input.

    ``firstq`` scatters ``point.first_quantized()`` once, without per-path
    records, and keeps only its (ca, cb) pairs: no final state is built.
    Evaluating them at concrete amplitudes is cheap, so sweeping several
    (sa, sb) pairs per point reuses the expensive part.  ``oracle`` reads
    ``point.occupation()`` and ``closed`` the point's closed form.
    """
    if engine == "firstq":
        pairs = apply_first_order(point.first_quantized(), paths=False).coefficients
        return partial(coefficient_norm, pairs)
    if engine == "oracle":
        initial = point.occupation()

        def oracle(sa: complex, sb: complex) -> float:
            return oracle_scattered_norm(apply_fwm_operator(initial, sa, sb))

        return oracle
    return point.closed_form()


def _overflow_error(point: Point, sa: complex, sb: complex) -> UsageError:
    return UsageError(
        f"--sa/--sb too large: sA={format_complex(sa)}, sB={format_complex(sb)}"
        f" overflow the amplitude at {point.text()}"
    )


def route_values(
    point: Point, engine: str, pairs: tuple[tuple[complex, complex], ...]
) -> list[float]:
    """The values of one engine at one point, one per (sa, sb) pair.

    An evaluator raises nothing but OverflowError, when it squares a finite
    float past the largest one; that value reads as infinite.
    """
    norm = engine_evaluator(point, engine)
    return [_value_at(norm, sa, sb) for sa, sb in pairs]


def _value_at(norm: Evaluator, sa: complex, sb: complex) -> float:
    try:
        return norm(sa, sb)
    except OverflowError:
        return math.inf


def point_record(
    point: Point,
    sa: complex,
    sb: complex,
    values: dict[str, float],
    tolerance: float,
) -> VerificationRecord:
    """Compare one point's engine values at (sa, sb); a value that is not finite is refused."""
    if not all(math.isfinite(value) for value in values.values()):
        raise _overflow_error(point, sa, sb)
    names = sorted(values)
    max_dev = 0.0
    exact_ok = True
    all_ok = True
    for i, left in enumerate(names):
        for right in names[i + 1 :]:
            dev = abs(values[left] - values[right])
            max_dev = max(max_dev, dev)
            if not approx_eq(values[left], values[right], tolerance):
                all_ok = False
                if left in EXACT_ENGINES and right in EXACT_ENGINES:
                    exact_ok = False
    note = ""
    if all_ok:
        status = STATUS_PASS
    else:
        known = point.divergence_note()
        if exact_ok and known is not None:
            status = STATUS_KNOWN
            note = known
        else:
            status = STATUS_FAIL
            note = "engines disagree beyond tolerance"
    return VerificationRecord(
        experiment=point.experiment,
        statistics=point.statistics.value,
        point=point,
        sa=sa,
        sb=sb,
        values=values,
        max_deviation=max_dev,
        status=status,
        note=note,
    )


# What forking a grid's workers costs, in paths the serial loop would
# scatter in the same time (about 0.8 us a path: verify --nmax 8's serial
# route time, 0.46-0.48 s, over its 606,372 predicted paths).  On two
# shared CPUs a forked grid of two equal boson type1 points ends 5-9 ms after
# one of them alone would: (3,3,2) twice took 10-14 ms against 5-6 ms a
# point, and (3,3,3) twice 22-25 ms against 15-16 ms (medians of 31 calls).
# A route is one engine at one point, and a grid fans out only when the paths
# of all its routes but the costliest exceed this start.  It was set when a
# process-pool executor cost about twice as much, and is kept so that the
# same grids fan out.
POOL_MIN_PATHS = 20_000


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _map_routes(
    routes: list[tuple[Point, str]], pairs: tuple[tuple[complex, complex], ...]
) -> Generator[list[float], None, None]:
    """Yield ``route_values(point, engine, pairs)`` for each route, in order.

    A grid that scatters, on a machine that can fork and lets this process
    run on two or more CPUs, is forked into one child per CPU, up to one per
    route, when its predicted paths less its costliest route's exceed
    ``POOL_MIN_PATHS``; any other grid runs here.  The routes are dealt
    costliest first, each to the child with the fewest predicted paths so
    far.  A child runs its share in grid order and writes each route's
    values, or the exception that ends its share, to its own pipe.  This
    process runs no route: it reads each one from its child's pipe when it
    is next in grid order, so the first failure in grid order is the one
    raised, as in the serial loop, with the child's traceback as its cause;
    a child that exits without its values raises RuntimeError.  Finishing,
    raising or closing the generator kills and reaps every child.
    """
    workers = _available_cpus()
    scatters = any(engine in EXACT_ENGINES for _, engine in routes)
    pooled = workers >= 2 and scatters and hasattr(os, "fork")
    if pooled:
        costs = [point.paths(engine) for point, engine in routes]
        workers = min(workers, len(routes))
        pooled = workers >= 2 and sum(costs) - max(costs) > POOL_MIN_PATHS
    if not pooled:
        for point, engine in routes:
            yield route_values(point, engine, pairs)
        return

    shares: list[list[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for at in sorted(range(len(routes)), key=costs.__getitem__, reverse=True):
        child = min(range(workers), key=lambda c: (loads[c], len(shares[c])))
        shares[child].append(at)
        loads[child] += costs[at]
    for share in shares:
        share.sort()  # a child runs its routes in grid order, as they are read
    reader_of = [None] * len(routes)
    pids = []
    readers = []
    # A child leaves through os._exit, which writes none of its buffers; what
    # this process has buffered is written once, here, before it forks.
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when started without the descriptor
            stream.flush()
    try:
        for share in shares:
            read, write = os.pipe()
            readers.append(open(read, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(share, routes, pairs, write)
            finally:
                os.close(write)
            pids.append(pid)
            for at in share:
                reader_of[at] = readers[-1]
        for (point, engine), reader in zip(routes, reader_of):
            try:
                values = marshal.load(reader)
            except EOFError:
                raise RuntimeError(
                    f"a worker exited without the {engine} values at {point.text()}"
                ) from None
            if isinstance(values, tuple):  # the route raised
                _raise_from_worker(*values, point, engine)
            yield values
    finally:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL: a child may still be running routes no one will read
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


class WorkerTraceback(Exception):
    """The traceback of an exception raised in a forked worker, as its text."""


def _raise_from_worker(pickled: bytes | None, trace: str, point: Point, engine: str) -> NoReturn:
    """Raise here what a worker's route raised, its traceback chained as the cause.

    An exception the worker could not pickle, or this process cannot
    unpickle, is raised as a RuntimeError that names the route.
    """
    import pickle

    exc = None
    if pickled is not None:
        try:
            exc = pickle.loads(pickled)
        except Exception:
            pass
    if exc is None:
        exc = RuntimeError(
            f"the {engine} route at {point.text()} raised in a worker"
            " an exception that cannot be sent back"
        )
    raise exc from WorkerTraceback(trace)


def _run_share(
    share: list[int],
    routes: list[tuple[Point, str]],
    pairs: tuple[tuple[complex, complex], ...],
    write: int,
) -> NoReturn:
    """In a forked child: marshal each route's values to ``write``, in order, then exit.

    A route that raises ends the share, and the routes after it are not
    run.  Its exception is sent as a tuple: the exception pickled, or None
    when it cannot be, and the formatted traceback.
    """
    code = 1
    try:
        with open(write, "wb") as out:
            for at in share:
                try:
                    values = route_values(*routes[at], pairs)
                except BaseException as exc:  # the parent raises it, in grid order
                    import pickle
                    import traceback

                    trace = traceback.format_exc()
                    try:
                        pickled = pickle.dumps(exc)
                    except Exception:
                        pickled = None
                    marshal.dump((pickled, trace), out)
                    break
                marshal.dump(values, out)
                out.flush()
        code = 0
    finally:
        os._exit(code)


def grid_records(
    points: list[Point],
    requested: tuple[str, ...] | None,
    pairs: tuple[tuple[complex, complex], ...],
    tolerance: float,
) -> list[VerificationRecord]:
    """Walk a grid: one record per point and (sa, sb) pair.

    Each route, one engine at one point, builds its engine's input once and
    evaluates it at every pair.  A grid worth more than forking runs its
    routes in forked workers, one per available CPU.  The records
    are compared here, in grid order, and raise as the serial loop would:
    first point, then first pair.
    """
    cap = nmax_cap()
    plan = []  # each point of the grid with its engines
    refused = None
    for point in points:
        try:
            plan.append((point, engines_for(point, requested, cap)))
        except UsageError as exc:  # raised once the points before it have their records
            refused = exc
            break
    routes = [(point, engine) for point, engines in plan for engine in engines]
    per_route = _map_routes(routes, pairs)
    records = []
    try:
        for point, engines in plan:
            columns = [next(per_route) for _ in engines]
            for (sa, sb), *values in zip(pairs, *columns):
                records.append(point_record(point, sa, sb, dict(zip(engines, values)), tolerance))
    finally:
        per_route.close()
    if refused is not None:
        raise refused
    return records


def run_records(cfg: RunConfig) -> list[VerificationRecord]:
    return grid_records(cfg.points, cfg.engines, ((cfg.sa, cfg.sb),), cfg.tolerance)


def _record_point(record: VerificationRecord) -> dict:
    """The fields that open every serialized record: what was computed, and where.

    A field the record's point does not have, and every field of a record
    without one, is None.
    """
    return {
        "experiment": record.experiment,
        "statistics": record.statistics,
        **{key: getattr(record.point, key, None) for key in POINT_FIELDS},
        "sA": format_complex(record.sa),
        "sB": format_complex(record.sb),
    }


def record_rows(records: list[VerificationRecord]) -> list[dict]:
    return [
        {**_record_point(record), "engine": engine, "amplitude": record.values[engine]}
        for record in records
        for engine in sorted(record.values)
    ]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows: list[dict]) -> str:
    """CSV headed by the keys of the rows, which ``record_rows`` builds alike."""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _csv_cell(value) for key, value in row.items()})
    return buffer.getvalue()


def text_table(headers: list[str], rows: list[list[str]]) -> str:
    """Left-aligned fixed-width columns under a dashed rule, no trailing newline."""
    widths = [
        max(len(headers[c]), max((len(r[c]) for r in rows), default=0))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def records_to_table(records: list[VerificationRecord]) -> str:
    engines = [e for e in ALL_ENGINES if any(e in r.values for r in records)]
    headers = ["experiment", "statistics", "point", "sA", "sB"]
    headers += engines + ["deviation", "status", "note"]
    rows = []
    for record in records:
        row = [
            record.experiment,
            record.statistics,
            record.point.text(),
            format_complex(record.sa),
            format_complex(record.sb),
        ]
        for engine in engines:
            value = record.values.get(engine)
            row.append("-" if value is None else f"{value:.12g}")
        row += [f"{record.max_deviation:.3e}", record.status, record.note]
        rows.append(row)
    return text_table(headers, rows) + "\n"


def render_paths_json(
    payload: list[tuple[PathGroup, str, complex]],
    source_text: Callable[[int], str],
    write: Callable[[str], object],
) -> None:
    """Write the listing as ``json.dumps(doc, indent=2) + "\\n"`` would, byte for byte.

    ``payload`` holds one (group, total, value) entry per matched
    destination: its ``PathGroup``, its ``(ca, cb)`` sum as ``format_form``
    text and its value at (sa, sb).  ``doc`` holds one object per entry,
    and each is handed to ``write`` as it is rendered, with the separator
    before it: the document is never held whole.  The fixed schema is
    written from templates, because the indenting encoder is pure Python;
    every string is quoted with ``json.dumps``.  A path object is joined
    from three cached pieces: its source's, once per source index; its
    process, slots, sign and contribution's, once per distinct (component,
    slots, sign, value); and its destination's, once per entry.  A
    contribution is the path's value in process A's ``"ca"`` or process
    B's ``"cb"`` and ``"0"`` in the other, and keeps its schema's constant
    slot ``"c0": "0"``, which readers of the listing parse.  Values equal
    under ``==`` share their text, which is exact because
    ``format_complex`` prints a -0.0 part as it prints 0.0.
    """
    if not payload:
        write("[]\n")
        return
    quote = json.dumps
    value_json = cache(lambda value: quote(format_complex(value)))
    head = cache(lambda index: f'      {{\n        "source": {quote(source_text(index))},\n')

    @cache
    def fields(component: int, i: int, j: int, sign: int, value: complex) -> str:
        ca, cb = (value_json(value), '"0"') if component == 0 else ('"0"', value_json(value))
        return (
            f'        "process": {quote(PROCESSES[component])},\n'
            f'        "phi_slot": {i},\n'
            f'        "psi_slot": {j},\n'
            f'        "sign": {sign},\n'
            '        "contribution": {\n'
            '          "c0": "0",\n'
            f'          "ca": {ca},\n'
            f'          "cb": {cb}\n'
            "        },\n"
        )

    separator = "[\n"
    for (dest, records, _), rendered, value in payload:
        dest_text = quote(render_term(dest))
        tail = f'        "destination": {dest_text}\n      }}'
        listed = [
            f"{head(index)}{fields(component, i, j, sign, path_value)}{tail}"
            for index, component, i, j, sign, path_value, _ in records
        ]
        paths = "[\n" + ",\n".join(listed) + "\n    ]" if listed else "[]"
        write(
            f"{separator}  {{\n"
            f'    "destination": {dest_text},\n'
            f'    "paths": {paths},\n'
            f'    "total": {quote(rendered)},\n'
            f'    "value": {value_json(value)}\n'
            "  }"
        )
        separator = ",\n"
    write("\n]\n")


def render_paths_table(
    payload: list[tuple[PathGroup, str, complex]],
    source_text: Callable[[int], str],
    sa: complex,
    sb: complex,
    write: Callable[[str], object],
) -> None:
    """Write the listing as text, one destination's block at a time.

    A block names its destination, tables its paths (source, process,
    slots, sign, contribution as a form, destination) and ends with their
    count and total at (sa, sb).  A listing of other than one destination
    separates its blocks with a blank line and ends with a line that
    counts them and their paths.  A contribution is formatted once per
    distinct (process, value), and a value at (sa, sb) once per distinct
    value.
    """
    at = f" at sa={format_complex(sa)}, sb={format_complex(sb)}"
    gap = "" if len(payload) == 1 else "\n"
    value_text = cache(format_complex)

    @cache
    def contribution(component: int, value: complex) -> str:
        return format_form(value, 0j) if component == 0 else format_form(0j, value)

    headers = ["source", "process", "slots", "sign", "contribution", "destination"]
    total_paths = 0
    for (dest, records, _), rendered, value in payload:
        dest_text = render_term(dest)
        table = ""
        if records:
            rows = [
                [
                    source_text(index),
                    PROCESSES[component],
                    f"{i},{j}",
                    f"{sign:+d}",
                    contribution(component, path_value),
                    dest_text,
                ]
                for index, component, i, j, sign, path_value, _ in records
            ]
            table = text_table(headers, rows) + "\n"
        write(
            f"destination: {dest_text}\n{table}"
            f"paths: {len(records)}\ntotal: {rendered} = {value_text(value)}{at}\n{gap}"
        )
        total_paths += len(records)
    if gap:
        write(f"matched destinations: {len(payload)}, paths: {total_paths}\n")


def render_records(records: list[VerificationRecord], fmt: str) -> str:
    if fmt == "table":
        return records_to_table(records)
    rows = record_rows(records)
    if fmt == "csv":
        return rows_to_csv(rows)
    return json.dumps(rows, indent=2) + "\n"


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The stream a command writes to: stdout, or the --out file, which is closed after.

    An --out path that cannot be written is a usage error.
    """
    if out is None:
        yield sys.stdout
        return
    try:
        handle = open(out, "w", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc.strerror}") from None
    with handle:
        yield handle


def _do_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    records = run_records(cfg)
    with _output(cfg.out) as stream:
        stream.write(render_records(records, cfg.fmt))
    return 1 if any(r.status == STATUS_FAIL for r in records) else 0


def _do_paths(args: argparse.Namespace) -> int:
    """List the paths into one destination, or each destination it matches.

    Every destination's paths, ``(ca, cb)`` sum and value at (sa, sb) are
    found, and a value that overflows refused, before stdout or --out is
    opened: a refused listing writes nothing.  The listing is then written
    one destination at a time, in either format.
    """
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise UsageError("paths --format must be table or json")
    if len(cfg.points) != 1:
        raise UsageError("paths needs a single parameter point, not a grid")
    point = cfg.points[0]
    engines_for(point, ("firstq",), nmax_cap())
    try:
        destination = parse_term(args.destination)
        check_destination(destination, point.statistics, point.n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    result = apply_first_order(point.sector_state(source_sector(destination)))
    listing = group_paths(result, destination)
    total_text = cache(format_form)  # a sector's totals hold few distinct (ca, cb) pairs
    payload = []
    for group in listing.groups:
        ca, cb = group.total
        value = ca * cfg.sa + cb * cfg.sb
        if not cmath.isfinite(value):
            raise _overflow_error(point, cfg.sa, cfg.sb)
        payload.append((group, total_text(ca, cb), value))

    with _output(cfg.out) as stream:
        if cfg.fmt == "json":
            render_paths_json(payload, listing.source_text, stream.write)
        else:
            render_paths_table(payload, listing.source_text, cfg.sa, cfg.sb, stream.write)
    return 0


def _fock_splits(nmax: int) -> list[tuple[int, int, int]]:
    """Every (n1, n2, n3) with n1, n2 >= 1 and n1 + n2 + n3 <= nmax, lexicographically."""
    return [
        (n1, n2, n3)
        for n1 in range(1, nmax)
        for n2 in range(1, nmax - n1 + 1)
        for n3 in range(0, nmax - n1 - n2 + 1)
    ]


def _identity_record(name: str, max_dev: float, note: str) -> VerificationRecord:
    """A closed-form identity, which holds when it deviates by at most 1e-12."""
    status = STATUS_PASS if max_dev <= 1e-12 else STATUS_FAIL
    return VerificationRecord(
        experiment="identity",
        statistics=name,
        point=None,
        sa=0j,
        sb=0j,
        values={},
        max_deviation=max_dev,
        status=status,
        note=note,
    )


def verify_records(tolerance: float, nmax: int) -> list[VerificationRecord]:
    splits = _fock_splits(nmax)
    coherent = [(n, e) for n in range(2, nmax + 1) for e in VERIFY_EPSILONS]
    points = [
        *(FockPoint(*split, Statistics.BOSON) for split in splits),
        *(FockPoint(*split, Statistics.FERMION) for split in splits if sum(split) <= 7),
        *(CoherentPoint(n, e, Statistics.BOSON) for n, e in coherent),
        *(CoherentPoint(n, e, Statistics.FERMION) for n, e in coherent if n <= 6),
    ]
    records = grid_records(points, None, VERIFY_PAIRS, tolerance)

    # Closed-form counting identity: per-term gain times sqrt(distinct final
    # terms) reproduces the stimulated amplitude for every split of n <= 30.
    max_dev = 0.0
    for n1, n2, n3 in _fock_splits(30):
        counts = fock_counts(n1, n2, n3)
        lhs = math.sqrt(counts.distinct_final_terms) * counts.per_term_amplitude
        rhs = math.sqrt(n1 * n2 * (n3 + 1))
        max_dev = max(max_dev, abs(lhs - rhs) / max(1.0, abs(rhs)))
    records.append(
        _identity_record(
            "fock-counting",
            max_dev,
            "sqrt(distinct_final_terms) * per_term_amplitude == sqrt(n1*n2*(n3+1)) for n <= 30",
        )
    )

    max_dev = 0.0
    for n in range(2, 21):
        for epsilon in VERIFY_EPSILONS:
            total = 0.0
            for m in range(n + 1):
                for k in range(n - m + 1):
                    counts = coherent_counts(n, m, k, epsilon)
                    total += counts.group_terms * counts.group_amplitude**2
            max_dev = max(max_dev, abs(total - 1.0))
    records.append(
        _identity_record(
            "coherent-normalization",
            max_dev,
            "sum of group_terms * group_amplitude^2 over (m, k) equals 1 for n <= 20",
        )
    )

    # The published per-term gain is exactly twice the counting ratio; keep
    # one known-divergence record per n so reports quantify it.
    for n in range(2, nmax + 1):
        counts = coherent_counts(n, 1, 1, 0.2)
        records.append(
            VerificationRecord(
                experiment="identity",
                statistics="coherent-gain",
                # The counted gain does not depend on statistics; the point
                # only names n and epsilon.
                point=CoherentPoint(n, 0.2, Statistics.BOSON),
                sa=0j,
                sb=0j,
                values={
                    "gain_published": float(counts.gain_published),
                    "gain_ratio": float(counts.gain_ratio),
                },
                max_deviation=abs(counts.gain_published - counts.gain_ratio),
                status=STATUS_KNOWN,
                note="published per-term gain 2*(n-m-k+1) is twice process_terms/distinct_final_terms",
            )
        )
    return records


def record_to_json_dict(record: VerificationRecord) -> dict:
    return {
        **_record_point(record),
        "values": {name: record.values[name] for name in sorted(record.values)},
        "max_deviation": record.max_deviation,
        "status": record.status,
        "note": record.note,
    }


def _do_verify(args: argparse.Namespace) -> int:
    pick = config_reader(args)
    tolerance = parse_tolerance(pick("tolerance"))
    nmax_text = pick("nmax")
    try:
        nmax = 6 if nmax_text is None else int(nmax_text)
    except ValueError:
        raise UsageError(f"--nmax expects an integer, got {nmax_text!r}") from None
    if nmax < 3:
        raise UsageError("--nmax must be at least 3")
    if nmax > VERIFY_NMAX_LIMIT:
        raise UsageError(
            f"--nmax must be at most {VERIFY_NMAX_LIMIT}, the largest grid verify enumerates"
        )
    out = pick("out")
    if out is None:
        out = "mixbench_verify.json"

    # Open the report first, so that a path that cannot be written is refused
    # before the grid is computed.
    with _output(out) as handle:
        records = verify_records(tolerance, nmax)
        counts = Counter(record.status for record in records)
        report = {
            "tolerance": tolerance,
            "nmax": nmax,
            "cap": nmax_cap(),
            "counts": {
                "pass": counts[STATUS_PASS],
                "known_divergence": counts[STATUS_KNOWN],
                "fail": counts[STATUS_FAIL],
            },
            "records": [record_to_json_dict(r) for r in records],
        }
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(
        f"checked {len(records)} records: {counts[STATUS_PASS]} pass,"
        f" {counts[STATUS_KNOWN]} known-divergence, {counts[STATUS_FAIL]} fail"
        f" (tolerance {tolerance:g}, nmax {nmax})"
    )
    print(f"report written to {out}")
    if counts[STATUS_FAIL]:
        for record in records:
            if record.status == STATUS_FAIL:
                print(f"FAIL: {record_to_json_dict(record)}")
        return 1
    return 0


def _add_point_arguments(parser: argparse.ArgumentParser, skip: tuple[str, ...] = ()) -> None:
    for name, settings in RUN_FLAGS.items():
        if name not in skip:
            parser.add_argument(f"--{name}", **settings)
    parser.add_argument("--config", help="flat key = value config file; flags override")


@cache
def make_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Parsing leaves no state on it, and a new parser per call would leave its
    cyclic objects to the garbage collector.
    """
    parser = argparse.ArgumentParser(
        prog="mixbench",
        description="Exact combinatorial simulator for multi-particle"
        " four-wave-mixing amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="compute amplitudes at parameter points or grids")
    _add_point_arguments(run_parser)

    paths_parser = sub.add_parser("paths", help="list scattering paths into one final term")
    _add_point_arguments(paths_parser, skip=ENGINE_FLAGS)
    paths_parser.add_argument(
        "destination",
        help="final term, e.g. 'v v u' (fermions may omit q labels to aggregate)",
    )

    verify_parser = sub.add_parser("verify", help="run the cross-engine verification grid")
    for name in ("tolerance", "nmax", "out", "config"):
        verify_parser.add_argument(f"--{name}")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _do_run(args)
        if args.command == "paths":
            return _do_paths(args)
        return _do_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
