"""Command-line interface: single runs, sweeps, path reports, verification.

Exit codes: 0 when everything passes (known divergences included), 1 when
engines disagree unexpectedly, 2 on usage or configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial

from collections.abc import Callable

# bench/tracing.py times the layers by replacing the functions imported below,
# and json, by name on this module: call them through these globals, and
# build no import-time table of them.
from .amplitudes import approx_eq, format_complex, format_form, parse_complex
from .engine import PathRecord, apply_first_order, path_report, path_to_dict
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
    ProductTerm,
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

EXPERIMENT_FOCK = "type1"
EXPERIMENT_COHERENT = "type2"
ALL_ENGINES = ("firstq", "oracle", "closed")
EXACT_ENGINES = frozenset({"firstq", "oracle"})
DEFAULT_TOLERANCE = 1e-10
DEFAULT_CAP = 8
VERIFY_PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0.2 + 0j))
VERIFY_EPSILONS = (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5)
# Largest verify --nmax: the boson grids and the coherent-gain records stop
# here, and the fermion grids stop at 7 (type1) and 6 (type2).
VERIFY_NMAX_LIMIT = 8

CSV_COLUMNS = (
    "experiment",
    "statistics",
    "n1",
    "n2",
    "n3",
    "n",
    "epsilon",
    "sA",
    "sB",
    "engine",
    "amplitude",
)

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


@dataclass(frozen=True)
class RunConfig:
    experiment: str
    statistics: Statistics
    points: list[dict]  # the grid, in lexicographic order of its flags
    sa: complex
    sb: complex
    engines: tuple[str, ...] | None
    fmt: str
    out: str | None
    tolerance: float


@dataclass(frozen=True)
class VerificationRecord:
    experiment: str
    statistics: str
    n1: int | None
    n2: int | None
    n3: int | None
    n: int | None
    epsilon: float | None
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
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--{name} expects a real number or a comma list, got {text!r}") from None


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


_CONFIG_KEYS = {
    "experiment",
    "statistics",
    "n1",
    "n2",
    "n3",
    "n",
    "epsilon",
    "sa",
    "sb",
    "engines",
    "format",
    "out",
    "tolerance",
    "nmax",
}


def config_reader(args: argparse.Namespace) -> Callable[[str], str | None]:
    """Look up a setting: its flag if given, else the --config file's value, else None."""
    file_values = read_config_file(args.config) if args.config else {}

    def pick(key: str) -> str | None:
        flag = getattr(args, key, None)
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

    experiment = pick("experiment")
    if experiment not in (EXPERIMENT_FOCK, EXPERIMENT_COHERENT):
        raise UsageError("--experiment must be type1 or type2")
    statistics_text = pick("statistics")
    if statistics_text not in ("boson", "fermion"):
        raise UsageError("--statistics must be boson or fermion")
    statistics = Statistics(statistics_text)

    if experiment == EXPERIMENT_FOCK:
        for key in ("n", "epsilon"):
            if pick(key) is not None:
                raise UsageError(f"--{key} does not apply to type1")
        raw_n1, raw_n2, raw_n3 = pick("n1"), pick("n2"), pick("n3")
        if raw_n1 is None or raw_n2 is None or raw_n3 is None:
            raise UsageError("type1 needs --n1, --n2 and --n3")
        n1 = parse_int_grid(raw_n1, "n1")
        n2 = parse_int_grid(raw_n2, "n2")
        n3 = parse_int_grid(raw_n3, "n3")
        try:
            validate_fock_point(min(n1), min(n2), min(n3))
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        points = [{"n1": a, "n2": b, "n3": c} for a in n1 for b in n2 for c in n3]
    else:
        for key in ("n1", "n2", "n3"):
            if pick(key) is not None:
                raise UsageError(f"--{key} does not apply to type2")
        raw_n, raw_eps = pick("n"), pick("epsilon")
        if raw_n is None or raw_eps is None:
            raise UsageError("type2 needs --n and --epsilon")
        n = parse_int_grid(raw_n, "n")
        epsilon = parse_float_grid(raw_eps, "epsilon")
        try:
            for e in epsilon:
                validate_coherent_point(min(n), e)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        points = [{"n": a, "epsilon": e} for a in n for e in epsilon]

    try:
        sa = parse_complex(pick("sa") or "1")
        sb = parse_complex(pick("sb") or "1")
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    engines: tuple[str, ...] | None = None
    engines_text = pick("engines")
    if engines_text is not None:
        engines = tuple(part.strip() for part in engines_text.split(",") if part.strip())
        bad = [e for e in engines if e not in ALL_ENGINES]
        if bad or not engines:
            raise UsageError(f"--engines accepts a comma list from {', '.join(ALL_ENGINES)}")

    fmt = pick("format") or "table"
    if fmt not in ("table", "csv", "json"):
        raise UsageError("--format must be table, csv or json")

    return RunConfig(
        experiment=experiment,
        statistics=statistics,
        points=points,
        sa=sa,
        sb=sb,
        engines=engines,
        fmt=fmt,
        out=pick("out"),
        tolerance=parse_tolerance(pick("tolerance")),
    )


def point_total(experiment: str, point: dict) -> int:
    if experiment == EXPERIMENT_FOCK:
        return point["n1"] + point["n2"] + point["n3"]
    return point["n"]


def engines_for(
    experiment: str,
    statistics: Statistics,
    point: dict,
    requested: tuple[str, ...] | None,
    cap: int,
) -> tuple[str, ...]:
    total = point_total(experiment, point)
    fermionic = statistics is Statistics.FERMION
    if requested is not None:
        if "firstq" in requested and fermionic and total > cap:
            raise UsageError(
                f"first-quantized fermion engine capped at n = {cap}"
                " (set MIXBENCH_NMAX_CAP to raise)"
            )
        return requested
    if fermionic and total > cap:
        return tuple(e for e in ALL_ENGINES if e != "firstq")
    return ALL_ENGINES


def _initial_first_quantized(experiment: str, statistics: Statistics, point: dict):
    if experiment == EXPERIMENT_FOCK:
        return fock_initial_state(point["n1"], point["n2"], point["n3"], statistics)
    return coherent_initial_state(point["n"], point["epsilon"], statistics)


def _initial_occupation(experiment: str, statistics: Statistics, point: dict):
    if experiment == EXPERIMENT_FOCK:
        return fock_occupation_state(point["n1"], point["n2"], point["n3"], statistics)
    return coherent_occupation_state(point["n"], point["epsilon"], statistics)


Evaluator = Callable[[complex, complex], float]


def point_evaluators(
    experiment: str,
    statistics: Statistics,
    point: dict,
    engines: tuple[str, ...],
) -> dict[str, Evaluator]:
    """Per-engine callables (sa, sb) -> amplitude for one grid point.

    The first-quantized scattering is applied once here, without per-path
    records, and only its (ca, cb) pairs are kept: no final state is built.
    Evaluating them at concrete amplitudes is cheap, so sweeping several
    (sa, sb) pairs per point reuses the expensive part.
    """
    evaluators: dict[str, Evaluator] = {}
    if "firstq" in engines:
        pairs = apply_first_order(
            _initial_first_quantized(experiment, statistics, point), paths=False
        ).coefficients
        evaluators["firstq"] = partial(coefficient_norm, pairs)
    if "oracle" in engines:
        initial = _initial_occupation(experiment, statistics, point)

        def oracle(sa: complex, sb: complex) -> float:
            return oracle_scattered_norm(apply_fwm_operator(initial, sa, sb))

        evaluators["oracle"] = oracle
    if "closed" in engines:
        if experiment == EXPERIMENT_COHERENT:
            closed = partial(coherent_amplitude, point["n"], point["epsilon"])
        elif statistics is Statistics.BOSON:
            closed = partial(fock_boson_amplitude, point["n1"], point["n2"], point["n3"])
        else:
            closed = partial(fock_fermion_amplitude, point["n1"], point["n2"], point["n3"])
        evaluators["closed"] = closed
    return evaluators


def divergence_note(experiment: str, statistics: Statistics, point: dict) -> str | None:
    if experiment == EXPERIMENT_FOCK and statistics is Statistics.FERMION:
        case = fock_fermion_case(point["n1"], point["n2"], point["n3"])
        if case in CROSS_CASES:
            return (
                f"closed-form cross term ({case}) uses +2*(min(n1,n2)-n3);"
                " exact enumeration gives -(min(n1,n2)-n3)"
            )
    return None


def evaluate_point(
    experiment: str,
    statistics: Statistics,
    point: dict,
    sa: complex,
    sb: complex,
    evaluators: dict[str, Evaluator],
    tolerance: float,
) -> VerificationRecord:
    values = {engine: evaluate(sa, sb) for engine, evaluate in evaluators.items()}
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
        known = divergence_note(experiment, statistics, point)
        if exact_ok and known is not None:
            status = STATUS_KNOWN
            note = known
        else:
            status = STATUS_FAIL
            note = "engines disagree beyond tolerance"
    return VerificationRecord(
        experiment=experiment,
        statistics=statistics.value,
        n1=point.get("n1"),
        n2=point.get("n2"),
        n3=point.get("n3"),
        n=point_total(experiment, point),
        epsilon=point.get("epsilon"),
        sa=sa,
        sb=sb,
        values=values,
        max_deviation=max_dev,
        status=status,
        note=note,
    )


def grid_records(
    grids: list[tuple[str, Statistics, list[dict]]],
    requested: tuple[str, ...] | None,
    pairs: tuple[tuple[complex, complex], ...],
    tolerance: float,
) -> list[VerificationRecord]:
    """Walk (experiment, statistics, points) grids: one record per point and (sa, sb) pair.

    Each point's evaluators are built once and shared by its pairs.
    """
    cap = nmax_cap()
    records = []
    for experiment, statistics, points in grids:
        for point in points:
            engines = engines_for(experiment, statistics, point, requested, cap)
            evaluators = point_evaluators(experiment, statistics, point, engines)
            for sa, sb in pairs:
                records.append(
                    evaluate_point(experiment, statistics, point, sa, sb, evaluators, tolerance)
                )
    return records


def run_records(cfg: RunConfig) -> list[VerificationRecord]:
    grid = (cfg.experiment, cfg.statistics, cfg.points)
    return grid_records([grid], cfg.engines, ((cfg.sa, cfg.sb),), cfg.tolerance)


def _record_point(record: VerificationRecord) -> dict:
    """The fields that open every serialized record: what was computed, and where."""
    return {
        "experiment": record.experiment,
        "statistics": record.statistics,
        "n1": record.n1,
        "n2": record.n2,
        "n3": record.n3,
        "n": record.n,
        "epsilon": record.epsilon,
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
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({key: _csv_cell(row[key]) for key in CSV_COLUMNS})
    return buffer.getvalue()


def _point_text(record: VerificationRecord) -> str:
    if record.experiment == EXPERIMENT_FOCK:
        return f"n1={record.n1} n2={record.n2} n3={record.n3}"
    return f"n={record.n} eps={record.epsilon:g}"


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
            _point_text(record),
            format_complex(record.sa),
            format_complex(record.sb),
        ]
        for engine in engines:
            value = record.values.get(engine)
            row.append("-" if value is None else f"{value:.12g}")
        row += [f"{record.max_deviation:.3e}", record.status, record.note]
        rows.append(row)
    return text_table(headers, rows) + "\n"


def render_path_table(paths: list[PathRecord]) -> str:
    headers = ["source", "process", "slots", "sign", "contribution", "destination"]
    rows = [
        [
            render_term(p.source_term),
            p.process,
            f"{p.phi_slot},{p.psi_slot}",
            f"{p.sign:+d}",
            format_form(p.contribution),
            render_term(p.destination_term),
        ]
        for p in paths
    ]
    return text_table(headers, rows)


def render_records(records: list[VerificationRecord], fmt: str) -> str:
    if fmt == "table":
        return records_to_table(records)
    rows = record_rows(records)
    if fmt == "csv":
        return rows_to_csv(rows)
    return json.dumps(rows, indent=2) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _do_run(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    records = run_records(cfg)
    _write_output(render_records(records, cfg.fmt), cfg.out)
    return 1 if any(r.status == STATUS_FAIL for r in records) else 0


def _check_fermion_destination(destination: ProductTerm) -> None:
    """Reject a fermion destination that ``path_report`` cannot canonicalize.

    A destination with no q labels is a sector query and may repeat slots.
    Any other must name each slot once and label all or none of each mode's
    slots.
    """
    if all(slot.q is None for slot in destination):
        return
    seen = set()
    for slot in destination:
        if slot in seen:
            raise UsageError(f"fermion destination repeats {render_term((slot,))}")
        seen.add(slot)
    labelled = {slot.mode for slot in destination if slot.q is not None}
    mixed = sorted(labelled & {slot.mode for slot in destination if slot.q is None})
    if mixed:
        raise UsageError(
            f"fermion destination mixes labelled and unlabelled {mixed[0].label} slots"
        )


def _do_paths(args: argparse.Namespace) -> int:
    cfg = build_config(args)
    if cfg.fmt == "csv":
        raise UsageError("paths --format must be table or json")
    if len(cfg.points) != 1:
        raise UsageError("paths needs a single parameter point, not a grid")
    point = cfg.points[0]
    engines_for(cfg.experiment, cfg.statistics, point, ("firstq",), nmax_cap())
    try:
        destination = parse_term(args.destination)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    n = point_total(cfg.experiment, point)
    if len(destination) != n:
        raise UsageError(f"destination has {len(destination)} slots, state has {n} particles")
    if cfg.statistics is Statistics.FERMION:
        _check_fermion_destination(destination)
    result = apply_first_order(_initial_first_quantized(cfg.experiment, cfg.statistics, point))
    payload = []
    for dest, paths in path_report(result, destination).items():
        total = result.final_state.terms.get(dest)
        if total is None:
            payload.append((dest, paths, "0", 0j))
        else:
            payload.append((dest, paths, format_form(total), total.evaluate(cfg.sa, cfg.sb)))

    if cfg.fmt == "json":
        doc = [
            {
                "destination": render_term(dest),
                "paths": [path_to_dict(p) for p in paths],
                "total": rendered,
                "value": format_complex(value),
            }
            for dest, paths, rendered, value in payload
        ]
        _write_output(json.dumps(doc, indent=2) + "\n", cfg.out)
        return 0
    lines = []
    total_paths = 0
    for dest, paths, rendered, value in payload:
        lines.append(f"destination: {render_term(dest)}")
        if paths:
            lines.append(render_path_table(paths))
        lines.append(f"paths: {len(paths)}")
        lines.append(
            f"total: {rendered} = {format_complex(value)}"
            f" at sa={format_complex(cfg.sa)}, sb={format_complex(cfg.sb)}"
        )
        lines.append("")
        total_paths += len(paths)
    if len(payload) != 1:
        lines.append(f"matched destinations: {len(payload)}, paths: {total_paths}")
    _write_output("\n".join(lines).rstrip("\n") + "\n", cfg.out)
    return 0


def _fock_grid(nmax: int) -> list[tuple[int, int, int]]:
    grid = []
    for n1 in range(1, nmax):
        for n2 in range(1, nmax - n1 + 1):
            for n3 in range(0, nmax - n1 - n2 + 1):
                grid.append((n1, n2, n3))
    return grid


def _identity_record(name: str, max_dev: float, tolerance: float, note: str) -> VerificationRecord:
    status = STATUS_PASS if max_dev <= tolerance else STATUS_FAIL
    return VerificationRecord(
        experiment="identity",
        statistics=name,
        n1=None,
        n2=None,
        n3=None,
        n=None,
        epsilon=None,
        sa=0j,
        sb=0j,
        values={},
        max_deviation=max_dev,
        status=status,
        note=note,
    )


def verify_records(tolerance: float, nmax: int) -> list[VerificationRecord]:
    def fock_points(n_top: int) -> list[dict]:
        return [{"n1": n1, "n2": n2, "n3": n3} for n1, n2, n3 in _fock_grid(n_top)]

    def coherent_points(n_top: int) -> list[dict]:
        return [{"n": n, "epsilon": e} for n in range(2, n_top + 1) for e in VERIFY_EPSILONS]

    grids = [
        (EXPERIMENT_FOCK, Statistics.BOSON, fock_points(nmax)),
        (EXPERIMENT_FOCK, Statistics.FERMION, fock_points(min(nmax, 7))),
        (EXPERIMENT_COHERENT, Statistics.BOSON, coherent_points(nmax)),
        (EXPERIMENT_COHERENT, Statistics.FERMION, coherent_points(min(nmax, 6))),
    ]
    records = grid_records(grids, None, VERIFY_PAIRS, tolerance)

    # Closed-form counting identity: per-term gain times sqrt(distinct final
    # terms) reproduces the stimulated amplitude for every split of n <= 30.
    max_dev = 0.0
    for n1, n2, n3 in _fock_grid(30):
        counts = fock_counts(n1, n2, n3)
        lhs = math.sqrt(counts.distinct_final_terms) * counts.per_term_amplitude
        rhs = math.sqrt(n1 * n2 * (n3 + 1))
        max_dev = max(max_dev, abs(lhs - rhs) / max(1.0, abs(rhs)))
    records.append(
        _identity_record(
            "fock-counting",
            max_dev,
            1e-12,
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
            1e-12,
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
                n1=None,
                n2=None,
                n3=None,
                n=n,
                epsilon=0.2,
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
    out = pick("out") or "mixbench_verify.json"

    records = verify_records(tolerance, nmax)
    counts = {STATUS_PASS: 0, STATUS_KNOWN: 0, STATUS_FAIL: 0}
    for record in records:
        counts[record.status] += 1
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
    with open(out, "w", encoding="utf-8") as handle:
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


def _add_point_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--experiment", choices=(EXPERIMENT_FOCK, EXPERIMENT_COHERENT))
    parser.add_argument("--statistics", choices=("boson", "fermion"))
    parser.add_argument("--n1", help="phi-mode count (int, lo:hi or comma list)")
    parser.add_argument("--n2", help="psi-mode count (int, lo:hi or comma list)")
    parser.add_argument("--n3", help="seed v-mode count (int, lo:hi or comma list)")
    parser.add_argument("--n", help="total particle count for type2")
    parser.add_argument("--epsilon", help="v amplitude squared per particle for type2")
    parser.add_argument("--sa", help="process A amplitude, a+bi form (default 1)")
    parser.add_argument("--sb", help="process B amplitude, a+bi form (default 1)")
    parser.add_argument("--engines", help="comma list from firstq, oracle, closed")
    parser.add_argument("--format", dest="format", choices=("table", "csv", "json"))
    parser.add_argument("--out", help="write the output to a file instead of stdout")
    parser.add_argument("--tolerance", help="cross-engine comparison tolerance")
    parser.add_argument("--config", help="flat key = value config file; flags override")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixbench",
        description="Exact combinatorial simulator for multi-particle"
        " four-wave-mixing amplitudes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser(
        "run", aliases=["sweep"], help="compute amplitudes at parameter points or grids"
    )
    _add_point_arguments(run_parser)

    paths_parser = sub.add_parser("paths", help="list scattering paths into one final term")
    _add_point_arguments(paths_parser)
    paths_parser.add_argument(
        "destination",
        help="final term, e.g. 'v v u' (fermions may omit q labels to aggregate)",
    )

    verify_parser = sub.add_parser("verify", help="run the cross-engine verification grid")
    verify_parser.add_argument("--tolerance")
    verify_parser.add_argument("--nmax")
    verify_parser.add_argument("--out")
    verify_parser.add_argument("--config")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            return _do_run(args)
        if args.command == "paths":
            return _do_paths(args)
        return _do_verify(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
