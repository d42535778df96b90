"""Correctness checks for the benchmark, computed apart from mixbench.

Every expected value here comes from a closed expression or a counting
argument written out below; nothing is compared against stored output of
the program, and nothing is imported from it.
"""

from __future__ import annotations

import math

TOLERANCE = 1e-10

STATUS_PASS = "pass"
STATUS_KNOWN = "known-divergence"
EXACT_ENGINES = ("firstq", "oracle")
RUN_ENGINES = frozenset({"closed", "firstq", "oracle"})


class Tally:
    """Counts checked values and keeps the message of each that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def close(a: complex, b: complex, tol: float = TOLERANCE) -> bool:
    """Mixed absolute/relative agreement: |a-b| <= tol*max(1, |a|, |b|)."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def parse_complex_text(text: str) -> complex:
    """Read the ``a+bi`` form the CLI prints, e.g. ``0.3-0.1i`` or ``-i``."""
    s = text.strip()
    if not s.endswith("i"):
        return complex(float(s), 0.0)
    body = s[:-1]
    if body == "" or body[-1] in "+-":
        body += "1"
    return complex(body + "j")


def parse_form_text(text: str) -> tuple[complex, complex, complex]:
    """Read a rendered form such as ``0.5*sa + (-0.5)*sb`` into (c0, ca, cb)."""
    parts = {"": 0j, "sa": 0j, "sb": 0j}
    if text.strip() == "0":
        return 0j, 0j, 0j
    for part in text.split(" + "):
        coeff, _, name = part.partition("*")
        parts[name] += parse_complex_text(coeff.strip("()"))
    return parts[""], parts["sa"], parts["sb"]


def complex_arg(z: complex) -> str:
    """The ``a+bi`` text the CLI accepts for a process amplitude."""
    return f"{z.real!r}{z.imag:+}i"


def boson_type1(n1: int, n2: int, n3: int, sa: complex, sb: complex) -> float:
    """Stimulated boson amplitude sqrt(n1*n2*(n3+1))*|sA+sB|."""
    return math.sqrt(n1 * n2 * (n3 + 1)) * abs(sa + sb)


def fermion_type1_squared(n1: int, n2: int, n3: int, sa: complex, sb: complex) -> float:
    """Exact |A|^2 of fermion type1; exactly 0.0 when n3 >= max(n1, n2)."""

    def pos(x: int) -> int:
        return max(x, 0)

    return (
        pos(n1 - n3) * n2 * abs(sa) ** 2
        + pos(n2 - n3) * n1 * abs(sb) ** 2
        - 2 * pos(min(n1, n2) - n3) * (sa * sb.conjugate()).real
    )


def fermion_type1(n1: int, n2: int, n3: int, sa: complex, sb: complex) -> float:
    return math.sqrt(max(fermion_type1_squared(n1, n2, n3, sa, sb), 0.0))


def type2(n: int, epsilon: float, sa: complex, sb: complex) -> float:
    """Coherent amplitude sqrt(w*n*w*(n-1)*(eps*(n-2)+1))*|sA+sB|, w=(1-eps)/2."""
    w = (1.0 - epsilon) / 2.0
    return math.sqrt(w * n * w * (n - 1) * (epsilon * (n - 2) + 1.0)) * abs(sa + sb)


def multinomial(*counts: int) -> int:
    total = math.factorial(sum(counts))
    for count in counts:
        total //= math.factorial(count)
    return total


def _check_values(tally: Tally, values: dict[str, float], expected: float, where: str) -> None:
    for engine in sorted(values):
        tally.check(
            close(values[engine], expected),
            f"{where}: {engine} = {values[engine]!r}, expected {expected!r}",
        )


def check_run_rows(
    tally: Tally,
    rows: list[dict],
    experiment: str,
    statistics: str,
    point: dict,
    sa: complex,
    sb: complex,
) -> None:
    """Rows of ``mixbench run --format csv`` for boson type1 or type2 (either statistics)."""
    where = f"{experiment} {statistics} {point}"
    values = {row["engine"]: float(row["amplitude"]) for row in rows}
    tally.check(set(values) == RUN_ENGINES, f"{where}: engines {sorted(values)}")
    same_inputs = all(
        row["experiment"] == experiment
        and row["statistics"] == statistics
        and all(row[key] == str(value) for key, value in point.items())
        and parse_complex_text(row["sA"]) == sa
        and parse_complex_text(row["sB"]) == sb
        for row in rows
    )
    tally.check(same_inputs, f"{where}: rows echo other inputs")
    if experiment == "type2":
        expected = type2(point["n"], point["epsilon"], sa, sb)
    else:
        expected = boson_type1(point["n1"], point["n2"], point["n3"], sa, sb)
    _check_values(tally, values, expected, where)
    if all(e in values for e in EXACT_ENGINES):
        tally.check(
            close(values["firstq"], values["oracle"]),
            f"{where}: firstq {values['firstq']!r} != oracle {values['oracle']!r}",
        )


def _check_fock_record(tally: Tally, record: dict, where: str) -> str:
    """Checks one type1 record and returns the status it must carry."""
    n1, n2, n3 = record["n1"], record["n2"], record["n3"]
    sa, sb = parse_complex_text(record["sA"]), parse_complex_text(record["sB"])
    values = record["values"]
    tally.check(all(e in values for e in EXACT_ENGINES), f"{where}: exact engine missing")
    if record["statistics"] == "boson":
        _check_values(tally, values, boson_type1(n1, n2, n3, sa, sb), where)
        return STATUS_PASS
    expected = fermion_type1(n1, n2, n3, sa, sb)
    for engine in EXACT_ENGINES:
        value = values.get(engine)
        if n3 >= max(n1, n2):
            tally.check(value == 0.0, f"{where}: {engine} {value!r} is not an exact zero")
        else:
            tally.check(value is not None and close(value, expected), f"{where}: {engine} {value!r} != {expected!r}")
    closed = values.get("closed")
    # The published cross term applies where both inputs outnumber the seed.
    if n3 < min(n1, n2) and closed is not None and not close(closed, expected):
        return STATUS_KNOWN
    tally.check(closed is not None and close(closed, expected), f"{where}: closed {closed!r} != {expected!r}")
    return STATUS_PASS


def _check_identity_record(tally: Tally, record: dict, where: str) -> str:
    kind = record["statistics"]
    if kind == "coherent-gain":
        values = record["values"]
        tally.check(
            values.get("gain_published") == 2 * values.get("gain_ratio", math.nan),
            f"{where}: published gain is not twice the counted ratio",
        )
        return STATUS_KNOWN
    tally.check(
        kind in ("fock-counting", "coherent-normalization") and record["max_deviation"] <= 1e-12,
        f"{where}: identity {kind} deviates by {record['max_deviation']!r}",
    )
    return STATUS_PASS


def _grid_complete(keys: set) -> bool:
    """Fock points fill every (n1, n2, n3) up to the largest total; type2 every (n, eps)."""
    if not keys:
        return True
    if len(next(iter(keys))) == 3:
        top = max(sum(k) for k in keys)
        full = {
            (n1, n2, n3)
            for n1 in range(1, top)
            for n2 in range(1, top - n1 + 1)
            for n3 in range(0, top - n1 - n2 + 1)
        }
        return keys == full
    ns = {k[0] for k in keys}
    epsilons = {k[1] for k in keys}
    return keys == {(n, e) for n in range(2, max(ns) + 1) for e in epsilons}


def check_verify_report(tally: Tally, report: dict, summary: str) -> None:
    """The JSON report of ``mixbench verify`` and its one-line summary."""
    records = report["records"]
    statuses = {STATUS_PASS: 0, STATUS_KNOWN: 0, "fail": 0}
    grids: dict[tuple[str, str], dict] = {}
    for index, record in enumerate(records):
        where = f"verify record {index} ({record['experiment']} {record['statistics']})"
        statuses[record["status"]] = statuses.get(record["status"], 0) + 1
        experiment = record["experiment"]
        if experiment == "type1":
            want = _check_fock_record(tally, record, where)
            key = (record["n1"], record["n2"], record["n3"])
        elif experiment == "type2":
            sa, sb = parse_complex_text(record["sA"]), parse_complex_text(record["sB"])
            values = record["values"]
            tally.check(all(e in values for e in EXACT_ENGINES), f"{where}: exact engine missing")
            _check_values(tally, values, type2(record["n"], record["epsilon"], sa, sb), where)
            want = STATUS_PASS
            key = (record["n"], record["epsilon"])
        else:
            tally.check(experiment == "identity", f"{where}: unknown experiment")
            want = _check_identity_record(tally, record, where)
            key = None
        values = record["values"]
        if all(e in values for e in EXACT_ENGINES):
            tally.check(close(values["firstq"], values["oracle"]), f"{where}: firstq != oracle")
        tally.check(record["status"] == want, f"{where}: status {record['status']!r}, expected {want!r}")
        if key is not None:
            pairs = grids.setdefault((experiment, record["statistics"]), {})
            pairs.setdefault(key, []).append((record["sA"], record["sB"]))
    for (experiment, statistics), points in sorted(grids.items()):
        pair_sets = {tuple(sorted(p)) for p in points.values()}
        tally.check(
            _grid_complete(set(points)) and len(pair_sets) == 1,
            f"verify {experiment} {statistics}: grid has gaps or uneven (sA, sB) pairs",
        )
    counts = report["counts"]
    tally.check(statuses["fail"] == 0 and counts["fail"] == 0, f"verify reports {counts['fail']} fail")
    tally.check(
        counts == {"pass": statuses[STATUS_PASS], "known_divergence": statuses[STATUS_KNOWN], "fail": statuses["fail"]},
        f"verify counts {counts} do not match its records",
    )
    tally.check(
        summary.startswith(
            f"checked {len(records)} records: {statuses[STATUS_PASS]} pass,"
            f" {statuses[STATUS_KNOWN]} known-divergence, {statuses['fail']} fail"
        ),
        f"verify summary {summary!r} does not match its records",
    )


_MODE_LABELS = ("phi", "psi", "v", "u")


def _sector(term: str) -> tuple[tuple[int, ...], list[int]]:
    counts = [0, 0, 0, 0]
    labels = []
    for token in term.split():
        label, _, q = token.partition("(")
        counts[_MODE_LABELS.index(label)] += 1
        labels.append(int(q.rstrip(")")))
    return tuple(counts), labels


def check_paths_doc(
    tally: Tally,
    doc: list[dict],
    n: int,
    epsilon: float,
    destination: str,
    sa: complex,
    sb: complex,
) -> None:
    """``mixbench paths --format json`` for a type2 fermion point and an unlabelled destination.

    Particle i carries q = i, so no path is Pauli blocked: the labelled
    destinations are the multinomial orderings of the sector, and each is
    reached from every one of its n_v v particles by either process, when
    the sector holds exactly one u particle.
    """
    sector = tuple(destination.split().count(label) for label in _MODE_LABELS)
    n_phi, n_psi, n_v, n_u = sector
    destinations = multinomial(*sector)
    per_destination = 2 * n_v if n_u == 1 else 0
    tally.check(len(doc) == destinations, f"paths: {len(doc)} destinations, expected {destinations}")
    total_paths = sum(len(entry["paths"]) for entry in doc)
    tally.check(
        total_paths == destinations * per_destination,
        f"paths: {total_paths} path records, expected {destinations * per_destination}",
    )
    tally.check(
        len({entry["destination"] for entry in doc}) == len(doc), "paths: repeated destination"
    )
    # Source terms hold one extra phi and psi and one v fewer, so every
    # source coefficient has this magnitude.
    w_in = (1.0 - epsilon) / 2.0
    magnitude = math.sqrt(w_in ** (n_phi + n_psi + 2) * epsilon ** (n_v - 1))
    for entry in doc:
        dest = entry["destination"]
        dest_sector, labels = _sector(dest)
        tally.check(
            dest_sector == sector and sorted(labels) == list(range(1, n + 1)),
            f"paths: {dest} is not a labelled term of the requested sector",
        )
        tally.check(
            len(entry["paths"]) == per_destination,
            f"paths: {dest} has {len(entry['paths'])} paths, expected {per_destination}",
        )
        sum_a = sum_b = 0j
        for path in entry["paths"]:
            c0, ca, cb = (parse_complex_text(path["contribution"][k]) for k in ("c0", "ca", "cb"))
            sum_a += ca
            sum_b += cb
            own, other = (ca, cb) if path["process"] == "A" else (cb, ca)
            tally.check(
                path["destination"] == dest
                and c0 == 0
                and other == 0
                and close(abs(own), magnitude, 1e-12),
                f"paths: path from {path['source']} into {dest} has contribution {path['contribution']}",
            )
        t0, ta, tb = parse_form_text(entry["total"])
        tally.check(
            t0 == 0 and close(ta, sum_a) and close(tb, sum_b),
            f"paths: {dest} total {entry['total']} is not the sum of its contributions",
        )
        tally.check(
            close(parse_complex_text(entry["value"]), ta * sa + tb * sb),
            f"paths: {dest} value {entry['value']} != total at sa, sb",
        )
