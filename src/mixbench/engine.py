"""First-order pair-scattering engine with optional path provenance.

One scattering event takes a phi particle and a psi particle to the output
modes.  Process A sends the phi particle to v and the psi particle to u;
process B exchanges the outputs.  The engine applies the event once to
every stored term, enumerates one path per (term, phi slot, psi slot,
process), and sums the paths' signed values per destination term in the
same single loop, so its work grows with the number of paths.

Inside the loop every term is one int.  Bosonic slots carry no q label,
so a bosonic term is its modes packed in base 4 (width 1), slot 0 as the
most significant digit, and numeric order is canonical term order.  Each
distinct slot is mapped once to its ASCII digit ``48 + mode``; a term's
digits read with ``int(digits, 4)`` are its key, and the 0/1 patterns of
its phi and psi positions, taken with ``bytes.translate``, look up the
(slot, lift in A, lift in B) lists that one call builds the first time a
pattern appears.  A path adds one lift per moved slot to the key and
builds no key tuple.  A fermionic slot is the int ``mode * width + q``,
with ``width`` one more than the largest q of the state, and a fermionic
term is an int bitmask: code c is bit ``4 * width - 1 - c``, so the lowest
code is the highest bit and descending masks are ascending Slater keys.  A path
clears the phi and psi bits and sets the new v and u bits, which is one
fixed lift per slot again.  Its sign is the first-quantized one: the parity
of the kept slots strictly between each old code and its new code, plus
one crossing when the new pair lands in swapped order, which process B
always does and process A never does.  Each slot's count is taken once per
term from the whole mask, and a path adds its two slots' parities.  The
loop leaves one ``[ca, cb, key]`` sum per destination key.

The source state holds plain complex coefficients and the result holds
``(ca, cb)`` pairs: ca collects process A's paths and cb process B's, so a
final coefficient is ``ca*sa + cb*sb``.  ``ScatterResult.sums`` is the
result's one output: the sums sorted once into canonical term order, exact
zeros pruned.  ``coefficients`` lists their pairs; ``final_state``, a
library view no CLI path reads, builds a ``ScatteredState`` of one
validated ``AmplitudeForm`` per final term when it is first read.
Scattering a scattered state fails with ``TypeError``: a path multiplies
its source coefficient by its sign, and a form is no number.  With
``paths=True`` (the default) a path is kept as a plain tuple of ints, its
value and its destination's sum; its ``PathRecord`` is built when
``ScatterResult.paths`` is first read.  With ``paths=False`` the loop
keeps no record at all, for callers such as ``run`` and ``verify`` that
need only the coefficients.  ``oracle`` also codes fermions as bitmasks,
but ranks and signs them with its own ladder-operator loop; the two
routes share no scattering code, so each checks the other.

The scattered norm is ``coefficient_norm(result.coefficients, sa, sb)``,
which builds no final state.
``path_report`` owns a ``paths`` listing: it checks and canonicalizes the
destination, widens an unlabelled fermion destination to its sector, sorts
the paths and hands back each matched destination's sum.  ``source_sector`` is
the one sector whose terms have paths into a destination's sector: every
path moves one phi and one psi particle to v and u, so a path out of sector
(phi, psi, v, u) lands in (phi - 1, psi - 1, v + 1, u + 1) and no other
term adds a path or a coefficient there.  Scattering only the terms of
that sector, in the whole state's order, gives each destination of its
sector the same contributions in the same order, so its sum is
bit-identical to the one the whole state's scatter gives.
"""

from __future__ import annotations

from cmath import isfinite
from functools import cache, cached_property
from itertools import compress
from operator import itemgetter
from typing import Callable, NamedTuple

from .amplitudes import AmplitudeForm, ensure_finite
from .states import (
    ManyBodyState,
    Mode,
    ProductTerm,
    SectorSpec,
    SingleParticleState,
    Statistics,
    canonical_fermion_term,
    render_term,
    sector_of,
)

__all__ = [
    "PROCESS_A",
    "PROCESS_B",
    "PathRecord",
    "ScatterResult",
    "ScatteredState",
    "apply_first_order",
    "check_destination",
    "path_report",
    "source_sector",
]

PROCESS_A = "A"
PROCESS_B = "B"
# Process by component: where it puts its value, 0 for ca, 1 for cb.
_PROCESSES = (PROCESS_A, PROCESS_B)


class PathRecord(NamedTuple):
    """Provenance of a single scattering path.

    Slot indices are 0-based positions in the stored source term.  The sign
    is +1 for bosons; for fermions it is the parity picked up when the
    destination term is brought back to canonical slot order.  ``value`` is
    sign * (source coefficient), which adds to the destination's ca in
    process A and to its cb in process B.  Records are built from the
    engine's compact per-path tuples on the first read of
    ``ScatterResult.paths``.
    """

    source_term: ProductTerm
    process: str
    phi_slot: int
    psi_slot: int
    sign: int
    value: complex
    destination_term: ProductTerm


class ScatteredState(NamedTuple):
    """Sparse map from product terms to the ``(ca, cb)`` forms of a scattered state.

    Terms are in canonical order, and a term whose ca and cb are both exact
    zeros is not stored.
    """

    statistics: Statistics
    n: int
    terms: dict[ProductTerm, AmplitudeForm]


class ScatterResult:
    """The scattered ``(ca, cb)`` coefficients and the provenance of every path into them.

    ``sums`` is the result's one output: a ``[ca, cb, key]`` list per final
    term, in canonical term order, a term whose ca and cb are both exact
    zeros left out.  A key is an int: the packed modes of a bosonic term,
    listed ascending, or the bitmask of a fermionic one, listed descending.
    Every view reads ``sums``: ``coefficients`` lists its ``(ca, cb)``
    pairs, and ``final_state`` and ``paths`` decode each key to its term
    once, through one cached decoder.

    A result built with records holds each path as a compact tuple
    ``(source index, component, phi slot, psi slot, sign, value, sum)``;
    ``paths`` turns them into ``PathRecord``s in path order on its first
    read and caches the tuple.  A result built with ``paths=False`` holds no
    records: its first read of ``paths`` re-runs the scatter on the source
    state with records, once, and caches that tuple instead.
    """

    def __init__(
        self,
        source: ManyBodyState,
        records: list[tuple] | None,
        sums: dict[int, list],
        width: int,
    ) -> None:
        self._source = source
        self._records = records
        self._width = width
        # Descending fermion masks are ascending Slater keys.
        descending = source.statistics is Statistics.FERMION
        ordered = sorted(sums.values(), key=itemgetter(2), reverse=descending)
        self.sums = [total for total in ordered if total[0] != 0 or total[1] != 0]

    @property
    def coefficients(self) -> list[tuple[complex, complex]]:
        """The ``(ca, cb)`` pairs of ``sums``, built on each read.

        A sum that is not finite raises the ``ValueError`` its form would.
        """
        pairs = []
        for ca, cb, _ in self.sums:
            if not (isfinite(ca) and isfinite(cb)):
                ensure_finite(ca, "ca")
                ensure_finite(cb, "cb")
            pairs.append((ca, cb))
        return pairs

    @cached_property
    def final_state(self) -> ScatteredState:
        term_of = self._term_of
        final = {term_of(key): AmplitudeForm(ca=ca, cb=cb) for ca, cb, key in self.sums}
        return ScatteredState(self._source.statistics, self._source.n, final)

    @cached_property
    def paths(self) -> tuple[PathRecord, ...]:
        records = self._records
        if records is None:
            return apply_first_order(self._source).paths
        term_of = self._term_of
        sources = tuple(self._source.terms)
        built: list = [None] * len(records)
        # Pop each compact record as its PathRecord is made, so the two
        # lists never both hold every path.
        for at in range(len(records) - 1, -1, -1):
            index, component, i, j, sign, value, total = records.pop()
            built[at] = PathRecord(
                sources[index], _PROCESSES[component], i, j, sign, value, term_of(total[2])
            )
        return tuple(built)

    @cached_property
    def _term_of(self) -> Callable[[int], ProductTerm]:
        """The key-to-term decoder, cached so that each key is decoded once."""
        width, n = self._width, self._source.n
        fermion = self._source.statistics is Statistics.FERMION
        base, top = 4 * width, 4 * width - 1
        table = [
            SingleParticleState(Mode(code // width), code % width or None) for code in range(base)
        ]

        @cache
        def term_of(key: int) -> ProductTerm:
            if fermion:
                # Highest bit first: that is the lowest code, as in a Slater key.
                term = []
                while key:
                    bit = key.bit_length() - 1
                    term.append(table[top - bit])
                    key ^= 1 << bit
                return tuple(term)
            term = [None] * n
            for at in range(n - 1, -1, -1):
                key, code = divmod(key, base)
                term[at] = table[code]
            return tuple(term)

        return term_of


def apply_first_order(state: ManyBodyState, *, paths: bool = True) -> ScatterResult:
    """Apply one pair-scattering event to every term of the state.

    For every stored term and every ordered pair of a phi slot and a psi
    slot, both processes are attempted.  A fermionic path is blocked (emits
    nothing) when the destination single-particle state is already occupied
    in the source term.  Bosonic paths are never blocked.  Each
    destination's ca and cb are summed in path order; the result's ``sums``
    list the destinations in canonical term order, exact zeros pruned.  An
    empty bosonic term or a bosonic slot with a q label, or a fermionic key
    that is not canonical or whose q labels are not ints >= 1, raises
    ``ValueError``.

    A bosonic term is decoded from its mode bytes: its digits ``48 + mode``
    read in base 4 give its key, and its phi and psi position patterns
    pick lift lists that live only as long as this call.

    ``paths=False`` keeps no per-path record; the sums are the same, bit for
    bit.  Reading ``.paths`` on such a result then re-runs this scatter once
    with records.
    """
    if state.statistics is Statistics.FERMION:
        return _scatter_fermions(state, paths)
    # An empty term has no digits to read in base 4.
    if () in state.terms:
        raise ValueError("product term needs at least one slot")
    slots = {slot for term in state.terms for slot in term}
    if any(slot.q is not None for slot in slots):
        raise ValueError("bosonic slots carry no q label")
    # Process A adds 2 to the phi digit (v) and to the psi digit (u); process
    # B adds 3 to phi's (u) and 1 to psi's (v), each times the slot's weight.
    digit = {slot: 48 + slot.mode for slot in slots}.__getitem__
    weights = [4 ** (state.n - 1 - k) for k in range(state.n)]
    phi_lifts = [(k, 2 * weight, 3 * weight) for k, weight in enumerate(weights)]
    psi_lifts = [(k, 2 * weight, weight) for k, weight in enumerate(weights)]
    # A term's phi (psi) positions as a 0/1 byte pattern, and per pattern
    # seen in this call its (slot, lift in A, lift in B) list.
    phi_pattern = bytes.maketrans(b"0123", bytes((1, 0, 0, 0)))
    psi_pattern = bytes.maketrans(b"0123", bytes((0, 1, 0, 0)))
    phis_of: dict[bytes, list] = {}
    psis_of: dict[bytes, list] = {}
    records: list[tuple] | None = [] if paths else None
    sums: dict = {}  # destination key -> [ca, cb, key], summed in path order
    get = sums.get
    for index, (term, coeff) in enumerate(state.terms.items()):
        digits = bytes(map(digit, term))
        packed = int(digits, 4)
        pattern = digits.translate(phi_pattern)
        phis = phis_of.get(pattern)
        if phis is None:
            phis = phis_of[pattern] = list(compress(phi_lifts, pattern))
        pattern = digits.translate(psi_pattern)
        psis = psis_of.get(pattern)
        if psis is None:
            psis = psis_of[pattern] = list(compress(psi_lifts, pattern))
        # Bosonic values are 1 * coeff; the product is kept for its signed zeros.
        plus = 1 * coeff
        # Both processes of one slot pair, written out: no tuple per path.
        for i, phi_a, phi_b in phis:
            start_a, start_b = packed + phi_a, packed + phi_b
            for j, psi_a, psi_b in psis:
                dest = start_a + psi_a
                total = get(dest)
                if total is None:
                    total = sums[dest] = [plus, 0j, dest]
                else:
                    total[0] += plus
                if paths:
                    records.append((index, 0, i, j, 1, plus, total))
                dest = start_b + psi_b
                total = get(dest)
                if total is None:
                    total = sums[dest] = [0j, plus, dest]
                else:
                    total[1] += plus
                if paths:
                    records.append((index, 1, i, j, 1, plus, total))
    return ScatterResult(state, records, sums, 1)


def _scatter_fermions(state: ManyBodyState, paths: bool) -> ScatterResult:
    """The fermionic scatter on bitmask keys: slot code c is bit ``4 * width - 1 - c``.

    The sign of a path is the parity of the kept slots strictly between each
    old code and its new one, plus one crossing when the new pair lands in
    swapped order: process B always swaps it (u(q) above v(q')), process A
    never does.  Each slot's count is taken once per term against the whole
    key.  Of the moved pair, only the psi slot lies in such a range, in the
    phi slot's, so a path's parity is the sum of its two slots' counts, less
    one in both processes, plus one in B.  The moved flags are disjoint from
    the kept ones, so a destination is the source mask plus one lift per slot.
    """
    slots = {slot for term in state.terms for slot in term}
    for slot in slots:
        if not isinstance(slot.q, int) or slot.q < 1:
            raise ValueError("fermionic state keys must be canonical")
    width = 1 + max((slot.q for slot in slots), default=0)
    top = 4 * width - 1
    flag = [1 << (top - code) for code in range(4 * width)]

    def move(code: int, target: int) -> tuple[int, int, int]:
        """The target's flag, the lift from the code's flag to it, and the codes between."""
        return flag[target], flag[target] - flag[code], (flag[code] - 1) ^ ((flag[target] << 1) - 1)

    # Per phi or psi code, its move in process A and then in B: phi(q) goes
    # to v(q) in A and u(q) in B; psi(q') goes to u(q') in A and v(q') in B.
    moves = [
        move(code, code + 2 * width) + move(code, code + (3 if code < width else 1) * width)
        for code in range(2 * width)
    ]
    records: list[tuple] | None = [] if paths else None
    sums: dict = {}  # destination mask -> [ca, cb, mask], summed in path order
    get = sums.get
    for index, (term, coeff) in enumerate(state.terms.items()):
        codes = [mode * width + q for mode, q in term]
        mask = 0
        for code in codes:
            mask |= flag[code]
        # A Slater key lists distinct slots in increasing code order.
        if mask.bit_count() != len(codes) or sorted(codes) != codes:
            raise ValueError("fermionic state keys must be canonical")
        # Each value is +-1 * coeff; the product is kept for its signed zeros.
        even, odd = (1, 1 * coeff), (-1, -1 * coeff)
        # A phi slot holds, per process, its start (mask plus its lift) and
        # the (sign, value) picked by the psi slot's parity; a psi slot holds
        # its lift and parity.  A start or lift is None where the target is
        # occupied, which blocks every path of that process through the slot.
        phis, psis = [], []
        for at, code in enumerate(codes):
            if code >= 2 * width:
                break
            target_a, lift_a, between_a, target_b, lift_b, between_b = moves[code]
            parity_a = (mask & between_a).bit_count() & 1
            parity_b = (mask & between_b).bit_count() & 1
            if code < width:
                # phi's count holds the psi slot, which both processes take
                # off; B's swap puts one crossing back.
                phis.append((
                    at,
                    None if mask & target_a else mask + lift_a,
                    (even, odd) if parity_a else (odd, even),
                    None if mask & target_b else mask + lift_b,
                    (odd, even) if parity_b else (even, odd),
                ))
            else:
                psis.append((
                    at,
                    None if mask & target_a else lift_a,
                    parity_a,
                    None if mask & target_b else lift_b,
                    parity_b,
                ))
        for i, start_a, pick_a, start_b, pick_b in phis:
            for j, lift_a, parity_a, lift_b, parity_b in psis:
                if start_a is not None and lift_a is not None:
                    dest = start_a + lift_a
                    sign, value = pick_a[parity_a]
                    total = get(dest)
                    if total is None:
                        total = sums[dest] = [value, 0j, dest]
                    else:
                        total[0] += value
                    if paths:
                        records.append((index, 0, i, j, sign, value, total))
                if start_b is not None and lift_b is not None:
                    dest = start_b + lift_b
                    sign, value = pick_b[parity_b]
                    total = get(dest)
                    if total is None:
                        total = sums[dest] = [0j, value, dest]
                    else:
                        total[1] += value
                    if paths:
                        records.append((index, 1, i, j, sign, value, total))
    return ScatterResult(state, records, sums, width)


def source_sector(destination: ProductTerm) -> SectorSpec:
    """The one sector whose terms have paths into the destination's sector.

    A path takes one phi and one psi particle to v and u, so only a term
    with one more phi and psi particle, and one fewer v and u particle,
    than the destination can reach it.  A destination with no v or no u
    particle gives a negative count, a sector no term is in.
    """
    phi, psi, v, u = sector_of(destination)
    return SectorSpec(phi + 1, psi + 1, v - 1, u - 1)


def check_destination(destination: ProductTerm, statistics: Statistics, n: int) -> None:
    """Reject a destination that ``path_report`` can never match or cannot canonicalize.

    A destination has one slot per particle, and bosonic slots carry no q
    label.  A fermion destination labels every slot, each once, or none,
    which makes it a sector query that may repeat slots.  A destination that
    breaks any of these rules raises ``ValueError``.
    """
    if len(destination) != n:
        raise ValueError(f"destination has {len(destination)} slots, state has {n} particles")
    labelled = [slot for slot in destination if slot.q is not None]
    if not labelled:
        return
    if statistics is Statistics.BOSON:
        raise ValueError(f"bosonic slots carry no q label, got {render_term(labelled[:1])}")
    for at, slot in enumerate(destination):
        if slot in destination[:at]:
            raise ValueError(f"fermion destination repeats {render_term((slot,))}")
    if len(labelled) != len(destination):
        raise ValueError("fermion destination must label every slot with q, or none")


def path_report(
    result: ScatterResult, destination: ProductTerm
) -> dict[ProductTerm, tuple[list[PathRecord], tuple[complex, complex]]]:
    """The paths into a destination and its ``(ca, cb)`` sum, by destination term.

    A destination that ``check_destination`` rejects raises ``ValueError``.
    A fermionic destination is canonicalized, so any slot ordering of the
    same Slater key selects the same report.  A fermionic destination with
    no q labels selects every labelled destination of its sector, in
    rendered order, or maps to itself with no paths when no path lands in
    that sector, as when all are Pauli blocked.  Paths are ordered by their
    source term's rendering; the stable sort keeps the scatter's order
    within one source, which is process A before B, as only the two paths
    of one slot pair can share a source and a destination.  A destination's
    sum is its entry of ``result.sums``, or ``(0j, 0j)`` when it has none:
    no path reaches it, or its paths cancel exactly.
    """
    check_destination(destination, result._source.statistics, result._source.n)
    by_destination: dict[ProductTerm, list[PathRecord]] = {}
    for path in result.paths:
        by_destination.setdefault(path.destination_term, []).append(path)
    if result._source.statistics is not Statistics.FERMION:
        matches = [destination]
    elif all(slot.q is None for slot in destination):
        wanted = sector_of(destination)
        matches = sorted(
            (dest for dest in by_destination if sector_of(dest) == wanted), key=render_term
        ) or [destination]
    else:
        matches = [canonical_fermion_term(destination)[0]]
    term_of = result._term_of  # cached; .paths on a result with records has filled it
    totals = {term_of(key): (ca, cb) for ca, cb, key in result.sums}
    text = cache(render_term)  # each source rendered once per call
    return {
        dest: (
            sorted(by_destination.get(dest, ()), key=lambda p: text(p.source_term)),
            totals.get(dest, (0j, 0j)),
        )
        for dest in matches
    }
