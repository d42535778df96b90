"""First-order pair-scattering engine with optional path provenance.

One scattering event takes a phi particle and a psi particle to the output
modes.  Process A sends the phi particle to v and the psi particle to u;
process B exchanges the outputs.  The engine applies the event once to
every stored term, enumerates one path per (term, phi slot, psi slot,
process), and sums the paths' signed values per destination term in the
same single loop, so its work grows with the number of paths.

Inside the loop a slot is the int ``mode * width + q`` (q = 0 for bosons),
with ``width`` one more than the largest q of the state, so terms are
tuples of ints that hash, compare and sort in canonical slot order.  A
fermionic source key is sorted, so its phi slots come first and the two
new states only move to the right.  Each destination key is made once: the
new states are inserted into the kept slots by bisection, and the sign is
the parity of the slots they cross, flipped once more if the pair swaps
order.  Each destination is decoded back to slots once, and one validated
form is built per final term.  With ``paths=True`` (the default) a path is
kept as a plain tuple of ints and its value; its ``PathRecord`` is built
when ``ScatterResult.paths`` is first read, and its own form only when its
``contribution`` is read.  With ``paths=False`` the loop keeps no record
at all, for callers such as ``run`` and ``verify`` that need only the
final state.

The scattered norm is ``state_norm(result.final_state, sa, sb)``.
``path_report`` owns which paths a ``paths`` request shows and in what
order: it canonicalizes the destination, widens an unlabelled fermion
destination to its sector, and sorts the paths.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from typing import NamedTuple

from .amplitudes import AmplitudeForm, format_complex
from .states import (
    ManyBodyState,
    Mode,
    ProductTerm,
    SingleParticleState,
    Statistics,
    canonical_fermion_term,
    is_canonical_fermion_term,
    render_term,
    sector_of,
)

__all__ = [
    "PROCESS_A",
    "PROCESS_B",
    "PathRecord",
    "ScatterResult",
    "apply_first_order",
    "path_report",
    "path_to_dict",
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
    sign * (source coefficient); ``contribution`` places it in the ca or cb
    component of a form, depending on the process, and is built on access.
    Records are built from the engine's compact per-path tuples on the first
    read of ``ScatterResult.paths``.
    """

    source_term: ProductTerm
    process: str
    phi_slot: int
    psi_slot: int
    sign: int
    value: complex
    destination_term: ProductTerm

    @property
    def contribution(self) -> AmplitudeForm:
        if self.process == PROCESS_A:
            return AmplitudeForm.process_a(self.value)
        return AmplitudeForm.process_b(self.value)


class ScatterResult:
    """The scattered state and the provenance of every path into it.

    A result built with records holds each path as a compact tuple
    ``(source index, component, phi slot, psi slot, sign, value, destination
    number)``; ``paths`` turns them into ``PathRecord``s in path order on its
    first read and caches the tuple.  A result built with ``paths=False``
    holds no records: its first read of ``paths`` re-runs the scatter on the
    source state with records, once, and caches that tuple instead.
    """

    def __init__(
        self,
        final_state: ManyBodyState,
        source: ManyBodyState,
        records: list[tuple] | None,
        destinations: list[ProductTerm],
    ) -> None:
        self.final_state = final_state
        self._source = source
        self._records = records
        self._destinations = destinations

    @cached_property
    def paths(self) -> tuple[PathRecord, ...]:
        records = self._records
        if records is None:
            return apply_first_order(self._source).paths
        sources, destinations = tuple(self._source.terms), self._destinations
        built: list = [None] * len(records)
        # Pop each compact record as its PathRecord is made, so the two
        # lists never both hold every path.
        for at in range(len(records) - 1, -1, -1):
            index, component, i, j, sign, value, number = records.pop()
            built[at] = PathRecord(
                sources[index], _PROCESSES[component], i, j, sign, value, destinations[number]
            )
        return tuple(built)


def apply_first_order(state: ManyBodyState, *, paths: bool = True) -> ScatterResult:
    """Apply one pair-scattering event to every term of the state.

    For every stored term and every ordered pair of a phi slot and a psi
    slot, both processes are attempted.  A fermionic path is blocked (emits
    nothing) when the destination single-particle state is already occupied
    in the source term.  Bosonic paths are never blocked.  Each
    destination's ca and cb are summed in path order; the final state lists
    the destinations in canonical term order, exact zeros pruned.

    ``paths=False`` keeps no per-path record; the final state is the same,
    bit for bit.  Reading ``.paths`` on such a result then re-runs this
    scatter once with records.
    """
    fermionic = state.statistics is Statistics.FERMION
    width = 1 + max((slot.q or 0 for term in state.terms for slot in term), default=0)
    to_v, to_u = 2 * width, 3 * width  # codes of v(0) and u(0)
    slots: dict[int, SingleParticleState] = {}  # code -> slot, for decoding
    records: list[tuple] | None = [] if paths else None
    numbers: dict[tuple[int, ...], int] = {}  # destination code -> its number
    sums: list[list[complex]] = []  # per number: [ca, cb], summed in path order
    for index, (term, form) in enumerate(state.terms.items()):
        if form.ca != 0 or form.cb != 0:
            raise ValueError("state was already scattered; the event applies only once")
        key = tuple([mode * width + (q or 0) for mode, q in term])
        slots.update(zip(key, term))
        if fermionic:
            if not is_canonical_fermion_term(key):
                raise ValueError("fermionic state keys must be canonical")
            occupied = set(key)
        # Bosonic values are 1 * c0; the product is kept for its signed zeros.
        plus, minus = 1 * form.c0, -1 * form.c0
        # (phi slot, psi slot, component, new phi state, new psi state): process A
        # takes phi (code q) to v(q) = phi + to_v and psi (code width + q) to
        # u(q) = psi + to_v; process B takes them to u = phi + to_u and v = psi + width.
        moves = [
            move
            for i, phi in enumerate(key)
            if phi < width
            for j, psi in enumerate(key)
            if width <= psi < to_v
            for move in ((i, j, 0, phi + to_v, psi + to_v), (i, j, 1, phi + to_u, psi + width))
        ]
        for i, j, component, new_i, new_j in moves:
            if fermionic:
                # The two fresh states occupy different modes, so they
                # never collide with each other.
                if new_i in occupied or new_j in occupied:
                    continue
                dest, sign = _fermion_destination(key, i, j, new_i, new_j)
                value = plus if sign > 0 else minus
            else:
                destination = list(key)
                destination[i] = new_i
                destination[j] = new_j
                dest = tuple(destination)
                sign, value = 1, plus
            number = numbers.get(dest)
            if number is None:
                number = numbers[dest] = len(sums)
                total = [0j, 0j]
                total[component] = value
                sums.append(total)
            else:
                sums[number][component] += value
            if paths:
                records.append((index, component, i, j, sign, value, number))
    # The fresh v and u states keep the q of the slot they came from.
    for code, slot in list(slots.items()):
        if code < to_v:
            q = code % width
            slots.setdefault(to_v + q, SingleParticleState(Mode.V, slot.q))
            slots.setdefault(to_u + q, SingleParticleState(Mode.U, slot.q))
    destinations = [tuple([slots[c] for c in code]) for code in numbers]
    final = {}
    for code, number in sorted(numbers.items()):
        ca, cb = sums[number]
        if ca != 0 or cb != 0:
            final[destinations[number]] = AmplitudeForm(ca=ca, cb=cb)
    final_state = ManyBodyState(state.statistics, state.n, final)
    return ScatterResult(final_state, state, records, destinations)


def _fermion_destination(
    term: tuple[int, ...],
    i: int,
    j: int,
    new_i: int,
    new_j: int,
) -> tuple[tuple[int, ...], int]:
    """Sorted key and parity of a sorted term whose slots i < j take new states.

    Every slot before i or j sorts below the v and u states, so each new
    state moves right across the kept slots up to its bisection point; the
    pair itself adds one more crossing when it ends up in swapped order.
    """
    kept = term[:i] + term[i + 1 : j] + term[j + 1 :]
    at_i = bisect_left(kept, new_i)
    at_j = bisect_left(kept, new_j)
    crossings = (at_i - i) + (at_j - (j - 1))
    if new_i < new_j:
        dest = kept[:at_i] + (new_i,) + kept[at_i:at_j] + (new_j,) + kept[at_j:]
    else:
        crossings += 1
        dest = kept[:at_j] + (new_j,) + kept[at_j:at_i] + (new_i,) + kept[at_i:]
    return dest, -1 if crossings % 2 else 1


def path_report(
    result: ScatterResult, destination: ProductTerm
) -> dict[ProductTerm, list[PathRecord]]:
    """The paths of one scatter result into a destination, by destination term.

    A fermionic destination is canonicalized, so any slot ordering of the
    same Slater key selects the same report.  A fermionic destination with
    no q labels selects every labelled destination of its sector, in
    rendered order, or maps to itself with no paths when no path lands in
    that sector, as when all are Pauli blocked.  Paths are ordered by
    (source term rendering, process, slots).
    """
    by_destination: dict[ProductTerm, list[PathRecord]] = {}
    for path in result.paths:
        by_destination.setdefault(path.destination_term, []).append(path)
    if result.final_state.statistics is not Statistics.FERMION:
        matches = [destination]
    elif all(slot.q is None for slot in destination):
        wanted = sector_of(destination)
        matches = sorted(
            (dest for dest in by_destination if sector_of(dest) == wanted), key=render_term
        ) or [destination]
    else:
        matches = [canonical_fermion_term(destination)[0]]
    return {
        dest: sorted(
            by_destination.get(dest, ()),
            key=lambda p: (render_term(p.source_term), p.process, p.phi_slot, p.psi_slot),
        )
        for dest in matches
    }


def path_to_dict(path: PathRecord) -> dict:
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
