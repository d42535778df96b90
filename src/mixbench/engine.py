"""First-order pair-scattering engine with full path provenance.

One scattering event takes a phi particle and a psi particle to the output
modes.  Process A sends the phi particle to v and the psi particle to u;
process B exchanges the outputs.  The engine applies the event once to
every stored term, records one path per (term, phi slot, psi slot,
process), and sums the paths' signed values per destination term in the
same single loop, so its work grows with the number of paths.

A fermionic source key is sorted, so its phi slots come first and the two
new states only move to the right.  Each destination key is made once: the
new states are inserted into the kept slots by bisection, and the sign is
the parity of the slots they cross, flipped once more if the pair swaps
order.  One validated form is built per final term; a path's own form is
built only when its ``contribution`` is read.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from .amplitudes import AmplitudeForm, format_complex, format_form
from .states import (
    ManyBodyState,
    Mode,
    ProductTerm,
    SectorSpec,
    SingleParticleState,
    Statistics,
    canonical_fermion_term,
    inner_product,
    is_canonical_fermion_term,
    project_sector,
    render_term,
)

__all__ = [
    "PROCESS_A",
    "PROCESS_B",
    "PathRecord",
    "ScatterResult",
    "apply_first_order",
    "path_report",
    "path_to_dict",
    "render_path_table",
    "scattered_norm",
    "sector_amplitude",
]

PROCESS_A = "A"
PROCESS_B = "B"


class PathRecord(NamedTuple):
    """Provenance of a single scattering path.

    Slot indices are 0-based positions in the stored source term.  The sign
    is +1 for bosons; for fermions it is the parity picked up when the
    destination term is brought back to canonical slot order.  ``value`` is
    sign * (source coefficient); ``contribution`` places it in the ca or cb
    component of a form, depending on the process, and is built on access.
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


@dataclass(frozen=True)
class ScatterResult:
    final_state: ManyBodyState
    paths: tuple[PathRecord, ...]


def apply_first_order(state: ManyBodyState) -> ScatterResult:
    """Apply one pair-scattering event to every term of the state.

    For every stored term and every ordered pair of a phi slot and a psi
    slot, both processes are attempted.  A fermionic path is blocked (emits
    nothing) when the destination single-particle state is already occupied
    in the source term.  Bosonic paths are never blocked.  Each
    destination's ca and cb are summed in path order; the final state lists
    the destinations in canonical term order, exact zeros pruned.
    """
    fermionic = state.statistics is Statistics.FERMION
    paths: list[PathRecord] = []
    # Destination -> [ca, cb], each summed in path order from its first path.
    sums: dict[ProductTerm, list[complex]] = {}
    for term, form in state.terms.items():
        if form.ca != 0 or form.cb != 0:
            raise ValueError("state was already scattered; the event applies only once")
        if fermionic:
            if not is_canonical_fermion_term(term):
                raise ValueError("fermionic state keys must be canonical")
            occupied = set(term)
        # Per slot: its index and its state after process A and after process B.
        phis = [
            (i, SingleParticleState(Mode.V, s.q), SingleParticleState(Mode.U, s.q))
            for i, s in enumerate(term)
            if s.mode is Mode.PHI
        ]
        psis = [
            (j, SingleParticleState(Mode.U, s.q), SingleParticleState(Mode.V, s.q))
            for j, s in enumerate(term)
            if s.mode is Mode.PSI
        ]
        for i, phi_a, phi_b in phis:
            for j, psi_a, psi_b in psis:
                # component: where the process puts its value, 0 for ca, 1 for cb
                for process, component, new_i, new_j in (
                    (PROCESS_A, 0, phi_a, psi_a),
                    (PROCESS_B, 1, phi_b, psi_b),
                ):
                    if fermionic:
                        # The two fresh states occupy different modes, so
                        # they never collide with each other.
                        if new_i in occupied or new_j in occupied:
                            continue
                        dest_term, sign = _fermion_destination(term, i, j, new_i, new_j)
                    else:
                        destination = list(term)
                        destination[i] = new_i
                        destination[j] = new_j
                        dest_term = tuple(destination)
                        sign = 1
                    value = sign * form.c0
                    paths.append(PathRecord(term, process, i, j, sign, value, dest_term))
                    total = sums.get(dest_term)
                    if total is None:
                        total = sums[dest_term] = [0j, 0j]
                        total[component] = value
                    else:
                        total[component] += value
    final = {
        term: AmplitudeForm(ca=ca, cb=cb)
        for term, (ca, cb) in sorted(sums.items())
        if ca != 0 or cb != 0
    }
    return ScatterResult(ManyBodyState(state.statistics, state.n, final), tuple(paths))


def _fermion_destination(
    term: ProductTerm,
    i: int,
    j: int,
    new_i: SingleParticleState,
    new_j: SingleParticleState,
) -> tuple[ProductTerm, int]:
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


def scattered_norm(state: ManyBodyState, sa: complex, sb: complex) -> float:
    """Norm of the scattered component at concrete process amplitudes."""
    final = apply_first_order(state).final_state
    value = inner_product(final, final, sa, sb)
    return math.sqrt(max(value.real, 0.0))


def sector_amplitude(
    state: ManyBodyState, sector: SectorSpec, sa: complex, sb: complex
) -> float:
    """Norm of the scattered component restricted to one output sector."""
    final = apply_first_order(state).final_state
    projected = project_sector(final, sector)
    value = inner_product(projected, projected, sa, sb)
    return math.sqrt(max(value.real, 0.0))


def path_report(state: ManyBodyState, destination: ProductTerm) -> list[PathRecord]:
    """All scattering paths of the state that land on one destination term.

    The destination is canonicalized for fermionic states, so any slot
    ordering of the same Slater key selects the same report.  Records are
    ordered by (source term rendering, process, slots).
    """
    if state.statistics is Statistics.FERMION:
        destination, _ = canonical_fermion_term(destination)
    result = apply_first_order(state)
    matches = [p for p in result.paths if p.destination_term == destination]
    matches.sort(key=lambda p: (render_term(p.source_term), p.process, p.phi_slot, p.psi_slot))
    return matches


def path_to_dict(path: PathRecord) -> dict:
    return {
        "source": render_term(path.source_term),
        "process": path.process,
        "phi_slot": path.phi_slot,
        "psi_slot": path.psi_slot,
        "sign": path.sign,
        "contribution": {
            "c0": format_complex(path.contribution.c0),
            "ca": format_complex(path.contribution.ca),
            "cb": format_complex(path.contribution.cb),
        },
        "destination": render_term(path.destination_term),
    }


def render_path_table(paths: list[PathRecord]) -> str:
    """Fixed-width text table of path records."""
    headers = ("source", "process", "slots", "sign", "contribution", "destination")
    rows = [
        (
            render_term(p.source_term),
            p.process,
            f"{p.phi_slot},{p.psi_slot}",
            f"{p.sign:+d}",
            format_form(p.contribution),
            render_term(p.destination_term),
        )
        for p in paths
    ]
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
