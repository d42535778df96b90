"""Term builders and state transformations shared by the test modules."""

from mixbench.amplitudes import AmplitudeForm, format_form
from mixbench.engine import PROCESS_A, PathRecord, source_sector
from mixbench.states import (
    ManyBodyState,
    ProductTerm,
    SingleParticleState,
    make_state,
    render_term,
    sector_of,
)


def b(*modes) -> ProductTerm:
    """Bosonic term from bare modes."""
    return tuple(SingleParticleState(m) for m in modes)


def f(*pairs) -> ProductTerm:
    """Fermionic term from (mode, q) pairs."""
    return tuple(SingleParticleState(m, q) for m, q in pairs)


def scaled(state: ManyBodyState, factor: complex) -> ManyBodyState:
    """An unscattered state times a factor, merged and pruned by make_state."""
    factor = complex(factor)
    entries = [(term, value * factor) for term, value in state.terms.items()]
    return make_state(state.statistics, state.n, entries)


def scaled_forms(terms: dict, factor: complex) -> dict:
    """Scattered forms times a factor, ca and cb each; exact zeros pruned."""
    factor = complex(factor)
    products = {term: (form.ca * factor, form.cb * factor) for term, form in terms.items()}
    return {term: AmplitudeForm(ca, cb) for term, (ca, cb) in products.items() if ca or cb}


def permute_slots(state: ManyBodyState, perm: list[int]) -> ManyBodyState:
    """Relabel particle slots, new term[i] = old term[perm[i]], merged by make_state.

    A boson state built by symmetrize is invariant; a fermion state picks up
    the permutation's parity as a global sign.
    """
    entries = [(tuple(term[p] for p in perm), value) for term, value in state.terms.items()]
    return make_state(state.statistics, state.n, entries)


def sources_into(state: ManyBodyState, destination: ProductTerm) -> ManyBodyState:
    """The terms of the whole state in the destination's ``source_sector``, in stored order.

    The reference for every sector build: ``coherent_initial_state(...,
    sector=...)`` and ``point.sector_state`` must give exactly these keys
    and values, in this order.
    """
    wanted = source_sector(destination)
    kept = {term: value for term, value in state.terms.items() if sector_of(term) == wanted}
    return ManyBodyState(state.statistics, state.n, kept)


def contribution(path: PathRecord) -> tuple[complex, complex]:
    """A path's ``(ca, cb)`` contribution: its value in process A's ca or process B's cb."""
    return (path.value, 0j) if path.process == PROCESS_A else (0j, path.value)


def render_path_table(paths: list[PathRecord]) -> str:
    """The reference table of a destination's paths, as ``mixbench paths`` prints it.

    Each column is left-aligned to its widest cell, a dashed rule sits under
    the headers, and no line keeps trailing spaces or ends in a newline.
    """
    rows = [["source", "process", "slots", "sign", "contribution", "destination"]]
    rows += [
        [
            render_term(p.source_term),
            p.process,
            f"{p.phi_slot},{p.psi_slot}",
            f"{p.sign:+d}",
            format_form(*contribution(p)),
            render_term(p.destination_term),
        ]
        for p in paths
    ]
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = ["  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip() for row in rows]
    lines.insert(1, "  ".join("-" * width for width in widths))
    return "\n".join(lines)
