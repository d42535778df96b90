"""First-quantized product terms and the many-body states built from them.

A product term assigns one single-particle state to each particle slot.
Bosonic many-body states are stored directly in the product basis, one
ordered term per key.  Fermionic states are stored in the orthonormal
Slater basis: every key is the slot list sorted by (mode rank, q) and the
parity of the sorting permutation is folded into the coefficient, which
keeps term identity collision-free without expanding n! permutations.

Every coefficient here is a plain complex number: these are the states
before the scattering event.  A scattered state, whose coefficients are
``(ca, cb)`` pairs linear in the two process amplitudes, is built only by
``engine``.  Distinct stored terms are orthonormal for both statistics, so
``state_norm`` is the plain l2 norm of the coefficients, and
``coefficient_norm`` is the same loop over a scattered state's ``(ca, cb)``
pairs evaluated at ``(sa, sb)``.  The input checks of the two experiments,
``validate_fock_point`` and ``validate_coherent_point``, live here and
every route calls them.  The input builders, ``fock_initial_state`` and
``coherent_initial_state``, write every key already canonical and merge
nothing; ``make_state`` validates, canonicalizes and merges terms built
any other way.
"""

from __future__ import annotations

import math
import re
import sys
from enum import Enum, IntEnum
from functools import cache
from itertools import combinations
from typing import Callable, Collection, Iterable, Iterator, NamedTuple

__all__ = [
    "ManyBodyState",
    "Mode",
    "PauliViolationError",
    "ProductTerm",
    "SectorSpec",
    "SingleParticleState",
    "Statistics",
    "StatisticsMismatchError",
    "canonical_fermion_term",
    "coefficient_norm",
    "coherent_initial_state",
    "fock_initial_state",
    "is_canonical_fermion_term",
    "l2_norm",
    "make_state",
    "parse_term",
    "render_term",
    "sector_of",
    "state_norm",
    "symmetrize",
    "validate_coherent_point",
    "validate_fock_point",
]


class Mode(IntEnum):
    """Single-particle modes, ranked for canonical ordering."""

    PHI = 0
    PSI = 1
    V = 2
    U = 3

    @property
    def label(self) -> str:
        return _MODE_LABELS[self]


_MODE_LABELS = {Mode.PHI: "phi", Mode.PSI: "psi", Mode.V: "v", Mode.U: "u"}
_MODE_BY_LABEL = {label: mode for mode, label in _MODE_LABELS.items()}


class Statistics(Enum):
    BOSON = "boson"
    FERMION = "fermion"


class SingleParticleState(NamedTuple):
    mode: Mode
    q: int | None = None


ProductTerm = tuple[SingleParticleState, ...]


class SectorSpec(NamedTuple):
    """Per-mode particle counts of a final (or initial) configuration."""

    n_phi: int
    n_psi: int
    n_v: int
    n_u: int


class StatisticsMismatchError(ValueError):
    """Raised when terms or states do not fit the requested statistics."""


class PauliViolationError(ValueError):
    """Raised when a fermionic term repeats a (mode, q) pair."""


def sector_of(term: ProductTerm) -> SectorSpec:
    counts = [0, 0, 0, 0]
    for slot in term:
        counts[slot.mode] += 1
    return SectorSpec(*counts)


def validate_term(term: ProductTerm, statistics: Statistics) -> None:
    if len(term) == 0:
        raise ValueError("product term needs at least one slot")
    if statistics is Statistics.BOSON:
        for slot in term:
            if slot.q is not None:
                raise StatisticsMismatchError("bosonic slots carry no q label")
        return
    seen = set()
    for slot in term:
        if not isinstance(slot.q, int) or slot.q < 1:
            raise StatisticsMismatchError("fermionic slots need a q label >= 1")
        if slot in seen:
            raise PauliViolationError(f"duplicate single-particle state {render_term((slot,))}")
        seen.add(slot)


def canonical_fermion_term(term: ProductTerm) -> tuple[ProductTerm, int]:
    """Sort slots by (mode rank, q); return the sorted term and the parity.

    The parity is the sign of the sorting permutation, +1 or -1: odd when
    the term has an odd number of inversions, pairs of slots in descending
    order.  A repeated (mode, q) pair has no canonical form and raises
    PauliViolationError.
    """
    sorted_term = tuple(sorted(term))
    for a, b in zip(sorted_term, sorted_term[1:]):
        if a == b:
            raise PauliViolationError(f"duplicate single-particle state {render_term((a,))}")
    inversions = sum(a > b for i, a in enumerate(term) for b in term[i + 1 :])
    return sorted_term, -1 if inversions & 1 else 1


def is_canonical_fermion_term(term: ProductTerm) -> bool:
    """True when the slots strictly increase, so the term is its own Slater key.

    Equivalent to ``canonical_fermion_term(term) == (term, 1)``, with a
    repeated (mode, q) pair counting as false, in one linear pass.
    """
    return all(a < b for a, b in zip(term, term[1:]))


class ManyBodyState(NamedTuple):
    """Sparse map from product terms to complex coefficients, before scattering.

    Treat instances as immutable; all operations return new states.  Terms
    whose coefficient is an exact zero are never stored.
    """

    statistics: Statistics
    n: int
    terms: dict[ProductTerm, complex]


def make_state(
    statistics: Statistics,
    n: int,
    entries: Iterable[tuple[ProductTerm, complex]],
) -> ManyBodyState:
    """Validate and merge (term, value) entries into a state, canonicalizing fermion keys."""
    merged: dict[ProductTerm, complex] = {}
    for term, value in entries:
        if len(term) != n:
            raise ValueError(f"term has {len(term)} slots, expected {n}")
        validate_term(term, statistics)
        value = complex(value)
        if statistics is Statistics.FERMION:
            term, sign = canonical_fermion_term(term)
            if sign < 0:
                value = value * complex(-1)
        if term in merged:
            merged[term] = merged[term] + value
        else:
            merged[term] = value
    pruned = {term: value for term, value in merged.items() if value != 0}
    return ManyBodyState(statistics, n, dict(sorted(pruned.items())))


def symmetrize(term: ProductTerm) -> ManyBodyState:
    """Equal-weight sum over the distinct orderings of a bosonic term.

    Each distinct ordering receives coefficient 1/sqrt(#orderings), so the
    result has unit norm regardless of repeated modes.  The multinomial
    number of orderings is generated directly, already in canonical term
    order.
    """
    validate_term(term, Statistics.BOSON)
    distinct = list(_multiset_permutations(sorted(term)))
    value = complex(1.0 / math.sqrt(len(distinct)))
    return ManyBodyState(Statistics.BOSON, len(term), dict.fromkeys(distinct, value))


def _multiset_permutations(items: list) -> Iterator[tuple]:
    """Distinct orderings of a sorted list in lexicographic order.

    Algorithm L of Knuth, TAOCP 4A, section 7.2.1.2: find the last ascent
    a[j] < a[j+1], swap a[j] with the last element above it, then reverse
    the tail.  Bosonic slots all carry q = None, so they compare by mode.
    """
    a = list(items)
    n = len(a)
    while True:
        yield tuple(a)
        j = n - 2
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        k = n - 1
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1 :] = a[:j:-1]


def validate_fock_point(n1: int, n2: int, n3: int) -> None:
    """Type I input: n1 phi and n2 psi particles, at least one each, and n3 >= 0 seeds."""
    if n1 < 1 or n2 < 1:
        raise ValueError("n1 and n2 must be at least 1")
    if n3 < 0:
        raise ValueError("n3 cannot be negative")


def validate_coherent_point(n: int, epsilon: float) -> None:
    """Type II input: a pair to scatter, n >= 2, and a seed weight 0 <= epsilon < 1."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")


def fock_initial_state(n1: int, n2: int, n3: int, statistics: Statistics) -> ManyBodyState:
    """Input with n1 phi, n2 psi and n3 seed v particles, properly (anti)symmetrized.

    Fermions carry q labels from a shared space: phi particles get q=1..n1,
    psi particles q=1..n2 and v particles q=1..n3.  Scattering conserves q,
    so a phi particle with q <= n3 is Pauli blocked from entering v.
    """
    validate_fock_point(n1, n2, n3)
    if statistics is Statistics.BOSON:
        base = (
            (SingleParticleState(Mode.PHI),) * n1
            + (SingleParticleState(Mode.PSI),) * n2
            + (SingleParticleState(Mode.V),) * n3
        )
        return symmetrize(base)
    slots = tuple(
        [SingleParticleState(Mode.PHI, q) for q in range(1, n1 + 1)]
        + [SingleParticleState(Mode.PSI, q) for q in range(1, n2 + 1)]
        + [SingleParticleState(Mode.V, q) for q in range(1, n3 + 1)]
    )
    # Already a Slater key: phi, psi, v, each with q rising, so its sign is +1.
    return ManyBodyState(statistics, n1 + n2 + n3, {slots: 1 + 0j})


def coherent_initial_state(
    n: int, epsilon: float, statistics: Statistics, *, sector: SectorSpec | None = None
) -> ManyBodyState:
    """n particles, each in the same phi/psi/v superposition, or one sector of it.

    Per slot the weights are sqrt((1-epsilon)/2) on phi and on psi and
    sqrt(epsilon) on v.  The expansion has one term per mode assignment
    (3^n at most); with epsilon = 0 the v-carrying terms vanish exactly.
    For fermions particle i carries q = i, which makes every assignment a
    valid Slater key and renders the statistics irrelevant to scattering.

    The whole state is its (m, k) sectors in turn, m phi and k psi
    particles, m ascending and then k ascending; a sector whose coefficient
    w_in**(m+k) * w_seed**(n-m-k) is an exact zero is left out.  With
    ``sector`` only that sector's terms are built: the same keys and values,
    in the same order, as the whole state holds them.  A sector with a u
    particle, or with other than n particles, is empty.

    Each sector's keys are built in canonical order, so nothing is sorted.
    A bosonic sector is the distinct orderings of its modes.  A fermionic
    key lists the phi q's rising, then the psi q's, then the v q's, so it is
    a phi subset of the particles and a psi subset of the rest; ``_subsets``
    lists both in key order.  The sign is the parity of the assignment's
    inversions, the pairs of slots i < j where slot i holds the
    higher-ranked mode: each phi counts the particles outside the phi subset
    before it, and each psi the v particles before it, which is the same
    count within the rest.  The terms of one sector and sign share one
    coefficient.
    """
    validate_coherent_point(n, epsilon)
    if sector is None:
        counts = [(m, k) for m in range(n + 1) for k in range(n - m + 1)]
    elif sector.n_u or min(sector) < 0 or sum(sector) != n:
        counts = []
    else:
        counts = [(sector.n_phi, sector.n_psi)]
    w_in = math.sqrt((1.0 - epsilon) / 2.0)
    w_seed = math.sqrt(epsilon)
    # The power form keyed on counts gives every term of a sector identical
    # bits; an exact zero is never stored.
    sectors = [(m, k, w_in ** (m + k) * w_seed ** (n - m - k)) for m, k in counts]
    sectors = [(m, k, coeff) for m, k, coeff in sectors if coeff != 0.0]
    if statistics is Statistics.BOSON:
        terms = _coherent_boson_terms(n, sectors)
    else:
        terms = _coherent_fermion_terms(n, sectors)
    return ManyBodyState(statistics, n, terms)


def _coherent_boson_terms(
    n: int, sectors: list[tuple[int, int, float]]
) -> dict[ProductTerm, complex]:
    phi, psi, v = (SingleParticleState(mode) for mode in (Mode.PHI, Mode.PSI, Mode.V))
    terms = {}
    for m, k, coeff in sectors:
        value = complex(coeff)
        for key in _multiset_permutations([phi] * m + [psi] * k + [v] * (n - m - k)):
            terms[key] = value
    return terms


def _coherent_fermion_terms(
    n: int, sectors: list[tuple[int, int, float]]
) -> dict[ProductTerm, complex]:
    phi_row, psi_row, v_row = (
        [SingleParticleState(mode, q) for q in range(1, n + 1)]
        for mode in (Mode.PHI, Mode.PSI, Mode.V)
    )
    terms = {}
    for m, k, coeff in sectors:
        values = (complex(coeff), complex(-1 * coeff))  # by inversion parity
        psi_choices = _subsets(n - m, k)
        for phis, rest, phi_parity in _subsets(n, m):
            head = tuple([phi_row[i] for i in phis])
            psi_rest = [psi_row[i] for i in rest]
            v_rest = [v_row[i] for i in rest]
            for psis, vs, psi_parity in psi_choices:
                key = head + tuple([psi_rest[i] for i in psis]) + tuple([v_rest[i] for i in vs])
                terms[key] = values[phi_parity ^ psi_parity]
    return terms


@cache
def _subsets(r: int, size: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """(members, the others, parity) per size-subset of range(r), in Slater key order.

    The subsets come lexicographically.  The parity is that of the count,
    over the members, of the others before each.
    """
    return tuple(
        (
            members,
            tuple(i for i in range(r) if i not in members),
            (sum(members) - size * (size - 1) // 2) & 1,
        )
        for members in combinations(range(r), size)
    )


def state_norm(state: ManyBodyState) -> float:
    """Norm of an unscattered state: the l2 norm of its coefficients."""
    return l2_norm(state.terms.values)


def coefficient_norm(
    pairs: Collection[tuple[complex, complex]], sa: complex = 0j, sb: complex = 0j
) -> float:
    """Norm of a scattered state from its ``(ca, cb)`` pairs evaluated at ``(sa, sb)``."""
    sa, sb = complex(sa), complex(sb)
    return l2_norm(lambda: (ca * sa + cb * sb for ca, cb in pairs))


def l2_norm(values: Callable[[], Iterable[complex]]) -> float:
    """The one norm loop: sqrt of the sum of |value|^2, in the order ``values()`` gives them.

    A sum below the smallest normal float has lost digits, or all of them,
    to underflow: it is taken again over the values divided by the largest
    magnitude, so a tiny norm is not read as zero.  Only exact zeros give
    0.0.  Every larger sum keeps the plain loop's bits.
    """
    total = 0.0
    for value in values():
        total += abs(value) ** 2
    if total >= sys.float_info.min:
        return math.sqrt(total)
    scale = max(map(abs, values()), default=0.0)
    if scale == 0.0:
        return 0.0
    total = 0.0
    for value in values():
        total += (abs(value) / scale) ** 2
    return scale * math.sqrt(total)


def render_term(term: ProductTerm) -> str:
    """Text form of a term, e.g. ``phi psi v`` or ``phi(1) psi(2) v(1)``."""
    return " ".join(map(_slot_text, term))


@cache
def _slot_text(slot: SingleParticleState) -> str:
    return slot.mode.label if slot.q is None else f"{slot.mode.label}({slot.q})"


_TOKEN_RE = re.compile(r"^(phi|psi|v|u)(?:\((\d+)\))?$")


def parse_term(text: str) -> ProductTerm:
    """Parse the render_term text form back into a product term."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty term")
    slots = []
    for token in tokens:
        match = _TOKEN_RE.match(token)
        if match is None:
            raise ValueError(f"invalid slot token {token!r}")
        label, q_text = match.groups()
        q = int(q_text) if q_text else None
        if q == 0:
            raise ValueError(f"q labels start at 1, got {token!r}")
        slots.append(SingleParticleState(_MODE_BY_LABEL[label], q))
    return tuple(slots)
