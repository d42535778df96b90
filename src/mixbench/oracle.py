"""Occupation-number oracle: an independent route to the scattered norm.

States live in the occupation basis instead of the product basis.  Bosonic
keys are per-mode counts (n_phi, n_psi, n_v, n_u); fermionic keys are the
sorted tuples of occupied (mode, q) states.  The scattering event is
applied with explicit ladder-operator algebra, sqrt factors for bosons and
anticommutation sign strings for fermions, which shares no code with the
first-quantized path enumeration.

Inside ``apply_fwm_operator`` a fermionic key is an int bitmask.  Each call
ranks the slots it can touch by (mode, q) and gives the slot of rank r bit
K-1-r of K, so descending masks are ascending Slater keys.  A ladder step
on the slot at bit b is a bit test and a flip, and its sign is the parity
of the occupied slots above it, ``(mask >> b).bit_count()``.

The oracle applies the event at concrete amplitudes ``sa`` and ``sb``, so
both its input and its scattered output hold plain complex coefficients.
The result keeps one complex sum per mask; its ``terms`` decode the masks
only when read, and ``oracle_scattered_norm`` reads the sums.

Both fermionic occupation inputs, Fock and coherent, are the
first-quantized states read through ``from_first_quantized``: their Slater
keys already are occupation keys, so both routes start from the same
initial state.  Only the scattering is independent, and that is what the
cross-check tests.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import NamedTuple, Union

from .states import (
    ManyBodyState,
    Mode,
    SingleParticleState,
    Statistics,
    StatisticsMismatchError,
    coherent_initial_state,
    fock_initial_state,
    is_canonical_fermion_term,
    l2_norm,
    sector_of,
    validate_coherent_point,
    validate_fock_point,
)

__all__ = [
    "OccupationState",
    "ScatteredOccupation",
    "apply_fwm_operator",
    "coherent_occupation_state",
    "fock_occupation_state",
    "from_first_quantized",
    "oracle_scattered_norm",
]

BosonOccupation = tuple[int, int, int, int]
FermionOccupation = tuple[SingleParticleState, ...]
OccupationKey = Union[BosonOccupation, FermionOccupation]


class OccupationState(NamedTuple):
    """Sparse map from occupation keys to complex coefficients."""

    statistics: Statistics
    n: int
    terms: dict[OccupationKey, complex]


def from_first_quantized(state: ManyBodyState) -> OccupationState:
    """Map a first-quantized state to the occupation basis, norm preserved.

    Bosons: every distinct occupation vector receives the shared term
    coefficient times sqrt(multinomial weight), which requires the input to
    be permutation symmetric.  Fermions: the stored Slater keys already are
    occupation keys and the coefficients carry over unchanged.
    """
    if state.statistics is Statistics.FERMION:
        terms: dict[OccupationKey, complex] = {}
        for term, value in state.terms.items():
            if not is_canonical_fermion_term(term):
                raise ValueError("fermionic state keys must be canonical")
            terms[term] = value
        return OccupationState(Statistics.FERMION, state.n, terms)

    groups: dict[BosonOccupation, list[complex]] = {}
    for term, value in state.terms.items():
        occ = tuple(sector_of(term))
        groups.setdefault(occ, []).append(value)
    terms = {}
    n_fact = math.factorial(state.n)
    for occ, values in sorted(groups.items()):
        representative = values[0]
        scale = max(1.0, abs(representative))
        multiplicity = n_fact
        for count in occ:
            multiplicity //= math.factorial(count)
        # Symmetric: every ordering of the occupation is stored, all with one value.
        if len(values) != multiplicity or any(
            abs(value - representative) > 1e-12 * scale for value in values[1:]
        ):
            raise StatisticsMismatchError(
                "state is not permutation symmetric; occupation map undefined"
            )
        terms[occ] = representative * complex(math.sqrt(multiplicity))
    return OccupationState(Statistics.BOSON, state.n, terms)


def fock_occupation_state(
    n1: int, n2: int, n3: int, statistics: Statistics
) -> OccupationState:
    """Occupation-basis input with n1 phi, n2 psi, n3 seed v particles.

    Bosons are one occupation vector.  Fermions read the Slater key of
    ``fock_initial_state`` through ``from_first_quantized``.
    """
    if statistics is Statistics.FERMION:
        return from_first_quantized(fock_initial_state(n1, n2, n3, statistics))
    validate_fock_point(n1, n2, n3)
    return OccupationState(statistics, n1 + n2 + n3, {(n1, n2, n3, 0): 1 + 0j})


def coherent_occupation_state(
    n: int, epsilon: float, statistics: Statistics
) -> OccupationState:
    """Occupation-basis image of n particles in one phi/psi/v superposition.

    Bosons are counted per occupation vector.  Fermions read the Slater keys
    of ``coherent_initial_state`` through ``from_first_quantized``.
    """
    if statistics is Statistics.FERMION:
        return from_first_quantized(coherent_initial_state(n, epsilon, statistics))
    validate_coherent_point(n, epsilon)
    w_in = math.sqrt((1.0 - epsilon) / 2.0)
    w_seed = math.sqrt(epsilon)
    terms: dict[OccupationKey, complex] = {}
    for m in range(n + 1):
        for k in range(n - m + 1):
            j = n - m - k
            coeff = w_in ** (m + k) * w_seed ** j
            if coeff == 0.0:
                continue
            count = math.comb(n, m) * math.comb(n - m, k)
            terms[(m, k, j, 0)] = complex(coeff * math.sqrt(count))
    return OccupationState(statistics, n, terms)


class ScatteredOccupation:
    """The scattered occupation state as pruned sums, keys decoded on demand.

    ``sums`` lists ``(key, total)`` in canonical key order with exact zeros
    pruned.  A bosonic key is the occupation tuple itself; a fermionic key is
    an int bitmask whose bit ``b`` stands for ``slots[b]``.  Each total is
    the complex coefficient at the ``sa`` and ``sb`` the operator was
    applied with.  ``terms`` decodes every key to its occupation key on its
    first read; ``oracle_scattered_norm`` reads ``sums`` and decodes none.
    """

    def __init__(
        self,
        sums: list[tuple[OccupationKey | int, complex]],
        slots: tuple[SingleParticleState, ...] | None = None,
    ) -> None:
        self.sums = sums
        self._slots = slots

    @cached_property
    def terms(self) -> dict[OccupationKey, complex]:
        slots = self._slots
        if slots is None:
            return dict(self.sums)
        terms = {}
        for mask, total in self.sums:
            # Highest bit first: that is the lowest (mode, q), as in a Slater key.
            key = []
            while mask:
                bit = mask.bit_length() - 1
                key.append(slots[bit])
                mask ^= 1 << bit
            terms[tuple(key)] = total
        return terms


def apply_fwm_operator(
    state: OccupationState, sa: complex, sb: complex
) -> ScatteredOccupation:
    """Apply the scattering event with explicit ladder-operator algebra.

    Bosons: one merged vertex (sa+sb) * create(v) create(u) annihilate(psi)
    annihilate(phi) with the usual sqrt occupancy factors.  Fermions: the
    sum over q labels of sa * create(v,q) create(u,q') + sb * create(u,q)
    create(v,q') acting after annihilate(psi,q') annihilate(phi,q), with
    anticommutation signs counted against the fixed (mode rank, q) order.

    A fermionic key is coded as an int bitmask.  Every slot of the input,
    and the v and u states of each of its phi and psi q labels, is ranked by
    (mode, q), and the slot of rank r gets bit K-1-r of K, so descending
    masks are ascending Slater keys.  Annihilating or creating the slot at
    bit b is a bit test and a flip; its sign is the parity of the occupied
    slots ranked before it, ``(mask >> b).bit_count()`` with bit b clear,
    and a creation onto a set bit is Pauli blocked.  A fermionic key that is
    not a canonical Slater key of n slots, with q labels that are ints
    >= 1, raises ``ValueError``.

    Every key sums its contributions as one complex number in path order;
    the result holds the sums in canonical key order, exact zeros pruned,
    and decodes its keys only when its ``terms`` are read.
    """
    if state.statistics is Statistics.BOSON:
        merged: dict[BosonOccupation, complex] = {}
        vertex = complex(sa) + complex(sb)
        for occ, value in state.terms.items():
            n_phi, n_psi, n_v, n_u = occ
            if n_phi < 1 or n_psi < 1:
                continue
            factor = vertex * math.sqrt(n_phi * n_psi * (n_v + 1) * (n_u + 1))
            # Distinct occupations scatter to distinct keys: nothing to sum.
            merged[(n_phi - 1, n_psi - 1, n_v + 1, n_u + 1)] = value * factor
        sums = [(key, total) for key, total in sorted(merged.items()) if total != 0]
        return ScatteredOccupation(sums)

    slots, table = _rank_slots(state)
    top = len(slots)
    phi_mode, psi_mode = Mode.PHI, Mode.PSI
    # Each process's amplitude times each sign a path can carry; -1 * z, not
    # -z, whose zero parts can carry the other sign.
    plus_a, minus_a = 1 * complex(sa), -1 * complex(sa)
    plus_b, minus_b = 1 * complex(sb), -1 * complex(sb)
    merged_masks: dict[int, complex] = {}
    get = merged_masks.get
    for occ, value in state.terms.items():
        if len(occ) != state.n:
            raise ValueError("fermionic state keys must be canonical")
        # Encode the key; a canonical key's bits strictly decrease.
        mask, above = 0, top
        phis, psis = [], []
        for slot in occ:
            bit, mode, moves = table[slot]
            if bit >= above:
                raise ValueError("fermionic state keys must be canonical")
            above = bit
            mask |= 1 << bit
            if mode is phi_mode:
                phis.append(moves)
            elif mode is psi_mode:
                psis.append(moves)
        # The four signed products of this term, each made once.
        a_even, a_odd = value * plus_a, value * minus_a
        b_even, b_odd = value * plus_b, value * minus_b
        for phi, phi_flag, v_q, v_q_flag, u_q, u_q_flag in phis:
            without_phi = mask ^ phi_flag
            parity_phi = (without_phi >> phi).bit_count()
            for psi, psi_flag, v_qp, v_qp_flag, u_qp, u_qp_flag in psis:
                remaining = without_phi ^ psi_flag
                parity = parity_phi + (remaining >> psi).bit_count()
                # Process A creates u(q') and then v(q); process B creates
                # v(q') and then u(q).  Each is written out, and the two new
                # states never coincide.  A sum starts from its first
                # contribution: adding it to 0j could turn a -0.0 part into 0.0.
                if not (remaining & u_qp_flag or remaining & v_q_flag):
                    grown = remaining | u_qp_flag
                    dest = grown | v_q_flag
                    odd = (
                        parity + (remaining >> u_qp).bit_count() + (grown >> v_q).bit_count()
                    ) & 1
                    contribution = a_odd if odd else a_even
                    total = get(dest)
                    merged_masks[dest] = contribution if total is None else total + contribution
                if not (remaining & v_qp_flag or remaining & u_q_flag):
                    grown = remaining | v_qp_flag
                    dest = grown | u_q_flag
                    odd = (
                        parity + (remaining >> v_qp).bit_count() + (grown >> u_q).bit_count()
                    ) & 1
                    contribution = b_odd if odd else b_even
                    total = get(dest)
                    merged_masks[dest] = contribution if total is None else total + contribution
    sums = [
        (mask, total)
        for mask, total in sorted(merged_masks.items(), reverse=True)
        if total != 0
    ]
    return ScatteredOccupation(sums, slots)


def _rank_slots(state: OccupationState) -> tuple[tuple[SingleParticleState, ...], dict]:
    """The slots a fermion scatter can touch, indexed by bit, and each slot's entry.

    A slot's entry is ``(bit, mode, moves)``; for a phi or psi slot,
    ``moves`` holds the bit and flag ``1 << bit`` of itself, of v(q) and of
    u(q).  A q label that is not an int >= 1 raises ``ValueError``.
    """
    slots = set()
    for occ in state.terms:
        slots.update(occ)
    for slot in list(slots):
        if not isinstance(slot.q, int) or slot.q < 1:
            raise ValueError("fermionic state keys must be canonical")
        if slot.mode is Mode.PHI or slot.mode is Mode.PSI:
            slots.add(SingleParticleState(Mode.V, slot.q))
            slots.add(SingleParticleState(Mode.U, slot.q))
    ranked = sorted(slots)
    bit_of = {slot: len(ranked) - 1 - rank for rank, slot in enumerate(ranked)}
    table = {}
    for slot, bit in bit_of.items():
        moves = None
        if slot.mode is Mode.PHI or slot.mode is Mode.PSI:
            v = bit_of[SingleParticleState(Mode.V, slot.q)]
            u = bit_of[SingleParticleState(Mode.U, slot.q)]
            moves = (bit, 1 << bit, v, 1 << v, u, 1 << u)
        table[slot] = (bit, slot.mode, moves)
    return tuple(reversed(ranked)), table


def oracle_scattered_norm(result: ScatteredOccupation) -> float:
    """The l2 norm of a scattered occupation state, read from its sums."""
    return l2_norm(lambda: (total for _, total in result.sums))
