"""Occupation-number oracle: an independent route to the scattered norm.

States live in the occupation basis instead of the product basis.  Bosonic
keys are per-mode counts (n_phi, n_psi, n_v, n_u); fermionic keys are the
sorted tuples of occupied (mode, q) states.  The scattering event is
applied with explicit ladder-operator algebra, sqrt factors for bosons and
anticommutation sign strings for fermions, which shares no code with the
first-quantized path enumeration.

Both fermionic occupation inputs, Fock and coherent, are the
first-quantized states read through ``from_first_quantized``: their Slater
keys already are occupation keys, so both routes start from the same
initial state.  Only the scattering is independent, and that is what the
cross-check tests.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Union

from .amplitudes import AmplitudeForm
from .states import (
    ManyBodyState,
    Mode,
    SingleParticleState,
    Statistics,
    StatisticsMismatchError,
    coherent_initial_state,
    fock_initial_state,
    is_canonical_fermion_term,
    sector_of,
    validate_coherent_point,
    validate_fock_point,
)

__all__ = [
    "OccupationState",
    "apply_fwm_operator",
    "coherent_occupation_state",
    "fock_occupation_state",
    "from_first_quantized",
    "oracle_scattered_norm",
]

BosonOccupation = tuple[int, int, int, int]
FermionOccupation = tuple[SingleParticleState, ...]
OccupationKey = Union[BosonOccupation, FermionOccupation]


@dataclass(frozen=True)
class OccupationState:
    """Sparse map from occupation keys to amplitude forms."""

    statistics: Statistics
    n: int
    terms: dict[OccupationKey, AmplitudeForm]


def from_first_quantized(state: ManyBodyState) -> OccupationState:
    """Map a first-quantized state to the occupation basis, norm preserved.

    Bosons: every distinct occupation vector receives the shared term
    coefficient times sqrt(multinomial weight), which requires the input to
    be permutation symmetric.  Fermions: the stored Slater keys already are
    occupation keys and the coefficients carry over unchanged.
    """
    if state.statistics is Statistics.FERMION:
        terms: dict[OccupationKey, AmplitudeForm] = {}
        for term, form in state.terms.items():
            if not is_canonical_fermion_term(term):
                raise ValueError("fermionic state keys must be canonical")
            terms[term] = form
        return OccupationState(Statistics.FERMION, state.n, terms)

    groups: dict[BosonOccupation, list[AmplitudeForm]] = {}
    for term, form in state.terms.items():
        occ = tuple(sector_of(term))
        groups.setdefault(occ, []).append(form)
    terms = {}
    n_fact = math.factorial(state.n)
    for occ, forms in sorted(groups.items()):
        representative = forms[0]
        scale = max(1.0, abs(representative.c0), abs(representative.ca), abs(representative.cb))
        multiplicity = n_fact
        for count in occ:
            multiplicity //= math.factorial(count)
        # Symmetric: every ordering of the occupation is stored, all with one form.
        if len(forms) != multiplicity or any(
            max(abs(d.c0), abs(d.ca), abs(d.cb)) > 1e-12 * scale
            for d in (form - representative for form in forms[1:])
        ):
            raise StatisticsMismatchError(
                "state is not permutation symmetric; occupation map undefined"
            )
        terms[occ] = representative.scaled(math.sqrt(multiplicity))
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
    one = AmplitudeForm.constant(1.0)
    return OccupationState(statistics, n1 + n2 + n3, {(n1, n2, n3, 0): one})


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
    terms: dict[OccupationKey, AmplitudeForm] = {}
    for m in range(n + 1):
        for k in range(n - m + 1):
            j = n - m - k
            coeff = w_in ** (m + k) * w_seed ** j
            if coeff == 0.0:
                continue
            count = math.comb(n, m) * math.comb(n - m, k)
            terms[(m, k, j, 0)] = AmplitudeForm.constant(coeff * math.sqrt(count))
    return OccupationState(statistics, n, terms)


def _annihilate(occ: FermionOccupation, key: SingleParticleState):
    idx = bisect_left(occ, key)
    if idx == len(occ) or occ[idx] != key:
        return None
    sign = -1 if idx % 2 else 1
    return sign, occ[:idx] + occ[idx + 1 :]


def _create(occ: FermionOccupation, key: SingleParticleState):
    idx = bisect_left(occ, key)
    if idx < len(occ) and occ[idx] == key:
        return None
    sign = -1 if idx % 2 else 1
    return sign, occ[:idx] + (key,) + occ[idx:]


def apply_fwm_operator(
    state: OccupationState, sa: complex, sb: complex
) -> OccupationState:
    """Apply the scattering event with explicit ladder-operator algebra.

    Bosons: one merged vertex (sa+sb) * create(v) create(u) annihilate(psi)
    annihilate(phi) with the usual sqrt occupancy factors.  Fermions: the
    sum over q labels of sa * create(v,q) create(u,q') + sb * create(u,q)
    create(v,q') acting after annihilate(psi,q') annihilate(phi,q), with
    anticommutation signs counted against the fixed (mode rank, q) order.

    The input must be unscattered: each coefficient is read as a constant.
    Every key sums its contributions as one complex number in path order,
    and one form is built per key that survives, exact zeros pruned.
    """
    merged: dict[OccupationKey, complex] = {}
    if state.statistics is Statistics.BOSON:
        vertex = complex(sa) + complex(sb)
        for occ, form in state.terms.items():
            value = form.constant_value()
            n_phi, n_psi, n_v, n_u = occ
            if n_phi < 1 or n_psi < 1:
                continue
            factor = vertex * math.sqrt(n_phi * n_psi * (n_v + 1) * (n_u + 1))
            # Distinct occupations scatter to distinct keys: nothing to sum.
            merged[(n_phi - 1, n_psi - 1, n_v + 1, n_u + 1)] = value * factor
    else:
        # Each process's amplitude times each sign a path can carry.
        signed_a = {sign: sign * complex(sa) for sign in (1, -1)}
        signed_b = {sign: sign * complex(sb) for sign in (1, -1)}
        # Per q label: its v and u states, made once.
        outputs: dict[int, tuple[SingleParticleState, SingleParticleState]] = {}
        for occ, form in state.terms.items():
            value = form.constant_value()
            phis = [slot for slot in occ if slot.mode is Mode.PHI]
            psis = [slot for slot in occ if slot.mode is Mode.PSI]
            for slot in phis + psis:
                if slot.q not in outputs:
                    outputs[slot.q] = (
                        SingleParticleState(Mode.V, slot.q),
                        SingleParticleState(Mode.U, slot.q),
                    )
            for phi in phis:
                sign_phi, without_phi = _annihilate(occ, phi)
                v_q, u_q = outputs[phi.q]
                for psi in psis:
                    sign_psi, remaining = _annihilate(without_phi, psi)
                    v_qp, u_qp = outputs[psi.q]
                    for signed, creations in ((signed_a, (u_qp, v_q)), (signed_b, (v_qp, u_q))):
                        sign = sign_phi * sign_psi
                        current = remaining
                        for key in creations:
                            step = _create(current, key)
                            if step is None:
                                break
                            sign, current = step[0] * sign, step[1]
                        else:
                            # Start from the first contribution: adding it
                            # to 0j could turn a -0.0 part into 0.0.
                            contribution = value * signed[sign]
                            if current in merged:
                                merged[current] += contribution
                            else:
                                merged[current] = contribution
    ordered = {
        key: AmplitudeForm.constant(total)
        for key, total in sorted(merged.items())
        if total != 0
    }
    return OccupationState(state.statistics, state.n, ordered)


def oracle_scattered_norm(state: OccupationState) -> float:
    """Plain l2 norm of an already scattered occupation state."""
    total = 0.0
    for form in state.terms.values():
        total += abs(form.constant_value()) ** 2
    return math.sqrt(total)
