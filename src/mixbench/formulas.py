"""Closed-form scattered norms and the counting factors behind them.

The fermionic piecewise form is implemented exactly as published, cross
term included, even though exhaustive enumeration (both engines in this
package) yields a different cross term; the verification layer reports
that disagreement instead of patching the formula.  All binomials are
exact integers.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .states import validate_coherent_point, validate_fock_point

__all__ = [
    "CASE_A_ONLY",
    "CASE_B_ONLY",
    "CASE_CROSS_A",
    "CASE_CROSS_B",
    "CASE_CROSS_TIE",
    "CASE_SUPPRESSED",
    "CROSS_CASES",
    "CoherentCounts",
    "FockCounts",
    "coherent_amplitude",
    "coherent_counts",
    "fock_boson_amplitude",
    "fock_counts",
    "fock_fermion_amplitude",
    "fock_fermion_case",
]


def fock_boson_amplitude(n1: int, n2: int, n3: int, sa: complex, sb: complex) -> float:
    """Bosonic scattered norm sqrt(n1*n2*(n3+1)) * |sa+sb|.

    The n3+1 factor is the final-state stimulation by the seed occupation.
    """
    validate_fock_point(n1, n2, n3)
    return math.sqrt(n1 * n2 * (n3 + 1)) * abs(complex(sa) + complex(sb))


CASE_SUPPRESSED = "suppressed"
CASE_A_ONLY = "a-only"
CASE_B_ONLY = "b-only"
CASE_CROSS_A = "cross-a"
CASE_CROSS_B = "cross-b"
CASE_CROSS_TIE = "cross-tie"

# Cases where the published cross term disagrees with exact enumeration.
CROSS_CASES = frozenset({CASE_CROSS_A, CASE_CROSS_B, CASE_CROSS_TIE})


def fock_fermion_case(n1: int, n2: int, n3: int) -> str:
    """Select the branch of the piecewise fermionic form.

    The published piecewise expression does not cover n1 == n2 > n3; that
    region is labelled cross-tie and evaluated with the common n1 <-> n2
    symmetric limit of the two cross branches.
    """
    validate_fock_point(n1, n2, n3)
    if n3 >= n1 and n3 >= n2:
        return CASE_SUPPRESSED
    if n1 > n3 >= n2:
        return CASE_A_ONLY
    if n2 > n3 >= n1:
        return CASE_B_ONLY
    if n1 > n2:
        return CASE_CROSS_A
    if n2 > n1:
        return CASE_CROSS_B
    return CASE_CROSS_TIE


def fock_fermion_amplitude(n1: int, n2: int, n3: int, sa: complex, sb: complex) -> float:
    """Fermionic piecewise scattered norm, evaluated as published.

    Pauli blocking removes any path whose target q is already seeded, so
    the norm vanishes outright once n3 >= max(n1, n2).  In the two mixed
    branches the published interference term is
    2*(min(n1,n2)-n3)*(sa*conj(sb) + conj(sa)*sb); exact enumeration gives
    -(min(n1,n2)-n3)*(sa*conj(sb) + conj(sa)*sb) instead, and the
    verification layer flags the difference as a known divergence.
    """
    sa = complex(sa)
    sb = complex(sb)
    case = fock_fermion_case(n1, n2, n3)
    if case == CASE_SUPPRESSED:
        return 0.0
    if case == CASE_A_ONLY:
        return math.sqrt((n1 - n3) * n2) * abs(sa)
    if case == CASE_B_ONLY:
        return math.sqrt((n2 - n3) * n1) * abs(sb)
    scale = max(abs(sa), abs(sb))
    if scale and scale * scale < sys.float_info.min:
        # The squares below would lose digits, or all of them, to underflow:
        # evaluate at the amplitudes over the larger one and scale back.
        return scale * fock_fermion_amplitude(n1, n2, n3, sa / scale, sb / scale)
    cross = 2.0 * (sa * sb.conjugate()).real
    squared = (n1 - n3) * n2 * abs(sa) ** 2 + (n2 - n3) * n1 * abs(sb) ** 2
    squared += 2.0 * (min(n1, n2) - n3) * cross
    # The published cross term is not a true norm and can push the radicand
    # below zero for strongly destructive amplitude pairs; clamp and let
    # the verification layer surface the disagreement.
    return math.sqrt(max(squared, 0.0))


def coherent_amplitude(n: int, epsilon: float, sa: complex, sb: complex) -> float:
    """Scattered norm for n particles sharing one phi/psi/v superposition.

    Equals sqrt(w*n * w*(n-1) * (epsilon*(n-2)+1)) * |sa+sb| with
    w = (1-epsilon)/2, independent of particle statistics.
    """
    validate_coherent_point(n, epsilon)
    w = (1.0 - epsilon) / 2.0
    return math.sqrt(w * n * w * (n - 1) * (epsilon * (n - 2) + 1.0)) * abs(
        complex(sa) + complex(sb)
    )


class FockCounts(NamedTuple):
    """Term-counting factors for the Fock-input experiment (bosons).

    total_terms: distinct orderings of the initial term.
    process_terms: scattering paths per process (total_terms * n1 * n2).
    distinct_final_terms: distinct orderings in the scattered sector.
    per_term_amplitude: coefficient each final term picks up per process,
    (process_terms / distinct_final_terms) / sqrt(total_terms).
    """

    total_terms: int
    process_terms: int
    distinct_final_terms: int
    per_term_amplitude: float


def fock_counts(n1: int, n2: int, n3: int) -> FockCounts:
    validate_fock_point(n1, n2, n3)
    n = n1 + n2 + n3
    total = math.comb(n, n1) * math.comb(n - n1, n2)
    process = total * n1 * n2
    distinct_final = (
        math.comb(n, 1) * math.comb(n - 1, n1 - 1) * math.comb(n - n1, n2 - 1)
    )
    per_term = (process / distinct_final) / math.sqrt(total)
    return FockCounts(total, process, distinct_final, per_term)


class CoherentCounts(NamedTuple):
    """Counting factors for one (m, k) group of the superposition input.

    group_terms: number of assignments with m phi and k psi particles.
    group_amplitude: shared coefficient of those terms,
    ((1-eps)/2)^(n/2) * eta^((n-m-k)/2) with eta = 2*eps/(1-eps).
    process_terms: scattering paths per process from the group.
    distinct_final_terms: distinct terms those paths land on.
    gain_ratio: process_terms / distinct_final_terms, always n-m-k+1.
    gain_published: the published per-term gain 2*(n-m-k+1), which is twice
    gain_ratio; the verification layer reports the factor-2 discrepancy.
    """

    group_terms: int
    group_amplitude: float
    process_terms: int
    distinct_final_terms: int
    gain_ratio: int
    gain_published: int


def coherent_counts(n: int, m: int, k: int, epsilon: float) -> CoherentCounts:
    validate_coherent_point(n, epsilon)
    if m < 0 or k < 0 or m + k > n:
        raise ValueError("mode counts must satisfy 0 <= m, 0 <= k, m+k <= n")
    group_terms = math.comb(n, m) * math.comb(n - m, k)
    w = (1.0 - epsilon) / 2.0
    eta = 2.0 * epsilon / (1.0 - epsilon)
    group_amplitude = w ** (n / 2.0) * eta ** ((n - m - k) / 2.0)
    if m >= 1 and k >= 1:
        process = group_terms * m * k
        distinct_final = (
            math.comb(n, 1) * math.comb(n - 1, m - 1) * math.comb(n - m, k - 1)
        )
        gain_ratio = process // distinct_final
        assert gain_ratio * distinct_final == process
        gain_published = 2 * (n - m - k + 1)
    else:
        process = 0
        distinct_final = 0
        gain_ratio = 0
        gain_published = 0
    return CoherentCounts(
        group_terms, group_amplitude, process, distinct_final, gain_ratio, gain_published
    )
