import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixbench.formulas import (
    CASE_A_ONLY,
    CASE_B_ONLY,
    CASE_CROSS_A,
    CASE_CROSS_B,
    CASE_CROSS_TIE,
    CASE_SUPPRESSED,
    CROSS_CASES,
    coherent_amplitude,
    coherent_counts,
    fock_boson_amplitude,
    fock_counts,
    fock_fermion_amplitude,
    fock_fermion_case,
)


@pytest.mark.parametrize(
    "n1,n2,n3,expected",
    [
        (1, 1, 0, 2.0),
        (1, 1, 1, 2.0 * math.sqrt(2)),
        (2, 3, 4, 2.0 * math.sqrt(30)),
        (5, 5, 0, 10.0),
    ],
)
def test_fock_boson_amplitude_frozen_values(n1, n2, n3, expected):
    assert fock_boson_amplitude(n1, n2, n3, 1, 1) == pytest.approx(expected, rel=1e-12)


def test_fock_boson_amplitude_vanishes_on_destructive_pair():
    assert fock_boson_amplitude(4, 2, 7, 1, -1) == 0.0


@pytest.mark.parametrize(
    "n1,n2,n3,case",
    [
        (1, 1, 1, CASE_SUPPRESSED),
        (2, 3, 3, CASE_SUPPRESSED),
        (2, 1, 1, CASE_A_ONLY),
        (3, 1, 2, CASE_A_ONLY),
        (1, 2, 1, CASE_B_ONLY),
        (2, 4, 3, CASE_B_ONLY),
        (3, 2, 1, CASE_CROSS_A),
        (2, 3, 1, CASE_CROSS_B),
        (1, 1, 0, CASE_CROSS_TIE),
        (3, 3, 1, CASE_CROSS_TIE),
    ],
)
def test_fock_fermion_case_selection(n1, n2, n3, case):
    assert fock_fermion_case(n1, n2, n3) == case


def test_cross_cases_cover_exactly_the_unblocked_overlap():
    for n1 in range(1, 7):
        for n2 in range(1, 7):
            for n3 in range(0, 7):
                case = fock_fermion_case(n1, n2, n3)
                assert (case in CROSS_CASES) == (n3 < min(n1, n2))


@pytest.mark.parametrize(
    "n1,n2,n3,sa,sb,expected",
    [
        (1, 1, 1, 1, 1, 0.0),
        (3, 3, 3, 0.3 + 0.1j, 0.2, 0.0),
        (2, 1, 1, 1, 1, 1.0),  # sqrt((2-1)*1)*|sa|
        (2, 1, 1, 0.3 + 0.1j, 5, abs(0.3 + 0.1j)),
        (1, 3, 1, 1, 2j, 2 * math.sqrt(2)),  # sqrt((3-1)*1)*|sb|
    ],
)
def test_fock_fermion_blocked_branches(n1, n2, n3, sa, sb, expected):
    assert fock_fermion_amplitude(n1, n2, n3, sa, sb) == pytest.approx(expected, abs=1e-12)


def test_fock_fermion_cross_branch_is_the_published_form():
    # (3,2,1) at (1,1): radicand (3-1)*2 + (2-1)*3 + 2*(2-1)*2 = 11
    assert fock_fermion_amplitude(3, 2, 1, 1, 1) == pytest.approx(math.sqrt(11), rel=1e-12)
    # exact enumeration gives sqrt(5) here; the formula layer reproduces the
    # published value and the comparison layer reports the divergence
    assert fock_fermion_amplitude(3, 2, 1, 1, 1) != pytest.approx(math.sqrt(5), rel=1e-3)


def test_fock_fermion_cross_radicand_clamps_to_zero():
    # (1,1,0) at (1,-1): published radicand 1 + 1 - 4 = -2, clamped
    assert fock_fermion_amplitude(1, 1, 0, 1, -1) == 0.0


@pytest.mark.parametrize("bad", [(0, 1, 0), (1, 0, 0), (1, 1, -1)])
def test_fock_argument_validation(bad):
    with pytest.raises(ValueError):
        fock_boson_amplitude(*bad, 1, 1)
    with pytest.raises(ValueError):
        fock_fermion_amplitude(*bad, 1, 1)
    with pytest.raises(ValueError):
        fock_counts(*bad)


@pytest.mark.parametrize(
    "n,epsilon,expected",
    [
        (2, 0.0, math.sqrt(2)),  # w*sqrt(2)*|sa+sb| with w = 1/2
        (3, 1 / 3, 4 * math.sqrt(2) / 3),
        (4, 0.0, 2 * math.sqrt(3)),  # (1/2)*sqrt(4*3*1)*|1+1|
    ],
)
def test_coherent_amplitude_frozen_values(n, epsilon, expected):
    assert coherent_amplitude(n, epsilon, 1, 1) == pytest.approx(expected, rel=1e-12)


def test_coherent_amplitude_enhancement_grows_with_seed():
    base = coherent_amplitude(6, 0.0, 1, 1)
    seeded = coherent_amplitude(6, 0.3, 1, 1)
    assert seeded / base == pytest.approx((1 - 0.3) * math.sqrt(0.3 * 4 + 1), rel=1e-12)


def test_coherent_amplitude_validation():
    with pytest.raises(ValueError):
        coherent_amplitude(1, 0.2, 1, 1)
    with pytest.raises(ValueError):
        coherent_amplitude(3, 1.0, 1, 1)


def test_fock_counts_worked_example():
    counts = fock_counts(1, 1, 1)
    assert counts.total_terms == 6
    assert counts.process_terms == 6
    assert counts.distinct_final_terms == 3
    assert counts.per_term_amplitude == pytest.approx(2 / math.sqrt(6), rel=1e-12)


@given(
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=0, max_value=10),
)
def test_fock_counting_identity(n1, n2, n3):
    counts = fock_counts(n1, n2, n3)
    lhs = math.sqrt(counts.distinct_final_terms) * counts.per_term_amplitude
    rhs = math.sqrt(n1 * n2 * (n3 + 1))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_coherent_counts_worked_example():
    counts = coherent_counts(4, 1, 1, 0.2)
    assert counts.group_terms == 12
    assert counts.process_terms == 12
    assert counts.distinct_final_terms == 4
    assert counts.gain_ratio == 3  # n - m - k + 1
    assert counts.gain_published == 6  # printed gain, twice the ratio


@given(
    st.integers(min_value=2, max_value=12),
    st.data(),
)
def test_coherent_gain_ratio_formula(n, data):
    m = data.draw(st.integers(min_value=1, max_value=n - 1))
    k = data.draw(st.integers(min_value=1, max_value=n - m))
    counts = coherent_counts(n, m, k, 0.1)
    assert counts.gain_ratio == n - m - k + 1
    assert counts.gain_published == 2 * counts.gain_ratio


@pytest.mark.parametrize("epsilon", [0.0, 0.1, 1 / 3, 0.5])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12])
def test_coherent_groups_resolve_the_identity(n, epsilon):
    total = 0.0
    for m in range(n + 1):
        for k in range(n - m + 1):
            counts = coherent_counts(n, m, k, epsilon)
            total += counts.group_terms * counts.group_amplitude**2
    assert total == pytest.approx(1.0, abs=1e-12)


def test_coherent_counts_zero_particle_groups():
    counts = coherent_counts(5, 0, 3, 0.2)
    assert counts.process_terms == 0
    assert counts.gain_ratio == 0
    with pytest.raises(ValueError):
        coherent_counts(3, 2, 2, 0.2)
