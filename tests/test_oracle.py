import math
from bisect import bisect_left
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbench.engine import apply_first_order
from mixbench.oracle import (
    OccupationState,
    apply_fwm_operator,
    coherent_occupation_state,
    fock_occupation_state,
    from_first_quantized,
    oracle_scattered_norm,
)
from mixbench.states import (
    Mode,
    SingleParticleState,
    Statistics,
    StatisticsMismatchError,
    canonical_fermion_term,
    coefficient_norm,
    coherent_initial_state,
    fock_initial_state,
    make_state,
)
from mixbench.amplitudes import AmplitudeForm

PHI, PSI, V, U = Mode.PHI, Mode.PSI, Mode.V, Mode.U


def f(*pairs):
    return tuple(SingleParticleState(m, q) for m, q in pairs)


def occupation_norm(state) -> float:
    total = 0.0
    for value in state.terms.values():
        total += abs(value) ** 2
    return math.sqrt(total)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_fock_occupation_state_is_one_unit_key(statistics):
    state = fock_occupation_state(2, 1, 1, statistics)
    assert len(state.terms) == 1
    assert occupation_norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("n,epsilon", [(2, 0.0), (3, 1 / 3), (4, 0.2)])
def test_coherent_occupation_state_is_normalized(statistics, n, epsilon):
    state = coherent_occupation_state(n, epsilon, statistics)
    assert occupation_norm(state) == pytest.approx(1.0, abs=1e-12)


def test_boson_occupation_groups_mk():
    state = coherent_occupation_state(3, 0.2, Statistics.BOSON)
    # boson occupation keys are (n_phi, n_psi, n_v, n_u) count tuples
    assert all(len(key) == 4 and key[3] == 0 for key in state.terms)
    assert (3, 0, 0, 0) in state.terms
    # coefficient carries the sqrt of the group multiplicity
    w = math.sqrt((1 - 0.2) / 2)
    expected = math.sqrt(3) * w**2 * math.sqrt(0.2)
    assert abs(state.terms[(2, 0, 1, 0)]) == pytest.approx(expected, rel=1e-12)


def test_from_first_quantized_recovers_fock_builder():
    direct = fock_occupation_state(1, 2, 1, Statistics.BOSON)
    converted = from_first_quantized(fock_initial_state(1, 2, 1, Statistics.BOSON))
    assert converted.terms.keys() == direct.terms.keys()
    for key, value in converted.terms.items():
        assert value == pytest.approx(direct.terms[key], rel=1e-12)


def test_from_first_quantized_rejects_lopsided_states():
    term = tuple(SingleParticleState(m) for m in (PHI, PSI))
    other = tuple(SingleParticleState(m) for m in (PSI, PHI))
    lopsided = make_state(
        Statistics.BOSON,
        2,
        [(term, 0.9), (other, 0.1)],
    )
    with pytest.raises(StatisticsMismatchError):
        from_first_quantized(lopsided)


def test_fermion_create_annihilate_signs():
    occ = f((PHI, 1), (PSI, 1), (V, 1))
    # annihilating the middle slot crosses one occupied state
    result = _annihilate(occ, SingleParticleState(PSI, 1))
    assert result is not None
    sign, rest = result
    assert rest == f((PHI, 1), (V, 1))
    assert sign == -1
    # annihilating an absent state gives nothing
    assert _annihilate(occ, SingleParticleState(U, 1)) is None
    # creating an occupied state gives nothing
    assert _create(occ, SingleParticleState(V, 1)) is None
    created = _create(f((PHI, 1),), SingleParticleState(PSI, 1))
    assert created is not None
    sign, grown = created
    assert grown == f((PHI, 1), (PSI, 1))
    assert sign == -1  # crosses phi(1) in the sorted order


def test_fermion_creation_order_anticommutes():
    base = f((PHI, 1),)
    x = SingleParticleState(V, 1)
    y = SingleParticleState(U, 1)
    sign_x, with_x = _create(base, x)
    sign_xy, xy = _create(with_x, y)
    sign_y, with_y = _create(base, y)
    sign_yx, yx = _create(with_y, x)
    assert xy == yx
    assert sign_x * sign_xy == -(sign_y * sign_yx)


def test_boson_vertex_carries_sqrt_occupancies():
    state = fock_occupation_state(1, 1, 1, Statistics.BOSON)
    scattered = apply_fwm_operator(state, 1 + 0j, 0j)
    assert set(scattered.terms) == {(0, 0, 2, 1)}
    # sqrt(n_phi * n_psi * (n_v+1) * (n_u+1)) = sqrt(2)
    assert scattered.terms[(0, 0, 2, 1)] == pytest.approx(math.sqrt(2))


def test_fermion_operator_blocks_occupied_destinations():
    state = fock_occupation_state(1, 1, 1, Statistics.FERMION)
    scattered = apply_fwm_operator(state, 1 + 0j, 1 + 0j)
    assert scattered.terms == {}
    assert oracle_scattered_norm(scattered) == 0.0


@pytest.mark.parametrize(
    "n1,n2,n3",
    [(1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (3, 2, 1), (2, 2, 2)],
)
@pytest.mark.parametrize("pair", [(1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0.2 + 0j)])
@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_oracle_matches_first_quantized_engine_fock(n1, n2, n3, pair, statistics):
    sa, sb = pair
    firstq = apply_first_order(fock_initial_state(n1, n2, n3, statistics)).coefficients
    expected = coefficient_norm(firstq, sa, sb)
    scattered = apply_fwm_operator(fock_occupation_state(n1, n2, n3, statistics), sa, sb)
    assert oracle_scattered_norm(scattered) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("n,epsilon", [(2, 0.0), (3, 1 / 3), (4, 0.2), (5, 0.5)])
@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_oracle_matches_first_quantized_engine_coherent(n, epsilon, statistics):
    sa, sb = 0.3 + 0.1j, 0.2 + 0j
    firstq = apply_first_order(coherent_initial_state(n, epsilon, statistics)).coefficients
    expected = coefficient_norm(firstq, sa, sb)
    scattered = apply_fwm_operator(coherent_occupation_state(n, epsilon, statistics), sa, sb)
    assert oracle_scattered_norm(scattered) == pytest.approx(expected, abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)
def test_oracle_linearity_in_amplitudes(n1, n2, n3, sa, sb):
    # the scattered norm is |sa|-homogeneous along each process separately
    state = fock_occupation_state(n1, n2, n3, Statistics.BOSON)
    only_a = oracle_scattered_norm(apply_fwm_operator(state, sa, 0j))
    base_a = oracle_scattered_norm(apply_fwm_operator(state, 1 + 0j, 0j))
    assert only_a == pytest.approx(abs(sa) * base_a, abs=1e-9)


# -- references for the direct kernels --------------------------------------


def coherent_fermion_occupation_reference(n, epsilon):
    """The fermion occupation expansion as first written: canonicalize each assignment."""
    w_in = math.sqrt((1.0 - epsilon) / 2.0)
    w_seed = math.sqrt(epsilon)
    terms = {}
    for assignment in product((PHI, PSI, V), repeat=n):
        m = sum(1 for mode in assignment if mode is PHI)
        k = sum(1 for mode in assignment if mode is PSI)
        coeff = w_in ** (m + k) * w_seed ** (n - m - k)
        if coeff == 0.0:
            continue
        slots = tuple(SingleParticleState(mode, i + 1) for i, mode in enumerate(assignment))
        canonical, sign = canonical_fermion_term(slots)
        terms[canonical] = complex(sign * coeff)
    return dict(sorted(terms.items()))


@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1 / 3, 0.5])
@pytest.mark.parametrize("n", range(2, 7))
def test_coherent_fermion_occupation_matches_canonicalized_reference(n, epsilon):
    state = coherent_occupation_state(n, epsilon, Statistics.FERMION)
    reference = coherent_fermion_occupation_reference(n, epsilon)
    assert list(state.terms) == list(reference)
    assert [repr(value) for value in state.terms.values()] == [
        repr(value) for value in reference.values()
    ]


def _annihilate(occ, key):
    """Remove key from a sorted occupation: (sign, rest), or None when absent."""
    idx = bisect_left(occ, key)
    if idx == len(occ) or occ[idx] != key:
        return None
    sign = -1 if idx % 2 else 1
    return sign, occ[:idx] + occ[idx + 1 :]


def _create(occ, key):
    """Insert key into a sorted occupation: (sign, grown), or None when occupied."""
    idx = bisect_left(occ, key)
    if idx < len(occ) and occ[idx] == key:
        return None
    sign = -1 if idx % 2 else 1
    return sign, occ[:idx] + (key,) + occ[idx:]


def apply_fwm_reference(state, sa, sb):
    """The ladder-operator loop as first written: one value per path, merged one by one."""
    merged = {}

    def accumulate(key, value):
        if key in merged:
            merged[key] = merged[key] + value
        else:
            merged[key] = value

    if state.statistics is Statistics.BOSON:
        vertex = complex(sa) + complex(sb)
        for occ, value in state.terms.items():
            n_phi, n_psi, n_v, n_u = occ
            if n_phi < 1 or n_psi < 1:
                continue
            factor = vertex * math.sqrt(n_phi * n_psi * (n_v + 1) * (n_u + 1))
            accumulate((n_phi - 1, n_psi - 1, n_v + 1, n_u + 1), value * complex(factor))
    else:
        for occ, value in state.terms.items():
            phi_qs = [slot.q for slot in occ if slot.mode is PHI]
            psi_qs = [slot.q for slot in occ if slot.mode is PSI]
            for q in phi_qs:
                for qp in psi_qs:
                    for amplitude, creations in (
                        (complex(sa), (SingleParticleState(U, qp), SingleParticleState(V, q))),
                        (complex(sb), (SingleParticleState(V, qp), SingleParticleState(U, q))),
                    ):
                        sign, current = _annihilate(occ, SingleParticleState(PHI, q))
                        step = _annihilate(current, SingleParticleState(PSI, qp))
                        sign, current = step[0] * sign, step[1]
                        for key in creations:
                            step = _create(current, key)
                            if step is None:
                                break
                            sign, current = step[0] * sign, step[1]
                        else:
                            accumulate(current, value * complex(sign * amplitude))
    return {key: value for key, value in sorted(merged.items()) if value != 0}


OCCUPATION_INPUTS = [
    pytest.param(lambda s: coherent_occupation_state(2, 0.0, s), id="coherent-2-0"),
    pytest.param(lambda s: coherent_occupation_state(4, 0.2, s), id="coherent-4-0.2"),
    pytest.param(lambda s: coherent_occupation_state(5, 1 / 3, s), id="coherent-5-1/3"),
    pytest.param(lambda s: coherent_occupation_state(6, 0.5, s), id="coherent-6-0.5"),
    pytest.param(lambda s: fock_occupation_state(1, 1, 1, s), id="fock-1-1-1"),
    pytest.param(lambda s: fock_occupation_state(3, 2, 1, s), id="fock-3-2-1"),
    pytest.param(lambda s: fock_occupation_state(4, 4, 2, s), id="fock-4-4-2"),
    pytest.param(lambda s: from_first_quantized(fock_initial_state(2, 3, 1, s)), id="fock-firstq-2-3-1"),
]


@pytest.mark.parametrize(
    "pair",
    [
        (1 + 0j, 1 + 0j),
        (0.3 + 0.1j, -0.7 + 0.2j),
        (complex(-0.0, 0.5), complex(0.2, -0.0)),
    ],
)
@pytest.mark.parametrize("build", OCCUPATION_INPUTS)
@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_apply_fwm_operator_matches_form_based_reference(statistics, build, pair):
    # Each value's bits must agree, signed zeros included.
    state = build(statistics)
    scattered = apply_fwm_operator(state, *pair)
    reference = apply_fwm_reference(state, *pair)
    assert list(scattered.terms) == list(reference)
    assert [repr(value) for value in scattered.terms.values()] == [
        repr(value) for value in reference.values()
    ]
    assert all(type(value) is complex for value in scattered.terms.values())


@pytest.mark.parametrize(
    "statistics,key",
    [(Statistics.BOSON, (1, 1, 0, 0)), (Statistics.FERMION, f((PHI, 1), (PSI, 2)))],
)
@pytest.mark.parametrize("form", [AmplitudeForm(ca=1, cb=0.5), AmplitudeForm(cb=-1j)])
def test_apply_fwm_operator_rejects_scattered_input(statistics, key, form):
    # The operator multiplies each coefficient by a number; a form is no number.
    state = OccupationState(statistics, 2, {key: form})
    with pytest.raises(TypeError):
        apply_fwm_operator(state, 1 + 0j, 1 + 0j)


@pytest.mark.parametrize(
    "n,key",
    [
        pytest.param(3, f((PHI, 1), (PHI, 1), (PSI, 2)), id="repeated-slot"),
        pytest.param(2, f((PSI, 2), (PHI, 1)), id="unsorted"),
        pytest.param(2, (SingleParticleState(PHI), SingleParticleState(PSI, 1)), id="q-none"),
        pytest.param(2, f((PHI, 0), (PSI, 1)), id="q-zero"),
        pytest.param(2, f((PHI, -1), (PSI, 1)), id="q-negative"),
        pytest.param(3, f((PHI, 1), (PSI, 2)), id="short-key"),
    ],
)
def test_apply_fwm_operator_rejects_non_canonical_fermion_keys(n, key):
    state = OccupationState(Statistics.FERMION, n, {key: 1 + 0j})
    with pytest.raises(ValueError, match="^fermionic state keys must be canonical$"):
        apply_fwm_operator(state, 1 + 0j, 1 + 0j)


SIGNED_ZEROS = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
# Real and imaginary values with a signed zero part: -1 * z and -z differ there.
amplitudes = st.one_of(
    st.sampled_from(
        SIGNED_ZEROS
        + [complex(1.0, 0.0), complex(-0.7, 0.0), complex(0.5, -0.0), complex(-0.0, 1.0)]
    ),
    st.floats(min_value=-2, max_value=2).map(complex),
    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
)


@st.composite
def fermion_occupation_states(draw):
    """Canonical Slater keys over sparse q labels, seed v and u slots included."""
    labels = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4, unique=True))
    pool = [SingleParticleState(mode, q) for mode in (PHI, PSI, V, U) for q in labels]
    n = draw(st.integers(1, min(6, len(pool))))
    keys = draw(
        st.lists(
            st.lists(st.sampled_from(pool), min_size=n, max_size=n, unique=True).map(
                lambda slots: tuple(sorted(slots))
            ),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    values = draw(st.lists(amplitudes, min_size=len(keys), max_size=len(keys)))
    terms = {key: complex(value) for key, value in zip(keys, values)}
    return OccupationState(Statistics.FERMION, n, terms)


@settings(max_examples=150, deadline=None)
@given(fermion_occupation_states(), amplitudes, amplitudes)
def test_fermion_bitmask_kernel_matches_reference_bit_for_bit(state, sa, sb):
    scattered = apply_fwm_operator(state, sa, sb)
    assert "terms" not in vars(scattered)
    norm_from_sums = oracle_scattered_norm(scattered)
    reference = apply_fwm_reference(state, sa, sb)
    assert list(scattered.terms) == list(reference)
    assert [repr(value) for value in scattered.terms.values()] == [
        repr(value) for value in reference.values()
    ]
    total = 0.0
    for value in scattered.terms.values():
        total += abs(value) ** 2
    assert repr(norm_from_sums) == repr(math.sqrt(total))
    assert repr(oracle_scattered_norm(scattered)) == repr(norm_from_sums)
