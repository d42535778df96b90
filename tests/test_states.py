import math
from itertools import combinations_with_replacement, permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixbench import states
from mixbench.cli import VERIFY_EPSILONS
from mixbench.states import (
    Mode,
    PauliViolationError,
    SectorSpec,
    Statistics,
    StatisticsMismatchError,
    canonical_fermion_term,
    coherent_initial_state,
    fock_initial_state,
    is_canonical_fermion_term,
    make_state,
    parse_term,
    render_term,
    sector_of,
    state_norm,
    symmetrize,
    validate_term,
)
from helpers import b, f, permute_slots

PHI, PSI, V, U = Mode.PHI, Mode.PSI, Mode.V, Mode.U


def _term_sort_key(term):
    # Canonical term order spelled out.  Valid keys sort the same by
    # themselves: bosonic slots all carry q = None, fermionic ones an int.
    return tuple((slot.mode.value, slot.q if slot.q is not None else 0) for slot in term)


def test_mode_ordering_underlies_canonical_sort():
    assert PHI < PSI < V < U


def test_sector_of_counts_modes():
    assert sector_of(b(PHI, V, PHI, U)) == SectorSpec(2, 0, 1, 1)


def test_validate_boson_rejects_q_labels():
    with pytest.raises(StatisticsMismatchError):
        validate_term(f((PHI, 1)), Statistics.BOSON)


def test_validate_fermion_requires_q_labels():
    with pytest.raises(StatisticsMismatchError):
        validate_term(b(PHI), Statistics.FERMION)


def test_validate_fermion_rejects_duplicates():
    with pytest.raises(PauliViolationError):
        validate_term(f((PHI, 1), (PSI, 1), (PHI, 1)), Statistics.FERMION)


@pytest.mark.parametrize(
    "term,sign",
    [
        (f((PHI, 1), (PSI, 1)), +1),
        (f((PSI, 1), (PHI, 1)), -1),
        (f((V, 1), (PHI, 1), (PSI, 1)), +1),  # 3-cycle, even
        (f((PHI, 2), (PHI, 1)), -1),
        (f((U, 2), (U, 1), (V, 1)), -1),  # reversal of 3 slots is one transposition
    ],
)
def test_canonical_fermion_term_parity(term, sign):
    sorted_term, got = canonical_fermion_term(term)
    assert list(sorted_term) == sorted(sorted_term)
    assert got == sign


def test_canonical_fermion_term_rejects_pauli_violation():
    with pytest.raises(PauliViolationError):
        canonical_fermion_term(f((V, 1), (V, 1)))


def test_make_state_merges_and_prunes():
    term = b(PHI, PSI)
    state = make_state(
        Statistics.BOSON,
        2,
        [(term, 1.0), (term, -1.0)],
    )
    assert state.terms == {}


def test_make_state_folds_fermion_sign():
    swapped = f((PSI, 1), (PHI, 1))
    state = make_state(Statistics.FERMION, 2, [(swapped, 1.0)])
    key = f((PHI, 1), (PSI, 1))
    assert set(state.terms) == {key}
    assert state.terms[key] == -1.0


def test_symmetrize_counts_distinct_orderings():
    state = symmetrize(b(PHI, PSI, V))
    assert len(state.terms) == 6
    assert state_norm(state) == pytest.approx(1.0, abs=1e-12)

    repeated = symmetrize(b(V, V, U))
    assert len(repeated.terms) == 3
    assert state_norm(repeated) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetrize_matches_distinct_permutations(n):
    # every mode multiset of size n, given sorted and reversed
    for modes in combinations_with_replacement(list(Mode), n):
        expected = sorted(set(permutations(b(*modes))), key=_term_sort_key)
        coeff = complex(1.0 / math.sqrt(len(expected)))
        for term in (b(*modes), b(*reversed(modes))):
            state = symmetrize(term)
            assert list(state.terms) == expected
            assert all(value == coeff for value in state.terms.values())


@pytest.mark.parametrize("n1,n2,n3", [(1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 3, 1)])
def test_fock_boson_state_is_normalized_with_multinomial_terms(n1, n2, n3):
    state = fock_initial_state(n1, n2, n3, Statistics.BOSON)
    n = n1 + n2 + n3
    expected_terms = math.factorial(n) // (
        math.factorial(n1) * math.factorial(n2) * math.factorial(n3)
    )
    assert len(state.terms) == expected_terms
    assert state_norm(state) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n1,n2,n3", [(1, 1, 0), (1, 1, 1), (3, 2, 1)])
def test_fock_fermion_state_is_one_slater_key(n1, n2, n3):
    state = fock_initial_state(n1, n2, n3, Statistics.FERMION)
    assert len(state.terms) == 1
    (key,) = state.terms
    # q labels run 1..n_i within each mode, sharing one label space
    assert key == f(
        *[(PHI, q) for q in range(1, n1 + 1)],
        *[(PSI, q) for q in range(1, n2 + 1)],
        *[(V, q) for q in range(1, n3 + 1)],
    )
    assert state.terms[key] == 1.0


def test_fock_initial_state_validates_counts():
    with pytest.raises(ValueError):
        fock_initial_state(0, 1, 0, Statistics.BOSON)
    with pytest.raises(ValueError):
        fock_initial_state(1, 1, -1, Statistics.BOSON)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("n,epsilon", [(2, 0.0), (3, 1 / 3), (4, 0.2), (5, 0.5)])
def test_coherent_state_is_normalized(statistics, n, epsilon):
    state = coherent_initial_state(n, epsilon, statistics)
    assert state_norm(state) == pytest.approx(1.0, abs=1e-12)
    # with no seed amplitude the v mode never appears
    if epsilon == 0.0:
        assert len(state.terms) == 2**n
        assert all(slot.mode is not V for term in state.terms for slot in term)
    else:
        assert len(state.terms) == 3**n


def test_coherent_state_validates_arguments():
    with pytest.raises(ValueError):
        coherent_initial_state(1, 0.2, Statistics.BOSON)
    with pytest.raises(ValueError):
        coherent_initial_state(3, 1.0, Statistics.BOSON)
    with pytest.raises(ValueError):
        coherent_initial_state(3, -0.1, Statistics.BOSON)


def test_permute_slots_boson_symmetry():
    state = fock_initial_state(2, 1, 1, Statistics.BOSON)
    permuted = permute_slots(state, (3, 2, 1, 0))
    assert permuted.terms.keys() == state.terms.keys()
    for term, value in state.terms.items():
        assert permuted.terms[term] == pytest.approx(value)


def test_permute_slots_fermion_antisymmetry():
    state = fock_initial_state(2, 1, 0, Statistics.FERMION)
    swapped = permute_slots(state, (1, 0, 2))  # odd permutation
    (key,) = state.terms
    assert swapped.terms[key] == -state.terms[key]
    cycled = permute_slots(state, (1, 2, 0))  # even permutation
    assert cycled.terms[key] == state.terms[key]


def test_project_sector_selects_terms():
    state = fock_initial_state(1, 1, 1, Statistics.BOSON)

    def project(sector):
        return [term for term in state.terms if sector_of(term) == sector]

    assert project(SectorSpec(1, 1, 1, 0)) == list(state.terms)
    assert project(SectorSpec(0, 0, 2, 1)) == []


@pytest.mark.parametrize(
    "text,term",
    [
        ("phi psi v", b(PHI, PSI, V)),
        ("v v u", b(V, V, U)),
        ("phi(1) psi(2) v(1)", f((PHI, 1), (PSI, 2), (V, 1))),
        ("phi psi(3) v u", (*b(PHI), *f((PSI, 3)), *b(V, U))),
        ("phi(10) psi(12) v(1) u(100)", f((PHI, 10), (PSI, 12), (V, 1), (U, 100))),
    ],
)
def test_parse_and_render_term_round_trip(text, term):
    assert parse_term(text) == term
    assert render_term(term) == text


@pytest.mark.parametrize("text", ["", "w", "phi()", "phi(0)", "phi(1) 2"])
def test_parse_term_rejects(text):
    with pytest.raises(ValueError):
        parse_term(text)


# -- randomized structure checks ------------------------------------------

fermion_slots = st.lists(
    st.tuples(st.sampled_from([PHI, PSI, V, U]), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(fermion_slots)
def test_canonicalization_is_idempotent(pairs):
    term = f(*pairs)
    sorted_term, sign = canonical_fermion_term(term)
    again, sign2 = canonical_fermion_term(sorted_term)
    assert again == sorted_term
    assert sign2 == 1
    assert sign in (-1, 1)


@given(fermion_slots, st.data())
def test_transposition_flips_parity(pairs, data):
    term = f(*pairs)
    if len(term) < 2:
        _, sign = canonical_fermion_term(term)
        assert sign == 1
        return
    i = data.draw(st.integers(min_value=0, max_value=len(term) - 2))
    swapped = list(term)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    _, sign = canonical_fermion_term(term)
    _, sign_swapped = canonical_fermion_term(tuple(swapped))
    assert sign_swapped == -sign


@given(st.permutations(list(range(4))))
def test_full_antisymmetry_under_any_permutation(perm):
    state = fock_initial_state(2, 1, 1, Statistics.FERMION)
    permuted = permute_slots(state, perm)
    sign = 1
    seen = [False] * 4
    for start in range(4):
        if seen[start]:
            continue
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    (key,) = state.terms
    assert permuted.terms[key] == sign * state.terms[key]


def coherent_reference(n, epsilon, statistics):
    """The expansion as first written: every raw assignment through make_state."""
    w_in = math.sqrt((1.0 - epsilon) / 2.0)
    w_seed = math.sqrt(epsilon)
    entries = []
    for assignment in product((PHI, PSI, V), repeat=n):
        m = sum(1 for mode in assignment if mode is PHI)
        k = sum(1 for mode in assignment if mode is PSI)
        coeff = w_in ** (m + k) * w_seed ** (n - m - k)
        if coeff == 0.0:
            continue
        if statistics is Statistics.BOSON:
            term = b(*assignment)
        else:
            term = f(*((mode, i + 1) for i, mode in enumerate(assignment)))
        entries.append((term, coeff))
    return make_state(statistics, n, entries)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1 / 3, 0.5])
@pytest.mark.parametrize("n", range(2, 7))
def test_coherent_initial_state_matches_raw_assignment_reference(n, epsilon, statistics):
    # Each value's bits must agree, signed zeros included.
    state = coherent_initial_state(n, epsilon, statistics)
    reference = coherent_reference(n, epsilon, statistics)
    # Sector-major: (m, k) ascending, canonical order within each sector.
    expected = sorted(reference.terms, key=lambda t: (sector_of(t)[:2], _term_sort_key(t)))
    assert list(state.terms) == expected
    assert [repr(value) for value in state.terms.values()] == [
        repr(reference.terms[term]) for term in state.terms
    ]
    assert all(type(value) is complex for value in state.terms.values())


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("epsilon", VERIFY_EPSILONS)
@pytest.mark.parametrize("n", range(2, 8))
def test_the_whole_coherent_state_is_its_sectors_in_turn(n, epsilon, statistics):
    # Keys in order and each value's bits: the whole build is the sector
    # builds concatenated, m ascending and then k ascending.
    whole = coherent_initial_state(n, epsilon, statistics)
    pieces = [
        coherent_initial_state(n, epsilon, statistics, sector=SectorSpec(m, k, n - m - k, 0))
        for m in range(n + 1)
        for k in range(n - m + 1)
    ]
    expected = [item for piece in pieces for item in piece.terms.items()]
    assert list(whole.terms) == [term for term, _ in expected]
    assert [repr(value) for value in whole.terms.values()] == [
        repr(value) for _, value in expected
    ]


def test_the_input_builders_canonicalize_nothing(monkeypatch):
    # Every input key is built already canonical, so neither the merge nor
    # the sort of a fermion key is ever needed.
    def refuse(*args, **kwargs):
        raise AssertionError("an input builder canonicalized a term")

    monkeypatch.setattr(states, "make_state", refuse)
    monkeypatch.setattr(states, "canonical_fermion_term", refuse)
    for statistics in Statistics:
        assert fock_initial_state(3, 2, 1, statistics).terms
        assert coherent_initial_state(4, 0.2, statistics).terms
        sector = SectorSpec(2, 1, 1, 0)
        assert coherent_initial_state(4, 0.2, statistics, sector=sector).terms


fermion_slots_with_repeats = st.lists(
    st.tuples(st.sampled_from([PHI, PSI, V, U]), st.integers(min_value=1, max_value=3)),
    max_size=6,
)


@given(fermion_slots_with_repeats)
def test_is_canonical_fermion_term_matches_full_canonicalization(pairs):
    term = f(*pairs)
    try:
        expected = canonical_fermion_term(term) == (term, 1)
    except PauliViolationError:
        expected = False
    assert is_canonical_fermion_term(term) is expected


boson_terms = st.lists(st.sampled_from([PHI, PSI, V, U]), min_size=1, max_size=5).map(
    lambda modes: b(*modes)
)
fermion_terms = fermion_slots.map(lambda pairs: f(*pairs))


@given(st.one_of(st.lists(boson_terms), st.lists(fermion_terms)))
def test_terms_sort_by_themselves_in_canonical_term_order(terms):
    assert sorted(terms) == sorted(terms, key=_term_sort_key)


def plain_norm(values):
    """The norm loop without the underflow pass: sqrt of the sum of |value|^2, in order."""
    total = 0.0
    for value in values:
        total += abs(value) ** 2
    return math.sqrt(total)


tiny_or_normal = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.floats(min_value=-1e-150, max_value=1e-150, allow_nan=False),
)


@given(st.lists(st.builds(complex, tiny_or_normal, tiny_or_normal), max_size=8))
def test_l2_norm_keeps_the_plain_loops_bits_above_underflow(values):
    plain = plain_norm(values)
    norm = states.l2_norm(lambda: iter(values))
    if plain**2 >= 1e-300:  # well above the smallest normal float
        assert repr(norm) == repr(plain)
    elif any(values):
        largest = max(map(abs, values))
        assert largest * (1 - 1e-12) <= norm <= largest * math.sqrt(len(values)) * (1 + 1e-12)
    else:
        assert norm == 0.0


@pytest.mark.parametrize(
    "values,norm",
    [
        ([1e-200], 1e-200),
        ([3e-200j, -4e-200], 5e-200),
        ([complex(3e-170, 4e-170)] * 4, 1e-169),
        ([0j, 0j], 0.0),
        ([], 0.0),
    ],
)
def test_l2_norm_does_not_underflow_to_zero(values, norm):
    assert plain_norm(values) < norm or norm == 0.0  # the plain loop loses it
    assert states.l2_norm(lambda: iter(values)) == pytest.approx(norm, rel=1e-15, abs=0.0)
