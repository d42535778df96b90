import gc
import math
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixbench.amplitudes import AmplitudeForm
from mixbench.engine import (
    PROCESS_A,
    PROCESS_B,
    PROCESSES,
    ScatterResult,
    apply_first_order,
    check_destination,
    group_paths,
    path_report,
    source_sector,
)
from mixbench.states import (
    ManyBodyState,
    Mode,
    PauliViolationError,
    SectorSpec,
    SingleParticleState,
    Statistics,
    canonical_fermion_term,
    coefficient_norm,
    coherent_initial_state,
    fock_initial_state,
    parse_term,
    render_term,
    sector_of,
    symmetrize,
)
from helpers import b, f, permute_slots, scaled, scaled_forms, sources_into

PHI, PSI, V, U = Mode.PHI, Mode.PSI, Mode.V, Mode.U


def test_single_pair_boson_scatters_both_ways():
    state = fock_initial_state(1, 1, 0, Statistics.BOSON)
    result = apply_first_order(state)
    final = result.final_state.terms
    w = 1.0 / math.sqrt(2)
    # (phi,psi)/sqrt2 + (psi,phi)/sqrt2 feeds both orderings of (v,u)
    assert final[b(V, U)].ca == pytest.approx(w)
    assert final[b(V, U)].cb == pytest.approx(w)
    assert final[b(U, V)].ca == pytest.approx(w)
    assert final[b(U, V)].cb == pytest.approx(w)
    assert coefficient_norm(result.coefficients, 1, 1) == pytest.approx(2.0, abs=1e-12)
    assert coefficient_norm(result.coefficients, 1, -1) == pytest.approx(0.0, abs=1e-12)


def test_single_pair_fermion_interferes_destructively():
    state = fock_initial_state(1, 1, 0, Statistics.FERMION)
    result = apply_first_order(state)
    final = result.final_state.terms
    key = f((V, 1), (U, 1))
    assert set(final) == {key}
    # process B lands on (u,v), whose canonical reordering flips the sign
    assert final[key].ca == pytest.approx(1.0)
    assert final[key].cb == pytest.approx(-1.0)
    assert coefficient_norm(result.coefficients, 1, 1) == pytest.approx(0.0, abs=1e-12)
    assert coefficient_norm(result.coefficients, 1, -1) == pytest.approx(2.0, abs=1e-12)


def test_two_phi_fermion_expansion_frozen():
    # hand expansion of the (n1,n2,n3) = (2,1,0) Slater term
    state = fock_initial_state(2, 1, 0, Statistics.FERMION)
    final = apply_first_order(state).final_state.terms
    expected = {
        f((PHI, 2), (V, 1), (U, 1)): AmplitudeForm(ca=-1.0, cb=1.0),
        f((PHI, 1), (V, 2), (U, 1)): AmplitudeForm(ca=1.0),
        f((PHI, 1), (V, 1), (U, 2)): AmplitudeForm(cb=-1.0),
    }
    assert final == expected


def test_fermion_pauli_blocking_suppresses_occupied_destinations():
    # the seeded v(1) blocks every path of the (1,1,1) configuration
    state = fock_initial_state(1, 1, 1, Statistics.FERMION)
    result = apply_first_order(state)
    assert result.final_state.terms == {}
    assert result.paths == ()
    assert coefficient_norm(result.coefficients, 1, 1) == 0.0


def test_partial_blocking_leaves_single_process():
    # n1=2 > n3=1 >= n2=1: only the phi->v channel survives for q=2
    pairs = apply_first_order(fock_initial_state(2, 1, 1, Statistics.FERMION)).coefficients
    for sa, sb in ((1 + 0j, 1 + 0j), (0.3 + 0.1j, 0.2 + 0j)):
        assert coefficient_norm(pairs, sa, sb) == pytest.approx(abs(sa), abs=1e-12)


def test_boson_stimulation_count():
    # (1,1,1): four paths into the doubly occupied v ordering
    result = apply_first_order(fock_initial_state(1, 1, 1, Statistics.BOSON))
    paths, (ca, cb) = path_report(result, parse_term("v v u"))[parse_term("v v u")]
    assert len(paths) == 4
    assert {p.process for p in paths} == {PROCESS_A, PROCESS_B}
    assert ca == pytest.approx(2 / math.sqrt(6))
    assert cb == pytest.approx(2 / math.sqrt(6))


def test_scattered_norm_fock_boson_closed_value():
    pairs = apply_first_order(fock_initial_state(2, 3, 4, Statistics.BOSON)).coefficients
    expected = math.sqrt(2 * 3 * (4 + 1)) * 2.0
    assert coefficient_norm(pairs, 1, 1) == pytest.approx(expected, rel=1e-12)


def test_rejects_already_scattered_state():
    # A path multiplies its source coefficient by its sign; a form is no number.
    for statistics in Statistics:
        once = apply_first_order(fock_initial_state(1, 1, 0, statistics)).final_state
        with pytest.raises(TypeError):
            apply_first_order(once)


def test_path_report_canonicalizes_fermion_destination():
    result = apply_first_order(fock_initial_state(2, 1, 0, Statistics.FERMION))
    # query in scrambled slot order; the report must find the sorted key
    scrambled = f((V, 2), (PHI, 1), (U, 1))
    ((key, (paths, _)),) = path_report(result, scrambled).items()
    assert key == f((PHI, 1), (V, 2), (U, 1))
    assert len(paths) == 1
    assert paths[0].destination_term == key


def test_path_report_widens_an_unlabelled_fermion_destination_to_its_sector():
    result = apply_first_order(fock_initial_state(2, 1, 0, Statistics.FERMION))
    report = path_report(result, b(PHI, V, U))
    assert list(report) == [
        f((PHI, 1), (V, 1), (U, 2)),
        f((PHI, 1), (V, 2), (U, 1)),
        f((PHI, 2), (V, 1), (U, 1)),
    ]
    assert sum(len(paths) for paths, _ in report.values()) == len(result.paths)
    # every path into the sector is Pauli blocked: the query maps to no paths
    blocked = apply_first_order(fock_initial_state(1, 1, 1, Statistics.FERMION))
    assert path_report(blocked, b(V, V, U)) == {b(V, V, U): ([], (0j, 0j))}


def _small_states():
    """Every Fock point with n <= 5 and the coherent states n = 2..5, eps 0 and 0.2."""
    for statistics in Statistics:
        for n in range(2, 6):
            for n1 in range(1, n):
                for n2 in range(1, n - n1 + 1):
                    point = (n1, n2, n - n1 - n2)
                    yield pytest.param(
                        fock_initial_state(*point, statistics), id=f"{statistics.value}-{point}"
                    )
            for epsilon in (0.0, 0.2):
                yield pytest.param(
                    coherent_initial_state(n, epsilon, statistics),
                    id=f"{statistics.value}-n{n}-eps{epsilon}",
                )


def _sectors(n):
    return [
        (n_phi, n_psi, n_v, n - n_phi - n_psi - n_v)
        for n_phi in range(n + 1)
        for n_psi in range(n - n_phi + 1)
        for n_v in range(n - n_phi - n_psi + 1)
    ]


@pytest.mark.parametrize("state", _small_states())
def test_scattering_only_the_sources_of_a_sector_gives_the_same_report(state):
    full = apply_first_order(state)
    for n_phi, n_psi, n_v, n_u in _sectors(state.n):
        modes = (PHI,) * n_phi + (PSI,) * n_psi + (V,) * n_v + (U,) * n_u
        unlabelled = b(*modes)
        destinations = [unlabelled]
        if state.statistics is Statistics.FERMION:
            matched = list(path_report(full, unlabelled))
            # The first and last labelled destination, each queried in reversed slot order.
            ends = dict.fromkeys((matched[0], matched[-1]))
            destinations += [dest[::-1] for dest in ends if dest != unlabelled]
        source_sector = SectorSpec(n_phi + 1, n_psi + 1, n_v - 1, n_u - 1)
        for destination in destinations:
            sources = sources_into(state, destination)
            assert {sector_of(term) for term in sources.terms} <= {source_sector}
            # repr tells signed zeros apart in the values and the sums
            kept = apply_first_order(sources)
            assert repr(path_report(kept, destination)) == repr(path_report(full, destination))


def test_a_blocked_or_unreachable_sector_keeps_no_path():
    blocked = fock_initial_state(1, 1, 1, Statistics.FERMION)
    unreachable = fock_initial_state(2, 1, 1, Statistics.BOSON)
    for state, destination in ((blocked, b(V, V, U)), (unreachable, b(PHI, PSI, V, V))):
        result = apply_first_order(sources_into(state, destination))
        assert path_report(result, destination) == {destination: ([], (0j, 0j))}
        assert destination not in result.final_state.terms  # the listing's total is "0"
    assert sources_into(unreachable, b(PHI, PSI, V, V)).terms == {}


BOSON, FERMION = Statistics.BOSON, Statistics.FERMION
PARTLY_LABELLED = "^fermion destination must label every slot with q, or none$"


@pytest.mark.parametrize(
    "point,statistics,destination,message",
    [
        ((1, 1, 1), BOSON, "v(1) v u", r"^bosonic slots carry no q label, got v\(1\)$"),
        ((2, 2, 0), FERMION, "phi(1) psi v(1) u(2)", PARTLY_LABELLED),
        ((2, 2, 0), FERMION, "v(1) v u(1) u(2)", PARTLY_LABELLED),
        ((2, 2, 0), FERMION, "v(1) u(2) v(1) u(1)", r"^fermion destination repeats v\(1\)$"),
        ((2, 2, 0), FERMION, "v u u", "^destination has 3 slots, state has 4 particles$"),
        ((1, 1, 1), BOSON, "v u v u", "^destination has 4 slots, state has 3 particles$"),
    ],
)
def test_path_report_rejects_what_check_destination_rejects(
    point, statistics, destination, message
):
    destination = parse_term(destination)
    with pytest.raises(ValueError, match=message):
        check_destination(destination, statistics, sum(point))
    result = apply_first_order(fock_initial_state(*point, statistics))
    with pytest.raises(ValueError, match=message):
        path_report(result, destination)


def test_sources_into_pins_the_size_of_the_benchmark_listing():
    # The paths_provenance point: type2 fermion, n = 8, eps = 0.2.
    state = coherent_initial_state(8, 0.2, Statistics.FERMION)
    destination = parse_term("phi phi psi psi v v v u")
    sources = sources_into(state, destination)
    assert len(sources.terms) == 560
    built = coherent_initial_state(
        8, 0.2, Statistics.FERMION, sector=source_sector(destination)
    )
    assert list(built.terms.items()) == list(sources.terms.items())
    kept = apply_first_order(sources)
    assert (len(kept.paths), len(kept.final_state.terms)) == (10_080, 1_680)
    full = apply_first_order(state)
    assert (len(full.paths), len(full.final_state.terms)) == (81_648, 16_472)


def test_path_report_order_is_the_rendered_source_then_process_then_slots():
    # At n = 10 the q labels reach 10, and "phi(10)" renders before "phi(2)":
    # rendered source order is not key order.
    destination = parse_term("phi psi v v v v v v v u")
    sources = coherent_initial_state(
        10, 0.2, Statistics.FERMION, sector=source_sector(destination)
    )
    assert sorted(sources.terms, key=render_term) != sorted(sources.terms)
    report = path_report(apply_first_order(sources), destination)
    assert (len(report), sum(len(paths) for paths, _ in report.values())) == (720, 10_080)

    def text_process_slots(path):
        return render_term(path.source_term), path.process, path.phi_slot, path.psi_slot

    assert report == {
        dest: (sorted(paths, key=text_process_slots), total)
        for dest, (paths, total) in report.items()
    }
    # The destinations too are in rendered order, which is not key order here.
    assert list(report) == sorted(report, key=render_term) != sorted(report)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("epsilon", [0.0, 0.2, 1 / 3, 0.5])
@pytest.mark.parametrize("n", range(2, 8))
def test_a_sector_build_is_the_sources_of_the_whole_state(n, epsilon, statistics):
    # Same keys in the same order and each value's bits, signed zeros included.
    full = coherent_initial_state(n, epsilon, statistics)
    for m in range(n + 1):
        for k in range(n - m + 1):
            sector = SectorSpec(m, k, n - m - k, 0)
            built = coherent_initial_state(n, epsilon, statistics, sector=sector)
            if m and k:
                modes = (PHI,) * (m - 1) + (PSI,) * (k - 1) + (V,) * (n - m - k + 1) + (U,)
                destination = b(*modes)
                assert source_sector(destination) == sector
                expected = sources_into(full, destination).terms
            else:  # no destination is fed by a sector without a phi and a psi
                expected = {t: value for t, value in full.terms.items() if sector_of(t) == sector}
            assert list(built.terms) == list(expected)
            assert [repr(value) for value in built.terms.values()] == [
                repr(value) for value in expected.values()
            ]


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("n", range(2, 8))
def test_the_coherent_input_scatters_one_sector_at_a_time(n, statistics):
    # A path out of sector (m, k, r, 0) lands only in (m-1, k-1, r+1, 1), so
    # no two sectors share a destination, and the whole input's sums are
    # the sector sums merged in key order, each value's bits kept.
    whole = coherent_initial_state(n, 0.2, statistics)
    merged, seen = [], set()
    for m in range(n + 1):
        for k in range(n - m + 1):
            sector = SectorSpec(m, k, n - m - k, 0)
            piece = coherent_initial_state(n, 0.2, statistics, sector=sector)
            sums = apply_first_order(piece).sums
            keys = {key for _, _, key in sums}
            assert seen.isdisjoint(keys)
            seen |= keys
            merged += sums
    # Ascending packed boson keys and descending fermion masks are canonical order.
    merged.sort(key=lambda total: total[2], reverse=statistics is Statistics.FERMION)
    assert repr(apply_first_order(whole).sums) == repr(merged)


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
def test_a_sector_outside_the_coherent_input_builds_nothing(statistics):
    for sector in (SectorSpec(1, 1, 0, 1), SectorSpec(1, 1, 0, 0), SectorSpec(2, 2, -1, 0)):
        state = coherent_initial_state(3, 0.2, statistics, sector=sector)
        assert state == (statistics, 3, {})


def test_the_state_builders_leave_no_garbage_cycle():
    # A cycle would hold each terms dict until the cyclic collector runs,
    # which shows in the peak memory of a long run.
    gc.collect()
    gc.disable()
    try:
        for statistics in Statistics:
            for sector in (None, SectorSpec(3, 3, 2, 0)):
                state = coherent_initial_state(8, 0.2, statistics, sector=sector)
                assert state.terms
                # A result reads every view, so its cached decoder is built.
                result = apply_first_order(state)
                assert result.coefficients and result.final_state.terms and result.paths
                del result
                del state
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_sector_amplitude_splits_the_norm():
    result = apply_first_order(fock_initial_state(1, 1, 1, Statistics.BOSON))
    sa, sb = 0.3 + 0.1j, 0.2 + 0j

    def sector_amplitude(sector):
        kept = [
            (form.ca, form.cb)
            for t, form in result.final_state.terms.items()
            if sector_of(t) == sector
        ]
        return coefficient_norm(kept, sa, sb)

    total = coefficient_norm(result.coefficients, sa, sb)
    doubled_v = sector_amplitude(SectorSpec(0, 0, 2, 1))
    single_v = sector_amplitude(SectorSpec(1, 1, 0, 1))
    # v v u and the pass-through-phi/psi sectors... the scattered state has
    # sectors (0,0,2,1) only, since phi and psi are both consumed
    assert single_v == pytest.approx(0.0, abs=1e-12)
    assert doubled_v == pytest.approx(total, rel=1e-12)


def test_scattering_commutes_with_slot_permutation():
    state = coherent_initial_state(3, 0.2, Statistics.BOSON)
    perm = (2, 0, 1)
    direct = apply_first_order(permute_slots(state, perm)).final_state
    # Bosonic slots relabel with no sign, and distinct terms stay distinct.
    swapped = {
        tuple(term[p] for p in perm): form
        for term, form in apply_first_order(state).final_state.terms.items()
    }
    assert direct.terms.keys() == swapped.keys()
    for term, form in direct.terms.items():
        other = swapped[term]
        assert form.ca == pytest.approx(other.ca, abs=1e-12)
        assert form.cb == pytest.approx(other.cb, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([Statistics.BOSON, Statistics.FERMION]),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
# A factor this small underflows the input coefficients to exact zeros, which
# make_state prunes before the scatter; a term missing on one side reads as 0.
@example(Statistics.BOSON, 5e-324 + 0j)
@example(Statistics.FERMION, 5e-324 + 0j)
def test_engine_is_linear_in_the_state(statistics, factor):
    state = fock_initial_state(2, 1, 1, statistics)
    scaled_first = apply_first_order(scaled(state, factor)).final_state.terms
    scaled_after = scaled_forms(apply_first_order(state).final_state.terms, factor)
    for term in scaled_first.keys() | scaled_after.keys():
        form = scaled_first.get(term, AmplitudeForm())
        other = scaled_after.get(term, AmplitudeForm())
        assert form.ca == pytest.approx(other.ca, abs=1e-9)
        assert form.cb == pytest.approx(other.cb, abs=1e-9)


def test_number_conservation():
    for statistics in (Statistics.BOSON, Statistics.FERMION):
        state = fock_initial_state(2, 2, 1, statistics)
        final = apply_first_order(state).final_state
        for term in final.terms:
            assert len(term) == state.n
            sector = [0, 0, 0, 0]
            for slot in term:
                sector[slot.mode] += 1
            # one phi and one psi converted into one v and one u
            assert sector[0] == 1 and sector[1] == 1
            assert sector[2] + sector[3] == 3


def naive_scatter(state):
    """Reference paths: replace the two slots, then sort the whole term."""
    fermionic = state.statistics is Statistics.FERMION
    paths = []
    for term, coeff in state.terms.items():
        for i, phi in enumerate(term):
            for j, psi in enumerate(term):
                if phi.mode is not PHI or psi.mode is not PSI:
                    continue
                for process, mode_i, mode_j in ((PROCESS_A, V, U), (PROCESS_B, U, V)):
                    dest = list(term)
                    dest[i] = SingleParticleState(mode_i, phi.q)
                    dest[j] = SingleParticleState(mode_j, psi.q)
                    dest, sign = tuple(dest), 1
                    if fermionic:
                        try:
                            dest, sign = canonical_fermion_term(dest)
                        except PauliViolationError:
                            continue  # Pauli blocked
                    value = sign * coeff
                    paths.append((term, process, i, j, sign, value, dest))
    return paths


def assert_matches_naive(state):
    result = apply_first_order(state)
    paths = naive_scatter(state)
    assert [tuple(p) for p in result.paths] == paths
    # same forms in the same canonical order
    assert list(result.final_state.terms.items()) == list(naive_path_order_sums(state).items())


fermion_slots = st.builds(SingleParticleState, st.sampled_from(list(Mode)), st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(
    st.sets(fermion_slots, min_size=2, max_size=8).map(lambda slots: tuple(sorted(slots))),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)
def test_incremental_fermion_sign_matches_full_sort(term, value):
    # every unblocked (phi slot, psi slot, process) of a random Slater key
    state = ManyBodyState(Statistics.FERMION, len(term), {term: complex(value)})
    assert_matches_naive(state)


# Sparse q labels far above n: slot codes need a width set by the largest q.
sparse_slots = st.builds(
    SingleParticleState, st.sampled_from(list(Mode)), st.sampled_from([1, 7, 23, 40])
)


@st.composite
def sparse_fermion_states(draw):
    n = draw(st.integers(2, 6))
    keys = draw(
        st.lists(
            st.sets(sparse_slots, min_size=n, max_size=n).map(lambda s: tuple(sorted(s))),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    terms = {key: complex(c) for key, c in zip(keys, values)}
    return ManyBodyState(Statistics.FERMION, n, terms)


@settings(max_examples=200, deadline=None)
@given(sparse_fermion_states())
def test_multi_term_sparse_q_fermion_states_match_naive(state):
    assert_matches_naive(state)


VIEWS = ("coefficients", "final_state", "paths")


def results_read_in_every_order(state):
    """A result per order of the views, each view read in that order."""
    for order in permutations(VIEWS):
        result = apply_first_order(state)
        yield result, {view: getattr(result, view) for view in order}


def test_paths_are_built_once_and_leave_the_final_state_alone():
    for statistics in Statistics:
        state = coherent_initial_state(4, 0.2, statistics)
        expected_paths = naive_scatter(state)
        expected_terms = forms_by_repr(naive_path_order_sums(state))
        for result, read in results_read_in_every_order(state):
            assert result.paths is read["paths"]
            assert result.final_state is read["final_state"]
            assert [tuple(p) for p in read["paths"]] == expected_paths
            assert forms_by_repr(read["final_state"].terms) == expected_terms


@pytest.mark.parametrize("statistics", list(Statistics))
def test_paths_decode_each_destination_once(statistics):
    for state in (coherent_initial_state(4, 0.2, statistics), cancelling_state(statistics)):
        result = apply_first_order(state)
        destinations = {path.destination_term for path in result.paths}
        decoded = result._term_of.cache_info()
        # The walk starts once from each reached key, which is decoded once.
        assert decoded.misses == len(destinations)
        assert decoded.hits == 0
    # The cancelled destination is decoded for its paths, though pruned from the state.
    assert set(result.final_state.terms) < destinations


@pytest.mark.parametrize("n1,n2,n3", [(1, 1, 1), (3, 2, 1), (4, 4, 2), (2, 5, 3)])
def test_path_count_is_the_unblocked_count(n1, n2, n3):
    # Process A on (phi q, psi q') needs v(q) free, so q > n3; process B
    # needs v(q') free, so q' > n3.  The fresh u states are always free.
    result = apply_first_order(fock_initial_state(n1, n2, n3, Statistics.FERMION))
    assert len(result.paths) == max(n1 - n3, 0) * n2 + n1 * max(n2 - n3, 0)


def signed_zero_state(statistics):
    """Two terms whose coefficients carry signed zeros into ca and cb."""
    one, two = (1, 2) if statistics is Statistics.FERMION else (None, None)
    terms = {
        (SingleParticleState(PHI, one), SingleParticleState(PHI, two),
         SingleParticleState(PSI, one)): complex(-0.0, 0.5),
        (SingleParticleState(PHI, one), SingleParticleState(PSI, one),
         SingleParticleState(PSI, two)): complex(0.25, -0.0),
    }
    return ManyBodyState(statistics, 3, terms)


def cancelling_state(statistics):
    """Two terms whose process A paths into one destination cancel to an exact zero."""
    if statistics is Statistics.FERMION:
        # Both reach v(1) v(3) u(2), with opposite signs.
        keys, values = ("phi(1) psi(2) v(3)", "phi(3) psi(2) v(1)"), (0.5, 0.5)
    else:
        # Both reach v u v.
        keys, values = ("phi psi v", "v psi phi"), (0.5, -0.5)
    terms = {parse_term(key): complex(value) for key, value in zip(keys, values)}
    return ManyBodyState(statistics, 3, terms)


def _report_queries():
    """Points of both experiments and statistics, each with the destinations to query."""
    for statistics in Statistics:
        for state in (
            fock_initial_state(2, 2, 1, statistics),
            fock_initial_state(3, 2, 1, statistics),
            fock_initial_state(1, 1, 1, statistics),  # every fermion path Pauli blocked
            coherent_initial_state(4, 0.2, statistics),
            coherent_initial_state(4, 0.0, statistics),
            cancelling_state(statistics),
            signed_zero_state(statistics),
        ):
            yield pytest.param(state, id=f"{statistics.value}-{state.n}-{len(state.terms)}")


@pytest.mark.parametrize("state", _report_queries())
def test_path_report_sums_are_the_final_state_bit_for_bit(state):
    full = apply_first_order(state)
    forms = full.final_state.terms
    # Every sector, each unreached one included, as one unlabelled query.
    queries = [
        b(*(PHI,) * n_phi + (PSI,) * n_psi + (V,) * n_v + (U,) * n_u)
        for n_phi, n_psi, n_v, n_u in _sectors(state.n)
    ]
    if state.statistics is Statistics.FERMION:
        queries += [dest[::-1] for dest in forms]  # labelled, in reversed slot order
    else:
        queries += list(forms)
    seen = set()
    for destination in queries:
        for result in (full, apply_first_order(sources_into(state, destination))):
            for dest, (_, total) in path_report(result, destination).items():
                form = forms.get(dest)
                expected = (0j, 0j) if form is None else (form.ca, form.cb)
                assert repr(total) == repr(expected), dest
                seen.add(dest)
    assert set(forms) <= seen
    assert seen - set(forms)  # some unreached or cancelled destination read (0j, 0j)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_path_report_gives_a_cancelled_destination_its_paths_and_a_zero_sum(statistics):
    result = apply_first_order(cancelling_state(statistics))
    fermion = statistics is Statistics.FERMION
    destination = parse_term("v(1) v(3) u(2)" if fermion else "v u v")
    paths, total = path_report(result, destination)[destination]
    assert [p.process for p in paths] == [PROCESS_A, PROCESS_A]
    assert repr(total) == repr((0j, 0j))


def naive_report(state, destination):
    """Reference ``path_report``: the naive paths into each matched destination and its sum.

    Paths are sorted by rendered source, stable over the naive path order;
    a sum is the naive final form's, or ``(0j, 0j)`` where there is none.
    """
    paths = naive_scatter(state)
    forms = naive_path_order_sums(state)
    if state.statistics is Statistics.BOSON:
        matches = [destination]
    elif all(slot.q is None for slot in destination):
        reached = dict.fromkeys(path[6] for path in paths)
        wanted = sector_of(destination)
        matches = sorted((d for d in reached if sector_of(d) == wanted), key=render_term)
        matches = matches or [destination]
    else:
        matches = [canonical_fermion_term(destination)[0]]
    report = {}
    for dest in matches:
        into = sorted((path for path in paths if path[6] == dest), key=lambda p: render_term(p[0]))
        form = forms.get(dest)
        report[dest] = (into, (0j, 0j) if form is None else (form.ca, form.cb))
    return report


def report_queries(state):
    """Every sector unlabelled, each reached destination reversed, and terms no path reaches."""
    queries = [
        b(*(PHI,) * n_phi + (PSI,) * n_psi + (V,) * n_v + (U,) * n_u)
        for n_phi, n_psi, n_v, n_u in _sectors(state.n)
    ]
    reached = list(naive_path_order_sums(state))
    if state.statistics is Statistics.FERMION:
        queries += [dest[::-1] for dest in reached]
        # Past the largest q of the state, and a term of only v and u slots.
        width = 1 + max(slot.q for term in state.terms for slot in term)
        queries.append(f((V, width), *((U, q) for q in range(1, state.n))))
        queries.append(f(*((V, q) for q in range(1, state.n)), (U, 1)))
    else:
        queries += reached
        queries.append(b(*(U,) * state.n))
    return queries


@pytest.mark.parametrize("state", _report_queries())
def test_path_report_is_the_naive_report(state):
    for destination in report_queries(state):
        expected = repr(naive_report(state, destination))
        report = path_report(apply_first_order(state), destination)
        # repr tells signed zeros apart, which == does not
        assert repr({
            dest: ([tuple(path) for path in paths], total)
            for dest, (paths, total) in report.items()
        }) == expected, render_term(destination)


@pytest.mark.parametrize("statistics", list(Statistics))
def test_a_single_destination_listing_decodes_no_key(statistics):
    """A boson or labelled destination is encoded to its key: no reached key is decoded."""
    state = coherent_initial_state(4, 0.2, statistics)
    fermion = statistics is Statistics.FERMION
    for destination in naive_path_order_sums(state):
        query = destination[::-1] if fermion else destination
        result = apply_first_order(state)
        (group,) = group_paths(result, query).groups
        assert "_term_of" not in vars(result)  # the decoder was never built
        sector = group_paths(apply_first_order(state), b(*(slot.mode for slot in destination)))
        assert [group] == [other for other in sector.groups if other.destination == destination]


def test_a_q_label_past_the_state_reaches_nothing():
    result = apply_first_order(fock_initial_state(2, 1, 0, Statistics.FERMION))
    for destination in (f((PHI, 1), (V, 3), (U, 1)), f((PHI, 1), (V, 1), (U, 9))):
        assert group_paths(result, destination).groups == [(destination, [], (0j, 0j))]


def test_a_sum_that_cancels_to_a_signed_zero_reads_as_no_sum():
    # A reached key whose parts are exact zeros, signed or not, is pruned
    # from sums, and still walked back from.
    state = ManyBodyState(Statistics.BOSON, 2, {b(PHI, PSI): 1 + 0j})
    cancelled = [complex(0.0, -0.0), -0j, 0b1011]
    result = ScatterResult(state, {0b1011: cancelled}, 1)
    assert result.sums == []
    (group,) = group_paths(result, b(V, U)).groups
    assert repr(group.total) == repr((0j, 0j))
    assert [tuple(path) for path in result.paths] == [(b(PHI, PSI), PROCESS_A, 0, 1, 1, 1 + 0j, b(V, U))]


TEST_STATES = [
    lambda s: fock_initial_state(1, 1, 0, s),
    lambda s: fock_initial_state(2, 1, 0, s),
    lambda s: fock_initial_state(1, 1, 1, s),
    lambda s: fock_initial_state(2, 1, 1, s),
    lambda s: fock_initial_state(2, 2, 1, s),
    lambda s: fock_initial_state(2, 3, 4, s),
    lambda s: coherent_initial_state(3, 0.2, s),
    lambda s: coherent_initial_state(5, 0.5, s),
    lambda s: permute_slots(coherent_initial_state(3, 0.2, s), (2, 0, 1)),
    signed_zero_state,
    cancelling_state,
]


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("build", TEST_STATES)
def test_scatter_matches_naive_on_test_states(statistics, build):
    assert_matches_naive(build(statistics))


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("build", TEST_STATES)
def test_the_walk_back_sums_to_the_kernel_on_test_states(statistics, build):
    assert_walk_matches_kernel(build(statistics))


def forms_by_repr(terms):
    # repr tells signed zeros apart, which == does not
    return [(term, repr(form)) for term, form in terms.items()]


def naive_path_order_sums(state):
    """Reference final terms: the naive paths' values summed per destination in path order.

    A destination's first value is taken as it is and later ones added, so
    signed zeros come out as the scatter makes them; starting every sum
    from 0j would lose them.
    """
    paths = naive_scatter(state)
    sums = {}
    for _, process, _, _, _, value, dest in paths:
        component = 0 if process == PROCESS_A else 1
        if dest in sums:
            sums[dest][component] += value
        else:
            sums[dest] = [0j, 0j]
            sums[dest][component] = value
    return {
        dest: AmplitudeForm(ca=ca, cb=cb)
        for dest, (ca, cb) in sorted(sums.items())
        if ca != 0 or cb != 0
    }


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("build", TEST_STATES)
def test_lazy_final_state_matches_naive_bit_for_bit(statistics, build):
    state = build(statistics)
    expected = forms_by_repr(naive_path_order_sums(state))
    result = apply_first_order(state)
    assert forms_by_repr(result.final_state.terms) == expected


@st.composite
def boson_states(draw):
    n = draw(st.integers(1, 7))
    keys = draw(
        st.lists(
            st.lists(st.sampled_from(list(Mode)), min_size=n, max_size=n).map(lambda m: b(*m)),
            min_size=1,
            max_size=6,
            unique=True,
        )
    )
    values = draw(
        st.lists(
            st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
            min_size=len(keys),
            max_size=len(keys),
        )
    )
    terms = {key: complex(c) for key, c in zip(keys, values)}
    return ManyBodyState(Statistics.BOSON, n, terms)


@settings(max_examples=200, deadline=None)
@given(boson_states())
def test_packed_boson_keys_match_naive(state):
    # Unsorted multi-term inputs: destinations of different sources collide.
    assert_matches_naive(state)
    final = apply_first_order(state).final_state
    assert forms_by_repr(final.terms) == forms_by_repr(naive_path_order_sums(state))


# Coefficients whose parts are signed zeros, or that cancel exactly in pairs.
EXACT_VALUES = [
    0.5 + 0j, -0.5 + 0j, complex(-0.0, 0.5), complex(-0.0, -0.5),
    complex(0.25, -0.0), complex(-0.25, -0.0),
]


@st.composite
def pattern_sharing_boson_states(draw):
    """Boson states whose many terms share a few phi/psi layouts, with v/u filling the rest.

    Terms of one layout have the same phi and psi positions and differ in
    their v and u slots and their coefficients.
    """
    n = draw(st.integers(1, 7))
    layout = st.lists(st.sampled_from([PHI, PSI, None]), min_size=n, max_size=n)
    layouts = draw(st.lists(layout, min_size=1, max_size=3))
    fill = st.lists(st.sampled_from([V, U]), min_size=n, max_size=n)
    keys = draw(
        st.lists(
            st.tuples(st.sampled_from(layouts), fill).map(
                lambda pair: b(*(mode if mode is not None else v_or_u for mode, v_or_u in zip(*pair)))
            ),
            min_size=1,
            max_size=24,
            unique=True,
        )
    )
    value = st.one_of(
        st.sampled_from(EXACT_VALUES),
        st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
    )
    values = draw(st.lists(value, min_size=len(keys), max_size=len(keys)))
    return ManyBodyState(Statistics.BOSON, n, {key: complex(c) for key, c in zip(keys, values)})


@st.composite
def walked_states(draw):
    """A small type1 or type2 input of either statistics, with its own or redrawn coefficients.

    Redrawn coefficients are signed zeros and +-0.5 or +-0.25, whose sums
    are exact, or +-0.5 alone, so that paths into one key often cancel
    exactly.
    """
    statistics = draw(st.sampled_from(list(Statistics)))
    if draw(st.booleans()):
        counts = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)))
        state = fock_initial_state(*counts, statistics)
    else:
        n, epsilon = draw(st.integers(2, 5)), draw(st.sampled_from([0.0, 0.2, 0.5]))
        state = coherent_initial_state(n, epsilon, statistics)
    values = draw(st.sampled_from([None, EXACT_VALUES, [0.5 + 0j, -0.5 + 0j]]))
    if values is None:
        return state
    size = len(state.terms)
    drawn = draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
    return ManyBodyState(statistics, state.n, dict(zip(state.terms, drawn)))


def assert_walk_matches_kernel(state):
    """Per reached key, the walked paths are the naive ones and sum to the kernel's ``[ca, cb]``.

    A key's walked values are summed in path order from its first
    contribution, as the kernel sums them, and compared by ``repr``, which
    tells signed zeros apart.
    """
    result = apply_first_order(state)
    expected, walked = {}, {}
    for path in naive_scatter(state):
        expected.setdefault(path[6], []).append(path)
    for path in result.paths:
        walked.setdefault(path.destination_term, []).append(tuple(path))
    reached = {result._term_of(key): total for key, total in result._reached.items()}
    assert set(walked) == set(expected) == set(reached)
    for dest, paths in walked.items():
        assert repr(paths) == repr(expected[dest])
        sums = [0j, 0j]
        for at, (_, process, _, _, _, value, _) in enumerate(paths):
            component = PROCESSES.index(process)
            sums[component] = value if at == 0 else sums[component] + value
        assert repr(sums) == repr(reached[dest][:2])
    assert result.paths is result.paths  # walked once, on the first read


@settings(max_examples=100, deadline=None)
@given(walked_states())
def test_the_walk_back_finds_the_naive_paths_and_the_kernel_sums(state):
    assert_walk_matches_kernel(state)


@settings(max_examples=200, deadline=None)
@given(pattern_sharing_boson_states())
def test_boson_terms_sharing_a_layout_match_naive(state):
    # Later terms of a layout reuse the lift lists its first term built.
    expected = naive_path_order_sums(state)
    result = apply_first_order(state)
    # repr tells signed zeros apart, which == does not
    assert repr([(result._term_of(key), ca, cb) for ca, cb, key in result.sums]) == repr(
        [(term, form.ca, form.cb) for term, form in expected.items()]
    )
    assert repr([tuple(path) for path in result.paths]) == repr(naive_scatter(state))


@pytest.mark.parametrize(
    "bad,message",
    [
        ((SingleParticleState(PHI, 1), SingleParticleState(PSI)), "bosonic slots carry no q label"),
        ((), "product term needs at least one slot"),
    ],
)
def test_rejects_a_boson_term_that_validate_term_refuses(bad, message):
    one = 1 + 0j
    for terms in ({bad: one}, {b(PHI, PSI): one, bad: one}):
        with pytest.raises(ValueError, match=f"^{message}$"):
            apply_first_order(ManyBodyState(Statistics.BOSON, 2, terms))


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("build", TEST_STATES)
def test_coefficients_are_the_final_forms_ca_cb(statistics, build):
    state = build(statistics)
    expected = repr([(form.ca, form.cb) for form in naive_path_order_sums(state).values()])
    for result, read in results_read_in_every_order(state):
        keys = [key for _, _, key in result.sums]
        if statistics is Statistics.FERMION:
            keys.reverse()  # descending masks are ascending Slater keys
        assert all(key < after for key, after in zip(keys, keys[1:]))
        assert all(ca != 0 or cb != 0 for ca, cb, _ in result.sums)
        # repr tells signed zeros apart, which == does not
        assert repr(read["coefficients"]) == repr([(ca, cb) for ca, cb, _ in result.sums])
        assert repr(read["coefficients"]) == expected
        forms = read["final_state"].terms.values()
        assert repr([(form.ca, form.cb) for form in forms]) == expected
        assert repr(result.coefficients) == expected


SIGNED_ZERO_PAIRS = [
    (1 + 0j, 1 + 0j),
    (complex(-0.0, 0.0), complex(0.0, -0.0)),
    (complex(1.0, -0.0), complex(-0.0, -0.0)),
    (0.3 + 0.1j, complex(-0.0, 0.2)),
]


@pytest.mark.parametrize("statistics", [Statistics.BOSON, Statistics.FERMION])
@pytest.mark.parametrize("build", TEST_STATES)
def test_coefficient_norm_is_state_norm_bit_for_bit(statistics, build):
    result = apply_first_order(build(statistics))
    pairs = result.coefficients
    for sa, sb in SIGNED_ZERO_PAIRS:
        assert coefficient_norm(pairs, sa, sb) == evaluated_norm(result.final_state, sa, sb)


def evaluated_norm(state, sa, sb):
    """The norm of a scattered state as each form evaluates it, in term order."""
    total = 0.0
    for form in state.terms.values():
        total += abs(form.ca * sa + form.cb * sb) ** 2
    return math.sqrt(total)


def test_non_finite_sums_raise_the_form_error_when_read():
    # Two paths of 1.5e308 land on each destination and overflow to inf.
    orderings = symmetrize(parse_term("phi psi v")).terms
    big = complex(1.5e308)
    state = ManyBodyState(Statistics.BOSON, 3, dict.fromkeys(orderings, big))
    message = r"^ca must be finite, got \(inf\+0j\)$"
    with pytest.raises(ValueError, match=message):
        apply_first_order(state).coefficients
    with pytest.raises(ValueError, match=message):
        apply_first_order(state).final_state


def test_rejects_non_canonical_fermion_key():
    one = 1 + 0j
    good = f((PHI, 1), (PSI, 1), (V, 2))
    scrambled = f((PSI, 1), (PHI, 1), (V, 2))
    for terms in ({scrambled: one}, {good: one, scrambled: one}):
        with pytest.raises(ValueError, match="canonical"):
            apply_first_order(ManyBodyState(Statistics.FERMION, 3, terms))


def test_rejects_fermion_key_with_a_repeated_slot():
    one = 1 + 0j
    repeated = f((PHI, 1), (PHI, 1), (PSI, 1))
    with pytest.raises(ValueError, match="canonical"):
        apply_first_order(ManyBodyState(Statistics.FERMION, 3, {repeated: one}))


@pytest.mark.parametrize("q", [None, 0, -1])
def test_rejects_a_fermion_q_label_that_is_not_an_int_from_one(q):
    # Once accepted: phi(0) psi(0) scattered to v(None) u(None), and
    # phi(-1) psi(1) to the Pauli-violating v(1) v(1).
    one = 1 + 0j
    for psi_q in (q, 1):
        key = (SingleParticleState(PHI, q), SingleParticleState(PSI, psi_q))
        for terms in ({key: one}, {f((PHI, 1), (PSI, 2)): one, key: one}):
            with pytest.raises(ValueError, match="^fermionic state keys must be canonical$"):
                apply_first_order(ManyBodyState(Statistics.FERMION, 2, terms))
