"""End-to-end acceptance checks for the whole package.

Each test prints exactly one ``ACCEPTANCE n: PASS/FAIL`` line past the
capture layer, so a full run shows the per-criterion outcome at a glance.
Cross-engine comparisons are pinned at 1e-10 and exact-arithmetic
identities at 1e-12.  Known divergences of the published closed forms are
reported in a structured way, never patched over.
"""

import json
import math
import random
import time

from mixbench.amplitudes import approx_eq
from mixbench.engine import apply_first_order, path_report
from mixbench.formulas import (
    CROSS_CASES,
    coherent_amplitude,
    coherent_counts,
    fock_boson_amplitude,
    fock_counts,
    fock_fermion_amplitude,
    fock_fermion_case,
)
from mixbench.oracle import (
    OccupationState,
    apply_fwm_operator,
    coherent_occupation_state,
    fock_occupation_state,
    oracle_scattered_norm,
)
from mixbench.states import (
    ManyBodyState,
    Mode,
    PauliViolationError,
    SingleParticleState,
    Statistics,
    coherent_initial_state,
    fock_initial_state,
    make_state,
    parse_term,
    coefficient_norm,
    state_norm,
)
from helpers import permute_slots, scaled, scaled_forms

TOL = 1e-10
TIGHT = 1e-12
PAIRS = ((1 + 0j, 1 + 0j), (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0.2 + 0j))
EPSILONS = (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5)


def fock_grid(total_max):
    for n1 in range(1, total_max):
        for n2 in range(1, total_max - n1 + 1):
            for n3 in range(0, total_max - n1 - n2 + 1):
                yield n1, n2, n3


def firstq_norms(state: ManyBodyState):
    """Scatter once, then evaluate the norm at each amplitude pair."""
    pairs = apply_first_order(state).coefficients
    return {pair: coefficient_norm(pairs, *pair) for pair in PAIRS}


def test_acceptance_1_boson_worked_example(announce):
    problems = []
    state = fock_initial_state(1, 1, 1, Statistics.BOSON)
    destination = parse_term("v v u")
    result = apply_first_order(state)
    paths, (ca, cb) = path_report(result, destination)[destination]
    if len(paths) != 4:
        problems.append(f"expected 4 paths, got {len(paths)}")
    coeff = 2 / math.sqrt(6)
    if abs(ca - coeff) > TOL or abs(cb - coeff) > TOL:
        problems.append(f"grouped total {(ca, cb)} != 2(sa+sb)/sqrt(6)")
    for sa, sb in PAIRS:
        got = coefficient_norm(result.coefficients, sa, sb)
        want = math.sqrt(2) * abs(sa + sb)
        if not approx_eq(got, want, TOL):
            problems.append(f"norm at {(sa, sb)}: {got} != {want}")
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 1: {status} - boson (1,1,1): 4 paths, total 2(sa+sb)/sqrt(6),"
        f" norm sqrt(2)|sa+sb|"
    )
    assert not problems, problems


def test_acceptance_2_fermion_suppression(announce):
    problems = []
    rng = random.Random(20260816)
    state = fock_initial_state(1, 1, 1, Statistics.FERMION)
    pairs = apply_first_order(state).coefficients
    checked = 0
    for _ in range(8):
        sa = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        sb = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = coefficient_norm(pairs, sa, sb)
        if not got <= TIGHT:
            problems.append(f"norm at {(sa, sb)} is {got}")
        checked += 1
    # the suppression is structural: every path is blocked, nothing survives
    if apply_first_order(state).final_state.terms:
        problems.append("blocked configuration left residual terms")
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 2: {status} - fermion (1,1,1) suppressed to zero"
        f" across {checked} random amplitude pairs"
    )
    assert not problems, problems


def test_acceptance_3_boson_grid_three_engines(announce):
    problems = []
    started = time.perf_counter()
    points = 0
    for n1, n2, n3 in fock_grid(8):
        points += 1
        norms = firstq_norms(fock_initial_state(n1, n2, n3, Statistics.BOSON))
        occupation = fock_occupation_state(n1, n2, n3, Statistics.BOSON)
        for sa, sb in PAIRS:
            first = norms[(sa, sb)]
            oracle = oracle_scattered_norm(apply_fwm_operator(occupation, sa, sb))
            closed = fock_boson_amplitude(n1, n2, n3, sa, sb)
            if not (
                approx_eq(first, oracle, TOL)
                and approx_eq(first, closed, TOL)
                and approx_eq(oracle, closed, TOL)
            ):
                problems.append(
                    f"({n1},{n2},{n3}) at {(sa, sb)}: {first}, {oracle}, {closed}"
                )
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"runtime {elapsed:.1f}s exceeds the 60s budget")
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 3: {status} - stimulated boson grid (n <= 8, {points} points,"
        f" 3 engines, 3 amplitude pairs) agreed to 1e-10 in {elapsed:.1f}s"
    )
    assert not problems, problems


def test_acceptance_4_fermion_grid_with_divergence_report(announce):
    problems = []
    divergences = []
    for n1, n2, n3 in fock_grid(7):
        case = fock_fermion_case(n1, n2, n3)
        norms = firstq_norms(fock_initial_state(n1, n2, n3, Statistics.FERMION))
        occupation = fock_occupation_state(n1, n2, n3, Statistics.FERMION)
        point_max_dev = 0.0
        for sa, sb in PAIRS:
            first = norms[(sa, sb)]
            oracle = oracle_scattered_norm(apply_fwm_operator(occupation, sa, sb))
            closed = fock_fermion_amplitude(n1, n2, n3, sa, sb)
            if not approx_eq(first, oracle, TOL):
                problems.append(f"exact engines differ at ({n1},{n2},{n3}), {(sa, sb)}")
            if case in CROSS_CASES:
                # published cross term +2*(min-n3)*2Re(sa conj(sb)) versus
                # the enumerated -(min-n3)*2Re(sa conj(sb)): the squared
                # norms must differ by exactly 3*(min-n3)*2Re (pre-clamp)
                predicted = max(
                    first**2 + 6.0 * (min(n1, n2) - n3) * (sa * sb.conjugate()).real,
                    0.0,
                )
                if not approx_eq(closed**2, predicted, 1e-8):
                    problems.append(
                        f"cross deviation at ({n1},{n2},{n3}), {(sa, sb)} is not the"
                        f" documented cross-term difference: {closed**2} vs {predicted}"
                    )
                point_max_dev = max(point_max_dev, abs(closed - first))
            else:
                if not approx_eq(first, closed, TOL):
                    problems.append(
                        f"closed form off in case {case} at ({n1},{n2},{n3}), {(sa, sb)}"
                    )
            if n3 >= max(n1, n2):
                if first != 0.0 or oracle != 0.0:
                    problems.append(f"({n1},{n2},{n3}) not exactly suppressed")
        if case in CROSS_CASES:
            divergences.append(
                {"n1": n1, "n2": n2, "n3": n3, "case": case, "max_dev": point_max_dev}
            )
    report = {
        "criterion": 4,
        "status": "known-divergence",
        "what": "published cross term uses +2*(min(n1,n2)-n3); enumeration gives -(min(n1,n2)-n3)",
        "points": len(divergences),
        "max_dev": max((d["max_dev"] for d in divergences), default=0.0),
        "cases": divergences,
    }
    announce("ACCEPTANCE 4 known-divergence report: " + json.dumps(report))
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 4: {status} - Pauli-blocked fermion grid (n <= 7): exact engines"
        f" agree; blocked branches match; {len(divergences)} cross points reported"
        f" as known-divergence"
    )
    assert not problems, problems


def test_acceptance_5_coherent_boson_grid(announce):
    problems = []
    base_norms = {}
    for n in range(2, 9):
        for epsilon in EPSILONS:
            norms = firstq_norms(coherent_initial_state(n, epsilon, Statistics.BOSON))
            occupation = coherent_occupation_state(n, epsilon, Statistics.BOSON)
            for sa, sb in PAIRS:
                first = norms[(sa, sb)]
                oracle = oracle_scattered_norm(apply_fwm_operator(occupation, sa, sb))
                closed = coherent_amplitude(n, epsilon, sa, sb)
                if not (
                    approx_eq(first, oracle, TOL)
                    and approx_eq(first, closed, TOL)
                    and approx_eq(oracle, closed, TOL)
                ):
                    problems.append(f"n={n} eps={epsilon} {(sa, sb)}: {first}, {oracle}, {closed}")
            if epsilon == 0.0:
                base_norms[n] = norms[(1 + 0j, 1 + 0j)]
            else:
                # the seeded/unseeded ratio isolates the enhancement factor
                ratio = norms[(1 + 0j, 1 + 0j)] / base_norms[n]
                expected = (1 - epsilon) * math.sqrt(epsilon * (n - 2) + 1)
                if not approx_eq(ratio, expected, TOL):
                    problems.append(f"enhancement off at n={n} eps={epsilon}: {ratio}")
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 5: {status} - superposition boson grid (n in [2,8], 5 seeds):"
        f" engines and closed form agree to 1e-10, enhancement factor eps(n-2)+1 verified"
    )
    assert not problems, problems


def test_acceptance_6_statistics_independence(announce):
    problems = []
    for n in range(2, 7):
        for epsilon in EPSILONS:
            boson = coherent_occupation_state(n, epsilon, Statistics.BOSON)
            fermion = coherent_occupation_state(n, epsilon, Statistics.FERMION)
            for sa, sb in PAIRS:
                boson_norm = oracle_scattered_norm(apply_fwm_operator(boson, sa, sb))
                fermion_norm = oracle_scattered_norm(apply_fwm_operator(fermion, sa, sb))
                if not approx_eq(boson_norm, fermion_norm, TOL):
                    problems.append(
                        f"n={n} eps={epsilon} {(sa, sb)}: boson {boson_norm}"
                        f" != fermion {fermion_norm}"
                    )
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 6: {status} - superposition norms independent of statistics"
        f" (n in [2,6], 5 seeds, 3 amplitude pairs)"
    )
    assert not problems, problems


def test_acceptance_7_path_counts(announce):
    problems = []
    # symmetric three-particle superposition: four paths stimulate double-v
    symmetric = coherent_initial_state(3, 1.0 / 3.0, Statistics.BOSON)
    four, _ = path_report(apply_first_order(symmetric), parse_term("v v u"))[parse_term("v v u")]
    if len(four) != 4:
        problems.append(f"superposition double-v: expected 4 paths, got {len(four)}")
    # no seed amplitude: a v u destination is reached exactly twice
    unseeded = coherent_initial_state(3, 0.0, Statistics.BOSON)
    two, _ = path_report(apply_first_order(unseeded), parse_term("v u phi"))[parse_term("v u phi")]
    if len(two) != 2:
        problems.append(f"unseeded v u destination: expected 2 paths, got {len(two)}")
    status = "PASS" if not problems else "FAIL"
    announce(f"ACCEPTANCE 7: {status} - path counts 4 (seeded) and 2 (unseeded)")
    assert not problems, problems


def test_acceptance_8_counting_identities(announce):
    problems = []
    fock_points = 0
    for n1, n2, n3 in fock_grid(30):
        counts = fock_counts(n1, n2, n3)
        lhs = math.sqrt(counts.distinct_final_terms) * counts.per_term_amplitude
        rhs = math.sqrt(n1 * n2 * (n3 + 1))
        if abs(lhs - rhs) > TIGHT * max(1.0, rhs):
            problems.append(f"counting identity off at ({n1},{n2},{n3})")
        fock_points += 1
    coherent_points = 0
    for n in range(2, 21):
        for epsilon in EPSILONS:
            total = 0.0
            for m in range(n + 1):
                for k in range(n - m + 1):
                    counts = coherent_counts(n, m, k, epsilon)
                    total += counts.group_terms * counts.group_amplitude**2
            if abs(total - 1.0) > TIGHT:
                problems.append(f"group normalization off at n={n} eps={epsilon}: {total}")
            coherent_points += 1
    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 8: {status} - counting identities: {fock_points} stimulated splits"
        f" (n <= 30) and {coherent_points} group normalizations (n <= 20) within 1e-12"
    )
    assert not problems, problems


def test_acceptance_9_property_suite(announce):
    problems = []
    rng = random.Random(95014)
    cases = 0
    modes = (Mode.PHI, Mode.PSI, Mode.V, Mode.U)

    def random_fock(statistics):
        n1 = rng.randint(1, 3)
        n2 = rng.randint(1, 2)
        n3 = rng.randint(0, 2)
        return fock_initial_state(n1, n2, n3, statistics)

    # initial-state normalization and permutation (anti)symmetry
    for _ in range(220):
        statistics = rng.choice((Statistics.BOSON, Statistics.FERMION))
        if rng.random() < 0.5:
            state = random_fock(statistics)
        else:
            state = coherent_initial_state(rng.randint(2, 5), rng.uniform(0.0, 0.9), statistics)
        if abs(state_norm(state) - 1.0) > TIGHT:
            problems.append(f"norm off for {statistics} state with n={state.n}")
        cases += 1

        perm = list(range(state.n))
        rng.shuffle(perm)
        sign = 1
        seen = [False] * state.n
        for start in range(state.n):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = perm[i]
                length += 1
            if length % 2 == 0:
                sign = -sign
        permuted = permute_slots(state, perm)
        expected_factor = 1 if state.statistics is Statistics.BOSON else sign
        ok = permuted.terms.keys() == state.terms.keys()
        if ok:
            for term, value in state.terms.items():
                other = permuted.terms[term]
                if abs(other - expected_factor * value) > TIGHT:
                    ok = False
                    break
        if not ok:
            problems.append(f"permutation symmetry broken for {statistics}, perm {perm}")
        cases += 1

    # Pauli rejection of duplicated single-particle states
    for _ in range(200):
        n = rng.randint(2, 5)
        slots = []
        for _ in range(n - 1):
            slots.append(SingleParticleState(rng.choice(modes), rng.randint(1, 3)))
        duplicate = rng.choice(slots)
        slots.insert(rng.randint(0, len(slots)), duplicate)
        try:
            make_state(
                Statistics.FERMION,
                len(slots),
                [(tuple(slots), 1.0)],
            )
            problems.append(f"duplicate slot accepted: {slots}")
        except PauliViolationError:
            pass
        cases += 1

    # engine linearity under complex rescaling of the input state
    for _ in range(180):
        statistics = rng.choice((Statistics.BOSON, Statistics.FERMION))
        state = random_fock(statistics)
        factor = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        before = apply_first_order(scaled(state, factor)).final_state
        after = scaled_forms(apply_first_order(state).final_state.terms, factor)
        ok = before.terms.keys() == after.keys()
        if ok:
            for term, form in before.terms.items():
                other = after[term]
                if abs(form.ca - other.ca) > 1e-9 or abs(form.cb - other.cb) > 1e-9:
                    ok = False
                    break
        if not ok:
            problems.append(f"linearity broken for {statistics} at factor {factor}")
        cases += 1

    # anticommutation of the oracle's creation algebra: from phi(q) and psi(q),
    # process A creates u(q) then v(q) and process B v(q) then u(q), so both
    # reach one key with opposite signs, cancel at sa = sb, and are blocked
    # together when v(q) or u(q) is already occupied
    seeds = [SingleParticleState(mode, q) for mode in (Mode.V, Mode.U) for q in range(1, 4)]
    for _ in range(220):
        q = rng.randint(1, 3)
        pair = {SingleParticleState(Mode.PHI, q), SingleParticleState(Mode.PSI, q)}
        rng.shuffle(seeds)
        occupied = tuple(sorted(pair.union(seeds[: rng.randint(0, 4)])))
        state = OccupationState(
            Statistics.FERMION, len(occupied), {occupied: 1 + 0j}
        )
        only_a = apply_fwm_operator(state, 1 + 0j, 0j).terms
        only_b = apply_fwm_operator(state, 0j, 1 + 0j).terms
        both = apply_fwm_operator(state, 1 + 0j, 1 + 0j).terms
        created = {SingleParticleState(Mode.V, q), SingleParticleState(Mode.U, q)}
        if created & set(occupied):
            if only_a or only_b:
                problems.append(f"double creation accepted on {occupied}")
        else:
            key = tuple(sorted(set(occupied) - pair | created))
            if (
                list(only_a) != [key]
                or list(only_b) != [key]
                or abs(only_a[key]) != 1
                or only_a[key] != -only_b[key]
                or both
            ):
                problems.append(f"anticommutation broken for q={q} on {occupied}")
        cases += 2

    status = "PASS" if not problems else "FAIL"
    announce(
        f"ACCEPTANCE 9: {status} - property suite ran {cases} randomized cases,"
        f" {len(problems)} failures"
    )
    assert cases >= 1000, cases
    assert not problems, problems[:10]
