"""First-order pair-scattering engine, and the paths into a destination found by walking back.

One scattering event takes a phi particle and a psi particle to the output
modes.  Process A sends the phi particle to v and the psi particle to u;
process B exchanges the outputs.  The engine applies the event once to
every stored term, enumerates one path per (term, phi slot, psi slot,
process), and sums the paths' signed values per destination term in the
same single loop, so its work grows with the number of paths.  It keeps
no path: it only sums.

Inside the loop every term is one int.  Bosonic slots carry no q label,
so a bosonic term is its modes packed in base 4 (width 1), slot 0 as the
most significant digit, and numeric order is canonical term order.  Each
distinct slot is mapped once to its ASCII digit ``48 + mode``; a term's
digits read with ``int(digits, 4)`` are its key, and the 0/1 patterns of
its phi and psi positions, taken with ``bytes.translate``, look up the
(lift in A, lift in B) lists that one call builds the first time a
pattern appears.  A path adds one lift per moved slot to the key and
builds no key tuple.  A fermionic slot is the int ``mode * width + q``,
with ``width`` one more than the largest q of the state, and a fermionic
term is an int bitmask: code c is bit ``4 * width - 1 - c``, so the lowest
code is the highest bit and descending masks are ascending Slater keys.  A path
clears the phi and psi bits and sets the new v and u bits, which is one
fixed lift per slot again.  Its sign is the first-quantized one: the parity
of the kept slots strictly between each old code and its new code, plus
one crossing when the new pair lands in swapped order, which process B
always does and process A never does.  Each slot's count is taken once per
term from the whole mask, and a path adds its two slots' parities.  The
loop leaves one ``[ca, cb, key]`` sum per destination key.

The source state holds plain complex coefficients and the result holds
``(ca, cb)`` pairs: ca collects process A's paths and cb process B's, so a
final coefficient is ``ca*sa + cb*sb``.  ``ScatterResult.sums`` is the
result's one output: the sums sorted once into canonical term order, exact
zeros pruned.  ``coefficients`` lists their pairs; ``final_state``, a
library view no CLI path reads, builds a ``ScatteredState`` of one
validated ``AmplitudeForm`` per final term when it is first read.
Scattering a scattered state fails with ``TypeError``: a path multiplies
its source coefficient by its sign, and a form is no number.  ``oracle``
also codes fermions as bitmasks, but ranks and signs them with its own
ladder-operator loop; the two routes share no scattering code, so each
checks the other.

The scattered norm is ``coefficient_norm(result.coefficients, sa, sb)``,
which builds no final state.

Every path listing walks back from a key the scatter reached, and shares
no table or helper with the kernels.  Each (u slot, v slot, process) of
the destination undoes one move, and the source it gives is looked up
among the result's own source terms; a fermion path's sign comes from the
walk's own rule.  So a listing's paths come from the walk and its totals
from the kernel, and "total = sum of contributions" compares two codes.
``ScatterResult.paths`` walks back from every reached key, and
``group_paths`` from the keys a ``paths`` query matches: the key of a
bosonic or a canonicalized labelled fermion destination, or the reached
keys of an unlabelled fermion destination's sector.  It sorts each
destination's paths by rendered source and hands back its sum, before any
``PathRecord`` exists.  The CLI renders these groups, and ``path_report``
is their ``PathRecord`` view.  ``source_sector`` is the one sector whose
terms have paths into a destination's sector: every path moves one phi and
one psi particle to v and u, so a path out of sector (phi, psi, v, u)
lands in (phi - 1, psi - 1, v + 1, u + 1) and no other term adds a path or
a coefficient there.  Scattering only the terms of that sector, in the
whole state's order, gives each destination of its sector the same
contributions in the same order, so its sum is bit-identical to the one
the whole state's scatter gives.
"""

from __future__ import annotations

from cmath import isfinite
from functools import cache, cached_property
from itertools import compress
from operator import itemgetter
from typing import Callable, NamedTuple

from .amplitudes import AmplitudeForm, ensure_finite
from .states import (
    ManyBodyState,
    Mode,
    ProductTerm,
    SectorSpec,
    SingleParticleState,
    Statistics,
    canonical_fermion_term,
    render_term,
    sector_of,
)

__all__ = [
    "PROCESS_A",
    "PROCESS_B",
    "PROCESSES",
    "PathGroup",
    "PathListing",
    "PathRecord",
    "ScatterResult",
    "ScatteredState",
    "apply_first_order",
    "check_destination",
    "group_paths",
    "path_report",
    "source_sector",
]

PROCESS_A = "A"
PROCESS_B = "B"
# Process by component: where it puts its value, 0 for ca, 1 for cb.
PROCESSES = (PROCESS_A, PROCESS_B)


class PathRecord(NamedTuple):
    """Provenance of a single scattering path.

    Slot indices are 0-based positions in the stored source term.  The sign
    is +1 for bosons; for fermions it is the parity picked up when the
    destination term is brought back to canonical slot order.  ``value`` is
    sign * (source coefficient), which adds to the destination's ca in
    process A and to its cb in process B.  Records are built from the
    paths walked back from a destination: every reached key's on the first
    read of ``ScatterResult.paths``, and a listing's by ``path_report``.
    """

    source_term: ProductTerm
    process: str
    phi_slot: int
    psi_slot: int
    sign: int
    value: complex
    destination_term: ProductTerm


class PathGroup(NamedTuple):
    """One destination of a ``paths`` listing: its term, its paths and their sum.

    ``records`` are the paths into ``destination`` walked back from it,
    each ``(source index, component, phi slot, psi slot, sign, value)``,
    sorted by rendered source term.  Component 0 is process A, whose value
    adds to ca, and 1 is process B's, which adds to cb.  ``total`` is the
    destination's ``(ca, cb)`` entry of ``ScatterResult.sums``, as the
    scatter summed it, or ``(0j, 0j)`` when it has none.
    """

    destination: ProductTerm
    records: list[tuple]
    total: tuple[complex, complex]


class PathListing(NamedTuple):
    """The destinations a ``paths`` query matches, in listing order, and their sources' text.

    ``source_text(index)`` is ``render_term`` of the result's source term
    at that index, rendered once per listing.
    """

    groups: list[PathGroup]
    source_text: Callable[[int], str]


class ScatteredState(NamedTuple):
    """Sparse map from product terms to the ``(ca, cb)`` forms of a scattered state.

    Terms are in canonical order, and a term whose ca and cb are both exact
    zeros is not stored.
    """

    statistics: Statistics
    n: int
    terms: dict[ProductTerm, AmplitudeForm]


class ScatterResult:
    """The scattered ``(ca, cb)`` coefficients, and the paths into them found by walking back.

    ``sums`` is the result's one output: a ``[ca, cb, key]`` list per final
    term, in canonical term order, a term whose ca and cb are both exact
    zeros left out.  A key is an int: the packed modes of a bosonic term,
    listed ascending, or the bitmask of a fermionic one, listed descending.
    ``coefficients`` lists its ``(ca, cb)`` pairs, and ``final_state`` and
    ``paths`` decode each key to its term once, through one cached decoder.

    The result also keeps every key the scatter reached, a key whose sum
    cancels to exact zeros too, with the same ``[ca, cb, key]`` list, so a
    listing still shows such a key's paths.  ``paths`` walks back from each
    reached key and lists a ``PathRecord`` per path, in path order: source
    index, phi slot, psi slot, then process A before B.
    """

    def __init__(self, source: ManyBodyState, sums: dict[int, list], width: int) -> None:
        self._source = source
        self._reached = sums
        self._width = width
        # Descending fermion masks are ascending Slater keys.
        descending = source.statistics is Statistics.FERMION
        ordered = sorted(sums.values(), key=itemgetter(2), reverse=descending)
        self.sums = [total for total in ordered if total[0] != 0 or total[1] != 0]

    @property
    def coefficients(self) -> list[tuple[complex, complex]]:
        """The ``(ca, cb)`` pairs of ``sums``, built on each read.

        A sum that is not finite raises the ``ValueError`` its form would.
        """
        pairs = []
        for ca, cb, _ in self.sums:
            if not (isfinite(ca) and isfinite(cb)):
                ensure_finite(ca, "ca")
                ensure_finite(cb, "cb")
            pairs.append((ca, cb))
        return pairs

    @cached_property
    def final_state(self) -> ScatteredState:
        term_of = self._term_of
        final = {term_of(key): AmplitudeForm(ca=ca, cb=cb) for ca, cb, key in self.sums}
        return ScatteredState(self._source.statistics, self._source.n, final)

    @cached_property
    def paths(self) -> tuple[PathRecord, ...]:
        term_of, paths_into = self._term_of, _walk_back(self)
        walked = []
        for key in self._reached:
            dest = term_of(key)
            walked += [(*path, dest) for path in paths_into(key, dest)]
        # Path order: source index, phi slot, psi slot, then process A before B.
        walked.sort(key=itemgetter(0, 2, 3, 1))
        sources = tuple(self._source.terms)
        return tuple(
            PathRecord(sources[index], PROCESSES[component], i, j, sign, value, dest)
            for index, component, i, j, sign, value, dest in walked
        )

    @cached_property
    def _term_of(self) -> Callable[[int], ProductTerm]:
        """The key-to-term decoder, cached so that each key is decoded once."""
        width, n = self._width, self._source.n
        fermion = self._source.statistics is Statistics.FERMION
        base, top = 4 * width, 4 * width - 1
        table = [
            SingleParticleState(Mode(code // width), code % width or None) for code in range(base)
        ]

        @cache
        def term_of(key: int) -> ProductTerm:
            if fermion:
                # Highest bit first: that is the lowest code, as in a Slater key.
                term = []
                while key:
                    bit = key.bit_length() - 1
                    term.append(table[top - bit])
                    key ^= 1 << bit
                return tuple(term)
            term = [None] * n
            for at in range(n - 1, -1, -1):
                key, code = divmod(key, base)
                term[at] = table[code]
            return tuple(term)

        return term_of

    def _key_of(self, term: ProductTerm) -> int | None:
        """The key of a canonical term, the inverse of ``_term_of``.

        A fermion term with a q label of ``width`` or more has no key:
        no path of this result reaches it.
        """
        if self._source.statistics is not Statistics.FERMION:
            return int(bytes(48 + slot.mode for slot in term), 4)
        width = self._width
        top, key = 4 * width - 1, 0
        for mode, q in term:
            if q >= width:
                return None
            key |= 1 << (top - mode * width - q)
        return key


def apply_first_order(state: ManyBodyState) -> ScatterResult:
    """Apply one pair-scattering event to every term of the state.

    For every stored term and every ordered pair of a phi slot and a psi
    slot, both processes are attempted.  A fermionic path is blocked (emits
    nothing) when the destination single-particle state is already occupied
    in the source term.  Bosonic paths are never blocked.  Each
    destination's ca and cb are summed in path order; the result's ``sums``
    list the destinations in canonical term order, exact zeros pruned.  An
    empty bosonic term or a bosonic slot with a q label, or a fermionic key
    that is not canonical or whose q labels are not ints >= 1, raises
    ``ValueError``.

    A bosonic term is decoded from its mode bytes: its digits ``48 + mode``
    read in base 4 give its key, and its phi and psi position patterns
    pick lift lists that live only as long as this call.  The scatter keeps
    no path: the result's ``paths`` and ``group_paths`` walk back from the
    keys it reached.
    """
    if state.statistics is Statistics.FERMION:
        return _scatter_fermions(state)
    # An empty term has no digits to read in base 4.
    if () in state.terms:
        raise ValueError("product term needs at least one slot")
    slots = {slot for term in state.terms for slot in term}
    if any(slot.q is not None for slot in slots):
        raise ValueError("bosonic slots carry no q label")
    # Process A adds 2 to the phi digit (v) and to the psi digit (u); process
    # B adds 3 to phi's (u) and 1 to psi's (v), each times the slot's weight.
    digit = {slot: 48 + slot.mode for slot in slots}.__getitem__
    weights = [4 ** (state.n - 1 - k) for k in range(state.n)]
    phi_lifts = [(2 * weight, 3 * weight) for weight in weights]
    psi_lifts = [(2 * weight, weight) for weight in weights]
    # A term's phi (psi) positions as a 0/1 byte pattern, and per pattern
    # seen in this call its (lift in A, lift in B) list.
    phi_pattern = bytes.maketrans(b"0123", bytes((1, 0, 0, 0)))
    psi_pattern = bytes.maketrans(b"0123", bytes((0, 1, 0, 0)))
    phis_of: dict[bytes, list] = {}
    psis_of: dict[bytes, list] = {}
    sums: dict = {}  # destination key -> [ca, cb, key], summed in path order
    get = sums.get
    for term, coeff in state.terms.items():
        digits = bytes(map(digit, term))
        packed = int(digits, 4)
        pattern = digits.translate(phi_pattern)
        phis = phis_of.get(pattern)
        if phis is None:
            phis = phis_of[pattern] = list(compress(phi_lifts, pattern))
        pattern = digits.translate(psi_pattern)
        psis = psis_of.get(pattern)
        if psis is None:
            psis = psis_of[pattern] = list(compress(psi_lifts, pattern))
        # Bosonic values are 1 * coeff; the product is kept for its signed zeros.
        plus = 1 * coeff
        # Both processes of one slot pair, written out: no tuple per path.
        for phi_a, phi_b in phis:
            start_a, start_b = packed + phi_a, packed + phi_b
            for psi_a, psi_b in psis:
                dest = start_a + psi_a
                total = get(dest)
                if total is None:
                    sums[dest] = [plus, 0j, dest]
                else:
                    total[0] += plus
                dest = start_b + psi_b
                total = get(dest)
                if total is None:
                    sums[dest] = [0j, plus, dest]
                else:
                    total[1] += plus
    return ScatterResult(state, sums, 1)


def _scatter_fermions(state: ManyBodyState) -> ScatterResult:
    """The fermionic scatter on bitmask keys: slot code c is bit ``4 * width - 1 - c``.

    The sign of a path is the parity of the kept slots strictly between each
    old code and its new one, plus one crossing when the new pair lands in
    swapped order: process B always swaps it (u(q) above v(q')), process A
    never does.  Each slot's count is taken once per term against the whole
    key.  Of the moved pair, only the psi slot lies in such a range, in the
    phi slot's, so a path's parity is the sum of its two slots' counts, less
    one in both processes, plus one in B.  The moved flags are disjoint from
    the kept ones, so a destination is the source mask plus one lift per slot.
    """
    slots = {slot for term in state.terms for slot in term}
    for slot in slots:
        if not isinstance(slot.q, int) or slot.q < 1:
            raise ValueError("fermionic state keys must be canonical")
    width = 1 + max((slot.q for slot in slots), default=0)
    top = 4 * width - 1
    flag = [1 << (top - code) for code in range(4 * width)]

    def move(code: int, target: int) -> tuple[int, int, int]:
        """The target's flag, the lift from the code's flag to it, and the codes between."""
        return flag[target], flag[target] - flag[code], (flag[code] - 1) ^ ((flag[target] << 1) - 1)

    # Per phi or psi code, its move in process A and then in B: phi(q) goes
    # to v(q) in A and u(q) in B; psi(q') goes to u(q') in A and v(q') in B.
    moves = [
        move(code, code + 2 * width) + move(code, code + (3 if code < width else 1) * width)
        for code in range(2 * width)
    ]
    sums: dict = {}  # destination mask -> [ca, cb, mask], summed in path order
    get = sums.get
    for term, coeff in state.terms.items():
        codes = [mode * width + q for mode, q in term]
        mask = 0
        for code in codes:
            mask |= flag[code]
        # A Slater key lists distinct slots in increasing code order.
        if mask.bit_count() != len(codes) or sorted(codes) != codes:
            raise ValueError("fermionic state keys must be canonical")
        # Each value is +-1 * coeff; the product is kept for its signed zeros.
        even, odd = 1 * coeff, -1 * coeff
        # A phi slot holds, per process, its start (mask plus its lift) and
        # the value picked by the psi slot's parity; a psi slot holds
        # its lift and parity.  A start or lift is None where the target is
        # occupied, which blocks every path of that process through the slot.
        phis, psis = [], []
        for code in codes:
            if code >= 2 * width:
                break
            target_a, lift_a, between_a, target_b, lift_b, between_b = moves[code]
            parity_a = (mask & between_a).bit_count() & 1
            parity_b = (mask & between_b).bit_count() & 1
            if code < width:
                # phi's count holds the psi slot, which both processes take
                # off; B's swap puts one crossing back.
                phis.append((
                    None if mask & target_a else mask + lift_a,
                    (even, odd) if parity_a else (odd, even),
                    None if mask & target_b else mask + lift_b,
                    (odd, even) if parity_b else (even, odd),
                ))
            else:
                psis.append((
                    None if mask & target_a else lift_a,
                    parity_a,
                    None if mask & target_b else lift_b,
                    parity_b,
                ))
        for start_a, pick_a, start_b, pick_b in phis:
            for lift_a, parity_a, lift_b, parity_b in psis:
                if start_a is not None and lift_a is not None:
                    dest = start_a + lift_a
                    value = pick_a[parity_a]
                    total = get(dest)
                    if total is None:
                        sums[dest] = [value, 0j, dest]
                    else:
                        total[0] += value
                if start_b is not None and lift_b is not None:
                    dest = start_b + lift_b
                    value = pick_b[parity_b]
                    total = get(dest)
                    if total is None:
                        sums[dest] = [0j, value, dest]
                    else:
                        total[1] += value
    return ScatterResult(state, sums, width)


def source_sector(destination: ProductTerm) -> SectorSpec:
    """The one sector whose terms have paths into the destination's sector.

    A path takes one phi and one psi particle to v and u, so only a term
    with one more phi and psi particle, and one fewer v and u particle,
    than the destination can reach it.  A destination with no v or no u
    particle gives a negative count, a sector no term is in.
    """
    phi, psi, v, u = sector_of(destination)
    return SectorSpec(phi + 1, psi + 1, v - 1, u - 1)


def check_destination(destination: ProductTerm, statistics: Statistics, n: int) -> None:
    """Reject a destination that ``path_report`` can never match or cannot canonicalize.

    A destination has one slot per particle, and bosonic slots carry no q
    label.  A fermion destination labels every slot, each once, or none,
    which makes it a sector query that may repeat slots.  A destination that
    breaks any of these rules raises ``ValueError``.
    """
    if len(destination) != n:
        raise ValueError(f"destination has {len(destination)} slots, state has {n} particles")
    labelled = [slot for slot in destination if slot.q is not None]
    if not labelled:
        return
    if statistics is Statistics.BOSON:
        raise ValueError(f"bosonic slots carry no q label, got {render_term(labelled[:1])}")
    for at, slot in enumerate(destination):
        if slot in destination[:at]:
            raise ValueError(f"fermion destination repeats {render_term((slot,))}")
    if len(labelled) != len(destination):
        raise ValueError("fermion destination must label every slot with q, or none")


def _walk_back(result: ScatterResult) -> Callable[[int, ProductTerm], list[tuple]]:
    """The paths into a canonical destination, found by undoing each move from it.

    The returned ``paths_into(key, destination)`` lists each path as
    ``(source index, component, phi slot, psi slot, sign, value)``.  It
    takes each (u slot, v slot, process) of the destination and undoes the
    move: in process A the v(q) particle was phi(q) and the u(q') particle
    psi(q'); in process B the u(q) particle was phi(q) and the v(q')
    particle psi(q').  The source is looked up by key among the result's
    own source terms; a path whose source is not among them, or whose
    source slot is already occupied by a kept particle, is no path.  A slot
    index is the number of source slots before that slot.  A fermion path's sign is the parity of
    the kept slots that each moved particle crossed, plus one in process B,
    whose new pair lands in swapped order; a boson path's is +1.  The value
    is ``sign * coeff``, so signed zeros come out as the scatter makes them.
    Of the two paths of one (u slot, v slot) pair, process A's comes first;
    the paths are in no other order.
    """
    terms = enumerate(result._source.terms.items())
    found = {result._key_of(term): (index, coeff) for index, (term, coeff) in terms}.get
    v_mode, u_mode = Mode.V, Mode.U  # an enum member lookup costs more than the compare

    if result._source.statistics is not Statistics.FERMION:
        n = result._source.n
        weight = [4 ** (n - 1 - at) for at in range(n)]

        def paths_into(key: int, destination: ProductTerm) -> list[tuple]:
            us = [at for at, slot in enumerate(destination) if slot.mode == u_mode]
            vs = [at for at, slot in enumerate(destination) if slot.mode == v_mode]
            paths = []
            # Per process: the phi slots, the psi slots, and the digit each
            # gained, phi's 0 to v's 2 or u's 3 and psi's 1 to u's 3 or v's 2.
            for component, phis, psis, phi_lift, psi_lift in ((0, vs, us, 2, 2), (1, us, vs, 3, 1)):
                for i in phis:
                    for j in psis:
                        entry = found(key - phi_lift * weight[i] - psi_lift * weight[j])
                        if entry is not None:
                            paths.append((entry[0], component, i, j, 1, 1 * entry[1]))
            return paths

        return paths_into

    width = result._width
    # Code c = mode * width + q is bit 4 * width - 1 - c, so the lower codes
    # are the higher bits, and a key shifted right by 4 * width - c holds the
    # slots before c.  Per mode, by q: that shift, and the bit.
    shifts = [[4 * width - mode * width - q for q in range(width)] for mode in Mode]
    phi_bits, psi_bits, v_bits, u_bits = ([1 << (shift - 1) for shift in row] for row in shifts)
    phi_shifts, psi_shifts = shifts[:2]

    def paths_into(key: int, destination: ProductTerm) -> list[tuple]:
        vs, us, paths = [], [], []
        for at, (mode, q) in enumerate(destination):
            if mode == v_mode:
                vs.append((at, q))
            elif mode == u_mode:
                us.append((at, q))
        for u_at, q_u in us:
            for v_at, q_v in vs:
                kept = key ^ u_bits[q_u] ^ v_bits[q_v]
                # The kept slots before the new v and u slots: v_at, and u_at
                # less the v slot.
                before = v_at + u_at - 1
                # A: v(q_v) was phi(q_v), u(q_u) psi(q_u); B: u(q_u) was phi(q_u), v(q_v) psi(q_v).
                for component, phi_q, psi_q in ((0, q_v, q_u), (1, q_u, q_v)):
                    moved = phi_bits[phi_q] | psi_bits[psi_q]
                    if kept & moved or (entry := found(kept | moved)) is None:
                        continue
                    # The kept slots before each old slot; those between old
                    # and new are the slots each particle crossed.
                    i = (kept >> phi_shifts[phi_q]).bit_count()
                    j = (kept >> psi_shifts[psi_q]).bit_count()
                    sign = -1 if (before - i - j + component) & 1 else 1
                    # phi's slot comes before psi's, so the source's psi slot is j + 1.
                    paths.append((entry[0], component, i, j + 1, sign, sign * entry[1]))
        return paths

    return paths_into


def group_paths(result: ScatterResult, destination: ProductTerm) -> PathListing:
    """The destinations a query matches, each with the paths walked back from it and its sum.

    A destination that ``check_destination`` rejects raises ``ValueError``.
    A bosonic destination, or a labelled fermion one once canonicalized, is
    encoded to its key and walked back from: no other key is decoded.  A
    fermion destination with no q labels decodes every key the scatter
    reached, keeps those in the destination's sector, orders them by
    rendered term and walks back from each; when none is reached, as when
    every path is Pauli blocked, it matches itself with no paths.  Each
    group's paths are sorted by their source term's rendering; the stable
    sort keeps process A before B for the two paths of one slot pair, the
    only paths that can share a source and a destination.  A group's total
    is the scatter's sum for its key, read from the lists that
    ``result.sums`` holds, or ``(0j, 0j)`` when no path reaches it or its
    paths cancel to exact zeros.
    """
    statistics = result._source.statistics
    check_destination(destination, statistics, result._source.n)
    sources = tuple(result._source.terms)
    source_text = cache(lambda index: render_term(sources[index]))
    reached = result._reached
    if statistics is Statistics.FERMION and all(slot.q is None for slot in destination):
        term_of, wanted = result._term_of, sector_of(destination)
        matched = sorted(
            ((dest, key) for key in reached if sector_of(dest := term_of(key)) == wanted),
            key=lambda entry: render_term(entry[0]),
        ) or [(destination, None)]
    else:
        if statistics is Statistics.FERMION:
            destination = canonical_fermion_term(destination)[0]
        # None past the width: no key, and no path, there.
        matched = [(destination, result._key_of(destination))]
    paths_into = _walk_back(result)
    groups = []
    for dest, key in matched:
        paths = [] if key is None else paths_into(key, dest)
        paths.sort(key=lambda path: source_text(path[0]))
        ca, cb, _ = reached.get(key, (0j, 0j, None))
        total = (ca, cb) if ca != 0 or cb != 0 else (0j, 0j)
        groups.append(PathGroup(dest, paths, total))
    return PathListing(groups, source_text)


def path_report(
    result: ScatterResult, destination: ProductTerm
) -> dict[ProductTerm, tuple[list[PathRecord], tuple[complex, complex]]]:
    """The paths into a destination and its ``(ca, cb)`` sum, by destination term.

    The ``PathRecord`` view of ``group_paths``: the same destinations, in
    the same order, each with its records as ``PathRecord``s in the same
    order and its sum.  A fermionic destination is canonicalized, so any
    slot ordering of the same Slater key selects the same report, and one
    with no q labels selects every labelled destination of its sector.
    """
    sources = tuple(result._source.terms)
    return {
        dest: (
            [
                PathRecord(sources[index], PROCESSES[component], i, j, sign, value, dest)
                for index, component, i, j, sign, value in paths
            ],
            total,
        )
        for dest, paths, total in group_paths(result, destination).groups
    }
