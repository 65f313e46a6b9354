import doctest
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dpl import (
    all_c64,
    catalog,
    cyclic_thin,
    from_disk_only,
    parse_text,
    validate,
)
from dpl import arrangement
from dpl import words as W
from dpl.arrangement import _D_ANCHOR, _M_ANCHOR, _decompose, _slot_positions
from dpl.errors import (
    BadSignPattern,
    DplError,
    FormatError,
    NoBlockDecomposition,
    RollMismatch,
    SubsetTooSmall,
    UnknownIndex,
    WrongMultiplicity,
)
from dpl.mutation import MutationMove, apply_move, triangles
from dpl.words import SignedPermutation


class TestValidate:
    def test_c04_from_plain_letters(self):
        arr = from_disk_only({1: (2, 2, 3, 3, -2, -2, -3, -3),
                              2: (3, 3, 1, 1, -3, -3, -1, -1),
                              3: (1, 1, 2, 2, -1, -1, -2, -2)})
        assert arr.genus == 1
        assert arr.key() == catalog.arrangement("C04").key()

    def test_two_curve(self):
        arr = from_disk_only({1: (-2, -2, 2, 2), 2: (-1, -1, 1, 1)})
        assert arr.genus == 1
        assert arr.vertex_count == 4 and arr.edge_count == 8

    def test_wrong_multiplicity(self):
        with pytest.raises(WrongMultiplicity):
            from_disk_only({1: (2, 2, 2, -3, -3, 3, 3),
                            2: (-1, -1, 1, 1),
                            3: (-1, -1, 1, 1)})

    def test_missing_co_index(self):
        c64 = catalog.arrangement("C64")
        disk = dict(c64.disk)
        disk[1] = tuple(x for x in disk[1] if abs(x) != 3)
        empty = {1: (), 2: ()}
        for args, co in (((disk, c64.crosscap), 3), ((empty, empty), 2)):
            with pytest.raises(WrongMultiplicity, match="0 times") as exc:
                validate(*args)
            assert exc.value.details == {"carrier": 1, "co": co}

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([fx.arrangement for fx in catalog.all()]),
           st.data())
    def test_removed_or_doubled_co_index(self, arr, data):
        i = data.draw(st.sampled_from(arr.indices))
        co = data.draw(st.sampled_from([j for j in arr.indices if j != i]))
        side = data.draw(st.sampled_from(("disk", "crosscap")))
        family = {"disk": dict(arr.disk), "crosscap": dict(arr.crosscap)}
        word = family[side][i]
        if data.draw(st.booleans()):
            word = tuple(x for x in word if abs(x) != co)
        else:
            word = tuple(y for x in word
                         for y in ((x, x) if abs(x) == co else (x,)))
        family[side][i] = word
        with pytest.raises(WrongMultiplicity) as exc:
            validate(**family)
        assert exc.value.details == {"carrier": i, "co": co}

    def test_bad_sign_pattern(self):
        with pytest.raises(BadSignPattern):
            from_disk_only({1: (2, -2, 2, -2), 2: (-1, -1, 1, 1)})

    @pytest.mark.parametrize("word, anchor, error, message, details", [
        ((2, -2, 2, -2), _D_ANCHOR, BadSignPattern,
         "signs of 2 in cycle of 1 are not a rotation of the elementary "
         "cycle", {"carrier": 1, "co": 2}),
        ((-2, -2, 2, -1, 2), _D_ANCHOR, BadSignPattern,
         "cycle of 1 contains illegal letter -1", {"carrier": 1}),
        ((-2, -2, 2), _D_ANCHOR, WrongMultiplicity,
         "index 2 occurs 3 times in cycle of 1", {"carrier": 1, "co": 2}),
        ((-2, -2, 2, 2, 2), _D_ANCHOR, WrongMultiplicity,
         "index 2 occurs 5 times in cycle of 1", {"carrier": 1, "co": 2}),
        ((3, 3, -3, -3, 2, -2, 2, -2), _M_ANCHOR, BadSignPattern,
         "signs of 2 in cycle of 1 are not a rotation of the elementary "
         "cycle", {"carrier": 1, "co": 2}),
    ])
    def test_slot_errors(self, word, anchor, error, message, details):
        """Each slotting error names its carrier and co-index exactly."""
        with pytest.raises(error) as exc:
            _slot_positions(word, 1, anchor)
        assert type(exc.value) is error
        assert str(exc.value) == message and exc.value.details == details

    def test_slots_of_every_anchor_rotation(self):
        """Each rotation of an anchor's signs gives slot 1 to the
        occurrence that starts the anchor pattern."""
        for anchor in (_D_ANCHOR, _M_ANCHOR):
            for r in range(4):
                word = tuple(2 * anchor[(t - r) % 4] for t in range(4))
                assert _slot_positions(word, 1, anchor) == tuple(
                    W.pair_of(1, 2, (t - r) % 4 + 1) for t in range(4))

    def test_single_curve_rejected(self):
        with pytest.raises(SubsetTooSmall):
            validate({1: ()}, {1: ()})

    def test_published_pair_with_shared_disk_cycles(self):
        disk = {1: (3, 2, -2, 3, -3, -2, 2, -3),
                2: (-3, 1, -1, -3, 3, -1, 1, 3),
                3: (-2, -1, 1, -2, 2, 1, -1, 2)}
        left = validate(disk, {1: (-2, -3, -3, 2, 2, 3, 3, -2),
                               2: (-1, 3, 3, 1, 1, -3, -3, -1),
                               3: (1, 2, 2, -1, -1, -2, -2, 1)})
        right = validate(disk, {1: (-3, -2, -3, 2, 2, 3, 3, -2),
                                2: (3, -1, 3, 1, 1, -3, -3, -1),
                                3: (2, 1, 2, -1, -1, -2, -2, 1)})
        assert left.genus == right.genus == 1
        assert left.vertex_count == 4 and right.vertex_count == 6
        assert left.key() != right.key()


class TestEulerIdentity:
    def test_all_catalog(self):
        for fx in catalog.all():
            arr = fx.arrangement
            V, E = arr.vertex_count, arr.edge_count
            F = sum(arr.f_vector.values())
            assert V - E + F == 2 - arr.genus
            assert arr.genus >= 1
            assert sum(s * c for s, c in arr.f_vector.items()) == 2 * E


class TestSerialization:
    def test_round_trip(self):
        for fx in catalog.all():
            arr = fx.arrangement
            again = parse_text(arr.to_text(name=fx.name))
            assert again.key() == arr.key()

    def test_disk_only_files(self):
        text = "indices: 1 2\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n"
        arr = parse_text(text)
        assert arr.genus == 1

    def test_json_fields(self):
        data = catalog.arrangement("C04").to_json(name="C04")
        assert data["name"] == "C04"
        for field in ("indices", "disk_cycles", "crosscap_cycles",
                      "genus", "f_vector", "simple", "thin"):
            assert field in data


class TestRestriction:
    def test_identity_on_full_set(self):
        arr = catalog.arrangement("M1")
        assert arr.restriction(arr.indices).key() == arr.key()

    def test_published_subarrangements(self):
        from dpl.chirotope import class_version
        M1 = catalog.arrangement("M1")
        assert M1.restriction((2, 3, 4)).key() == class_version("C04", (2, 3, 4)).key()
        M2 = catalog.arrangement("M2")
        assert M2.restriction((1, 2, 4)).key() == class_version("C32", (1, 4, 2)).key()

    def test_too_small(self):
        with pytest.raises(SubsetTooSmall):
            catalog.arrangement("C04").restriction((1,))
        with pytest.raises(UnknownIndex):
            catalog.arrangement("C04").restriction((1, 2, 7))

    def test_commutes_with_act(self):
        # relabel-then-restrict equals restrict-then-relabel whenever the
        # permutation maps the subset onto itself
        random.seed(3)
        arr = catalog.arrangement("M1")
        J = frozenset((1, 2, 4))
        perms = [s for s in SignedPermutation.all(arr.indices)
                 if {abs(s(k)) for k in J} == set(J)]
        checked = 0
        for sigma in random.sample(perms, 12):
            sigmaJ = SignedPermutation({k: sigma(k) for k in J})
            one = arr.act(sigma).restriction(J)
            two = arr.restriction(J).act(sigmaJ)
            assert one.key() == two.key()
            checked += 1
        assert checked == 12


class TestGenerators:
    def test_cyclic_thin_small(self):
        assert cyclic_thin(2).key() == catalog.arrangement("TwoCurve").key()
        assert cyclic_thin(3).key() == catalog.arrangement("C04").key()

    def test_cyclic_thin_five(self):
        arr = cyclic_thin(5)
        assert arr.genus == 1 and arr.is_simple() and arr.is_thin()
        c04 = catalog.arrangement("C04").complex.canonical_key()
        from itertools import combinations
        for J in combinations(arr.indices, 3):
            sub = arr.restriction(J)
            assert sub.complex.canonical_key() == c04

    def test_all_c64_small(self):
        assert all_c64(3).key() == catalog.arrangement("C64").key()
        u4 = all_c64(4)
        assert u4.genus == 7
        assert u4.f_vector == {2: 12, 8: 3, 12: 4}

    def test_derived_crosscap_cycles_match_stored(self):
        for fx in catalog.all():
            arr = fx.arrangement
            if not arr.is_simple():
                continue
            derived = from_disk_only(dict(arr.disk))
            assert derived.key() == arr.key()


class TestPredicates:
    def test_thin(self):
        assert cyclic_thin(3).is_thin()
        assert cyclic_thin(4).is_thin()
        assert not catalog.arrangement("C64").is_thin()

    def test_martagon_catalog(self):
        for fx in catalog.all():
            expected = set(fx.expected.get("martagon_curves", []))
            arr = fx.arrangement
            got = {i for i in arr.indices if arr.is_martagon(i)}
            if expected:
                assert got == expected, fx.name

    def test_martagon_on_the_flagged_classes(self):
        assert catalog.arrangement("C22").is_martagon(1)
        assert catalog.arrangement("C32").is_martagon(1)
        assert catalog.arrangement("M1").is_martagon(1)

    def test_unknown_curve(self):
        with pytest.raises(UnknownIndex):
            catalog.arrangement("C04").is_martagon(9)


class TestUpsilonNodeCycles:
    A = frozenset({(-2, -1), (1, 3), (-2, 3)})
    B = frozenset({(-1, 2), (-3, -1), (2, 3)})
    C = frozenset({(-2, 1), (-1, 3), (-3, 2)})
    D = frozenset({(1, 2), (-3, 1), (-3, -2)})

    def test_published_node_sets_and_cycles(self):
        arr = catalog.arrangement("Upsilon")
        assert set(arr.nodes) == {self.A, self.B, self.C, self.D}
        label = {self.A: "A", self.B: "B", self.C: "C", self.D: "D"}

        def cyc(i):
            word = "".join(label[n] for n in arr.node_cycles[i])
            return min(word[r:] + word[:r] for r in range(4))

        assert cyc(1) == min("ABCD"[r:] + "ABCD"[:r] for r in range(4))
        assert cyc(2) == min("ACBD"[r:] + "ACBD"[:r] for r in range(4))
        assert cyc(3) == min("ABDC"[r:] + "ABDC"[:r] for r in range(4))


def reference_decompose(S, T_given, max_block, carrier):
    """The factorization by search: every crosscap rotation, every start
    of the window within ``max_block`` of position 0, and every partition
    of the window into reversed blocks of distinct co-indices."""
    L = len(S)
    if sorted(S) != sorted(T_given):
        raise NoBlockDecomposition(
            "disk and crosscap slots of %d disagree" % carrier, carrier=carrier)
    solutions = {}
    for r in range(L):
        T = tuple(T_given[(p + r) % L] for p in range(L))
        for back in range(max_block):
            start = (-back) % L
            stack = [(0, ())]
            while stack:
                pos, spans = stack.pop()
                if pos == L:
                    solutions.setdefault(frozenset(spans), r)
                    continue
                for length in range(1, min(max_block, L - pos) + 1):
                    sl = tuple((start + t) % L for t in range(pos, pos + length))
                    block = [S[p] for p in sl]
                    if [T[p] for p in sl] != block[::-1]:
                        continue
                    if len({abs(W.co_index(pr, carrier))
                            for pr in block}) != length:
                        continue
                    stack.append((pos + length, spans + (sl,)))
    if not solutions:
        raise NoBlockDecomposition(
            "no blockwise-reversed factorization for cycle of %d" % carrier,
            carrier=carrier)
    if len(solutions) > 1:
        raise NoBlockDecomposition(
            "ambiguous factorization for cycle of %d" % carrier,
            carrier=carrier, count=len(solutions))
    spans_set, r = solutions.popitem()
    return r, tuple(sorted(spans_set, key=lambda span: span[0]))


def reference_slot_positions(word, carrier, anchor):
    """Slotting occurrence by occurrence: every rotation of the anchor is
    tried on each co-index's four signs, and each position's pair is
    built by :func:`dpl.words.pair_of`."""
    occ = {}
    for p, letter in enumerate(word):
        base = abs(letter)
        if base == carrier or base == 0:
            raise BadSignPattern(
                "cycle of %d contains illegal letter %d" % (carrier, letter),
                carrier=carrier)
        occ.setdefault(base, []).append(p)
    pairs = [None] * len(word)
    for base, positions in occ.items():
        if len(positions) != 4:
            raise WrongMultiplicity(
                "index %d occurs %d times in cycle of %d"
                % (base, len(positions), carrier), carrier=carrier, co=base)
        signs = [1 if word[p] > 0 else -1 for p in positions]
        starts = [r for r in range(4)
                  if all(signs[t] == anchor[(t - r) % 4] for t in range(4))]
        if not starts:
            raise BadSignPattern(
                "signs of %d in cycle of %d are not a rotation of the "
                "elementary cycle" % (base, carrier), carrier=carrier, co=base)
        for t in range(4):
            pairs[positions[(starts[0] + t) % 4]] = W.pair_of(
                carrier, base, t + 1)
    return tuple(pairs)


def reference_validate(disk, crosscap):
    """:func:`dpl.validate` letter by letter: the letter range, slotting by
    :func:`reference_slot_positions`, factors by the search of
    :func:`reference_decompose`, and every factor, one-letter ones too,
    rolled by :func:`dpl.words.roll` and turned into a node by taking
    every product :func:`dpl.words.otimes` of two of its pairs.  Returns
    the fields of the arrangement."""
    disk = {i: tuple(w) for i, w in disk.items()}
    crosscap = {i: tuple(w) for i, w in crosscap.items()}
    indices = tuple(sorted(disk))
    if len(indices) < 2:
        raise SubsetTooSmall("an arrangement needs at least 2 curves")
    if indices[0] <= 0:
        raise FormatError("curve indices must be positive, got %r"
                          % (indices,))
    if set(crosscap) != set(disk):
        raise FormatError("disk and crosscap cycles cover different indices")
    for i in indices:
        for x in disk[i] + crosscap[i]:
            if abs(x) not in indices:
                raise UnknownIndex(
                    "letter %d outside index set in cycle of %d" % (x, i))
    S, spans, aligned = {}, {}, {}
    for i in indices:
        for word, anchor in ((disk[i], _D_ANCHOR), (crosscap[i], _M_ANCHOR)):
            slotted = reference_slot_positions(word, i, anchor)
            missing = sorted(set(indices) - {i} - {abs(x) for x in word})
            if missing:
                raise WrongMultiplicity(
                    "index %d occurs 0 times in cycle of %d" % (missing[0], i),
                    carrier=i, co=missing[0])
            if anchor is _D_ANCHOR:
                S[i] = slotted
        r, spans[i] = reference_decompose(S[i], slotted, len(indices) - 1, i)
        L = len(crosscap[i])
        aligned[i] = tuple(crosscap[i][(p + r) % L] for p in range(L))
    blocks = {i: [tuple(S[i][p] for p in span) for span in spans[i]]
              for i in indices}
    nodes, node_cycles = {}, {}
    for i in indices:
        cyc = []
        for si, block in enumerate(blocks[i]):
            for p in range(1, len(block) + 1):
                rolled = W.roll(block, p, carrier=i)
                target = W.co_index(block[p - 1], i)
                if target < 0:
                    rolled = tuple(reversed(rolled))
                if rolled not in blocks[abs(target)]:
                    raise RollMismatch(
                        "block %r of %d does not transport to cycle %d"
                        % (block, i, target), carrier=i, target=target)
            node = frozenset(block) | {W.otimes(x, y)
                                       for x, y in combinations(block, 2)}
            if i in nodes.setdefault(node, {}):
                raise RollMismatch(
                    "node %r met twice on curve %d" % (sorted(node), i),
                    carrier=i)
            nodes[node][i] = si
            cyc.append(node)
        node_cycles[i] = tuple(cyc)
    for node, carriers in nodes.items():
        bases = {abs(x) for pair in node for x in pair}
        if set(carriers) != bases:
            raise RollMismatch(
                "node %r seen from %r but involves %r"
                % (sorted(node), sorted(carriers), sorted(bases)))
    return disk, aligned, S, spans, nodes, node_cycles


def _validated_fields(disk, crosscap):
    arr = validate(disk, crosscap)
    return arr.disk, arr.crosscap, arr.S, arr.spans, arr.nodes, arr.node_cycles


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DplError as exc:
        return type(exc), str(exc), exc.details


def _assert_same_factorization(S, T, max_block, carrier):
    assert (_outcome(_decompose, S, T, max_block, carrier)
            == _outcome(reference_decompose, S, T, max_block, carrier))


def _slots(arr, i, shift=0):
    cross = arr.crosscap[i]
    cross = cross[shift:] + cross[:shift]
    return (_slot_positions(arr.disk[i], i, _D_ANCHOR),
            _slot_positions(cross, i, _M_ANCHOR))


# Five curves through one vertex (prime factors of four letters), reached
# from a merge of cyclic_thin(5) by flips and by passing a fourth and a
# fifth curve through its multiple vertex; every restriction to four
# curves keeps a 4-fold vertex.
QUINTUPLE = """indices: 1 2 3 4 5
D 1: 2 3 2 3 4 4 5 -2 -4 -2 -3 5 -3 -4 -5 -5
D 2: 3 3 4 5 -3 5 1 4 1 -3 -4 -4 -5 -1 -5 -1
D 3: 4 5 5 1 4 1 2 2 -4 -5 -2 -4 -1 -5 -1 -2
D 4: 5 5 1 1 2 -5 -1 -5 3 2 3 -1 -2 -2 -3 -3
D 5: 1 2 3 2 4 1 3 4 -1 -1 -2 -4 -2 -3 -3 -4
M 1: -2 -3 -2 -3 -4 -4 -5 2 -5 3 2 4 3 4 5 5
M 2: -3 -3 -4 -5 -4 -1 -5 3 -1 3 4 4 5 1 5 1
M 3: -4 -5 -5 -1 -4 -1 -2 -2 4 5 5 1 4 2 1 2
M 4: -5 -5 -1 -1 -2 5 -2 -3 5 1 -3 1 2 2 3 3
M 5: -1 -2 -1 -4 -2 -3 -3 -4 1 1 2 4 2 3 3 4
"""


def _factorization_cases():
    arrs = [fx.arrangement for fx in catalog.all()]
    arrs += [all_c64(n) for n in range(3, 8)]
    for arr in ([catalog.arrangement(name) for name in catalog.THIRTEEN]
                + [cyclic_thin(4), cyclic_thin(5)]):
        arrs += [apply_move(arr, MutationMove("merge", t, m))
                 for t, m in triangles(arr)]
    merged = arrs[-1]
    arrs.append(apply_move(merged, MutationMove("merge", *triangles(merged)[0])))
    quintuple = parse_text(QUINTUPLE)
    arrs += [quintuple] + [quintuple.restriction(J)
                           for J in combinations(quintuple.indices, 4)]
    return arrs


class TestFactorization:
    def test_matches_search_on_valid_cycles(self):
        cases = 0
        for arr in _factorization_cases():
            for i in arr.indices:
                L = len(arr.disk[i])
                for shift in sorted({0, 1, L // 2}):
                    S, T = _slots(arr, i, shift)
                    got = _decompose(S, T, arr.n - 1, i)
                    assert got == reference_decompose(S, T, arr.n - 1, i)
                    assert shift or got == (0, arr.spans[i])
                    cases += 1
        assert cases > 1500

    def test_cases_reach_factors_of_four_letters(self):
        lengths = {len(span) for arr in _factorization_cases()
                   for i in arr.indices for span in arr.spans[i]}
        assert lengths == {1, 2, 3, 4}

    FIXTURES = [fx.arrangement for fx in catalog.all()] + [all_c64(4)]

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(FIXTURES), st.data())
    def test_matches_search_on_corrupted_cycles(self, arr, data):
        i = data.draw(st.sampled_from(arr.indices))
        S, T = _slots(arr, i)
        L = len(S)
        T = list(T)
        kind = data.draw(st.sampled_from(
            ("swap", "rotate", "drop", "drop-crosscap", "swap-disk")))
        if kind in ("swap", "swap-disk"):
            target = T if kind == "swap" else list(S)
            a, b = data.draw(st.lists(st.integers(0, L - 1), min_size=2,
                                      max_size=2, unique=True))
            target[a], target[b] = target[b], target[a]
            if kind == "swap-disk":
                S = tuple(target)
        elif kind == "rotate":
            r = data.draw(st.integers(0, L - 1))
            T = T[r:] + T[:r]
        else:
            co = data.draw(st.sampled_from([j for j in arr.indices if j != i]))
            T = [pr for pr in T if abs(W.co_index(pr, i)) != co]
            if kind == "drop":
                S = tuple(pr for pr in S if abs(W.co_index(pr, i)) != co)
        _assert_same_factorization(tuple(S), tuple(T), arr.n - 1, i)

    def test_constant_u_and_empty_cycles(self):
        a, b, c, d = (W.pair_of(1, 2, 1), W.pair_of(1, 3, 1),
                      W.pair_of(1, 2, 2), W.pair_of(1, 3, 2))
        # (b a d c) reverses the whole cycle (a b c d): u is constant, and
        # one or two factors is a rejection
        with pytest.raises(NoBlockDecomposition, match="no blockwise"):
            _decompose((a, b, c, d), (b, a, d, c), 2, 1)
        # bc is a reversed block of distinct co-indices, but too long
        _assert_same_factorization((a, b, c, d), (a, c, b, d), 1, 1)
        _assert_same_factorization((), (), 2, 1)
        with pytest.raises(NoBlockDecomposition, match="no blockwise"):
            _decompose((a, b, c, d), (a, c, b, d), 1, 1)


def _same_outcome(disk, crosscap):
    got = _outcome(_validated_fields, disk, crosscap)
    assert got == _outcome(reference_validate, disk, crosscap)
    return got


def _rotated(family):
    """Each word of ``family`` rotated by its curve index."""
    return {i: w[i % len(w):] + w[:i % len(w)] for i, w in family.items()}


def _oracle_families():
    """Fixtures, generators at n <= 7 and every merge of a fixture, each
    also with its crosscap words rotated against the disk words."""
    arrs = [fx.arrangement for fx in catalog.all()]
    arrs += [cyclic_thin(n) for n in range(2, 8)]
    arrs += [all_c64(n) for n in range(3, 8)]
    arrs += [apply_move(fx.arrangement, MutationMove("merge", t, m))
             for fx in catalog.all() for t, m in triangles(fx.arrangement)]
    for arr in arrs:
        yield dict(arr.disk), dict(arr.crosscap)
        yield dict(arr.disk), _rotated(arr.crosscap)


def _corrupted(family, i, kind):
    """``family`` with the word of curve ``i`` corrupted by ``kind``."""
    word = list(family[i])
    co = min(j for j in family if j != i)
    if kind == "drop":
        word = [x for x in word if abs(x) != co]
    elif kind == "double":
        word = [y for x in word for y in ((x, x) if abs(x) == co else (x,))]
    elif kind == "swap":
        word[0], word[1] = word[1], word[0]
    elif kind == "swap-far":
        word[0], word[len(word) // 2] = word[len(word) // 2], word[0]
    elif kind == "negate":
        word[0] = -word[0]
    elif kind == "reverse":
        word.reverse()
    else:  # a letter outside the index set, zero, or the carrier's own
        word[1] = {"outside": max(family) + 1, "zero": 0,
                   "carrier": i, "-carrier": -i}[kind]
    return {**family, i: tuple(word)}


CORRUPTIONS = ("drop", "double", "swap", "swap-far", "negate", "reverse",
               "outside", "zero", "carrier", "-carrier")


class TestDecomposeDomain:
    def test_validate_passes_four_letters_per_co_index(self, monkeypatch):
        """Every cycle that :func:`validate` factors has ``4 * max_block``
        letters, so it never has one or two factors."""
        calls = []
        decompose = arrangement._decompose

        def recorded(S, T_given, max_block, carrier):
            calls.append((len(S), max_block))
            return decompose(S, T_given, max_block, carrier)

        monkeypatch.setattr(arrangement, "_decompose", recorded)
        families = list(_oracle_families())
        for fx in catalog.all():
            arr = fx.arrangement
            for i in arr.indices:
                for side in ("disk", "crosscap"):
                    for kind in CORRUPTIONS:
                        family = {"disk": dict(arr.disk),
                                  "crosscap": dict(arr.crosscap)}
                        family[side] = _corrupted(family[side], i, kind)
                        families.append((family["disk"], family["crosscap"]))
        for disk, crosscap in families:
            _outcome(validate, disk, crosscap)
        assert len(calls) > 2000
        assert all(length == 4 * max_block for length, max_block in calls)


class TestValidateOracle:
    """:func:`validate` gives the fields, or the error, of the letter by
    letter :func:`reference_validate`."""

    def test_valid_families(self):
        cases = 0
        for disk, crosscap in _oracle_families():
            assert not isinstance(_same_outcome(disk, crosscap)[0], type)
            cases += 1
        assert cases > 400

    def test_corrupted_families(self):
        errors = set()
        for fx in catalog.all():
            arr = fx.arrangement
            for i in arr.indices:
                for side in ("disk", "crosscap"):
                    for kind in CORRUPTIONS:
                        family = {"disk": dict(arr.disk),
                                  "crosscap": dict(arr.crosscap)}
                        family[side] = _corrupted(family[side], i, kind)
                        got = _same_outcome(**family)
                        if isinstance(got[0], type):
                            errors.add(got[0])
        assert errors == {UnknownIndex, BadSignPattern, WrongMultiplicity,
                          NoBlockDecomposition, RollMismatch}

    def test_header_level_errors(self):
        two = {1: (-2, -2, 2, 2), 2: (-1, -1, 1, 1)}
        for disk, crosscap in (({1: ()}, {1: ()}), ({0: (), 1: ()}, two),
                               (two, {1: two[1]}), ({}, {})):
            assert isinstance(_same_outcome(disk, crosscap)[0], type)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([fx.arrangement for fx in catalog.all()]
                           + [all_c64(4), cyclic_thin(4)]), st.data())
    def test_drawn_corruptions(self, arr, data):
        family = {"disk": dict(arr.disk), "crosscap": dict(arr.crosscap)}
        for _ in range(data.draw(st.integers(1, 2))):
            side = data.draw(st.sampled_from(("disk", "crosscap")))
            i = data.draw(st.sampled_from(arr.indices))
            word = list(family[side][i])
            kind = data.draw(st.sampled_from(("letter", "swap", "rotate")))
            if kind == "letter":
                k = arr.n + 1
                word[data.draw(st.integers(0, len(word) - 1))] = data.draw(
                    st.integers(-k, k))
            elif kind == "swap":
                a, b = data.draw(st.lists(st.integers(0, len(word) - 1),
                                          min_size=2, max_size=2))
                word[a], word[b] = word[b], word[a]
            else:
                r = data.draw(st.integers(0, len(word) - 1))
                word = word[r:] + word[:r]
            family[side][i] = tuple(word)
        _same_outcome(**family)


TOKENS = st.one_of(st.integers(-3, 4).map(str),
                   st.sampled_from(["x", ":", "#", "", "D", "M", "indices:",
                                    "\n", "1.5", "--1"]))
FIXTURE_TEXTS = [fx.arrangement.to_text() for fx in catalog.all()]


@st.composite
def arrangement_texts(draw):
    """Header and cycle lines over a few signed indices; each cycle holds
    every other index twice with each sign, in any order."""
    indices = draw(st.lists(st.integers(-2, 4), min_size=1, max_size=4))
    lines = ["indices: " + " ".join(map(str, indices))]
    for kind in draw(st.sampled_from(["D", "DM"])):
        for i in indices:
            letters = [x for j in indices if j != i for x in (j, j, -j, -j)]
            word = draw(st.permutations(letters))
            lines.append("%s %d: %s" % (kind, i, " ".join(map(str, word))))
    return "\n".join(lines)


@st.composite
def corrupted_fixture_texts(draw):
    """A catalog file with a few of its tokens replaced."""
    tokens = draw(st.sampled_from(FIXTURE_TEXTS)).split(" ")
    for _ in range(draw(st.integers(1, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
    return " ".join(tokens)


class TestParseBoundary:
    @settings(max_examples=500, deadline=None)
    @given(st.one_of(st.text(max_size=60), arrangement_texts(),
                     corrupted_fixture_texts()))
    def test_parse_text_returns_or_raises_dpl_error(self, text):
        try:
            parse_text(text)
        except DplError:
            pass


def test_doctests():
    result = doctest.testmod(arrangement)
    assert (result.failed, result.attempted) == (0, 4)
