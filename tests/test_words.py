import doctest
import random
import tracemalloc
from collections.abc import Sequence

import pytest
from hypothesis import given, strategies as st

from dpl import words as W
from dpl.errors import MalformedWord


def pair(a, b):
    return (a, b) if a < b else (b, a)


class TestOtimes:
    def test_table_rows(self):
        # self product names the vertex from the co-curve
        assert W.otimes((1, 2), (1, 2)) == (1, 2)
        # {+1,+2} * {+1,+3} = {+2,-3}
        assert W.otimes((1, 2), (1, 3)) == pair(2, -3)
        # {-1,+2} * {+1,+3} = {+2,+3}
        assert W.otimes((-1, 2), (1, 3)) == pair(2, 3)
        # remaining sign rows
        assert W.otimes((1, 2), (-1, 3)) == pair(-2, -3)
        assert W.otimes((-1, 2), (-1, 3)) == pair(-2, 3)

    def test_mismatched_carrier(self):
        with pytest.raises(MalformedWord):
            W.otimes((1, 2), (3, 4))
        with pytest.raises(MalformedWord):
            W.otimes((1, 2), (1, -2))  # co-indices coincide


# published node sets of the three-curve arrangement with four triple
# points, decoded to crossing pairs
UPS_A = frozenset({(-2, -1), (1, 3), (-2, 3)})
UPS_B = frozenset({(-1, 2), (-3, -1), (2, 3)})
UPS_C = frozenset({(-2, 1), (-1, 3), (-3, 2)})
UPS_D = frozenset({(1, 2), (-3, 1), (-3, -2)})


class TestRoll:
    def test_singleton(self):
        assert W.roll([(1, 2)], 1, carrier=1) == ((1, 2),)

    def test_position_out_of_range(self):
        with pytest.raises(MalformedWord):
            W.roll([(1, 2)], 2, carrier=1)

    def test_triple_point_transport(self):
        # carrier-1 prime factor of node A, rolled at its second entry,
        # is A's prime factor in the carrier-3 cycle
        block1 = ((-2, -1), (1, 3))
        rolled = W.roll(block1, 2, carrier=1)
        assert set(rolled) <= UPS_A
        # and rolled at the first entry, the carrier-2 factor reversed
        rolled2 = W.roll(block1, 1, carrier=1)
        assert set(rolled2) <= UPS_A

    def test_roll_closure_on_catalog(self):
        from dpl import catalog
        for name in ("Upsilon", "M1", "C64"):
            arr = catalog.arrangement(name)
            blocksets = {i: set(arr.blocks(i)) for i in arr.indices}
            for i in arr.indices:
                for block in arr.blocks(i):
                    for p in range(1, len(block) + 1):
                        rolled = W.roll(block, p, carrier=i)
                        t = W.co_index(block[p - 1], i)
                        if t > 0:
                            assert rolled in blocksets[t]
                        else:
                            assert tuple(reversed(rolled)) in blocksets[-t]


class TestCircularWords:
    def test_min_rotation(self):
        assert W.min_rotation((2, -1, 3)) == (-1, 3, 2)
        assert W.min_rotation(()) == ()

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=12))
    def test_min_rotation_is_a_rotation(self, letters):
        w = tuple(letters)
        assert W.min_rotation(w) in W.rotations(w)

    @given(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=1, max_size=6),
           st.integers(1, 4),
           st.lists(st.sampled_from((-2, -1, 1, 2)), max_size=6))
    def test_min_rotation_is_least_of_all_rotations(self, base, repeat, tail):
        """On words whose least letter repeats, as in the census words,
        periodic ones (``tail`` empty) included."""
        w = tuple(base * repeat + tail)
        assert W.min_rotation(w) == min(W.rotations(w))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=10),
           st.integers(0, 9))
    def test_rotation_invariance(self, letters, r):
        w = tuple(letters)
        assert W.cyclic_eq(w, w[r % len(w):] + w[:r % len(w)])


def random_words(seed):
    """400 seeded words of 0 to 16 letters from a small signed alphabet,
    so that the least letter often repeats."""
    rng = random.Random(seed)
    out = []
    for _ in range(400):
        letters = rng.sample((-3, -2, -1, 1, 2, 3), rng.randint(1, 6))
        out.append(tuple(rng.choice(letters)
                         for _ in range(rng.randint(0, 16))))
    return out


class TestPackedWords:
    def test_min_rotation_is_least_of_all_rotations(self):
        words = random_words(1)
        assert any(w.count(min(w)) > 2 for w in words if w)
        assert {len(w) for w in words} == set(range(17))
        for w in words:
            assert W.min_rotation(w) == min(W.rotations(w), default=())

    def test_pack_round_trip_and_order(self):
        words = random_words(2) + [(127, -127, 5), (-127,), (127,)]
        for w in words:
            assert W.unpack(W.pack(w)) == w
        rng = random.Random(3)
        for _ in range(2000):
            a, b = rng.choice(words), rng.choice(words)
            assert (a < b) == (W.pack(a) < W.pack(b)), (a, b)
            # tuples of words of unequal lengths
            ta = tuple(rng.sample(words, rng.randint(0, 4)))
            tb = ta[:rng.randint(0, len(ta))] + tuple(
                rng.sample(words, rng.randint(0, 3)))
            assert (ta < tb) == (tuple(map(W.pack, ta))
                                 < tuple(map(W.pack, tb))), (ta, tb)

    def test_pack_range(self):
        with pytest.raises(ValueError):
            W.pack((128,))

    def test_least_rotation_matches_min_rotation(self):
        for w in random_words(4):
            assert W.least_rotation(W.pack(w) * 2, len(w)) \
                == W.pack(W.min_rotation(w))


class TestSignedPermutation:
    def test_group_laws(self):
        random.seed(0)
        perms = W.SignedPermutation.all((1, 2, 3))
        assert len(perms) == 48
        for _ in range(50):
            s, t = random.choice(perms), random.choice(perms)
            u = s * t
            for x in (-3, -2, -1, 1, 2, 3):
                assert u(x) == s(t(x))
                assert s.inverse()(s(x)) == x
                assert s(-x) == -s(x)

    def test_identity(self):
        e = W.SignedPermutation.identity((1, 2))
        assert e(1) == 1 and e(-2) == -2

    def test_rejects_non_bijections(self):
        with pytest.raises(MalformedWord):
            W.SignedPermutation({1: 2, 2: 2})

    def test_members_match_checked_copies(self):
        """The enumeration skips the constructor's bijection check; its
        members equal, and hash like, copies that pass it."""
        members = W.SignedPermutation.all(range(1, 5))
        assert len(members) == 384
        for m in members:
            copy = W.SignedPermutation(m.images)
            assert copy == m and hash(copy) == hash(m)
            assert copy.images is not m.images
        with pytest.raises(MalformedWord):
            W.SignedPermutation({1: -2, 2: 2, 3: 4, 4: 1})

    def test_signed_permutations_order(self):
        """Permutation-major, sign vectors in ``product`` order; a choice
        of permutations and sign vectors keeps that order."""
        bases = (1, 2, 3)
        full = W.SignedPermutation.all(bases)
        assert [s.one_line() for s in full[:3]] == [
            (1, 2, 3), (1, 2, -3), (1, -2, 3)]
        assert full[8].one_line() == (1, 3, 2)
        assert len(set(full)) == 48
        evens = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        perms = [(2, 1, 3), (3, 2, 1)]
        got = list(W.signed_permutations(bases, perms, evens))
        assert got == [s for s in full
                       if tuple(abs(m) for m in s.one_line()) in perms
                       and sum(m < 0 for m in s.one_line()) % 2 == 0]


class TestSignedGroupOrder:
    """``SignedPermutation.all`` decodes member ``k`` of the enumeration
    :func:`dpl.words.signed_permutations` from ``k``."""

    def test_every_member_up_to_five(self):
        for n in range(6):
            bases = tuple(range(1, n + 1))
            group = W.SignedPermutation.all(bases)
            listed = list(W.signed_permutations(bases))
            assert len(group) == len(listed)
            assert [group[k] for k in range(len(group))] == listed
            assert list(group) == listed

    def test_seeded_members_at_six(self):
        bases = (2, 3, 5, 7, 8, 9)
        group = W.SignedPermutation.all(bases)
        listed = list(W.signed_permutations(bases))
        assert len(group) == len(listed) == 46080
        for k in random.Random(6).sample(range(len(listed)), 300):
            assert group[k].one_line() == listed[k].one_line()

    def test_sequence_protocol(self):
        group = W.SignedPermutation.all((1, 2, 3))
        listed = list(group)
        assert isinstance(group, Sequence)
        assert group[5:17:3] == listed[5:17:3]
        assert group[::-7] == listed[::-7] and group[60:] == []
        assert group[-1] == listed[-1] and group[-48] == listed[0]
        for k in (48, -49, 10 ** 6):
            with pytest.raises(IndexError):
                group[k]
        assert group.index(listed[20]) == 20 and listed[7] in group

    def test_seeded_choice_unchanged(self):
        """``random.choice`` draws the member the listed group gave."""
        for n in (2, 3, 4):
            bases = tuple(range(1, n + 1))
            listed = list(W.signed_permutations(bases))
            one, two = random.Random(n), random.Random(n)
            for _ in range(20):
                assert (one.choice(W.SignedPermutation.all(bases))
                        == two.choice(listed))

    def test_length_without_members(self, monkeypatch):
        def no_enumeration(*args):
            raise AssertionError("the group enumerated its members")

        monkeypatch.setattr(W, "signed_permutations", no_enumeration)
        tracemalloc.start()
        try:
            group = W.SignedPermutation.all(range(1, 8))
            assert len(group) == 645120
            assert group[645119].one_line() == (-7, -6, -5, -4, -3, -2, -1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


    def test_first_member_builds_no_sign_vectors(self):
        """The default sign vectors are enumerated per permutation, so the
        first member at n = 18 takes no room for the 2**18 vectors."""
        bases = tuple(range(1, 19))
        tracemalloc.start()
        try:
            first = next(W.signed_permutations(bases))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first.one_line() == bases
        assert peak < 1024 * 1024


class TestActionOnArrangements:
    def test_group_action_law(self):
        from dpl import all_c64
        from dpl.mutation import act_words
        random.seed(1)
        arr = all_c64(3)
        idx = arr.indices
        words = tuple(arr.disk[i] for i in idx)
        perms = W.SignedPermutation.all(idx)
        for _ in range(40):
            s, t = random.choice(perms), random.choice(perms)
            one = act_words(s * t, idx, words)
            two = act_words(t, idx, act_words(s, idx, words))
            assert one == two

    def test_c64_stabilizer_matches_published_cosets(self):
        # one-line images of the order-24 stabilizer as printed with the
        # hemicuboctahedral example
        published = {
            (1, 2, 3), (2, 3, 1), (3, 1, 2),
            (-1, -2, 3), (-2, -3, 1), (-3, -1, 2),
            (-1, 2, -3), (-2, 3, -1), (-3, 1, -2),
            (1, -2, -3), (2, -3, -1), (3, -1, -2),
            (2, 1, -3), (3, 2, -1), (1, 3, -2),
            (3, -2, 1), (1, -3, 2), (2, -1, 3),
            (-1, 3, 2), (-2, 1, 3), (-3, 2, 1),
            (-2, -1, -3), (-3, -2, -1), (-1, -3, -2),
        }
        from dpl import all_c64, stabilizer
        stab = {s.one_line() for s in stabilizer(all_c64(3))}
        assert stab == published

    def test_c04_swap_stays_in_the_class(self):
        from dpl import cyclic_thin, orbit_count
        arr = cyclic_thin(3)
        swap = W.SignedPermutation({1: 2, 2: 1, 3: 3})
        moved = arr.act(swap)
        assert (moved.complex.canonical_key("plain")
                == arr.complex.canonical_key("plain"))
        # the stabilizer has index 2: exactly two indexed-oriented versions
        assert orbit_count(arr) == 2

    def test_orbit_sizes_divide_group_order(self):
        from dpl import catalog, orbit_count
        for name in ("C04", "C15", "C43", "C36"):
            arr = catalog.arrangement(name)
            assert 48 % (48 // orbit_count(arr)) == 0


class TestRollBijection:
    def test_bijection_onto_target_blocks(self):
        # for every ordered pair of curves, rolling the blocks that meet
        # the target hits each target block exactly once
        from dpl import catalog
        for name in ("C04", "C22", "Upsilon", "M1", "M2star"):
            arr = catalog.arrangement(name)
            for i in arr.indices:
                for t in arr.indices:
                    if t == i:
                        continue
                    images = []
                    for block in arr.blocks(i):
                        for p, pr in enumerate(block, start=1):
                            target = W.co_index(pr, i)
                            if abs(target) != t:
                                continue
                            rolled = W.roll(block, p, carrier=i)
                            if target < 0:
                                rolled = tuple(reversed(rolled))
                            images.append(rolled)
                    shared = [b for b in arr.blocks(t)
                              if any(abs(W.co_index(pr, t)) == i for pr in b)]
                    assert sorted(images) == sorted(shared), (name, i, t)


def test_doctests():
    result = doctest.testmod(W)
    assert (result.failed, result.attempted) == (0, 13)
