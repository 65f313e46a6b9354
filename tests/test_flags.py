import doctest
import gc
import os
import random
import subprocess
import sys
import textwrap
import weakref
from itertools import combinations, product

import pytest

from dpl import all_c64, catalog, cyclic_thin, validate
from dpl import flags, mutation
from dpl.errors import BrokenInvariant, DplError, GenusNotOne
from dpl.flags import (
    _EPS_SIDE,
    _LOW,
    _SIG1_XOR,
    _crossing_bits,
    automorphism_order,
    face_orbits,
    orbit_count,
    stabilizer,
)
from dpl.mutation import (
    MutationMove,
    SimpleState,
    apply_move,
    moebius_full_census,
    projective_census,
    triangles,
)
from dpl.words import (
    SLOT_SIGNS,
    SignedPermutation,
    co_index,
    min_rotation,
    pair_of,
    slot_of,
)

# the sixteen rows of the two-curve sigma_1 table:
# (slot, orientation, side) -> (slot', orientation', side'), support switches
SIGMA1_TABLE = {
    (1, -1, -1): (1, -1, -1), (1, 1, -1): (1, -1, 1),
    (2, -1, -1): (3, -1, 1),  (2, 1, -1): (3, -1, -1),
    (3, -1, -1): (2, 1, -1),  (3, 1, -1): (2, 1, 1),
    (4, -1, -1): (4, 1, 1),   (4, 1, -1): (4, 1, -1),
    (1, -1, 1): (1, 1, -1),   (1, 1, 1): (1, 1, 1),
    (2, -1, 1): (3, 1, 1),    (2, 1, 1): (3, 1, -1),
    (3, -1, 1): (2, -1, -1),  (3, 1, 1): (2, -1, 1),
    (4, -1, 1): (4, -1, 1),   (4, 1, 1): (4, -1, -1),
}


def two_curve_step(pair, i, eps, side):
    """sigma1 of the 2-subarrangement of ``pair`` on a flag of curve ``i``.

    Returns ``(j, eps', side')``: the image lies on the co-curve ``j`` at
    the vertex of ``pair``.  The per-flag statement of the bit rule that
    :func:`flags.flag_sigmas` and :func:`flags.node_sigma1` apply.

    >>> two_curve_step((1, 2), 1, 1, 1)
    (2, -1, -1)
    """
    j, x = _crossing_bits(pair, i)
    return (j,) + _EPS_SIDE[x ^ _SIG1_XOR[_LOW[(eps, side)]]]


def reference_stabilizer(arr):
    """The brute force that ``stabilizer`` replaced: every signed
    permutation, kept when the min-rotations of the acted disk and
    crosscap words equal those of ``arr``."""
    indices = arr.indices
    dwords = tuple(arr.disk[i] for i in indices)
    mwords = tuple(arr.crosscap[i] for i in indices)

    def key(ws):
        return tuple(min_rotation(w) for w in ws)

    dkey, mkey = key(dwords), key(mwords)
    out = []
    for s in SignedPermutation.all(indices):
        inv = s.inverse()
        ok = True
        for k, i in enumerate(indices):
            m = s(i)
            d = dwords[indices.index(abs(m))]
            c = mwords[indices.index(abs(m))]
            if m < 0:
                d, c = d[::-1], c[::-1]
            if (min_rotation(tuple(inv(x) for x in d)) != dkey[k]
                    or min_rotation(tuple(inv(x) for x in c)) != mkey[k]):
                ok = False
                break
        if ok:
            out.append(s)
    return out


def reference_plain(cx):
    """The plain key and its start flags, from encoding every start flag;
    the reference for ``FlagComplex.canonical_key``, which skips automorphic
    starts."""
    best = None
    for start in range(len(cx.flags)):
        enc = cx._encode_from(start, best)
        if enc is None:
            continue
        if best is None or enc < best:
            best = enc
            starts = [start]
        elif enc == best:
            starts.append(start)
    return repr(best).encode(), starts


def relabeled_flip_walk_states():
    """Seeded flip walks from ``cyclic_thin(n)``, each state under a
    seeded signed relabeling."""
    rng = random.Random(11)
    out = []
    for n, states in ((3, 4), (4, 4), (5, 4), (6, 1)):
        arr = cyclic_thin(n)
        for _ in range(states):
            for _ in range(n):
                arr = apply_move(arr, MutationMove(
                    "flip", *rng.choice(triangles(arr))))
            out.append(arr.act(rng.choice(SignedPermutation.all(arr.indices))))
    return out


def merged_fixtures():
    """Every merge of a catalog fixture, one per indexed-oriented class."""
    merged = {}
    for fx in catalog.all():
        for t, m in triangles(fx.arrangement):
            arr = apply_move(fx.arrangement, MutationMove("merge", t, m))
            merged.setdefault(arr.key(), arr)
    return list(merged.values())


def relabeled_merged_arrangements():
    """Every merge of a catalog fixture, one per indexed-oriented class,
    under a seeded signed relabeling."""
    rng = random.Random(11)
    return [arr.act(rng.choice(SignedPermutation.all(arr.indices)))
            for arr in merged_fixtures()]


class TestSigmaOneBaseCase:
    def test_all_sixteen_rows(self):
        arr = catalog.arrangement("TwoCurve")
        cx = arr.complex
        i, j = 1, 2
        for (k, eps, side), (k2, eps2, side2) in SIGMA1_TABLE.items():
            node = frozenset({pair_of(i, j, k)})
            f = cx.fid[(cx.node_id[node], eps, i, side)]
            g = cx.sigma1[f]
            node2 = frozenset({pair_of(j, i, k2)})
            assert cx.flags[g] == (cx.node_id[node2], eps2, j, side2), (k, eps, side)


class TestFlagTable:
    """The flag tuples, their index and the sorted nodes, made on first
    read, against the flag numbering of the involutions."""

    def test_table_matches_the_numbering(self):
        arrs = [fx.arrangement for fx in catalog.all()] + merged_fixtures()
        arrs += [cyclic_thin(n) for n in range(2, 7)]
        arrs += [all_c64(n) for n in range(3, 8)]
        assert any(not arr.is_simple() for arr in arrs)
        for arr in arrs:
            cx = arr.complex
            assert len(cx.flags) == len(cx.sigma0) == 4 * cx.edge_count
            assert cx.vertex_count == len(cx.node_list) == arr.vertex_count
            assert cx.node_list == sorted(arr.nodes, key=sorted)
            for f in range(len(cx.sigma0)):
                i, p, eps, side = flags.flag_of(cx.indices, cx.start, f)
                node = cx.node_cycles[i][p]
                assert cx.flags[f] == (cx.node_id[node], eps, i, side)
                assert cx.fid[cx.flags[f]] == f


class TestFlagOf:
    def test_inverts_flag_id(self):
        """``flag_of`` reads back the curve, position, orientation and
        side of every flag of the 22 catalog complexes, their merges and
        the 531 states of the heavy crosscap walk at n=3."""
        arrs = [fx.arrangement for fx in catalog.all()]
        assert len(arrs) == 22
        arrs += merged_fixtures()
        heavy = moebius_full_census(3)[1]
        assert len(heavy) == 531
        arrs += [arr for arr, _ in heavy.values()]
        for arr in arrs:
            cx = arr.complex
            f = 0
            for i in cx.indices:
                for p in range(len(cx.node_cycles[i])):
                    for eps, side in _EPS_SIDE:
                        assert flags.flag_id(cx.start, i, p, eps, side) == f
                        assert (flags.flag_of(cx.indices, cx.start, f)
                                == (i, p, eps, side))
                        f += 1
            assert f == len(cx.sigma0)


class TestBuildChecks:
    """The two checks of a build still fire, as :class:`BrokenInvariant`,
    also under ``python -O``."""

    def test_sigma1_not_an_involution(self, monkeypatch):
        arr = catalog.arrangement("Upsilon")
        assert not arr.is_simple()
        flags.FlagComplex(arr)

        def zeros(nodes, start, s1):
            s1[:] = [0 if g is None else g for g in s1]

        monkeypatch.setattr(flags, "multiple_sigma1", zeros)
        with pytest.raises(BrokenInvariant,
                           match="sigma1 is not an involution"):
            flags.FlagComplex(arr)

    def test_sigma0_not_commuting_with_sigma2(self, monkeypatch):
        arr = catalog.arrangement("C04")
        real = flags.flag_sigmas

        def broken(*args):
            start, s0, s1, s2 = real(*args)
            s0[0] ^= 2
            return start, s0, s1, s2

        flags.FlagComplex(arr)
        monkeypatch.setattr(flags, "flag_sigmas", broken)
        with pytest.raises(BrokenInvariant,
                           match="sigma0 does not commute with sigma2"):
            flags.FlagComplex(arr)

    def test_checks_survive_optimize(self):
        """A build with a corrupted sigma1 raises under ``python -O``,
        which strips ``assert`` statements."""
        code = textwrap.dedent("""
            from dpl import catalog, flags
            from dpl.errors import BrokenInvariant
            assert False, "assert statements are not stripped"
            arr = catalog.arrangement("Upsilon")

            def zeros(nodes, start, s1):
                s1[:] = [0 if g is None else g for g in s1]

            flags.multiple_sigma1 = zeros
            try:
                flags.FlagComplex(arr)
            except BrokenInvariant as exc:
                print(exc)
        """)
        src = os.path.dirname(os.path.dirname(flags.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "sigma1 is not an involution"


def reference_dominance_min(node, i, eps, side):
    """The dominance minima of sigma1 on flag ``(eps, side)`` of curve
    ``i`` at ``node``, flag by flag through ``two_curve_step``: the
    two-curve image on every other curve through the node, kept when a
    side flip and the two-curve step from it reach every other image."""
    pair_of = {}
    for pair in node:
        a, b = abs(pair[0]), abs(pair[1])
        pair_of[a, b] = pair_of[b, a] = pair
    cands = [two_curve_step(pair, i, eps, side)
             for (a, _), pair in pair_of.items() if a == i]
    return [(j, e, s) for j, e, s in cands
            if all(k == j or two_curve_step(pair_of[j, k], j, e, -s)
                   == (k, ek, sk) for k, ek, sk in cands)]


def reference_sigma1(cx):
    """sigma1 of every flag from the per-flag rule, whose minimum must be
    unique."""
    out = []
    for f in range(len(cx.sigma0)):
        i, p, eps, side = flags.flag_of(cx.indices, cx.start, f)
        node = cx.node_cycles[i][p]
        (j, e, s), = reference_dominance_min(node, i, eps, side)
        out.append(flags.flag_id(cx.start, j, cx.nodes[node][j], e, s))
    return out


def merge_flip_walks():
    """Every state of seeded walks of merges and flips from
    ``cyclic_thin(3..6)``, each until no triangle is left or 16 moves."""
    rng = random.Random(5)
    out = []
    for n in range(3, 7):
        arr = cyclic_thin(n)
        for _ in range(16):
            tris = triangles(arr)
            if not tris:
                break
            kind = rng.choice(("merge", "flip", "flip"))
            arr = apply_move(arr, MutationMove(kind, *rng.choice(tris)))
            out.append(arr)
    return out


class TestMultipleSigmaOne:
    """sigma1 at multiple vertices, built per node from the crossing bits,
    against the per-flag dominance rule."""

    def test_matches_the_per_flag_rule(self):
        arrs = [fx.arrangement for fx in catalog.all()] + merged_fixtures()
        arrs += merge_flip_walks()
        arrs += [arr for arr, _ in moebius_full_census(3)[1].values()]
        assert len(arrs) >= 600
        assert sum(not arr.is_simple() for arr in arrs) >= 450
        for arr in arrs:
            cx = arr.complex
            assert cx.sigma1 == reference_sigma1(cx)

    # Upsilon's triple node {(2, 3), (-3, -1), (-1, 2)} at positions 2, 3, 3
    UPSILON_AT = {1: 2, 2: 3, 3: 3}

    def build(self, node):
        """sigma1 of the pass at ``node`` placed as Upsilon's triple
        node."""
        start = catalog.arrangement("Upsilon").complex.start
        s1 = [None] * 48
        flags.multiple_sigma1({node: self.UPSILON_AT}, start, s1)
        return start, s1

    def test_not_total_raises(self):
        with pytest.raises(BrokenInvariant,
                           match="dominance relation is not total"):
            self.build(frozenset({(2, 3), (-1, 3), (-1, 2)}))

    def test_sign_corruptions(self):
        """Every sign choice of the node's three pairs: the pass raises
        exactly when some flag has no least candidate under the per-flag
        rule, and otherwise writes the rule's first least candidate."""
        raised = 0
        for signs in product((1, -1), repeat=6):
            node = frozenset((s * a, t * b) for (a, b), s, t in zip(
                ((2, 3), (1, 3), (1, 2)), signs[::2], signs[1::2]))
            mins = {(i, eps, side): reference_dominance_min(node, i, eps,
                                                            side)
                    for i in self.UPSILON_AT for eps in (1, -1)
                    for side in (1, -1)}
            try:
                start, s1 = self.build(node)
            except BrokenInvariant as exc:
                assert "dominance relation is not total" in str(exc)
                assert not all(mins.values())
                raised += 1
                continue
            for (i, eps, side), least in mins.items():
                j, e, s = least[0]
                f = flags.flag_id(start, i, self.UPSILON_AT[i], eps, side)
                assert s1[f] == flags.flag_id(start, j, self.UPSILON_AT[j],
                                              e, s)
        assert raised == 32


class TestBuildCost:
    def test_moves_leave_the_flag_table_unmade(self):
        """triangles, a merge, the split back and a flip make no flag
        tuples and no sorted nodes, and a merge labels no face sides."""
        arr = cyclic_thin(4)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes if len(nd) > 1)
        released = [apply_move(merged, MutationMove("split", node, m, side))
                    for side in "ab"]
        assert arr.key() in {out.key() for out in released}
        flipped = apply_move(arr, MutationMove("flip", t, m))
        for out in [arr, merged, flipped] + released:
            assert not {"flags", "fid", "node_list", "node_id"} \
                & vars(out.complex).keys()
        assert arr.complex._face_sides is None


class TestSigmaOneRule:
    """sigma1 at a simple vertex is one bit rule; it must agree with the
    sixteen-row table read through the slot table."""

    def test_rule_matches_slot_table(self):
        for n in range(2, 6):
            for i, j in combinations(range(1, n + 1), 2):
                for slot, (cs, os_) in SLOT_SIGNS.items():
                    pair = pair_of(i, j, slot)
                    for carrier in (i, j):
                        co = co_index(pair, carrier)
                        k = slot_of(pair, carrier)
                        assert SLOT_SIGNS[k] == (
                            (cs, os_) if carrier == i else (os_, cs))
                        for eps in (1, -1):
                            for side in (1, -1):
                                j2, eps2, side2 = two_curve_step(
                                    pair, carrier, eps, side)
                                assert j2 == abs(co)
                                assert (slot_of(pair, j2), eps2, side2) \
                                    == SIGMA1_TABLE[(k, eps, side)]

    def test_flag_sigmas_follow_the_rule(self):
        """Every simple-vertex entry of sigma1, on every fixture."""
        for fx in catalog.all():
            cx = fx.arrangement.complex
            for f, (nd, eps, i, side) in enumerate(cx.flags):
                node = cx.node_list[nd]
                if len(node) == 1:
                    j, eps2, side2 = two_curve_step(next(iter(node)), i,
                                                    eps, side)
                    assert cx.sigma1[f] == cx.fid[(nd, eps2, j, side2)]

    def test_rejects_a_foreign_carrier(self):
        with pytest.raises(DplError, match="does not involve carrier 3"):
            two_curve_step((1, 2), 3, 1, 1)


def reference_face_orbits(sigma0, sigma1):
    """The stack-based orbit search that the alternating walk replaced."""
    face_of = [-1] * len(sigma0)
    faces = []
    for f in range(len(sigma0)):
        if face_of[f] >= 0:
            continue
        t = len(faces)
        face_of[f] = t
        orbit = [f]
        stack = [f]
        while stack:
            g = stack.pop()
            for h in (sigma0[g], sigma1[g]):
                if face_of[h] < 0:
                    face_of[h] = t
                    orbit.append(h)
                    stack.append(h)
        faces.append(tuple(sorted(orbit)))
    return tuple(faces), face_of


class TestFaceOrbits:
    def check(self, sigma0, sigma1, faces, face_of):
        assert face_orbits(sigma0, sigma1) == (faces, face_of) \
            == reference_face_orbits(sigma0, sigma1)

    def test_catalog_and_all_c64(self):
        arrs = [fx.arrangement for fx in catalog.all()]
        assert any(not arr.is_simple() for arr in arrs)
        for arr in arrs + [all_c64(n) for n in range(4, 10)]:
            cx = arr.complex
            self.check(cx.sigma0, cx.sigma1, cx.faces, cx.face_of)

    def test_projective_census_states(self):
        cen = projective_census(3)
        assert len(cen["indexed_classes"]) == 216
        for words in cen["indexed_classes"].values():
            st = SimpleState(cen["indices"], words)
            self.check(st.s0, st.s1, st.faces, st.face_of)


class TestInvolutions:
    def test_structure(self):
        for name in ("C04", "C43", "M1", "Upsilon", "M1star"):
            cx = catalog.arrangement(name).complex
            n = len(cx.flags)
            assert n == 4 * cx.edge_count
            for f in range(n):
                assert cx.sigma0[cx.sigma0[f]] == f
                assert cx.sigma1[cx.sigma1[f]] == f
                assert cx.sigma2[cx.sigma2[f]] == f
                assert cx.sigma0[cx.sigma2[f]] == cx.sigma2[cx.sigma0[f]]
            assert sum(len(face) for face in cx.faces) == n

    def test_faces_have_even_orbits(self):
        cx = catalog.arrangement("C25_1").complex
        assert all(len(face) % 2 == 0 for face in cx.faces)


class TestFaceVectors:
    def test_catalog_face_vectors(self):
        for fx in catalog.all():
            got = {str(k): v for k, v in sorted(fx.arrangement.f_vector.items())}
            assert got == fx.expected["f_vector"], fx.name

    def test_m1star_m2star(self):
        m1s = catalog.arrangement("M1star")
        assert m1s.genus == 3
        assert m1s.f_vector == {2: 3, 4: 15, 5: 3, 6: 1, 9: 1}
        m2s = catalog.arrangement("M2star")
        assert m2s.genus == 3
        assert m2s.f_vector == {2: 4, 4: 14, 5: 3, 8: 1, 9: 1}


class TestCanonicalKeys:
    def test_thirteen_distinct(self):
        keys = {name: catalog.arrangement(name).complex.canonical_key()
                for name in catalog.THIRTEEN}
        assert len(set(keys.values())) == 13

    def test_same_digon_triangle_counts_but_distinct(self):
        a = catalog.arrangement("C25_1")
        b = catalog.arrangement("C25_2")
        assert a.f_vector == b.f_vector
        assert (a.complex.canonical_key()
                != b.complex.canonical_key())

    def test_relabeling_invariance(self):
        random.seed(7)
        for name in ("C07", "C33"):
            arr = catalog.arrangement(name)
            key = arr.complex.canonical_key()
            for _ in range(5):
                sigma = random.choice(SignedPermutation.all(arr.indices))
                assert arr.act(sigma).complex.canonical_key() == key

    def test_indexed_oriented_key_is_cycle_equality(self):
        a = catalog.arrangement("C04")
        b = cyclic_thin(3)
        assert a.key() == b.key()


class TestAutomorphisms:
    def test_two_curve_dihedral(self):
        arr = catalog.arrangement("TwoCurve")
        assert automorphism_order(arr) == 8
        assert orbit_count(arr) == 1

    def test_catalog_aut_orders(self):
        for fx in catalog.all():
            assert automorphism_order(fx.arrangement) == fx.expected["aut_order"], fx.name
            assert orbit_count(fx.arrangement) == fx.expected["orbit_count"], fx.name

    def test_flag_graph_automorphisms_agree(self):
        # poset automorphisms = stabilizer in the signed group; the
        # stabilizer is read off the flag graph, so both are compared with
        # the brute force over the whole signed group
        cases = [fx.arrangement for fx in catalog.all()]
        cases += [cyclic_thin(n) for n in range(2, 7)]
        cases += [all_c64(n) for n in range(3, 7)]
        assert len(cases) == 31
        for arr in cases:
            stab = reference_stabilizer(arr)
            assert stabilizer(arr) == stab, arr
            assert arr.complex.flag_graph_automorphism_order() == len(stab), arr

    def test_relabeled_flip_walk_states_match_reference(self):
        orders = set()
        for acted in relabeled_flip_walk_states():
            stab = stabilizer(acted)
            assert stab == reference_stabilizer(acted), acted
            orders.add(len(stab))
        assert orders == {1, 2, 4, 6}

    def test_merged_arrangements_match_reference(self):
        """Every merge of a catalog fixture, under a seeded relabeling."""
        cases = relabeled_merged_arrangements()
        assert len(cases) == 62
        orders = set()
        for acted in cases:
            assert not acted.is_simple()
            stab = stabilizer(acted)
            assert stab == reference_stabilizer(acted), acted
            orders.add(len(stab))
        assert orders == {1, 2, 6, 24}

    def test_plain_key_matches_full_scan(self):
        """The plain key and its start flags, with one start encoded per
        automorphism orbit, equal those of encoding every start."""
        cases = [fx.arrangement for fx in catalog.all()]
        cases += [cyclic_thin(n) for n in range(2, 7)]
        cases += [all_c64(n) for n in range(3, 10)]
        cases += relabeled_merged_arrangements()
        cases += relabeled_flip_walk_states()
        assert len(cases) == 22 + 5 + 7 + 62 + 13
        for arr in cases:
            cx = arr.complex
            key, starts = reference_plain(cx)
            assert cx.canonical_key() == key, arr
            assert cx._aut_starts == starts, arr

    def test_all_c64_beyond_the_reference(self):
        # order 2n from n = 5 on; the identity is in it and it is closed
        # under composition
        for n in (7, 8, 9):
            stab = stabilizer(all_c64(n))
            assert len(stab) == 2 * n
            assert stab[0] == SignedPermutation.identity(range(1, n + 1))
            group = set(stab)
            assert all(s * t in group for s in stab for t in stab)

    def test_curve_map(self):
        cx = all_c64(4).complex
        assert cx.curve_map(range(len(cx.flags))) == SignedPermutation.identity(
            cx.indices)
        # sigma0 keeps the curve and the side and reverses the orientation
        assert cx.curve_map(cx.sigma0).one_line() == (-1, -2, -3, -4)
        # sigma2 moves every flag to the other side
        assert cx.curve_map(cx.sigma2) is None

    def test_martagon_stabilizers_contain_published_generators(self):
        M1 = catalog.arrangement("M1")
        stab = {s.one_line() for s in stabilizer(M1)}
        assert (-1, -3, -2, -4) in stab
        assert (-1, -2, -4, -3) in stab
        assert automorphism_order(M1) == 6
        M2 = catalog.arrangement("M2")
        stab2 = {s.one_line() for s in stabilizer(M2)}
        # order two, generated by a signed version of the pattern 1324
        assert automorphism_order(M2) == 2
        nontrivial = next(s for s in stab2 if s != (1, 2, 3, 4))
        assert tuple(abs(x) for x in nontrivial) == (1, 3, 2, 4)


class TestSidesAndAdmissibleCells:
    def test_c64_has_no_admissible_cell(self):
        cx = catalog.arrangement("C64").complex
        assert cx.admissible_cells() == ()

    def test_twelve_of_thirteen_admissible(self):
        bad = [n for n in catalog.THIRTEEN
               if not catalog.arrangement(n).complex.admissible_cells()]
        assert bad == ["C64"]

    def test_cyclic_thin_has_central_cell(self):
        for n in (2, 3, 4):
            assert cyclic_thin(n).complex.admissible_cells()

    def test_genus_gate(self):
        with pytest.raises(GenusNotOne):
            catalog.arrangement("M1star").complex.admissible_cells()

    def test_admissible_cell_orbit_total(self):
        # sum over the thirteen classes of stabilizer orbits of admissible
        # cells equals the count of marked isomorphism classes
        from dpl.mutation import SimpleState, act_words, transport_descriptor
        total = 0
        for name in catalog.THIRTEEN:
            arr = catalog.arrangement(name)
            idx = arr.indices
            words = tuple(arr.disk[i] for i in idx)
            st = SimpleState(idx, words)
            cells = [t for t, sides in enumerate(st.face_sides())
                     if all(v < 0 for v in sides.values())]
            tags = {t: st.face_descriptors(t) for t in cells}
            # orbit count via canonical marked keys under the stabilizer
            canon = set()
            from dpl.words import min_rotation
            for t in cells:
                best = None
                for sigma in stabilizer(arr):
                    wk = tuple(min_rotation(w) for w in act_words(sigma, idx, words))
                    tk = min(transport_descriptor(sigma.inverse(), d)
                             for d in tags[t])
                    cand = (wk, tk)
                    if best is None or cand < best:
                        best = cand
                canon.add(best)
            total += len(canon)
        assert total == 16

    def test_vertex_sides_thin(self):
        arr = cyclic_thin(4)
        for node, sides in arr.complex.vertex_sides.items():
            assert all(v < 0 for v in sides.values())


class TestMergeSides:
    """A merge reads its face's side of each support curve off the face's
    own flags; the labels of the whole complex are the reference."""

    def test_own_sides_match_face_sides(self):
        crosscap_side = 0
        for arr in [fx.arrangement for fx in catalog.all()] + merged_fixtures():
            cx = arr.complex
            for t, face in enumerate(cx.faces):
                sides = mutation._own_sides(cx, t)
                assert sides == {i: cx.face_sides[t][i] for i in sides}
                tri = flags.triangle(face, cx.indices, cx.start, cx.pairs)
                if tri is not None:
                    assert sides.keys() == {i for i, _ in tri[0]}
                    crosscap_side += any(v > 0 for v in sides.values())
        assert crosscap_side > 0

    def test_merge_matches_face_sides_swap(self):
        merges = crosscap_side = 0
        for arr in [fx.arrangement for fx in catalog.all()] + merged_fixtures():
            cx = arr.complex
            idx = arr.indices
            family = (tuple(arr.disk[i] for i in idx)
                      + tuple(arr.crosscap[i] for i in idx))
            for t, positions, _ in mutation._triangles(arr):
                swaps = [(i, arr.spans[i][a][0]) for i, a in positions]
                new = mutation._swapped(idx, family, swaps, cx.face_sides[t])
                want = validate(dict(zip(idx, new)),
                                dict(zip(idx, new[len(idx):])))
                got = apply_move(arr, MutationMove("merge", t, positions[0][0]))
                assert got.key() == want.key()
                merges += 1
                crosscap_side += any(cx.face_sides[t][i] > 0
                                     for i, _ in positions)
        assert merges > crosscap_side > 0


class TestDotExports:
    def test_flag_graph(self):
        out = catalog.arrangement("TwoCurve").complex.to_dot("flag")
        assert out.startswith("graph flags {") and out.rstrip().endswith("}")
        assert '[label="0"]' in out and '[label="2"]' in out

    def test_dual_graph(self):
        out = catalog.arrangement("C04").complex.to_dot("dual")
        assert "3-gon" in out and "4-gon" in out


class TestLifetime:
    def test_arrangement_with_complex_freed_by_refcount(self):
        """The complex holds no reference back to its arrangement."""
        arr = all_c64(4)
        assert arr.complex.canonical_key()
        ref = weakref.ref(arr)
        gc.disable()
        try:
            del arr
            assert ref() is None
        finally:
            gc.enable()


def test_doctests():
    result = doctest.testmod(flags)
    assert result.attempted > 0 and result.failed == 0


def test_two_curve_step_doctest():
    runner = doctest.DocTestRunner()
    for test in doctest.DocTestFinder().find(
            two_curve_step, globs={"two_curve_step": two_curve_step}):
        runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.attempted > 0 and result.failed == 0
