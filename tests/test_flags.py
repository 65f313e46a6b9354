import gc
import random
import weakref

import pytest

from dpl import all_c64, catalog, cyclic_thin
from dpl.errors import GenusNotOne
from dpl.flags import automorphism_order, orbit_count, stabilizer
from dpl.words import SignedPermutation, pair_of

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
        keys = {name: catalog.arrangement(name).complex.canonical_key("plain")
                for name in catalog.THIRTEEN}
        assert len(set(keys.values())) == 13

    def test_same_digon_triangle_counts_but_distinct(self):
        a = catalog.arrangement("C25_1")
        b = catalog.arrangement("C25_2")
        assert a.f_vector == b.f_vector
        assert (a.complex.canonical_key("plain")
                != b.complex.canonical_key("plain"))

    def test_relabeling_invariance(self):
        random.seed(7)
        for name in ("C07", "C33"):
            arr = catalog.arrangement(name)
            key = arr.complex.canonical_key("plain")
            for _ in range(5):
                sigma = random.choice(SignedPermutation.all(arr.indices))
                assert arr.act(sigma).complex.canonical_key("plain") == key

    def test_indexed_oriented_key_is_cycle_equality(self):
        a = catalog.arrangement("C04")
        b = cyclic_thin(3)
        assert (a.complex.canonical_key("indexed_oriented")
                == b.complex.canonical_key("indexed_oriented"))


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
        # poset automorphisms = stabilizer in the signed group
        for name in ("TwoCurve", "C04", "C22", "C15"):
            arr = catalog.arrangement(name)
            assert (arr.complex.flag_graph_automorphism_order()
                    == automorphism_order(arr)), name

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
                    tk = min(transport_descriptor(sigma, d) for d in tags[t])
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
        key = arr.complex.canonical_key("indexed_oriented")
        assert key == repr(arr.key()).encode()
        ref = weakref.ref(arr)
        gc.disable()
        try:
            del arr
            assert ref() is None
        finally:
            gc.enable()
