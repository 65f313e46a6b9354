import random
from itertools import product

import pytest

from dpl import all_c64, catalog, cyclic_thin, from_disk_only, validate
from dpl.errors import DplError, IllegalLocus, ResourceLimit
from dpl.flags import FlagComplex
from dpl.mutation import (
    MutationMove,
    SimpleState,
    _census_groups,
    _class_key,
    _disk_pairs,
    _heavy_marked,
    _marked_face,
    _marked_flips,
    _phase_keys,
    _split_candidates,
    _swapped,
    _triangles,
    _words_key,
    act_words,
    apply_move,
    connectivity_check,
    inverse_split,
    moebius_census,
    moebius_census_rows,
    moebius_full_census,
    moebius_simple_census,
    moebius_states,
    projective_census,
    pumping_check,
    transport_descriptor,
    triangles,
)

LEFT = dict(
    disk={1: (3, 2, -2, 3, -3, -2, 2, -3),
          2: (-3, 1, -1, -3, 3, -1, 1, 3),
          3: (-2, -1, 1, -2, 2, 1, -1, 2)},
    crosscap={1: (-2, -3, -3, 2, 2, 3, 3, -2),
              2: (-1, 3, 3, 1, 1, -3, -3, -1),
              3: (1, 2, 2, -1, -1, -2, -2, 1)})
RIGHT = dict(
    disk=LEFT["disk"],
    crosscap={1: (-3, -2, -3, 2, 2, 3, 3, -2),
              2: (3, -1, 3, 1, 1, -3, -3, -1),
              3: (2, 1, 2, -1, -1, -2, -2, 1)})


class TestMoves:
    def test_published_split(self):
        """Splitting one triple point of the non-simple arrangement
        reproduces the published cycles of its split companion."""
        left = validate(**LEFT)
        right = validate(**RIGHT)
        hits = []
        for node in left.nodes:
            if len({abs(x) for p in node for x in p}) < 3:
                continue
            for m in (1, 2, 3):
                for side in ("a", "b"):
                    out = apply_move(left, MutationMove("split", node, m, side))
                    if out.key() == right.key():
                        hits.append((node, m, side))
        # one vertex resolves to the published cycles, whichever of its
        # three curves is taken as the moving one
        assert len(hits) == 3
        assert len({node for node, m, side in hits}) == 1

    def test_published_merge(self):
        left = validate(**LEFT)
        right = validate(**RIGHT)
        t, m = triangles(right)[0]
        assert apply_move(right, MutationMove("merge", t, m)).key() == left.key()

    def test_merge_then_inverse_split(self):
        random.seed(11)
        arr = cyclic_thin(3)
        for _ in range(60):
            tris = triangles(arr)
            t, m = random.choice(tris)
            merged = apply_move(arr, MutationMove("merge", t, m))
            assert merged.genus == arr.genus
            node = next(nd for nd in merged.nodes
                        if len({abs(x) for p in nd for x in p}) >= 3)
            move = inverse_split(arr, merged, node, m)
            assert apply_move(merged, move).key() == arr.key()
            arr = apply_move(arr, MutationMove("flip", *random.choice(tris)))

    def test_flip_changes_class(self):
        arr = cyclic_thin(3)
        t, m = triangles(arr)[0]
        out = apply_move(arr, MutationMove("flip", t, m))
        assert out.genus == 1
        assert (out.complex.canonical_key("plain")
                != arr.complex.canonical_key("plain"))

    def test_flip_is_merge_then_other_split(self):
        """On every (triangle, support curve) of the thirteen classes,
        which give the 216 indexed states of ``projective_census(3)`` up
        to relabeling, the merged vertex releases to exactly the original
        and the flip, and the two differ."""
        cases = 0
        for name in catalog.THIRTEEN:
            arr = catalog.arrangement(name)
            for t, m in triangles(arr):
                merged = apply_move(arr, MutationMove("merge", t, m))
                node = next(nd for nd in merged.nodes
                            if len({abs(x) for p in nd for x in p}) >= 3)
                flipped = apply_move(arr, MutationMove("flip", t, m))
                assert arr.key() != flipped.key()
                assert ({out.key() for out in _split_candidates(merged, node, m)}
                        == {arr.key(), flipped.key()})
                cases += 1
        assert cases == 183

    def test_illegal_loci(self):
        arr = cyclic_thin(3)
        cx = arr.complex
        quad = next(t for t, f in enumerate(cx.faces) if len(f) == 8)
        with pytest.raises(IllegalLocus):
            apply_move(arr, MutationMove("merge", quad, 1))
        with pytest.raises(IllegalLocus):
            apply_move(arr, MutationMove("split", next(iter(arr.nodes)), 1))

    @pytest.mark.parametrize("kind", ["merge", "flip"])
    @pytest.mark.parametrize("locus", [999, -1, "x"])
    def test_face_locus_out_of_range(self, kind, locus):
        with pytest.raises(IllegalLocus, match="unknown face"):
            apply_move(cyclic_thin(3), MutationMove(kind, locus))

    def test_split_side(self):
        arr = cyclic_thin(3)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes
                    if len({abs(x) for p in nd for x in p}) >= 3)
        first, second = _split_candidates(merged, node, m)
        for side, want in (("a", first), ("b", second)):
            out = apply_move(merged, MutationMove("split", node, m, side))
            assert out.key() == want.key()
        for side in ("zz", None, "A"):
            with pytest.raises(IllegalLocus, match="split side"):
                apply_move(merged, MutationMove("split", node, m, side))


class TestProjectiveCensus:
    def test_thirteen_classes(self):
        cen = projective_census(3)
        assert len(cen["plain_classes"]) == 13
        assert connectivity_check(cen)

    def test_indexed_class_count(self):
        # 216 = sum of the reindexed/reoriented version counts
        cen = projective_census(3)
        assert len(cen["indexed_classes"]) == 216

    def test_census_classes_match_catalog(self):
        cen = projective_census(3)
        got = set(cen["plain_classes"])
        want = {catalog.arrangement(n).complex.canonical_key("plain")
                for n in catalog.THIRTEEN}
        assert got == want

    def test_two_curves(self):
        cen = projective_census(2)
        assert len(cen["plain_classes"]) == 1
        assert len(cen["indexed_classes"]) == 1

    def test_state_cap(self):
        with pytest.raises(ResourceLimit):
            projective_census(3, limit=5)

    @pytest.mark.parametrize("n, seed_all", [(2, False), (3, False),
                                             (3, True)])
    def test_plain_classes_match_reference(self, n, seed_all):
        cen = projective_census(n, seed_all_versions=seed_all)
        want = reference_plain_classes(cen["indices"], cen["indexed_classes"])
        assert list(cen["plain_classes"].items()) == list(want.items())

    def test_one_plain_key_per_orbit(self, monkeypatch):
        calls = []
        plain = FlagComplex.canonical_key

        def counted(self, *args, **kwargs):
            calls.append(args)
            return plain(self, *args, **kwargs)

        monkeypatch.setattr(FlagComplex, "canonical_key", counted)
        assert len(projective_census(3)["plain_classes"]) == 13
        assert calls == [("plain",)] * 13

    def test_flip_carries_crossing_pairs(self):
        """A flip swaps letters of different co-indices, so the swapped
        pair rows are the crossing pairs of the flipped words."""
        cen = projective_census(3)
        indices = cen["indices"]
        flips = 0
        for words in cen["indexed_classes"].values():
            st = SimpleState(indices, words)
            rows = tuple(st.pairs[i] for i in indices)
            for _, swaps, _ in st.triangles():
                nw = _swapped(indices, words, swaps)
                assert (dict(zip(indices, _swapped(indices, rows, swaps)))
                        == _disk_pairs(indices, nw)[0])
                flips += 1
        _, states = moebius_states(3)
        for words, desc in states.values():
            for nw, pairs, _ in _marked_flips(indices, words, desc):
                assert pairs == _disk_pairs(indices, nw)[0]
                flips += 1
        assert flips > len(cen["indexed_classes"]) + len(states)

    def test_order_independence(self):
        base = projective_census(3)
        shuffled = projective_census(3, seed_all_versions=True)
        assert set(base["plain_classes"]) == set(shuffled["plain_classes"])
        assert (set(base["indexed_classes"])
                == set(shuffled["indexed_classes"]))


def reference_plain_classes(indices, indexed_classes):
    """Plain key -> indexed keys, by validating every state and computing
    its plain key."""
    plain = {}
    for key, w in indexed_classes.items():
        arr = from_disk_only(dict(zip(indices, w)))
        plain.setdefault(arr.complex.canonical_key("plain"), []).append(key)
    return plain


class TestPumping:
    def test_exhaustive_three_curves(self):
        for name in catalog.THIRTEEN:
            arr = catalog.arrangement(name)
            for gamma in arr.indices:
                assert pumping_check(arr, gamma), (name, gamma)

    def test_thin_curve_vacuous(self):
        arr = cyclic_thin(4)
        for gamma in arr.indices:
            assert pumping_check(arr, gamma)


class _UnionFind:
    def __init__(self, keys):
        self.parent = {k: k for k in keys}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def count(self):
        return len({self.find(k) for k in self.parent})


def reference_marked_classes(indices, tagsets, group, odd_pure):
    """Classes of simple marked states (key -> (words, tags)): union-find
    over every member of ``group`` and every word-fixing member of
    ``odd_pure``, applied to every state."""
    uf = _UnionFind(tagsets)
    for key, (words, tags) in tagsets.items():
        wk = _words_key(words)
        for sigma in group:
            nw = act_words(sigma, indices, words)
            nk = (_words_key(nw), min(transport_descriptor(sigma.inverse(), d)
                                      for d in tags))
            if nk in tagsets:
                uf.union(key, nk)
        for sigma in odd_pure:
            if _words_key(act_words(sigma, indices, words)) != wk:
                continue
            nk = (wk, min(transport_descriptor(sigma.inverse(), d)
                          for d in tags))
            if nk in tagsets:
                uf.union(key, nk)
    return uf.count()


def reference_heavy_classes(heavy, group, odd_pure):
    """:func:`reference_marked_classes` for heavy states
    (key -> (arrangement, tags))."""
    uf = _UnionFind(heavy)
    for key, (arr, tags) in heavy.items():
        wk = arr.key()
        for sigma in group + odd_pure:
            ak = arr.acted_key(sigma)
            if sigma in odd_pure and ak != wk:
                continue
            nk = (ak, min(transport_descriptor(sigma.inverse(), d)
                          for d in tags))
            if nk in heavy:
                uf.union(key, nk)
    return uf.count()


@pytest.fixture(scope="module")
def lifted():
    """The marked simple states of ``moebius_states(3)`` as heavy states:
    validated arrangements with the descriptors of the marked cell."""
    indices, states = moebius_states(3)
    heavy = {}
    for words, desc in states.values():
        arr = from_disk_only(dict(zip(indices, words)))
        cx = arr.complex
        tags = cx.face_descriptors(cx.face_of[cx.flag_from_descriptor(desc)])
        heavy[(arr.key(), min(tags))] = (arr, tags)
    return indices, states, heavy


def phase_counts(indices, states, marked):
    a, b, c = _phase_keys(indices, states, marked)
    return (len(set(a.values())), len(set(b.values())),
            len(set(c.values())), len({ck[0] for ck in c.values()}))


class TestMoebiusCensus:
    def test_row_two(self):
        row = moebius_census(2)
        assert (row["a"], row["b"], row["c"], row["d"]) == (1, 1, 1, 1)

    def test_row_three(self):
        row = moebius_census(3)
        assert (row["a"], row["b"], row["c"], row["d"]) == (118, 22, 16, 12)

    def test_fast_path_matches_reference_engine(self):
        """The face-walk census against the reference walk, which rebuilds
        every neighbor's flag structures, and the whole-group union-find."""
        indices, slow = moebius_simple_census(3)
        _, fast = moebius_states(3)
        assert len(slow) == 472 and set(slow) == set(fast)

        def marked_descriptors(words, desc):
            st = SimpleState(indices, words)
            return st.face_descriptors(st.face_of[st.flag_from_descriptor(desc)])

        for words, desc in fast.values():
            assert (_marked_face(indices, _disk_pairs(indices, words)[0],
                                 desc)
                    == marked_descriptors(words, desc))
        tagsets = {key: (words, marked_descriptors(words, desc))
                   for key, (words, desc) in slow.items()}
        g = _census_groups(indices)
        slow_row = (
            reference_marked_classes(indices, tagsets, g["evens"],
                                     g["odd_pure"]),
            reference_marked_classes(indices, tagsets, g["perm_evens"],
                                     g["odd_pure"]),
            reference_marked_classes(indices, tagsets, g["full"], []),
            len({min(_words_key(act_words(s, indices, words))
                     for s in g["full"]) for words, _ in tagsets.values()}))
        row = moebius_census_rows(3)
        assert slow_row == (row["a"], row["b"], row["c"], row["d"]) \
            == (118, 22, 16, 12)

    def test_heavy_quotient_matches_union_find(self, lifted):
        """The quotient on heavy states, lifted from the 472 simple ones,
        against the whole-group union-find on the same states."""
        indices, states, heavy = lifted
        assert len(heavy) == len(states) == 472
        g = _census_groups(indices)
        assert phase_counts(indices, heavy, _heavy_marked) \
            == (118, 22, 16, 12)
        assert (reference_heavy_classes(heavy, g["evens"], g["odd_pure"]),
                reference_heavy_classes(heavy, g["perm_evens"],
                                        g["odd_pure"]),
                reference_heavy_classes(heavy, g["full"], [])) \
            == (118, 22, 16)


def _odd_wordfixing(indices, cycles, odd_pure):
    """Odd pure sign changes that fix the family (disk words, then the
    crosscap words of a heavy state)."""
    n = len(indices)
    blocks = [cycles[b:b + n] for b in range(0, len(cycles), n)]
    return [tau for tau in odd_pure
            if all(_words_key(act_words(tau, indices, blk)) == _words_key(blk)
                   for blk in blocks)]


class TestClassKeyInvariance:
    """A state's class key is unchanged under its group and under the
    word-fixing odd sign changes, which is what lets one key replace the
    union-find."""

    GROUPS = ("evens", "perm_evens", "full")

    def check(self, indices, states, act):
        g = _census_groups(indices)
        rng = random.Random(8)
        images = 0
        for cycles, tags in states:
            taus = _odd_wordfixing(indices, cycles, g["odd_pure"])
            for phase in self.GROUPS:
                key = _class_key(indices, cycles, tags, g[phase],
                                 g["odd_pure"])
                for sigma in [rng.choice(g[phase])] + taus:
                    acted = act(sigma, cycles, tags)
                    assert _class_key(indices, *acted, g[phase],
                                      g["odd_pure"]) == key
                    images += 1
        # at least one state has a word-fixing odd sign change
        assert images > len(self.GROUPS) * len(states)

    def test_simple_states(self):
        indices, states = moebius_states(3)
        rng = random.Random(5)
        sample = rng.sample(sorted(states), 60)

        def act(sigma, words, tags):
            nw = act_words(sigma, indices, words)
            inv = sigma.inverse()
            ntags = frozenset(transport_descriptor(inv, d) for d in tags)
            assert _marked_face(indices, _disk_pairs(indices, nw)[0],
                                min(ntags)) == ntags
            return nw, ntags

        picked = [(words, _marked_face(
                      indices, _disk_pairs(indices, words)[0], desc))
                  for words, desc in (states[k] for k in sample)]
        self.check(indices, picked, act)

    def test_heavy_states(self, lifted):
        """Lifted states, and non-simple ones: every admissible cell of
        every merge of a flip-walk state."""
        indices, _, heavy = lifted
        rng = random.Random(6)
        arrs = [heavy[k][0] for k in rng.sample(sorted(heavy), 8)]
        picked = [_heavy_marked(heavy[k]) for k in rng.sample(sorted(heavy), 30)]
        for arr in arrs:
            t, m = rng.choice(triangles(arr))
            merged = apply_move(arr, MutationMove("merge", t, m))
            assert not merged.is_simple()
            cx = merged.complex
            picked += [_heavy_marked((merged, cx.face_descriptors(c)))
                       for c in cx.admissible_cells()]
        assert len(picked) > 40

        def act(sigma, cycles, tags):
            n = len(indices)
            arr = validate(dict(zip(indices, cycles[:n])),
                           dict(zip(indices, cycles[n:]))).act(sigma)
            inv = sigma.inverse()
            ntags = frozenset(transport_descriptor(inv, d) for d in tags)
            cx = arr.complex
            f = cx.flag_from_descriptor(min(ntags))
            assert cx.face_descriptors(cx.face_of[f]) == ntags
            return _heavy_marked((arr, ntags))

        self.check(indices, picked, act)


class TestWalk:
    @pytest.mark.parametrize("walk, n", [
        (projective_census, 3), (moebius_simple_census, 4),
        (moebius_states, 5), (moebius_full_census, 4)])
    def test_state_cap_counts_the_seeds(self, walk, n):
        """A walk stops when it stores one state past the cap, seeds
        included."""
        with pytest.raises(ResourceLimit) as exc:
            walk(n, limit=10)
        assert exc.value.details["partial"] == 11

    def test_state_cap_boundary(self):
        """A walk raises exactly when it finds more than ``limit`` states."""
        assert len(moebius_states(3, limit=472)[1]) == 472
        with pytest.raises(ResourceLimit) as exc:
            moebius_states(3, limit=471)
        assert exc.value.details["partial"] == 472

    def test_progress_goes_to_stderr(self, capsys):
        moebius_census_rows(3, progress=100)
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert sum(line.startswith("expanded ") for line in lines) >= 4
        assert sum(line.startswith("phase ") for line in lines) == 3


class TestFlipBookkeeping:
    def test_flip_preserves_counts_and_keeps_a_triangle(self):
        random.seed(2)
        arr = cyclic_thin(3)
        for _ in range(40):
            t, m = random.choice(triangles(arr))
            V, E, g = arr.vertex_count, arr.edge_count, arr.genus
            out = apply_move(arr, MutationMove("flip", t, m))
            assert (out.vertex_count, out.edge_count, out.genus) == (V, E, g)
            assert sum(s * c for s, c in out.f_vector.items()) == 2 * E
            assert out.f_vector.get(3, 0) >= 1
            arr = out


class TestOneFlagStructure:
    def test_simple_state_matches_flag_complex(self):
        """The census engine's flag arrays and flag descriptors are the
        validated complex's."""
        cen = projective_census(3)
        arrs = [from_disk_only(dict(zip(cen["indices"], w)))
                for w in cen["indexed_classes"].values()]
        arrs += [fx.arrangement for fx in catalog.all()
                 if fx.arrangement.is_simple()]
        arrs += [cyclic_thin(n) for n in range(2, 6)]
        arrs += [all_c64(n) for n in range(3, 7)]
        assert len(arrs) > 216 + 13
        triangle_count = 0
        for arr in arrs:
            cx = arr.complex
            st = SimpleState(arr.indices,
                             tuple(arr.disk[i] for i in arr.indices))
            assert (st.s0, st.s1, st.s2) == (cx.sigma0, cx.sigma1, cx.sigma2)
            assert st.faces == cx.faces and st.face_of == cx.face_of
            assert st.face_sides() == list(cx.face_sides)
            for t in range(len(cx.faces)):
                assert st.face_descriptors(t) == cx.face_descriptors(t)
            for f in range(len(cx.flags)):
                assert st.flag_from_descriptor(st.descriptor(f)) == f
                assert cx.flag_from_descriptor(cx.descriptor(f)) == f
            # both engines name the same triangles, swap positions and
            # corner nodes, and the corners are the nodes of the face
            tris = st.triangles()
            assert tris == list(_triangles(arr))
            assert triangles(arr) == [(t, i) for t, positions, _ in tris
                                      for i, _ in positions]
            for t, _, corners in tris:
                assert corners == {d[1] for d in cx.face_descriptors(t)}
            triangle_count += len(tris)
        assert triangle_count > len(arrs)

    def test_flag_complex_descriptors_round_trip(self):
        """At multiple vertices too: the catalog includes non-simple
        arrangements."""
        arrs = [fx.arrangement for fx in catalog.all()]
        assert not all(arr.is_simple() for arr in arrs)
        for arr in arrs:
            cx = arr.complex
            for f in range(len(cx.flags)):
                assert cx.flag_from_descriptor(cx.descriptor(f)) == f
            for t, face in enumerate(cx.faces):
                assert {cx.flag_from_descriptor(d)
                        for d in cx.face_descriptors(t)} == set(face)


def reference_releases(arr, node, m):
    """Keys of the releases of ``m`` off ``node`` by generate-and-test:
    every head/tail placement of the released crossings on every carrier,
    kept when it validates, splits the vertex and keeps the genus."""
    bases = sorted({abs(x) for pair in node for x in pair})
    carriers = [c for c in bases if c != m] + [m]
    keys = set()
    for choice in product((True, False), repeat=len(carriers)):
        disk, cross = dict(arr.disk), dict(arr.crosscap)
        for c, head in zip(carriers, choice):
            span = arr.spans[c][arr.nodes[node][c]]
            dspan = [arr.disk[c][p] for p in span]
            if c == m:
                nd = dspan if head else dspan[::-1]
                nm = [-x for x in nd]
            else:
                k = next(t for t, x in enumerate(dspan) if abs(x) == m)
                residual = dspan[:k] + dspan[k + 1:]
                rev = [-x for x in residual[::-1]]
                nd = [dspan[k]] + residual if head else residual + [dspan[k]]
                nm = [-dspan[k]] + rev if head else rev + [-dspan[k]]
            dw, mw = list(disk[c]), list(cross[c])
            for p, x, y in zip(span, nd, nm):
                dw[p], mw[p] = x, y
            disk[c], cross[c] = tuple(dw), tuple(mw)
        try:
            out = validate(disk, cross)
        except DplError:
            continue
        if node not in out.nodes and out.genus == arr.genus:
            keys.add(out.key())
    return sorted(keys)


class TestSplitReleases:
    def test_two_releases_match_generate_and_test(self):
        """On the catalog and every merge of it (genus 1, 3 and 7)."""
        arrs = []
        for fx in catalog.all():
            arrs.append(fx.arrangement)
            arrs += [apply_move(fx.arrangement, MutationMove("merge", t, m))
                     for t, m in triangles(fx.arrangement)]
        assert {arr.genus for arr in arrs} == {1, 3, 7}
        cases = 0
        for arr in arrs:
            for node in arr.nodes:
                bases = sorted({abs(x) for pair in node for x in pair})
                if len(bases) < 3:
                    continue
                for m in bases:
                    got = [out.key() for out in _split_candidates(arr, node, m)]
                    assert got == reference_releases(arr, node, m)
                    cases += 1
        assert cases == 678
