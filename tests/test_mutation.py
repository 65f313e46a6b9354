import gc
import random
from itertools import permutations, product

import pytest

from dpl import all_c64, catalog, cyclic_thin, from_disk_only, validate
from dpl import mutation
from dpl.errors import DplError, IllegalLocus, MarkedCellLost, ResourceLimit
from dpl.flags import FlagComplex
from dpl.mutation import (
    _VALIDATED,
    MutationMove,
    SimpleState,
    _canonical_marked,
    _even_cosets,
    _group_actions,
    _heavy_marked,
    _heavy_steps,
    _marked_face,
    _marked_flips,
    _marked_seeds,
    _odd_fixer,
    _packed,
    _pair_rows,
    _phase_keys,
    _split_candidates,
    _survivor,
    _walk,
    _swapped,
    _thin_words,
    _triangles,
    _validated,
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
from dpl.words import SignedPermutation, signed_permutations, unpack

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


def releases(arr, node, m):
    """Both releases of ``m`` off ``node``, sides "a" and "b"."""
    return [apply_move(arr, MutationMove("split", node, m, side))
            for side in "ab"]


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
        assert out.complex.canonical_key() != arr.complex.canonical_key()

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
                assert ({out.key() for out in releases(merged, node, m)}
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
            assert out.key() == want[0]
        for side in ("zz", None, "A"):
            with pytest.raises(IllegalLocus, match="split side"):
                apply_move(merged, MutationMove("split", node, m, side))

    @pytest.mark.parametrize("locus", [[1, 2], [1], {(1, 2)}, None])
    def test_unknown_split_locus(self, locus):
        arr = cyclic_thin(3)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        with pytest.raises(IllegalLocus, match="unknown node"):
            apply_move(merged, MutationMove("split", locus, m, "a"))
        with pytest.raises(IllegalLocus, match="unknown node"):
            inverse_split(arr, merged, locus, m)


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
        want = {catalog.arrangement(n).complex.canonical_key()
                for n in catalog.THIRTEEN}
        assert got == want

    def test_two_curves(self):
        cen = projective_census(2)
        assert len(cen["plain_classes"]) == 1
        assert len(cen["indexed_classes"]) == 1

    def test_state_cap(self):
        with pytest.raises(ResourceLimit):
            projective_census(3, limit=5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_plain_classes_match_reference(self, n):
        cen = projective_census(n)
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
        assert calls == [()] * 13

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
                        == _pair_rows(indices, nw))
                flips += 1
        _, states = moebius_simple_census(3)
        for words, desc in states.values():
            for nw, pairs, _ in _marked_flips(indices, words, desc):
                assert pairs == _pair_rows(indices, nw)
                flips += 1
        assert flips > len(cen["indexed_classes"]) + len(states)

    def test_order_independence(self):
        """The 216 indexed keys are closed under the 48 signed
        relabelings, so a walk seeded from any version of the thin seed
        finds the same classes."""
        cen = projective_census(3)
        indices, classes = cen["indices"], cen["indexed_classes"]
        assert len(classes) == 216
        for words in classes.values():
            for sigma in signed_permutations(indices):
                assert _words_key(act_words(sigma, indices, words)) in classes


def reference_plain_classes(indices, indexed_classes):
    """Plain key -> indexed keys, by validating every state and computing
    its plain key."""
    plain = {}
    for key, w in indexed_classes.items():
        arr = from_disk_only(dict(zip(indices, w)))
        plain.setdefault(arr.complex.canonical_key(), []).append(key)
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
def lifted_all():
    """The marked simple states of ``moebius_simple_census(3)`` as heavy
    states: validated arrangements with the descriptors of the marked
    cell, all 472, each keyed by its arrangement key and least tag."""
    indices, states = moebius_simple_census(3)
    heavy = {}
    for words, desc in states.values():
        arr = from_disk_only(dict(zip(indices, words)))
        cx = arr.complex
        tags = cx.face_descriptors(cx.face_of[cx.flag_from_descriptor(desc)])
        heavy[(arr.key(), min(tags))] = (arr, tags)
    return indices, states, heavy


@pytest.fixture(scope="module")
def lifted(lifted_all):
    """The lifted states as the heavy walk keys them, which
    :func:`_phase_keys` needs: the first of each orbit of the even
    reorientations, under its least (acted cycles, transported tag) over
    them; 118 of the 472."""
    indices, states, every = lifted_all
    evens = _group_actions(indices, _even_cosets(indices)[0])
    heavy = {}
    for state in every.values():
        cycles, tags = _heavy_marked(state)
        heavy.setdefault(_canonical_marked(_packed(cycles), tags, evens),
                         state)
    return indices, states, heavy


def marked_descriptors(indices, words, desc):
    """Descriptors of a simple state's marked cell, from its full flag
    structures."""
    st = SimpleState(indices, words)
    return st.face_descriptors(st.face_of[st.flag_from_descriptor(desc)])


def census_groups(indices):
    """The census groups as member lists: the even reorientations (phase
    a), the reindexings times the evens (b), the whole signed group (c),
    and the odd pure sign changes that join a state's tags."""
    signs = list(product((1, -1), repeat=len(indices)))
    evens = [s for s in signs if s.count(-1) % 2 == 0]
    odds = [s for s in signs if s.count(-1) % 2 == 1]
    ident, perms = [tuple(indices)], list(permutations(indices))

    def grp(ps, sgs):
        return list(signed_permutations(indices, ps, sgs))

    return {
        "evens": grp(ident, evens),
        "perm_evens": grp(perms, evens),
        "full": grp(perms, signs),
        "odd_pure": grp(ident, odds),
    }


def phase_counts(indices, states, marked):
    a, b, c = _phase_keys(indices, states, marked)
    return (len(set(a.values())), len(set(b.values())),
            len(set(c.values())), len({ck[0] for ck in c.values()}))


def _class_key(cycles, tags, actions, odd_pure):
    """Key of a marked state's class, read off the state alone: its tags
    joined with their images under an odd pure sign change that fixes its
    family, if one does, keyed over ``actions``."""
    packed = _packed(cycles)
    tau = _odd_fixer(packed, odd_pure)
    if tau is not None:
        tags = tags | set(map(tau.transport, tags))
    return _canonical_marked(packed, tags, actions)


def reference_phase_keys(indices, states, marked):
    """The phase-by-phase quotient that the single pass replaced: phase a
    keys every state, b one state per a-class, c one per b-class, and
    each phase reads and keys its states anew."""
    g = {name: _group_actions(indices, group)
         for name, group in census_groups(indices).items()}
    keys = states
    phases = []
    for group in ("evens", "perm_evens", "full"):
        out = {}
        for key in keys:
            cycles, tags = marked(states[key])
            out[key] = _class_key(cycles, tags, g[group], g["odd_pure"])
        phases.append(out)
        reps = {}
        for key, ck in out.items():
            reps.setdefault(ck, key)
        keys = list(reps.values())
    return phases


def simple_marked(indices):
    """``marked`` of the simple census: the words and the descriptors of
    the marked cell, by the face walk."""
    def marked(state):
        words, desc = state
        return words, _marked_face(indices, _pair_rows(indices, words), desc)
    return marked


class TestSinglePassQuotient:
    """One pass keys each state once and gives the dicts of the phase by
    phase quotient: the same items in the same order."""

    def check(self, indices, states, marked):
        ref = [list(d.items()) for d in
               reference_phase_keys(indices, states, marked)]
        assert [list(d.items())
                for d in _phase_keys(indices, states, marked)] == ref
        return [len(d) for d in ref]

    def test_simple_states(self):
        sizes = []
        for n in (2, 3):
            indices, states = moebius_states(n)
            sizes.append(self.check(indices, states, simple_marked(indices)))
        assert sizes == [[2, 1, 1], [118, 118, 22]]

    def test_lifted_heavy_states(self, lifted, capsys):
        indices, _, heavy = lifted
        assert self.check(indices, heavy, _heavy_marked) == [118, 118, 22]
        capsys.readouterr()
        _phase_keys(indices, heavy, _heavy_marked, progress=1000)
        out, err = capsys.readouterr()
        assert out == "" and err.splitlines() == [
            "phase a over 118 states", "phase b over 118 states",
            "phase c over 22 states"]

    def test_each_state_read_once(self, lifted, monkeypatch):
        """Phase a reads and keys only the 12 of the 118 walk-keyed states
        whose family an odd pure sign change fixes, and reads the key of
        the others; the whole pass reads at most once each of those and
        the 13 other states that open one of the 16 orbits, and keys the
        opening states once more per coset of the evens after the first,
        11 at n=3."""
        indices, _, heavy = lifted
        reads = []

        def marked(state):
            reads.append(state)
            return _heavy_marked(state)

        keyed = []
        canonical = mutation._canonical_marked

        def counted(*args):
            keyed.append(args)
            return canonical(*args)

        odd_pure = _group_actions(indices, census_groups(indices)["odd_pure"])
        fixed = [id(state) for key, state in heavy.items()
                 if _odd_fixer(_packed(key[0]), odd_pure) is not None]
        assert len(fixed) == 12
        monkeypatch.setattr(mutation, "_canonical_marked", counted)
        _phase_keys(indices, heavy, marked)
        assert len(reads) == len({id(state) for state in reads}) == 12 + 13
        assert set(fixed) <= {id(state) for state in reads}
        assert len(keyed) == 12 + 176 == 12 + 16 * 11
        assert mutation.moebius_chirotope_counts(2) \
            == {"n": 2, "total": 1, "simple": 1}

    def test_orbits_key_each_coset_over_the_evens(self, lifted, monkeypatch):
        """Every keying runs over the 4 even reorientations: in phase a
        once for each of the 12 states with an odd fixer, and once per
        coset after the first for the state that opens each of the 16
        orbits.  The cosets after the first cover the 44 members of the
        signed group outside the evens, and the walk key or the phase-a
        keying of the opening state covers the evens."""
        indices, _, heavy = lifted
        keyed = []
        canonical = mutation._canonical_marked

        def spy(packed, tags, actions):
            keyed.append((packed, actions))
            return canonical(packed, tags, actions)

        monkeypatch.setattr(mutation, "_canonical_marked", spy)
        _phase_keys(indices, heavy, _heavy_marked)
        assert {len(actions) for _, actions in keyed} == {4}
        assert len(keyed) == 188
        # a state's keyings are consecutive and share its packed cycles
        runs = []
        for k, (packed, actions) in enumerate(keyed):
            if k and packed is keyed[k - 1][0]:
                runs[-1].append(actions)
            else:
                runs.append([actions])
        assert len(runs) == 25
        assert sorted({len(run) for run in runs}) == [1, 11, 12]
        orbits = [run[-11:] for run in runs if len(run) > 1]
        assert len(orbits) == 16
        # a member's translation table tells it apart
        assert all(len({act.table for actions in run for act in actions})
                   == 44 for run in orbits)
        assert sum(len(run) == 12 for run in runs) == 3

    def test_phase_a_reads_the_walk_key(self, lifted_all, lifted):
        """The full phase-a keying of a state, which joins its tags with
        their images under an odd fixer, is the a-key that the pass gives
        the state's orbit representative: on all 472 lifted states and on
        the 531 states of the heavy walk.  Without a fixer it is the walk
        key itself."""
        indices, _, every = lifted_all
        actions = {name: _group_actions(indices, group)
                   for name, group in census_groups(indices).items()}
        _, heavy = moebius_full_census(3)
        fixed = 0
        for states, reps in ((every, lifted[2]), (heavy, heavy)):
            a, _, _ = _phase_keys(indices, reps, _heavy_marked)
            for state in states.values():
                cycles, tags = _heavy_marked(state)
                packed = _packed(cycles)
                walk_key = _canonical_marked(packed, tags, actions["evens"])
                full = _class_key(cycles, tags, actions["evens"],
                                  actions["odd_pure"])
                assert full == a[walk_key]
                if _odd_fixer(packed, actions["odd_pure"]) is None:
                    assert full == walk_key
                else:
                    fixed += 1
        assert len(every) == 472 and len(heavy) == 531
        assert fixed > 0


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
        tagsets = {key: (words, marked_descriptors(indices, words, desc))
                   for key, (words, desc) in slow.items()}
        g = census_groups(indices)
        evens = _group_actions(indices, g["evens"])
        assert len(slow) == 472 and {
            _canonical_marked(_packed(words), tags, evens)
            for words, tags in tagsets.values()} == set(fast)

        for words, desc in list(slow.values()) + list(fast.values()):
            assert (_marked_face(indices, _pair_rows(indices, words), desc)
                    == marked_descriptors(indices, words, desc))
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

    def test_face_walk_matches_the_face_orbits(self):
        """The face walk, which reads each crossing's position off the
        pair rows, gives the descriptors of the face of every flag of
        the 118 states of the orbit walk."""
        indices, states = moebius_states(3)
        assert len(states) == 118
        for words, _ in states.values():
            st = SimpleState(indices, words)
            for f in range(len(st.s0)):
                assert (_marked_face(indices, st.pairs, st.descriptor(f))
                        == st.face_descriptors(st.face_of[f]))

    def test_census_work_counts(self, monkeypatch):
        """What one ``moebius_census(3)`` costs: keyings, face walks and
        crossing-position maps, which only the state builds make."""
        calls = dict.fromkeys(
            ("_canonical_marked", "_marked_face", "crossing_positions"), 0)

        def counted(name):
            plain = getattr(mutation, name)

            def call(*args):
                calls[name] += 1
                return plain(*args)
            return call

        for name in calls:
            monkeypatch.setattr(mutation, name, counted(name))
        row = moebius_census(3)
        assert (row["a"], row["b"], row["c"], row["d"]) == (118, 22, 16, 12)
        assert calls["_canonical_marked"] <= 384
        assert calls["_marked_face"] <= 505
        assert calls["crossing_positions"] <= 130

    def test_heavy_quotient_matches_union_find(self, lifted_all, lifted):
        """The quotient on heavy states, lifted from the 472 simple ones
        and keyed as the walk keys them, against the whole-group
        union-find on all 472."""
        indices, states, every = lifted_all
        heavy = lifted[2]
        assert len(every) == len(states) == 472 and len(heavy) == 118
        g = census_groups(indices)
        assert phase_counts(indices, heavy, _heavy_marked) \
            == (118, 22, 16, 12)
        assert (reference_heavy_classes(every, g["evens"], g["odd_pure"]),
                reference_heavy_classes(every, g["perm_evens"],
                                        g["odd_pure"]),
                reference_heavy_classes(every, g["full"], [])) \
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
        g = census_groups(indices)
        actions = {name: _group_actions(indices, group)
                   for name, group in g.items()}
        rng = random.Random(8)
        images = 0
        for cycles, tags in states:
            taus = _odd_wordfixing(indices, cycles, g["odd_pure"])
            for phase in self.GROUPS:
                key = _class_key(cycles, tags, actions[phase],
                                 actions["odd_pure"])
                for sigma in [rng.choice(g[phase])] + taus:
                    acted = act(sigma, cycles, tags)
                    assert _class_key(*acted, actions[phase],
                                      actions["odd_pure"]) == key
                    images += 1
        # at least one state has a word-fixing odd sign change
        assert images > len(self.GROUPS) * len(states)

    def test_simple_states(self):
        indices, states = moebius_simple_census(3)
        rng = random.Random(5)
        sample = rng.sample(sorted(states), 60)

        def act(sigma, words, tags):
            nw = act_words(sigma, indices, words)
            inv = sigma.inverse()
            ntags = frozenset(transport_descriptor(inv, d) for d in tags)
            assert _marked_face(indices, _pair_rows(indices, nw),
                                min(ntags)) == ntags
            return nw, ntags

        picked = [(words, _marked_face(indices, _pair_rows(indices, words),
                                       desc))
                  for words, desc in (states[k] for k in sample)]
        self.check(indices, picked, act)

    def test_heavy_states(self, lifted_all):
        """Lifted states, and non-simple ones: every admissible cell of
        every merge of a flip-walk state."""
        indices, _, heavy = lifted_all
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
        assert len(moebius_simple_census(3, limit=472)[1]) == 472
        with pytest.raises(ResourceLimit) as exc:
            moebius_simple_census(3, limit=471)
        assert exc.value.details["partial"] == 472

    def test_orbit_cap_boundary(self):
        """The orbit walk's cap counts orbit representatives."""
        assert len(moebius_states(3, limit=118)[1]) == 118
        with pytest.raises(ResourceLimit) as exc:
            moebius_states(3, limit=117)
        assert exc.value.details["partial"] == 118

    def test_progress_goes_to_stderr(self, capsys):
        """A line every 25 of the 118 expanded orbits, and the three phase
        lines."""
        moebius_census_rows(3, progress=25)
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert sum(line.startswith("expanded ") for line in lines) >= 4
        assert sum(line.startswith("phase ") for line in lines) == 3


def simple_orbit_keys(indices, evens, words, tags):
    """Sorted orbit keys of the flips of a marked simple state, as the
    orbit walk finds them; ``evens`` is the compiled group."""
    return sorted(_canonical_marked(_packed(nw),
                                    _marked_face(indices, pairs, survivor),
                                    evens)
                  for nw, pairs, survivor
                  in _marked_flips(indices, words, min(tags)))


def heavy_orbit_keys(evens, state):
    """Sorted orbit keys of the merges and splits of a marked heavy
    state; ``evens`` is the compiled group."""
    return sorted(_canonical_marked(_packed(cycles), tags, evens)
                  for cycles, tags in map(_heavy_marked, _heavy_steps(state)))


def unindexed_orbit_walk(n):
    """:func:`moebius_states` without its index: every seed and every
    neighbour is keyed."""
    indices, base = _thin_words(n)
    evens, cosets = _even_cosets(indices)
    evens = _group_actions(indices, evens)

    def keyed(words, tags):
        return (mutation._canonical_marked(_packed(words), tags, evens),
                (words, min(tags)))

    def neighbours(key, state):
        for nw, pairs, survivor in _marked_flips(indices, *state):
            yield keyed(nw, _marked_face(indices, pairs, survivor))

    return _walk((keyed(w, tags) for w, tags
                  in _marked_seeds(indices, base, cosets)),
                 neighbours, None, None)


class TestOrbitWalk:
    """The crosscap walks store one state per orbit of the even
    reorientations; they are sound because a move commutes with every
    signed relabeling."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_cosets_cover_the_signed_group_once(self, n):
        indices = tuple(range(1, n + 1))
        evens, cosets = _even_cosets(indices)
        products = [sorted(c.compose(e).images.items())
                    for c in cosets for e in evens]
        assert len(products) == len({tuple(p) for p in products}) \
            == len(SignedPermutation.all(indices))

    def test_representatives_are_the_plain_walk_orbits(self):
        """The orbit keys of the 472 states of the plain walk are the 118
        keys of the orbit walk, and each stored representative has its
        own key."""
        indices, plain = moebius_simple_census(3)
        _, reps = moebius_states(3)
        evens = _group_actions(indices, _even_cosets(indices)[0])
        assert len(plain) == 472 and len(reps) == 118
        assert {_canonical_marked(_packed(words),
                                  marked_descriptors(indices, words, desc),
                                  evens)
                for words, desc in plain.values()} == set(reps)
        for key, (words, desc) in reps.items():
            tags = marked_descriptors(indices, words, desc)
            assert desc in tags
            assert _canonical_marked(_packed(words), tags, evens) == key

    def test_index_keys_each_stored_state_once(self, monkeypatch):
        """The walk gives the items of the unindexed walk in the same
        order; at n=3 it keys 196 states, where the unindexed walk keys
        528, because 332 neighbours are states it stored."""
        keyed = []
        canonical = mutation._canonical_marked

        def counted(*args):
            keyed.append(args)
            return canonical(*args)

        monkeypatch.setattr(mutation, "_canonical_marked", counted)
        for n in (2, 3):
            del keyed[:]
            want = list(unindexed_orbit_walk(n).items())
            unindexed = len(keyed)
            del keyed[:]
            assert list(moebius_states(n)[1].items()) == want
        assert unindexed == 528 and len(keyed) <= 196

    def test_simple_flips_are_equivariant(self):
        """For every representative x and every even reorientation sigma,
        the flips of sigma.x lie in the orbits of the flips of x."""
        indices, reps = moebius_states(3)
        evens = _even_cosets(indices)[0]
        actions = _group_actions(indices, evens)
        assert len(evens) == 4
        for words, desc in reps.values():
            tags = marked_descriptors(indices, words, desc)
            want = simple_orbit_keys(indices, actions, words, tags)
            assert want
            for sigma in evens:
                inv = sigma.inverse()
                nw = act_words(sigma, indices, words)
                ntags = frozenset(transport_descriptor(inv, d) for d in tags)
                assert marked_descriptors(indices, nw, min(ntags)) == ntags
                assert simple_orbit_keys(indices, actions, nw, ntags) == want

    def test_heavy_steps_are_equivariant(self, lifted_all):
        """The same for merges and splits, on lifted simple states and on
        every admissible cell of a merge of each."""
        indices, _, heavy = lifted_all
        evens = _even_cosets(indices)[0]
        actions = _group_actions(indices, evens)
        rng = random.Random(13)
        states = [heavy[k] for k in rng.sample(sorted(heavy), 6)]
        for arr, _ in list(states):
            t, m = rng.choice(triangles(arr))
            merged = apply_move(arr, MutationMove("merge", t, m))
            cx = merged.complex
            states += [(merged, cx.face_descriptors(c))
                       for c in cx.admissible_cells()]
        assert any(not arr.is_simple() for arr, _ in states)
        for arr, tags in states:
            want = heavy_orbit_keys(actions, (arr, tags))
            assert want
            sigma = rng.choice(evens[1:])
            inv = sigma.inverse()
            acted = arr.act(sigma)
            ntags = frozenset(transport_descriptor(inv, d) for d in tags)
            cx = acted.complex
            assert cx.face_descriptors(
                cx.face_of[cx.flag_from_descriptor(min(ntags))]) == ntags
            assert heavy_orbit_keys(actions, (acted, ntags)) == want


def acted_family(indices, sigma, cycles):
    """Min-rotated cycles of ``act_words``, block by block (disk words,
    then crosscap words)."""
    n = len(indices)
    return sum((_words_key(act_words(sigma, indices, cycles[b:b + n]))
                for b in range(0, len(cycles), n)), ())


def brute_marked_key(indices, cycles, tags, group):
    """Least (acted cycles, least transported tag) over the signed
    permutations of ``group``."""
    return min((acted_family(indices, sigma, cycles),
                min(transport_descriptor(sigma.inverse(), d) for d in tags))
               for sigma in group)


class TestGroupActions:
    """Each compiled member acts as the signed permutation it comes from,
    and the least form over the compiled group is the brute-force one."""

    def check(self, indices, group, states):
        actions = _group_actions(indices, group)
        assert len(actions) == len(group)
        for cycles, tags in states:
            for sigma, act in zip(group, actions):
                assert tuple(map(unpack, act.cycles(_packed(cycles)))) \
                    == acted_family(indices, sigma, cycles)
                inv = sigma.inverse()
                for d in tags:
                    assert act.transport(d) == transport_descriptor(inv, d)
            assert _canonical_marked(_packed(cycles), tags, actions) \
                == brute_marked_key(indices, cycles, tags, group)

    def test_census_groups_on_three_curves(self, lifted_all):
        """Every member of every census group, on simple states and on
        lifted and non-simple heavy ones."""
        indices, states, heavy = lifted_all
        rng = random.Random(21)
        picked = [(words, marked_descriptors(indices, words, desc))
                  for words, desc in (states[k]
                                      for k in rng.sample(sorted(states), 12))]
        for key in rng.sample(sorted(heavy), 5):
            arr, tags = heavy[key]
            picked.append(_heavy_marked((arr, tags)))
            t, m = rng.choice(triangles(arr))
            merged = apply_move(arr, MutationMove("merge", t, m))
            cx = merged.complex
            picked += [_heavy_marked((merged, cx.face_descriptors(c)))
                       for c in cx.admissible_cells()]
        assert any(len(d[1]) > 1 for _, tags in picked for d in tags)
        groups = census_groups(indices)
        assert [len(g) for g in groups.values()] == [4, 24, 48, 4]
        for group in groups.values():
            self.check(indices, group, picked)

    def test_even_reorientations_on_four_curves(self):
        """The eight even reorientations, on the seeds of the n=4 orbit
        walk and one round of their flips."""
        indices, base = _thin_words(4)
        evens, cosets = _even_cosets(indices)
        assert len(evens) == 8
        seeds = list(_marked_seeds(indices, base, cosets))
        flips = dict.fromkeys(
            (nw, _marked_face(indices, pairs, survivor))
            for words, tags in seeds
            for nw, pairs, survivor in _marked_flips(indices, words, min(tags)))
        assert len(seeds) == 336 and len(flips) == 288
        self.check(indices, evens, seeds + list(flips))


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


class TestSurvivor:
    def test_a_move_removing_every_corner_raises(self):
        """A move that removes every corner of the marked cell leaves no
        flag to follow it by: a :class:`DplError`, which the CLI reports,
        not an ``assert``, which ``python -O`` strips."""
        indices, base = _thin_words(3)
        st = SimpleState(indices, base)
        tags = st.face_descriptors(st.admissible_cells()[0])
        corners = {d[1] for d in tags}
        for node in corners:
            assert _survivor(tags, corners - {node})[1] == node
        with pytest.raises(MarkedCellLost) as exc:
            _survivor(tags, corners)
        assert isinstance(exc.value, DplError)
        assert exc.value.report()["code"] == "marked-cell-lost"


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


def curves_at(node):
    return sorted({abs(x) for pair in node for x in pair})


def generated_releases(arr, node, m):
    """``(key, disk, crosscap, vertices, kept)`` of every head/tail
    placement of the released crossings on every carrier that validates:
    the first four as :func:`mutation._split_candidates` gives them, and
    ``kept`` whether the placement splits the vertex and keeps the genus
    of the whole complex."""
    bases = curves_at(node)
    rest = frozenset(pair for pair in node if m not in map(abs, pair))
    carriers = [c for c in bases if c != m] + [m]
    out = []
    for choice in product((True, False), repeat=len(carriers)):
        disk, cross = dict(arr.disk), dict(arr.crosscap)
        vertices = {}
        for c, head in zip(carriers, choice):
            span = arr.spans[c][arr.nodes[node][c]]
            dspan = [arr.disk[c][p] for p in span]
            srow = [arr.S[c][p] for p in span]
            if c == m:
                nd = dspan if head else dspan[::-1]
                nm = [-x for x in nd]
                row = srow if head else srow[::-1]
                vertices[c] = tuple(frozenset((pair,)) for pair in row)
            else:
                k = next(t for t, x in enumerate(dspan) if abs(x) == m)
                residual = dspan[:k] + dspan[k + 1:]
                rev = [-x for x in residual[::-1]]
                nd = [dspan[k]] + residual if head else residual + [dspan[k]]
                nm = [-dspan[k]] + rev if head else rev + [-dspan[k]]
                mine = frozenset((srow[k],))
                vertices[c] = (mine, rest) if head else (rest, mine)
            dw, mw = list(disk[c]), list(cross[c])
            for p, x, y in zip(span, nd, nm):
                dw[p], mw[p] = x, y
            disk[c], cross[c] = tuple(dw), tuple(mw)
        try:
            rel = validate(disk, cross)
        except DplError:
            continue
        out.append((rel.key(), disk, cross, vertices,
                    node not in rel.nodes and rel.genus == arr.genus))
    return out


def reference_releases(arr, node, m):
    """Keys of the releases of ``m`` off ``node`` by generate-and-test:
    the placements of :func:`generated_releases` that are kept."""
    return sorted({key for key, *_, kept in generated_releases(arr, node, m)
                   if kept})


# An arrangement with a vertex of four curves, found by generate-and-test
# among the merges of seeded merge/flip walks from ``cyclic_thin(4)``.
FOUR_FOLD = dict(
    disk={1: (-4, 2, 3, -2, 4, 3, 4, -2, -3, -4, -3, 2),
          2: (3, 4, 3, 4, 1, 1, -3, -1, -3, -4, -1, -4),
          3: (4, 1, 4, -4, 2, 1, 2, -4, -1, -1, -2, -2),
          4: (2, 1, 1, 2, 3, -1, 3, -3, -1, -2, -2, -3)},
    crosscap={1: (4, -2, -3, -3, -4, 2, -4, 2, 3, 4, 3, -2),
              2: (-3, -4, -3, -4, -1, -1, 3, 4, 3, 1, 1, 4),
              3: (-4, -1, -4, -1, -2, 4, -2, 4, 1, 1, 2, 2),
              4: (-2, -1, -1, -2, -3, 1, -3, 2, 1, 3, 2, 3)})


@pytest.fixture(scope="module")
def split_cases():
    """``(arrangement, node, curve, generated releases)`` of every curve
    at every multiple vertex of the catalog and of every merge of it."""
    arrs = []
    for fx in catalog.all():
        arrs.append(fx.arrangement)
        arrs += [apply_move(fx.arrangement, MutationMove("merge", t, m))
                 for t, m in triangles(fx.arrangement)]
    assert {arr.genus for arr in arrs} == {1, 3, 7}
    return [(arr, node, m, generated_releases(arr, node, m))
            for arr in arrs for node in arr.nodes
            if len(curves_at(node)) >= 3 for m in curves_at(node)]


class TestSplitReleases:
    def test_two_releases_match_generate_and_test(self, split_cases):
        """On the catalog and every merge of it (genus 1, 3 and 7)."""
        for arr, node, m, generated in split_cases:
            assert ([out.key() for out in releases(arr, node, m)]
                    == sorted({key for key, *_, kept in generated if kept}))
        assert len(split_cases) == 678

    def test_local_surface_matches_whole_genus(self, split_cases):
        """The local decision of :func:`mutation._keeps_surface` equals
        the whole-complex comparison on every placement that validates:
        the two releases of each pair, and the placements that change
        the genus."""
        counts = {True: 0, False: 0}
        for arr, node, m, generated in split_cases:
            for *_, vertices, kept in generated:
                assert mutation._keeps_surface(node, vertices) == kept
                counts[kept] += 1
        assert counts == {True: 1356, False: 4068}

    def test_refused_releases_raise(self, split_cases):
        """A release that leaves the surface, or is no arrangement, raises
        :class:`IllegalLocus`."""
        arr, node, m, generated = split_cases[0]
        key, disk, cross, vertices, _ = next(g for g in generated
                                             if not g[-1])
        with pytest.raises(IllegalLocus, match="changes the surface"):
            mutation._release(node, m, (key, disk, cross, vertices))
        disk = dict(disk)
        disk[m] = disk[m][1:]       # one letter short
        with pytest.raises(IllegalLocus, match="is no arrangement"):
            mutation._release(node, m, (key, disk, cross, vertices))

    def test_local_surface_on_the_heavy_walk(self):
        """The same on every release the merge/split walk of
        ``moebius_full_census(3)`` makes, with the releases' own
        vertices."""
        _, states = moebius_full_census(3)
        cases = 0
        for arr, _ in states.values():
            for node in arr.nodes:
                if len(curves_at(node)) < 3:
                    continue
                for m in curves_at(node):
                    for _, disk, cross, vertices in _split_candidates(
                            arr, node, m):
                        out = validate(disk, cross)
                        assert mutation._keeps_surface(node, vertices)
                        assert node not in out.nodes
                        assert out.genus == arr.genus
                        cases += 1
        assert cases == 3672

    def test_four_curves_at_a_vertex(self):
        """A vertex of four curves: two releases per curve, and the local
        decision equals the whole-complex comparison on all 16
        placements."""
        arr = validate(**FOUR_FOLD)
        assert arr.genus == 1
        node, = (nd for nd in arr.nodes if len(curves_at(nd)) == 4)
        for m in curves_at(node):
            generated = generated_releases(arr, node, m)
            assert len(generated) == 16
            for *_, vertices, kept in generated:
                assert mutation._keeps_surface(node, vertices) == kept
            assert ([out.key() for out in releases(arr, node, m)]
                    == reference_releases(arr, node, m))
            assert sum(kept for *_, kept in generated) == 2


def _words(arr):
    return (tuple(arr.disk[i] for i in arr.indices),
            tuple(arr.crosscap[i] for i in arr.indices))


def seeded_move_walk(n, seed, steps):
    """Key and exact words of every arrangement a seeded merge / split /
    flip walk from ``cyclic_thin(n)`` meets: per step a merge, both of its
    releases (and the side :func:`inverse_split` names) and a flip."""
    rng = random.Random(seed)
    arr = cyclic_thin(n)
    seen = []
    for _ in range(steps):
        tris = triangles(arr)
        t, m = rng.choice(tris)
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes
                    if len({abs(x) for p in nd for x in p}) >= 3)
        move = inverse_split(arr, merged, node, m)
        outs = [merged, apply_move(merged, move)]
        outs += [apply_move(merged, MutationMove("split", node, m, side))
                 for side in "ab"]
        arr = apply_move(arr, MutationMove("flip", *rng.choice(tris)))
        seen += [(move.side, out.key(), _words(out)) for out in outs + [arr]]
    return seen


class TestValidatedMemo:
    """The move layer validates each exact word family once while an
    arrangement from it lives."""

    def test_live_words_give_the_same_object(self):
        arr = cyclic_thin(3)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        assert _validated(dict(merged.disk), dict(merged.crosscap)) is merged
        assert apply_move(arr, MutationMove("merge", t, m)) is merged

    def test_dead_words_are_validated_afresh(self):
        arr = cyclic_thin(4)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        disk, cross = dict(merged.disk), dict(merged.crosscap)
        entry = (merged.indices,) + _words(merged)
        key = merged.key()
        merged.genus                # builds the complex
        assert entry in _VALIDATED
        del merged
        gc.collect()
        assert entry not in _VALIDATED
        fresh = _validated(disk, cross)
        assert fresh._complex is None
        assert fresh.key() == key

    def test_rotated_family_is_its_own_entry(self):
        arr = cyclic_thin(3)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        disk, cross = dict(merged.disk), dict(merged.crosscap)
        disk[1] = disk[1][1:] + disk[1][:1]
        rotated = _validated(disk, cross)
        assert rotated is not merged
        assert rotated.key() == merged.key()
        assert rotated.spans[1] != merged.spans[1]
        assert _validated(disk, cross) is rotated

    def test_rejected_family_raises_every_time(self, monkeypatch):
        calls = []

        def counted(disk, cross):
            calls.append(1)
            return validate(disk, cross)

        monkeypatch.setattr(mutation, "validate", counted)
        arr = cyclic_thin(3)
        disk, cross = dict(arr.disk), dict(arr.crosscap)
        disk[1] = disk[1][1:]       # one letter short
        for _ in range(2):
            with pytest.raises(DplError):
                _validated(disk, cross)
        assert len(calls) == 2
        assert (arr.indices, tuple(disk[i] for i in arr.indices),
                tuple(cross[i] for i in arr.indices)) not in _VALIDATED

    def test_dropped_releases_are_freed(self):
        """A split keeps nothing once its caller drops the releases, also
        off a catalog arrangement, which lives as long as the process."""
        arr = catalog.arrangement("Upsilon")
        node = next(nd for nd in arr.nodes
                    if len({abs(x) for p in nd for x in p}) == 3)
        entries = []
        for m in sorted({abs(x) for p in node for x in p}):
            for side in "ab":
                out = apply_move(arr, MutationMove("split", node, m, side))
                entries.append((out.indices,) + _words(out))
        del out
        gc.collect()
        assert len(entries) == 6
        assert not [e for e in entries if e in _VALIDATED]

    def test_split_validates_only_releases_no_caller_holds(
            self, monkeypatch):
        """On a fresh merge a split validates the release it is asked
        for; the other side validates one more; asking again while both
        are held validates none."""
        arr = cyclic_thin(4)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes
                    if len({abs(x) for p in nd for x in p}) >= 3)
        gc.collect()
        calls = []

        def counted(disk, cross):
            calls.append(1)
            return validate(disk, cross)

        monkeypatch.setattr(mutation, "validate", counted)
        a = apply_move(merged, MutationMove("split", node, m, "a"))
        assert len(calls) == 1
        b = apply_move(merged, MutationMove("split", node, m, "b"))
        assert len(calls) == 2
        assert apply_move(merged, MutationMove("split", node, m, "a")) is a
        assert apply_move(merged, MutationMove("split", node, m, "b")) is b
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [3, 4])
    def test_inverse_split_validates_and_builds_nothing(self, n,
                                                         monkeypatch):
        """``inverse_split`` compares keys of words: no validation and no
        flag complex; the ``apply_move`` of its answer validates at most
        the one release and builds no flag complex either."""
        arr = cyclic_thin(n)
        t, m = triangles(arr)[0]
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes if len(curves_at(nd)) >= 3)
        gc.collect()
        validations, builds = [], []
        build = FlagComplex.__init__

        def counted_validate(disk, cross):
            validations.append(1)
            return validate(disk, cross)

        def counted_build(self, arr):
            builds.append(1)
            build(self, arr)

        monkeypatch.setattr(mutation, "validate", counted_validate)
        monkeypatch.setattr(FlagComplex, "__init__", counted_build)
        move = inverse_split(arr, merged, node, m)
        assert (len(validations), len(builds)) == (0, 0)
        assert apply_move(merged, move).key() == arr.key()
        assert len(validations) <= 1 and len(builds) == 0

    @staticmethod
    def unmemoize(monkeypatch):
        """Validate every family afresh."""
        monkeypatch.setattr(mutation, "_validated", validate)

    def test_heavy_walk_matches_unmemoized(self, monkeypatch):
        def walk():
            _, states = moebius_full_census(3)
            return [(key, _words(arr), tags)
                    for key, (arr, tags) in states.items()]

        memo = walk()
        self.unmemoize(monkeypatch)
        assert walk() == memo
        assert len(memo) == 531

    def test_seeded_moves_match_unmemoized(self, monkeypatch):
        cases = [(3, 30), (4, 12), (5, 6)]
        memo = [seeded_move_walk(n, n, steps) for n, steps in cases]
        self.unmemoize(monkeypatch)
        assert [seeded_move_walk(n, n, steps) for n, steps in cases] == memo
