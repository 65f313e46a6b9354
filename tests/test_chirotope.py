import doctest
import functools
import random
from importlib import resources
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from dpl import all_c64, arrangement, catalog, chirotope, cyclic_thin
from dpl import words as W
from dpl.arrangement import _D_ANCHOR, _M_ANCHOR, _slot_positions
from dpl.chirotope import (
    Chirotope,
    _has_chirotope,
    _merge_words,
    chirotope_of,
    chirotope_text,
    class_version,
    entry_name,
    extensions4,
    is_k_chirotope,
    parse_chirotope,
    reconstruct,
    relations_from,
)
from dpl.errors import (
    BlockInconsistent,
    DplError,
    NoArrangement,
    NotTransitive,
    TooFewIndices,
)
from dpl.mutation import MutationMove, apply_move, triangles


def c04_versions_on_five(mask):
    """The five-index chirotope whose triple ``J`` (the ``t``-th in
    lexicographic order) is the C04 version with images ``J``, or with the
    last two images swapped when bit ``t`` of ``mask`` is set; these are the
    two C04 versions on each triple."""
    triples = {}
    for t, J in enumerate(combinations(range(1, 6), 3)):
        images = (J[0], J[2], J[1]) if mask >> t & 1 else J
        triples[frozenset(J)] = class_version("C04", images)
    return Chirotope(triples)


def all_c04_on_five():
    """The C04 versions of ``allC04_n5.chi``: images swapped on the
    triples (1, 3, 5) and (2, 3, 5)."""
    return c04_versions_on_five(1 << 4 | 1 << 7)


def all_c04_file():
    path = resources.files("dpl").joinpath("catalog_data", "allC04_n5.chi")
    with path.open() as fh:
        return parse_chirotope(fh.read())


def reference_merge_words(base, insert, want_pairs):
    """The merge by generate and test: every rotation of ``insert`` at
    every placement among the letters of ``base``, kept when each pair
    subword is a rotation of its wanted word."""
    nb, ni = len(base), len(insert)
    total = nb + ni
    out = set()
    for rot in range(ni):
        ins = insert[rot:] + insert[:rot]
        for slots in combinations(range(total), ni):
            word = [None] * total
            it = iter(ins)
            sl = set(slots)
            bi = iter(base)
            for p in range(total):
                word[p] = next(it) if p in sl else next(bi)
            ok = True
            for bases, want in want_pairs.items():
                sub = tuple(x for x in word if abs(x) in bases)
                if not W.cyclic_eq(sub, want):
                    ok = False
                    break
            if ok:
                out.add(W.min_rotation(tuple(word)))
    return sorted(out)


def reference_relations_from(chi, genus_one=True):
    """The relation check before its rewrite: a relation object per
    carrier and side that rebuilds a position map of the slotted cycle
    for every triple it is asked about, and a totality pass."""
    ext4 = {}
    for J in combinations(chi.indices, 4):
        sols = chi._extensions_on(J, genus_one)
        if not sols:
            raise NoArrangement("no extension on %r" % (J,), subset=J)
        if len(sols) > 1:
            raise NoArrangement("ambiguous extension on %r" % (J,), subset=J)
        ext4[frozenset(J)] = sols[0]
    rels, blocks = {}, {}
    for i in chi.indices:
        cos = [x for x in chi.indices if x != i]
        for flavor in "DM":
            anchor = _D_ANCHOR if flavor == "D" else _M_ANCHOR
            cycles = {}
            for bases in combinations(cos, 3):
                arr = ext4[frozenset((i,) + bases)]
                word = arr.disk[i] if flavor == "D" else arr.crosscap[i]
                cycles[frozenset(bases)] = _slot_positions(word, i, anchor)
            for bases in combinations(cos, 2):
                fam = chi.entry((i,) + bases)[i]
                word = fam[0] if flavor == "D" else fam[1]
                cycles[frozenset(bases)] = _slot_positions(word, i, anchor)
            for b in cos:
                cycles[frozenset((b,))] = tuple(
                    W.pair_of(i, b, s) for s in (1, 2, 3, 4))
            rels[(i, flavor)] = cycles
            if flavor == "D":
                partner = {}
                for bases in combinations(cos, 2):
                    arr = chi.entry_arrangement((i,) + bases)
                    for block in arr.blocks(i):
                        for a, b in zip(block, block[1:]):
                            partner.setdefault(a, set()).add(b)
                blocks[i] = partner

    def before(order, alpha, beta, gamma):
        pos = {p: t for t, p in enumerate(order)}
        x, y, z = pos[alpha], pos[beta], pos[gamma]
        return (y - x) % len(order) < (z - x) % len(order)

    orders = {}
    for (i, flavor), cycles in rels.items():
        co = {p: b for bases, cyc in cycles.items() if len(bases) == 1
              for b in bases for p in cyc}

        def holds(alpha, beta, gamma):
            bases = frozenset((co[alpha], co[beta], co[gamma]))
            return before(cycles[bases], alpha, beta, gamma)

        syms = sorted(co)
        for alpha, beta, gamma in combinations(syms, 3):
            assert holds(alpha, beta, gamma) != holds(alpha, gamma, beta)
        anchor = syms[0]
        rest = sorted(syms[1:], key=functools.cmp_to_key(
            lambda x, y: 0 if x == y else -1 if holds(anchor, x, y) else 1))
        order = tuple([anchor] + rest)
        for alpha, beta, gamma in combinations(syms, 3):
            if holds(alpha, beta, gamma) != before(order, alpha, beta, gamma):
                raise NotTransitive(
                    "relation of carrier %d not transitive" % i,
                    carrier=i, flavor=flavor,
                    witness=sorted({i, abs(W.co_index(anchor, i))}
                                   | {abs(W.co_index(p, i))
                                      for p in (alpha, beta, gamma)}))
        orders[(i, flavor)] = order
    for i, partner in blocks.items():
        for a, succs in partner.items():
            for b in succs:
                for c in partner.get(b, ()):
                    if c not in partner.get(a, set()) and c != a:
                        raise BlockInconsistent(
                            "block relation of carrier %d not transitive" % i,
                            carrier=i)
    return orders, blocks


@functools.cache
def carrier_calls():
    """The distinct ``_merge_words`` calls, disk and crosscap, that
    extensions4 makes on the 4-subsets of the chirotopes of cyclic_thin(4),
    cyclic_thin(5), M1, M2, M1star and all_c64(5), and of allC04_n5.chi."""
    chis = [chirotope_of(arr) for arr in
            (cyclic_thin(4), cyclic_thin(5), catalog.arrangement("M1"),
             catalog.arrangement("M2"), catalog.arrangement("M1star"),
             all_c64(5))]
    chis.append(all_c04_file())
    calls = {}
    merge = chirotope._merge_words

    def record(base, insert, want_pairs):
        key = (base, insert, sorted((sorted(bases), want)
                                    for bases, want in want_pairs.items()))
        calls.setdefault(repr(key), (base, insert, want_pairs))
        return merge(base, insert, want_pairs)

    chirotope._merge_words = record
    try:
        for chi in chis:
            for J in combinations(chi.indices, 4):
                extensions4(chi.restriction(J), genus_one=False)
    finally:
        chirotope._merge_words = merge
    return list(calls.values())


def three_curve_validations(monkeypatch):
    """The index tuples of the 3-curve families validated from now on, by
    the arrangement module (restrictions) or the chirotope module."""
    validated = []
    plain = arrangement.validate

    def counted(disk, crosscap):
        if len(disk) == 3:
            validated.append(tuple(sorted(disk)))
        return plain(disk, crosscap)

    monkeypatch.setattr(arrangement, "validate", counted)
    monkeypatch.setattr(chirotope, "validate", counted)
    return validated


class TestEntries:
    def test_m1_entries_verbatim(self):
        M1 = catalog.arrangement("M1")
        for J, want in [((1, 2, 3), ("C22", (1, -2, -3))),
                        ((1, 3, 4), ("C22", (1, -3, -4))),
                        ((1, 2, 4), ("C22", (1, -4, -2))),
                        ((2, 3, 4), ("C04", (2, 3, 4)))]:
            assert M1.restriction(J).key() == class_version(*want).key(), J

    def test_m2_entries_verbatim(self):
        M2 = catalog.arrangement("M2")
        for J, want in [((1, 2, 3), ("C22", (1, 2, 3))),
                        ((2, 3, 4), ("C22", (4, 2, -3))),
                        ((1, 2, 4), ("C32", (1, 4, 2))),
                        ((1, 3, 4), ("C32", (1, 4, 3)))]:
            assert M2.restriction(J).key() == class_version(*want).key(), J

    def test_cyclic_thin_is_all_c04(self):
        chi = chirotope_of(cyclic_thin(5))
        for J in chi.entries:
            assert chi.entry_label(J).startswith("C04(")

    def test_entry_name_round_trip(self):
        for name in ("C04", "C22", "C25_1", "C64"):
            arr = catalog.arrangement(name)
            label = entry_name(arr)
            assert label.startswith(name + "(")
            head, args = label[:-1].split("(")
            images = tuple(int(t) for t in args.split())
            assert class_version(head, images).key() == arr.key()

    def test_too_few_indices(self):
        with pytest.raises(TooFewIndices):
            chirotope_of(catalog.arrangement("TwoCurve"))

    def test_name_table_matches_acted_arrangements(self):
        table = {}
        for name in catalog.THIRTEEN:
            ref = catalog.arrangement(name)
            for sigma in W.SignedPermutation.all((1, 2, 3)):
                images = tuple(sigma.inverse()(r) for r in (1, 2, 3))
                key = ref.act(sigma).key()
                prev = table.get(key)
                if prev is None or (prev[0] == name and images < prev[1]):
                    table[key] = (name, images)
        assert len(table) == 216
        assert chirotope._name_table() == table

    def test_three_curve_fixtures_name_entries(self):
        for name in ("Upsilon", "UpsilonSplit", "TripleMartagon"):
            text = "indices: 1 2 3\nchi 1 2 3: %s(1 2 3)\n" % name
            chi = parse_chirotope(text)
            assert chi.entry_arrangement((1, 2, 3)).key() \
                == catalog.arrangement(name).key()


class TestInjectivity:
    def test_injective_over_indexed_three_classes(self):
        from dpl.mutation import projective_census, from_disk_only
        cen = projective_census(3)
        seen = {}
        for key, words in cen["indexed_classes"].items():
            arr = from_disk_only(dict(zip(cen["indices"], words)))
            ck = chirotope_of(arr).key()
            assert ck not in seen or seen[ck] == key
            seen[ck] = key
        assert len(seen) == len(cen["indexed_classes"])


class TestReconstruction:
    def test_round_trip_cyclic_thin_five(self):
        ct5 = cyclic_thin(5)
        assert reconstruct(chirotope_of(ct5)).key() == ct5.key()

    def test_m1_disambiguation(self):
        M1 = catalog.arrangement("M1")
        M1s = catalog.arrangement("M1star")
        chi = chirotope_of(M1)
        assert chirotope_of(M1s) == chi
        only = reconstruct(chi, genus_one=True)
        assert only.key() == M1.key()
        both = reconstruct(chi, genus_one=False, all_solutions=True)
        assert {a.key() for a in both} == {M1.key(), M1s.key()}

    def test_m2_disambiguation(self):
        M2 = catalog.arrangement("M2")
        M2s = catalog.arrangement("M2star")
        chi = chirotope_of(M2)
        assert chirotope_of(M2s) == chi
        assert reconstruct(chi, genus_one=True).key() == M2.key()

    def test_all_c64_any_genus(self):
        u5 = all_c64(5)
        sols = reconstruct(chirotope_of(u5), genus_one=False,
                           all_solutions=True)
        assert [s.key() for s in sols] == [u5.key()]
        with pytest.raises(NoArrangement):
            reconstruct(chirotope_of(u5), genus_one=True)


class TestAxiomCheck:
    def test_all_c04_on_five(self):
        chi = all_c04_on_five()
        assert is_k_chirotope(chi, 4)
        ok, diag = is_k_chirotope(chi, 5, diagnose=True)
        assert not ok
        assert diag["code"] == "not-transitive"
        assert diag["carrier"] == 1

    def test_all_c32_on_four(self):
        triples = {frozenset(J): class_version("C32", J)
                   for J in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
        assert not is_k_chirotope(Chirotope(triples), 4)

    def test_valid_five_curve_relations(self):
        chi = chirotope_of(cyclic_thin(5))
        orders, blocks = relations_from(chi)
        assert set(orders) == {(i, X) for i in range(1, 6) for X in "DM"}
        # existence witness: every relation is a cyclic order of the
        # carrier's 16 crossing pairs
        for (i, _), order in orders.items():
            assert sorted(order) == sorted(
                W.pair_of(i, b, s) for b in range(1, 6) if b != i
                for s in (1, 2, 3, 4))

    def test_relations_match_reference(self):
        def outcome(relations, chi, genus_one):
            try:
                return relations(chi, genus_one=genus_one)
            except DplError as exc:
                return type(exc), str(exc), exc.report()

        ct6 = chirotope_of(cyclic_thin(6))
        c64 = chirotope_of(all_c64(5))
        masks = random.Random(10).sample(range(1024), 16)
        masks += range(0, 1024, 32)
        corpus = [(c04_versions_on_five(mask), True) for mask in masks]
        corpus += [(all_c04_file(), True), (c64, False), (c64, True),
                   (chirotope_of(cyclic_thin(7)), True)]
        corpus += [(ct6.restriction(J), True)
                   for J in combinations(ct6.indices, 5)]
        codes = set()
        for chi, genus_one in corpus:
            got = outcome(relations_from, chi, genus_one)
            assert got == outcome(reference_relations_from, chi, genus_one)
            codes.add(got[2]["code"] if len(got) == 3 else "accepted")
        assert {"accepted", "not-transitive"} <= codes

    def test_sort_comparisons_only(self, monkeypatch):
        """An accepted carrier costs the comparisons of its sort: the
        triples of its crossing pairs are not scanned one by one."""
        calls = []
        plain = chirotope._cyclic_before

        def counted(pos, a, b, c):
            calls.append(None)
            return plain(pos, a, b, c)

        chi = chirotope_of(cyclic_thin(7))
        monkeypatch.setattr(chirotope, "_cyclic_before", counted)
        assert is_k_chirotope(chi, 5)
        assert len(calls) <= 10_000

    def test_enumerated_arrangements_are_k_chirotopes(self):
        for arr in (cyclic_thin(4), cyclic_thin(5),
                    catalog.arrangement("M1")):
            chi = chirotope_of(arr)
            for k in range(3, len(arr.indices) + 1):
                assert is_k_chirotope(chi, k), (arr, k)

    def test_extension_counts(self):
        chi = chirotope_of(cyclic_thin(4))
        assert len(extensions4(chi)) == 1

    def test_one_extension_per_four_subset(self, monkeypatch):
        extended = []
        plain = chirotope.extensions4

        def counted(chi, genus_one=True):
            extended.append(chi.indices)
            return plain(chi, genus_one=genus_one)

        monkeypatch.setattr(chirotope, "extensions4", counted)
        assert is_k_chirotope(chirotope_of(cyclic_thin(6)), 5)
        assert sorted(extended) == list(combinations(range(1, 7), 4))

    def test_four_subset_check_reads_the_store(self, monkeypatch):
        """After the 5-subset check, the 4-subset check of the same
        chirotope reconstructs each 4-subset from the extensions already
        stored, and no verdict changes; a caller that changes the list
        ``reconstruct`` returns leaves the store as it was."""
        ct6 = chirotope_of(cyclic_thin(6))
        fresh = {k: is_k_chirotope(chirotope_of(cyclic_thin(6)), k)
                 for k in (4, 5)}
        quads = list(combinations(ct6.indices, 4))
        keys = {J: reconstruct(chirotope_of(cyclic_thin(6)).restriction(J),
                               all_solutions=True)[0].key() for J in quads}
        extended = []
        plain = chirotope.extensions4

        def counted(chi, genus_one=True):
            extended.append(chi.indices)
            return plain(chi, genus_one=genus_one)

        monkeypatch.setattr(chirotope, "extensions4", counted)
        assert is_k_chirotope(ct6, 5) == fresh[5] is True
        assert sorted(extended) == quads
        del extended[:]
        assert is_k_chirotope(ct6, 4) == fresh[4] is True
        for J in quads:
            sols = reconstruct(ct6.restriction(J), all_solutions=True)
            assert [arr.key() for arr in sols] == [keys[J]]
            sols.clear()
            assert reconstruct(ct6.restriction(J)).key() == keys[J]
        assert extended == []

    def test_one_validation_per_triple(self, monkeypatch):
        """Building the chirotope validates each triple once, through the
        arrangement's restriction; the 5-subset check validates none."""
        validated = three_curve_validations(monkeypatch)
        chi = chirotope_of(cyclic_thin(7))
        triples = list(combinations(range(1, 8), 3))
        assert sorted(validated) == triples
        assert is_k_chirotope(chi, 5)
        assert sorted(validated) == triples

    def test_flip_walk_states(self):
        # the main theorem beyond cyclic_thin, M1 and M2: seeded flip walks
        # from cyclic_thin(n), checked every third flip
        rng = random.Random(5)
        for n in (5, 6):
            arr = cyclic_thin(n)
            for step in range(1, 7):
                arr = apply_move(arr, MutationMove(
                    "flip", *rng.choice(triangles(arr))))
                if step % 3 == 0:
                    chi = chirotope_of(arr)
                    assert chi != chirotope_of(cyclic_thin(n))
                    assert reconstruct(chi).key() == arr.key(), (n, step)
                    assert is_k_chirotope(chi, 5), (n, step)


def flip_walk(n, steps, rng):
    arr = cyclic_thin(n)
    for _ in range(steps):
        arr = apply_move(arr, MutationMove(
            "flip", *rng.choice(triangles(arr))))
    return arr


def perturbed(chi, count, rng):
    """``chi`` with ``count`` triple entries replaced by random versions
    of random classes."""
    triples = {J: chi.entry_arrangement(J)
               for J in combinations(chi.indices, 3)}
    for J in rng.sample(sorted(triples), count):
        images = [x * rng.choice((1, -1)) for x in rng.sample(J, 3)]
        triples[J] = class_version(rng.choice(catalog.THIRTEEN), images)
    return Chirotope(triples)


class TestMainTheorem:
    def test_five_subsets_decide(self):
        """A map on triples of six or seven indices is the chirotope of a
        genus-one arrangement iff its restriction to every 5-subset is,
        and that arrangement has the map as its chirotope."""
        rng = random.Random(28)
        verdicts = set()
        for n in (6, 7):
            for _ in range(3):
                chi = chirotope_of(flip_walk(n, 2 * n, rng))
                for case in [chi] + [perturbed(chi, count, rng)
                                     for count in (1, 2, 1, 2)]:
                    ok = is_k_chirotope(case, 5)
                    try:
                        arr = reconstruct(case)
                    except DplError:
                        arr = None
                    assert ok == (arr is not None), n
                    if arr is not None:
                        assert chirotope_of(arr) == case
                    verdicts.add(ok)
        assert verdicts == {True, False}

    def test_five_subsets_are_needed(self):
        """On every eighth C04 mask of ``c04_versions_on_five``, every map
        passes the 4-subset check and 80 of the 128 fail the 5-subset
        check: the 4-subsets do not decide."""
        verdicts = [(is_k_chirotope(chi, 4), is_k_chirotope(chi, 5))
                    for chi in map(c04_versions_on_five, range(0, 1024, 8))]
        assert verdicts.count((True, True)) == 48
        assert verdicts.count((True, False)) == 80
        assert all(four for four, _ in verdicts)

    def test_injective_at_four_and_five(self):
        rng = random.Random(29)
        for n in (4, 5):
            for _ in range(3):
                arr = flip_walk(n, 2 * n, rng)
                assert reconstruct(chirotope_of(arr)).key() == arr.key()

    def test_non_simple_round_trip(self):
        """A merge makes a vertex of three curves, so one triple entry is
        not simple: ``extensions4`` pairs disk with crosscap candidates,
        and at n=5 ``relations_from`` reads the block partners."""
        rng = random.Random(5)
        for n in (4, 5):
            for _ in range(6):
                arr = flip_walk(n, 2 * n, rng)
                merged = apply_move(arr, MutationMove(
                    "merge", *rng.choice(triangles(arr))))
                chi = chirotope_of(merged)
                assert not chi.is_simple()
                assert reconstruct(chi).key() == merged.key()
                assert is_k_chirotope(chi, n)


class TestChirotopeRecheck:
    def test_matches_chirotope_of(self):
        """The re-check by restricted words answers as comparing with
        ``chirotope_of``, on every pair of a flip walk at five and six
        curves, most of them different."""
        rng = random.Random(9)
        arrs = []
        for n in (5, 6):
            arr = cyclic_thin(n)
            arrs.append(arr)
            for _ in range(5):
                arr = apply_move(arr, MutationMove(
                    "flip", *rng.choice(triangles(arr))))
                arrs.append(arr)
        chis = [chirotope_of(arr) for arr in arrs]
        pairs = same = 0
        for arr in arrs:
            for chi in chis:
                if chi.indices == arr.indices:
                    want = chirotope_of(arr) == chi
                    assert _has_chirotope(arr, chi) == want
                    pairs += 1
                    same += want
        assert len(arrs) <= same < pairs


class TestMergeWords:
    def test_matches_generate_and_test_on_carrier_calls(self):
        sizes = set()
        for base, insert, want in carrier_calls():
            got = _merge_words(base, insert, want)
            assert got == reference_merge_words(base, insert, want), \
                (base, insert, want)
            sizes.add(len(got))
        assert sizes == {1, 2}

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_generate_and_test_on_corrupted_pairs(self, data):
        base, insert, want = data.draw(st.sampled_from(carrier_calls()))
        bases = data.draw(st.sampled_from(sorted(want, key=sorted)))
        word = list(want[bases])
        at = data.draw(st.integers(0, len(word) - 1))
        kind = data.draw(st.sampled_from(("swap", "flip", "drop")))
        if kind == "swap":
            other = data.draw(st.integers(0, len(word) - 1))
            word[at], word[other] = word[other], word[at]
        elif kind == "flip":
            word[at] = -word[at]
        else:
            del word[at]
        want = {**want, bases: tuple(word)}
        assert (_merge_words(base, insert, want)
                == reference_merge_words(base, insert, want))

    def test_empty_merges(self):
        base = (-2, -2, -1, 1, 2, 2, 1, -1)
        insert = (-4, -4, 4, 4)
        # one letter dropped from the (1, 4) word: its subword is one letter
        # longer, and read cyclically the shorter word still matches it
        want = {frozenset((1, 2)): base,
                frozenset((1, 4)): (-4, -1, 1, 4, 4, 1, -1),
                frozenset((2, 4)): (-4, -4, -2, -2, 4, 4, 2, 2)}
        flipped = {**want, frozenset((1, 4)): (-4, -4, -1, 1, 4, 4, 1, 1)}
        for args in ((base, insert, want), (base, insert, flipped),
                     (base, (), want)):
            assert _merge_words(*args) == reference_merge_words(*args) == []


class TestFileFormat:
    def test_round_trip_named(self):
        chi = chirotope_of(catalog.arrangement("M1"))
        text = chirotope_text(chi)
        assert "C22(" in text and "C04(" in text
        assert parse_chirotope(text) == chi

    def test_round_trip_inline(self):
        chi = chirotope_of(catalog.arrangement("M1star"))
        # entries are still the thirteen classes, so force inline too
        text = chirotope_text(chi)
        assert parse_chirotope(text) == chi

    def test_all_c04_fixture_file(self):
        assert all_c04_file() == all_c04_on_five()


CHI_TEXTS = [chirotope_text(chirotope_of(catalog.arrangement(name)))
             for name in ("M1", "M2", "C04")]
CHI_TOKENS = st.one_of(st.integers(-3, 5).map(str),
                       st.sampled_from(["x", ":", "|", "=", "(", ")", "",
                                        "chi", "indices:", "D1=", "M2=",
                                        "C04(1", "C64(2 -1 3)", "M1(1 2 3)",
                                        "TwoCurve(1 2 3)", "\n"]))


@st.composite
def chirotope_texts(draw):
    """A header and one entry over small signed indices: a named class
    with drawn images, or disk (and maybe crosscap) cycles holding every
    other index twice with each sign."""
    indices = draw(st.lists(st.integers(-1, 4), min_size=1, max_size=4))
    head = " ".join(map(str, indices))
    if draw(st.booleans()):
        images = draw(st.lists(st.integers(-4, 4), max_size=4))
        body = "%s(%s)" % (draw(st.sampled_from(catalog.THIRTEEN)),
                           " ".join(map(str, images)))
    else:
        parts = []
        for kind in draw(st.sampled_from(["D", "DM"])):
            for i in indices:
                letters = [x for j in indices if j != i
                           for x in (j, j, -j, -j)]
                word = draw(st.permutations(letters))
                parts.append("%s%d= %s" % (kind, i, " ".join(map(str, word))))
        body = " | ".join(parts)
    return "indices: %s\nchi %s: %s\n" % (head, head, body)


@st.composite
def corrupted_chirotope_texts(draw):
    """A chirotope file with a few of its tokens replaced."""
    tokens = draw(st.sampled_from(CHI_TEXTS)).split(" ")
    for _ in range(draw(st.integers(1, 3))):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(CHI_TOKENS)
    return " ".join(tokens)


class TestParsedTriples:
    def test_entries_are_the_parsed_arrangements(self, monkeypatch):
        """A parsed chirotope holds the arrangement each entry line was
        validated to, and checking it validates no triple again."""
        merged = cyclic_thin(3)
        merged = apply_move(merged, MutationMove("merge",
                                                 *triangles(merged)[0]))
        path = resources.files("dpl").joinpath("catalog_data",
                                               "allC04_n5.chi")
        texts = [path.read_text()]
        texts += [chirotope_text(chirotope_of(arr))
                  for arr in (catalog.arrangement("M1"), merged)]
        assert "|" in texts[2] and "(" not in texts[2]
        for text in texts:
            built = {}
            plain = chirotope.validate

            def recorded(disk, crosscap):
                arr = plain(disk, crosscap)
                built[frozenset(arr.indices)] = arr
                return arr

            monkeypatch.setattr(chirotope, "validate", recorded)
            chi = parse_chirotope(text)
            monkeypatch.undo()
            assert set(built) == set(chi.entries)
            for J in chi.entries:
                assert chi.entry_arrangement(J) is built[J]
            validated = three_curve_validations(monkeypatch)
            for k in range(3, len(chi.indices) + 1):
                is_k_chirotope(chi, k)
            monkeypatch.undo()
            assert validated == []


def test_doctests():
    result = doctest.testmod(chirotope)
    assert (result.failed, result.attempted) == (0, 2)


class TestParseBoundary:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.text(max_size=60), chirotope_texts(),
                     corrupted_chirotope_texts()))
    def test_parse_chirotope_returns_or_raises_dpl_error(self, text):
        try:
            parse_chirotope(text)
        except DplError:
            pass
