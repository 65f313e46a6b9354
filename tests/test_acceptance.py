"""Acceptance suite: one check per criterion, one printed verdict line each.

Counts here are exact integers; runtime bounds follow the stated budgets.
The size-4 crosscap census is a long-running stretch target, opt-in via
DPL_STRETCH=1.
"""

import json
import os
import random
import time
from itertools import combinations

import pytest

from dpl import all_c64, catalog, cyclic_thin
from dpl.chirotope import (
    Chirotope,
    chirotope_of,
    class_version,
    is_k_chirotope,
    parse_chirotope,
    reconstruct,
)
from dpl.flags import automorphism_order, orbit_count
from dpl.mutation import (
    MutationMove,
    apply_move,
    connectivity_check,
    inverse_split,
    moebius_census,
    moebius_chirotope_counts,
    projective_census,
    pumping_check,
    triangles,
)


def verdict(num, ok, detail):
    print("ACCEPTANCE %s: %s  (%s)" % (num, "PASS" if ok else "FAIL", detail))
    assert ok, detail


def test_criterion_1_catalog_golden_suite():
    t0 = time.time()
    for name in catalog.THIRTEEN:
        assert catalog.arrangement(name).genus == 1, name
    c04 = catalog.arrangement("C04")
    assert c04.f_vector == {3: 4, 4: 9}
    assert automorphism_order(catalog.arrangement("C64")) == 24
    published = [2, 8, 12, 8, 2, 24, 12, 24, 24, 24, 48, 4, 2]
    report = []
    for name, want in zip(catalog.THIRTEEN, published):
        got = orbit_count(catalog.arrangement(name))
        if name in catalog.ORBIT_DISPUTED:
            report.append("%s: published %d, computed %d (reported, "
                          "not asserted)" % (name, want, got))
        else:
            assert got == want, (name, got, want)
    dt = time.time() - t0
    print("  " + "; ".join(report))
    verdict("1", dt < 1.0,
            "13 classes genus 1, C04 faces, |Aut(C64)|=24, orbit counts; "
            "%.2fs" % dt)


def test_criterion_2_sigma1_base_case():
    t0 = time.time()
    from dpl.words import pair_of
    table = {
        (1, -1, -1): (1, -1, -1), (1, 1, -1): (1, -1, 1),
        (2, -1, -1): (3, -1, 1),  (2, 1, -1): (3, -1, -1),
        (3, -1, -1): (2, 1, -1),  (3, 1, -1): (2, 1, 1),
        (4, -1, -1): (4, 1, 1),   (4, 1, -1): (4, 1, -1),
        (1, -1, 1): (1, 1, -1),   (1, 1, 1): (1, 1, 1),
        (2, -1, 1): (3, 1, 1),    (2, 1, 1): (3, 1, -1),
        (3, -1, 1): (2, -1, -1),  (3, 1, 1): (2, -1, 1),
        (4, -1, 1): (4, -1, 1),   (4, 1, 1): (4, -1, -1),
    }
    cx = catalog.arrangement("TwoCurve").complex
    rows = 0
    for (k, eps, side), (k2, eps2, side2) in table.items():
        f = cx.fid[(cx.node_id[frozenset({pair_of(1, 2, k)})], eps, 1, side)]
        want = (cx.node_id[frozenset({pair_of(2, 1, k2)})], eps2, 2, side2)
        assert cx.flags[cx.sigma1[f]] == want, (k, eps, side)
        rows += 1
    dt = time.time() - t0
    verdict("2", rows == 16 and dt < 1.0,
            "all 16 rows of the two-curve table bit-exact; %.2fs" % dt)


def test_criterion_3_projective_census():
    t0 = time.time()
    cen = projective_census(3)
    connected = connectivity_check(cen)
    dt = time.time() - t0
    verdict("3", len(cen["plain_classes"]) == 13 and connected and dt < 10,
            "13 classes, flip graph connected; %.1fs" % dt)


def test_criterion_4_moebius_census_small():
    row2 = moebius_census(2)
    assert (row2["a"], row2["b"], row2["c"], row2["d"]) == (1, 1, 1, 1)
    row3 = moebius_census(3)
    assert (row3["a"], row3["b"], row3["c"], row3["d"]) == (118, 22, 16, 12)
    counts = moebius_chirotope_counts(3)
    verdict("4", counts["total"] == 531 and counts["simple"] == 118,
            "rows (1,1,1,1) and (118,22,16,12); 531 total / 118 simple "
            "chirotopes on 3 indices")


@pytest.mark.skipif(not os.environ.get("DPL_STRETCH"),
                    reason="long-running stretch target; set DPL_STRETCH=1")
def test_criterion_4_moebius_census_stretch():
    from dpl.mutation import moebius_census_rows
    row = moebius_census_rows(4, progress=100000)
    verdict("4*", (row["a"], row["b"], row["c"], row["d"])
            == (541820, 22620, 11502, 5955),
            "n=4 row %r" % row)


def test_criterion_5_shuffle_count():
    # independent oracle: enumerate circular interleavings of the two
    # elementary 4-cycles directly
    seen = set()
    ea = ["a1", "a2", "a3", "a4"]
    eb = ["b1", "b2", "b3", "b4"]
    for rot in range(4):
        for pos in combinations(range(1, 8), 3):
            posa = (0,) + pos
            word = []
            ia = ib = 0
            for p in range(8):
                if p in posa:
                    word.append(ea[ia]); ia += 1
                else:
                    word.append(eb[(ib + rot) % 4]); ib += 1
            seen.add(min(tuple(word[r:] + word[:r]) for r in range(8)))
    s3 = len(seen)
    printed_formula = (1 / 8) * 40320 / (24 ** 2)   # as printed: 8.75
    direct = 4 * 35                                  # 4 * C(7,3)
    print("  printed closed formula evaluates to %.2f at n=3; direct "
          "count is %d (discrepancy reported, not asserted)"
          % (printed_formula, direct))
    verdict("5", s3 == 140 and direct == 140 and abs(printed_formula - 140) > 1,
            "s3 = %d by direct enumeration" % s3)


def test_criterion_6_higher_genus_fixtures():
    t0 = time.time()
    m1s = catalog.arrangement("M1star")
    assert m1s.genus == 3 and m1s.f_vector == {2: 3, 4: 15, 5: 3, 6: 1, 9: 1}
    m2s = catalog.arrangement("M2star")
    assert m2s.genus == 3 and m2s.f_vector == {2: 4, 4: 14, 5: 3, 8: 1, 9: 1}
    u4 = catalog.arrangement("AllC64_4")
    assert u4.genus == 7 and u4.f_vector == {2: 12, 8: 3, 12: 4}
    expected = {
        5: (14, {2: 20, 5: 1, 10: 1, 16: 5, 25: 1}),
        6: (21, {2: 30, 12: 5, 20: 6}),
        7: (33, {2: 42, 7: 1, 14: 2, 24: 7, 49: 1}),
        8: (43, {2: 56, 16: 7, 28: 8}),
        9: (58, {2: 72, 9: 1, 18: 3, 27: 3, 32: 9}),
    }
    for n, (genus, fvec) in expected.items():
        arr = all_c64(n)
        assert arr.genus == genus, n
        assert arr.f_vector == fvec, n
    dt = time.time() - t0
    verdict("6", dt < 30, "M1*, M2*, 4..9 curve genus series with face "
                          "multisets; %.1fs" % dt)


def test_criterion_7_chirotope_theorems():
    t0 = time.time()
    # injectivity over every indexed-oriented class on three indices
    cen = projective_census(3)
    from dpl.arrangement import from_disk_only
    chi_keys = set()
    for key, words in cen["indexed_classes"].items():
        chi_keys.add(chirotope_of(
            from_disk_only(dict(zip(cen["indices"], words)))).key())
    assert len(chi_keys) == len(cen["indexed_classes"]) == 216

    M1 = catalog.arrangement("M1")
    for J, want in [((1, 2, 3), ("C22", (1, -2, -3))),
                    ((1, 3, 4), ("C22", (1, -3, -4))),
                    ((1, 2, 4), ("C22", (1, -4, -2))),
                    ((2, 3, 4), ("C04", (2, 3, 4)))]:
        assert M1.restriction(J).key() == class_version(*want).key()
    M2 = catalog.arrangement("M2")
    for J, want in [((1, 2, 3), ("C22", (1, 2, 3))),
                    ((2, 3, 4), ("C22", (4, 2, -3))),
                    ((1, 2, 4), ("C32", (1, 4, 2))),
                    ((1, 3, 4), ("C32", (1, 4, 3)))]:
        assert M2.restriction(J).key() == class_version(*want).key()

    ct5 = cyclic_thin(5)
    assert reconstruct(chirotope_of(ct5)).key() == ct5.key()
    chi1 = chirotope_of(M1)
    assert chirotope_of(catalog.arrangement("M1star")) == chi1
    assert reconstruct(chi1, genus_one=True).key() == M1.key()

    from importlib import resources
    with resources.files("dpl").joinpath(
            "catalog_data", "allC04_n5.chi").open() as fh:
        chi04 = parse_chirotope(fh.read())
    assert is_k_chirotope(chi04, 4)
    ok5, diag = is_k_chirotope(chi04, 5, diagnose=True)
    assert not ok5 and diag["carrier"] == 1

    triples = {frozenset(J): class_version("C32", J)
               for J in [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]}
    assert not is_k_chirotope(Chirotope(triples), 4)
    dt = time.time() - t0
    verdict("7", dt < 30,
            "injectivity at n=3, verbatim martagon entries, round trips, "
            "k=4/k=5 accept/reject; %.1fs" % dt)


def test_criterion_8_property_suites():
    # pumping, exhaustively at three curves
    for name in catalog.THIRTEEN:
        arr = catalog.arrangement(name)
        for gamma in arr.indices:
            assert pumping_check(arr, gamma), (name, gamma)

    # martagon census over the enumerated genus-one classes
    cen = projective_census(3)
    from dpl.arrangement import from_disk_only
    martagons = set()
    for pkey, keys in cen["plain_classes"].items():
        words = cen["indexed_classes"][keys[0]]
        arr = from_disk_only(dict(zip(cen["indices"], words)))
        if any(arr.is_martagon(i) for i in arr.indices):
            martagons.add(pkey)
    want = {catalog.arrangement(n).complex.canonical_key()
            for n in ("C22", "C32")}
    assert martagons == want

    # merge then reverse split, fuzzed; each merge and each split is a move
    random.seed(20260811)
    moves = 0
    arr = cyclic_thin(3)
    while moves < 10**4:
        tris = triangles(arr)
        t, m = random.choice(tris)
        merged = apply_move(arr, MutationMove("merge", t, m))
        node = next(nd for nd in merged.nodes
                    if len({abs(x) for p in nd for x in p}) >= 3)
        back = apply_move(merged, inverse_split(arr, merged, node, m))
        assert back.key() == arr.key()
        moves += 2
        arr = apply_move(arr, MutationMove("flip", *random.choice(tris)))
        moves += 1

    # act is a group action (on words, against composed permutations)
    from dpl.mutation import _words_key, act_words
    from dpl.words import SignedPermutation
    idx = (1, 2, 3)
    words = tuple(cyclic_thin(3).disk[i] for i in idx)
    perms = SignedPermutation.all(idx)
    for _ in range(200):
        s, t = random.choice(perms), random.choice(perms)
        assert (act_words(s * t, idx, words)
                == act_words(t, idx, act_words(s, idx, words)))

    # enumeration order independence: the classes are closed under the
    # signed relabelings, so a walk from any version of the seed finds them
    keys = projective_census(3)["indexed_classes"]
    assert all(_words_key(act_words(s, idx, w)) in keys
               for w in keys.values() for s in perms)
    verdict("8", True, "pumping, martagon census {C22,C32}, 10^4-move "
                       "merge/split fuzz, group action, order independence")


def test_criterion_9_cocycle_algebra():
    from dpl.cocycles import CocycleLabel, load_fixture, orbit, parse_label
    from dpl.words import SignedPermutation
    random.seed(5)
    # overline-reversal involution, fuzzed
    for _ in range(500):
        w = tuple(random.choice([0, 1, 2, 3, -1, -2, -3])
                  for _ in range(random.randint(1, 8)))
        lab = CocycleLabel([("word", w)])
        assert lab.overline_reverse() == lab

    two, q2 = load_fixture("bitangent2")
    assert len(orbit(two, SignedPermutation.all((1, 2)))) == 4

    three, q3 = load_fixture("bitangent3")
    if q3:
        verdict("9", False, "quarantined representatives block the count: "
                            "%r" % q3)
    union = orbit(three, SignedPermutation.all((1, 2, 3)))
    verdict("9", len(union) == 104,
            "involution fuzzed, 2-body orbit 4, 3-body orbit union %d"
            % len(union))
