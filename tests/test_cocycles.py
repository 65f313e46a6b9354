import doctest

import pytest
from hypothesis import given, settings, strategies as st

from dpl import cocycles
from dpl.cocycles import (
    CocycleLabel,
    TOUCH,
    format_label,
    load_fixture,
    orbit,
    parse_label,
)
from dpl.errors import DplError, MalformedWord
from dpl.words import SignedPermutation

G2 = SignedPermutation.all((1, 2))
G3 = SignedPermutation.all((1, 2, 3))

letters = st.one_of(st.just(TOUCH),
                    st.integers(1, 3), st.integers(-3, -1))


def words(min_size=1):
    return st.lists(letters, min_size=min_size, max_size=8)


class TestNormalization:
    def test_overline_reversal_identity(self):
        # (1 . -2 . -3 .) and (. 3 . 2 . -1) are the same label
        assert parse_label("1 . -2 . -3 .") == parse_label(". 3 . 2 . -1")

    @given(words())
    def test_overline_reverse_is_fixed(self, w):
        lab = CocycleLabel([("word", tuple(w))])
        assert lab.overline_reverse() == lab

    @given(words(), st.integers(0, 7))
    def test_rotation_invariance(self, w, r):
        w = tuple(w)
        rot = w[r % len(w):] + w[:r % len(w)]
        assert CocycleLabel([("word", w)]) == CocycleLabel([("word", rot)])

    @given(words())
    def test_normalize_idempotent(self, w):
        lab = CocycleLabel([("word", tuple(w))])
        assert CocycleLabel(lab.parts) == lab

    def test_round_trip_format(self):
        lab = parse_label("1 2 . ., 3")
        assert parse_label(format_label(lab)) == lab


class TestAction:
    @given(words())
    def test_act_commutes_with_normalize(self, w):
        lab = CocycleLabel([("word", tuple(w))])
        for sigma in (G3[1], G3[7], G3[17]):
            img = lab.act(sigma)
            assert CocycleLabel(img.parts) == img

    def test_group_action(self):
        lab = parse_label("1 -3 2 . 3 .")
        for s in G3[:8]:
            for t in G3[40:]:
                assert lab.act(t).act(s) == lab.act(s * t)


class TestOrbits:
    def test_two_body_orbit_size_four(self):
        labels, quarantined = load_fixture("bitangent2")
        assert not quarantined
        assert len(orbit(labels, G2)) == 4

    def test_three_body_orbit_union_104(self):
        labels, quarantined = load_fixture("bitangent3")
        assert not quarantined, (
            "quarantined transcriptions block the count: %r" % quarantined)
        assert len(orbit(labels, G3)) == 104

    def test_piercing_configuration_labels(self):
        labels, _ = load_fixture("bitangent3")
        union = orbit(labels, G3)
        piercing = [parse_label(s) for s in
                    ("1 . -2 . -3 .", "1 . -3 . 2 .",
                     "1 . 2 . 3 .", "1 . 3 . -2 .")]
        assert len(set(piercing)) == 4
        assert all(lab in union for lab in piercing)


class TestParseBoundary:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(max_size=30),
        st.lists(st.sampled_from(["1", "-2", "3", ".", "0", "x", ",", " ",
                                  "1.5", ""]), max_size=10).map(" ".join)))
    def test_parse_label_returns_or_raises_dpl_error(self, line):
        try:
            parse_label(line)
        except DplError:
            pass

    @pytest.mark.parametrize("line", ["x", "1 x .", "1, 2.5"])
    def test_non_integer_letter(self, line):
        with pytest.raises(MalformedWord):
            parse_label(line)


def test_doctests():
    result = doctest.testmod(cocycles)
    assert (result.failed, result.attempted) == (0, 3)
