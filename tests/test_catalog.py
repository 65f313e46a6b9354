import pytest

from dpl import catalog
from dpl.cli import main
from dpl.errors import UnknownFixture
from dpl.flags import automorphism_order, orbit_count


def test_names_cover_required_fixtures():
    have = set(catalog.names())
    required = set(catalog.THIRTEEN) | {
        "M1", "M2", "M1star", "M2star", "AllC64_4", "TwoCurve",
        "Upsilon", "UpsilonSplit"}
    assert required <= have


def test_unknown_fixture():
    with pytest.raises(UnknownFixture):
        catalog.get("C99")


def test_fixture_self_consistency():
    """The golden suite: every fixture validates and matches every
    expected field."""
    for fx in catalog.all():
        arr = fx.arrangement
        exp = fx.expected
        assert arr.genus == exp["genus"], fx.name
        got_f = {str(k): v for k, v in sorted(arr.f_vector.items())}
        assert got_f == exp["f_vector"], fx.name
        assert automorphism_order(arr) == exp["aut_order"], fx.name
        assert orbit_count(arr) == exp["orbit_count"], fx.name
        assert arr.is_simple() == exp["simple"], fx.name
        assert arr.is_thin() == exp["thin"], fx.name


def test_expected_table_is_each_fixtures_own(capsys):
    """Fixtures share their arrangement but not their expected table."""
    assert main(["catalog", "C04"]) == 0
    want = capsys.readouterr().out
    fx = catalog.get("C04")
    assert catalog.get("C04").arrangement is fx.arrangement
    fx.expected["genus"] = 99
    fx.expected["f_vector"]["3"] = -1
    fx.expected.clear()
    again = catalog.get("C04")
    assert again.expected["genus"] == 1
    assert again.expected["f_vector"] == {"3": 4, "4": 9}
    assert main(["catalog", "C04"]) == 0
    assert capsys.readouterr().out == want
    test_fixture_self_consistency()


def test_thirteen_are_the_projective_classes():
    keys = {catalog.arrangement(n).complex.canonical_key()
            for n in catalog.THIRTEEN}
    assert len(keys) == 13


def test_starred_orbit_disputed():
    # the published figure count for this class disagrees with the
    # stabilizer computation; the catalog records both
    assert catalog.ORBIT_DISPUTED == ("C15",)
    arr = catalog.arrangement("C15")
    assert catalog.PUBLISHED_ORBITS["C15"] == 2
    assert orbit_count(arr) == 24


def test_published_orbit_counts_match_computed_except_disputed():
    for name in catalog.THIRTEEN:
        if name in catalog.ORBIT_DISPUTED:
            continue
        assert (orbit_count(catalog.arrangement(name))
                == catalog.PUBLISHED_ORBITS[name]), name
