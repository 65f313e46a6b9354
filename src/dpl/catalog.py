"""Built-in fixtures: the thirteen simple three-curve classes and friends.

Fixtures live as data files next to this module so transcriptions stay
diff-reviewable; expected invariants are kept in ``expected.json`` and
asserted wholesale by the test suite.
"""

import json
from copy import deepcopy
from functools import cache
from importlib import resources

from .arrangement import parse_text
from .errors import UnknownFixture

THIRTEEN = ("C04", "C07", "C18", "C37", "C15", "C43", "C22",
            "C33", "C32", "C25_2", "C25_1", "C36", "C64")

# reindexed/reoriented version counts as published with the figures; the
# starred entry disagrees with the stabilizer computation (24) and is
# reported, not asserted.
PUBLISHED_ORBITS = {
    "C04": 2, "C07": 8, "C18": 12, "C37": 8, "C15": 2, "C43": 24,
    "C22": 12, "C33": 24, "C32": 24, "C25_2": 24, "C25_1": 48,
    "C36": 4, "C64": 2,
}
ORBIT_DISPUTED = ("C15",)


class Fixture:
    def __init__(self, name, arrangement, expected):
        self.name = name
        self.arrangement = arrangement
        self.expected = expected

    def __repr__(self):
        return "Fixture(%r)" % self.name


def _data(name):
    return resources.files(__package__).joinpath("catalog_data", name)


@cache
def _expected():
    with _data("expected.json").open() as fh:
        return json.load(fh)


@cache
def _parsed(name):
    with _data(name + ".dpl").open() as fh:
        return parse_text(fh.read())


def names():
    return tuple(sorted(_expected()))


def get(name):
    """Fixture by name; see :func:`names` for the catalog.  Its arrangement
    is shared (see :func:`arrangement`); its ``expected`` table is its own."""
    return Fixture(name, arrangement(name), deepcopy(_expected()[name]))


def all():
    return [get(n) for n in names()]


def arrangement(name):
    """The fixture's arrangement, parsed and validated once per process;
    every caller shares it, complex and keys included."""
    table = _expected()
    if name not in table:
        raise UnknownFixture("no fixture %r (have: %s)"
                             % (name, ", ".join(sorted(table))))
    return _parsed(name)
