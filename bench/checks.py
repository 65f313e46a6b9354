"""Output checks of the benchmark workloads.

Every check compares an output with a published number, with a value
recorded in the catalog's ``expected.json``, or with a property the
method must have (a merge lowers the vertex, edge and face counts by 2, 3
and 1; a split restores what a merge collapsed; |Aut| times the orbit
count is the order of the signed group).  None of them copies an output
of the program as it is today.  A failed check raises :class:`CheckFailed`.
"""

import json
from math import factorial

# The thirteen simple three-curve classes and the crosscap census rows.
PLAIN_CLASSES_3 = 13
MOEBIUS_ROWS = {2: (1, 1, 1, 1), 3: (118, 22, 16, 12)}
# Genus of all_c64(n) for n = 4..9.
ALL_C64_GENUS = {4: 7, 5: 14, 6: 21, 7: 33, 8: 43, 9: 58}


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def require(ok, message, *args):
    if not ok:
        raise CheckFailed(message % args if args else message)


def signed_group_order(n):
    return factorial(n) << n


# ---------------------------------------------------------------------------
# census


def check_projective_census(plain_sizes, indexed, connected, thirteen_aut):
    """``projective_census(3)``: 13 plain classes, connected flip graph.

    ``plain_sizes`` lists the number of indexed-oriented classes in each
    plain class; ``thirteen_aut`` maps the thirteen catalog classes to
    |Aut| from ``expected.json``.  Each plain class must hold 48/|Aut| of
    them, so their total is the sum of 48/|Aut|, which is 216.
    """
    require(len(plain_sizes) == PLAIN_CLASSES_3,
            "%d plain classes, want %d", len(plain_sizes), PLAIN_CLASSES_3)
    require(connected, "flip graph is not connected")
    group = signed_group_order(3)
    want = sorted(group // aut for aut in thirteen_aut.values())
    require(sum(want) == 216, "expected.json gives sum 48/|Aut| = %d, not 216",
            sum(want))
    require(indexed == sum(want), "%d indexed-oriented classes, want %d",
            indexed, sum(want))
    require(sorted(plain_sizes) == want,
            "plain class sizes %r, want 48/|Aut| = %r", sorted(plain_sizes), want)


def check_census_row(n, row):
    """A crosscap census row ``{"a", "b", "c", "d"}`` against the paper."""
    got = (row["a"], row["b"], row["c"], row["d"])
    require(got == MOEBIUS_ROWS[n], "row %r at n=%d, want %r",
            got, n, MOEBIUS_ROWS[n])


# ---------------------------------------------------------------------------
# mutations


def check_merge(vef_before, vef_after, genus_before, genus_after, max_curves):
    """A merge collapses a triangle onto a vertex: (V, E, F) drops by
    (2, 3, 1), the genus stays and some vertex carries >= 3 curves."""
    drop = tuple(b - a for b, a in zip(vef_before, vef_after))
    require(drop == (2, 3, 1), "merge lowered (V, E, F) by %r, want (2, 3, 1)",
            drop)
    require(genus_after == genus_before, "merge changed genus %d -> %d",
            genus_before, genus_after)
    require(max_curves >= 3, "merge left no vertex with 3 or more curves")


def check_split(key_before_merge, side_keys):
    """One of the two releases of the moving curve undoes the merge."""
    require(key_before_merge in side_keys,
            "no split side restores the arrangement before the merge")


def check_flip(vef_before, vef_after, simple, genus, restores):
    """A flip keeps (V, E, F), simplicity and genus one, and is undone by
    some flip of its result."""
    require(vef_after == vef_before, "flip changed (V, E, F) %r -> %r",
            vef_before, vef_after)
    require(simple, "flip result is not simple")
    require(genus == 1, "flip result has genus %d", genus)
    require(restores, "no flip of the result restores the previous arrangement")


# ---------------------------------------------------------------------------
# CLI verbs


def parse_json(out):
    """The JSON object a verb printed, or CheckFailed."""
    try:
        data = json.loads(out)
    except ValueError:
        raise CheckFailed("output is not JSON: %r" % out[:80]) from None
    require(isinstance(data, dict), "output is not a JSON object")
    return data


def check_fixture(name, code, data, expected):
    """``validate`` or ``stats`` on a catalog fixture against expected.json."""
    require(code == 0, "%s: exit %r", name, code)
    for key in ("genus", "simple", "thin", "aut_order", "orbit_count",
                "martagon_curves"):
        if key in data and key in expected:
            require(data[key] == expected[key], "%s: %s is %r, want %r",
                    name, key, data[key], expected[key])
    want_f = {str(k): v for k, v in expected["f_vector"].items()}
    require(data["f_vector"] == want_f, "%s: f_vector %r, want %r",
            name, data["f_vector"], want_f)


def check_genus(n, code, data):
    """``validate`` on all_c64(n): genus 7, 14, 21, 33, 43, 58 for n=4..9."""
    require(code == 0, "all_c64(%d): exit %r", n, code)
    require(data["genus"] == ALL_C64_GENUS[n], "all_c64(%d) has genus %r, want %d",
            n, data["genus"], ALL_C64_GENUS[n])


def check_stats(n, code, data, flag_aut):
    """``stats``: |Aut| equals the flag-graph automorphism order, and
    |Aut| x orbit count is the order n! 2^n of the signed group."""
    require(code == 0, "stats: exit %r", code)
    aut, orbits = data["aut_order"], data["orbit_count"]
    require(aut == flag_aut, "aut_order %r, flag-graph automorphisms %r",
            aut, flag_aut)
    require(aut * orbits == signed_group_order(n),
            "aut_order %r x orbit_count %r != %d", aut, orbits,
            signed_group_order(n))


def check_iso(code, data, want):
    require(data.get("isomorphic") is want, "iso answered %r, want %r",
            data.get("isomorphic"), want)
    require(code == (0 if want else 1), "iso exit %r for verdict %r", code, want)


def check_chirotope_names(text, n, named_keys, restriction_keys):
    """``chirotope``: one line per triple, and every named entry is the
    class version whose key is the restriction's key.

    ``named_keys`` maps each triple to the key of the class version its
    name stands for (None for unnamed entries); ``restriction_keys`` maps
    it to the key of the arrangement restricted to the triple.
    """
    lines = [l for l in text.splitlines() if l.startswith("chi ")]
    want = n * (n - 1) * (n - 2) // 6
    require(len(lines) == want, "%d chirotope entries, want %d", len(lines), want)
    for triple, key in named_keys.items():
        if key is not None:
            require(key == restriction_keys[triple],
                    "entry %r names a class that is not the restriction", triple)


def check_accepted(code, data, k, want, carrier=None):
    """``check --k``: the verdict, and the witness carrier on rejection."""
    require(data.get("accepted") is want and data.get("k") == k,
            "check --k %d answered %r, want %r", k, data.get("accepted"), want)
    require(code == (0 if want else 1), "check exit %r", code)
    if carrier is not None:
        got = data.get("witness", {}).get("carrier")
        require(got == carrier, "witness carrier %r, want %r", got, carrier)


def check_reconstructed(code, key, source_key):
    require(code == 0, "reconstruct: exit %r", code)
    require(key == source_key, "reconstruct returned another arrangement")


def check_dot(text, graph, nodes):
    """``dot``: a flag graph has 4E nodes, a dual graph one per face."""
    head = "graph flags {" if graph == "flag" else "graph dual {"
    require(text.startswith(head) and text.rstrip().endswith("}"),
            "malformed DOT output")
    got = sum(1 for l in text.splitlines() if "[label=" in l and "--" not in l)
    require(got == nodes, "%s graph has %d nodes, want %d", graph, got, nodes)


def check_moebius_all_row(code, data):
    """``enumerate --n 2 --setting moebius --all``: two curves have no
    multiple vertex, so the row is the simple row (1, 1, 1, 1)."""
    require(code == 0, "enumerate exit %r", code)
    check_census_row(2, data)


def check_structured_error(code, data):
    """Malformed input ends in a structured error with exit 1 or 2."""
    require(code in (1, 2), "exit %r on malformed input, want 1 or 2", code)
    require(isinstance(data.get("code"), str), "error report has no code")


def is_connected(keys, edges):
    """Is the graph on ``keys`` with the given edge pairs connected?"""
    keys = set(keys)
    adj = {k: [] for k in keys}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    todo = [next(iter(keys))] if keys else []
    seen = set(todo)
    while todo:
        for u in adj[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return seen == keys
