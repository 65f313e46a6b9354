"""The benchmark's three workloads: ``census``, ``mutate`` and ``query``.

A workload is built once per set-up from a seed (its inputs), warms up
with one call per kind of operation, and then runs passes.  Every pass
attempts the same operations in the same order, so every pass has the
same number of operations and the same failing ones.  A pass records every
output and the data each output check needs.  The checks run after the
first pass, outside its timing and outside any traced span; every later
pass must give outputs equal to the first pass's (compared by
``digest``), which costs far less than checking them again.
"""

import contextlib
import io
import random
import time
from importlib import resources
from itertools import combinations

import checks
import speed

FAILED = object()


class Pass:
    """One pass over a workload's operations: timings, failures, checks."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.scale = speed.Scale()   # yardsticks between the operations
        self.labels = []        # label per timed operation, as in scale.raw
        self.attempted = 0
        self.failed = 0
        self.errors = {}        # label -> first exception of that label
        self.outputs = []       # (label, output or FAILED) per operation
        self.checks = []        # (check, args), run after the first pass

    def op(self, label, fn, *args):
        """Time one operation; FAILED if it raised."""
        self.scale.tick()
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.setdefault(label, "%s: %s" % (type(exc).__name__, exc))
            out = FAILED
        finally:
            self.scale.record(time.perf_counter() - t0)
            self.labels.append(label)
            if self.tracer is not None:
                self.tracer.op = -1
        self.outputs.append((label, out))
        return out

    def close(self):
        """End the pass; the (label, seconds at the reference speed) of
        every operation it timed."""
        self.scale.close()
        return list(zip(self.labels, self.scale.scaled()))

    def skip(self, label, count):
        """Count ``count`` operations that could not run as failed."""
        self.attempted += count
        self.failed += count
        self.errors.setdefault(label, "skipped after an earlier failure")
        self.outputs.extend([(label, FAILED)] * count)

    def digests(self, digest):
        """One comparable value per operation; None for a failed one."""
        return [None if out is FAILED else digest(label, out)
                for label, out in self.outputs]

    def check(self, fn, *args):
        self.checks.append((fn, args))


def _vef(arr):
    return (arr.vertex_count, arr.edge_count, len(arr.complex.faces))


def _curves_at(node):
    return len({abs(x) for pair in node for x in pair})


def _corners(arr, t):
    """The vertices around face ``t``."""
    cx = arr.complex
    return {cx.node_list[cx.flags[f][0]] for f in cx.faces[t]}


# ---------------------------------------------------------------------------
# census


class Census:
    """The public census calls at n <= 3 (about 4.6 s a pass).

    The census engines do nearly all the work: SimpleState, flips, marked
    tags, quotients, min_rotation and act_words.  The census inputs are
    fixed; the seed only shuffles the order of the calls.
    """

    CALLS = (("projective_census", 3), ("moebius_census", 2),
             ("moebius_census", 3), ("moebius_census_rows", 2),
             ("moebius_census_rows", 3))

    def __init__(self, dpl, seed, workdir):
        self.dpl = dpl
        fixtures = {f.name: f for f in dpl.catalog.all()}
        self.thirteen_aut = {name: fixtures[name].expected["aut_order"]
                             for name in dpl.catalog.THIRTEEN}
        self.calls = list(self.CALLS)
        random.Random(seed).shuffle(self.calls)

    def warm_up(self):
        m = self.dpl.mutation
        m.projective_census(2)
        m.moebius_census(2)
        m.moebius_census_rows(2)

    def run_pass(self, p):
        m = self.dpl.mutation
        for label, n in self.calls:
            out = p.op(label, getattr(m, label), n)
            if out is FAILED:
                continue
            if label == "projective_census":
                p.check(self._check_projective, out)
            else:
                p.check(checks.check_census_row, n, out)

    @staticmethod
    def digest(label, out):
        if label == "projective_census":
            return (len(out["indexed_classes"]), len(out["edges"]),
                    sorted(len(keys) for keys in out["plain_classes"].values()))
        return sorted(out.items())

    def _check_projective(self, out):
        checks.check_projective_census(
            [len(keys) for keys in out["plain_classes"].values()],
            len(out["indexed_classes"]),
            checks.is_connected(out["indexed_classes"], out["edges"]),
            self.thirteen_aut)


# ---------------------------------------------------------------------------
# mutate


class Mutate:
    """A seeded merge / split / flip walk on genus-one arrangements.

    For n = 3, 4, 5 the walk starts from ``cyclic_thin(n)``.  A step
    merges a seeded triangle onto its opposite vertex (choosing the locus
    is part of the operation), releases the moving curve off the merged
    vertex to side "a", and flips a seeded triangle of the arrangement the
    step started from.  The merge has already built that arrangement's flag
    complex, so the flip does not build one.  The step counts put the
    median operation among the n = 4 merges and flips.  The three walks
    take turns; each walk's steps are the same whatever the order.
    """

    STEPS = {3: 64, 4: 24, 5: 16}

    def __init__(self, dpl, seed, workdir):
        self.dpl = dpl
        self.seed = seed

    def warm_up(self):
        a, m = self.dpl.arrangement, self.dpl.mutation
        arr = a.cyclic_thin(3)
        rng = random.Random(0)
        curve, merged = self._merge(arr, rng)
        self._split(merged, curve)
        self._flip(arr, rng)

    def _merge(self, arr, rng):
        m = self.dpl.mutation
        t, curve = rng.choice(m.triangles(arr))
        return curve, m.apply_move(arr, m.MutationMove("merge", t, curve))

    def _split(self, merged, curve):
        m = self.dpl.mutation
        node = next(nd for nd in merged.nodes if _curves_at(nd) >= 3)
        return node, m.apply_move(merged, m.MutationMove("split", node, curve, "a"))

    def _flip(self, arr, rng):
        m = self.dpl.mutation
        t, curve = rng.choice(m.triangles(arr))
        return t, m.apply_move(arr, m.MutationMove("flip", t, curve))

    def run_pass(self, p):
        # The three walks take turns, each spread evenly over the pass, so
        # that the n = 4 operations, which hold the median, meet all of the
        # pass's changes of machine speed.  Each walk keeps its own rng.
        walks = {n: [random.Random("%d-%d" % (self.seed, n)),
                     self.dpl.arrangement.cyclic_thin(n)]
                 for n in self.STEPS}
        turns = sorted(((k + 0.5) / steps, n)
                       for n, steps in self.STEPS.items() for k in range(steps))
        for _, n in turns:
            rng, arr = walks[n]
            if arr is None:         # an earlier step of this walk failed
                p.skip("step", 3)
                continue
            walks[n][1] = None
            out = p.op("merge", self._merge, arr, rng)
            if out is FAILED:
                p.skip("merge", 2)
                continue
            curve, merged = out
            out = p.op("split", self._split, merged, curve)
            if out is FAILED:
                p.skip("split", 1)
                continue
            node, released = out
            out = p.op("flip", self._flip, arr, rng)
            if out is FAILED:
                continue
            t, flipped = out
            p.check(self._check_step, arr, merged, node, curve, released,
                    t, flipped)
            walks[n][1] = flipped

    @staticmethod
    def digest(label, out):
        return out[0], out[1].key()

    def _check_step(self, arr, merged, node, curve, released, t, flipped):
        m = self.dpl.mutation
        checks.check_merge(_vef(arr), _vef(merged), arr.genus, merged.genus,
                           max(_curves_at(nd) for nd in merged.nodes))
        side_keys = {released.key()}
        if released.key() != arr.key():
            other = m.apply_move(merged, m.MutationMove("split", node, curve, "b"))
            side_keys.add(other.key())
        checks.check_split(arr.key(), side_keys)
        # The inverted triangle has the same three corners; try it first.
        corners = _corners(arr, t)
        tris = sorted(m.triangles(flipped),
                      key=lambda tc: _corners(flipped, tc[0]) != corners)
        restores = any(
            m.apply_move(flipped, m.MutationMove("flip", t2, c)).key()
            == arr.key() for t2, c in tris)
        checks.check_flip(_vef(arr), _vef(flipped), flipped.is_simple(),
                          flipped.genus, restores)


# ---------------------------------------------------------------------------
# query


class Query:
    """CLI verbs run in-process through ``dpl.cli.main``.

    Inputs: the catalog fixtures; ``all_c64(n)`` for n = 4..9; a seeded
    relabeling of ``all_c64(6)`` for ``stats``; for n = 3..6 a seeded
    arrangement (2n seeded flips from ``cyclic_thin(n)``, then a seeded
    signed relabeling), a relabeled and a rotated copy of it, and the
    chirotope file the ``chirotope`` verb writes for it; the bundled
    ``allC04_n5.chi``; and two malformed files.
    """

    SIZES = (3, 4, 5, 6)
    # k of ``check --k`` per size; k = 4 at n = 6 alone takes 2.2 s.
    CHECK_K = {4: (4,), 5: (4, 5)}

    def __init__(self, dpl, seed, workdir):
        self.dpl = dpl
        a, m, w = dpl.arrangement, dpl.mutation, dpl.words
        rng = random.Random(seed)
        workdir.mkdir(parents=True)
        self.dir = workdir
        self.fixtures = {f.name: f for f in dpl.catalog.all()}
        self.flag_aut = {}
        self.chi04 = str(resources.files(dpl.catalog.__package__)
                         .joinpath("catalog_data", "allC04_n5.chi"))

        self.c64 = {n: self._write("c64_%d" % n, a.all_c64(n))
                    for n in checks.ALL_C64_GENUS}
        group6 = w.SignedPermutation.all(tuple(range(1, 7)))
        self.c64_stats = a.all_c64(6).act(rng.choice(group6))
        self.c64_stats_path = self._write("c64_6_relabeled", self.c64_stats)

        self.seeded = {}
        for n in self.SIZES:
            arr = a.cyclic_thin(n)
            for _ in range(2 * n):
                t, curve = rng.choice(m.triangles(arr))
                arr = m.apply_move(arr, m.MutationMove("flip", t, curve))
            group = w.SignedPermutation.all(arr.indices)
            arr = arr.act(rng.choice(group))
            relabeled = arr.act(rng.choice(group))
            shift = rng.randrange(1, 4 * (n - 1))
            self.seeded[n] = {
                "arr": arr,
                "path": self._write("seeded_%d" % n, arr),
                "relabeled": self._write("relabeled_%d" % n, relabeled),
                "rotated": self._write_text("rotated_%d" % n,
                                            self._rotated_text(arr, shift)),
                "chi": str(workdir / ("seeded_%d.chi" % n)),
                "dot_nodes": {"flag": 4 * arr.edge_count,
                              "dual": len(arr.complex.faces)},
            }
        self.bad_dpl = self._write_text("bad_header", "indices: 1 x\n"
                                        "D 1: -2 -2 2 2\nD 2: -1 -1 1 1\n")
        self.bad_chi = self._write_text("bad_entry", "indices: 1 2 3\n"
                                        "chi 1 2 3: C04(1 2)\n")

    def _write_text(self, stem, text):
        path = self.dir / stem
        path.write_text(text)
        return str(path)

    def _write(self, stem, arr):
        return self._write_text(stem + ".dpl", arr.to_text(name=stem))

    @staticmethod
    def _rotated_text(arr, shift):
        """The arrangement's text with every side cycle rotated by ``shift``."""
        def rot(word):
            return " ".join(str(x) for x in word[shift:] + word[:shift])
        lines = ["indices: %s" % " ".join(map(str, arr.indices))]
        lines += ["D %d: %s" % (i, rot(arr.disk[i])) for i in arr.indices]
        lines += ["M %d: %s" % (i, rot(arr.crosscap[i])) for i in arr.indices]
        return "\n".join(lines) + "\n"

    def cli(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.dpl.cli.main(list(argv))
        return code, out.getvalue()

    def warm_up(self):
        chi = str(self.dir / "warm_up.chi")
        self.cli("validate", "C04")
        self.cli("stats", "C04")
        self.cli("iso", "C04", "C07")
        self.cli("iso", "C04", "C04", "--indexed", "--oriented")
        code, text = self.cli("chirotope", "C04")
        with open(chi, "w") as fh:
            fh.write(text)
        self.cli("check", chi, "--k", "3")
        self.cli("reconstruct", chi)
        self.cli("dot", "C04", "--graph", "dual")
        self.cli("enumerate", "--n", "2", "--setting", "moebius")

    # -- the pass -----------------------------------------------------------

    def run_pass(self, p):
        # The iso calls on the 78 pairs of the thirteen classes hold the
        # median operation.  One pair runs after each other verb, so that
        # they spread over the whole pass and its changes of machine speed.
        pairs = iter(combinations(self.dpl.catalog.THIRTEEN, 2))

        def iso_pair(a, b):
            out = p.op("iso", self.cli, "iso", a, b)
            if out is not FAILED:
                p.check(self._check_iso, out, False)

        def verb(label, *argv):
            out = p.op(label, self.cli, *argv)
            pair = next(pairs, None)
            if pair is not None:
                iso_pair(*pair)
            return out

        for name, fx in self.fixtures.items():
            for v in ("validate", "stats"):
                out = verb(v, v, name)
                if out is not FAILED:
                    p.check(self._check_fixture, fx, v, out)
        for n, path in self.c64.items():
            out = verb("validate", "validate", path)
            if out is not FAILED:
                p.check(self._check_genus, n, out)
        out = verb("stats", "stats", self.c64_stats_path)
        if out is not FAILED:
            p.check(self._check_stats, self.c64_stats, out)

        for n, s in self.seeded.items():
            arr = s["arr"]
            out = verb("validate", "validate", s["path"])
            if out is not FAILED:
                p.check(self._check_seeded, out)
            if n <= 5:
                out = verb("stats", "stats", s["path"])
                if out is not FAILED:
                    p.check(self._check_stats, arr, out)
            out = verb("iso", "iso", s["path"], s["relabeled"])
            if out is not FAILED:
                p.check(self._check_iso, out, True)
            out = verb("iso-indexed", "iso", s["path"], s["rotated"],
                       "--indexed", "--oriented")
            if out is not FAILED:
                p.check(self._check_iso, out, True)
            for graph, nodes in s["dot_nodes"].items():
                out = verb("dot", "dot", s["path"], "--graph", graph)
                if out is not FAILED:
                    p.check(self._check_dot, out, graph, nodes)
            out = verb("chirotope", "chirotope", s["path"])
            if out is FAILED:
                continue
            with open(s["chi"], "w") as fh:
                fh.write(out[1])
            p.check(self._check_chirotope, arr, out)
            for k in self.CHECK_K.get(n, ()):
                out = verb("check", "check", s["chi"], "--k", str(k))
                if out is not FAILED:
                    p.check(self._check_accepted, out, k, True, None)
            if n <= 5:
                out = verb("reconstruct", "reconstruct", s["chi"])
                if out is not FAILED:
                    p.check(self._check_reconstructed, arr, out)

        for pair in pairs:
            iso_pair(*pair)
        for k, want, carrier in ((4, True, None), (5, False, 1)):
            out = verb("check", "check", self.chi04, "--k", str(k))
            if out is not FAILED:
                p.check(self._check_accepted, out, k, want, carrier)

        # These three fail every time today; see README.md.
        out = verb("enumerate-all", "enumerate", "--n", "2", "--setting",
                   "moebius", "--all")
        if out is not FAILED:
            p.check(self._check_json, checks.check_moebius_all_row, out)
        out = verb("validate-bad-header", "validate", self.bad_dpl)
        if out is not FAILED:
            p.check(self._check_json, checks.check_structured_error, out)
        out = verb("check-bad-entry", "check", self.bad_chi)
        if out is not FAILED:
            p.check(self._check_json, checks.check_structured_error, out)

    # -- checks ------------------------------------------------------------

    @staticmethod
    def digest(label, out):
        return out

    def _aut(self, arr):
        key = arr.key()
        if key not in self.flag_aut:
            self.flag_aut[key] = arr.complex.flag_graph_automorphism_order()
        return self.flag_aut[key]

    @staticmethod
    def _check_json(check, out):
        code, text = out
        check(code, checks.parse_json(text))

    def _check_fixture(self, fx, verb, out):
        code, text = out
        data = checks.parse_json(text)
        checks.check_fixture(fx.name, code, data, fx.expected)
        if verb == "stats":
            checks.check_stats(fx.arrangement.n, code, data,
                               self._aut(fx.arrangement))

    def _check_genus(self, n, out):
        code, text = out
        checks.check_genus(n, code, checks.parse_json(text))

    def _check_stats(self, arr, out):
        code, text = out
        checks.check_stats(arr.n, code, checks.parse_json(text), self._aut(arr))

    def _check_seeded(self, out):
        code, text = out
        data = checks.parse_json(text)
        checks.require(code == 0 and data["genus"] == 1 and data["simple"],
                       "a flip walk from cyclic_thin left genus one or "
                       "simplicity: %r", text[:80])

    def _check_iso(self, out, want):
        code, text = out
        checks.check_iso(code, checks.parse_json(text), want)

    def _check_dot(self, out, graph, nodes):
        code, text = out
        checks.require(code == 0, "dot: exit %r", code)
        checks.check_dot(text, graph, nodes)

    def _check_chirotope(self, arr, out):
        code, text = out
        checks.require(code == 0, "chirotope: exit %r", code)
        ch = self.dpl.chirotope
        named, restricted = {}, {}
        for line in text.splitlines():
            if not line.startswith("chi "):
                continue
            head, _, body = line[4:].partition(":")
            triple = tuple(int(t) for t in head.split())
            body = body.strip()
            named[triple] = None
            if body.endswith(")"):
                name, _, images = body[:-1].partition("(")
                named[triple] = ch.class_version(
                    name.strip(), tuple(int(t) for t in images.split())).key()
            restricted[triple] = arr.restriction(triple).key()
        checks.check_chirotope_names(text, arr.n, named, restricted)

    def _check_accepted(self, out, k, want, carrier):
        code, text = out
        checks.check_accepted(code, checks.parse_json(text), k, want, carrier)

    def _check_reconstructed(self, arr, out):
        code, text = out
        key = self.dpl.arrangement.parse_text(text).key() if code == 0 else None
        checks.check_reconstructed(code, key, arr.key())


WORKLOADS = {"census": Census, "mutate": Mutate, "query": Query}
