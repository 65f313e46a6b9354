"""Spans around calls into dpl's public functions, patched in at run time.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install`
replaces each callable named in ``TARGETS`` in every ``dpl`` module
namespace that holds it (``validate``, for one, is bound in
``arrangement``, ``mutation``, ``chirotope`` and the package itself), and
:meth:`Tracer.remove` puts the originals back.

A span is one call: its name, start and end (``perf_counter_ns``), its own
id, the id of the span it was called from (-1 at the top) and the id of
the benchmark operation it belongs to.  A seventh field carries one
number about the call: the number of states a census walk returned, or 1
when the call returned and 0 when it raised.  Spans are kept in memory as
flat int64 records and written out once, when the run ends.
"""

import gzip
import importlib
import json
import os
import statistics
import sys
import time
from array import array

FIELDS = ("name", "start_ns", "end_ns", "span", "parent", "op", "extra")
WIDTH = len(FIELDS)

# (span name, module, attribute path).  Methods and properties are patched
# on their class; functions in every dpl module that imported them.
TARGETS = (
    ("words.min_rotation", "dpl.words", "min_rotation"),
    ("mutation.act_words", "dpl.mutation", "act_words"),
    ("mutation.SimpleState.build", "dpl.mutation", "SimpleState.__init__"),
    ("mutation.SimpleState.triangles", "dpl.mutation", "SimpleState.triangles"),
    ("mutation.SimpleState.face_sides", "dpl.mutation", "SimpleState.face_sides"),
    ("mutation.SimpleState.face_descriptors", "dpl.mutation",
     "SimpleState.face_descriptors"),
    ("mutation.walk.projective_census", "dpl.mutation", "projective_census"),
    ("mutation.walk.moebius_simple_census", "dpl.mutation",
     "moebius_simple_census"),
    ("mutation.walk.moebius_states", "dpl.mutation", "moebius_states"),
    ("mutation.walk.moebius_full_census", "dpl.mutation", "moebius_full_census"),
    ("mutation.quotient.moebius_census", "dpl.mutation", "moebius_census"),
    ("mutation.quotient.moebius_census_rows", "dpl.mutation",
     "moebius_census_rows"),
    ("mutation.apply_move", "dpl.mutation", "apply_move"),
    ("arrangement.validate", "dpl.arrangement", "validate"),
    ("arrangement.parse_text", "dpl.arrangement", "parse_text"),
    ("flags.FlagComplex.build", "dpl.flags", "FlagComplex.__init__"),
    ("flags.FlagComplex.faces", "dpl.flags", "FlagComplex.faces"),
    ("flags.face_sides", "dpl.flags", "FlagComplex.face_sides"),
    ("flags.canonical_key", "dpl.flags", "FlagComplex.canonical_key"),
    ("flags.stabilizer", "dpl.flags", "stabilizer"),
    ("chirotope.chirotope_of", "dpl.chirotope", "chirotope_of"),
    ("chirotope.extensions4", "dpl.chirotope", "extensions4"),
    ("chirotope.relations_from", "dpl.chirotope", "relations_from"),
    ("cli.main", "dpl.cli", "main"),
)
MOVE_KINDS = ("merge", "split", "flip")

# Per-layer metrics in report order: name -> unit.
LAYER_METRICS = {
    "words.min_rotation.calls": "count",
    "words.min_rotation.self_s": "s",
    "mutation.act_words.calls": "count",
    "mutation.SimpleState.builds": "count",
    "mutation.SimpleState.self_s": "s",
    "mutation.walk.states": "count",
    "mutation.walk.self_s": "s",
    "mutation.quotient.self_s": "s",
    "mutation.apply_move.merge_ms": "ms",
    "mutation.apply_move.split_ms": "ms",
    "mutation.apply_move.flip_ms": "ms",
    "mutation.split.validate_per_call": "count",
    "arrangement.validate.calls": "count",
    "arrangement.validate.self_s": "s",
    "arrangement.validate.accept_ratio": "ratio",
    "arrangement.parse_text.self_s": "s",
    "flags.FlagComplex.builds": "count",
    "flags.FlagComplex.self_s": "s",
    "flags.face_sides.self_s": "s",
    "flags.canonical_key.calls": "count",
    "flags.canonical_key.self_s": "s",
    "flags.stabilizer.calls": "count",
    "flags.stabilizer.self_s": "s",
    "chirotope.chirotope_of.calls": "count",
    "chirotope.chirotope_of.self_s": "s",
    "chirotope.extensions4.calls": "count",
    "chirotope.extensions4.self_s": "s",
    "chirotope.extensions4.candidates_per_call": "count",
    "chirotope.relations_from.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


def _states(result):
    """Number of states a census walk returned."""
    if isinstance(result, dict):
        return len(result["indexed_classes"])
    return len(result[1])


class Tracer:
    """Patches dpl at run time and records one span per patched call."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS if name != "mutation.apply_move"]
        self.names += ["mutation.apply_move." + k for k in MOVE_KINDS]
        self.name_id = {name: k for k, name in enumerate(self.names)}
        self.records = array("q")
        self.passes = []        # (first record, end record) per traced pass
        self.op = -1
        self._next_span = 0
        self._stack = [-1]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        records, stack, clock = self.records, self._stack, time.perf_counter_ns
        tracer = self
        if name == "mutation.apply_move":
            move_id = {k: self.name_id[name + "." + k] for k in MOVE_KINDS}

            def name_of(args, kwargs):
                move = args[1] if len(args) > 1 else kwargs["move"]
                return move_id[move.kind]
        else:
            fixed = self.name_id[name]

            def name_of(args, kwargs):
                return fixed
        count_states = name.startswith("mutation.walk.")

        def wrapper(*args, **kwargs):
            nid = name_of(args, kwargs)
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1]
            stack.append(sid)
            extra = 0
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                extra = _states(result) if count_states else 1
                return result
            finally:
                t1 = clock()
                stack.pop()
                records.extend((nid, t0, t1, sid, parent, tracer.op, extra))

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch every target; the originals come back with :meth:`remove`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        owners = {module: importlib.import_module(module)
                  for _, module, _ in TARGETS}
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "dpl" or key.startswith("dpl."))]
        for name, module, path in TARGETS:
            owner = owners[module]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                if isinstance(orig, property):
                    new = property(self._wrap(name, orig.fget), orig.fset,
                                   orig.fdel, orig.__doc__)
                else:
                    new = self._wrap(name, orig)
                self._patches.append((cls, attr, orig))
                setattr(cls, attr, new)
                continue
            orig = getattr(owner, path)
            new = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, new)

    def remove(self):
        for obj, attr, orig in reversed(self._patches):
            setattr(obj, attr, orig)
        self._patches = []

    def begin_pass(self):
        self.install()
        self.passes.append([len(self.records), None])

    def end_pass(self):
        self.remove()
        self.op = -1
        self.passes[-1][1] = len(self.records)

    # -- output -------------------------------------------------------------

    def write(self, stem):
        """Write ``stem.json`` (layout) and ``stem.bin.gz`` (the records as
        gzipped int64, ``len(FIELDS)`` per span)."""
        with gzip.open(stem + ".bin.gz", "wb", compresslevel=1) as fh:
            self.records.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"fields": FIELDS, "names": self.names,
                       "passes": self.passes,
                       "records": os.path.basename(stem) + ".bin.gz",
                       "dtype": "int64", "byteorder": sys.byteorder}, fh)


def derive(names, records, first=0, end=None):
    """Per-layer metrics (without ``trace.overhead_s``) from span records.

    A span's self time is its duration minus the durations of the spans
    called directly from it; records end in post-order, so every child is
    seen before its parent.
    """
    end = len(records) if end is None else end
    nid = {name: k for k, name in enumerate(names)}
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    ok = [0] * len(names)
    extra_sum = [0] * len(names)
    durations = [[] for _ in names]
    child_ns = {}
    validate_children = {}
    validate = nid["arrangement.validate"]
    per_call_parents = (nid["mutation.apply_move.split"],
                        nid["chirotope.extensions4"])
    parent_validates = {k: 0 for k in per_call_parents}
    for i in range(first, end, WIDTH):
        name, t0, t1, sid, parent, _op, extra = records[i:i + WIDTH]
        dur = t1 - t0
        calls[name] += 1
        self_ns[name] += dur - child_ns.pop(sid, 0)
        durations[name].append(dur)
        extra_sum[name] += extra
        if extra:
            ok[name] += 1
        vc = validate_children.pop(sid, 0)
        if name in parent_validates:
            parent_validates[name] += vc
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + dur
            if name == validate:
                validate_children[parent] = validate_children.get(parent, 0) + 1

    def total(prefix, table):
        return sum(v for name, v in zip(names, table)
                   if name == prefix or name.startswith(prefix + "."))

    def sec(prefix):
        return total(prefix, self_ns) / 1e9

    def count(prefix):
        return total(prefix, calls)

    def median_ms(name):
        d = durations[nid[name]]
        return statistics.median(d) / 1e6 if d else 0.0

    def per_call(parent):
        n = calls[parent]
        return parent_validates[parent] / n if n else 0.0

    v_calls = calls[validate]
    return {
        "words.min_rotation.calls": count("words.min_rotation"),
        "words.min_rotation.self_s": sec("words.min_rotation"),
        "mutation.act_words.calls": count("mutation.act_words"),
        "mutation.SimpleState.builds": count("mutation.SimpleState.build"),
        "mutation.SimpleState.self_s": sec("mutation.SimpleState"),
        "mutation.walk.states": total("mutation.walk", extra_sum),
        "mutation.walk.self_s": sec("mutation.walk"),
        "mutation.quotient.self_s": sec("mutation.quotient"),
        "mutation.apply_move.merge_ms": median_ms("mutation.apply_move.merge"),
        "mutation.apply_move.split_ms": median_ms("mutation.apply_move.split"),
        "mutation.apply_move.flip_ms": median_ms("mutation.apply_move.flip"),
        "mutation.split.validate_per_call":
            per_call(nid["mutation.apply_move.split"]),
        "arrangement.validate.calls": v_calls,
        "arrangement.validate.self_s": sec("arrangement.validate"),
        "arrangement.validate.accept_ratio":
            ok[validate] / v_calls if v_calls else 0.0,
        "arrangement.parse_text.self_s": sec("arrangement.parse_text"),
        "flags.FlagComplex.builds": count("flags.FlagComplex.build"),
        "flags.FlagComplex.self_s": sec("flags.FlagComplex"),
        "flags.face_sides.self_s": sec("flags.face_sides"),
        "flags.canonical_key.calls": count("flags.canonical_key"),
        "flags.canonical_key.self_s": sec("flags.canonical_key"),
        "flags.stabilizer.calls": count("flags.stabilizer"),
        "flags.stabilizer.self_s": sec("flags.stabilizer"),
        "chirotope.chirotope_of.calls": count("chirotope.chirotope_of"),
        "chirotope.chirotope_of.self_s": sec("chirotope.chirotope_of"),
        "chirotope.extensions4.calls": count("chirotope.extensions4"),
        "chirotope.extensions4.self_s": sec("chirotope.extensions4"),
        "chirotope.extensions4.candidates_per_call":
            per_call(nid["chirotope.extensions4"]),
        "chirotope.relations_from.self_s": sec("chirotope.relations_from"),
        "cli.main.self_s": sec("cli.main"),
    }
