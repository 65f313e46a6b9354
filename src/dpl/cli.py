"""Command-line interface.

JSON on stdout by default (``--human`` for tables where available).
Exit codes: 0 success, 1 mathematical rejection (with a machine-readable
diagnosis on stdout), 2 usage errors.
"""

import argparse
import functools
import json
import os
import sys

from . import catalog as _catalog
from .arrangement import family_key, from_disk_only, parse_text, validate
from .chirotope import (
    chirotope_of,
    chirotope_text,
    is_k_chirotope,
    parse_chirotope,
    reconstruct,
)
from .errors import DplError, FormatError, IllegalLocus, UnknownFixture
from .flags import automorphism_order, signed_group_order
from .mutation import _moebius_classes, connectivity_check, projective_census
from .words import signed_permutations


def _print(data, human=False):
    if human and isinstance(data, dict):
        width = max(len(str(k)) for k in data)
        for k, v in data.items():
            print("%-*s  %s" % (width, k, v))
    else:
        print(json.dumps(data, sort_keys=True))


def _load_arrangement(path):
    """The arrangement of a file or catalog fixture, and the file's mark:
    its optional 'mark: CURVE ARC SIDE' line, at most one per file and
    with an optional '#' comment, as ``(curve, arc, side)``, else None.
    The arc index counts vertices along the disk cycle as written, the
    side is 'disk' or 'crosscap'; only ``iso --marked`` reads the mark,
    but every verb rejects a malformed or repeated one."""
    if os.path.exists(path):
        with open(path) as fh:
            lines = fh.read().splitlines()
        mark, body = None, []
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line.startswith("mark:"):
                body.append(raw)
                continue
            if mark is not None:
                raise FormatError("repeated 'mark:' line: %r" % raw)
            fields = line[len("mark:"):].split()
            if len(fields) != 3 or fields[2] not in ("disk", "crosscap"):
                raise FormatError("unparseable line: %r" % line)
            try:
                curve, arc = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise FormatError("unparseable line: %r" % line) from exc
            mark = (curve, arc, 1 if fields[2] == "crosscap" else -1)
        return parse_text("\n".join(body)), mark
    try:
        return _catalog.arrangement(path), None
    except UnknownFixture:
        raise UnknownFixture("no file or catalog fixture named %r" % path)


def cmd_validate(args):
    try:
        arr, _ = _load_arrangement(args.file)
    except DplError as exc:
        _print(exc.report())
        return 1
    _print(arr.to_json(), human=args.human)
    return 0


def cmd_stats(args):
    arr, _ = _load_arrangement(args.file)
    aut = automorphism_order(arr)
    data = arr.to_json()
    data.update({
        "vertices": arr.vertex_count,
        "edges": arr.edge_count,
        "faces": sum(arr.f_vector.values()),
        "aut_order": aut,
        "orbit_count": signed_group_order(arr.n) // aut,
        "martagon_curves": [i for i in arr.indices if arr.is_martagon(i)],
    })
    _print(data, human=args.human)
    return 0


def _marked_key(arr, mark):
    """The arrangement's key and the least descriptor of the face at the
    ``(curve, arc, side)`` of its 'mark:' line."""
    cx = arr.complex
    return arr.key(), min(cx.face_descriptors(cx.face_at(*mark)))


def cmd_iso(args):
    a, ma = _load_arrangement(args.a)
    b, mb = _load_arrangement(args.b)
    if args.marked:
        if not (args.indexed and args.oriented):
            print(json.dumps({"code": "usage",
                              "message": "--marked needs --indexed "
                                         "--oriented"}))
            return 2
        if ma is None or mb is None:
            print(json.dumps({"code": "usage",
                              "message": "--marked needs 'mark:' lines in "
                                         "both files"}))
            return 2
        verdict = _marked_key(a, ma) == _marked_key(b, mb)
        _print({"isomorphic": verdict, "mode": "indexed+oriented+marked"})
        return 0 if verdict else 1
    if args.indexed and args.oriented:
        verdict = a.key() == b.key()
        mode = "indexed+oriented"
    elif args.indexed or args.oriented:
        if len(a.indices) != len(b.indices):
            verdict, mode = False, "size"
        else:
            perms = [tuple(a.indices)] if args.indexed else None
            signs = [tuple(1 for _ in a.indices)] if args.oriented else None
            # curve names do not count: B's curves take A's names in order
            kb = b.key() if args.indexed else family_key(
                a.indices, *b.substituted(dict(zip(b.indices, a.indices))))
            verdict = any(a.acted_key(s) == kb for s in
                          signed_permutations(a.indices, perms, signs))
            mode = "indexed" if args.indexed else "oriented"
    else:
        verdict = a.complex.canonical_key() == b.complex.canonical_key()
        mode = "plain"
    _print({"isomorphic": verdict, "mode": mode})
    return 0 if verdict else 1


def cmd_chirotope(args):
    arr, _ = _load_arrangement(args.file)
    try:
        chi = chirotope_of(arr)
    except DplError as exc:
        _print(exc.report())
        return 1
    sys.stdout.write(chirotope_text(chi))
    return 0


def cmd_check(args):
    with open(args.file) as fh:
        chi = parse_chirotope(fh.read())
    n = len(chi.indices)
    if not 3 <= args.k <= n:
        print(json.dumps({"code": "usage",
                          "message": "--k must be between 3 and %d, the "
                                     "number of indices" % n}))
        return 2
    ok, diag = is_k_chirotope(chi, args.k, diagnose=True)
    _print({"accepted": ok, "k": args.k,
            **({"witness": diag} if diag else {})})
    return 0 if ok else 1


def cmd_reconstruct(args):
    with open(args.file) as fh:
        chi = parse_chirotope(fh.read())
    try:
        arr = reconstruct(chi, genus_one=not args.any_genus)
    except DplError as exc:
        _print(exc.report())
        return 1
    text = arr.to_text(name="reconstructed")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        _print({"written": args.output, "genus": arr.genus})
    else:
        sys.stdout.write(text)
    return 0


def _emit_classes(path, arrangements, label):
    os.makedirs(path, exist_ok=True)
    for t, arr in enumerate(arrangements):
        with open(os.path.join(path, "class%03d.dpl" % t), "w") as fh:
            fh.write(arr.to_text(name=label % t))


def non_negative_int(text):
    """A state cap, from ``--limit-states`` or ``DPL_STATE_LIMIT``."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


def cmd_enumerate(args):
    limit = args.limit_states
    if limit is None and os.environ.get("DPL_STATE_LIMIT"):
        try:
            limit = non_negative_int(os.environ["DPL_STATE_LIMIT"])
        except ValueError as exc:
            raise FormatError("DPL_STATE_LIMIT is not a non-negative "
                              "integer: %r"
                              % os.environ["DPL_STATE_LIMIT"]) from exc
    try:
        if args.setting == "projective":
            if args.all:
                raise IllegalLocus("non-simple projective walks are not "
                                   "wired to a census; use merge/split "
                                   "moves via apply_move")
            cen = projective_census(args.n, limit=limit)
            data = {
                "n": args.n,
                "setting": "projective",
                "indexed_classes": len(cen["indexed_classes"]),
                "plain_classes": len(cen["plain_classes"]),
                "connected": connectivity_check(cen),
            }
            if args.emit_classes:
                _emit_classes(args.emit_classes, (
                    from_disk_only(dict(zip(
                        cen["indices"], cen["indexed_classes"][min(keys)])))
                    for _, keys in sorted(cen["plain_classes"].items())),
                    "class %d")
            _print(data, human=args.human)
        else:
            row, families = _moebius_classes(
                args.n, simple_only=not args.all, limit=limit)
            if args.emit_classes:
                # a family lists the disk cycles, then any crosscap cycles
                n, indices = args.n, range(1, args.n + 1)
                _emit_classes(args.emit_classes, (
                    from_disk_only(dict(zip(indices, f))) if len(f) == n
                    else validate(dict(zip(indices, f)),
                                  dict(zip(indices, f[n:])))
                    for f in families), "projective class %d")
            if args.table:
                print("%d,%d,%d,%d,%d" % (row["n"], row["a"], row["b"],
                                          row["c"], row["d"]))
            else:
                _print(row, human=args.human)
    except DplError as exc:
        _print(exc.report())
        return 1
    return 0


def cmd_catalog(args):
    if args.name:
        fx = _catalog.get(args.name)
        data = fx.arrangement.to_json(name=fx.name)
        data["expected"] = fx.expected
        _print(data, human=args.human)
    else:
        _print({"fixtures": list(_catalog.names())}, human=args.human)
    return 0


def cmd_dot(args):
    arr, _ = _load_arrangement(args.file)
    sys.stdout.write(arr.complex.to_dot(graph=args.graph))
    return 0


@functools.cache
def _parser():
    """The argument parser, built on first use; ``parse_args`` keeps no
    state in it, so every later call of :func:`main` reuses it."""
    top = argparse.ArgumentParser(
        prog="dpl",
        description="arrangements of double pseudolines: validate, "
                    "canonicalize, mutate, enumerate, axiom-check")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate an arrangement file")
    p.add_argument("file")
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="summary invariants of an arrangement")
    p.add_argument("file")
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("iso", help="compare two arrangements")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--indexed", action="store_true")
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--marked", action="store_true")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("chirotope", help="print the chirotope of a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_chirotope)

    p = sub.add_parser("check", help="axiom-check a chirotope file")
    p.add_argument("file")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("reconstruct", help="rebuild the arrangement of a "
                                           "chirotope file")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.add_argument("--any-genus", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("enumerate", help="censuses by flip traversal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--setting", choices=("projective", "moebius"),
                   default="projective")
    p.add_argument("--all", action="store_true",
                   help="include non-simple states")
    p.add_argument("--table", action="store_true", help="CSV census row")
    p.add_argument("--emit-classes", metavar="DIR")
    p.add_argument("--limit-states", type=non_negative_int, default=None)
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("catalog", help="list or print built-in fixtures")
    p.add_argument("name", nargs="?")
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("dot", help="DOT export of the flag or dual graph")
    p.add_argument("file")
    p.add_argument("--graph", choices=("flag", "dual"), default="flag")
    p.set_defaults(func=cmd_dot)
    return top


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except DplError as exc:
        _print(exc.report())
        return 1
    except UnicodeDecodeError as exc:
        _print(FormatError("undecodable input: %s" % exc).report())
        return 1
    except OSError as exc:
        print(json.dumps({"code": "io-error", "message": str(exc)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
