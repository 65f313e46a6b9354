import hashlib
import json
import os
import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from dpl import all_c64, cyclic_thin
from dpl.cli import _parser, main
from dpl.mutation import MutationMove, apply_move, triangles
from dpl.words import SignedPermutation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def files_digest(files):
    """SHA-256 of the files' bytes, concatenated in file-name order."""
    h = hashlib.sha256()
    for f in sorted(files, key=lambda f: f.name):
        h.update(f.read_bytes())
    return h.hexdigest()


def test_validate_catalog_fixture(capsys):
    code, out = run(capsys, "validate", "C04")
    assert code == 0
    data = json.loads(out)
    assert data["genus"] == 1
    assert data["f_vector"] == {"3": 4, "4": 9}


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.dpl"
    bad.write_text("indices: 1 2\nD 1: 2 2 2 -2\nD 2: -1 -1 1 1\n")
    code, out = run(capsys, "validate", str(bad))
    assert code == 1
    assert json.loads(out)["code"] == "bad-sign-pattern"


@pytest.mark.parametrize("verb", ["validate", "stats", "dot"])
def test_unknown_name_is_an_unknown_fixture(verb, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, verb, "NOPE")
    assert code == 1
    assert json.loads(out) == {
        "code": "unknown-fixture",
        "message": "no file or catalog fixture named 'NOPE'"}


def test_stats(capsys):
    code, out = run(capsys, "stats", "C64")
    assert code == 0
    data = json.loads(out)
    assert data["aut_order"] == 24 and data["orbit_count"] == 2


def test_stats_all_c64_nine(tmp_path, capsys):
    path = tmp_path / "c64_9.dpl"
    path.write_text(all_c64(9).to_text())
    code, out = run(capsys, "stats", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["aut_order"] == 18 and data["orbit_count"] == 10321920


def test_iso_indexed_and_oriented_match_act_oracle(tmp_path, capsys):
    """Verdicts of --indexed (signs only) and --oriented (permutations
    only) equal those of validating every acted arrangement."""
    rng = random.Random(3)
    a = cyclic_thin(5)
    for _ in range(10):
        a = apply_move(a, MutationMove("flip", *rng.choice(triangles(a))))
    modes = {
        "--indexed": [SignedPermutation(dict(zip(a.indices, (
            s * i for s, i in zip(signs, a.indices)))))
            for signs in product((1, -1), repeat=5)],
        "--oriented": [SignedPermutation(dict(zip(a.indices, perm)))
                       for perm in permutations(a.indices)],
    }
    negative = a.act(SignedPermutation({1: -2, 2: 1, 3: 3, 4: 4, 5: 5}))
    pa = tmp_path / "a.dpl"
    pa.write_text(a.to_text())
    for flag, group in modes.items():
        positive = a.act(group[-1])
        for b, want in ((positive, True), (negative, False)):
            assert any(a.act(s).key() == b.key() for s in group) == want
            pb = tmp_path / "b.dpl"
            pb.write_text(b.to_text())
            code, out = run(capsys, "iso", str(pa), str(pb), flag)
            assert code == (0 if want else 1), flag
            assert json.loads(out)["isomorphic"] == want, flag


def test_iso_modes(tmp_path, capsys):
    code, _ = run(capsys, "iso", "C25_1", "C25_2")
    assert code == 1
    code, out = run(capsys, "iso", "C04", "C04", "--indexed", "--oriented")
    assert code == 0 and json.loads(out)["isomorphic"]


def test_chirotope_and_check_and_reconstruct(tmp_path, capsys):
    code, out = run(capsys, "chirotope", "M1")
    assert code == 0
    chi_path = tmp_path / "m1.chi"
    chi_path.write_text(out)

    code, out = run(capsys, "check", str(chi_path), "--k", "4")
    assert code == 0 and json.loads(out)["accepted"]

    out_path = tmp_path / "rec.dpl"
    code, out = run(capsys, "reconstruct", str(chi_path), "-o", str(out_path))
    assert code == 0
    code, out = run(capsys, "iso", str(out_path), "M1",
                    "--indexed", "--oriented")
    assert code == 0


RECONSTRUCT_GOLDEN = [
    ("C04(-3 -2 -1)",
     "D 1: -3 -3 2 2 3 3 -2 -2\n"
     "D 2: -3 -3 -1 -1 3 3 1 1\n"
     "D 3: -2 -2 1 1 2 2 -1 -1\n"
     "M 1: 3 3 -2 -2 -3 -3 2 2\n"
     "M 2: 3 3 1 1 -3 -3 -1 -1\n"
     "M 3: 2 2 -1 -1 -2 -2 1 1\n"),
    # the chirotope of cyclic_thin(3) merged at its first triangle, with
    # D1, D2 and M1 written in other rotations than their least ones
    ("D1= 2 3 3 -2 -2 -3 2 -3 | D2= 3 -1 3 1 1 -3 -3 -1 | "
     "D3= -2 1 -2 1 2 2 -1 -1 | M1= 3 3 -2 -2 -3 -3 2 2 | "
     "M2= -3 -3 -1 -1 3 3 1 1 | M3= -2 -2 1 1 2 2 -1 -1",
     "D 1: -3 2 -3 2 3 3 -2 -2\n"
     "D 2: -3 -3 -1 3 -1 3 1 1\n"
     "D 3: -2 1 -2 1 2 2 -1 -1\n"
     "M 1: 3 3 -2 -2 -3 -3 2 2\n"
     "M 2: 3 3 1 1 -3 -3 -1 -1\n"
     "M 3: 2 2 -1 -1 -2 -2 1 1\n"),
]


@pytest.mark.parametrize("entry, cycles", RECONSTRUCT_GOLDEN)
def test_reconstruct_three_indices_golden(tmp_path, capsys, entry, cycles):
    """A 3-index chirotope reconstructs to its entry, the disk cycles in
    least rotation and each crosscap cycle aligned with its disk cycle."""
    path = tmp_path / "three.chi"
    path.write_text("indices: 1 2 3\nchi 1 2 3: %s\n" % entry)
    for extra in ((), ("--any-genus",)):
        code, out = run(capsys, "reconstruct", str(path), *extra)
        assert code == 0
        assert out == "# reconstructed\nindices: 1 2 3\n" + cycles


def test_check_rejects_the_thin_five_chirotope(capsys):
    from importlib import resources
    path = resources.files("dpl").joinpath("catalog_data", "allC04_n5.chi")
    code, out = run(capsys, "check", str(path), "--k", "5")
    assert code == 1
    data = json.loads(out)
    assert not data["accepted"]
    assert data["witness"]["carrier"] == 1
    code, out = run(capsys, "check", str(path), "--k", "4")
    assert code == 0


@pytest.mark.parametrize("k", ["2", "6", "-1"])
def test_check_k_outside_three_to_n_is_a_usage_error(capsys, k):
    from importlib import resources
    path = resources.files("dpl").joinpath("catalog_data", "allC04_n5.chi")
    code, out = run(capsys, "check", str(path), "--k", k)
    assert code == 2
    data = json.loads(out)
    assert data["code"] == "usage"
    assert "between 3 and 5" in data["message"]


def test_enumerate_projective(capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "projective")
    assert code == 0
    data = json.loads(out)
    assert data["plain_classes"] == 13 and data["connected"]


def test_enumerate_moebius_table(capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "moebius",
                    "--table")
    assert code == 0
    assert out.strip() == "3,118,22,16,12"


def test_enumerate_moebius_all(capsys):
    code, out = run(capsys, "enumerate", "--n", "2", "--setting", "moebius",
                    "--all")
    assert code == 0
    data = json.loads(out)
    assert (data["a"], data["b"], data["c"], data["d"]) == (1, 1, 1, 1)


def test_enumerate_emit_classes(tmp_path, capsys):
    out_dir = tmp_path / "classes"
    code, _ = run(capsys, "enumerate", "--n", "2", "--setting", "projective",
                  "--emit-classes", str(out_dir))
    assert code == 0
    assert len(list(out_dir.glob("*.dpl"))) == 1


def test_enumerate_emit_classes_three(tmp_path, capsys):
    """The thirteen projective classes, byte for byte as first written."""
    out_dir = tmp_path / "classes"
    code, out = run(capsys, "enumerate", "--n", "3", "--setting",
                    "projective", "--emit-classes", str(out_dir))
    assert code == 0 and json.loads(out)["plain_classes"] == 13
    files = list(out_dir.iterdir())
    assert len(files) == 13
    assert files_digest(files) == (
        "dcdfb5fd043424fbe0d09ac1e30c6ce9b9d73a9a8df13f2fc5e913a012a2463b")


def test_enumerate_state_limit(capsys, monkeypatch):
    monkeypatch.setenv("DPL_STATE_LIMIT", "5")
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "projective")
    assert code == 1
    assert json.loads(out)["code"] == "resource-limit"


def test_enumerate_state_limit_counts_the_seeds(capsys):
    """The cap stops the walk among the 1,440 signed versions of the
    six-curve seed that the orbit walk starts from, one per coset of the
    even reorientations, before it expands any state."""
    code, out = run(capsys, "enumerate", "--n", "6", "--setting", "moebius",
                    "--limit-states", "10")
    assert code == 1
    report = json.loads(out)
    assert report["code"] == "resource-limit" and report["partial"] == 11


def test_dot(capsys):
    code, out = run(capsys, "dot", "TwoCurve", "--graph", "dual")
    assert code == 0 and out.startswith("graph dual {")


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "C64" in json.loads(out)["fixtures"]


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_reused_parser_keeps_no_state(capsys):
    """One parser serves every call in a process; no flag or verb of one
    call shows in a later one."""
    _parser.cache_clear()
    want = run(capsys, "validate", "C04")
    _parser.cache_clear()
    assert main(["frobnicate"]) == 2
    assert main(["--help"]) == 0
    code, out = run(capsys, "validate", "C04", "--human")
    assert code == 0 and out != want[1]
    code, out = run(capsys, "iso", "C04", "C07", "--indexed")
    assert json.loads(out)["mode"] == "indexed"
    assert run(capsys, "validate", "C04") == want
    assert _parser.cache_info().misses == 1


def test_iso_on_fixtures_reuses_the_catalog(capsys, monkeypatch):
    """A catalog fixture is parsed, validated and given its complex once
    per process: a repeated ``iso`` validates nothing and builds nothing."""
    from dpl import arrangement, flags
    calls = {"validate": 0, "complex": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(arrangement, "validate",
                        counted("validate", arrangement.validate))
    monkeypatch.setattr(flags, "FlagComplex",
                        counted("complex", flags.FlagComplex))
    first = run(capsys, "iso", "C04", "C07")
    before = dict(calls)
    assert run(capsys, "iso", "C04", "C07") == first
    assert calls == before
    assert first[1].startswith('{"isomorphic": false')


def test_iso_marked(tmp_path, capsys):
    from dpl import cyclic_thin
    arr = cyclic_thin(3)
    cells = arr.complex.admissible_cells()
    f = tmp_path / "a.dpl"
    # mark the cell on the disk side of curve 1 after its first vertex
    body = arr.to_text()
    (tmp_path / "a.dpl").write_text(body + "mark: 1 0 disk\n")
    (tmp_path / "b.dpl").write_text(body + "mark: 1 0 disk\n")
    (tmp_path / "c.dpl").write_text(body + "mark: 1 0 crosscap\n")
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "b.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 0 and json.loads(out)["isomorphic"]
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "c.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 1

    code, _ = run(capsys, "iso", str(tmp_path / "a.dpl"),
                  str(tmp_path / "b.dpl"), "--marked")
    assert code == 2

    # the same cell, named through another curve
    cx = arr.complex
    cell = cx.face_at(1, 0, -1)
    curve, arc = next((c, k) for c in (2, 3)
                      for k in range(len(arr.node_cycles[c]))
                      if cx.face_at(c, k, -1) == cell)
    (tmp_path / "d.dpl").write_text(body + "mark: %d %d disk\n" % (curve, arc))
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "d.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 0 and json.loads(out)["isomorphic"]


def test_enumerate_moebius_emit_classes(tmp_path, capsys):
    out_dir = tmp_path / "mclasses"
    code, _ = run(capsys, "enumerate", "--n", "2", "--setting", "moebius",
                  "--emit-classes", str(out_dir))
    assert code == 0
    assert len(list(out_dir.glob("*.dpl"))) == 1


def test_enumerate_moebius_emit_classes_three(tmp_path, capsys):
    """One file per class of unmarked arrangements, as the census counts
    them in its d column."""
    from dpl.arrangement import load
    out_dir = tmp_path / "mclasses"
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "moebius",
                    "--emit-classes", str(out_dir))
    assert code == 0 and json.loads(out)["d"] == 12
    files = sorted(out_dir.glob("*.dpl"))
    assert len(files) == 12
    keys = {load(str(f)).complex.canonical_key("plain") for f in files}
    assert len(keys) == 12
    assert files_digest(out_dir.iterdir()) == (
        "8fd0354563f8fa9be61d55c4e195ab0bb8915361e46468482d14bcaff7e09084")


def test_enumerate_moebius_all_three(tmp_path, capsys):
    """The merge/split row at three curves, and one file per class of
    unmarked arrangements, simple or not."""
    from dpl.arrangement import load
    out_dir = tmp_path / "mclasses"
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "moebius",
                    "--all", "--table", "--emit-classes", str(out_dir))
    assert code == 0 and out == "3,531,92,59,41\n"
    files = sorted(out_dir.glob("*.dpl"))
    assert len(files) == 41
    keys = {load(str(f)).complex.canonical_key("plain") for f in files}
    assert len(keys) == 41
    assert files_digest(out_dir.iterdir()) == (
        "d4612308ddf9cc31f25ada76ac2a91117483a449581b52e01630b2d412b9634d")


@pytest.mark.parametrize("flags, row", [
    ((), "3,118,22,16,12"), (("--all",), "3,531,92,59,41")])
def test_enumerate_moebius_table_optimized(flags, row):
    """The crosscap rows under ``python -O``, which strips ``assert``
    statements: the census checks its invariants by raising."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-O", "-m", "dpl.cli", "enumerate", "--n", "3",
         "--setting", "moebius", *flags, "--table"],
        env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, row + "\n", "")


def test_enumerate_projective_all_is_illegal(capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--setting",
                    "projective", "--all")
    assert code == 1
    assert json.loads(out)["code"] == "illegal-locus"


def test_enumerate_state_limit_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("DPL_STATE_LIMIT", "abc")
    code, out = run(capsys, "enumerate", "--n", "2", "--setting", "moebius")
    assert code == 1
    assert json.loads(out)["code"] == "format-error"


def test_enumerate_state_limit_negative_is_a_usage_error(capsys):
    code, out = run(capsys, "enumerate", "--n", "3", "--limit-states", "-1")
    assert code == 2 and out == ""


def test_enumerate_state_limit_negative_in_environment(capsys, monkeypatch):
    monkeypatch.setenv("DPL_STATE_LIMIT", "-1")
    code, out = run(capsys, "enumerate", "--n", "3")
    assert code == 1
    assert json.loads(out)["code"] == "format-error"


def test_enumerate_deterministic_output(capsys):
    code1, out1 = run(capsys, "enumerate", "--n", "3",
                      "--setting", "projective")
    code2, out2 = run(capsys, "enumerate", "--n", "3",
                      "--setting", "projective")
    assert code1 == code2 == 0 and out1 == out2


@pytest.mark.parametrize("mark, want", [
    ("mark: 1 x disk", "format-error"),
    ("mark: 7 0 disk", "unknown-index"),
    ("mark: 1 9 disk", "unknown-index"),
])
def test_iso_marked_rejects_bad_mark(tmp_path, capsys, mark, want):
    from dpl import catalog
    body = catalog.arrangement("TwoCurve").to_text()
    (tmp_path / "a.dpl").write_text(body + "mark: 1 1 disk\n")
    (tmp_path / "b.dpl").write_text(body + mark + "\n")
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "b.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 1
    assert json.loads(out)["code"] == want



def test_iso_marked_mark_line_takes_a_comment(tmp_path, capsys):
    from dpl import catalog
    body = catalog.arrangement("TwoCurve").to_text()
    (tmp_path / "a.dpl").write_text(body + "mark: 1 0 disk\n")
    (tmp_path / "b.dpl").write_text(body + "mark: 1 0 disk   # outer cell\n")
    (tmp_path / "c.dpl").write_text(body + "mark: 1 0 crosscap  # other\n")
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "b.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 0 and json.loads(out)["isomorphic"]
    code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                    str(tmp_path / "c.dpl"),
                    "--indexed", "--oriented", "--marked")
    assert code == 1 and not json.loads(out)["isomorphic"]


def test_iso_marked_rejects_a_repeated_mark_line(tmp_path, capsys):
    from dpl import catalog
    body = catalog.arrangement("TwoCurve").to_text()
    (tmp_path / "a.dpl").write_text(body + "mark: 1 0 disk\n")
    for second in ("mark: 1 0 crosscap\n", "mark: 1 0 disk\n"):
        (tmp_path / "b.dpl").write_text(body + "mark: 1 0 disk\n" + second)
        code, out = run(capsys, "iso", str(tmp_path / "a.dpl"),
                        str(tmp_path / "b.dpl"),
                        "--indexed", "--oriented", "--marked")
        assert code == 1
        assert json.loads(out)["code"] == "format-error"


@pytest.mark.parametrize("verb", ["validate", "stats", "dot", "chirotope",
                                  "iso"])
@pytest.mark.parametrize("tail, want", [
    ("mark: 1 0 disk\n", 0),
    # only --marked checks the curve and arc range
    ("mark: 7 9 crosscap  # a comment\n", 0),
    ("mark: a b disk\n", "format-error"),
    ("mark: 1 0 inside\n", "format-error"),
    ("mark: 1 0\n", "format-error"),
    ("mark: 1 0 disk\nmark: 1 0 disk\n", "format-error"),
    ("mark: 1 0 disk\nmark: 2 0 crosscap\n", "format-error"),
])
def test_every_verb_checks_the_mark_line(tmp_path, capsys, verb, tail, want):
    """Each verb that reads an arrangement file reads its mark line too,
    and rejects a malformed or repeated one, not only ``iso --marked``."""
    path = tmp_path / "a.dpl"
    path.write_text(cyclic_thin(3).to_text() + tail)
    files = [str(path)] * (2 if verb == "iso" else 1)
    code, out = run(capsys, verb, *files)
    if want == 0:
        assert code == 0
    else:
        assert code == 1
        assert json.loads(out)["code"] == want


@pytest.mark.parametrize("verb, text", [
    ("validate", "indices: 1 x\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n"),
    ("validate", "indices: 2 -2\nD 2:\nD -2: -2 -2 2 2\n"),
    ("check", "indices: 1 2 3\nchi 1 2 3: C04(1 2)\n"),
    # a repeated line is an error, not overwritten by the last one
    ("validate", "indices: 1 2\nindices: 1 2\nD 1: -2 -2 2 2\n"
                 "D 2: -1 -1 1 1\n"),
    ("validate", "indices: 1 2\nD 1: 9 9 9\nD 1: -2 -2 2 2\n"
                 "D 2: -1 -1 1 1\n"),
    ("validate", "indices: 1 2\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n"
                 "M 1: 9 9 9\nM 1: 2 2 -2 -2\nM 2: 1 1 -1 -1\n"),
    ("check", "indices: 1 2 3\nindices: 1 2 3\nchi 1 2 3: C04(1 2 3)\n"),
    ("check", "indices: 1 2 3\nchi 1 2 3: C64(1 2 3)\n"
              "chi 1 2 3: C04(1 2 3)\n"),
    # bytes that do not decode as text
    ("validate", b"\xff\xfeindices: 1 2\n"),
    ("check", b"\xff\xfeindices: 1 2 3\n"),
])
def test_malformed_file_is_a_format_error(tmp_path, capsys, verb, text):
    path = tmp_path / "bad"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, out = run(capsys, verb, str(path))
    assert code == 1
    assert json.loads(out)["code"] == "format-error"


@pytest.mark.parametrize("verb, text, options", [
    ("validate", "indices: 1 2 2\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n"
                 "M 1: 2 2 -2 -2\nM 2: 1 1 -1 -1\n", ()),
    ("validate", "indices: 1 2 2\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n", ()),
    ("check", "indices: 1 2 2 3\nchi 1 2 3: C04(1 2 3)\n", ("--k", "3")),
])
def test_repeated_header_index_is_a_format_error(tmp_path, capsys, verb,
                                                 text, options):
    path = tmp_path / "bad"
    path.write_text(text)
    code, out = run(capsys, verb, str(path), *options)
    assert code == 1
    data = json.loads(out)
    assert data["code"] == "format-error"
    assert data["message"].startswith("repeated index in 'indices:' header")


@pytest.mark.parametrize("entry", [
    "Dx=2 2",
    "D1=2 x",
    "=2 2",
    "Q1=2 2",
    "M1=-2 -2 2 2 -3 -3 3 3 | M2=1 1 -1 -1 3 3 -3 -3 | M3=1 1 -1 -1 2 2 -2 -2",
    "C04",
    # catalog fixtures that are not three-curve classes
    "M1(1 2 3)",
    "TwoCurve(1 2 3)",
    "AllC64_4(1 2 3)",
    # a repeated part of one entry
    "D1=2 2 3 3 -2 -2 -3 -3 | D1=2 2 3 3 -2 -2 -3 -3 | "
    "D2=3 3 1 1 -3 -3 -1 -1 | D3=1 1 2 2 -1 -1 -2 -2",
    "D1=2 2 3 3 -2 -2 -3 -3 | D2=3 3 1 1 -3 -3 -1 -1 | "
    "D3=1 1 2 2 -1 -1 -2 -2 | M1=-2 -2 -3 -3 2 2 3 3 | "
    "M1=-2 -2 -3 -3 2 2 3 3 | M2=-3 -3 -1 -1 3 3 1 1 | "
    "M3=-1 -1 -2 -2 1 1 2 2",
])
def test_malformed_chirotope_entry_is_a_format_error(tmp_path, capsys, entry):
    path = tmp_path / "bad.chi"
    path.write_text("indices: 1 2 3\nchi 1 2 3: %s\n" % entry)
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert json.loads(out)["code"] == "format-error"
