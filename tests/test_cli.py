import json
import random
from itertools import permutations, product

import pytest

from dpl import all_c64, cyclic_thin
from dpl.cli import main
from dpl.mutation import MutationMove, apply_move, triangles
from dpl.words import SignedPermutation


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


def test_enumerate_state_limit(capsys, monkeypatch):
    monkeypatch.setenv("DPL_STATE_LIMIT", "5")
    code, out = run(capsys, "enumerate", "--n", "3", "--setting", "projective")
    assert code == 1
    assert json.loads(out)["code"] == "resource-limit"


def test_dot(capsys):
    code, out = run(capsys, "dot", "TwoCurve", "--graph", "dual")
    assert code == 0 and out.startswith("graph dual {")


def test_catalog_listing(capsys):
    code, out = run(capsys, "catalog")
    assert code == 0
    assert "C64" in json.loads(out)["fixtures"]


def test_usage_error(capsys):
    assert main(["frobnicate"]) == 2


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


@pytest.mark.parametrize("verb, text", [
    ("validate", "indices: 1 x\nD 1: -2 -2 2 2\nD 2: -1 -1 1 1\n"),
    ("validate", "indices: 2 -2\nD 2:\nD -2: -2 -2 2 2\n"),
    ("check", "indices: 1 2 3\nchi 1 2 3: C04(1 2)\n"),
])
def test_malformed_file_is_a_format_error(tmp_path, capsys, verb, text):
    path = tmp_path / "bad"
    path.write_text(text)
    code, out = run(capsys, verb, str(path))
    assert code == 1
    assert json.loads(out)["code"] == "format-error"


@pytest.mark.parametrize("entry", [
    "Dx=2 2",
    "D1=2 x",
    "=2 2",
    "Q1=2 2",
    "M1=-2 -2 2 2 -3 -3 3 3 | M2=1 1 -1 -1 3 3 -3 -3 | M3=1 1 -1 -1 2 2 -2 -2",
    "C04",
])
def test_malformed_chirotope_entry_is_a_format_error(tmp_path, capsys, entry):
    path = tmp_path / "bad.chi"
    path.write_text("indices: 1 2 3\nchi 1 2 3: %s\n" % entry)
    code, out = run(capsys, "check", str(path))
    assert code == 1
    assert json.loads(out)["code"] == "format-error"
