import json
import os
import time

import pytest

from synorres.cli import REPRODUCER_PATH, load_ideal, main
from synorres.verify import TheoremContradiction

EXAMPLE_TEXT = """\
       0 1  2  3 4 5
total: 1 6 11 10 5 1
    0: 1 .  .  . . .
    1: . 5 10 10 5 1
    2: . .  .  . . .
    3: . .  .  . . .
    4: . 1  1  . . .
t: 0 5 6 4 5 6
"""


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_betti_example62_golden(capsys):
    code, out, err = run(capsys, "betti", "@example62")
    assert code == 0
    assert out == EXAMPLE_TEXT


def test_betti_json(capsys):
    code, out, _ = run(capsys, "betti", "@powers:2,1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["totals"] == [1, 2, 1]


def test_betti_from_file(tmp_path, capsys):
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y z\nx*y\nx*z\ny*z\n")
    code, out, _ = run(capsys, "betti", str(path))
    assert code == 0
    assert "total: 1 3 2" in out


def test_betti_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("vars: x y\nx\ny\n"))
    code, out, _ = run(capsys, "betti", "-")
    assert code == 0
    assert "total: 1 2 1" in out


def test_resolve_text_and_exit(capsys):
    code, out, _ = run(capsys, "resolve", "@kpq:3,2")
    assert code == 0
    assert "ranks: 1 6 9 5 1" in out
    assert "certified" in out
    assert "betti cross-check: ok" in out


def test_resolve_json(capsys):
    code, out, _ = run(capsys, "resolve", "@powers:2,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["certification"]["ok"] is True
    assert data["betti_match"] is True
    assert data["resolution"]["ranks"] == [1, 2, 1]


def test_lattice_dump(capsys):
    code, out, _ = run(capsys, "lattice", "@powers:2,2")
    assert code == 0
    assert "elements: 4" in out
    assert "hash: " in out


def test_lattice_json_roundtrips(capsys):
    from synorres.poset import poset_from_json
    code, out, _ = run(capsys, "lattice", "@example62", "--format", "json")
    assert code == 0
    data = json.loads(out)
    P = poset_from_json(data)
    assert P.n == 33
    assert len(data["synors"]) > 0


def test_synor_dump(capsys):
    code, out, _ = run(capsys, "synor", "@example62")
    assert code == 0
    assert "total rank: 34" in out


def test_shuffle_demo(capsys):
    code, out, _ = run(capsys, "shuffle-demo", "@powers:3,1",
                       "x1*x2>x1", "x3")
    assert code == 0
    assert "3 terms" in out


def test_shuffle_demo_rejects_non_chain(capsys):
    code, _, err = run(capsys, "shuffle-demo", "@powers:3,1",
                       "x1>x1*x2", "x3")
    assert code == 1
    assert "error" in err


def test_verify_decomposition(capsys):
    code, out, _ = run(capsys, "verify", "decomposition", "@powers:3,1")
    assert code == 0
    assert "LATTICE" in out and "INTERVAL" in out
    assert "all pass" in out
    assert "RESULT=fail" not in out


def test_verify_subadditivity(capsys):
    code, out, _ = run(capsys, "verify", "subadditivity", "@powers:2,2")
    assert code == 0
    assert "SUBADD" in out and "ACOUNT" in out


def test_verify_lattices(capsys):
    code, out, _ = run(capsys, "verify", "lattices", "--max", "5")
    assert code == 0
    assert "n=5:5" in out


def test_verify_properties(capsys):
    code, out, _ = run(capsys, "verify", "properties", "--max", "5")
    assert code == 0
    assert out.count("POSET") == 5


def test_verify_requires_input(capsys):
    code, _, err = run(capsys, "verify", "subadditivity")
    assert code == 1
    assert "needs an ideal input" in err


def test_unknown_corpus_form(capsys):
    code, _, err = run(capsys, "betti", "@mystery")
    assert code == 1
    assert "unknown corpus form" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "betti", "/no/such/file")
    assert code == 1


def test_oversized_lcm_lattice_fails_fast(capsys):
    # @powers:30,1 would have 2^30 elements; the size cap refuses it
    start = time.perf_counter()
    code, _, err = run(capsys, "betti", "@powers:30,1")
    assert code == 1
    assert "more than 2048 elements" in err
    assert time.perf_counter() - start < 1.0


def test_bad_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti"])  # missing input argument
    assert exc.value.code == 1


def test_contradiction_writes_reproducer(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def boom(args):
        raise TheoremContradiction("synthetic failure",
                                   {"stage": "unit", "extra": 1})
    monkeypatch.setattr("synorres.cli.cmd_betti", boom)
    # reparse so the patched handler is picked up
    from synorres import cli
    code = cli.main(["betti", "@powers:2,1"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "theorem contradiction" in err
    data = json.loads((tmp_path / REPRODUCER_PATH).read_text())
    assert data["message"] == "synthetic failure"
    assert data["stage"] == "unit"


def test_load_ideal_forms():
    spec = load_ideal("@random:3,4,5,2")
    assert spec.name.startswith("random")
    spec2 = load_ideal("@kpq:3,2")
    assert len(spec2.generators) == 6
