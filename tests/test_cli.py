import json
import time

import pytest

import synorres.cli
import synorres.resolution
import synorres.verify
from synorres.algebra import DomainError, field_from_flag
from synorres.cli import REPRODUCER_PATH, lattice_of, load_ideal, main
from synorres.resolution import interval_ranks
from synorres.synor import build_synor_complex
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


@pytest.mark.parametrize("source", ["@example62", "@kpq:4,3", "@powers:4,2",
                                    "@random:3,4,6,3"])
@pytest.mark.parametrize("field", ["q", "2"])
def test_lattice_synor_rows_match_interval_homology(capsys, source, field):
    # the rows come from the synor resolution's Betti table; the oracle
    # reads them off the reduced homology of each open interval (0, x)
    from synorres.algebra import field_from_flag
    from synorres.cli import lattice_of
    from synorres.resolution import interval_ranks
    code, out, _ = run(capsys, "lattice", source, "--field", field,
                       "--format", "json")
    assert code == 0
    L = lattice_of(load_ideal(source))
    F = field_from_flag(field)
    want = [[L.format_label(x), d + 1, r]
            for x in range(L.n) if x != L.bottom
            for d, r in interval_ranks(L, x, F).items() if r]
    assert json.loads(out)["synors"] == want


def test_lattice_on_boolean_lattice_b8_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "lattice", "@powers:8,1")
    assert code == 0
    assert "elements: 256" in out
    assert "  x1*x2*x3*x4*x5*x6*x7*x8  7  1" in out.splitlines()
    assert time.perf_counter() - start < 15.0


@pytest.mark.parametrize("source", ["@powers:8,1", "@kpq:7,3"])
def test_resolve_cross_check_is_fast(capsys, source):
    # the cross-check reads Koszul ranks: 0.46 s and 0.50 s of wall in a
    # fresh process (2-core x86), where the order complex ran past 150 s
    start = time.perf_counter()
    code, out, _ = run(capsys, "resolve", source)
    assert code == 0
    assert out.splitlines()[-2:] == ["certified", "betti cross-check: ok"]
    assert time.perf_counter() - start < 15.0


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


@pytest.mark.parametrize("source", ["@kpq:4,3", "@powers:5,1"])
def test_verify_decomposition_builds_one_synor_complex(capsys, monkeypatch,
                                                       source):
    # both verifiers read the complex of L minus its bottom through one
    # TopAnalysis: the LATTICE lines and the INTERVAL lines alike
    built = []

    def counted(P, field):
        built.append(P.n)
        return build_synor_complex(P, field)
    for module in (synorres.cli, synorres.resolution, synorres.verify):
        monkeypatch.setattr(module, "build_synor_complex", counted)
    code, out, _ = run(capsys, "verify", "decomposition", source)
    assert code == 0
    assert "LATTICE" in out and "INTERVAL" in out
    assert len(built) == 1


def test_verify_decomposition_builds_no_resolution(capsys, monkeypatch):
    # the INTERVAL lines read the analysis's synor counts, not a Betti
    # table of a resolution made from the same complex
    def refused(*args, **kwargs):
        raise AssertionError("verify decomposition built a resolution")
    for module in (synorres.cli, synorres.resolution, synorres.verify):
        for name in ("resolution_from_complex", "betti_from_resolution"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refused)
    code, out, _ = run(capsys, "verify", "decomposition", "@kpq:3,2")
    assert code == 0
    assert "INTERVAL" in out
    assert out.endswith("all pass\n")


def test_verify_subadditivity(capsys):
    code, out, _ = run(capsys, "verify", "subadditivity", "@powers:2,2")
    assert code == 0
    assert "SUBADD" in out and "ACOUNT" in out


def test_verify_lattices(capsys):
    code, out, _ = run(capsys, "verify", "lattices", "--max", "5")
    assert code == 0
    assert "n=5:5" in out


def test_lattice_sweep_cap_fails_before_any_work(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("a lattice was enumerated past the cap")
    monkeypatch.setattr("synorres.verify.enumerate_lattices", never)
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "lattices", "--max", "10")
    assert code == 1
    assert out == ""
    assert "lattice sweeps cover 2 to 9 elements" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [["lattices", "--max", "1"],
                                  ["lattices", "--max", "0"],
                                  ["lattices", "--max", "-3"],
                                  ["properties", "--max", "0"],
                                  ["properties", "--max", "-1"]])
def test_verify_refuses_a_max_that_checks_nothing(capsys, argv):
    code, out, err = run(capsys, "verify", *argv)
    assert code == 1
    assert "all pass" not in out
    assert err.startswith("error: ")


def test_verify_properties(capsys):
    code, out, _ = run(capsys, "verify", "properties", "--max", "5")
    assert code == 0
    assert out.count("POSET") == 5


def test_verify_properties_takes_restriction_homology_in_one_pass(
        capsys, monkeypatch):
    # one basis_homology call per trial covers degrees -1 .. top + 1 of
    # the restriction; the per-degree SynorComplex.homology is not used
    import synorres.cli as cli
    from synorres.synor import SynorComplex

    def refuse(*args, **kwargs):
        raise AssertionError("verify properties called SynorComplex.homology")
    monkeypatch.setattr(SynorComplex, "homology", refuse)
    calls = []
    basis_homology = cli.basis_homology

    def recorded(basis_of, boundary_of, field, degrees, kind):
        calls.append(degrees)
        return basis_homology(basis_of, boundary_of, field, degrees, kind)
    monkeypatch.setattr(cli, "basis_homology", recorded)
    code, out, _ = run(capsys, "verify", "properties", "--max", "5")
    assert code == 0
    assert out.count("restriction=ok") == 5
    assert len(calls) == 5
    assert all(r.start == -1 and len(r) >= 2 for r in calls)


def test_verify_requires_input(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "subadditivity"])
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert "error: the following arguments are required: input" in err


@pytest.mark.parametrize("argv", [
    ["verify", "lattices", "@example62"],
    ["verify", "properties", "@kpq:3,2"],
    ["verify", "subadditivity", "@example62", "--max", "3"],
    ["verify", "decomposition", "@kpq:3,2", "--seed", "2"],
    ["verify", "subadditivity"],
])
def test_verify_refuses_options_its_driver_does_not_read(capsys, argv):
    # each driver's sub-parser declares only what the driver reads
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1
    assert out == ""
    assert err.startswith("usage: synorres") and "\nerror: " in err


@pytest.mark.parametrize("argv,command,extras", [
    (["verify", "lattices", "@example62"], "verify lattices", "@example62"),
    (["betti", "@example62", "extra"], "betti", "extra"),
    (["verify", "decomposition", "@kpq:3,2", "--seed", "2"],
     "verify decomposition", "--seed 2"),
])
def test_a_command_reports_arguments_it_does_not_declare(capsys, argv,
                                                         command, extras):
    # the chosen command's own usage line, not the top-level one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 1 and out == ""
    assert err.startswith(f"usage: synorres {command} [-h]")
    assert err.endswith(f"\nerror: unrecognized arguments: {extras}\n")


def test_main_builds_the_parser_once(capsys):
    synorres.cli.build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "verify", "lattices", "--max", "3")[0] == 0
    info = synorres.cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_non_utf8_ideal_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"vars: x y\n\xff x\n")
    code, out, err = run(capsys, "betti", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "not UTF-8 text" in err
    assert err.count("\n") == 1


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


def test_oversized_power_ideal_fails_fast(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "betti", "@powers:1200,1")
    assert code == 1
    assert "more than 2048 elements" in err
    assert time.perf_counter() - start < 3.0


@pytest.mark.parametrize("source", ["@powers:9,1", "@kpq:8,3"])
def test_decomposition_past_the_phi_budget_fails_fast(capsys, source):
    # the top generator's phi sums 9! order chains; the proof grew past
    # 400 MiB without ending before it was refused
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "decomposition", source)
    assert code == 1
    assert out == ""
    assert err == ("error: stage phi-budget: phi of the top 8-generator "
                   "sums 362880 order chains, above the budget of "
                   f"{synorres.verify.PHI_CHAIN_BUDGET}\n")
    assert time.perf_counter() - start < 5.0


def test_oversized_power_ideal_is_refused_by_the_parser(capsys, monkeypatch):
    # the generator list alone would hold 10^10 exponents
    def never(*args):
        raise AssertionError("a power generator was built")
    monkeypatch.setattr("synorres.corpus.Monomial", never)
    code, _, err = run(capsys, "betti", "@powers:100000,1")
    assert code == 1
    assert "more than 2048 elements" in err


@pytest.mark.parametrize("source", ["@kpq:1500,2", "@kpq:100000,2"])
def test_oversized_kpq_ideal_is_refused_before_any_generator(capsys,
                                                              monkeypatch,
                                                              source):
    # p + q + 1 generators of length p + q + 2 would come first
    def never(*args):
        raise AssertionError("a kpq generator was built")
    monkeypatch.setattr("synorres.corpus.Monomial", never)
    code, _, err = run(capsys, "betti", source)
    assert code == 1
    assert "more than 2048 elements" in err


def test_oversized_random_ideal_is_refused_before_any_draw(capsys,
                                                           monkeypatch):
    # 2 * 10^8 exponent draws would take minutes and about 10 GB
    def never(*args):
        raise AssertionError("a random generator was built")
    monkeypatch.setattr("synorres.corpus.Monomial", never)
    start = time.perf_counter()
    code, _, err = run(capsys, "betti", "@random:1,2,100000000,1")
    assert code == 1
    assert "refusing 200000000 exponent draws, more than 1048576" in err
    assert time.perf_counter() - start < 3.0


def test_random_ideal_at_the_lattice_cap_fails_fast(capsys):
    # 4000 draws in 20 variables with huge exponents keep more than 2048
    # minimal generators, so no lcm lattice could be built
    start = time.perf_counter()
    code, _, err = run(capsys, "betti", "@random:1,20,4000,1000000000")
    assert code == 1
    assert "at least 2048 minimal generators" in err
    assert time.perf_counter() - start < 10.0


def test_betti_text_of_a_huge_degree_fails_fast(capsys, tmp_path):
    # the shifts of (x^100000000, y) reach degree 10^8 + 1, so the text
    # grid would have 10^8 rows; the JSON holds only the four entries
    path = tmp_path / "ideal.txt"
    path.write_text("vars: x y\nx^100000000\ny\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "betti", str(path))
    assert (code, out) == (1, "")
    assert err == ("error: refusing to draw a Betti table of 100000000 "
                   "rows, more than 10000; --format json lists its entries\n")
    code, out, _ = run(capsys, "betti", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["entries"] == [
        [0, "1", 1], [1, "y", 1], [1, "x^100000000", 1],
        [2, "x^100000000*y", 1]]
    assert time.perf_counter() - start < 3.0


def test_betti_text_row_cap_is_exact(capsys, monkeypatch):
    # the example's grid has rows 0 to 4
    monkeypatch.setattr(synorres.resolution, "BETTI_TEXT_ROW_CAP", 5)
    assert run(capsys, "betti", "@example62")[:2] == (0, EXAMPLE_TEXT)
    monkeypatch.setattr(synorres.resolution, "BETTI_TEXT_ROW_CAP", 4)
    code, out, err = run(capsys, "betti", "@example62")
    assert (code, out) == (1, "")
    assert "Betti table of 5 rows, more than 4" in err


@pytest.mark.parametrize("command", ["betti", "resolve", "lattice", "synor"])
def test_an_exponent_past_int64_exits_one(capsys, tmp_path, command):
    path = tmp_path / "ideal.txt"
    path.write_text(f"vars: x y\nx^{2**63}\ny\n")
    code, out, err = run(capsys, command, str(path))
    assert (code, out) == (1, "")
    assert err == (f"error: generator x^{2**63} has an exponent of 2^63 "
                   f"or more\n")
    path.write_text(f"vars: x y\nx^{2**63 - 1}\ny\n")
    code, _, _ = run(capsys, command, str(path), "--format", "json")
    assert code == 0


def test_random_draw_cap_is_exact(monkeypatch):
    import synorres.corpus as corpus_module

    monkeypatch.setattr(corpus_module, "RANDOM_DRAW_CAP", 12)
    assert len(load_ideal("@random:1,3,4,2").generators) >= 1
    with pytest.raises(DomainError, match="more than 12"):
        load_ideal("@random:1,3,5,2")


def test_kpq_size_rule_is_exact(monkeypatch):
    import synorres.poset as poset_module

    # kpq(9, 8) has 1533 elements, under the cap: it parses
    assert len(load_ideal("@kpq:9,8").generators) == 9 + 8 + 1
    for p, q in [(3, 2), (4, 3), (5, 2)]:
        size = 2**(p + 1) + 2**(q + 1) - 3
        monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", size)
        assert lattice_of(load_ideal(f"@kpq:{p},{q}")).n == size
        monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", size - 1)
        with pytest.raises(DomainError, match=f"more than {size - 1} "):
            load_ideal(f"@kpq:{p},{q}")


@pytest.mark.parametrize("command", ["betti", "resolve", "lattice", "synor"])
def test_resolution_path_never_runs_the_lattice_test(capsys, monkeypatch,
                                                     command):
    # an lcm lattice is a lattice by construction
    def never(*args):
        raise AssertionError("the lattice test ran")
    monkeypatch.setattr("synorres.poset._lattice_tables", never)
    code, _, _ = run(capsys, command, "@kpq:4,3")
    assert code == 0


@pytest.mark.parametrize("field", ["q", "3"])
def test_json_dumps_write_coefficients_as_strings(capsys, field):
    # scalars are plain ints, so a dump that let json see them raw would
    # write numbers; every coefficient must stay a JSON string
    code, out, _ = run(capsys, "resolve", "@kpq:3,2", "--field", field,
                       "--format", "json")
    assert code == 0
    entries = [e for d in json.loads(out)["resolution"]["differentials"]
               for e in d["entries"]]
    assert entries and all(isinstance(e[3], str) for e in entries)
    code, out, _ = run(capsys, "synor", "@kpq:3,2", "--field", field,
                       "--format", "json")
    assert code == 0
    gens = json.loads(out)["generators"]
    coeffs = [v for g in gens for key in ("delta", "phi") for _k, v in g[key]]
    assert coeffs and all(isinstance(v, str) for v in coeffs)
    if field == "3":
        assert "2" in coeffs and not any(v.startswith("-") for v in coeffs)


def test_bad_usage_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti"])  # missing input argument
    assert exc.value.code == 1


def test_contradiction_writes_reproducer(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def boom(*args):
        raise TheoremContradiction("synthetic failure",
                                   {"stage": "unit", "extra": 1})
    # the parser binds cmd_betti once, so patch what the handler calls
    monkeypatch.setattr("synorres.cli.synor_resolution", boom)
    code = main(["betti", "@powers:2,1"])
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
