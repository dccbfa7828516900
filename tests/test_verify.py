import json
import sys
from collections import Counter

import pytest

from synorres.algebra import DomainError, Monomial, PrimeField, RationalField
from synorres import chains, synor, verify
from synorres.cli import main
from synorres.corpus import ideal_example62, ideal_kpq
from synorres.poset import Lattice, build_lcm_lattice
from synorres.resolution import (betti_from_intervals, betti_from_resolution,
                                 synor_resolution)
from synorres.verify import (DecompositionWitness, TheoremContradiction,
                             TopAnalysis, _interval_witness, check_class_sums,
                             check_shift_count_bound, check_subadditivity,
                             sweep_lattices, verify_intervals,
                             verify_lattice_instances)

QQ = RationalField()


def boolean_ideal(n):
    """Square-free power ideal: its lattice is the boolean cube."""
    return build_lcm_lattice(
        [Monomial(tuple(1 if i == j else 0 for j in range(n)))
         for i in range(n)],
        tuple(f"x{i+1}" for i in range(n)))


def test_valid_triples_example62(example62_lattice):
    ana = TopAnalysis(example62_lattice, QQ)
    assert ana.middle_ranks() == {-1: 0, 0: 1, 1: 0, 2: 0, 3: 1}
    triples = ana.valid_triples()
    assert len(triples) == 23
    assert (1, 1, 0) in triples and (5, 5, 5) in triples
    assert all(i1 + i2 - k in (2, 5) for i1, i2, k in triples)


def test_bruteforce_on_boolean_cube():
    L = boolean_ideal(3)
    ana = TopAnalysis(L, QQ)
    # the cube's top is a 3-synor only
    assert [m for m, r in ana.middle_ranks().items() if r] == [1]
    w = ana.bruteforce(1, 2, 0)
    assert w is not None
    assert w.verify(QQ)
    assert L.join_of(w.n1, w.n2) == L.top


def test_constructive_matches_hypotheses(example62_lattice):
    ana = TopAnalysis(example62_lattice, QQ)
    for triple in [(1, 1, 0), (2, 3, 0), (4, 1, 0), (5, 5, 5)]:
        w = ana.constructive(*triple)
        assert w is not None
        assert w.verify(QQ)


def test_decomposition_wrappers(cycle_lattice):
    ana = TopAnalysis(cycle_lattice, QQ)
    w1 = ana.bruteforce(1, 1, 0)
    w2 = ana.constructive(1, 1, 0)
    for w in (w1, w2):
        assert w is not None
        assert cycle_lattice.join_of(w.n1, w.n2) == cycle_lattice.top
        assert w.verify(QQ)


def test_invalid_params_rejected(cycle_lattice):
    ana = TopAnalysis(cycle_lattice, QQ)
    with pytest.raises(DomainError):
        ana.bruteforce(0, 1, 0)  # i1 must be >= 1
    with pytest.raises(DomainError):
        ana.bruteforce(1, 1, 2)  # k > min(i1, i2)


def test_hypothesis_miss_returns_none(cycle_lattice):
    # top of the cycle lattice is a 2-synor; (3,3,1) needs a 5-synor
    ana = TopAnalysis(cycle_lattice, QQ)
    assert ana.bruteforce(3, 3, 1) is None
    assert ana.constructive(3, 3, 1) is None


def test_witness_verify_rejects_tampering(cycle_lattice):
    ana = TopAnalysis(cycle_lattice, QQ)
    w = ana.bruteforce(1, 1, 0)
    assert w.verify(QQ)
    bad = DecompositionWitness(cycle_lattice, w.i1, w.i2, w.k,
                               cycle_lattice.bottom, w.n2, w.target)
    assert not bad.verify(QQ)


def test_routes_raise_when_their_witness_fails_verify(cycle_lattice,
                                                      monkeypatch):
    # every TopAnalysis route checks its witness through verify() alone
    ana = TopAnalysis(cycle_lattice, QQ)
    monkeypatch.setattr(DecompositionWitness, "verify",
                        lambda self, field=None: False)
    for route, stage in ((ana.bruteforce, "bruteforce"),
                         (ana.constructive, "constructive")):
        with pytest.raises(TheoremContradiction) as e:
            route(1, 1, 0)
        assert e.value.payload["stage"] == stage
        assert str(e.value) == "witness certification failed"


def test_step_lemma_small_and_example(cycle_lattice, example62_lattice):
    ana = TopAnalysis(cycle_lattice, QQ)
    g = [g for g in ana.S.generators(1) if g.element == ana.top][0]
    assert ana.verify_step_lemma(g, 1)
    ana2 = TopAnalysis(example62_lattice, QQ)
    g4 = [g for g in ana2.S.generators(4) if g.element == ana2.top][0]
    for ell in (1, 2, 3, 4):
        assert ana2.verify_step_lemma(g4, ell)
    with pytest.raises(DomainError):
        ana2.verify_step_lemma(g4, 5)


def test_constructive_checks_share_one_span_per_degree():
    # the nontriviality, relative-homology and step-lemma checks of every
    # valid triple ask whether a chain bounds in the middle part in degree
    # m - 1, where m is 1 or 4; each degree is spanned once, in P's cache
    L = lattice_of(ideal_example62())
    ana = TopAnalysis(L, QQ)
    triples = ana.valid_triples()
    assert len(triples) == 23
    for triple in triples:
        assert ana.constructive(*triple) is not None
    g4 = [g for g in ana.S.generators(4) if g.element == ana.top][0]
    assert ana.verify_step_lemma(g4, 2)
    spans = [key for key in ana.P._cache if key[0] == "bounds"]
    assert sorted(spans, key=lambda key: key[2]) == [
        ("bounds", ana.middle, d, QQ) for d in (0, 3)]


@pytest.mark.parametrize("spec,passes,spans", [
    (ideal_example62(), 7, 81), (ideal_kpq(3, 2), 7, 40)],
    ids=["example62", "kpq(3,2)"])
def test_each_proof_pass_and_rho_span_is_computed_once(monkeypatch, spec,
                                                       passes, spans):
    # a sweep over every valid triple runs one proof pass (one shuffle
    # sum) per (i1, m) and eliminates rho's columns once per (chain top,
    # degree); 23 and 21 triples share these 7 pairs
    counts = Counter()
    real_sum, real_eliminate = TopAnalysis._shuffle_sum, synor.eliminate

    def shuffle_sum(self, *args, **kwargs):
        counts["shuffle sums"] += 1
        return real_sum(self, *args, **kwargs)

    def eliminate(*args, **kwargs):
        counts["eliminations"] += 1
        return real_eliminate(*args, **kwargs)

    monkeypatch.setattr(TopAnalysis, "_shuffle_sum", shuffle_sum)
    monkeypatch.setattr(synor, "eliminate", eliminate)
    ok, _ = verify_lattice_instances(lattice_of(spec), QQ)
    assert ok
    assert counts == {"shuffle sums": passes, "eliminations": spans}


def test_a_failed_proof_pass_raises_for_each_triple(example62_lattice,
                                                    monkeypatch):
    # a pass that raises is not kept, so each triple that shares its
    # (i1, m) = (2, 4) raises again, with its own parameters
    monkeypatch.setattr(verify, "homologous_in_pair", lambda *args: False)
    ana = TopAnalysis(example62_lattice, QQ)
    triples = [(2, 3, 0), (2, 4, 1), (2, 5, 2)]
    assert set(triples) <= set(ana.valid_triples())
    for i1, i2, k in triples:
        with pytest.raises(TheoremContradiction) as e:
            ana.constructive(i1, i2, k)
        payload = e.value.payload
        assert (payload["i1"], payload["i2"], payload["k"]) == (i1, i2, k)
        assert payload["stage"] == "relative-homology"


def test_class_sums_negative_control(example62_lattice):
    ana = TopAnalysis(example62_lattice, QQ)
    g = [g for g in ana.S.generators(4) if g.element == ana.top][0]
    rep = check_class_sums(ana.S, g, 3, QQ)
    assert rep.ok
    assert rep.data["j0_nonzero"]  # slot 0 must not vanish


def test_interval_decomposition(example62_lattice):
    # verify_intervals runs one certified instance per (m, i1, i2) of the
    # synor table; the instances are those of the order-complex oracle
    L = example62_lattice
    T = betti_from_intervals(L, QQ)
    expected = [f"INTERVAL {m.format(L.variables)} i1={i1} i2={i - i1} "
                f"RESULT=pass"
                for (i, m), _r in sorted(T.entries.items()) if i >= 2
                for i1 in range(1, i)]
    ok, lines = verify_intervals(L, QQ)
    assert ok and expected
    assert [line.split(" witness=")[0] for line in lines] == expected


def test_interval_decomposition_hypothesis_check(cycle_lattice):
    # xy is an atom: no (1,1) split of beta_2 there
    L = cycle_lattice
    T = betti_from_resolution(synor_resolution(L, QQ))
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, L.atoms[0], 1, 1, 0, QQ, T)
    assert e.value.payload["stage"] == "interval-search"


def closed_interval_search(L, m):
    """The synor-pair search run inside [0, m] as a lattice of its own,
    returning witness pairs in L's ids."""
    ids = [y for y in range(L.n) if L.le(y, m)]
    sub = L.sub(ids)
    ana = TopAnalysis(Lattice(sub.leq, labels=sub.labels), QQ)

    def search(i1, i2):
        w = ana.bruteforce(i1, i2, 0)
        return ids[w.n1], ids[w.n2]
    return search


@pytest.mark.parametrize("name", ["cycle", "example62", "kpq32"])
def test_interval_witness_matches_closed_interval_search(
        name, cycle_lattice, example62_lattice):
    if name == "kpq32":
        spec = ideal_kpq(3, 2)
        L = build_lcm_lattice(list(spec.generators), spec.variables)
    else:
        L = cycle_lattice if name == "cycle" else example62_lattice
    T = betti_from_resolution(synor_resolution(L, QQ))
    checked = 0
    for (i, mono), _v in sorted(T.entries.items()):
        if i < 2:
            continue
        m = L.monomials.index(mono)
        search = closed_interval_search(L, m)
        for i1 in range(1, i):
            w = _interval_witness(L, m, i1, i - i1, 0, QQ, T)
            assert (w.n1, w.n2) == search(i1, i - i1)
            checked += 1
    assert checked > 0


def test_sweep_fail_lines_name_the_stage(cycle_lattice, monkeypatch):
    def contradiction(stage):
        def raiser(*args, **kwargs):
            raise TheoremContradiction("injected", {"stage": stage})
        return raiser

    monkeypatch.setattr(verify, "_interval_witness",
                        contradiction("interval-search"))
    ok, lines = verify_intervals(cycle_lattice, QQ)
    assert not ok
    assert lines == ["INTERVAL x*y*z i1=1 i2=1 RESULT=fail witness=none "
                     "stage=interval-search"]

    monkeypatch.setattr(TopAnalysis, "constructive",
                        contradiction("relative-homology"))
    ok, lines = verify_lattice_instances(cycle_lattice, QQ)
    assert not ok and lines
    assert all(line.endswith("RESULT=fail witness=none stage=relative-homology")
               for line in lines)


def test_interval_witness_contradiction_stages(cycle_lattice, monkeypatch):
    L = cycle_lattice
    T = betti_from_resolution(synor_resolution(L, QQ))
    top = L.top
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, top, 2, 2, 0, QQ, T)  # beta_{4,xyz} = 0
    assert e.value.payload["stage"] == "interval-search"
    monkeypatch.setattr(DecompositionWitness, "verify",
                        lambda self, field=None: False)
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, top, 1, 1, 0, QQ, T)
    assert e.value.payload["stage"] == "interval-reverify"


def test_subadditivity_reports(example62_lattice):
    T = betti_from_intervals(example62_lattice, QQ)
    rep = check_subadditivity(example62_lattice, 2, 2, 0, QQ, T)
    assert rep.ok
    # t_4 = 5 <= t_2 + t_2 = 12, witnesses at every degree-5 multidegree
    assert any("n1=" in line for line in rep.lines())
    rep2 = check_subadditivity(example62_lattice, 1, 1, 1, QQ, T)
    assert rep2.ok


def test_shift_count_bound(example62_lattice):
    T = betti_from_intervals(example62_lattice, QQ)
    for (i1, i2) in ((1, 1), (1, 2), (2, 3), (0, 4)):
        rep = check_shift_count_bound(T, i1, i2)
        assert rep.ok


def test_verify_lattice_instances_lines(cycle_lattice):
    ok, lines = verify_lattice_instances(cycle_lattice, QQ)
    assert ok
    assert lines
    for line in lines:
        assert line.startswith("LATTICE ")
        assert "RESULT=pass" in line
        assert "witness=" in line


def test_verify_intervals_lines(cycle_lattice):
    ok, lines = verify_intervals(cycle_lattice, QQ)
    assert ok
    # single interval instance: beta_2 at xyz split as (1,1)
    assert len(lines) == 1
    assert lines[0].startswith("INTERVAL x*y*z i1=1 i2=1 RESULT=pass")


def test_sweep_small_lattices():
    counts = {}
    ok, lines = sweep_lattices(5, QQ, counts)
    assert ok
    assert counts == {2: 1, 3: 1, 4: 2, 5: 5}
    assert all("RESULT=pass" in line for line in lines)


def test_theorem_contradiction_payload_is_json_ready(cycle_lattice):
    ana = TopAnalysis(cycle_lattice, QQ)
    seen = None
    try:
        raise TheoremContradiction(
            "synthetic", payload=ana._payload(1, 1, 0, "unit-test"))
    except TheoremContradiction as e:
        seen = e
    assert seen.payload["stage"] == "unit-test"
    json.dumps(seen.payload, default=str)


def lattice_of(spec):
    return build_lcm_lattice(list(spec.generators), spec.variables)


def test_each_interval_is_computed_once_per_run(monkeypatch, capsys):
    real = chains.all_homology_ranks
    labels = []

    def counted(P, field):
        labels.append(P.labels)
        return real(P, field)

    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "synorres"
                and getattr(module, "all_homology_ranks", None) is real):
            monkeypatch.setattr(module, "all_homology_ranks", counted)
    assert main(["verify", "decomposition", "@kpq:3,2"]) == 0
    assert main(["verify", "subadditivity", "@example62"]) == 0
    capsys.readouterr()
    seen = Counter(labels)
    # a nonempty interval (0, x) is named by its labels; an empty one lies
    # below an atom, so there are at most as many as atoms
    assert [lab for lab, c in seen.items() if lab and c > 1] == []
    atoms = sum(len(lattice_of(spec).atoms)
                for spec in (ideal_kpq(3, 2), ideal_example62()))
    assert 0 < seen[()] <= atoms


def test_sweep_lines_do_not_depend_on_a_warm_memo():
    def lines(L):
        return (verify_lattice_instances(L, QQ)[1]
                + verify_intervals(L, QQ)[1])

    cold = lines(lattice_of(ideal_kpq(3, 2)))
    warm = lattice_of(ideal_kpq(3, 2))
    betti_from_intervals(warm, PrimeField(2))
    betti_from_intervals(warm, QQ)
    assert lines(warm) == cold
