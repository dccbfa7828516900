import json
import sys
from collections import Counter

import pytest

from synorres.algebra import (DomainError, Monomial, PrimeField, RationalField,
                              ValidationError)
from synorres import chains, resolution, synor, verify
from synorres.chains import FormalChain
from synorres.cli import main
from synorres.corpus import corpus_ideals, ideal_example62, ideal_kpq
from synorres.poset import Lattice, build_lcm_lattice, enumerate_lattices
from synorres.resolution import (betti_from_intervals, betti_from_resolution,
                                 interval_ranks, synor_resolution)
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
    L = example62_lattice
    ana = TopAnalysis(L, QQ)
    # the top is one 1-synor and one 4-synor: Betti columns 2 and 5
    assert {i: ana.beta(i, L.top) for i in range(L.n)
            if ana.beta(i, L.top)} == {2: 1, 5: 1}
    triples = ana.valid_triples()
    assert len(triples) == 23
    assert (1, 1, 0) in triples and (5, 5, 5) in triples
    assert all(i1 + i2 - k in (2, 5) for i1, i2, k in triples)


def test_bruteforce_on_boolean_cube():
    L = boolean_ideal(3)
    ana = TopAnalysis(L, QQ)
    # the cube's top is a 2-synor only: Betti column 3
    assert [i for i in range(L.n) if ana.beta(i, L.top)] == [3]
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


def _mutate(stage, monkeypatch):
    """Break the proof step that the stage checks, and only that one."""
    if stage == "relative-cycle-support":
        # the shuffle sum plus one chain from the top, whose boundary
        # leaves the middle part
        real = TopAnalysis._shuffle_sum

        def leaky(self, reps, dim):
            total = real(self, reps, dim)
            key = min(key for key in total.terms if key[0] == self.top)
            return total + FormalChain.single(key, self.field,
                                              kind=total.kind)
        monkeypatch.setattr(TopAnalysis, "_shuffle_sum", leaky)
    elif stage == "top-component":
        # a sum whose part at the top reads as zero
        monkeypatch.setattr(verify, "graded_component",
                            lambda c, x: FormalChain.zero(c.dim, c.field,
                                                          c.kind))
    else:  # witness-scan: no shuffle term joins to the top
        monkeypatch.setattr(verify, "_first_pair", lambda *args: None)


@pytest.mark.parametrize("stage", ["relative-cycle-support", "top-component",
                                   "witness-scan"])
def test_broken_proof_steps_fail_at_their_stage(stage, cycle_lattice,
                                                monkeypatch):
    # negative controls: each proof check fails, naming its stage, when
    # the step it checks is broken
    _mutate(stage, monkeypatch)
    ok, lines = verify_lattice_instances(TopAnalysis(cycle_lattice, QQ))
    assert not ok
    assert any(line.endswith(f"RESULT=fail witness=none stage={stage}")
               for line in lines)
    assert all(line.endswith(f"stage={stage}")
               for line in lines if "stage=" in line)
    with pytest.raises(TheoremContradiction) as e:
        TopAnalysis(cycle_lattice, QQ).constructive(1, 1, 0)
    assert e.value.payload["stage"] == stage
    assert json.loads(json.dumps(e.value.payload))["i1"] == 1


def test_constructive_checks_share_one_span_per_degree():
    # the nontriviality and relative-homology checks of every valid triple
    # ask whether a chain bounds in the middle part in degree m - 1, where
    # m is 1 or 4; each degree is spanned once, in S's memo, keyed by
    # (ideal, degree) beside rho's (chain top, degree) keys
    L = lattice_of(ideal_example62())
    ana = TopAnalysis(L, QQ)
    triples = ana.valid_triples()
    assert len(triples) == 23
    for triple in triples:
        assert ana.constructive(*triple) is not None
    spans = [key for key in ana.S._spans if isinstance(key[0], frozenset)]
    assert sorted(spans, key=lambda key: key[1]) == [
        (ana.middle, d) for d in (0, 3)]


@pytest.mark.parametrize("spec", [ideal_example62(), ideal_kpq(3, 2)],
                         ids=["example62", "kpq(3,2)"])
def test_the_proof_enumerates_no_order_chain(spec):
    # the constructive route decides its relative checks in S, so P = L
    # minus its bottom never builds its order chains (the "chains" and
    # "less" keys) or an order-chain span ("bounds")
    ana = TopAnalysis(lattice_of(spec), QQ)
    ok, _ = verify_lattice_instances(ana)
    assert ok
    names = {key if isinstance(key, str) else key[0] for key in ana.P._cache}
    assert not names & {"chains", "less", "bounds"}


def test_a_top_generator_boundary_does_not_bound_in_the_middle(
        example62_lattice):
    # phi(delta g) is a nonzero class of the middle part for each top
    # generator g; the nontriviality check rests on this
    ana = TopAnalysis(example62_lattice, QQ)
    tops = [g for d in ana.S.dims() for g in ana.S.generators(d)
            if g.element == ana.top]
    assert tops
    for g in tops:
        cycle = ana.S.phi_chain(ana.S.delta[g])
        assert not synor.bounds_in(ana.S, ana.middle, cycle)


def test_nontriviality_negative_control(example62_lattice, monkeypatch):
    # a proof whose principal chain bounds in the middle part fails at
    # the nontriviality stage, before any shuffle sum
    monkeypatch.setattr(verify, "bounds_in", lambda *args: True)
    ana = TopAnalysis(example62_lattice, QQ)
    for triple in ((1, 1, 0), (2, 3, 0)):
        with pytest.raises(TheoremContradiction) as e:
            ana.constructive(*triple)
        assert e.value.payload["stage"] == "nontriviality"
        assert str(e.value) == "principal chain has trivial relative class"


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
    ok, _ = verify_lattice_instances(TopAnalysis(lattice_of(spec), QQ))
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
    ok, lines = verify_intervals(TopAnalysis(L, QQ))
    assert ok and expected
    assert [line.split(" witness=")[0] for line in lines] == expected


def test_interval_decomposition_hypothesis_check(cycle_lattice):
    # xy is an atom: no (1,1) split of beta_2 there
    L = cycle_lattice
    ana = TopAnalysis(L, QQ)
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, L.atoms[0], 1, 1, 0, QQ, ana._betti)
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
    betti = {(i, L.index[mono]): v for (i, mono), v in T.entries.items()}
    checked = 0
    for (i, mono), _v in sorted(T.entries.items()):
        if i < 2:
            continue
        m = L.monomials.index(mono)
        search = closed_interval_search(L, m)
        for i1 in range(1, i):
            w = _interval_witness(L, m, i1, i - i1, 0, QQ, betti)
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
    ok, lines = verify_intervals(TopAnalysis(cycle_lattice, QQ))
    assert not ok
    assert lines == ["INTERVAL x*y*z i1=1 i2=1 RESULT=fail witness=none "
                     "stage=interval-search"]

    monkeypatch.setattr(TopAnalysis, "constructive",
                        contradiction("relative-homology"))
    ok, lines = verify_lattice_instances(TopAnalysis(cycle_lattice, QQ))
    assert not ok and lines
    assert all(line.endswith("RESULT=fail witness=none stage=relative-homology")
               for line in lines)


def test_interval_witness_contradiction_stages(cycle_lattice, monkeypatch):
    L = cycle_lattice
    betti = TopAnalysis(L, QQ)._betti
    top = L.top
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, top, 2, 2, 0, QQ, betti)  # beta_{4,xyz} = 0
    assert e.value.payload["stage"] == "interval-search"
    monkeypatch.setattr(DecompositionWitness, "verify",
                        lambda self, field=None: False)
    with pytest.raises(TheoremContradiction) as e:
        _interval_witness(L, top, 1, 1, 0, QQ, betti)
    assert e.value.payload["stage"] == "interval-reverify"


def test_subadditivity_reports(example62_lattice):
    T = betti_from_intervals(example62_lattice, QQ)
    rep = check_subadditivity(example62_lattice, 2, 2, 0, QQ, T)
    assert rep.ok
    # t_4 = 5 <= t_2 + t_2 = 12, witnesses at every degree-5 multidegree
    assert any("n1=" in line for line in rep.lines())
    rep2 = check_subadditivity(example62_lattice, 1, 1, 1, QQ, T)
    assert rep2.ok


@pytest.mark.parametrize("spec", [ideal_example62(), ideal_kpq(4, 3)],
                         ids=["example62", "kpq(4,3)"])
def test_subadditivity_reads_the_table_by_lattice_id(spec, monkeypatch):
    # the witness search reads the table once, keyed by lattice id, and
    # never looks a candidate's monomial up in it
    L = lattice_of(spec)
    T = betti_from_resolution(synor_resolution(L, QQ))
    pd = T.projective_dimension()
    triples = [(i1, i2, k) for i1 in range(pd + 1) for i2 in range(i1, pd + 1)
               for k in range(min(i1, i2) + 1) if i1 + i2 - k <= pd]

    def lines():
        return [check_subadditivity(L, *t, QQ, T).lines() for t in triples]
    expected = lines()
    assert sum(len(ls) > 1 for ls in expected) > 1

    class Unkeyed(dict):  # iterable, but refuses every lookup by key
        def get(self, *args):
            raise AssertionError("a table entry looked up by monomial")
        __getitem__ = __contains__ = get
    monkeypatch.setattr(T, "entries", Unkeyed(T.entries))
    assert lines() == expected


def test_subadditivity_refuses_a_table_over_other_variables(
        example62_lattice):
    # example62's table on kpq(3,2)'s lattice (seven variables) and on
    # B6's (six others, every label squarefree) is refused up front
    T = betti_from_resolution(synor_resolution(example62_lattice, QQ))
    for L in (lattice_of(ideal_kpq(3, 2)), boolean_ideal(6)):
        with pytest.raises(ValidationError, match="variables"):
            check_subadditivity(L, 1, 1, 0, QQ, T)


def test_subadditivity_refuses_an_entry_outside_the_lattice(
        example62_lattice):
    # B6's table under example62's variable names has entries, such as
    # the atom a in column 1, that are not elements of example62's lattice
    L = example62_lattice
    B6 = boolean_ideal(6)
    T = betti_from_resolution(synor_resolution(B6, QQ))
    relabeled = resolution.BettiTable(L.variables, T.entries)
    with pytest.raises(ValidationError, match="not an element"):
        check_subadditivity(L, 1, 1, 0, QQ, relabeled)


def test_shift_count_bound(example62_lattice):
    T = betti_from_intervals(example62_lattice, QQ)
    for (i1, i2) in ((1, 1), (1, 2), (2, 3), (0, 4)):
        rep = check_shift_count_bound(T, i1, i2)
        assert rep.ok


def test_verify_lattice_instances_lines(cycle_lattice):
    ok, lines = verify_lattice_instances(TopAnalysis(cycle_lattice, QQ))
    assert ok
    assert lines
    for line in lines:
        assert line.startswith("LATTICE ")
        assert "RESULT=pass" in line
        assert "witness=" in line


def test_verify_intervals_lines(cycle_lattice):
    ok, lines = verify_intervals(TopAnalysis(cycle_lattice, QQ))
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
    # interval_ranks ranks one complex per element through facet_ranks,
    # which names the element; no command reads the order complex
    real = chains.facet_ranks
    named = []

    def counted(facets, field, where):
        named.append(where)
        return real(facets, field, where)

    def refused(P, field):
        raise AssertionError("a command read the order complex")

    monkeypatch.setattr(resolution, "facet_ranks", counted)
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "synorres" and getattr(
                module, "all_homology_ranks", None) is chains.all_homology_ranks):
            monkeypatch.setattr(module, "all_homology_ranks", refused)
    for argv, least in [(["verify", "decomposition", "@kpq:3,2"], 1),
                        (["verify", "subadditivity", "@example62"], 1),
                        # resolve ranks every element above the bottom
                        (["resolve", "@kpq:3,2"],
                         lattice_of(ideal_kpq(3, 2)).n - 1)]:
        named.clear()
        assert main(argv) == 0
        seen = Counter(named)
        assert [where for where, c in seen.items() if c > 1] == []
        assert len(seen) >= least
    capsys.readouterr()


def test_sweep_lines_do_not_depend_on_a_warm_memo():
    def lines(L):
        ana = TopAnalysis(L, QQ)
        return verify_lattice_instances(ana)[1] + verify_intervals(ana)[1]

    cold = lines(lattice_of(ideal_kpq(3, 2)))
    warm = lattice_of(ideal_kpq(3, 2))
    for field in (PrimeField(2), QQ):  # every interval's ranks memoized
        for x in range(1, warm.n):
            interval_ranks(warm, x, field)
    assert lines(warm) == cold


@pytest.mark.parametrize("field", [QQ, PrimeField(2)], ids=["QQ", "GF2"])
def test_synor_counts_equal_interval_ranks(field):
    # TopAnalysis reads its synors off S's generator counts; the Koszul
    # or crosscut complex of each open interval (0, x) is the second
    # route, on every lattice with n <= 7 and every corpus lcm lattice
    lattices = [*(L for n in range(2, 8) for L in enumerate_lattices(n)),
                *(lattice_of(spec) for spec in corpus_ideals())]
    checked = 0
    for L in lattices:
        ana = TopAnalysis(L, field)
        for x in range(L.n):
            if x == L.bottom:
                continue
            ranks = interval_ranks(L, x, field)
            assert [ana.beta(i, x) for i in range(L.n + 2)] == [
                ranks.get(i - 2, 0) for i in range(L.n + 2)], (L.n, x)
            checked += 1
    assert checked == 807


def test_bruteforce_witness_check_rejects_fake_synors(example62_lattice):
    # with every element above the bottom counted as a synor in every
    # column, the search finds pairs that the interval-rank witness check
    # refuses; it reads no count the search read
    L = example62_lattice
    ana = TopAnalysis(L, QQ)
    ana._betti = Counter({(i, x): 1 for i in range(2 * L.n)
                          for x in range(L.n) if x != L.bottom})
    triples = ana.valid_triples()
    assert len(triples) == 45
    kept = []
    for triple in triples:
        try:
            w = ana.bruteforce(*triple)
        except TheoremContradiction as e:
            assert str(e) == "witness certification failed"
            assert e.payload["stage"] == "bruteforce"
            continue
        kept.append((triple, w.n1, w.n2))
    # the two survivors name a genuine pair: an atom and a 3-synor
    assert kept == [((1, 4, 0), 1, 30), ((1, 4, 1), 1, 30)]


def witness_memo_and_names(L):
    """After a sweep of L's valid triples, the elements in L's interval
    memo and the witness elements that both routes named."""
    ana = TopAnalysis(L, QQ)
    ok, _ = verify_lattice_instances(ana)
    assert ok
    memo = {key[2] for key in L._cache
            if isinstance(key, tuple) and key[0] == "interval_ranks"}
    named = {n for triple in ana.valid_triples()
             for w in (ana.bruteforce(*triple), ana.constructive(*triple))
             for n in (w.n1, w.n2)}
    return memo, named


@pytest.mark.parametrize("spec", [ideal_example62(), ideal_kpq(3, 2)],
                         ids=["example62", "kpq(3,2)"])
def test_interval_memo_holds_only_the_witnesses(spec):
    # the routes search S's counts and the Betti table, so interval
    # ranks are read only where DecompositionWitness.verify checks one
    L = lattice_of(spec)
    memo, named = witness_memo_and_names(L)
    assert memo == named and len(memo) < L.n - 1


def test_interval_memo_holds_only_the_witnesses_on_small_lattices():
    for n in range(2, 8):
        for L in enumerate_lattices(n):
            memo, named = witness_memo_and_names(L)
            assert memo == named, (n, L.leq.tolist())
