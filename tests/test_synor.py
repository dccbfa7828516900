import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synorres.linalg as linalg
import synorres.synor as synor
from synorres.algebra import (DimensionError, DomainError, PrimeField,
                              RationalField, ValidationError)
from synorres.chains import (FormalChain, all_homology_ranks, boundary,
                             boundary_key, concat)
from synorres.corpus import (MmixRandom, ideal_kpq, ideal_powers,
                             random_ideal, random_poset)
from synorres.linalg import Reducer, kernel_basis
from synorres.poset import (Poset, build_lcm_lattice, enumerate_lattices,
                            without_bottom)
from synorres.synor import (EMPTY_GENERATOR, Generator, SynorComplex,
                            bracket, build_synor_complex, ell_representation,
                            homologous_in_pair, rho, rho_chain, synor_to_json,
                            synors)

QQ = RationalField()


def antichain(n):
    return Poset([[a == b for b in range(n)] for a in range(n)])


def test_synors_of_antichain_and_chain():
    assert synors(antichain(3), QQ) == [(0, 0, 1), (1, 0, 1), (2, 0, 1)]
    # a total order: only the least element is a synor
    leq = [[a <= b for b in range(3)] for a in range(3)]
    assert synors(Poset(leq), QQ) == [(0, 0, 1)]


def test_cycle_lattice_synors(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    found = synors(upper, QQ)
    # three atoms as 0-synors, top a 1-synor of multiplicity 2
    top = upper.n - 1
    assert (top, 1, 2) in found
    assert len([1 for x, i, m in found if i == 0]) == 3


def test_build_dims_on_cycle_lattice(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    dims = {d: len(S.generators(d)) for d in S.dims()}
    assert dims == {-1: 1, 0: 3, 1: 2}
    assert S.total_rank() == 6


def test_empty_poset_complex():
    P = antichain(1).sub([])
    S = build_synor_complex(P, QQ)
    assert S.dims() == [-1]
    assert S.generators(-1) == [EMPTY_GENERATOR]


def check_s1(P, field):
    S = build_synor_complex(P, field)
    oracle = {(x, i): m for x, i, m in synors(P, field)}
    built = {}
    for d in S.dims():
        if d < 0:
            continue
        for g in S.generators(d):
            built[(g.element, g.dim)] = built.get((g.element, g.dim), 0) + 1
    assert built == oracle
    return S


def check_s2(P, S, ideal):
    sub = S.restrict(ideal)
    Q = P.sub(ideal)
    simplicial = all_homology_ranks(Q, QQ)
    top = max(sub.dims(), default=-1)
    for k in range(-1, top + 2):
        assert sub.homology(k).rank == simplicial.get(k, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 500))
def test_s1_s2_on_random_posets(seed):
    P = random_poset(seed, 3 + seed % 7)
    S = check_s1(P, QQ)
    # principal ideals, strict and weak
    for x in range(P.n):
        check_s2(P, S, P.strictly_below(x))
        check_s2(P, S, P.below_or_equal(x))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10**6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
def test_build_on_relabeled_posets(relabel, seed, field):
    # ids that are not a linear extension: Generator order is no longer
    # the build's creation order, and each down-set basis is pivoted in
    # Generator order; the generator counts still match the simplicial
    # oracle, every differential is a cycle strictly below its generator,
    # every principal ideal keeps the simplicial ranks, and rho is a
    # chain map
    P = relabel(random_poset(seed, 3 + seed % 7), seed)
    S = check_s1(P, field)
    for d in S.dims():
        for g in S.generators(d):
            assert S.delta_chain(S.delta[g]).is_zero()
            assert all(h.element < 0 or P.lt(h.element, g.element)
                       for h in S.delta[g].terms)
    for key in P.chains(1) + P.chains(2):
        assert S.delta_chain(rho(S, key)) == rho_chain(
            S, boundary(FormalChain.single(key, field)))
    for x in range(P.n):
        for ideal in (P.strictly_below(x), P.below_or_equal(x)):
            sub = S.restrict(ideal)
            simplicial = all_homology_ranks(P.sub(ideal), field)
            for k in range(-1, max(sub.dims(), default=-1) + 2):
                assert sub.homology(k).rank == simplicial.get(k, 0)


def test_principal_weak_ideals_are_acyclic():
    P = random_poset(7, 8)
    S = build_synor_complex(P, QQ)
    for x in range(P.n):
        sub = S.restrict(P.below_or_equal(x))
        for k in range(0, max(sub.dims(), default=-1) + 1):
            assert sub.homology(k).rank == 0


def test_strict_grading_and_phi_chain_map(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    for d in S.dims():
        if d < 0:
            continue
        for g in S.generators(d):
            for h, coeff in S.delta[g].items():
                assert coeff != QQ.zero
                if h.element >= 0:
                    assert upper.lt(h.element, g.element)
            # embedding intertwines the differentials
            assert boundary(S.phi(g)) == S.phi_chain(S.delta[g])
            # graded at the generator's element: every top is g.element
            for key in S.phi(g).support():
                assert key[0] == g.element


def test_build_spans_top_down_with_clearing_and_finds_cycles_where_homology_is_nonzero(
        example62_lattice, monkeypatch):
    # per element x the build needs no restrict guard.  D is the strict
    # down-set of x and a its first element along the linear extension;
    # one rank pass of cleared spans runs on the quotient of the complex
    # on D by the contractible ideal {y in D : y v a < x}: the generators
    # at the y in D with y v a = x, with delta's terms on the ideal
    # dropped, and its ranks are those of D.  An element with nothing
    # below is ranked whole (the empty generator alone).  A witness pass
    # then runs exactly in the degrees d where x receives dimension-(d+1)
    # generators, on the full d_d over D, against the full d_{d+1}'s RREF
    def refuse(*args, **kwargs):
        raise AssertionError("build_synor_complex called restrict")
    monkeypatch.setattr(SynorComplex, "restrict", refuse)
    calls = []
    ranked, cycles_of = synor.homology_ranks, synor.representative_cycles

    def rank_pass(boundaries, field):
        out = ranked(boundaries, field)
        calls.append(("ranks", boundaries, out[0]))
        return out

    def witness_pass(cols, above, rank, field):
        calls.append(("witness", cols, above))
        return cycles_of(cols, above, rank, field)
    monkeypatch.setattr(synor, "homology_ranks", rank_pass)
    monkeypatch.setattr(synor, "representative_cycles", witness_pass)
    upper = without_bottom(example62_lattice)
    S = build_synor_complex(upper, QQ)
    monkeypatch.undo()
    top_dim = max(S.dims())
    order = {x: i for i, x in enumerate(upper.linear_extension())}
    pos = ranked_generators = whole_generators = 0
    for x in upper.linear_extension():
        down = sorted(upper.strictly_below(x), key=order.get)
        # the generators below x in the order the build appended them
        gens = {d: sorted((g for g in S.generators(d)
                           if g.element in down or g == EMPTY_GENERATOR),
                          key=lambda g: (order.get(g.element, -1), g.index))
                for d in range(-1, top_dim + 2)}
        full = {d: {g: S.delta[g].terms for g in lst}
                for d, lst in gens.items()}
        quotient = ({y for y in down if upper.join_of(y, down[0]) == x}
                    if down else {EMPTY_GENERATOR.element})
        qgens = {d: [g for g in lst if g.element in quotient]
                 for d, lst in gens.items() if any(
                     g.element in quotient for g in lst)}
        receives = sorted({g.dim - 1 for d in range(0, top_dim + 1)
                           for g in S.generators(d) if g.element == x})
        ranked_generators += sum(map(len, qgens.values()))
        whole_generators += sum(map(len, gens.values()))
        if not qgens:
            assert receives == []
            continue
        kind, mats, ranks = calls[pos]
        pos += 1
        assert kind == "ranks"
        lowest = min(qgens)
        assert mats == [{g: {h: v for h, v in S.delta[g].terms.items()
                             if h.element in quotient}
                         for g in qgens.get(d, ())}
                        for d in range(lowest, max(qgens) + 2)]
        whole = all_homology_ranks(upper.sub(down), QQ)
        assert {lowest + i: r for i, r in enumerate(ranks) if r} == \
            {d: r for d, r in whole.items() if r}
        passes = []
        while pos < len(calls) and calls[pos][0] == "witness":
            _, cols, above = calls[pos]
            (d,) = [d for d in full if list(full[d].items()) ==
                    list(cols.items())]
            assert above.rows == linalg.span(full[d + 1].values(),
                                             QQ).rows
            passes.append(d)
            pos += 1
        assert passes == receives
    assert pos == len(calls)
    assert top_dim >= 2
    # the quotients rank a fraction of the generators of the down-sets
    assert 4 * ranked_generators < whole_generators


def reference_build(P, field):
    """(gens_by_dim, delta) of the build that ranks every strict down-set
    whole: the homology of the complex on it, from its full matrices."""
    gens_by_dim = {-1: [EMPTY_GENERATOR]}
    delta = {EMPTY_GENERATOR: FormalChain.zero(-2, field, "synor")}
    for x in P.linear_extension():
        below = {EMPTY_GENERATOR.element, *P.strictly_below(x)}
        gens = {d: [g for g in lst if g.element in below]
                for d, lst in gens_by_dim.items()}
        top = max(d for d, lst in gens.items() if lst)
        mats = [{g: delta[g].terms for g in gens.get(d, ())}
                for d in range(-1, top + 2)]
        for hb in linalg.complex_homology(mats, field, -1):
            for idx, cycle in enumerate(hb.cycles):
                g = Generator(x, hb.dim + 1, idx)
                delta[g] = FormalChain(hb.dim, field, cycle, "synor")
                gens_by_dim.setdefault(hb.dim + 1, []).append(g)
    return {d: sorted(lst) for d, lst in gens_by_dim.items()}, delta


def missing_join(P) -> bool:
    """Whether some x has an element of its strict down-set without a
    join with the first one along P's linear extension."""
    order = P.linear_extension()
    for x in order:
        down = [r for r, y in enumerate(order) if P.lt(y, x)]
        if down and any(P.join_classes(order[down[0]])[0] >> r & 1
                        for r in down):
            return True
    return False


def build_case(kind, seed):
    if kind == "lcm":
        r = MmixRandom(seed)
        spec = random_ideal(seed, 2 + r.below(4), 2 + r.below(5),
                            1 + r.below(3))
        return without_bottom(build_lcm_lattice(list(spec.generators),
                                                spec.variables))
    if kind == "lattice":
        lattices = list(enumerate_lattices(2 + seed % 5))
        L = lattices[seed % len(lattices)]
        return L if seed % 3 == 0 else without_bottom(L)
    if kind == "missing":  # the first random poset from seed on that
        # reaches the whole-down-set fallback
        return next(P for s in range(seed, seed + 1000)
                    if missing_join(P := random_poset(s, 8)))
    return random_poset(seed, 3 + seed % 8)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["lcm", "lattice", "poset", "missing"]),
       st.integers(1, 10**6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3),
                        PrimeField(32003)]))
def test_build_equals_the_whole_down_set_reference(kind, seed, field):
    # ranking atom-complement quotients changes no generator, no delta
    # and no term order of a delta
    P = build_case(kind, seed)
    S = build_synor_complex(P, field)
    gens_by_dim, delta = reference_build(P, field)
    assert S.gens_by_dim == gens_by_dim
    assert S.delta.keys() == delta.keys()
    for g, chain in delta.items():
        assert list(S.delta[g].terms.items()) == list(chain.terms.items())


def test_missing_joins_fall_back_to_the_whole_down_set():
    # random posets reach the fallback, where a join with the first
    # element below is missing, and still build the reference complex
    seeds = [s for s in range(1, 60) if missing_join(random_poset(s, 8))]
    assert len(seeds) >= 5
    for seed in seeds[:5]:
        P = random_poset(seed, 8)
        for field in (QQ, PrimeField(32003)):
            gens_by_dim, delta = reference_build(P, field)
            S = build_synor_complex(P, field)
            assert S.gens_by_dim == gens_by_dim
            assert S.delta == delta


def test_restrict_rejects_non_ideal(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    with pytest.raises(ValidationError):
        S.restrict([upper.n - 1])  # top without the atoms below it


def test_ell_representation_reassembles(example62_lattice):
    upper = without_bottom(example62_lattice)
    S = build_synor_complex(upper, QQ)
    top_gens = [g for g in S.generators(4) if g.element == upper.n - 1]
    g = top_gens[0]
    phi_g = S.phi(g)
    for ell in range(1, 5):
        reps = ell_representation(S, g, ell)
        total = FormalChain.zero(phi_g.dim, QQ)
        for chi, zeta in reps.items():
            assert len(chi) == ell + 1
            assert chi[0] == g.element
            assert not zeta.is_zero()
            assert S.delta_chain(zeta).is_zero()
            total = total + concat(upper, chi, S.phi_chain(zeta))
        assert total == phi_g


def test_rho_base_chain_map_support(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    # base case: the empty order chain lifts to the empty generator
    base = rho(S, ())
    assert list(base.items()) == [(EMPTY_GENERATOR, QQ.one)]
    for key in upper.chains(0) + upper.chains(1):
        lifted = rho(S, key)
        # chain map: delta(rho(c)) = rho(del c)
        got = S.delta_chain(lifted)
        want = rho_chain(S, boundary(FormalChain.single(key, QQ)))
        assert got == want
        # supported weakly below the chain's top
        for h, _ in lifted.items():
            if h.element >= 0:
                assert upper.le(h.element, key[0])


def assert_brackets_vanish(P, S, t):
    for key in t.support():
        for j in range(len(key)):
            for alt in range(P.n):
                c = key[:j] + (alt,) + key[j + 1:]
                if all(P.lt(c[s + 1], c[s]) for s in range(len(c) - 1)):
                    assert bracket(t, c, j) == QQ.zero


def test_bracket_vanishing_on_cycles(cycle_lattice, example62_lattice):
    # embedded synor cycles have vanishing brackets against every order
    # chain at every slot; cycles drawn from top-free restrictions
    for L, dim, expected_rank in ((cycle_lattice, 0, 2),
                                  (example62_lattice, 3, 1)):
        upper = without_bottom(L)
        S = build_synor_complex(upper, QQ)
        middle = [x for x in range(upper.n) if x != upper.n - 1]
        sub = S.restrict(middle)
        basis = sub.homology(dim)
        assert basis.rank == expected_rank
        for z in basis.cycles:
            t = S.phi_chain(z)
            assert not t.is_zero()
            assert_brackets_vanish(upper, S, t)


def test_bracket_input_validation(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    g = S.generators(0)[0]
    t = S.phi(g)
    with pytest.raises(IndexError):
        bracket(t, (0,), 3)


def test_homologous_in_pair_detects_boundary(cycle_lattice):
    L = cycle_lattice
    upper = without_bottom(L)
    S = build_synor_complex(upper, QQ)
    top = upper.n - 1
    ideal = upper.strictly_below(top)
    g1, g2 = S.generators(1)
    c1, c2 = S.phi(g1), S.phi(g2)
    # distinct homology classes rel the open star: not homologous
    assert not homologous_in_pair(c1, c2, S, ideal)
    assert homologous_in_pair(c1, c1, S, ideal)


def test_homologous_in_pair_and_bounds_in_guards(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    top = upper.n - 1
    ideal = upper.strictly_below(top)
    c1 = S.phi(S.generators(1)[0])
    with pytest.raises(DimensionError):
        homologous_in_pair(c1, S.phi(S.generators(0)[0]), S, ideal)
    two_tops = build_synor_complex(antichain(2), QQ)
    vertex = FormalChain.single((0,), QQ)
    with pytest.raises(DomainError):
        homologous_in_pair(vertex, vertex, two_tops, [])
    # the span is kept per ideal, so the ideal must be one of S's ideals
    vertex = FormalChain.single((ideal[0],), QQ)
    with pytest.raises(ValidationError):
        synor.bounds_in(S, [top], vertex)
    with pytest.raises(ValidationError):
        synor.bounds_in(S.restrict(ideal[:1]), ideal, vertex)
    # a vertex is no cycle, and its difference with another vertex is
    # a boundary exactly when the two are joined inside the ideal
    assert not synor.bounds_in(S, ideal, vertex)
    assert synor.bounds_in(S, range(upper.n),
                           vertex - FormalChain.single((top,), QQ))
    assert not synor.bounds_in(S, ideal, FormalChain.single((top,), QQ)
                               - vertex)


def test_synor_json_shape(cycle_lattice):
    upper = without_bottom(cycle_lattice)
    S = build_synor_complex(upper, QQ)
    data = synor_to_json(S, variables=cycle_lattice.variables)
    assert data["n"] == upper.n
    labels = [g["label"] for g in data["generators"] if g["dim"] == 0]
    assert sorted(labels) == ["x*y", "x*z", "y*z"]


def homologous_in_pair_by_span(g, g2, P, ideal_ids):
    """The comparison before the connecting isomorphism, kept as the
    reference: g - g2 must lie in the span of chains supported in the
    ideal plus boundaries of one-higher chains of P."""
    if g.dim != g2.dim:
        raise DimensionError("relative cycles of different dimensions")
    if len(P.maximal_elements()) != 1:
        raise DomainError("relative comparison requires a unique maximal element")
    ideal = frozenset(int(i) for i in ideal_ids)
    m = g.dim
    for c in (g, g2):
        db = boundary(c)
        for key in db.terms:
            if not set(key) <= ideal:
                raise ValidationError("input is not a relative cycle")
    basis_m = P.chains(m)
    index_m = {c: i for i, c in enumerate(basis_m)}
    red = Reducer(g.field)
    for key in basis_m:
        if key and set(key) <= ideal:
            red.insert({index_m[key]: g.field.one})
    for key in P.chains(m + 1):
        raw = boundary_key(key, g.field)
        red.insert({index_m[f]: v for f, v in raw.items()})
    diff = g - g2
    vec = {index_m[key]: v for key, v in diff.terms.items()}
    return red.contains(vec)


PAIR_FIELDS = [QQ, PrimeField(2), PrimeField(3)]


def pair_instance(seed: int, field):
    """P = L minus bottom for an lcm lattice of a random ideal (odd seeds)
    or an enumerated lattice (even seeds), a random order ideal of P
    without the top, a degree m, and two relative m-cycles
    concat((top,), a) + b with a a cycle of the ideal and b a chain in it
    (half the time the second a differs from the first by a boundary),
    and a non-cycle when the ideal has (m - 1)-chains."""
    rng = MmixRandom(seed)
    if seed % 2:
        spec = random_ideal(seed, 1 + rng.below(4), 1 + rng.below(6),
                            1 + rng.below(2))
        L = build_lcm_lattice(list(spec.generators), spec.variables)
    else:
        lattices = list(enumerate_lattices(2 + rng.below(6)))
        L = lattices[rng.below(len(lattices))]
    P = L.sub([i for i in range(L.n) if i != L.bottom])
    (top,) = P.maximal_elements()
    ideal = set()
    for x in range(P.n):
        if x != top and rng.below(2):
            ideal.update(P.below_or_equal(x))
    ideal = frozenset(ideal)
    Q = P.sub(ideal)  # ids ascend, so Q's chains map back through Q.origin

    def chains(d):
        return [tuple(Q.origin[i] for i in key) for key in Q.chains(d)]

    def coeff():
        return field.of(rng.below(field.modulus or 5))

    def combination(d, vectors):
        return FormalChain.combination(d, field, (
            (coeff(), FormalChain(d, field, vec)) for vec in vectors))

    m = rng.below(Q.max_chain_dim() + 2)
    rows = chains(m - 1)
    cycles = kernel_basis({key: boundary_key(key, field) for key in rows},
                          field)
    units = [{key: field.one} for key in chains(m)]

    def relative_cycle(a):
        return concat(P, (top,), a) + combination(m, units)

    a = combination(m - 1, cycles)
    if rng.below(2):
        a2 = a + boundary(combination(m, units))
    else:
        a2 = combination(m - 1, cycles)
    # top * c for a chain c of the ideal has top * boundary(c) in its
    # boundary, so it is no relative cycle
    bad = next((concat(P, (top,), FormalChain(m - 1, field, {key: field.one}))
                for key in rows if key), None)
    return P, ideal, relative_cycle(a), relative_cycle(a2), bad


def check_connecting_isomorphism(seed, field):
    P, ideal, g, g2, bad = pair_instance(seed, field)
    S = build_synor_complex(P, field)
    want = homologous_in_pair_by_span(g, g2, P, ideal)
    assert homologous_in_pair(g, g2, S, ideal) == want
    assert homologous_in_pair(g, g, S, ideal)
    if bad is not None:
        with pytest.raises(ValidationError):
            homologous_in_pair(bad, g, S, ideal)
        with pytest.raises(ValidationError):
            homologous_in_pair_by_span(bad, g, P, ideal)
    return want, bad is not None


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from(PAIR_FIELDS))
def test_homologous_in_pair_is_the_connecting_isomorphism(seed, field):
    # H_m(P, I) = H~_{m-1}(I) for the cone P: the pair comparison agrees
    # with the span test of the relative complex it replaced
    check_connecting_isomorphism(seed, field)


def test_connecting_isomorphism_cases_reach_both_outcomes():
    for field in PAIR_FIELDS:
        seen = {check_connecting_isomorphism(seed, field)
                for seed in range(1, 41)}
        assert {True, False} <= {want for want, _ in seen}
        assert any(refused for _, refused in seen)


def test_builds_share_one_memoized_poset_without_leaking_across_fields():
    # RP^2's Betti table depends on the field, so builds over QQ, GF(2)
    # and QQ again on the memoized L minus 0 must each equal a build on a
    # fresh copy of that poset
    from test_acceptance import rp2_lattice
    L = rp2_lattice()
    P = without_bottom(L)
    assert without_bottom(L) is P
    classes = P.join_classes(0)
    assert P.join_classes(0) is classes
    with pytest.raises(TypeError):
        classes[1][next(iter(classes[1]))] = 0
    ids = [i for i in range(L.n) if i != L.bottom]
    totals = []
    for field in (QQ, PrimeField(2), QQ):
        S = build_synor_complex(without_bottom(L), field)
        assert S.poset is P
        fresh = build_synor_complex(L.sub(ids), field)
        assert synor_to_json(S) == synor_to_json(fresh)
        totals.append(S.total_rank())
    assert totals[0] == totals[2] != totals[1]


def top_generator(L, field):
    P = without_bottom(L)
    S = build_synor_complex(P, field)
    top = P.origin.index(L.top)
    return S, min((g for d in S.dims() for g in S.generators(d)
                   if g.element == top), key=lambda g: (-g.dim, g.index))


@pytest.mark.parametrize("spec,count", [
    (ideal_powers(7, 1), 5040), (ideal_powers(8, 1), 40320),
    (ideal_kpq(6, 3), 5040), (ideal_kpq(7, 3), 40320)],
    ids=lambda v: getattr(v, "name", str(v)))
def test_phi_count_of_the_top_generator(spec, count):
    # B_n's top generator maps to the n! maximal chains of B_n minus 0;
    # kpq(p, 3)'s top carries a (p-1)-generator besides a 3-generator
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    S, g = top_generator(L, QQ)
    assert S.phi_count(g) == count
    assert S.phi_count(g) is S._counts[g]


@pytest.mark.parametrize("seed", range(1, 9))
def test_phi_count_bounds_the_terms_of_phi(seed):
    spec = random_ideal(seed, 3 + seed % 3, 3 + seed % 4, 2)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    P = without_bottom(L)
    S = build_synor_complex(P, QQ)
    for d in S.dims():
        for g in S.generators(d):
            assert 0 < len(S.phi(g).terms) <= S.phi_count(g)
    S, g = top_generator(build_lcm_lattice(
        list(ideal_powers(4, 1).generators), ideal_powers(4, 1).variables),
        QQ)
    assert len(S.phi(g).terms) == S.phi_count(g) == 24


def test_zero_differential_builds_span_nothing(monkeypatch):
    # every quotient of B7 minus 0 is one generator, whose delta has no
    # term on it, so each rank pass reads column counts and the build
    # spans only for its witness passes
    calls = []
    spans = linalg.cleared_spans

    def counted(*args):
        calls.append(args)
        return spans(*args)
    monkeypatch.setattr(linalg, "cleared_spans", counted)
    spec = ideal_powers(7, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    S = build_synor_complex(without_bottom(L), QQ)
    assert calls == []
    assert S.total_rank() == 2 ** 7
