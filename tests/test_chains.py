import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synorres.algebra import (DimensionError, DomainError, PrimeField,
                              RationalField, ValidationError)
from synorres.chains import (CHAIN_CAP, FormalChain, _chain_count,
                             all_homology_ranks, boundary, boundary_key,
                             concat, graded_component, homology, normalize)
from synorres.corpus import (MmixRandom, ideal_kpq, ideal_powers,
                             random_chain, random_poset)
from synorres.linalg import span
from synorres.poset import build_lcm_lattice, open_interval
from synorres.resolution import betti_from_intervals
from synorres.synor import bounds_in, build_synor_complex

QQ = RationalField()


def test_zero_and_single():
    z = FormalChain.zero(1, QQ)
    assert z.is_zero() and z.dim == 1
    c = FormalChain.single((3, 1), QQ)
    assert c.coeff((3, 1)) == QQ.one
    assert (c - c).is_zero()
    assert (c + c).coeff((3, 1)) == QQ.of(2)


def test_add_rejects_dimension_mismatch():
    with pytest.raises((ValidationError, DimensionError)):
        FormalChain.single((2, 1), QQ) + FormalChain.single((1,), QQ)


def test_mixed_fields_are_refused():
    F3, F5 = PrimeField(3), PrimeField(5)
    a = FormalChain.single((2, 1), F3)
    b = FormalChain.single((2, 1), F5)
    with pytest.raises(DomainError):
        a + b
    with pytest.raises(DomainError):
        a - b
    with pytest.raises(DomainError):
        FormalChain.combination(1, F3, [(F3.one, a), (F3.one, b)])
    with pytest.raises(DomainError):
        FormalChain.single((2, 1), QQ) + FormalChain.single((2, 1), F3)


def test_prime_field_coefficients_stay_reduced():
    F3 = PrimeField(3)
    c = FormalChain.single((2, 1), F3)
    assert (-c).coeff((2, 1)) == 2
    assert c.scale(-1) == -c
    assert (c + c).coeff((2, 1)) == 2
    assert (c + c + c).is_zero()
    assert FormalChain.combination(1, F3, [(2, c), (1, c)]).is_zero()
    assert boundary(c).terms == {(1,): 1, (2,): 2}
    assert boundary_key((2, 2), F3) == {}  # +1 and -1 = 2 cancel mod 3


def test_boundary_of_edge():
    c = FormalChain.single((2, 1), QQ)
    b = boundary(c)
    assert b.coeff((1,)) == QQ.one
    assert b.coeff((2,)) == -QQ.one


@settings(max_examples=40)
@given(st.integers(1, 60), st.integers(0, 3))
def test_boundary_squares_to_zero(seed, dim):
    P = random_poset(seed, 4 + seed % 6)
    rng = MmixRandom(seed * 31 + dim)
    c = random_chain(P, dim, rng, QQ)
    assert boundary(boundary(c)).is_zero()


def test_boundary_of_points_is_empty_chain():
    # reduced complex: a vertex has boundary at the (-1)-dim empty chain
    c = FormalChain.single((4,), QQ)
    b = boundary(c)
    assert b.dim == -1
    assert b.coeff(()) == QQ.one


def test_normalize_drops_repeats():
    c = FormalChain.single((2, 2, 1), QQ, kind="multi")
    assert normalize(c).is_zero()
    c2 = FormalChain.single((3, 2, 1), QQ, kind="multi")
    out = normalize(c2)
    assert out.kind == "order"
    assert out.coeff((3, 2, 1)) == QQ.one


def test_concat_prepends_head(cycle_lattice):
    L = cycle_lattice
    c = FormalChain.single((1,), QQ)
    out = concat(L, (4,), c)
    assert out.coeff((4, 1)) == QQ.one
    with pytest.raises(DomainError):
        concat(L, (1,), FormalChain.single((4,), QQ))


def test_graded_component_splits():
    c = FormalChain.single((3, 1), QQ) + FormalChain.single((2, 1), QQ)
    at3 = graded_component(c, 3)
    assert at3.coeff((3, 1)) == QQ.one and at3.coeff((2, 1)) == QQ.zero


def test_homology_of_antichain():
    P = random_poset(1, 1).sub([0])  # single point
    assert all_homology_ranks(P, QQ).get(-1, 0) == 0
    # three incomparable points: reduced H_0 has rank 2
    leq = [[a == b for b in range(3)] for a in range(3)]
    from synorres.poset import Poset
    Q = Poset(leq)
    ranks = all_homology_ranks(Q, QQ)
    assert ranks.get(0, 0) == 2
    assert ranks.get(1, 0) == 0


def test_homology_of_cycle_middle(cycle_lattice):
    # middle part of the cycle lattice is a 3-antichain
    L = cycle_lattice
    middle = open_interval(L, L.bottom, L.top)
    ranks = all_homology_ranks(middle, QQ)
    assert ranks.get(0, 0) == 2
    assert all(r == 0 for d, r in ranks.items() if d != 0)


def test_homology_of_open_interval_example62(example62_lattice):
    L = example62_lattice
    inside = open_interval(L, L.bottom, L.top)
    ranks = all_homology_ranks(inside, QQ)
    # disjoint union of a point and a 3-sphere
    assert ranks.get(0, 0) == 1
    assert ranks.get(3, 0) == 1
    assert all(r == 0 for d, r in ranks.items() if d not in (0, 3))


def test_homology_representatives_are_cycles(cycle_lattice):
    L = cycle_lattice
    middle = open_interval(L, L.bottom, L.top)
    basis = homology(middle, 0, QQ)
    assert basis.rank == len(basis.cycles) == 2
    for z in basis.cycles:
        assert boundary(z).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(0, 7))
def test_rank_only_homology_matches_cycle_bases(seed, n):
    P = random_poset(seed, n)
    ranks = all_homology_ranks(P, QQ)
    assert ranks == {d: homology(P, d, QQ).rank
                     for d in range(-1, P.max_chain_dim() + 1)}


def bounds_by_index(P, ideal_ids, c):
    """The order-complex test that synor.bounds_in replaced, kept as its
    reference: c bounds in the ideal when it lies in the span of the
    boundaries of the supported (c.dim + 1)-chains.  Rows are positions
    among the supported c.dim-chains, and a term outside the ideal
    answers False before any span is read."""
    ideal = frozenset(int(i) for i in ideal_ids)
    rows = [k for k in P.chains(c.dim) if set(k) <= ideal]
    index = {k: i for i, k in enumerate(rows)}
    if not all(k in index for k in c.terms):
        return False
    red = span(({index[f]: v for f, v in boundary_key(k, c.field).items()}
                for k in P.chains(c.dim + 1) if set(k) <= ideal), c.field)
    return red.contains({index[k]: v for k, v in c.terms.items()})


def bounds_instance(seed, field, relabel):
    """A random poset (ids relabeled for odd seeds), an order ideal, and a
    chain of one degree: a boundary of ideal chains, a combination of
    ideal chains, or a boundary of ideal chains plus a chain that leaves
    the ideal.  Returns (P, ideal, c, whether c has a term outside)."""
    rng = MmixRandom(seed)
    P = random_poset(seed, 2 + rng.below(7))
    if seed % 2:
        P = relabel(P, seed)
    ideal = set()
    for x in range(P.n):
        if rng.below(3):
            ideal.update(P.below_or_equal(x))
    m = rng.below(P.max_chain_dim() + 1)

    def combination(d):
        return FormalChain.combination(d, field, (
            (field.of(1 + rng.below(4)), FormalChain.single(k, field))
            for k in P.chains(d) if set(k) <= ideal and rng.below(2)))
    c = boundary(combination(m + 1))
    kind = rng.below(3)
    if kind == 1:
        c = combination(m)
    outside = [k for k in P.chains(m) if not set(k) <= ideal]
    if kind == 2 and outside:
        c = c + FormalChain.single(outside[rng.below(len(outside))], field)
    return P, ideal, c, not all(set(k) <= ideal for k in c.terms)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10 ** 6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
def test_bounds_matches_the_index_based_membership(relabel, seed, field):
    # the synor-side test (rho of c in the span of delta over the ideal)
    # agrees with the span of the ideal's order chains
    P, ideal, c, _ = bounds_instance(seed, field, relabel)
    S = build_synor_complex(P, field)
    assert bounds_in(S, ideal, c) == bounds_by_index(P, ideal, c)


def test_bounds_cases_reach_every_outcome(relabel):
    # boundaries, non-boundaries inside the ideal, and chains leaving it
    for field in (QQ, PrimeField(2), PrimeField(3)):
        seen = set()
        for seed in range(1, 61):
            P, ideal, c, leaves = bounds_instance(seed, field, relabel)
            got = bounds_in(build_synor_complex(P, field), ideal, c)
            assert got == bounds_by_index(P, ideal, c)
            assert not (leaves and got)
            seen.add((got, leaves))
        assert {(True, False), (False, False), (False, True)} <= seen


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(0, 12))
def test_chain_count_counts_the_chains_without_building_them(seed, n):
    P = random_poset(seed, n)
    want = sum(len(P.chains(d)) for d in range(P.max_chain_dim() + 1))
    assert _chain_count(P) == want


def test_chain_cap_admits_kpq63_and_refuses_b8():
    # the largest open interval (0, m) of kpq(6,3) is the top's
    spec = ideal_kpq(6, 3)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    assert _chain_count(open_interval(L, L.bottom, L.top)) == 47365
    assert 47365 <= CHAIN_CAP
    # B8's top interval is refused before any interval is ranked
    spec = ideal_powers(8, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    start = time.process_time()
    with pytest.raises(DomainError, match=(
            r"^order-complex ranks: refusing a poset of 545834 chains, "
            rf"more than {CHAIN_CAP}$")):
        betti_from_intervals(L, QQ)
    assert time.process_time() - start < 1.0
