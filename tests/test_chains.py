import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synorres.algebra import (DimensionError, DomainError, RationalField,
                              ValidationError)
from synorres.chains import (FormalChain, all_homology_ranks, boundary,
                             concat, graded_component, homology, normalize)
from synorres.corpus import MmixRandom, random_chain, random_poset
from synorres.poset import open_interval, proper_parts

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
    _, middle = proper_parts(cycle_lattice)
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
    _, middle = proper_parts(cycle_lattice)
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
