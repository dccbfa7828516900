from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from synorres.algebra import RationalField
from synorres.chains import FormalChain, boundary
from synorres.corpus import MmixRandom, random_chain, random_ideal
from synorres.poset import build_lcm_lattice
from synorres.shuffle import (check_chain_map, enumerate_shuffles,
                              shuffle_product, tau)

QQ = RationalField()


def small_lattices(count=12, max_size=15):
    out = []
    seed = 0
    while len(out) < count:
        seed += 1
        spec = random_ideal(seed, 1 + seed % 5, 2 + seed % 6, 1 + seed % 3)
        L = build_lcm_lattice(list(spec.generators), spec.variables)
        if 3 <= L.n <= max_size:
            out.append(L)
    return out

LATTICES = small_lattices()


def test_shuffle_counts():
    for i in range(-1, 4):
        for j in range(-1, 4):
            ws = enumerate_shuffles(i, j)
            assert len(ws) == comb(i + j + 2, i + 1)


def test_identity_shuffle_with_empty():
    ws = enumerate_shuffles(2, -1)
    assert len(ws) == 1
    assert ws[0].sign == 1


def test_tau_takes_suffix_joins(cycle_lattice):
    L = cycle_lattice
    # interleave the two atoms 1 and 2: prefix positions join to the top
    out = tau((1, 2), L)
    assert out == (L.join_of(1, 2), 2)


def test_shuffle_product_of_atoms(cycle_lattice):
    L = cycle_lattice
    a = FormalChain.single((1,), QQ)
    b = FormalChain.single((2,), QQ)
    prod = shuffle_product(a, b, L)
    # two interleavings, opposite signs, both running through the join
    assert prod.dim == 1
    top = L.join_of(1, 2)
    assert prod.coeff((top, 2)) is not None
    keys = sorted(prod.support())
    assert keys == [(top, 1), (top, 2)]
    assert prod.coeff((top, 1)) + prod.coeff((top, 2)) == QQ.zero


def test_product_with_empty_chain_is_identity(cycle_lattice):
    L = cycle_lattice
    c = FormalChain.single((4, 1), QQ)
    empty = FormalChain.single((), QQ)
    assert shuffle_product(c, empty, L) == c
    assert shuffle_product(empty, c, L) == c


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(LATTICES) - 1), st.integers(-1, 3),
       st.integers(-1, 3), st.integers(1, 10 ** 6))
def test_chain_map_property(which, d1, d2, salt):
    L = LATTICES[which]
    rng = MmixRandom(salt)
    a = random_chain(L, d1, rng, QQ)
    b = random_chain(L, d2, rng, QQ)
    if a.is_zero() or b.is_zero():
        return
    assert check_chain_map(a, b, L)
    assert check_chain_map(a, b, L, normalized=False)


def test_multichain_boundary_compatible_with_normalization(cycle_lattice):
    # d(pi(x)) = pi(d(x)) on a product that hits degenerate terms
    L = cycle_lattice
    a = FormalChain.single((4, 1), QQ)
    b = FormalChain.single((2,), QQ)
    raw = shuffle_product(a, b, L, normalized=False)
    from synorres.chains import normalize
    assert normalize(boundary(raw)) == boundary(normalize(raw))
