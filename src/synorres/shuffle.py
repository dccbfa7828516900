"""Shuffle products on lattice chains.

The product of an i-chain and a j-chain interleaves the two tuples in all
(i, j)-shuffle orders, replaces each interleaving by its suffix-join
chain (the tau operator), and sums with the signs of the shuffle
permutations.  On the normalized complex the degenerate multichains are
dropped; with normalization the product of two order chains is again a
combination of order chains, one dimension higher than the sum of the
inputs.  The empty chain is a two-sided unit.

Signs are computed by inversion count of the full permutation word, and
shuffles are enumerated by the position subset taken by the left factor,
in lexicographic order, so products are deterministic term by term.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import DomainError, ValidationError
from .chains import FormalChain, accumulate, boundary
from itertools import combinations


class ShufflePermutation(NamedTuple):
    """A permutation word interleaving blocks of sizes i+1 and j+1."""

    i: int
    j: int
    word: tuple[int, ...]  # word[p] = source index drawn at position p
    sign: int


def enumerate_shuffles(i: int, j: int) -> list[ShufflePermutation]:
    """All (i, j)-shuffles: words over 0..i+j+1 monotone on each block.

    There are binomial(i+j+2, i+1) of them; they are listed by the
    lexicographic order of the position set occupied by the left block.
    """
    if i < -1 or j < -1:
        raise DomainError("shuffle dimensions start at -1")
    n = i + j + 2
    out = []
    for left_positions in combinations(range(n), i + 1):
        word = [0] * n
        left = set(left_positions)
        a, b = 0, i + 1
        for p in range(n):
            if p in left:
                word[p] = a
                a += 1
            else:
                word[p] = b
                b += 1
        inv = sum(
            1
            for p in range(n)
            for q in range(p + 1, n)
            if word[p] > word[q]
        )
        out.append(ShufflePermutation(i, j, tuple(word), -1 if inv % 2 else 1))
    return out


def tau(key: tuple, L) -> tuple:
    """Replace a tuple by its suffix joins; the result weakly decreases."""
    if not key:
        return key
    out = [0] * len(key)
    out[-1] = key[-1]
    for p in range(len(key) - 2, -1, -1):
        out[p] = L.join_of(key[p], out[p + 1])
    return tuple(out)


def _validate_key(L, key: tuple, strict: bool):
    for x in key:
        if not 0 <= x < L.n:
            raise DomainError(f"element {x} outside the lattice")
    for p in range(len(key) - 1):
        if not L.le(key[p + 1], key[p]):
            raise ValidationError(f"not a decreasing chain: {key}")
        if strict and key[p + 1] == key[p]:
            raise ValidationError(f"not strictly decreasing: {key}")


def shuffle_product(c: FormalChain, c2: FormalChain, L,
                    normalized: bool = True) -> FormalChain:
    """The shuffle product of two chain combinations in a lattice.

    Output dimension is dim c + dim c2 + 1.  With normalized=True the
    degenerate multichains are dropped and the result is an order-chain
    combination; otherwise the raw multichain combination is returned.
    """
    if c.field != c2.field:
        raise ValidationError("mixed coefficient fields")
    if c.kind == "synor" or c2.kind == "synor":
        raise ValidationError("shuffle acts on order/multi chains")
    field = c.field
    out_dim = c.dim + c2.dim + 1
    out_kind = "order" if normalized else "multi"
    if c.is_zero() or c2.is_zero() or c.dim < -1 or c2.dim < -1:
        return FormalChain.zero(out_dim, field, out_kind)
    for key in c.terms:
        _validate_key(L, key, strict=c.kind == "order")
    for key in c2.terms:
        _validate_key(L, key, strict=c2.kind == "order")
    shuffles = enumerate_shuffles(c.dim, c2.dim)

    def signed_terms():
        for k1, v1 in c.terms.items():
            for k2, v2 in c2.terms.items():
                combined = k1 + k2
                base = v1 * v2
                for sh in shuffles:
                    mkey = tau(tuple(combined[s] for s in sh.word), L)
                    if normalized and any(
                        mkey[p] == mkey[p + 1] for p in range(len(mkey) - 1)
                    ):
                        continue
                    yield mkey, base if sh.sign > 0 else -base

    return FormalChain(out_dim, field, accumulate({}, signed_terms()),
                       out_kind)


def check_chain_map(c: FormalChain, c2: FormalChain, L,
                    normalized: bool = True) -> bool:
    """Boundary of the shuffle product against the product rule.

    With i = dim c and pi normalization, the exact identities are
        d(pi(c * c')) = pi(dc * c') + (-1)^(i+1) pi(c * dc')
    on order chains (normalized=True), and
        d(c * c') = dc * c' + (-1)^(i+1) c * dc'
    in the multichain complex (normalized=False).  normalized is passed
    on to shuffle_product.
    """
    if normalized and (c.kind != "order" or c2.kind != "order"):
        raise ValidationError("chain-map check expects order chains")
    field = c.field
    lhs = boundary(shuffle_product(c, c2, L, normalized))
    sign = field.one if (c.dim + 1) % 2 == 0 else -field.one
    rhs = shuffle_product(boundary(c), c2, L, normalized) + \
        shuffle_product(c, boundary(c2), L, normalized).scale(sign)
    return lhs == rhs
