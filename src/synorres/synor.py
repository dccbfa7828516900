"""Synor complexes: minimal strictly graded skeletons of order complexes.

An element x of a poset P is an i-synor when the order complex of the
elements strictly below x has nonzero reduced homology in degree i - 1;
minimal elements are 0-synors because the empty poset has one-dimensional
homology in degree -1.  A synor complex S(P) is a chain complex with a
distinguished basis graded by P: one generator of dimension -1 (the empty
generator), and for each element x as many dimension-i generators as the
rank of H_{i-1} of the part of S(P) below x.  It comes with an injective
graded chain map phi into the order-chain complex: the generator x star
zeta maps to x prepended to phi(zeta).  Restricting to any order ideal
preserves homology, which is checked against the simplicial side in the
test suite.

The construction processes elements along a fixed linear extension.  At
each element it cuts the generator lists down to the strict down-set and
takes the homology in every degree from one pass: witness-free spans of
the boundary matrices, top degree first with clearing, give every rank,
and a cycle pass runs only in the degrees with homology, which are the
degrees in which the element receives generators.  The cycle bases are
echelon-deterministic, so a complex is reproducible run to run.

The module also houses the verification toolkit built on top of the
complex: prefix representations of a generator's image, coefficient-sum
brackets, the deterministic retraction rho from order chains to synor
chains, and the relative-homology comparison of chains modulo an ideal.
That comparison rests on the connecting isomorphism H_m(P, I) = H~_{m-1}(I)
of the pair's long exact sequence, which holds when P is a cone (has a
unique maximal element, so its reduced homology vanishes): two relative
cycles are homologous rel I exactly when the boundary of their
difference bounds inside I, which chains.bounds decides.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import DimensionError, DomainError, Monomial, ValidationError
from .chains import (FormalChain, all_homology_ranks, basis_homology,
                     boundary, boundary_key, bounds, concat,
                     graded_component)
# Bound only so that perfbench's self-test can check that the tracer
# wraps functions through module-level aliases.
from .chains import homology as simplicial_homology  # noqa: F401
from .linalg import HomologyBasis, solve
from .poset import Poset


class Generator(NamedTuple):
    """A basis generator of a synor complex, graded by a poset element."""

    element: int  # poset id; -1 for the empty generator
    dim: int      # homological dimension; -1 for the empty generator
    index: int    # position in the echelon cycle basis at (element, dim)


EMPTY_GENERATOR = Generator(-1, -1, 0)


class SynorComplex:
    """A synor complex over a poset, possibly restricted to an order ideal.

    Restrictions share the generator data of the complex they came from;
    only the set of admitted elements differs.
    """

    def __init__(self, poset: Poset, field, element_ids, gens_by_dim,
                 delta, phi_memo, rho_memo):
        self.poset = poset
        self.field = field
        self.element_set = frozenset(element_ids)
        self.gens_by_dim = gens_by_dim
        self.delta = delta
        self._phi = phi_memo
        self._rho = rho_memo

    # --- basis access ---

    def dims(self) -> list[int]:
        return sorted(d for d, gens in self.gens_by_dim.items() if gens)

    def generators(self, dim: int) -> list[Generator]:
        return list(self.gens_by_dim.get(dim, ()))

    def total_rank(self) -> int:
        return sum(len(v) for v in self.gens_by_dim.values())

    # --- differential and embedding ---

    def delta_chain(self, chain: FormalChain) -> FormalChain:
        if chain.kind != "synor":
            raise ValidationError("expected a synor chain")
        return FormalChain.combination(
            chain.dim - 1, self.field,
            ((v, self.delta[g]) for g, v in chain.terms.items()), "synor")

    def phi(self, g: Generator) -> FormalChain:
        """The order-chain image of a generator (memoized)."""
        cached = self._phi.get(g)
        if cached is not None:
            return cached
        if g == EMPTY_GENERATOR:
            img = FormalChain(-1, self.field, {(): self.field.one}, "order")
        else:
            img = concat(self.poset, (g.element,), self.phi_chain(self.delta[g]))
        self._phi[g] = img
        return img

    def phi_chain(self, chain: FormalChain) -> FormalChain:
        if chain.kind != "synor":
            raise ValidationError("expected a synor chain")
        return FormalChain.combination(
            chain.dim, self.field,
            ((v, self.phi(g)) for g, v in chain.terms.items()), "order")

    # --- restriction and homology ---

    def restrict(self, ideal_ids) -> "SynorComplex":
        ideal = frozenset(int(i) for i in ideal_ids)
        if not ideal <= self.element_set:
            raise ValidationError("restriction exceeds the complex's elements")
        inside = np.fromiter(ideal, dtype=int, count=len(ideal))
        outside = np.fromiter(self.element_set - ideal, dtype=int)
        missing = np.argwhere(self.poset.leq[np.ix_(outside, inside)])
        if len(missing):
            y, x = outside[missing[0, 0]], inside[missing[0, 1]]
            raise ValidationError(
                f"{ideal_ids} is not an order ideal: missing {y} < {x}")
        keep = ideal | {EMPTY_GENERATOR.element}
        gens = {d: [g for g in lst if g.element in keep]
                for d, lst in self.gens_by_dim.items()}
        return SynorComplex(self.poset, self.field, ideal, gens,
                            self.delta, self._phi, self._rho)

    def homology(self, k: int) -> HomologyBasis:
        """Homology of the restricted complex; cycles are synor chains."""
        return basis_homology(self.generators, lambda g: self.delta[g].terms,
                              self.field, range(k, k + 1), "synor")[0]


def build_synor_complex(P: Poset, field) -> SynorComplex:
    """Construct a synor complex of P with phi, deterministically.

    Elements are processed along P's linear extension; at each element the
    homology of the already-built complex on the strict down-set below
    (an order ideal, as P is transitive, so restrict's guard is not
    needed) contributes one new generator per echelon basis cycle, with
    the cycle as its differential.
    """
    gens_by_dim: dict[int, list[Generator]] = {-1: [EMPTY_GENERATOR]}
    delta: dict[Generator, FormalChain] = {
        EMPTY_GENERATOR: FormalChain.zero(-2, field, "synor")
    }
    for x in P.linear_extension():
        below = {EMPTY_GENERATOR.element, *P.strictly_below(x)}
        gens = {d: [g for g in lst if g.element in below]
                for d, lst in gens_by_dim.items()}
        top_dim = max(d for d, lst in gens.items() if lst)
        for hb in basis_homology(lambda d: gens.get(d, []),
                                 lambda g: delta[g].terms, field,
                                 range(-1, top_dim + 1), "synor"):
            for idx, cycle in enumerate(hb.cycles):
                g = Generator(x, hb.dim + 1, idx)
                delta[g] = cycle
                gens_by_dim.setdefault(hb.dim + 1, []).append(g)
    for d in gens_by_dim:
        gens_by_dim[d].sort()
    return SynorComplex(P, field, range(P.n), gens_by_dim, delta, {}, {})


def synors(P: Poset, field) -> list[tuple[int, int, int]]:
    """All (element, i, multiplicity) with nonzero H_{i-1} strictly below.

    Computed simplicially (independent of any synor complex), so this
    doubles as the oracle for the constructed complex's generator counts.
    """
    out = []
    for x in range(P.n):
        ranks = all_homology_ranks(P.sub(P.strictly_below(x)), field)
        out.extend((x, d + 1, r) for d, r in ranks.items() if r)
    return out


# --- prefix representations ---


def ell_representation(S: SynorComplex, g: Generator,
                       ell: int) -> dict[tuple, FormalChain]:
    """Peel phi(g) into length-ell prefixes: phi(g) = sum chi * phi(zeta_chi).

    Returns {chi: zeta_chi} over decreasing (ell+1)-tuples starting at
    g's element; the zeta are synor chains of dimension dim(g) - ell - 1.
    Peeling one level maps the graded component of zeta at y to its delta,
    which is exactly the representation of the suffix sum below y.
    """
    if g == EMPTY_GENERATOR or g not in S.delta:
        raise DomainError("representation requires a generator of the complex")
    if not 0 <= ell <= g.dim:
        raise DomainError(
            f"prefix length {ell} outside 0..{g.dim} for this generator")
    reps: dict[tuple, FormalChain] = {(g.element,): S.delta[g]}
    for _ in range(ell):
        new: dict[tuple, FormalChain] = {}
        for chi, zeta in reps.items():
            for y in sorted({h.element for h in zeta.terms}):
                comp = graded_component(zeta, y)
                if comp.is_zero():
                    continue
                piece = S.delta_chain(comp)
                assert not piece.is_zero(), \
                    "a nonzero graded component cannot have zero delta"
                new[chi + (y,)] = piece
        reps = new
    return reps


# --- coefficient brackets ---


def bracket(t: FormalChain, c: tuple, j: int):
    """Sum of t's coefficients over basis chains equal to c off index j."""
    if t.kind == "synor":
        raise ValidationError("brackets act on order/multi chains")
    c = tuple(c)
    if len(c) != t.dim + 1:
        raise DimensionError("comparison chain has the wrong dimension")
    if not 0 <= j < len(c):
        raise IndexError(f"bracket index {j} out of range")
    total = t.field.zero
    for key, v in t.terms.items():
        if all(key[p] == c[p] for p in range(len(c)) if p != j):
            total = total + v
    return t.field.of(total)


# --- the retraction rho ---


def rho(S: SynorComplex, key: tuple) -> FormalChain:
    """Deterministic chain-map retraction of an order chain into S.

    rho of the empty chain is the empty generator; rho of a longer chain
    is the least-pivot solution xi of delta(xi) = rho(boundary), taken
    among generators at elements below the chain's top, which exists
    because the complex restricted to a principal ideal is acyclic.  Those
    elements form an order ideal, as the complex's elements do, so delta
    and the target stay on them.  Solutions are memoized per complex and
    shared by its restrictions.
    """
    key = tuple(int(x) for x in key)
    cached = S._rho.get(key)
    if cached is not None:
        return cached
    for p in range(len(key) - 1):
        if not S.poset.lt(key[p + 1], key[p]):
            raise ValidationError(f"not a strictly decreasing chain: {key}")
    for x in key:
        if x not in S.element_set:
            raise DomainError(f"element {x} outside the complex")
    if not key:
        out = FormalChain(-1, S.field, {EMPTY_GENERATOR: S.field.one}, "synor")
        S._rho[key] = out
        return out
    k = len(key) - 1
    target = FormalChain.combination(
        k - 1, S.field,
        ((coeff, rho(S, face))
         for face, coeff in boundary_key(key, S.field).items()), "synor")
    below = {EMPTY_GENERATOR.element, *S.poset.below_or_equal(key[0])}
    sol = solve({g: S.delta[g].terms for g in S.generators(k)
                 if g.element in below}, target.terms, S.field)
    if sol is None:
        raise DomainError(
            "no delta-preimage below the chain top; the restricted complex "
            "is unexpectedly not acyclic")
    out = FormalChain(k, S.field, sol, "synor")
    S._rho[key] = out
    return out


def rho_chain(S: SynorComplex, chain: FormalChain) -> FormalChain:
    """Linear extension of rho to order-chain combinations."""
    if chain.kind != "order":
        raise ValidationError("rho acts on order chains")
    return FormalChain.combination(
        chain.dim, S.field,
        ((v, rho(S, key)) for key, v in chain.terms.items()), "synor")


# --- relative homology comparison ---


def homologous_in_pair(g: FormalChain, g2: FormalChain, P: Poset,
                       ideal_ids) -> bool:
    """Whether two relative cycles agree in the homology of (P, ideal).

    Both chains must have boundaries supported in the ideal, and P must
    have a unique maximal element.  P is then a cone, whose reduced
    homology vanishes, so the connecting map H_m(P, I) -> H~_{m-1}(I) of
    the pair's long exact sequence is an isomorphism: g and g2 are
    homologous rel I exactly when the boundary of g - g2 is a boundary
    of chains supported in I.
    """
    if g.dim != g2.dim:
        raise DimensionError("relative cycles of different dimensions")
    if len(P.maximal_elements()) != 1:
        raise DomainError("relative comparison requires a unique maximal element")
    ideal = frozenset(int(i) for i in ideal_ids)
    db, db2 = boundary(g), boundary(g2)
    if not all(set(key) <= ideal for c in (db, db2) for key in c.terms):
        raise ValidationError("input is not a relative cycle")
    return bounds(P, ideal, db - db2)


# --- serialization ---


def synor_to_json(S: SynorComplex, variables=None) -> dict:
    """JSON-ready dump of generators, differentials, and embeddings."""
    def gen_key(g):
        return [g.element, g.dim, g.index]

    def label(i):
        lab = S.poset.label_of(i)
        if variables is not None and isinstance(lab, Monomial):
            return lab.format(variables)
        return str(lab)

    gens = []
    for d in S.dims():
        for g in S.gens_by_dim[d]:
            gens.append({
                "element": g.element,
                "label": label(g.element) if g.element >= 0 else "",
                "dim": g.dim,
                "index": g.index,
                "delta": [
                    [gen_key(h), str(v)] for h, v in S.delta[g].items()
                ],
                "phi": [
                    [list(key), str(v)] for key, v in S.phi(g).items()
                ],
            })
    return {"n": S.poset.n, "generators": gens}
