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
each element x it needs the homology of the part of the complex on the
strict down-set D below x, and it takes the ranks from a much smaller
complex.  Let a be an element of D minimal in it.  When every y in D has
a join with a, the ideal {y in D : y v a < x} is contractible by
Quillen's conical contraction y <= y v a >= a (Quillen 1978; Bjorner,
Topological methods), so the complex on D has the homology of its
quotient by that ideal: the generators at the atom complement
{y in D : y v a = x}, with the differential's terms on the ideal
dropped.  On the Boolean lattice B_n minus its bottom that quotient is
one generator, where D carries 2^|x| - 1, and its differential is zero,
so its ranks are its generator counts.  Otherwise witness-free spans of
the quotient's boundary matrices, top degree first with clearing, give
every rank.  A cycle pass then runs only in the degrees with homology, which
are the degrees in which x receives generators, on the full matrix over
D and against the RREF of the full matrix above it.  The cycle bases
are echelon-deterministic, so a complex is reproducible run to run, and
they do not depend on where the ranks came from.  Where a join with a is
missing (posets that are not lattices), D is ranked whole.  The build's
sets of elements are int bitmasks over linear-extension positions: D is
a down-set mask, the atom complement is D and a's join class at x
(Poset.join_classes, one per a), and the elements carrying generators of
each dimension are one mask, so no element costs a numpy call.

The module also houses the verification toolkit built on top of the
complex: prefix representations of a generator's image, coefficient-sum
brackets, the deterministic retraction rho from order chains to synor
chains, and the relative-homology comparison of chains modulo an ideal.
That comparison rests on the connecting isomorphism H_m(P, I) = H~_{m-1}(I)
of the pair's long exact sequence, which holds when P is a cone (has a
unique maximal element, so its reduced homology vanishes): two relative
cycles are homologous rel I exactly when the boundary of their
difference bounds inside I.  bounds_in decides that in the complex: rho
induces the inverse of phi on the homology of every order ideal, so an
order cycle c bounds in I exactly when rho(c) bounds in S restricted to
I, and no order chain of I is ever enumerated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import DimensionError, DomainError, Monomial, ValidationError
from .chains import (FormalChain, all_homology_ranks, basis_homology,
                     boundary, boundary_key, concat, graded_component)
# Bound only so that perfbench's self-test can check that the tracer
# wraps functions through module-level aliases.
from .chains import homology as simplicial_homology  # noqa: F401
from .linalg import (HomologyBasis, eliminate, homology_ranks,
                     representative_cycles, span)
from .poset import Poset, _ranked_down


class Generator(NamedTuple):
    """A basis generator of a synor complex, graded by a poset element."""

    element: int  # poset id; -1 for the empty generator
    dim: int      # homological dimension; -1 for the empty generator
    index: int    # position in the echelon cycle basis at (element, dim)


EMPTY_GENERATOR = Generator(-1, -1, 0)


class SynorComplex:
    """A synor complex over a poset, possibly restricted to an order ideal.

    Restrictions share the generator data and the memos of the complex
    they came from; only the set of admitted elements differs.
    """

    def __init__(self, poset: Poset, field, element_ids, gens_by_dim,
                 delta, memos=None):
        self.poset = poset
        self.field = field
        self.element_set = frozenset(element_ids)
        self.gens_by_dim = gens_by_dim
        self.delta = delta
        self._phi, self._rho, self._spans = memos or ({}, {}, {})
        self._counts: dict = {}  # phi_count's memo

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

    def phi_count(self, g: Generator) -> int:
        """The number of order chains phi(g) is summed from, read off the
        complex alone: 1 for the empty generator, else the sum of
        phi_count(h) over the terms h of delta(g), since phi(g) is g's
        element prepended to each chain of those phi(h).  Chains that
        cancel are counted, so it bounds phi(g)'s terms.  Memoized."""
        counts = self._counts
        if g not in counts:
            counts[g] = 1 if g == EMPTY_GENERATOR else sum(
                self.phi_count(h) for h in self.delta[g].terms)
        return counts[g]

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
        return SynorComplex(self.poset, self.field, ideal, gens, self.delta,
                            (self._phi, self._rho, self._spans))

    def homology(self, k: int) -> HomologyBasis:
        """Homology of the restricted complex; cycles are synor chains."""
        return basis_homology(self.generators, lambda g: self.delta[g].terms,
                              self.field, range(k, k + 1), "synor")[0]


def build_synor_complex(P: Poset, field) -> SynorComplex:
    """Construct a synor complex of P with phi, deterministically.

    Elements are processed along P's linear extension; at each element x
    the homology of the already-built complex on the strict down-set
    D below x (an order ideal, as P is transitive, so restrict's guard is
    not needed) contributes one new generator per echelon basis cycle,
    with the cycle as its differential.

    The ranks come from a quotient.  Let a be the first element of D
    along the extension, so a is minimal in D.  If every y in D has a
    join with a in P, the ideal I = {y in D : y v a < x} contains a and
    is contractible (Quillen's conical contraction y <= y v a >= a), so
    the complex on I is acyclic and the complex on D has the homology of
    its quotient by I: the generators at the atom complement
    {y in D : y v a = x}, with delta's terms on I dropped.  Its ranks are
    taken by homology_ranks (its column counts when its differential is
    zero, else cleared spans); only in the degrees d with h_d > 0 does
    the witness pass run, on the full d_d over D and against the RREF of
    the full d_{d+1}'s span, so the cycles are those the whole down-set
    would give.  Where a join is missing, or D is empty, D is ranked
    whole.  D, the atom complement and the elements carrying each
    dimension's generators are bitmasks over extension positions (bit r
    for the r-th element), read in position order.
    """
    order, down_of = _ranked_down(P)
    gens_by_dim: dict[int, list[Generator]] = {-1: [EMPTY_GENERATOR]}
    delta: dict[Generator, FormalChain] = {
        EMPTY_GENERATOR: FormalChain.zero(-2, field, "synor")
    }
    at = {EMPTY_GENERATOR.element: {-1: [EMPTY_GENERATOR]}}  # y -> d -> gens
    carries: dict[int, int] = {}  # d -> positions of elements with d-gens
    for r, x in enumerate(order):
        down = down_of[x] ^ 1 << r  # D, as positions along the extension
        quotient = _atom_complement(P, x, down, order)
        if quotient is None:
            elements = [EMPTY_GENERATOR.element, *_ids(down, order)]
        else:
            elements = _ids(quotient, order)
        inside = set(elements)
        basis: dict[int, list[Generator]] = {}
        for y in elements:
            for d, lst in at.get(y, {}).items():
                basis.setdefault(d, []).extend(lst)
        if not basis:
            continue
        lowest = min(basis)
        mats = [{g: {h: v for h, v in delta[g].terms.items()
                     if h.element in inside} for g in basis.get(d, ())}
                for d in range(lowest, max(basis) + 2)]
        ranks, spans = homology_ranks(mats, field)

        def full(d):
            """d_d over D whole, in the build's column order."""
            return {g: delta[g].terms
                    for y in _ids(carries.get(d, 0) & down, order)
                    for g in at[y][d]}
        for i, rank in enumerate(ranks):
            if not rank:
                continue
            d = lowest + i
            if quotient is None:
                cols, above = mats[i], spans[i + 1]
            else:
                cols, above = full(d), span(full(d + 1).values(), field)
            for idx, cycle in enumerate(
                    representative_cycles(cols, above, rank, field)):
                g = Generator(x, d + 1, idx)
                delta[g] = FormalChain(d, field, cycle, "synor")
                gens_by_dim.setdefault(d + 1, []).append(g)
                at.setdefault(x, {}).setdefault(d + 1, []).append(g)
            carries[d + 1] = carries.get(d + 1, 0) | 1 << r
    for d in gens_by_dim:
        gens_by_dim[d].sort()
    return SynorComplex(P, field, range(P.n), gens_by_dim, delta)


def _ids(mask: int, order) -> list[int]:
    """The ids at the set bits of a mask over extension positions, in
    extension order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(order[low.bit_length() - 1])
        mask ^= low
    return out


def _atom_complement(P: Poset, x: int, down: int, order) -> int | None:
    """The mask of the y in down with y v a = x, a the element at down's
    lowest position.

    down is the strict down-set of x as a mask over P's linear extension
    order, so a is minimal in it.  None when down is empty or some y in
    down has no join with a in P (P.join_classes, memoized on P).
    """
    if not down:
        return None
    none, joins = P.join_classes(order[(down & -down).bit_length() - 1])
    if none & down:
        return None
    return joins.get(x, 0) & down


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
    shared by its restrictions, as is the span they are solved against,
    eliminated once per (chain top, degree); a fixed column set in a
    fixed order has one RREF, so a kept span solves as a fresh one would.
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
    span = S._spans.get((key[0], k))
    if span is None:
        below = {EMPTY_GENERATOR.element, *S.poset.below_or_equal(key[0])}
        span = eliminate({g: S.delta[g].terms for g in S.generators(k)
                          if g.element in below}, S.field)[0]
        S._spans[key[0], k] = span
    sol = span.solve(target.terms)
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


def bounds_in(S: SynorComplex, ideal_ids, c: FormalChain) -> bool:
    """Whether the order chain c is the boundary of order chains supported
    in the order ideal ideal_ids, decided in S: c must have no term
    outside the ideal and no boundary, and rho(c) must lie in the span of
    delta of S's (c.dim + 1)-generators at elements of the ideal.

    Why this decides it.  Let I be the ideal, C(I) its order chains and
    S|I the restriction of S.
    - rho is a chain map (delta rho = rho boundary, by construction), and
      rho(key) lies on generators at elements <= key[0]; I is a down-set,
      so rho maps C(I) into S|I.
    - phi: S|I -> C(I) is a quasi-isomorphism (restriction to an order
      ideal preserves homology; see the module docstring).
    - rho phi is chain homotopic to the identity of S|I, by a homotopy H
      supported in I.  Both maps fix the empty generator; set H = 0
      there.  For a generator h at x, taken by increasing dimension,
      z = rho phi(h) - h - H(delta h) lies on elements <= x, and
      delta z = 0 by the homotopy relation on delta h.  S on the
      principal ideal of x is acyclic, so z = delta w for some w there;
      set H(h) = w.  (This is the acyclic carrier theorem.)
    So rho_* phi_* is the identity, rho_* is the inverse of the
    isomorphism phi_*, and a cycle of C(I) is a boundary there exactly
    when its image under rho is one in S|I.

    The span is built once per (ideal, c.dim) and kept in S's span memo
    beside rho's, under the key (ideal, c.dim); restrictions share that
    memo, and the ideal must pass restrict's guards (an order ideal
    inside S's elements, else ValidationError), so a key names one span.
    """
    ideal = frozenset(int(i) for i in ideal_ids)
    key = (ideal, c.dim)
    if key not in S._spans:
        gens = S.restrict(ideal).generators(c.dim + 1)
        S._spans[key] = span((S.delta[g].terms for g in gens), S.field)
    return (all(ideal.issuperset(k) for k in c.terms)
            and boundary(c).is_zero()
            and S._spans[key].contains(rho_chain(S, c).terms))


def homologous_in_pair(g: FormalChain, g2: FormalChain, S: SynorComplex,
                       ideal_ids) -> bool:
    """Whether two relative cycles agree in the homology of (P, ideal),
    where P is S's poset.

    Both chains must have boundaries supported in the ideal, and P must
    have a unique maximal element.  P is then a cone, whose reduced
    homology vanishes, so the connecting map H_m(P, I) -> H~_{m-1}(I) of
    the pair's long exact sequence is an isomorphism: g and g2 are
    homologous rel I exactly when the boundary of g - g2 is a boundary
    of chains supported in I, which bounds_in decides in S.
    """
    if g.dim != g2.dim:
        raise DimensionError("relative cycles of different dimensions")
    if len(S.poset.maximal_elements()) != 1:
        raise DomainError("relative comparison requires a unique maximal element")
    ideal = frozenset(int(i) for i in ideal_ids)
    db, db2 = boundary(g), boundary(g2)
    if not all(set(key) <= ideal for c in (db, db2) for key in c.terms):
        raise ValidationError("input is not a relative cycle")
    return bounds_in(S, ideal, db - db2)


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
