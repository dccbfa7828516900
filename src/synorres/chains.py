"""Order chains, multichains, and their reduced homology over exact fields.

A chain of dimension k in a poset is a weakly decreasing (k+1)-tuple of
element ids; it is an order chain when strictly decreasing.  The empty
tuple is the unique chain of dimension -1, and it is a genuine basis
element: the complexes here are reduced, so the homology of the empty
poset is one-dimensional in degree -1 and a nonempty ideal kills that
class via the boundary of any vertex.

FormalChain is an immutable-by-convention K-linear combination of basis
keys of one dimension.  The kind tag distinguishes strict order chains
("order"), weakly decreasing multichains ("multi"), and synor-complex
generator combinations ("synor"); the first two share the same boundary
formula, the last is owned by the synor module.

The module owns chain arithmetic: every sparse sum of scaled chains goes
through accumulate, and basis_homology gives the homology of order and
synor complexes in a range of degrees, building each boundary matrix
once as {basis key: boundary vector}; linalg.complex_homology spans each
matrix once for the ranks and computes representative cycles only in
degrees whose homology is nonzero.  Vectors are keyed by basis element,
and pivots are least keys, which is why chains(d) comes in
lexicographic order and generators sort in build order.
all_homology_ranks, the order-complex oracle, refuses a poset of more
than CHAIN_CAP chains and gets its ranks from linalg.cleared_spans,
never building a cleared column, and so does facet_ranks, which ranks a
simplicial complex given by bitmask facets (the upper Koszul and
crosscut complexes of resolution.interval_ranks) and refuses one that,
like its nerve, has more than FACE_CAP faces.  All clear
(skip the columns of d_d that are pivots of d_{d+1}'s span), which is
exact because the boundary of a boundary is zero.  Whether an order
cycle bounds in an order ideal is decided in a synor complex
(synor.bounds_in), never by spanning order chains.
Over GF(p) accumulate reduces its sums mod field.modulus, and the
FormalChain constructor reduces every coefficient it is given (which
covers negation and scale), so stored coefficients lie in [0, p).
"""

from __future__ import annotations

from .algebra import DimensionError, DomainError, ValidationError
from .linalg import HomologyBasis, cleared_spans, complex_homology

# facet_ranks refuses a complex when it and its nerve both have more
# faces than this, each listing stopped as soon as it passes the cap: the
# boundary of the 15-simplex (32,767 faces, its own nerve) is refused in
# 0.03 s of CPU.  Under it, the slowest of a random search (10-20
# vertices, 3-40 facets) ranked in 0.54 s of CPU over QQ; every interval
# of B11 ranks in 0.76 s in all (2-core x86, Python 3.11).
FACE_CAP = 1 << 14

# all_homology_ranks refuses a poset with more nonempty order chains than
# this, counted before any chain is built: the largest interval of
# kpq(6,3), 47,365 chains, ranks in 9.2 s of CPU over QQ (2-core x86,
# Python 3.11), and the top interval of B8 has 545,834.
CHAIN_CAP = 1 << 16


def accumulate(terms: dict, pairs, scale=None, p: int = 0) -> dict:
    """Add each (key, coeff) of pairs, times scale if given, into terms in
    place, mod p unless p is 0, dropping keys whose sum is zero; returns
    terms."""
    for k, v in pairs:
        if scale is not None:
            v = v * scale
        w = terms.get(k)
        w = v if w is None else w + v
        if p:
            w %= p
        if w:
            terms[k] = w
        else:
            terms.pop(k, None)
    return terms


class FormalChain:
    """A formal K-linear combination of same-dimension basis keys."""

    __slots__ = ("dim", "field", "kind", "terms")

    def __init__(self, dim: int, field, terms=None, kind: str = "order"):
        self.dim = dim
        self.field = field
        self.kind = kind
        clean = {}
        if terms:
            p = field.modulus
            for key, coeff in dict(terms).items():
                if p:
                    coeff %= p
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    # --- constructors ---

    @classmethod
    def zero(cls, dim: int, field, kind: str = "order") -> "FormalChain":
        return cls(dim, field, {}, kind)

    @classmethod
    def combination(cls, dim: int, field, summands,
                    kind: str = "order") -> "FormalChain":
        """sum s * c over the (s, c) pairs of summands, accumulated into one
        dict; each c must have this dim and kind, as for +."""
        out = cls(dim, field, None, kind)
        for s, c in summands:
            out._match(c)
            accumulate(out.terms, c.terms.items(), s, field.modulus)
        return out

    @classmethod
    def single(cls, key: tuple, field, coeff=None, kind: str = "order") -> "FormalChain":
        coeff = field.one if coeff is None else coeff
        return cls(len(key) - 1, field, {key: coeff}, kind)

    # --- vector-space structure ---

    def _match(self, other: "FormalChain"):
        if not isinstance(other, FormalChain):
            raise TypeError("expected FormalChain")
        if self.dim != other.dim:
            raise DimensionError(
                f"chain dimensions differ: {self.dim} vs {other.dim}")
        if self.kind != other.kind:
            raise ValidationError(
                f"chain kinds differ: {self.kind} vs {other.kind}")
        if self.field != other.field:
            raise DomainError(
                f"chain fields differ: {self.field} vs {other.field}")

    def __add__(self, other: "FormalChain") -> "FormalChain":
        self._match(other)
        return FormalChain(self.dim, self.field,
                           accumulate(dict(self.terms), other.terms.items()),
                           self.kind)

    def __sub__(self, other: "FormalChain") -> "FormalChain":
        return self + (-other)

    def __neg__(self) -> "FormalChain":
        return FormalChain(self.dim, self.field,
                           {k: -v for k, v in self.terms.items()}, self.kind)

    def scale(self, s) -> "FormalChain":
        if not s:
            return FormalChain.zero(self.dim, self.field, self.kind)
        return FormalChain(self.dim, self.field,
                           {k: v * s for k, v in self.terms.items()}, self.kind)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, key):
        return self.terms.get(key, self.field.zero)

    def support(self):
        return sorted(self.terms)

    def items(self):
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def __eq__(self, other):
        return (
            isinstance(other, FormalChain)
            and self.dim == other.dim
            and self.kind == other.kind
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, self.kind, frozenset(self.terms.items())))

    def __repr__(self):
        body = " ".join(f"{'+' if not str(v).startswith('-') else ''}{v}{k}"
                        for k, v in self.items()) or "0"
        return f"<{self.kind} dim={self.dim}: {body}>"


# --- boundary ---


def boundary(c: FormalChain) -> FormalChain:
    """Alternating sum of face maps; the boundary of a vertex is the
    empty chain with coefficient 1."""
    if c.kind == "synor":
        raise ValidationError("boundary acts on order/multi chains")
    terms: dict = {}
    for key, v in c.terms.items():
        accumulate(terms, boundary_key(key, c.field).items(), v)
    return FormalChain(c.dim - 1, c.field, terms, c.kind)


def boundary_key(key: tuple, field) -> dict:
    """Boundary of one basis chain as a raw {key: scalar} dict."""
    signs = (field.one, field.of(-1))
    return accumulate({}, ((key[:j] + key[j + 1:], signs[j % 2])
                           for j in range(len(key))), None, field.modulus)


def normalize(c: FormalChain) -> FormalChain:
    """Project multichains to order chains by killing degenerate ones.

    A degenerate multichain repeats an element in consecutive positions;
    the survivors are strictly decreasing, so the result is an order
    chain combination.
    """
    if c.kind == "order":
        return c
    if c.kind != "multi":
        raise ValidationError("normalize acts on multichains")
    terms = {
        key: v for key, v in c.terms.items()
        if all(key[i] != key[i + 1] for i in range(len(key) - 1))
    }
    return FormalChain(c.dim, c.field, terms, "order")


def concat(P, head: tuple, c: FormalChain) -> FormalChain:
    """Prepend the tuple head to every basis chain of c.

    For order chains every element of c must lie strictly below min(head)
    (weakly for multichains); violating chains are a domain error rather
    than silently dropped.
    """
    if c.kind == "synor":
        raise ValidationError("concat acts on order/multi chains")
    head = tuple(int(x) for x in head)
    for i in range(len(head) - 1):
        if head[i] == head[i + 1] and c.kind == "order":
            raise DomainError("head is not strictly decreasing")
        if not P.le(head[i + 1], head[i]):
            raise DomainError("head is not a decreasing chain")
    if not head:
        return c
    low = head[-1]
    strict = c.kind == "order"
    terms = {}
    for key, v in c.terms.items():
        if key:
            top = key[0]
            if not P.le(top, low) or (strict and top == low):
                raise DomainError(
                    "chain is not supported strictly below the head")
        terms[head + key] = v
    return FormalChain(c.dim + len(head), c.field, terms, c.kind)


def graded_component(c: FormalChain, x: int) -> FormalChain:
    """The part of c whose basis chains start at x (their top element)."""
    if c.kind == "synor":
        terms = {g: v for g, v in c.terms.items() if g.element == x}
    else:
        terms = {k: v for k, v in c.terms.items() if k and k[0] == x}
    return FormalChain(c.dim, c.field, terms, c.kind)


# --- homology ---


def basis_homology(basis_of, boundary_of, field, degrees: range,
                   kind: str) -> list[HomologyBasis]:
    """Homology in each of the consecutive degrees of the complex with
    degree-d basis basis_of(d) and boundary_of(key) the raw boundary dict
    of a basis key.  Each degree's matrix is {key: boundary_of(key)},
    built and spanned once, so keys must sort in basis order (least keys
    are pivots); a cycle pass runs only in degrees with homology, and the
    cycles, keyed by basis key, become FormalChains of the given kind."""
    matrices = [{key: boundary_of(key) for key in basis_of(d)}
                for d in range(degrees.start, degrees.stop + 1)]
    return [HomologyBasis(hb.dim, hb.rank, [
        FormalChain(hb.dim, field, vec, kind) for vec in hb.cycles])
        for hb in complex_homology(matrices, field, degrees.start)]


def homology(P, k: int, field) -> HomologyBasis:
    """Reduced order-complex homology of P in degree k, with
    echelon-deterministic representative cycles as FormalChains."""
    return basis_homology(P.chains, lambda key: boundary_key(key, field),
                          field, range(k, k + 1), "order")[0]


def all_homology_ranks(P, field) -> dict[int, int]:
    """Reduced homology ranks in every degree where chains exist, by
    rank-nullity: dim C_d - rank d_d - rank d_{d+1}.  The boundary
    matrices are spanned top degree first with clearing, which needs only
    d_d . d_{d+1} = 0: the chains whose index is a pivot of d_{d+1}'s span
    get no column of d_d built, and the ranks are those of the full
    matrices.  Unlike every other matrix here, the rows are chain
    positions, not chains: the ranks do not depend on the keys, and on
    `resolve @powers:6,1` chain-tuple rows cost about 17% more time.
    Raises DomainError, naming the count, for a poset of more than
    CHAIN_CAP nonempty chains; no chain is built before."""
    count = _chain_count(P)
    if count > CHAIN_CAP:
        raise DomainError(
            f"order-complex ranks: refusing a poset of {count} chains, "
            f"more than {CHAIN_CAP}")
    top = P.max_chain_dim()

    def columns_of(i, cleared):
        row = {key: j for j, key in enumerate(P.chains(i - 2))}
        return [{row[f]: v for f, v in boundary_key(key, field).items()}
                for j, key in enumerate(P.chains(i - 1)) if j not in cleared]
    ranks = [red.rank for red in cleared_spans(columns_of, top + 2, field)]
    ranks.append(0)
    return {d: len(P.chains(d)) - ranks[d + 1] - ranks[d + 2]
            for d in range(-1, top + 1)}


def _chain_count(P) -> int:
    """The number of nonempty order chains of P, with none built: the
    chains whose top element is x are x alone and x over each chain
    topped below x, counted in linear-extension order."""
    tops = [0] * P.n
    for x in P.linear_extension():
        tops[x] = 1 + sum(tops[y] for y in P.strictly_below(x))
    return sum(tops)


def _maximal_facets(facets) -> list[int]:
    """The inclusion-maximal masks among facets, largest first."""
    kept: list[int] = []
    for f in sorted(set(facets), key=int.bit_count, reverse=True):
        if all(f & ~g for g in kept):
            kept.append(f)
    return kept


def _nerve_facets(kept: list[int]) -> list[int]:
    """Facets of the nerve of the cover by the masks kept: for each
    vertex, the set of positions in kept whose mask holds it."""
    vertices = 0
    for f in kept:
        vertices |= f
    out = []
    while vertices:
        v = vertices & -vertices
        vertices ^= v
        out.append(sum(1 << i for i, f in enumerate(kept) if f & v))
    return _maximal_facets(out)


def _faces_by_size(kept: list[int]) -> list[list[int]] | None:
    """The faces below the maximal facets kept (largest first), by number
    of vertices, each size in ascending order; None as soon as more than
    FACE_CAP are listed.  Sizes are listed downward from the facets, each
    face once, so the work is bounded by the faces listed, not by their
    count with repeats."""
    by_size: list[list[int]] = [
        [] for _ in range(kept[0].bit_count() + 1 if kept else 0)]
    level: set[int] = set()
    count = 0
    for size in range(len(by_size) - 1, -1, -1):
        level.update(f for f in kept if f.bit_count() == size)
        count += len(level)
        if count > FACE_CAP:
            return None
        by_size[size] = sorted(level)
        below: set[int] = set()
        for f in by_size[size]:
            rest = f
            while rest:  # the faces that drop one vertex of f
                low = rest & -rest
                below.add(f ^ low)
                rest ^= low
            if count + len(below) > FACE_CAP:
                return None
        level = below
    return by_size


def facet_ranks(facets, field, where: str) -> dict[int, int]:
    """Reduced homology ranks, by degree, of the simplicial complex whose
    faces are the subsets of the given facets, int bitmasks of vertices.

    Only the maximal facets F are kept.  When they are nonempty, the
    complex has the homotopy type of the nerve of its cover by them
    (the nerve theorem; Bjorner, Topological methods, 1995, Thm 10.6),
    whose facets are, for each vertex, the set of F that hold it.  The
    one of the two with the smaller bound sum 2^|F| is listed first (a
    complex of few large facets has a small nerve), and the other only
    if the first has more than FACE_CAP faces; the boundary of a face is
    the alternating sum, by bit position, of the faces that drop one of
    its bits.  The facets [0] give the complex {empty face}, with rank 1
    in degree -1, and no facets give the void complex, with no ranks.
    The rows are face masks, spanned top degree first with clearing, as
    in all_homology_ranks.  Raises DomainError, naming where, when both
    have more than FACE_CAP faces."""
    kept = _maximal_facets(facets)
    complexes = [kept]
    if kept and kept[-1]:  # no empty facet: the nerve is defined
        complexes.append(_nerve_facets(kept))
    for listed in sorted(complexes, key=lambda c: sum(
            1 << f.bit_count() for f in c)):
        by_size = _faces_by_size(listed)
        if by_size is not None:
            break
    else:
        raise DomainError(
            f"interval ranks: refusing the {where}: it and its nerve "
            f"each have more than {FACE_CAP} faces")
    signs = (field.one, field.of(-1))

    def columns_of(i, cleared):
        out = []
        for f in by_size[i]:
            if f in cleared:
                continue
            col, j, rest = {}, 0, f
            while rest:
                low = rest & -rest
                col[f ^ low] = signs[j & 1]
                j += 1
                rest ^= low
            out.append(col)
        return out
    ranks = [red.rank for red in cleared_spans(columns_of, len(by_size),
                                               field)]
    ranks.append(0)
    return {d: len(by_size[d + 1]) - ranks[d + 1] - ranks[d + 2]
            for d in range(-1, len(by_size) - 1)}
