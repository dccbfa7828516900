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
"""

from __future__ import annotations

from .algebra import DimensionError, DomainError, ValidationError
from .linalg import HomologyBasis, homology_of_complex, rank_of


class FormalChain:
    """A formal K-linear combination of same-dimension basis keys."""

    __slots__ = ("dim", "field", "kind", "terms")

    def __init__(self, dim: int, field, terms=None, kind: str = "order"):
        self.dim = dim
        self.field = field
        self.kind = kind
        clean = {}
        if terms:
            for key, coeff in dict(terms).items():
                if coeff:
                    clean[key] = coeff
        self.terms = clean

    # --- constructors ---

    @classmethod
    def zero(cls, dim: int, field, kind: str = "order") -> "FormalChain":
        return cls(dim, field, {}, kind)

    @classmethod
    def single(cls, key: tuple, field, coeff=None, kind: str = "order") -> "FormalChain":
        coeff = field.one if coeff is None else coeff
        return cls(len(key) - 1 if kind != "synor" else key[1], field,
                   {key: coeff}, kind)

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

    def __add__(self, other: "FormalChain") -> "FormalChain":
        self._match(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            w = terms.get(k)
            w = v if w is None else w + v
            if w:
                terms[k] = w
            else:
                terms.pop(k, None)
        return FormalChain(self.dim, self.field, terms, self.kind)

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

    def format(self, P) -> str:
        """Debug dump with poset labels, e.g. '+3(a>b) -1(c)'."""
        if self.is_zero():
            return "0"
        parts = []
        for key, v in self.items():
            name = ">".join(str(P.label_of(i)) for i in key) if key else "()"
            sv = str(v)
            if not sv.startswith("-"):
                sv = "+" + sv
            parts.append(f"{sv}({name})")
        return " ".join(parts)


# --- boundary and faces ---


def face(c: FormalChain, j: int) -> FormalChain:
    """Delete index j from every basis chain (no sign)."""
    if c.kind == "synor":
        raise ValidationError("face acts on order/multi chains")
    if j < 0 or j > c.dim:
        raise IndexError(f"face index {j} out of range for dimension {c.dim}")
    terms: dict = {}
    for key, v in c.terms.items():
        fkey = key[:j] + key[j + 1:]
        w = terms.get(fkey)
        w = v if w is None else w + v
        if w:
            terms[fkey] = w
        else:
            terms.pop(fkey, None)
    return FormalChain(c.dim - 1, c.field, terms, c.kind)


def boundary(c: FormalChain) -> FormalChain:
    """Alternating sum of face maps; the boundary of a vertex is the
    empty chain with coefficient 1."""
    if c.kind == "synor":
        raise ValidationError("boundary acts on order/multi chains")
    out = FormalChain.zero(c.dim - 1, c.field, c.kind)
    if c.dim < 0:
        return out
    terms: dict = {}
    for key, v in c.terms.items():
        sign = c.field.one
        for j in range(len(key)):
            fkey = key[:j] + key[j + 1:]
            w = terms.get(fkey)
            add = v * sign
            w = add if w is None else w + add
            if w:
                terms[fkey] = w
            else:
                terms.pop(fkey, None)
            sign = -sign
    return FormalChain(c.dim - 1, c.field, terms, c.kind)


def boundary_key(key: tuple, field) -> dict:
    """Boundary of one basis chain as a raw {key: scalar} dict."""
    out: dict = {}
    sign = field.one
    for j in range(len(key)):
        fkey = key[:j] + key[j + 1:]
        w = out.get(fkey)
        w = sign if w is None else w + sign
        if w:
            out[fkey] = w
        else:
            out.pop(fkey, None)
        sign = -sign
    return out


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


# --- homology of the order complex ---


def _boundary_columns(P, dim: int, index_prev: dict, field) -> list[dict]:
    cols = []
    for key in P.chains(dim):
        raw = boundary_key(key, field)
        cols.append({index_prev[f]: v for f, v in raw.items()})
    return cols


def homology(P, k: int, field) -> HomologyBasis:
    """Reduced order-complex homology of P in degree k, with
    echelon-deterministic representative cycles as FormalChains."""
    basis_prev = P.chains(k - 1)
    basis_k = P.chains(k)
    basis_next = P.chains(k + 1)
    index_prev = {c: i for i, c in enumerate(basis_prev)}
    index_k = {c: i for i, c in enumerate(basis_k)}
    cols_k = _boundary_columns(P, k, index_prev, field) if basis_k else []
    cols_next = (
        _boundary_columns(P, k + 1, index_k, field) if basis_next else []
    )
    hb = homology_of_complex(cols_k, cols_next, field, k)
    cycles = [
        FormalChain(k, field,
                    {basis_k[i]: v for i, v in vec.items()}, "order")
        for vec in hb.cycles
    ]
    return HomologyBasis(k, hb.rank, cycles)


def _boundary_rank(P, dim: int, field) -> int:
    """Rank of the boundary map out of the dimension-dim chains of P."""
    index_prev = {c: i for i, c in enumerate(P.chains(dim - 1))}
    return rank_of(_boundary_columns(P, dim, index_prev, field), field)


def homology_rank(P, k: int, field) -> int:
    """Rank of reduced order-complex homology of P in degree k, by
    rank-nullity: dim C_k - rank d_k - rank d_{k+1}."""
    return (len(P.chains(k)) - _boundary_rank(P, k, field)
            - _boundary_rank(P, k + 1, field))


def all_homology_ranks(P, field) -> dict[int, int]:
    """Reduced homology ranks in every degree where chains exist; each
    boundary matrix is built and reduced once."""
    top = P.max_chain_dim()
    ranks = [_boundary_rank(P, d, field) for d in range(-1, top + 1)] + [0]
    return {d: len(P.chains(d)) - ranks[d + 1] - ranks[d + 2]
            for d in range(-1, top + 1)}
