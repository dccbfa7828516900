"""Finite posets, lattices, and lcm lattices of monomial ideals.

A Poset is a frozen boolean matrix leq with leq[i, j] true iff element i
is below element j, plus optional labels.  Joins, where they exist, are
read off ranked up-set bitmasks of the order, built on the first join;
lattices add bottom and top.  A lattice's synor complex lives on L minus
its bottom (without_bottom), an induced subposet that keeps L's ids in
ascending order, and L's joins.  The lcm lattice of a monomial ideal has
elements the lcms of subsets of the minimal generators, ordered by
divisibility, with join = lcm; its element ids are assigned in
lexicographic order of exponent vectors, which puts the bottom (the unit
monomial) at id 0, the top last, and makes the id order a linear
extension.

Small abstract lattices can be enumerated up to isomorphism: every lattice
on n >= 2 elements is the bounded closure of an arbitrary poset on n - 2
"middle" elements, so we enumerate naturally-labeled middle posets, keep
those whose closure has all joins, and deduplicate by a canonical form
taken over order-preserving relabelings.  Candidates stay bitmasks; only
a kept lattice gets a leq matrix.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

from .algebra import (DimensionError, DomainError, Monomial, ValidationError,
                      parse_monomial)

# Exponential inputs fail fast with a DomainError beyond these sizes; an
# lcm lattice of 2048 elements (B11) builds in about 0.26 s of CPU at a
# 42 MiB peak resident set, 32 MiB of it the interpreter and numpy; leq
# is built one variable at a time, so no temporary exceeds n x n bools.
LATTICE_ENUMERATION_CAP = 8
LCM_LATTICE_CAP = 2048


class Poset:
    """A finite poset on ids 0..n-1 with a frozen order matrix."""

    def __init__(self, leq, labels=None, validate=True):
        leq = np.array(leq, dtype=bool)
        if leq.ndim != 2 or leq.shape[0] != leq.shape[1]:
            raise ValidationError("leq must be a square matrix")
        self.n = leq.shape[0]
        if validate:
            if not leq.diagonal().all():
                raise ValidationError("order relation is not reflexive")
            if (leq & leq.T & ~np.eye(self.n, dtype=bool)).any():
                raise ValidationError("order relation is not antisymmetric")
            closure = leq @ leq
            if (closure & ~leq).any():
                raise ValidationError("order relation is not transitive")
        leq.setflags(write=False)
        self.leq = leq
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError("labels length does not match element count")
        self._cache: dict = {}

    # --- order queries ---

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def lt(self, a: int, b: int) -> bool:
        return a != b and bool(self.leq[a, b])

    def strictly_below(self, x: int) -> list[int]:
        mask = self.leq[:, x].copy()
        mask[x] = False
        return [int(i) for i in np.flatnonzero(mask)]

    def below_or_equal(self, x: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.leq[:, x])]

    def maximal_elements(self) -> list[int]:
        strict = self.leq & ~np.eye(self.n, dtype=bool)
        return np.flatnonzero(~strict.any(axis=1)).tolist()

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (i, j) with i covered by j, in ascending order.

        Read off the ranked up-sets: i's lowest-ranked strict upper bound
        covers i, and dropping its up-set leaves the other covers."""
        if "covers" not in self._cache:
            order, up = _ranked_up(self)
            out = []
            for i, mask in enumerate(up):
                mask &= mask - 1  # i is its own lowest-ranked upper bound
                above = []
                while mask:
                    j = order[(mask & -mask).bit_length() - 1]
                    above.append(j)
                    mask &= ~up[j]
                out.extend((i, j) for j in sorted(above))
            self._cache["covers"] = out
        return self._cache["covers"]

    def linear_extension(self) -> tuple[int, ...]:
        """Topological order of ids, smallest id first among available."""
        if "linext" not in self._cache:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            waiting = lt.sum(axis=0)  # predecessors not yet placed
            heap = np.flatnonzero(waiting == 0).tolist()
            out = []
            while heap:
                x = heapq.heappop(heap)
                out.append(x)
                waiting -= lt[x]
                for y in np.flatnonzero(lt[x] & (waiting == 0)).tolist():
                    heapq.heappush(heap, y)
            self._cache["linext"] = tuple(out)
        return self._cache["linext"]

    def join_of(self, a: int, b: int) -> int:
        """The join of a and b, which must exist: P is a lattice, or a
        lattice minus its bottom, whose joins are the lattice's."""
        order, up = _ranked_up(self)
        u = up[a] & up[b]
        return order[(u & -u).bit_length() - 1]

    def joins_with(self, a: int) -> np.ndarray:
        """The join of a with each element, by id, or -1 where the two
        have no least common upper bound in P (none, or several minimal
        ones): the lowest-ranked common upper bound c is the join iff
        c's up-set is all of them."""
        order, up = _ranked_up(self)
        out = np.full(self.n, -1)
        for y, uy in enumerate(up):
            u = uy & up[a]
            if u:
                c = order[(u & -u).bit_length() - 1]
                if up[c] == u:
                    out[y] = c
        return out

    # --- subposets ---

    def sub(self, ids) -> "Poset":
        """Induced subposet on the given ids (kept in ascending id order)."""
        ids = sorted(set(int(i) for i in ids))
        for i in ids:
            if not 0 <= i < self.n:
                raise IndexError(f"element {i} out of range")
        idx = np.array(ids, dtype=int)
        leq = self.leq[np.ix_(idx, idx)] if ids else np.zeros((0, 0), bool)
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in ids)
        sub = Poset(leq, labels=labels, validate=False)
        sub.origin = tuple(ids)
        return sub

    # --- chains ---

    def chains(self, dim: int) -> list[tuple[int, ...]]:
        """All strictly decreasing (d+1)-tuples, in lexicographic order (each
        degree extends the sorted one below by ascending ids); dim -1
        gives the empty chain."""
        key = ("chains", dim)
        if key not in self._cache:
            if dim < -1:
                self._cache[key] = []
            elif dim == -1:
                self._cache[key] = [()]
            else:
                prev = self.chains(dim - 1)
                if dim == 0:
                    cur = [(i,) for i in range(self.n)]
                else:
                    less = self._less_lists()
                    cur = [
                        t + (j,) for t in prev for j in less[t[-1]]
                    ]
                self._cache[key] = cur
        return self._cache[key]

    def _less_lists(self):
        if "less" not in self._cache:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            self._cache["less"] = [
                [int(j) for j in np.flatnonzero(lt[:, i])] for i in range(self.n)
            ]
        return self._cache["less"]

    def max_chain_dim(self) -> int:
        d = -1
        while self.chains(d + 1):
            d += 1
        return d

    # --- misc ---

    def label_of(self, i: int):
        return self.labels[i] if self.labels is not None else i

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and bool((self.leq == other.leq).all())
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.n, self.leq.tobytes(), self.labels))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class Lattice(Poset):
    """A bounded lattice: its order plus bottom and top; joins on demand.

    A finite poset with a bottom and all pairwise joins is a lattice (the
    meet of a and b is the join of their common lower bounds), so bottom
    and top are all we add to Poset, whose `join_of` answers every pair.
    With validate=True the order is checked and `_lattice_tables` tests
    that it is a lattice.  validate=False trusts the caller (lcm lattices,
    enumerated lattices, JSON lattices that passed `is_lattice`) and
    builds nothing until the first join is read.
    """

    def __init__(self, leq, labels=None, validate=True):
        super().__init__(leq, labels=labels, validate=validate)
        if self.n == 0:
            raise DomainError("a lattice must be nonempty")
        if validate and not _lattice_tables(*_ranked_up(self)):
            raise DomainError("poset is not a lattice")
        self.bottom = _unique(self.leq.all(axis=1), "bottom")
        self.top = _unique(self.leq.all(axis=0), "top")


def _unique(mask, what: str) -> int:
    """The one id where mask is true: a lattice's bottom or top."""
    ids = np.flatnonzero(mask)
    if len(ids) != 1:
        raise DomainError(f"lattice must have a unique {what}")
    return int(ids[0])


def _ranked_up(P: Poset):
    """(order, up): P's linear extension, and for each id an int with bit
    r set iff order[r] is at or above that id.  Memoized on P."""
    if "ranked_up" not in P._cache:
        order = P.linear_extension()
        rows = np.packbits(P.leq[:, list(order)], axis=1, bitorder="little")
        up = [int.from_bytes(row.tobytes(), "little") for row in rows]
        P._cache["ranked_up"] = (order, up)
    return P._cache["ranked_up"]


def _lattice_tables(order, up) -> bool:
    """True iff every pair of elements has a least upper bound.

    The common upper bounds u = up[a] & up[b] lie above the element c at
    the lowest rank of u, so only c can be least, and it is iff u is
    nonempty and c's own up-set is all of u.
    """
    least = [up[x] for x in order]  # least[r]: up-set of the rank-r element
    for a, ua in enumerate(up):
        for ub in up[a + 1:]:
            u = ua & ub
            if not u or least[(u & -u).bit_length() - 1] != u:
                return False
    return True


def is_lattice(P: Poset) -> bool:
    """True iff P has a bottom and every pair of elements has a join."""
    return (P.n > 0 and bool(P.leq.all(axis=1).any())
            and _lattice_tables(*_ranked_up(P)))


class LcmLattice(Lattice):
    """The lcm lattice of a monomial ideal; labels are monomials, and
    index maps each monomial back to its id."""

    def __init__(self, leq, monomials, variables, atoms, validate=True):
        super().__init__(leq, labels=monomials, validate=validate)
        self.variables = tuple(variables)
        self.monomials = self.labels
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.atoms = tuple(atoms)

    def format_label(self, i: int) -> str:
        return self.monomials[i].format(self.variables)


def build_lcm_lattice(generators, variables) -> LcmLattice:
    """The lcm lattice of the ideal generated by the given monomials.

    Generators must be a minimal generating set (an antichain under
    divisibility); a redundant generator is rejected by name.  A lattice
    of more than LCM_LATTICE_CAP elements is refused.
    """
    gens = list(generators)
    variables = tuple(variables)
    if not gens:
        raise ValidationError("need at least one generator")
    for g in gens:
        if not isinstance(g, Monomial):
            raise TypeError("generators must be Monomials")
        if g.nvars != len(variables):
            raise DimensionError("generator does not match variable list")
        if g.is_one():
            raise ValidationError("the unit monomial cannot be a minimal generator")
    _check_lcm_lattice_size(len(gens) + 1)  # the bottom and the generators
    # closure of {1} u gens under pairwise lcm (= all subset lcms); it runs
    # before the quadratic minimality scan so that an oversized lattice
    # fails as soon as the cap is passed
    elems = {Monomial.one(len(variables))}
    elems.update(gens)
    frontier = list(elems)
    while frontier:
        new = []
        for m in frontier:
            for g in gens:
                c = m.lcm(g)
                if c not in elems:
                    elems.add(c)
                    new.append(c)
                    _check_lcm_lattice_size(len(elems))
        frontier = new
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i != j and gi.divides(gj):
                raise ValidationError(
                    f"generator {gj.format(variables)} is not minimal: "
                    f"divisible by {gi.format(variables)}"
                )
    ordered = sorted(elems, key=lambda m: m.exps)
    index = {m: i for i, m in enumerate(ordered)}
    exps = np.array([m.exps for m in ordered])
    leq = np.ones((len(ordered), len(ordered)), dtype=bool)
    for col in exps.T:  # one variable at a time: no n x n x nvars temporary
        leq &= col[:, None] <= col[None, :]
    atoms = sorted(index[g] for g in gens)
    return LcmLattice(leq, ordered, variables, atoms, validate=False)


def _check_lcm_lattice_size(count: int):
    if count > LCM_LATTICE_CAP:
        raise DomainError(f"refusing to build an lcm lattice with more "
                          f"than {LCM_LATTICE_CAP} elements")


# --- intervals and order ideals ---


def open_interval(L: Poset, a: int, b: int) -> Poset:
    """The open interval (a, b) as an induced subposet."""
    if not (0 <= a < L.n and 0 <= b < L.n):
        raise IndexError("interval endpoints out of range")
    if not L.lt(a, b):
        raise DomainError("open interval requires a < b")
    inside = L.leq[a] & L.leq[:, b]
    inside[[a, b]] = False
    return L.sub(np.flatnonzero(inside).tolist())


def without_bottom(L: Lattice) -> Poset:
    """L minus its bottom, the poset that carries L's synor complex.

    It keeps the top, so the top's synors are defined; the open interval
    (bottom, top) is open_interval(L, L.bottom, L.top).
    """
    return L.sub([i for i in range(L.n) if i != L.bottom])


# --- enumeration of small lattices up to isomorphism ---


def _natural_posets(m: int):
    """All posets on m elements whose id order is a linear extension.

    Represented as tuples of bitmasks down[i] = {j : j <= i} (including i).
    Element i is appended with an arbitrary downward-closed strict
    down-set, which produces each naturally-labeled poset exactly once.
    """
    def downsets(down, k):
        # step i appends the down-closed masks holding i: still ascending
        out = [0]
        for i in range(k):
            out += [mask | 1 << i for mask in out
                    if down[i] & ~mask == 1 << i]
        return out

    def rec(down):
        k = len(down)
        if k == m:
            yield tuple(down)
            return
        for d in downsets(down, k):
            yield from rec(down + [d | (1 << k)])

    yield from rec([])


def _bounded_closure(down, m):
    """Up-set masks of the middle poset with a new bottom 0 and top m + 1.

    Middle element i gets id 1 + i.  The ids are a linear extension, so
    bit r of up[x] is set iff element r is at or above x, and the masks
    are `_ranked_up`'s with order range(m + 2).
    """
    top = 1 << (m + 1)
    middle = [top | sum(2 << j for j in range(i, m) if down[j] >> i & 1)
              for i in range(m)]  # down[j] holds only bits up to j
    return [(top << 1) - 1, *middle, top]


def canonical_form(P: Poset) -> bytes:
    """Minimal bit encoding of leq over order-preserving relabelings.

    Only relabelings that are linear extensions are considered; the
    minimum encoding is itself naturally labeled, so decoding it yields a
    poset whose id order is a linear extension.
    """
    order, up = _ranked_up(P)
    return _canonical_code([up[x] for x in order])


def _canonical_code(up) -> bytes:
    """`canonical_form` of the poset whose element x is above exactly the
    elements of bitmask up[x] (x itself included).

    Bit a*n + b of the big-endian code is leq[perm[a], perm[b]], zero for
    b < a, so rows are most significant from the top position down.  The
    search fills positions from the top, extending only the partial
    labelings whose code so far is least (every tie is kept).
    """
    n = len(up)
    strict_up = [u & ~(1 << x) for x, u in enumerate(up)]
    code = 0
    states = [(0, (0,) * n)]  # (placed mask, position bit of each element)
    for a in range(n - 1, -1, -1):
        best, ties = None, []
        for placed, posbit in states:
            for x in range(n):
                above = strict_up[x]
                if placed >> x & 1 or above & ~placed:
                    continue
                row = 1 << a
                while above:
                    low = above & -above
                    row |= posbit[low.bit_length() - 1]
                    above ^= low
                if best is None or row < best:
                    best, ties = row, []
                if row == best:
                    bits = list(posbit)
                    bits[x] = 1 << a
                    ties.append((placed | 1 << x, tuple(bits)))
        code = code << n | best
        states = ties
    return code.to_bytes((n * n + 7) // 8, "big")


def _decode_canonical(data: bytes, n: int) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(data[::-1], dtype=np.uint8),
                         bitorder="little")
    return bits[:n * n].reshape(n, n).astype(bool)


def enumerate_lattices(n: int):
    """Yield every lattice on n elements up to isomorphism exactly once.

    Canonically relabeled (ids form a linear extension, bottom first).
    Refuses n above LATTICE_ENUMERATION_CAP: the middle-poset search grows
    too fast.
    """
    if not 2 <= n <= LATTICE_ENUMERATION_CAP:
        raise DomainError(
            f"lattice enumeration covers 2 to {LATTICE_ENUMERATION_CAP} "
            f"elements, not {n}")
    seen = set()
    for down in _natural_posets(n - 2):
        up = _bounded_closure(down, n - 2)
        if not _lattice_tables(range(n), up):
            continue
        form = _canonical_code(up)
        if form in seen:
            continue
        seen.add(form)
        yield Lattice(_decode_canonical(form, n), validate=False)


# --- isomorphism testing (used by tests and JSON round trips) ---


def _invariants(P: Poset):
    lt = P.leq & ~np.eye(P.n, dtype=bool)
    below = lt.sum(axis=0)
    above = lt.sum(axis=1)
    cov = lt & ~(lt @ lt)
    covdown = cov.sum(axis=0)
    covup = cov.sum(axis=1)
    base = list(zip(below.tolist(), above.tolist(),
                    covdown.tolist(), covup.tolist()))
    # one refinement round: multiset of neighbor invariants
    out = []
    for i in range(P.n):
        nb = sorted(base[j] for j in range(P.n) if lt[j, i] or lt[i, j])
        out.append((base[i], tuple(nb)))
    return out


def is_isomorphic(P: Poset, Q: Poset) -> bool:
    """Backtracking poset isomorphism with invariant pruning."""
    if P.n != Q.n:
        return False
    inv_p = _invariants(P)
    inv_q = _invariants(Q)
    if sorted(inv_p) != sorted(inv_q):
        return False
    cands = [
        [j for j in range(Q.n) if inv_q[j] == inv_p[i]] for i in range(P.n)
    ]
    order = sorted(range(P.n), key=lambda i: len(cands[i]))
    assigned: dict[int, int] = {}
    used = set()

    def rec(k):
        if k == P.n:
            return True
        i = order[k]
        for j in cands[i]:
            if j in used:
                continue
            ok = True
            for i2, j2 in assigned.items():
                if bool(P.leq[i, i2]) != bool(Q.leq[j, j2]) or \
                   bool(P.leq[i2, i]) != bool(Q.leq[j2, j]):
                    ok = False
                    break
            if ok:
                assigned[i] = j
                used.add(j)
                if rec(k + 1):
                    return True
                del assigned[i]
                used.remove(j)
        return False

    return rec(0)


# --- serialization ---


def poset_to_json(P: Poset) -> dict:
    """JSON-ready dict: {"n": ..., "covers": [[i, j], ...], "labels": [...]}."""
    if isinstance(P, LcmLattice):
        labels = [P.format_label(i) for i in range(P.n)]
    elif P.labels is not None:
        labels = [str(x) for x in P.labels]
    else:
        labels = [str(i) for i in range(P.n)]
    out = {
        "n": P.n,
        "covers": [[i, j] for i, j in P.covers()],
        "labels": labels,
    }
    if isinstance(P, LcmLattice):
        out["variables"] = list(P.variables)
    return out


def poset_from_json(data: dict):
    """Rebuild a poset from its JSON dict; lattices come back as lattices."""
    n = int(data["n"])
    leq = np.eye(n, dtype=bool)
    for i, j in data.get("covers", []):
        if not (0 <= int(i) < n and 0 <= int(j) < n):
            raise ValidationError("cover indices out of range")
        leq[int(i), int(j)] = True
    # transitive closure
    while True:
        closure = leq | (leq @ leq)
        if (closure == leq).all():
            break
        leq = closure
    labels = data.get("labels")
    variables = data.get("variables")
    if variables and labels:
        monomials = [parse_monomial(s, variables) for s in labels]
        bottom = _unique(leq.all(axis=1), "bottom")
        atoms = [
            i for i in range(n)
            if i != bottom
            and all(j in (i, bottom) for j in np.flatnonzero(leq[:, i]))
        ]
        return LcmLattice(leq, monomials, variables, atoms)
    P = Poset(leq, labels=labels)
    if is_lattice(P):
        return Lattice(leq, labels=labels, validate=False)
    return P


def lattice_hash(P: Poset) -> str:
    """Stable 12-hex-digit identifier for a constructed poset instance."""
    h = hashlib.sha1()
    h.update(P.leq.tobytes())
    if P.labels is not None:
        h.update(repr(P.labels).encode())
    return h.hexdigest()[:12]
