"""Finite posets, lattices, and lcm lattices of monomial ideals.

A Poset is a frozen boolean matrix leq with leq[i, j] true iff element i
is below element j, plus optional labels.  Lattices add a join table and
distinguished bottom/top.  The lcm lattice of a monomial ideal has
elements the lcms of subsets of the minimal generators, ordered by
divisibility, with join = lcm; its element ids are assigned in
lexicographic order of exponent vectors, which puts the bottom (the unit
monomial) at id 0, the top last, and makes the id order a linear
extension.

Small abstract lattices can be enumerated up to isomorphism: every lattice
on n >= 2 elements is the bounded closure of an arbitrary poset on n - 2
"middle" elements, so we enumerate naturally-labeled middle posets, keep
those whose closure has all joins, and deduplicate by a
canonical form taken over order-preserving relabelings.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np

from .algebra import (DimensionError, DomainError, Monomial, ValidationError,
                      parse_monomial)

# Exponential inputs fail fast with a DomainError beyond these sizes; an
# lcm lattice of 2048 elements (B11) builds in about 9 s at an 86 MiB peak.
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
        """Pairs (i, j) with i covered by j."""
        if "covers" not in self._cache:
            lt = self.leq & ~np.eye(self.n, dtype=bool)
            cov = lt & ~(lt @ lt)
            self._cache["covers"] = [
                (int(i), int(j)) for i, j in np.argwhere(cov)
            ]
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
        """All strictly decreasing (d+1)-tuples; dim -1 gives the empty chain."""
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
    """A bounded lattice: its join table plus bottom and top.

    A finite poset with a bottom and all pairwise joins is a lattice (the
    meet of a and b is the join of their common lower bounds), so the join
    table, the one operation the lcm lattice is built on, is all we keep.
    """

    def __init__(self, leq, labels=None, validate=True):
        super().__init__(leq, labels=labels, validate=validate)
        if self.n == 0:
            raise DomainError("a lattice must be nonempty")
        join = _lattice_tables(self.leq)
        if join is None:
            raise DomainError("poset is not a lattice")
        join.setflags(write=False)
        self.join = join
        self.bottom = _unique_bottom(self.leq)
        self.top = _unique_top(self.leq)

    def join_of(self, a: int, b: int) -> int:
        return int(self.join[a, b])

    def join_all(self, ids) -> int:
        x = self.bottom
        for i in ids:
            x = int(self.join[x, i])
        return x


def _unique_bottom(leq) -> int:
    mins = np.flatnonzero(leq.all(axis=1))
    if len(mins) != 1:
        raise DomainError("lattice must have a unique bottom")
    return int(mins[0])


def _unique_top(leq) -> int:
    maxs = np.flatnonzero(leq.all(axis=0))
    if len(maxs) != 1:
        raise DomainError("lattice must have a unique top")
    return int(maxs[0])


def _lattice_tables(leq):
    """The join table, or None if some pair has no least upper bound.

    Row a is one query over all b >= a: of the common upper bounds of a
    and b, only the one with the largest up-set can be least.  That
    candidate's up-set lies inside the common upper bounds, so it lies
    below all of them iff the two sets have the same size; a pair with no
    upper bound fails the same test (0 against an up-set of at least 1).
    """
    n = leq.shape[0]
    up_size = leq.sum(axis=1)
    order = np.argsort(-up_size)
    by_up = leq[:, order]  # columns by up-set size, largest first
    join = np.empty((n, n), dtype=int)
    for a in range(n):
        ub = by_up[a] & by_up[a:]  # ub[b - a]: common upper bounds of a, b
        pick = ub.argmax(axis=1)
        if (np.count_nonzero(ub, axis=1) != up_size[order[pick]]).any():
            return None
        join[a, a:] = join[a:, a] = order[pick]
    return join


def is_lattice(P: Poset) -> bool:
    """True iff P has a bottom and every pair of elements has a join."""
    return (P.n > 0 and bool(P.leq.all(axis=1).any())
            and _lattice_tables(P.leq) is not None)


class LcmLattice(Lattice):
    """The lcm lattice of a monomial ideal; labels are monomials."""

    def __init__(self, leq, monomials, variables, atoms, validate=True):
        super().__init__(leq, labels=monomials, validate=validate)
        self.variables = tuple(variables)
        self.monomials = self.labels
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
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i != j and gi.divides(gj):
                raise ValidationError(
                    f"generator {gj.format(variables)} is not minimal: "
                    f"divisible by {gi.format(variables)}"
                )
    # closure of {1} u gens under pairwise lcm (= all subset lcms)
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
    ordered = sorted(elems, key=lambda m: m.exps)
    index = {m: i for i, m in enumerate(ordered)}
    exps = np.array([m.exps for m in ordered])
    leq = (exps[:, None, :] <= exps[None, :, :]).all(axis=2)
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


def proper_parts(L: Lattice) -> tuple[Poset, Poset]:
    """(L minus bottom, L minus bottom and top).

    The first still contains the top, so the top's synors are defined;
    the second is the open interval (bottom, top).
    """
    no_bottom = L.sub([i for i in range(L.n) if i != L.bottom])
    middle = L.sub([i for i in range(L.n) if i not in (L.bottom, L.top)])
    return no_bottom, middle


# --- enumeration of small lattices up to isomorphism ---


def _natural_posets(m: int):
    """All posets on m elements whose id order is a linear extension.

    Represented as tuples of bitmasks down[i] = {j : j <= i} (including i).
    Element i is appended with an arbitrary downward-closed strict
    down-set, which produces each naturally-labeled poset exactly once.
    """
    def downsets(down, k):
        out = []
        full = (1 << k) - 1
        for mask in range(1 << k):
            ok = True
            for i in range(k):
                if mask >> i & 1 and down[i] & ~mask & full:
                    ok = False
                    break
            if ok:
                out.append(mask)
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
    """leq matrix of the middle poset with a new bottom and top added."""
    n = m + 2
    leq = np.zeros((n, n), dtype=bool)
    leq[0, :] = True
    leq[:, n - 1] = True
    bits = np.array(down, dtype=np.int64) >> np.arange(m)[:, None] & 1
    leq[1:n - 1, 1:n - 1] = bits  # leq[1 + j, 1 + i] is bit j of down[i]
    np.fill_diagonal(leq, True)
    return leq


def canonical_form(P: Poset) -> bytes:
    """Minimal bit encoding of leq over order-preserving relabelings.

    Only relabelings that are linear extensions are considered; the
    minimum encoding is itself naturally labeled, so decoding it yields a
    poset whose id order is a linear extension.

    Bit a*n + b of the big-endian code is leq[perm[a], perm[b]], zero for
    b < a, so rows are most significant from the top position down.  The
    search fills positions from the top, extending only the partial
    labelings whose code so far is least (every tie is kept).
    """
    n = P.n
    strict_up = [sum(1 << int(j) for j in np.flatnonzero(row)) & ~(1 << x)
                 for x, row in enumerate(P.leq)]
    code = 0
    states = [(0, (0,) * n)]  # (placed mask, position bit of each element)
    for a in range(n - 1, -1, -1):
        best, ties = None, []
        for placed, posbit in states:
            for x in range(n):
                up = strict_up[x]
                if placed >> x & 1 or up & ~placed:
                    continue
                row = 1 << a
                while up:
                    low = up & -up
                    row |= posbit[low.bit_length() - 1]
                    up ^= low
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


def enumerate_lattices(n: int, cap: int = LATTICE_ENUMERATION_CAP):
    """Yield every lattice on n elements up to isomorphism exactly once.

    Canonically relabeled (ids form a linear extension, bottom first).
    Refuses n above the cap: the middle-poset search grows too fast.
    """
    if n < 2:
        raise DomainError("lattice enumeration starts at n = 2")
    if n > cap:
        raise DomainError(
            f"refusing to enumerate lattices on {n} > {cap} elements; "
            f"raise the cap explicitly if you accept the cost"
        )
    seen = set()
    for down in _natural_posets(n - 2):
        leq = _bounded_closure(down, n - 2)
        if _lattice_tables(leq) is None:
            continue
        P = Poset(leq, validate=False)
        form = canonical_form(P)
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
        bottom = _unique_bottom(leq)
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
