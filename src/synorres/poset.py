"""Finite posets, lattices, and lcm lattices of monomial ideals.

A Poset is a frozen boolean matrix leq with leq[i, j] true iff element i
is below element j, plus optional labels.  Joins, where they exist, are
read off ranked up-set bitmasks of the order, built on the first join;
the same bitmasks, over linear-extension positions, give each element's
down-set (_ranked_down) and, per element a, the join classes of a: the
elements grouped by their join with a, and those with none.  Lattices
add bottom and top.  A lattice's synor complex lives on L minus
its bottom (without_bottom, one per lattice), an induced subposet that
keeps L's ids in ascending order, and L's joins.  The lcm lattice of a
monomial ideal has elements the lcms of subsets of the minimal
generators, ordered by divisibility, with join = lcm.  build_lcm_lattice
is its only maker: it closes the generators' exponent vectors under
componentwise max, in rounds on int64 rows, and assigns ids in
lexicographic order of them, which puts the bottom (the
unit monomial) at id 0, the top last, and makes the id order a linear
extension; the lattice keeps those vectors as an int64 matrix, and its
labels are Monomials made from them unchecked.  A JSON
lcm lattice is rebuilt from its atoms and must match what it stored.

Small abstract lattices can be enumerated up to isomorphism: every lattice
on n >= 2 elements is the bounded closure of an arbitrary poset on n - 2
"middle" elements, so one orderly walk (Read 1978; Faradzev 1978) grows
naturally labeled middle posets an element at a time, keeping only those
whose closure has all joins and that are the least labeling of their
class.  Candidates stay bitmasks; only a kept lattice gets a leq matrix.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from types import MappingProxyType

import numpy as np

from .algebra import (DimensionError, DomainError, Monomial, ValidationError,
                      parse_monomial)

# Exponential inputs fail fast with a DomainError beyond these sizes; an
# lcm lattice of 2048 elements (B11) builds in 0.09-0.13 s of CPU (2-core
# x86, Python 3.11, numpy 2.4) at a 43 MiB peak resident set in a fresh
# process, 33 MiB of it the imports; the closure takes 0.012 s of it and
# leq the rest, built one variable at a time, so no temporary exceeds
# n x n bools.
LATTICE_ENUMERATION_CAP = 9
LCM_LATTICE_CAP = 2048


class Poset:
    """A finite poset on ids 0..n-1 with a frozen order matrix.  leq is
    copied unless it is a read-only bool array already (a frozen order,
    or a view of one), which is kept as given."""

    def __init__(self, leq, labels=None, validate=True):
        if not (isinstance(leq, np.ndarray) and leq.dtype == bool
                and not leq.flags.writeable):
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
        """Topological order of ids, smallest id first among available.

        When leq is upper triangular, as on every lcm lattice, every
        enumerated lattice and their induced subposets, the ids in order
        are that extension: id i is available once 0..i-1 are placed.
        leq is reflexive, so it is upper triangular iff each row's first
        true entry is on the diagonal."""
        if "linext" not in self._cache:
            ids = np.arange(self.n)
            if self.n and (self.leq.argmax(axis=1) != ids).any():
                self._cache["linext"] = _smallest_first(self.leq)
            else:
                self._cache["linext"] = tuple(ids.tolist())
        return self._cache["linext"]

    def join_of(self, a: int, b: int) -> int:
        """The join of a and b, which must exist: P is a lattice, or a
        lattice minus its bottom, whose joins are the lattice's."""
        order, up = _ranked_up(self)
        u = up[a] & up[b]
        return order[(u & -u).bit_length() - 1]

    def join_classes(self, a: int):
        """(none, joins): bitmasks over linear-extension positions, as in
        _ranked_up, of the elements grouped by their join with a.  Bit r
        of none is set iff order[r] and a have no least common upper
        bound in P (none, or several minimal ones), and joins maps each
        join c to the mask of the elements whose join with a is c: the
        lowest-ranked common upper bound c is the join iff c's up-set is
        all of them.  Memoized on P by a; joins is a read-only mapping,
        since every caller shares it."""
        key = ("join_classes", a)
        if key not in self._cache:
            order, up = _ranked_up(self)
            none, joins = 0, {}
            ua = up[a]
            for r, y in enumerate(order):
                u = up[y] & ua
                c = order[(u & -u).bit_length() - 1] if u else None
                if c is not None and up[c] == u:
                    joins[c] = joins.get(c, 0) | 1 << r
                else:
                    none |= 1 << r
            self._cache[key] = (none, MappingProxyType(joins))
        return self._cache[key]

    # --- subposets ---

    def sub(self, ids) -> "Poset":
        """Induced subposet on the given ids (kept in ascending id order).
        A run of consecutive ids, such as a lattice without its bottom
        id 0, shares this poset's matrix as a view."""
        ids = sorted(set(int(i) for i in ids))
        for i in ids:
            if not 0 <= i < self.n:
                raise IndexError(f"element {i} out of range")
        if ids and ids[-1] - ids[0] == len(ids) - 1:
            run = slice(ids[0], ids[-1] + 1)
            leq = self.leq[run, run]
        else:
            idx = np.array(ids, dtype=int)
            leq = self.leq[np.ix_(idx, idx)] if ids else np.zeros((0, 0),
                                                                  bool)
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
            if dim < 0:
                self._cache[key] = [()] if dim == -1 else []
            elif dim == 0:
                self._cache[key] = [(i,) for i in range(self.n)]
            else:
                less = self._less_lists()
                self._cache[key] = [t + (j,) for t in self.chains(dim - 1)
                                    for j in less[t[-1]]]
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


def _smallest_first(leq) -> tuple[int, ...]:
    """The linear extension of the order leq that places the smallest
    available id first, by a heap walk."""
    lt = leq & ~np.eye(len(leq), dtype=bool)
    waiting = lt.sum(axis=0)  # predecessors not yet placed
    heap = np.flatnonzero(waiting == 0).tolist()
    out = []
    while heap:
        x = heapq.heappop(heap)
        out.append(x)
        waiting -= lt[x]
        for y in np.flatnonzero(lt[x] & (waiting == 0)).tolist():
            heapq.heappush(heap, y)
    return tuple(out)


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


def _ranked_down(P: Poset):
    """(order, down): P's linear extension, and for each id an int with
    bit r set iff order[r] is at or below that id.  Memoized on P."""
    if "ranked_down" not in P._cache:
        order = P.linear_extension()
        rows = np.packbits(P.leq[list(order)].T, axis=1, bitorder="little")
        down = [int.from_bytes(row.tobytes(), "little") for row in rows]
        P._cache["ranked_down"] = (order, down)
    return P._cache["ranked_down"]


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
    """The lcm lattice of a monomial ideal; build_lcm_lattice makes it.
    Its monomials (the labels) come in lexicographic order of exponent
    vectors, exps is their read-only int64 matrix (row i is id i), index
    maps a monomial back to its id, and atoms are the generators' ids."""

    def __init__(self, leq, monomials, variables, atoms, exps):
        super().__init__(leq, labels=monomials, validate=False)
        self.variables = tuple(variables)
        self.monomials = self.labels
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.atoms = tuple(atoms)
        exps.setflags(write=False)
        self.exps = exps

    def format_label(self, i: int) -> str:
        return self.monomials[i].format(self.variables)


def build_lcm_lattice(generators, variables) -> LcmLattice:
    """The lcm lattice of the ideal generated by the given monomials.

    Generators must be a minimal generating set (an antichain under
    divisibility); a redundant generator is rejected by name.  A lattice
    of more than LCM_LATTICE_CAP elements is refused, and so is an
    exponent of 2^63 or more, which would not fit the int64 exps.
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
        if max(g.exps) >= 2 ** 63:
            raise DomainError(f"generator {g.format(variables)} has an "
                              f"exponent of 2^63 or more")
    _check_lcm_lattice_size(len(gens) + 1)  # the bottom and the generators
    # the closure runs before the quadratic minimality scan, so that an
    # oversized lattice fails as soon as the cap is passed
    rows = np.array([g.exps for g in gens], dtype=np.int64)
    top = rows.max(axis=0)  # the lcm of all, the lexicographically last
    exps, keys = _lcm_closure(rows, top)
    for i, gi in enumerate(gens):
        for j, gj in enumerate(gens):
            if i != j and gi.divides(gj):
                raise ValidationError(
                    f"generator {gj.format(variables)} is not minimal: "
                    f"divisible by {gi.format(variables)}"
                )
    leq = np.ones((len(exps), len(exps)), dtype=bool)
    for col in exps.T:  # one variable at a time: no n x n x nvars temporary
        leq &= col[:, None] <= col[None, :]
    atoms = np.searchsorted(keys, _lex_keys(rows, top))
    # the closure's rows are non-negative Python ints, taken unchecked
    return LcmLattice(leq, [Monomial._unchecked(tuple(e))
                            for e in exps.tolist()],
                      variables, sorted(atoms.tolist()), exps)


# Entries of one block of candidate lcms in _lcm_closure: 512 KiB of int64
_CLOSURE_BLOCK = 1 << 16


def _lcm_closure(gens, top):
    """The exponent rows of 1 and the lcms of all nonempty subsets of the
    generator rows gens, each at most top, in lexicographic order, with
    their sorted _lex_keys keys.

    The closure grows in rounds from the row of 1: each round takes the
    lcm of every row found in the round before with every generator, in
    blocks of at most _CLOSURE_BLOCK entries (one row at least).  A
    block's rows are sorted by key, repeats dropped by comparing
    neighbours, and rows already known dropped by a binary search among
    the sorted known keys; the rest join the known rows in key order, and
    the size cap is checked after every block.  The sorts are stable
    ones, whose numpy code the certifier loads anyway: the default kind
    would add a quarter MiB of resident code."""
    nvars = len(top)
    known = np.zeros((1, nvars), dtype=np.int64)  # the unit monomial
    keys = _lex_keys(known, top)
    frontier = known
    step = max(1, _CLOSURE_BLOCK // (len(gens) * nvars))
    while len(frontier):
        found = []
        for start in range(0, len(frontier), step):
            rows = np.maximum(frontier[start:start + step, None, :],
                              gens[None, :, :]).reshape(-1, nvars)
            new_keys = _lex_keys(rows, top)
            order = np.argsort(new_keys, kind="stable")
            new_keys, rows = new_keys[order], rows[order]
            fresh = np.ones(len(rows), dtype=bool)
            fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
            at = np.searchsorted(keys, new_keys)
            inside = at < len(known)
            fresh[inside] &= (known[at[inside]] != rows[inside]).any(axis=1)
            if fresh.any():
                found.append(rows[fresh])
                keys = np.concatenate([keys, new_keys[fresh]])
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
                known = np.concatenate([known, rows[fresh]])[order]
                _check_lcm_lattice_size(len(known))
        frontier = np.concatenate(found) if found else known[:0]
    return known, keys


def _lex_keys(exps, top) -> np.ndarray:
    """Keys of exponent rows, each at most top componentwise, that sort
    as the rows do lexicographically: np.searchsorted of a vector's key
    among the keys of an lcm lattice's exps, with top its top's row,
    finds the vector's id.  A key is the row's big-endian mixed-radix
    int64 code, radix top_v + 1 in variable v, while the product of the
    radices is below 2^63; beyond, the row's _lex_records record."""
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, len(top))
    radix = [int(t) + 1 for t in top]
    if math.prod(radix) >= 2 ** 63:
        return _lex_records(exps)
    codes = np.zeros(len(exps), dtype=np.int64)
    for col, r in zip(exps.T, radix):
        codes *= r
        codes += col
    return codes


def _lex_records(exps) -> np.ndarray:
    """Exponent rows as one-field records, each the row's big-endian
    int64 bytes: exponents are non-negative, so records compare byte by
    byte as the rows do lexicographically, in one memcmp rather than one
    comparison per variable."""
    exps = np.ascontiguousarray(exps, dtype=">i8")
    return exps.view([("", f"V{8 * exps.shape[1]}")]).ravel()


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
    (bottom, top) is open_interval(L, L.bottom, L.top).  Memoized on L:
    every caller gets the same poset, with its linear extension, up-set
    masks and join rows, so it must be read, never changed.
    """
    if "without_bottom" not in L._cache:
        L._cache["without_bottom"] = L.sub(
            [i for i in range(L.n) if i != L.bottom])
    return L._cache["without_bottom"]


# --- enumeration of small lattices up to isomorphism ---


def _natural_posets(m: int):
    """The least natural labelings of the posets on m elements whose
    bounded closure is a lattice, in lexicographic order.

    Represented as tuples of bitmasks down[i] = {j : j <= i} (including i).
    A depth-first walk appends element k with each downward-closed strict
    down-set in ascending order, which unpruned would yield every naturally
    labeled poset once, in lexicographic order.  It descends into a child
    only if the child's bounded closure is a lattice and the child is
    `_is_least`.  Both prunings are exact: dropping the last element of a
    natural labeling drops a coatom of its closure, and a lattice minus a
    coatom is a lattice; the first k elements are an order ideal, so a
    smaller labeling of them extends to a smaller labeling of the whole.
    """
    def rec(down):
        k = len(down)
        if k == m:
            yield down
            return
        # step i appends the down-closed masks holding i: still ascending
        masks = [0]
        for i in range(k):
            masks += [mask | 1 << i for mask in masks
                      if down[i] & ~mask == 1 << i]
        for mask in masks:
            child = down + (mask | 1 << k,)
            if (_lattice_tables(range(k + 3), _bounded_closure(child, k + 1))
                    and _is_least(child)):
                yield from rec(child)

    yield from rec(())


def _is_least(down) -> bool:
    """True iff the down-mask tuple `down` is the lexicographically least
    natural labeling of its poset.

    Labelings are walked as linear extensions, filling positions in order:
    an element may take position k once its strict down-set is placed, and
    its new mask is bit k ORed with the new masks of the elements below it.
    A branch stops once its mask exceeds down[k]; a smaller mask is a
    smaller labeling, as every placement extends to a whole one.  Twins,
    elements with the same strict down-set and up-set, are placed in index
    order only: swapping two twins is an automorphism, so it gives no new
    labeling.
    """
    m = len(down)
    below = [d & ~(1 << i) for i, d in enumerate(down)]
    above = [sum(1 << y for y in range(m) if below[y] >> x & 1)
             for x in range(m)]
    # before[x]: x's twins of lower index, which are placed first
    before = [sum(1 << y for y in range(x) if below[y] == below[x]
                  and above[y] == above[x]) for x in range(m)]
    new = [0] * m  # new[x]: x's down-mask in the labeling being built

    def smaller(placed, k):
        if k == m:
            return False
        for x in range(m):
            if placed >> x & 1 or (below[x] | before[x]) & ~placed:
                continue
            mask, rest = 1 << k, below[x]
            while rest:
                low = rest & -rest
                mask |= new[low.bit_length() - 1]
                rest ^= low
            if mask < down[k]:
                return True
            if mask == down[k]:
                new[x] = mask
                if smaller(placed | 1 << x, k + 1):
                    return True
        return False

    return not smaller(0, 0)


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
    labelings whose code so far is least (every tie is kept).  As in
    `_is_least`, twins (elements with the same strict up-set and strict
    down-set) are placed in index order only: swapping two twins is an
    automorphism, so it leaves every code unchanged.
    """
    n = len(up)
    strict_up = [u & ~(1 << x) for x, u in enumerate(up)]
    strict_down = [sum(1 << y for y in range(n) if strict_up[y] >> x & 1)
                   for x in range(n)]
    # waits[x]: x's strict up-set and its twins of lower index
    waits = [strict_up[x] | sum(
        1 << y for y in range(x) if strict_up[y] == strict_up[x]
        and strict_down[y] == strict_down[x]) for x in range(n)]
    code = 0
    states = [(0, (0,) * n)]  # (placed mask, position bit of each element)
    for a in range(n - 1, -1, -1):
        best, ties = None, []
        for placed, posbit in states:
            for x in range(n):
                if placed >> x & 1 or waits[x] & ~placed:
                    continue
                above = strict_up[x]
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

    Canonically relabeled by `_canonical_code` (ids form a linear
    extension, bottom first), in the order of `_natural_posets(n - 2)`,
    whose middle posets get a bottom and a top added.  This is exact: an
    isomorphism of bounded lattices fixes bottom and top, so two lattices
    are isomorphic iff their middle posets are, and each class of middle
    posets has one least natural labeling.  Refuses n above
    LATTICE_ENUMERATION_CAP: the middle-poset search grows too fast.
    """
    if not 2 <= n <= LATTICE_ENUMERATION_CAP:
        raise DomainError(
            f"lattice enumeration covers 2 to {LATTICE_ENUMERATION_CAP} "
            f"elements, not {n}")
    for down in _natural_posets(n - 2):
        up = _bounded_closure(down, n - 2)
        yield Lattice(_decode_canonical(_canonical_code(up), n),
                      validate=False)


# --- isomorphism testing (used by tests) ---


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
    lcm = isinstance(P, LcmLattice)
    out = {"n": P.n, "covers": [[i, j] for i, j in P.covers()],
           "labels": [P.format_label(i) if lcm else str(P.label_of(i))
                      for i in range(P.n)]}
    if lcm:
        out["variables"] = list(P.variables)
    return out


def poset_from_json(data: dict):
    """Rebuild a poset from its JSON dict; lattices come back as lattices.

    Lcm data (labels with variables) is rebuilt by build_lcm_lattice from
    the labels its covers put directly above 1, and refused unless the
    rebuilt labels, in id order, and covers are the stored ones."""
    n = int(data["n"])
    if n < 0:
        raise ValidationError(f"element count {n} is negative")
    covers = sorted((int(i), int(j)) for i, j in data.get("covers", []))
    if any(not (0 <= i < n and 0 <= j < n) for i, j in covers):
        raise ValidationError("cover indices out of range")
    labels = data.get("labels")
    variables = data.get("variables")
    if variables and labels:
        if len(labels) != n:
            raise ValidationError("labels length does not match element count")
        monomials = [parse_monomial(s, variables) for s in labels]
        L = build_lcm_lattice(
            [monomials[j] for i, j in covers if monomials[i].is_one()],
            variables)
        if (L.monomials, L.covers()) != (tuple(monomials), covers):
            raise ValidationError(
                "stored labels and covers are not the lcm lattice of the "
                "labels covering 1, with ids in lexicographic order")
        return L
    leq = np.eye(n, dtype=bool)
    for i, j in covers:
        leq[i, j] = True
    for _ in range(n.bit_length()):  # transitive closure by squaring
        leq |= leq @ leq
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
