"""Exact sparse linear algebra over a field.

Vectors are dicts {index: scalar} with zero entries dropped; indices are
ints from some fixed basis ordering.  Scalars are plain numbers (see
algebra): _axpy, the pivot normalization and solve's negation reduce them
mod p over GF(p), so entries stay in [0, p).  The central object
is Reducer, an incremental reduced-row-echelon accumulator with
deterministic least-index pivoting.  Everything downstream (ranks,
kernels, solves, homology bases) is phrased through it, which is what
makes representative cycles and witness choices reproducible run to run.
"""

from __future__ import annotations


def _axpy(target: dict, c, source: dict, p: int):
    """target -= c * source, in place, dropping zeros; mod p unless p is 0."""
    for k, v in source.items():
        w = target.get(k)
        w = -(c * v) if w is None else w - c * v
        if p:
            w %= p
        if w:
            target[k] = w
        else:
            target.pop(k, None)


class Reducer:
    """Incremental RREF container with optional witness tracking.

    Rows are kept fully inter-reduced and pivot-normalized to 1; pivots are
    least indices.  A witness vector rides along through the same row
    operations; for rows built from inserted vectors it records the
    combination of original inputs the row equals, which yields kernel
    vectors and solve coefficients without a second elimination pass.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict[int, dict] = {}  # pivot -> row vector (row[pivot] == 1)
        self.wits: dict[int, dict] = {}  # pivot -> witness vector

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict, wit: dict | None = None):
        """Reduce vec against stored rows; returns (residual, witness).

        Stored rows contain no other row's pivot, so eliminating the pivot
        columns present in vec can only introduce non-pivot columns and a
        single pass over sorted pivots suffices.
        """
        p = self.field.modulus
        vec = dict(vec)
        wit = dict(wit) if wit is not None else None
        for piv in sorted(k for k in vec if k in self.rows):
            c = vec.get(piv)
            if not c:
                continue
            _axpy(vec, c, self.rows[piv], p)
            if wit is not None:
                _axpy(wit, c, self.wits[piv], p)
        return vec, wit

    def _store(self, vec: dict, wit: dict | None):
        """Normalize a reduced, nonzero vector and add it as a new row."""
        piv = min(vec)
        inv = self.field.inverse(vec[piv])
        p = self.field.modulus
        wit = {} if wit is None else wit
        if inv != 1:
            vec = {k: v * inv % p if p else v * inv for k, v in vec.items()}
            wit = {k: v * inv % p if p else v * inv for k, v in wit.items()}
        for q, row in self.rows.items():
            c = row.get(piv)
            if c:
                _axpy(row, c, vec, p)
                _axpy(self.wits[q], c, wit, p)
        self.rows[piv] = vec
        self.wits[piv] = wit
        return piv

    def insert(self, vec: dict, wit: dict | None = None):
        """Reduce and, if independent, store; returns the new pivot or None."""
        vec, wit = self.reduce(vec, wit)
        if not vec:
            return None
        return self._store(vec, wit)

    def contains(self, vec: dict) -> bool:
        residual, _ = self.reduce(vec)
        return not residual


def rank_of(columns, field) -> int:
    red = Reducer(field)
    for col in columns:
        red.insert(dict(col))
    return red.rank


def kernel_basis(columns, field) -> list[dict]:
    """Kernel of the map e_j -> columns[j], as vectors over column indices.

    Columns are inserted in order with witness e_j; a column that reduces
    to zero yields its witness as a kernel vector (the dependency, with
    coefficient 1 on that column).  Deterministic by construction.
    """
    red = Reducer(field)
    out = []
    for j, col in enumerate(columns):
        residual, wit = red.reduce(dict(col), {j: field.one})
        if residual:
            red._store(residual, wit)
        else:
            out.append(wit)
    return out


def solve(columns, target: dict, field) -> dict | None:
    """Solve sum_j x_j columns[j] = target; least-pivot particular solution.

    Returns {j: x_j} or None when target is outside the column span.  Free
    coordinates stay at zero, so the answer is deterministic.
    """
    red = Reducer(field)
    for j, col in enumerate(columns):
        red.insert(dict(col), {j: field.one})
    residual, wit = red.reduce(dict(target), {})
    if residual:
        return None
    # Reduction maintains residual = target - sum wit[j]*row_j with each
    # row_j = a combination of original columns recorded in its witness;
    # the accumulated wit therefore satisfies 0 = target + sum wit[j]*col_j.
    return {j: field.of(-v) for j, v in wit.items() if v}


class HomologyBasis:
    """Rank and echelon-deterministic representative cycles in one degree."""

    __slots__ = ("dim", "rank", "cycles")

    def __init__(self, dim: int, rank: int, cycles):
        self.dim = dim
        self.rank = rank
        self.cycles = list(cycles)

    def __repr__(self):
        return f"HomologyBasis(dim={self.dim}, rank={self.rank})"


def homology_of_complex(boundary_cols_k, boundary_cols_k_plus, field,
                        dim) -> HomologyBasis:
    """Homology at one position of a complex, from two boundary matrices.

    boundary_cols_k[j] is the boundary of the j-th degree-k basis element
    as a vector over degree-(k-1) indices; boundary_cols_k_plus likewise
    one level up (vectors over degree-k indices).  Representatives are
    kernel vectors reduced against an RREF of the boundary image, kept in
    echelon form, reported over degree-k indices.
    """
    bnd = Reducer(field)
    for col in boundary_cols_k_plus:
        bnd.insert(dict(col))
    reps = Reducer(field)
    out = []
    for z in kernel_basis(boundary_cols_k, field):
        residual, _ = bnd.reduce(z)
        if not residual:
            continue
        before = reps.rank
        piv = reps.insert(residual)
        if piv is not None and reps.rank > before:
            out.append(dict(reps.rows[piv]))
    return HomologyBasis(dim, len(out), out)
