"""Exact sparse linear algebra over a field.

Vectors are dicts {index: scalar} with zero entries dropped; indices are
ints from some fixed basis ordering.  The central object is Reducer, an
incremental reduced-row-echelon accumulator with deterministic least-index
pivoting.  Everything downstream (ranks, kernels, solves, homology bases)
is phrased through it, which is what makes representative cycles and
witness choices reproducible run to run.
"""

from __future__ import annotations


def _axpy(target: dict, c, source: dict):
    """target -= c * source, in place, dropping zeros."""
    for k, v in source.items():
        w = target.get(k)
        w = -(c * v) if w is None else w - c * v
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
        vec = dict(vec)
        wit = dict(wit) if wit is not None else None
        for piv in sorted(k for k in vec if k in self.rows):
            c = vec.get(piv)
            if not c:
                continue
            _axpy(vec, c, self.rows[piv])
            if wit is not None:
                _axpy(wit, c, self.wits[piv])
        return vec, wit

    def _store(self, vec: dict, wit: dict | None):
        """Normalize a reduced, nonzero vector and add it as a new row."""
        piv = min(vec)
        inv = self.field.one / vec[piv]
        vec = {k: v * inv for k, v in vec.items()}
        wit = {k: v * inv for k, v in wit.items()} if wit is not None else {}
        for p in self.rows:
            c = self.rows[p].get(piv)
            if c:
                _axpy(self.rows[p], c, vec)
                _axpy(self.wits[p], c, wit)
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
    return {j: -v for j, v in wit.items() if v}


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
