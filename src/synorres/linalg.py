"""Exact sparse linear algebra over a field.

Vectors are dicts {index: scalar} with zero entries dropped; indices are
ints from some fixed basis ordering.  Scalars are plain numbers (see
algebra): _axpy, the pivot normalization and solve's negation reduce them
mod p over GF(p), so entries stay in [0, p).  The central object is
Reducer, an incremental reduced-row-echelon accumulator with
deterministic least-index pivoting.  One column reduction, eliminate,
gives a matrix's span and kernel at once; kernels, solves and the
homology of a whole complex (one elimination per boundary matrix) are
views of it, which is what makes representative cycles and witness
choices reproducible run to run.
"""

from __future__ import annotations

from typing import NamedTuple


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


def eliminate(columns, field) -> tuple[Reducer, list[dict]]:
    """The span's Reducer and the kernel of the map e_j -> columns[j].

    Columns are inserted in order with witness e_j; one that reduces to
    zero yields its witness as a kernel vector (coefficient 1 on that
    column).  The stored rows do not depend on the witnesses.
    """
    red = Reducer(field)
    kernel = []
    for j, col in enumerate(columns):
        residual, wit = red.reduce(col, {j: field.one})
        if residual:
            red._store(residual, wit)
        else:
            kernel.append(wit)
    return red, kernel


def kernel_basis(columns, field) -> list[dict]:
    """Kernel of the map e_j -> columns[j], over column indices."""
    return eliminate(columns, field)[1]


def solve(columns, target: dict, field) -> dict | None:
    """Solve sum_j x_j columns[j] = target; least-pivot particular solution.

    Returns {j: x_j} or None when target is outside the column span.  Free
    coordinates stay at zero, so the answer is deterministic.
    """
    residual, wit = eliminate(columns, field)[0].reduce(target, {})
    if residual:
        return None
    # Reduction maintains residual = target - sum wit[j]*row_j with each
    # row_j = a combination of original columns recorded in its witness;
    # the accumulated wit therefore satisfies 0 = target + sum wit[j]*col_j.
    return {j: field.of(-v) for j, v in wit.items() if v}


class HomologyBasis(NamedTuple):
    """Rank and echelon-deterministic representative cycles in one degree."""

    dim: int
    rank: int
    cycles: list


def complex_homology(boundaries, field, lowest: int) -> list[HomologyBasis]:
    """Homology at degrees lowest .. lowest + len(boundaries) - 2.

    boundaries[i] holds the columns of the differential out of degree
    lowest + i, each a vector over the basis one degree down.  Each matrix
    is eliminated once.  Representatives are kernel vectors reduced
    against the span of the matrix above, kept in echelon form as added.
    """
    eliminated = [eliminate(cols, field) for cols in boundaries]
    out = []
    for i, ((_, kernel), (above, _)) in enumerate(zip(eliminated,
                                                      eliminated[1:])):
        reps = Reducer(field)
        cycles = []
        for z in kernel:
            piv = reps.insert(above.reduce(z)[0])
            if piv is not None:
                cycles.append(dict(reps.rows[piv]))
        out.append(HomologyBasis(lowest + i, len(cycles), cycles))
    return out


def homology_of_complex(boundary_cols_k, boundary_cols_k_plus, field,
                        dim) -> HomologyBasis:
    """Homology in degree dim alone (see complex_homology)."""
    return complex_homology([boundary_cols_k, boundary_cols_k_plus], field,
                            dim)[0]
