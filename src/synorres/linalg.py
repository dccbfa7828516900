"""Exact sparse linear algebra over a field.

Vectors are dicts {key: scalar} with zero entries dropped.  Keys are the
basis elements themselves (ints, order-chain tuples, synor generators)
and must sort in basis order, since every pivot is a least key.  A
matrix is a mapping {column key: column vector}, read in insertion
order, and kernel vectors, solutions and cycles come back keyed by
column key.  Scalars are plain numbers (see algebra): _axpy, the pivot
normalization and solve's negation reduce them mod p over GF(p), so
entries stay in [0, p).  The central object is Reducer, an incremental
reduced-row-echelon accumulator.  Two column reductions drive
everything: span, without witnesses, gives the row space and rank of an
iterable of columns; kernel_vectors, with witnesses, streams a matrix's
kernel in column order.  Kernels and solves are views of the witness
pass, whose Reducer (eliminate) answers any number of solves.  The
homology of a whole complex is rank-first: cleared_spans spans its
boundary matrices from the top degree down (homology_ranks), and a
witness pass (representative_cycles) runs only in degrees whose homology
is nonzero, stopping at the last new cycle.  A caller that knows the
ranks from a smaller complex with the same homology can run the witness
pass alone.
The spans use clearing (Chen-Kerber's twist): given d_d . d_{d+1} = 0,
a column of d_d whose key is a pivot of d_{d+1}'s span lies in the span
of the columns with larger keys, so it is never inserted; the rank and
the RREF rows stay those of the full matrix.  Stored rows and kernel
vectors are canonical for a fixed column order, so representative
cycles and witness choices are reproducible run to run.
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
    least keys.  A witness vector rides along through the same row
    operations; for rows built from inserted vectors it records the
    combination of original inputs the row equals, which yields kernel
    vectors and solve coefficients without a second elimination pass.
    """

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}  # pivot key -> row vector (row[pivot] == 1)
        self.wits: dict = {}  # pivot key -> witness vector

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
                if wit:  # a witness-free span carries no witnesses
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

    def solve(self, target: dict) -> dict | None:
        """Least-key-pivot solution x of sum_j x_j col_j = target over the
        columns inserted with witnesses {key: 1} (as eliminate does), or
        None when target is outside their span; free coordinates stay 0."""
        residual, wit = self.reduce(target, {})
        if residual:
            return None
        # each row's witness records the columns it combines, so reduction
        # keeps residual = target + sum wit[j]*col_j; at zero, x = -wit.
        return {j: self.field.of(-v) for j, v in wit.items() if v}


def span(columns, field) -> Reducer:
    """The Reducer of the columns' span, built without witnesses."""
    red = Reducer(field)
    for col in columns:
        red.insert(col)
    return red


def rank_of(columns, field) -> int:
    return span(columns, field).rank


def cleared_spans(columns_of, count: int, field) -> list[Reducer]:
    """Spans of the count boundary matrices of a complex, with clearing.

    Matrix i maps degree i to degree i - 1 of some grading, and the
    caller guarantees that matrix i composed with matrix i + 1 is zero.
    columns_of(i, cleared) returns the columns of matrix i, leaving out
    those whose key is in cleared.  Matrices are spanned from the top
    down, and matrix i's cleared set is the pivots of matrix i + 1's
    span: a row with least key j is a boundary that matrix i kills, so
    column j lies in the span of the columns with larger keys.  Each
    Reducer has the rank and the RREF rows of its full matrix's span.
    """
    spans: list[Reducer] = []
    cleared: dict = {}
    for i in reversed(range(count)):
        red = span(columns_of(i, cleared), field)
        spans.append(red)
        cleared = red.rows
    return spans[::-1]


def kernel_vectors(columns: dict, red: Reducer):
    """Yield the kernel of the matrix columns in column order.

    columns maps each column key to its vector; the columns are inserted
    into red in insertion order with witness {key: 1}, red pivoting on
    least row keys, and one that reduces to zero yields its witness as a
    kernel vector, keyed by column key, with coefficient 1 on its own
    key.  The stored rows do not depend on the witnesses, and each kernel
    vector depends only on the columns up to its own.
    """
    one = red.field.one
    for key, col in columns.items():
        residual, wit = red.reduce(col, {key: one})
        if residual:
            red._store(residual, wit)
        else:
            yield wit


def eliminate(columns: dict, field) -> tuple[Reducer, list[dict]]:
    """The span's Reducer, with witnesses, and the whole kernel."""
    red = Reducer(field)
    return red, list(kernel_vectors(columns, red))


def kernel_basis(columns: dict, field) -> list[dict]:
    """Kernel of the matrix columns, as vectors keyed by column key."""
    return eliminate(columns, field)[1]


def solve(columns: dict, target: dict, field) -> dict | None:
    """Solve sum_j x_j columns[j] = target (see Reducer.solve); columns
    maps column keys to vectors over the row keys, as target does."""
    return eliminate(columns, field)[0].solve(target)


class HomologyBasis(NamedTuple):
    """Rank and echelon-deterministic representative cycles in one degree."""

    dim: int
    rank: int
    cycles: list


def homology_ranks(boundaries, field) -> tuple[list[int], list[Reducer]]:
    """Ranks h_d of the complex at degrees lowest .. lowest + len - 2
    (as complex_homology takes them), and the spans of its matrices.

    cleared_spans spans the matrices top degree first without witnesses,
    d_d receiving only the dim C_d - rank d_{d+1} columns whose keys are
    not pivots of d_{d+1}'s span, which gives every rank h_d = dim C_d -
    rank d_d - rank d_{d+1}; each span has its full matrix's RREF rows.
    """
    spans = cleared_spans(
        lambda i, cleared: [col for key, col in boundaries[i].items()
                            if key not in cleared],
        len(boundaries), field)
    ranks = [len(cols) - below.rank - above.rank
             for cols, below, above in zip(boundaries, spans, spans[1:])]
    return ranks, spans


def representative_cycles(cols: dict, above: Reducer, rank: int,
                          field) -> list[dict]:
    """rank cycles of the matrix cols, independent modulo the span above.

    A witness pass streams the kernel of the full matrix in column order;
    each kernel vector is reduced against above, the RREF of the next
    matrix's span, and kept in echelon form as added, until rank cycles,
    keyed by column key, are found.  The RREF of a span is unique, so the
    cycles depend only on the columns and on the span's column set."""
    cycles: list[dict] = []
    reps = Reducer(field)
    for z in kernel_vectors(cols, Reducer(field)):
        piv = reps.insert(above.reduce(z)[0])
        if piv is not None:
            cycles.append(dict(reps.rows[piv]))
            if len(cycles) == rank:
                break
    return cycles


def complex_homology(boundaries, field, lowest: int) -> list[HomologyBasis]:
    """Homology at degrees lowest .. lowest + len(boundaries) - 2.

    boundaries[i] is the differential out of degree lowest + i, a mapping
    from each basis key of that degree to its vector over the basis keys
    one degree down; consecutive differentials must compose to zero, and
    keys must sort in basis order.  homology_ranks gives every rank; only
    where h_d > 0 does representative_cycles run, against the span of
    d_{d+1}, keyed by the degree's basis keys.
    """
    ranks, spans = homology_ranks(boundaries, field)
    return [HomologyBasis(lowest + i, rank, representative_cycles(
                boundaries[i], spans[i + 1], rank, field) if rank else [])
            for i, rank in enumerate(ranks)]


def homology_of_complex(boundary_cols_k: dict, boundary_cols_k_plus: dict,
                        field, dim) -> HomologyBasis:
    """Homology in degree dim alone (see complex_homology)."""
    return complex_homology([boundary_cols_k, boundary_cols_k_plus], field,
                            dim)[0]
