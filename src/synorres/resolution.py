"""Multigraded Betti numbers and minimal free resolutions of monomial ideals.

The resolution is the synor complex of the lcm lattice minus its bottom:
dimension-(i-1) generators become the basis of the i-th free module,
labeled by the lattice monomial they sit at, and the synor differential
supplies monomial-weighted matrix entries.  Betti numbers are its
generator counts.  A certification pass re-proves resolution-hood from
scratch: squared differential, per-multidegree strand exactness,
minimality, and cokernel equal to the ideal.

The independent oracle reads Betti numbers off the lattice directly:
beta_{i,m} is the rank of reduced homology in degree i - 2 of the open
interval between the bottom and m, with beta_{0,1} = 1 by convention.
One memo per lattice holds those ranks (interval_ranks), and every
reader of the oracle goes through it.
"""

from __future__ import annotations

import numpy as np

from .algebra import Monomial, ValidationError
from .chains import all_homology_ranks
from .linalg import cleared_spans, rank_of
from .poset import Lattice, LcmLattice, open_interval, without_bottom
from .synor import EMPTY_GENERATOR, build_synor_complex


class BettiTable:
    """Multigraded Betti numbers of a monomial ideal's quotient ring."""

    def __init__(self, variables, entries: dict):
        self.variables = tuple(variables)
        self.entries = {
            (int(i), m): int(v) for (i, m), v in entries.items() if v
        }

    def beta(self, i: int, m: Monomial) -> int:
        return self.entries.get((i, m), 0)

    def projective_dimension(self) -> int:
        return max((i for (i, _m) in self.entries), default=0)

    def total(self, i: int) -> int:
        return sum(v for (j, _m), v in self.entries.items() if j == i)

    def totals(self) -> tuple:
        return tuple(self.total(i) for i in range(self.projective_dimension() + 1))

    def t(self, i: int) -> int:
        """Largest degree of a shift in column i; 0 when the column is empty."""
        return max((m.degree() for (j, m) in self.entries if j == i), default=0)

    def t_sequence(self) -> tuple:
        return tuple(self.t(i) for i in range(self.projective_dimension() + 1))

    def a(self, i: int) -> int:
        """Number of distinct multidegrees with a nonzero entry in column i."""
        return sum(1 for (j, _m) in self.entries if j == i)

    def a_sequence(self) -> tuple:
        return tuple(self.a(i) for i in range(self.projective_dimension() + 1))

    def __eq__(self, other):
        if not isinstance(other, BettiTable):
            return NotImplemented
        return (self.variables, self.entries) == (other.variables, other.entries)

    def __repr__(self):
        return f"BettiTable(totals={self.totals()})"

    def text(self) -> str:
        """Macaulay-style grid: columns i, rows j - i, dots for zeros."""
        pd = self.projective_dimension()
        cols = range(pd + 1)
        maxrow = 0
        grid: dict[tuple[int, int], int] = {}
        for (i, m), v in self.entries.items():
            d = m.degree() - i
            grid[(d, i)] = grid.get((d, i), 0) + v
            maxrow = max(maxrow, d)
        cells = {}
        for i in cols:
            cells[("head", i)] = str(i)
            cells[("total", i)] = str(self.total(i))
            for d in range(maxrow + 1):
                v = grid.get((d, i), 0)
                cells[(d, i)] = str(v) if v else "."
        widths = {
            i: max(len(cells[(r, i)])
                   for r in ["head", "total", *range(maxrow + 1)])
            for i in cols
        }

        def line(label, row):
            return label.rjust(6) + "".join(
                " " + cells[(row, i)].rjust(widths[i]) for i in cols)

        out = [line("", "head"), line("total:", "total")]
        out.extend(line(f"{d}:", d) for d in range(maxrow + 1))
        return "\n".join(out)

    def to_json(self) -> dict:
        return {
            "variables": list(self.variables),
            "entries": [
                [i, m.format(self.variables), v]
                for (i, m), v in sorted(self.entries.items())
            ],
            "totals": list(self.totals()),
            "t": list(self.t_sequence()),
            "a": list(self.a_sequence()),
        }


def interval_ranks(L: Lattice, x: int, field) -> dict[int, int]:
    """Reduced homology ranks, by degree, of the open interval (0, x) of L.

    Memoized in L's cache under ("interval_ranks", field, x), which only
    this function writes.  Raises like open_interval on a bad id."""
    key = ("interval_ranks", field, x)
    if key not in L._cache:
        L._cache[key] = all_homology_ranks(open_interval(L, L.bottom, x),
                                           field)
    return L._cache[key]


def betti_from_intervals(L: LcmLattice, field) -> BettiTable:
    """Betti table from interval homology; beta_{0,1} = 1 by convention.

    The oracle the synor resolution's table is checked against.
    """
    entries: dict = {(0, Monomial.one(len(L.variables))): 1}
    for m_id in range(L.n):
        if m_id == L.bottom:
            continue
        ranks = interval_ranks(L, m_id, field)
        mono = L.monomials[m_id]
        entries.update({(d + 2, mono): r for d, r in ranks.items() if r})
    return BettiTable(L.variables, entries)


class FreeResolution:
    """A complex of labeled free modules with monomial-weighted matrices.

    differentials[k] maps module k+1 to module k; an entry keyed (row, col)
    holds (label(col)/label(row), scalar).
    """

    def __init__(self, variables, labels, differentials):
        self.variables = tuple(variables)
        self.labels = [list(lab) for lab in labels]
        self.differentials = [dict(d) for d in differentials]
        if len(self.differentials) != max(0, len(self.labels) - 1):
            raise ValidationError("differential count does not match modules")

    @property
    def ranks(self) -> tuple:
        return tuple(len(lab) for lab in self.labels)

    def __repr__(self):
        return f"FreeResolution(ranks={self.ranks})"


def synor_resolution(L: LcmLattice, field) -> FreeResolution:
    """The minimal resolution carried by the synor complex of L minus 0.

    Module i has one generator per dimension-(i-1) synor generator, labeled
    by its lattice monomial (the empty generator is labeled 1); the matrix
    of the synor differential, with each entry scaled by the quotient of
    its column and row labels, is the resolution differential.
    """
    upper = without_bottom(L)
    S = build_synor_complex(upper, field)

    def label_of(g):
        if g == EMPTY_GENERATOR:
            return Monomial.one(len(L.variables))
        return L.monomials[upper.origin[g.element]]

    top_dim = max(S.dims(), default=-1)
    bases = [S.generators(d) for d in range(-1, top_dim + 1)]
    labels = [[label_of(g) for g in basis] for basis in bases]
    differentials = []
    for k in range(len(bases) - 1):
        rows = {g: r for r, g in enumerate(bases[k])}
        mat = {}
        for c, g in enumerate(bases[k + 1]):
            for h, v in S.delta[g].terms.items():
                mono = label_of(g).quotient(label_of(h))
                mat[(rows[h], c)] = (mono, v)
        differentials.append(mat)
    return FreeResolution(L.variables, labels, differentials)


def betti_from_resolution(R: FreeResolution) -> BettiTable:
    """Betti numbers as generator counts of a (certified-minimal) resolution."""
    entries: dict = {}
    for i, labs in enumerate(R.labels):
        for m in labs:
            entries[(i, m)] = entries.get((i, m), 0) + 1
    return BettiTable(R.variables, entries)


class CertificationReport:
    def __init__(self, ok: bool, checks: list, problems: list):
        self.ok = ok
        self.checks = checks
        self.problems = problems

    def lines(self) -> list[str]:
        out = [f"{'ok' if good else 'FAIL'}  {name}" for name, good in self.checks]
        out.extend(f"     {p}" for p in self.problems)
        out.append("certified" if self.ok else "NOT CERTIFIED")
        return out

    def __repr__(self):
        return f"CertificationReport(ok={self.ok})"


def certify_resolution(R: FreeResolution, L: LcmLattice, field) -> CertificationReport:
    """Re-prove that R minimally resolves the quotient by L's ideal.

    Checks, each from first principles on the matrices alone: the
    differential squares to zero; every multidegree strand is exact with
    a single generator at the bottom (strands at monomials outside the
    lattice coincide with the strand at their largest lattice divisor, so
    lattice monomials suffice); no entry is a unit; the first differential
    presents exactly the ideal's minimal generators.

    Once the grading is consistent and d . d = 0 are proven, each strand
    is a complex, and its ranks come from linalg.cleared_spans from the
    top module down: a strand column whose index is a pivot of the span
    one module up is never built.  Otherwise clearing would not be exact,
    and every strand matrix is spanned in full.
    """
    problems: list[str] = []
    checks: list[tuple[str, bool]] = []

    def record(name: str, good: bool):
        checks.append((name, good))

    # labels must be consistent with the stored monomial weights; the same
    # pass builds each differential's column view: column -> [(row, scalar)]
    consistent = True
    by_col: list[dict[int, list]] = []
    for k, mat in enumerate(R.differentials):
        view: dict[int, list] = {}
        by_col.append(view)
        for (r, c), (mono, v) in mat.items():
            view.setdefault(c, []).append((r, v))
            if not v:
                consistent = False
                problems.append(f"zero scalar stored in differential {k + 1}")
            if R.labels[k][r] * mono != R.labels[k + 1][c]:
                consistent = False
                problems.append(
                    f"entry ({r},{c}) of differential {k + 1} breaks grading")
    record("grading consistent", consistent)

    # d . d = 0; all monomial weights along a path agree, so scalar sums decide
    square_zero = True
    for k in range(len(R.differentials) - 1):
        for c, col in by_col[k + 1].items():
            acc: dict[int, object] = {}
            for mid, v in col:
                for r2, w in by_col[k].get(mid, ()):
                    acc[r2] = acc.get(r2, field.zero) + w * v
            if any(field.of(x) for x in acc.values()):
                square_zero = False
                problems.append(
                    f"composite of differentials {k + 2} and {k + 1} "
                    f"nonzero on generator {c}")
    record("differential squares to zero", square_zero)

    # minimality: a unit entry would cancel a generator
    minimal = True
    for k, mat in enumerate(R.differentials):
        for (r, c), (mono, v) in mat.items():
            if mono.is_one() and v:
                minimal = False
                problems.append(
                    f"unit entry at ({r},{c}) in differential {k + 1}")
    record("no unit entries", minimal)

    # the presentation matrix exhibits the ideal's minimal generators
    atoms = sorted(L.monomials[a] for a in L.atoms)
    first = sorted(R.labels[1]) if len(R.labels) > 1 else []
    presents = first == atoms and len(R.labels[0]) == 1 and \
        R.labels[0][0].is_one()
    if not presents:
        problems.append("first module does not present the ideal's generators")
    record("cokernel is the ideal", presents)

    # strand exactness at every lattice multidegree above the bottom;
    # divides[i][m, j]: label j of module i divides lattice monomial m
    nvars = len(L.variables)
    lattice_exps = np.array([m.exps for m in L.monomials]).reshape(L.n, nvars)
    divides = [
        (np.array([lab.exps for lab in labs]).reshape(len(labs), nvars)
         <= lattice_exps[:, None]).all(axis=2)
        for labs in R.labels
    ]
    exact = True
    for m_id in range(L.n):
        if m_id == L.bottom:
            continue
        m = L.monomials[m_id]
        keep = [set(np.flatnonzero(d[m_id]).tolist()) for d in divides]
        dims = [len(sel) for sel in keep]
        while dims and dims[-1] == 0:
            dims.pop()
            keep.pop()

        def columns_of(k, cleared):
            return [{r: v for r, v in by_col[k].get(c, ()) if r in keep[k]}
                    for c in keep[k + 1] if c not in cleared]
        if consistent and square_zero:
            ranks = [red.rank for red in
                     cleared_spans(columns_of, len(dims) - 1, field)]
        else:
            ranks = [rank_of(columns_of(k, ()), field)
                     for k in range(len(dims) - 1)]
        ranks.append(0)
        # m lies in the ideal, so the strand must be exact everywhere:
        # one generator at the bottom, killed by rank-1 d_1, and
        # dim F_k = rank d_k + rank d_{k+1} above.
        good = len(dims) >= 2 and dims[0] == 1 and ranks[0] == 1
        for k in range(1, len(dims)):
            if dims[k] != ranks[k - 1] + ranks[k]:
                good = False
        if not good:
            exact = False
            problems.append(
                f"strand at {m.format(L.variables)} not exact "
                f"(dims {dims}, ranks {ranks[:-1]})")
    record("all multidegree strands exact", exact)

    ok = all(good for _n, good in checks)
    return CertificationReport(ok, checks, problems)


def resolution_to_json(R: FreeResolution) -> dict:
    diffs = []
    for k, mat in enumerate(R.differentials):
        entries = [
            [r, c, mono.format(R.variables), str(v)]
            for (r, c), (mono, v) in sorted(mat.items(), key=lambda kv: (kv[0][1], kv[0][0]))
        ]
        diffs.append({
            "rows": len(R.labels[k]),
            "cols": len(R.labels[k + 1]),
            "entries": entries,
        })
    return {
        "ranks": list(R.ranks),
        "labels": [
            [m.format(R.variables) for m in labs] for labs in R.labels
        ],
        "differentials": diffs,
    }
