"""Multigraded Betti numbers and minimal free resolutions of monomial ideals.

The resolution is the synor complex of the lcm lattice minus its bottom:
dimension-(i-1) generators become the basis of the i-th free module,
labeled by the lattice monomial they sit at, and the synor differential
supplies the scalar matrix entries; an entry's monomial weight is its
column label over its row label, never stored.  Betti numbers are its
generator counts.  A certification pass re-proves resolution-hood from
scratch: squared differential, lattice labels, per-multidegree strand
exactness (through quotient strands, one atom complement per lattice
element, each ranked over its own nonempty modules and found by int64
codes of exponent vectors), minimality, and cokernel equal to the
ideal.  The resolution can also be read off a synor complex the caller
already holds (resolution_from_complex), so a verifier builds the
complex once.

The lattice gives Betti numbers directly too: beta_{i,m} is the rank of
reduced homology in degree i - 2 of the open interval between the bottom
and m, with beta_{0,1} = 1 by convention.  Two smaller complexes have
that homology, and interval_ranks ranks them with chains.facet_ranks,
one memo per lattice: on an lcm lattice the upper Koszul complex K^m of
the ideal (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm
1.34), read off exponent vectors alone; on any other lattice the atom
crosscut complex of [0, m] (Rota 1964).  `resolve` checks the synor
resolution's table against the Koszul table, and witness checks read
the same memo.  betti_from_intervals reads the open intervals' order
complexes, with no memo: the oracle the tests check both against.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .algebra import DomainError, Monomial, ValidationError
from .chains import all_homology_ranks, facet_ranks
from .linalg import cleared_spans, rank_of
from .poset import (Lattice, LcmLattice, _lex_keys, open_interval,
                    without_bottom)
from .synor import EMPTY_GENERATOR, SynorComplex, build_synor_complex

# BettiTable.text draws every row j - i up to the largest: no more than this
BETTI_TEXT_ROW_CAP = 10_000


class BettiTable:
    """Multigraded Betti numbers of a monomial ideal's quotient ring."""

    def __init__(self, variables, entries: dict):
        self.variables = tuple(variables)
        self.entries = {
            (int(i), m): int(v) for (i, m), v in entries.items() if v
        }

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
        """Macaulay-style grid: columns i, rows j - i, dots for zeros.
        Raises DomainError beyond BETTI_TEXT_ROW_CAP rows."""
        cols = range(self.projective_dimension() + 1)
        grid: Counter = Counter()  # (row j - i, column i) -> sum
        for (i, m), v in self.entries.items():
            grid[(m.degree() - i, i)] += v
        rows = max([0, *(d for d, _i in grid)]) + 1
        if rows > BETTI_TEXT_ROW_CAP:
            raise DomainError(
                f"refusing to draw a Betti table of {rows} rows, more than "
                f"{BETTI_TEXT_ROW_CAP}; --format json lists its entries")
        table = [["", *map(str, cols)],
                 ["total:", *(str(self.total(i)) for i in cols)]]
        table.extend([f"{d}:", *(str(grid[(d, i)] or ".") for i in cols)]
                     for d in range(rows))
        widths = [max(len(line[1 + i]) for line in table) for i in cols]
        return "\n".join(line[0].rjust(6) + "".join(
            " " + cell.rjust(w) for cell, w in zip(line[1:], widths))
            for line in table)

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

    They are read off a simplicial complex with the same homology, given
    by its facets: the upper Koszul complex at x on an LcmLattice, the
    atom crosscut complex of [0, x] on any other lattice.  Memoized in
    L's cache under ("interval_ranks", field, x), which only this
    function writes.  Raises IndexError for an id out of range and
    DomainError for the bottom, whose open interval is undefined, or for
    a complex above chains.FACE_CAP."""
    key = ("interval_ranks", field, x)
    if key not in L._cache:
        if not 0 <= x < L.n:
            raise IndexError("interval endpoints out of range")
        if x == L.bottom:
            raise DomainError("open interval requires a < b")
        if isinstance(L, LcmLattice):
            facets = _koszul_facets(L, x)
            where = f"upper Koszul complex at {L.format_label(x)}"
        else:
            facets = _crosscut_facets(L, x)
            where = f"crosscut complex of (0, {x})"
        L._cache[key] = facet_ranks(facets, field, where)
    return L._cache[key]


def _koszul_facets(L: LcmLattice, x: int) -> list[int]:
    """Facets of the upper Koszul complex K^b, b = L.exps[x], over the
    variables as bits: the squarefree F with x^(b - F) in the ideal.
    Each generator g dividing b gives the facet {v : b_v > g_v}."""
    b = L.exps[x]
    gens = L.exps[list(L.atoms)]
    rows = np.packbits(gens[(gens <= b).all(axis=1)] < b, axis=1,
                       bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


def _crosscut_facets(L: Lattice, x: int) -> list[int]:
    """Facets of the atom crosscut complex of [0, x], the atom sets below
    x whose join is below x, over L's atoms as bits: the atoms below each
    lower cover of x.  An atom x gives the facet 0 alone."""
    covers = L.covers()
    atoms = [j for i, j in covers if i == L.bottom]
    return [sum(1 << k for k, a in enumerate(atoms) if L.leq[a, c])
            for c, y in covers if y == x]


def _betti_from_ranks(L: LcmLattice, ranks_of) -> BettiTable:
    """The Betti table whose entries at each m above the bottom are the
    nonzero ranks_of(m), shifted by 2; beta_{0,1} = 1 by convention."""
    entries: dict = {(0, Monomial.one(len(L.variables))): 1}
    for m_id in range(L.n):
        if m_id == L.bottom:
            continue
        mono = L.monomials[m_id]
        entries.update({(d + 2, mono): r
                        for d, r in ranks_of(m_id).items() if r})
    return BettiTable(L.variables, entries)


def betti_from_intervals(L: LcmLattice, field) -> BettiTable:
    """Betti table from the order complexes of the open intervals (0, m).

    The oracle that the synor and Koszul tables are checked against.
    The intervals are ranked from the top down, so the top's, which
    holds every other, is refused (chains.CHAIN_CAP) before any is
    ranked."""
    ranks = {m: all_homology_ranks(open_interval(L, L.bottom, m), field)
             for m in reversed(range(L.n)) if m != L.bottom}
    return _betti_from_ranks(L, ranks.__getitem__)


class FreeResolution:
    """A complex of labeled free modules with scalar matrices.

    differentials[k] maps module k+1 to module k; an entry keyed (row, col)
    holds a scalar, and its monomial weight is label(col)/label(row), so
    the labels are the resolution's only grading.  Raises ValidationError
    for a label over the wrong number of variables or an entry outside
    its matrix.
    """

    def __init__(self, variables, labels, differentials):
        self.variables = tuple(variables)
        self.labels = [list(lab) for lab in labels]
        self.differentials = [dict(d) for d in differentials]
        if len(self.differentials) != max(0, len(self.labels) - 1):
            raise ValidationError("differential count does not match modules")
        nvars = len(self.variables)
        for k, labs in enumerate(self.labels):
            for lab in labs:
                if lab.nvars != nvars:
                    raise ValidationError(
                        f"label {lab!r} of module {k} has {lab.nvars} "
                        f"variables, not {nvars}")
        for k, mat in enumerate(self.differentials):
            rows, cols = len(self.labels[k]), len(self.labels[k + 1])
            for r, c in mat:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValidationError(
                        f"entry ({r},{c}) of differential {k + 1} is outside "
                        f"its {rows} x {cols} matrix")

    @property
    def ranks(self) -> tuple:
        return tuple(len(lab) for lab in self.labels)

    def __repr__(self):
        return f"FreeResolution(ranks={self.ranks})"


def synor_resolution(L: LcmLattice, field) -> FreeResolution:
    """The minimal resolution carried by the synor complex of L minus 0."""
    return resolution_from_complex(
        L, build_synor_complex(without_bottom(L), field))


def resolution_from_complex(L: LcmLattice, S: SynorComplex) -> FreeResolution:
    """The resolution read off S, a synor complex of without_bottom(L).

    Module i has one generator per dimension-(i-1) synor generator, labeled
    by its lattice monomial (the empty generator is labeled 1); the scalar
    matrix of the synor differential is the resolution differential, each
    entry weighted by the quotient of its column and row labels.
    """
    def label_of(g):
        if g == EMPTY_GENERATOR:
            return Monomial.one(len(L.variables))
        return L.monomials[S.poset.origin[g.element]]

    top_dim = max(S.dims(), default=-1)
    bases = [S.generators(d) for d in range(-1, top_dim + 1)]
    labels = [[label_of(g) for g in basis] for basis in bases]
    differentials = []
    for k in range(len(bases) - 1):
        rows = {g: r for r, g in enumerate(bases[k])}
        differentials.append({
            (rows[h], c): v for c, g in enumerate(bases[k + 1])
            for h, v in S.delta[g].terms.items()})
    return FreeResolution(L.variables, labels, differentials)


def betti_from_resolution(R: FreeResolution) -> BettiTable:
    """Betti numbers as generator counts of a (certified-minimal) resolution."""
    return BettiTable(R.variables, Counter(
        (i, m) for i, labs in enumerate(R.labels) for m in labs))


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

    Checks, each from first principles on the matrices and labels alone:
    every row label divides its column label and no scalar is zero; the
    differential squares to zero; every label is a monomial of L, and
    every multidegree strand is exact with a single generator at the
    bottom (a strand at a monomial outside the lattice coincides with the
    strand at its largest lattice divisor once every label is a lattice
    monomial, so lattice monomials suffice); no entry is a unit, that is,
    no nonzero entry has equal row and column labels; the first
    differential presents exactly the ideal's minimal generators.

    Once the grading, d . d = 0, the labels and the presentation are
    proven, the strands are checked through quotients.  Module 0 is then
    one generator labeled 1, so a strand is exact as required iff it is
    acyclic.  For m above the bottom let a(m) be the first atom of
    L.atoms below m; the quotient strand at m holds the generators whose
    label l has lcm(l, a(m)) = m, with the differential projected onto
    them.  Every c with a | c | m and c != m, for a = a(m), has a(c) = a
    and comes before m along L's linear extension; the generators of m's
    strand with lcm(l, a) != m form a subcomplex, filtered by lcm(l, a)
    along the extension, whose subquotients are the quotient strands at
    those c.  So if the quotient strands before m are acyclic, the strand
    at m is acyclic iff its quotient strand is.  The quotient strands are
    checked along the extension until one is not acyclic, and every
    strand not proven exact that way is checked whole, so a failing
    report names the strands it always named.  The atom complements come
    from exponent vectors here, not from the synor build's joins: each
    lcm(l, a) is looked up among L.exps by its int64 lexicographic code
    (poset._lex_keys), one search per atom.

    Each strand is a complex over the modules from its first nonempty
    one to its last (the others are empty, so exactness holds there),
    and its ranks come from linalg.cleared_spans from the top module
    down: a strand column whose index is a pivot of the span one module
    up is never built.  Without d . d = 0 clearing would not be exact,
    and every strand matrix is spanned in full.  R and L must share
    their variable list.
    """
    if R.variables != L.variables:
        raise ValidationError(f"resolution variables {list(R.variables)} "
                              f"differ from lattice's {list(L.variables)}")
    problems: list[str] = []
    checks: list[tuple[str, bool]] = []

    # exps[k]: module k's label exponents, one row a label
    exps = [np.array([lab.exps for lab in labs], dtype=np.int64).reshape(
        -1, len(L.variables)) for labs in R.labels]

    # every row label must divide its column label; the same pass builds
    # each differential's column view (column -> [(row, scalar)]) and
    # finds the unit entries, reported after d . d = 0
    consistent = True
    by_col: list[dict[int, list]] = []
    units: list[str] = []
    for k, mat in enumerate(R.differentials):
        view: dict[int, list] = {}
        by_col.append(view)
        at = np.array(list(mat), dtype=int).reshape(len(mat), 2)
        row_exps, col_exps = exps[k][at[:, 0]], exps[k + 1][at[:, 1]]
        breaks = (row_exps > col_exps).any(axis=1).tolist()
        equal = (row_exps == col_exps).all(axis=1).tolist()
        for ((r, c), v), broken, unit in zip(mat.items(), breaks, equal):
            view.setdefault(c, []).append((r, v))
            if not v:
                consistent = False
                problems.append(f"zero scalar stored in differential {k + 1}")
            if broken:
                consistent = False
                problems.append(
                    f"entry ({r},{c}) of differential {k + 1} breaks grading")
            if unit and v:
                units.append(
                    f"unit entry at ({r},{c}) in differential {k + 1}")
    checks.append(("grading consistent", consistent))

    # d . d = 0; all monomial weights along a path agree, so scalar sums
    # decide: plain sums, zero mod p over GF(p), zero as numbers over QQ
    square_zero = True
    p = field.modulus
    for k in range(len(R.differentials) - 1):
        for c, col in by_col[k + 1].items():
            acc: dict[int, object] = {}
            for mid, v in col:
                for r2, w in by_col[k].get(mid, ()):
                    acc[r2] = acc.get(r2, 0) + w * v
            if any((x % p for x in acc.values()) if p else acc.values()):
                square_zero = False
                problems.append(
                    f"composite of differentials {k + 2} and {k + 1} "
                    f"nonzero on generator {c}")
    checks.append(("differential squares to zero", square_zero))

    # minimality: a unit entry would cancel a generator
    problems.extend(units)
    checks.append(("no unit entries", not units))

    # the presentation matrix exhibits the ideal's minimal generators
    atoms = sorted(L.monomials[a] for a in L.atoms)
    first = sorted(R.labels[1]) if len(R.labels) > 1 else []
    presents = first == atoms and len(R.labels[0]) == 1 and \
        R.labels[0][0].is_one()
    if not presents:
        problems.append("first module does not present the ideal's generators")
    checks.append(("cokernel is the ideal", presents))

    # every label must be a lattice monomial; a strand at a multidegree
    # outside the lattice is then the strand at its largest lattice divisor
    outside = list(dict.fromkeys(
        (k, lab) for k, labs in enumerate(R.labels) for lab in labs
        if lab not in L.index))
    problems.extend(f"label {lab.format(L.variables)} of module {k} is not "
                    f"in the lcm lattice" for k, lab in outside)

    def ranks_of(keep, lo):
        """Ranks of the strand's differentials between its modules lo ..
        lo + len(keep) - 1, keep[j] the positions kept in module lo + j:
        with clearing once d . d = 0 is proven, each matrix in full
        before."""
        rows = [set(sel) for sel in keep]

        def columns_of(j, cleared):
            return [{r: v for r, v in by_col[lo + j].get(c, ())
                     if r in rows[j]}
                    for c in keep[j + 1] if c not in cleared]
        if consistent and square_zero:
            return [red.rank for red in
                    cleared_spans(columns_of, len(keep) - 1, field)]
        return [rank_of(columns_of(j, ()), field)
                for j in range(len(keep) - 1)]

    # quotient strands along the linear extension, while they are exact;
    # each one proves its multidegree's whole strand exact (see docstring)
    proven = set()
    if consistent and square_zero and presents and not outside:
        for m_id, lo, keep in _atom_quotients(exps, L):
            if keep:
                ranks = [0, *ranks_of(keep, lo), 0]
                if any(len(sel) != ranks[j] + ranks[j + 1]
                       for j, sel in enumerate(keep)):
                    break
            proven.add(m_id)

    # the other strands whole, at the lattice multidegrees above the
    # bottom: at m, the labels of each module that divide m
    exact = not outside
    for m_id in sorted(set(range(L.n)) - proven - {L.bottom}):
        keep = [np.flatnonzero((rows <= L.exps[m_id]).all(axis=1)).tolist()
                for rows in exps]
        while keep and not keep[-1]:
            keep.pop()
        dims = [len(sel) for sel in keep]
        ranks = ranks_of(keep, 0) + [0]
        # m lies in the ideal, so the strand must be exact everywhere:
        # one generator at the bottom, killed by rank-1 d_1, and
        # dim F_k = rank d_k + rank d_{k+1} above.
        good = len(dims) >= 2 and dims[0] == 1 and ranks[0] == 1 and all(
            dims[k] == ranks[k - 1] + ranks[k] for k in range(1, len(dims)))
        if not good:
            exact = False
            problems.append(
                f"strand at {L.format_label(m_id)} not exact "
                f"(dims {dims}, ranks {ranks[:-1]})")
    checks.append(("all multidegree strands exact", exact))

    ok = all(good for _n, good in checks)
    return CertificationReport(ok, checks, problems)


def _atom_quotients(exps: list, L: LcmLattice):
    """Yield (m, lo, keep) for each lattice element m above the bottom,
    along L's linear extension: m's quotient strand, the labels l with
    lcm(l, a) = m for a the first of L.atoms below m, as ascending
    positions per module, keep[j] those of module lo + j.  keep runs
    from the strand's first nonempty module to its last, and is empty
    when the strand is.  exps[k] holds module k's label rows; every
    label is in L, so each lcm(l, a) is found among L.exps by its
    _lex_keys key, one search per atom, and the labels are grouped by
    lcm id once."""
    atoms = list(L.atoms)
    first = np.argmax(L.leq[atoms], axis=0)  # position in atoms of a(m)
    labels = np.concatenate(exps)  # module by module
    sizes = [len(rows) for rows in exps]
    module = np.repeat(np.arange(len(exps)), sizes)
    offset = np.cumsum([0, *sizes])  # index of each module's first label
    top = L.exps[L.top]
    ids = _lex_keys(L.exps, top)
    # (lcm id, label index) for each atom a and each label l whose
    # lcm(l, a) has a as its first atom, label indices ascending per id
    lcm, index = [], []
    for i, a in enumerate(atoms):
        lcm_a = np.searchsorted(ids, _lex_keys(np.maximum(labels, L.exps[a]),
                                               top))
        mine = np.flatnonzero(first[lcm_a] == i)
        lcm.append(lcm_a[mine])
        index.append(mine)
    lcm, index = np.concatenate(lcm), np.concatenate(index)
    order = np.argsort(lcm, kind="stable")
    bounds = np.searchsorted(lcm[order], np.arange(L.n + 1)).tolist()
    index = index[order]
    mods = module[index].tolist()
    pos = (index - offset[module[index]]).tolist()
    for m_id in L.linear_extension():
        if m_id == L.bottom:
            continue
        start, stop = bounds[m_id], bounds[m_id + 1]
        if start == stop:
            yield m_id, 0, []
            continue
        lo = mods[start]
        keep = [[] for _ in range(mods[stop - 1] - lo + 1)]
        for j in range(start, stop):
            keep[mods[j] - lo].append(pos[j])
        yield m_id, lo, keep


def resolution_to_json(R: FreeResolution) -> dict:
    """JSON-ready dump; an entry is [row, col, its label quotient, scalar]."""
    diffs = []
    for k, mat in enumerate(R.differentials):
        rows, cols = R.labels[k], R.labels[k + 1]
        entries = [
            [r, c, cols[c].quotient(rows[r]).format(R.variables), str(v)]
            for (r, c), v in sorted(mat.items(), key=lambda kv: (kv[0][1], kv[0][0]))
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
