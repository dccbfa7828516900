"""Mechanical verification of the decomposition and subadditivity results.

The top-decomposition statement: if the top of a lattice L is an
(i1+i2-k-1)-synor of L minus its bottom, then some (i1-1)-synor x and
(i2-1)-synor y satisfy x v y = top.  Two independent routes are
implemented.  The brute-force oracle searches all synor pairs using
simplicial homology only.  The constructive route follows the existence
proof step by step: pick a principal synor chain at the top, take its
(i1-1)-st prefix representation, push each prefix through the retraction
rho, shuffle against the corresponding suffix, and read the witness off
a term whose chains reach the top; for k >= 1 the second witness is
lifted to the prefix element whose position makes it an (i2-1)-synor.
Only the witness depends on more of the triple than (i1, i1+i2-k-1), so
the proof runs once per such pair.  Every intermediate homological claim
of the proof is asserted as it is used, and a failure raises
TheoremContradiction with a JSON-ready reproducer payload.

On lcm lattices the Betti table of the synor resolution yields the
Betti-level consequences: subadditivity of maximal shifts with witness
pairs n1, n2 whose lcm realizes the extremal multidegree, and the
product bound on the number of shifts.  Interval witnesses are searched
in the table by _interval_witness, which verify_intervals runs at every
multidegree and split of the table, and check_subadditivity at each
multidegree of extremal degree.

Each route has its own source of candidates (order-complex interval
ranks, the supports of the shuffle terms, the Betti table), and every
route searches them with the one pair search _first_pair.
DecompositionWitness.verify is the one witness check: it re-reads both
witnesses' ranks from the lattice's interval memo
(resolution.interval_ranks) and the join from the lattice.  No caller
re-checks a witness that a route has returned.

Reports are plain objects with stable line formats so sweep output is
diffable.
"""

from __future__ import annotations

from .algebra import DomainError, ValidationError
from .chains import FormalChain, boundary, bounds, graded_component
from .linalg import kernel_basis
from .poset import (LATTICE_ENUMERATION_CAP, Lattice, LcmLattice, Poset,
                    enumerate_lattices, lattice_hash, poset_to_json,
                    without_bottom)
from .resolution import (BettiTable, betti_from_resolution, interval_ranks,
                         resolution_from_complex)
from .shuffle import shuffle_product
from .synor import (Generator, SynorComplex, bracket, build_synor_complex,
                    ell_representation, homologous_in_pair, rho)


class TheoremContradiction(Exception):
    """A proved statement failed mechanically; carries a reproducer."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


class DecompositionWitness:
    """A synor pair decomposing a target join.

    n1 and n2 are lattice ids; target is the element their join must
    dominate (the top for the lattice statement, the interval top for
    the Betti statement).  verify() is the only witness check: it
    recomputes every claimed fact from the lattice alone, and every
    route calls it before it returns a witness.
    """

    def __init__(self, lattice: Lattice, i1: int, i2: int, k: int,
                 n1: int, n2: int, target: int):
        self.lattice = lattice
        self.i1 = i1
        self.i2 = i2
        self.k = k
        self.n1 = n1
        self.n2 = n2
        self.target = target

    def verify(self, field) -> bool:
        L = self.lattice
        try:
            r1 = interval_ranks(L, self.n1, field).get(self.i1 - 2, 0)
            r2 = interval_ranks(L, self.n2, field).get(self.i2 - 2, 0)
            join = L.join_of(self.n1, self.n2)
        except (DomainError, IndexError):
            # structurally invalid data fails verification, never crashes it
            return False
        return r1 > 0 and r2 > 0 and L.le(self.target, join)

    def describe(self) -> str:
        L = self.lattice
        if isinstance(L, LcmLattice):
            n1, n2 = L.format_label(self.n1), L.format_label(self.n2)
        else:
            n1, n2 = str(self.n1), str(self.n2)
        return (f"i1={self.i1} i2={self.i2} k={self.k} "
                f"witness=({n1}, {n2})")

    def __repr__(self):
        return f"DecompositionWitness({self.describe()})"


class VerifyReport:
    """Outcome of one verification run: a flag plus stable text lines."""

    def __init__(self, name: str, ok: bool, lines: list[str], data: dict):
        self.name = name
        self.ok = ok
        self._lines = lines
        self.data = data

    def lines(self) -> list[str]:
        return list(self._lines)

    def __repr__(self):
        return f"VerifyReport({self.name}, ok={self.ok})"


def _first_pair(P: Poset, xs, ys, target: int) -> tuple[int, int] | None:
    """The first (x, y) in xs x ys, x outermost, with x v y = target."""
    return next(((x, y) for x in xs for y in ys
                 if P.join_of(x, y) == target), None)


class TopAnalysis:
    """Per-lattice workspace for decomposition checks.

    Holds the lattice, the poset P = L minus bottom (the synor complex
    lives there) and the middle part (P minus top) as a P-id set.  P
    keeps L's ids in ascending order and has L's joins, so the
    constructive route runs in P-ids, and to_L maps its witnesses to
    lattice ids.  The brute-force search and every witness use lattice
    ids; below a lattice id x lies the open interval (0, x), whose ranks
    the lattice's memo holds.  Whether a chain bounds in the middle part
    is read from chains.bounds, whose span per degree P's cache holds, so
    the nontriviality, relative-homology and step-lemma checks share it.
    """

    def __init__(self, L: Lattice, field):
        if L.n < 2:
            raise DomainError("need a lattice with distinct bottom and top")
        self.L = L
        self.field = field
        self.P = without_bottom(L)
        self.to_L = self.P.origin
        self.top = self.to_L.index(L.top)
        self.middle = frozenset(i for i in range(self.P.n) if i != self.top)
        self._S: SynorComplex | None = None
        self._proofs: dict = {}  # (i1, m) -> what _proof found

    @property
    def S(self) -> SynorComplex:
        if self._S is None:
            self._S = build_synor_complex(self.P, self.field)
        return self._S

    def synor_elements(self, i: int) -> list[int]:
        """Lattice ids above the bottom carrying nonzero H_{i-1} below, in
        ascending order; the ranks are computed simplicially."""
        return [x for x in self.to_L
                if interval_ranks(self.L, x, self.field).get(i - 1, 0)]

    def middle_ranks(self) -> dict:
        return interval_ranks(self.L, self.L.top, self.field)

    def valid_triples(self) -> list[tuple[int, int, int]]:
        """All (i1, i2, k) whose hypothesis holds for this lattice."""
        out = []
        for m_minus_1, rank in sorted(self.middle_ranks().items()):
            if not rank:
                continue
            m = m_minus_1 + 1
            for k in range(0, m + 2):
                total = m + 1 + k
                for i1 in range(max(1, k), total + 1):
                    i2 = total - i1
                    if i2 < max(1, k):
                        continue
                    out.append((i1, i2, k))
        return sorted(set(out))

    def _check_params(self, i1: int, i2: int, k: int):
        if i1 < 1 or i2 < 1:
            raise DomainError("need i1 >= 1 and i2 >= 1")
        if not 0 <= k <= min(i1, i2):
            raise DomainError("need 0 <= k <= min(i1, i2)")

    def bruteforce(self, i1: int, i2: int, k: int) -> DecompositionWitness | None:
        """Exhaustive synor-pair search; the oracle side of the theorem."""
        self._check_params(i1, i2, k)
        m = i1 + i2 - k - 1
        if not self.middle_ranks().get(m - 1, 0):
            return None
        pair = _first_pair(self.L, self.synor_elements(i1 - 1),
                           self.synor_elements(i2 - 1), self.L.top)
        if pair is None:
            return None
        return self._witness(i1, i2, k, *pair, stage="bruteforce")

    def _witness(self, i1, i2, k, n1, n2, stage: str) -> DecompositionWitness:
        """The witness at lattice ids n1, n2, checked by its verify()."""
        w = DecompositionWitness(self.L, i1, i2, k, n1, n2, self.L.top)
        if not w.verify(self.field):
            raise TheoremContradiction(
                "witness certification failed",
                self._payload(i1, i2, k, stage, witness=(n1, n2)))
        return w

    def _payload(self, i1, i2, k, stage, **extra) -> dict:
        data = {
            "lattice": poset_to_json(self.L),
            "lattice_hash": lattice_hash(self.L),
            "i1": i1, "i2": i2, "k": k,
            "stage": stage,
        }
        data.update(extra)
        return data

    # --- constructive route ---

    def constructive(self, i1: int, i2: int, k: int) -> DecompositionWitness | None:
        """Witness extraction along the existence proof, asserting each
        step; the proof runs once per (i1, m) (_proof), and for k >= 1 the
        second witness is the prefix element chi[i1 - k], whose position
        from the top makes it an (i2-1)-synor."""
        self._check_params(i1, i2, k)
        m = i1 + i2 - k - 1
        if (i1, m) not in self._proofs:
            self._proofs[i1, m] = self._proof(i1, i2, k)
        if self._proofs[i1, m] is None:
            return None
        chi, n1, n2 = self._proofs[i1, m]
        stage = "constructive"
        if k >= 1:
            n2, stage = chi[i1 - k], "constructive-lifted"
        return self._witness(i1, i2, k, self.to_L[n1], self.to_L[n2], stage)

    def _proof(self, i1: int, i2: int, k: int) -> tuple | None:
        """The proof up to the witness, fixed by (i1, m): None if the top
        has no m-generator, else (chi, n1, n2) in P-ids, the first prefix
        whose rho holds an n1 joining to the top with an n2 of its suffix
        (n2 None for an empty suffix); payloads name the asking triple."""
        m = i1 + i2 - k - 1
        gens = [g for g in self.S.generators(m) if g.element == self.top]
        if not gens:
            return None
        g = gens[0]

        # the boundary of the principal chain represents a nonzero class
        # of the middle part, which is what makes the relative class of
        # the chain itself nonzero
        zeta_phi = self.S.phi_chain(self.S.delta[g])
        if bounds(self.P, self.middle, zeta_phi):
            raise TheoremContradiction(
                "principal chain has trivial relative class",
                self._payload(i1, i2, k, "nontriviality"))

        reps = ell_representation(self.S, g, i1 - 1)
        total = self._shuffle_sum(reps, m, skip=0)

        try:
            same_class = homologous_in_pair(self.S.phi(g), total, self.P,
                                            self.middle)
        except ValidationError:
            raise TheoremContradiction(
                "shuffle sum is not a relative cycle",
                self._payload(i1, i2, k, "relative-cycle-support"))
        if not same_class:
            raise TheoremContradiction(
                "shuffle sum is not homologous to the principal chain",
                self._payload(i1, i2, k, "relative-homology"))

        if graded_component(total, self.top).is_zero():
            raise TheoremContradiction(
                "shuffle sum never reaches the top",
                self._payload(i1, i2, k, "top-component"))

        for chi, zeta in sorted(reps.items()):
            xs = sorted({h.element for h in rho(self.S, chi).terms})
            if zeta.dim == -1:
                if self.top in xs:
                    return chi, self.top, None
                continue
            ys = sorted({h.element for h in zeta.terms})
            pair = _first_pair(self.P, xs, ys, self.top)
            if pair is not None:
                return (chi, *pair)
        raise TheoremContradiction(
            "no join-reaching pair in any shuffle term",
            self._payload(i1, i2, k, "witness-scan"))

    # --- the step lemma ---

    def step_lemma_sum(self, g: Generator, ell: int) -> FormalChain:
        """Sum over the ell-representation of rho of the chain minus its
        top, shuffled with the suffix; a cycle supported in the middle."""
        return self._shuffle_sum(ell_representation(self.S, g, ell),
                                 g.dim - 1, skip=1)

    def _shuffle_sum(self, reps, dim: int, skip: int) -> FormalChain:
        """sum over chi of phi(rho(chi[skip:])) shuffled with phi(reps[chi]),
        taken in P, whose joins are L's; a chain of dimension dim."""
        def product(chi):
            left = self.S.phi_chain(rho(self.S, chi[skip:]))
            right = self.S.phi_chain(reps[chi])
            return shuffle_product(left, right, self.P)

        return FormalChain.combination(
            dim, self.field,
            ((self.field.one, product(chi)) for chi in sorted(reps)))

    def verify_step_lemma(self, g: Generator, ell: int) -> bool:
        """Consecutive step sums are cycles in the middle part and
        homologous there; decided by a boundary-membership rank check."""
        if not 1 <= ell <= g.dim:
            raise DomainError("need 1 <= ell <= dim of the principal chain")
        a = self.step_lemma_sum(g, ell)
        b = self.step_lemma_sum(g, ell - 1)
        for c in (a, b):
            if not all(set(key) <= self.middle for key in c.terms):
                return False
            if not boundary(c).is_zero():
                return False
        return bounds(self.P, self.middle, a - b)


def _interval_witness(L: LcmLattice, m: int, i1: int, i2: int, k: int,
                      field, table: BettiTable) -> DecompositionWitness:
    """Decompose the element m inside its closed interval [0, m].

    The (i-1)-synors of that interval are the x <= m with beta_{i,x} > 0,
    so the candidates come from the Betti table: _first_pair searches
    the synors below m in ascending ids, x outermost, for x v y = m.
    The pair is then re-verified by order-complex homology.  Raises
    TheoremContradiction if beta_{i1+i2-k,m} = 0, if no pair exists, or
    if the re-verification fails.
    """
    def payload(stage):
        return {"lattice": poset_to_json(L), "m": m,
                "i1": i1, "i2": i2, "k": k, "stage": stage}

    pair = None
    if table.beta(i1 + i2 - k, L.monomials[m]):
        below = L.below_or_equal(m)
        xs, ys = ([x for x in below if table.beta(i, L.monomials[x])]
                  for i in (i1, i2))
        pair = _first_pair(L, xs, ys, m)
    if pair is None:
        raise TheoremContradiction("no synor pair joins to the interval top",
                                   payload("interval-search"))
    out = DecompositionWitness(L, i1, i2, k, *pair, m)
    if not out.verify(field):
        raise TheoremContradiction("interval witness failed re-verification",
                                   payload("interval-reverify"))
    return out


def check_subadditivity(L: LcmLattice, i1: int, i2: int, k: int,
                        field, table: BettiTable) -> VerifyReport:
    """Maximal-shift inequality with witness pairs at the extremal degree.

    Asserts t_{i1+i2-k} <= t_{i1} + t_{i2}.  When it holds, the left
    side is positive and i1, i2 >= 1, _interval_witness decomposes each
    multidegree m realizing it into a certified pair n1, n2 with
    lcm(n1, n2) = m and nonzero Betti numbers in columns i1 and i2, so
    each witness degree is at most its column's t and the report fails
    only when the inequality does.  table is L's Betti table over field.
    """
    if k < 0 or k > min(i1, i2):
        raise DomainError("need 0 <= k <= min(i1, i2)")
    s = i1 + i2 - k
    ts, t1, t2 = table.t(s), table.t(i1), table.t(i2)
    lines = [f"t_{s}={ts} <= t_{i1}+t_{i2}={t1}+{t2}"]
    ok = ts <= t1 + t2
    witnesses = []
    if ok and ts > 0 and i1 >= 1 and i2 >= 1:
        for (j, mono), _v in sorted(table.entries.items()):
            if j != s or mono.degree() != ts:
                continue
            w = _interval_witness(L, L.index[mono], i1, i2, k, field, table)
            witnesses.append(w)
            n1, n2 = L.monomials[w.n1], L.monomials[w.n2]
            lines.append(
                f"m={mono.format(L.variables)} -> "
                f"n1={n1.format(L.variables)} (deg {n1.degree()}), "
                f"n2={n2.format(L.variables)} (deg {n2.degree()})")
    if not ok:
        lines.append("inequality violated")
    return VerifyReport("subadditivity", ok, lines,
                        {"t": (ts, t1, t2), "witnesses": witnesses})


def check_shift_count_bound(table: BettiTable, i1: int,
                            i2: int) -> VerifyReport:
    """Product bound on the number of distinct shifts per column."""
    if i1 < 0 or i2 < 0:
        raise DomainError("need i1, i2 >= 0")
    lhs = table.a(i1 + i2)
    rhs = table.a(i1) * table.a(i2)
    ok = lhs <= rhs
    return VerifyReport(
        "shift-count", ok,
        [f"a_{i1 + i2}={lhs} <= a_{i1}*a_{i2}={rhs}"],
        {"a": (lhs, rhs)})


# --- bracket lemmas ---


def check_bracket_vanishing(S: SynorComplex, field) -> VerifyReport:
    """Coefficient sums of embedded synor cycles vanish in every slot.

    Checked on a kernel basis of each differential (linearity covers the
    rest), against every comparison chain obtainable by replacing one
    entry of a support chain.
    """
    P = S.poset
    failures = []
    checked = 0
    top_dim = max(S.dims(), default=-1)
    for d in range(0, top_dim + 1):
        for vec in kernel_basis({g: S.delta[g].terms
                                 for g in S.generators(d)}, field):
            t = S.phi_chain(FormalChain(d, field, vec, "synor"))
            seen = set()
            for key in sorted(t.terms):
                for j in range(d + 1):
                    for v in range(P.n):
                        c = key[:j] + (v,) + key[j + 1:]
                        ok_chain = all(
                            P.lt(c[p + 1], c[p]) for p in range(len(c) - 1))
                        if not ok_chain or (c, j) in seen:
                            continue
                        seen.add((c, j))
                        checked += 1
                        if bracket(t, c, j) != field.zero:
                            failures.append((d, c, j))
    ok = not failures
    lines = [f"bracket sums checked: {checked}, failures: {len(failures)}"]
    lines.extend(f"dim {d} chain {c} slot {j}" for d, c, j in failures[:5])
    return VerifyReport("bracket-vanishing", ok, lines,
                        {"checked": checked, "failures": failures})


def check_class_sums(S: SynorComplex, g: Generator, ell: int,
                     field) -> VerifyReport:
    """Class sums of an ell-representation vanish for slots 1..ell.

    Slot 0 is the documented non-example: classes there are singletons
    (every prefix starts at the generator's element), so their sums are
    the nonzero suffix chains themselves; the report records whether a
    nonzero slot-0 sum was seen, as the negative control.
    """
    reps = ell_representation(S, g, ell)
    ok = True
    j0_nonzero = False
    lines = []
    for j in range(0, ell + 1):
        classes: dict[tuple, list] = {}
        for chi, zeta in reps.items():
            classes.setdefault(chi[:j] + chi[j + 1:], []).append(
                (field.one, zeta))
        nonzero = [mask for mask, zetas in classes.items()
                   if not FormalChain.combination(
                       g.dim - ell - 1, field, zetas, "synor").is_zero()]
        if j == 0:
            j0_nonzero = bool(nonzero)
        elif nonzero:
            ok = False
            lines.append(f"slot {j}: {len(nonzero)} nonvanishing class sums")
    lines.insert(0, f"slots 1..{ell} vanish: {ok}; "
                    f"slot 0 nonzero (expected): {j0_nonzero}")
    return VerifyReport("class-sums", ok, lines,
                        {"j0_nonzero": j0_nonzero, "ell": ell})


# --- sweeps ---


def verify_intervals(L: LcmLattice, field,
                     S: SynorComplex | None = None) -> tuple[bool, list[str]]:
    """Betti-level decomposition at every multidegree: for each m and
    each split i1 + i2 of a column with nonzero entry at m, a certified
    pair with lcm dominating m.  One line per instance.  The Betti table
    is read off S, the synor complex of L minus its bottom, built here
    when not given."""
    if S is None:
        S = build_synor_complex(without_bottom(L), field)
    table = betti_from_resolution(resolution_from_complex(L, S))
    ok = True
    lines = []
    for (i, mono), _v in sorted(table.entries.items()):
        if i < 2:
            continue
        m_id = L.index[mono]
        for i1 in range(1, i):
            i2 = i - i1
            try:
                w = _interval_witness(L, m_id, i1, i2, 0, field, table)
                good = True
                wtxt = f"{L.format_label(w.n1)},{L.format_label(w.n2)}"
            except TheoremContradiction as e:
                good, wtxt = False, f"none stage={e.payload['stage']}"
            ok = ok and good
            lines.append(
                f"INTERVAL {mono.format(L.variables)} i1={i1} i2={i2} "
                f"RESULT={'pass' if good else 'fail'} witness={wtxt}")
    return ok, lines


def verify_lattice_instances(L: Lattice, field,
                             analysis: TopAnalysis | None = None
                             ) -> tuple[bool, list[str]]:
    """All valid (i1, i2, k) for one lattice, both routes, one line each;
    analysis, L's TopAnalysis over field, is made here when not given."""
    if analysis is None:
        analysis = TopAnalysis(L, field)
    h = lattice_hash(L)
    ok = True
    lines = []
    for i1, i2, k in analysis.valid_triples():
        try:
            brute = analysis.bruteforce(i1, i2, k)
            constructive = analysis.constructive(i1, i2, k)
            # both routes certify their witness in TopAnalysis._witness
            good = brute is not None and constructive is not None
            witness = brute if brute is not None else constructive
            stage = ""
        except TheoremContradiction as e:
            good, witness = False, None
            stage = f" stage={e.payload['stage']}"
        ok = ok and good
        wtxt = f"{witness.n1},{witness.n2}" if witness else "none"
        lines.append(
            f"LATTICE {h} i1={i1} i2={i2} k={k} "
            f"RESULT={'pass' if good else 'fail'} witness={wtxt}{stage}")
    return ok, lines


def sweep_lattices(max_n: int, field,
                   counts: dict) -> tuple[bool, list[str]]:
    """Both decomposition routes on every lattice with up to max_n
    elements, counted by size into counts; lines are in canonical
    enumeration order.  A max_n that would check nothing, or that passes
    the enumeration cap, is refused before any lattice is built."""
    if not 2 <= max_n <= LATTICE_ENUMERATION_CAP:
        raise DomainError(
            f"lattice sweeps cover 2 to {LATTICE_ENUMERATION_CAP} elements; "
            f"got a maximum of {max_n}")
    ok = True
    lines = []
    for n in range(2, max_n + 1):
        for L in enumerate_lattices(n):
            good, sub = verify_lattice_instances(L, field)
            ok = ok and good
            lines.extend(sub)
            counts[n] = counts.get(n, 0) + 1
    return ok, lines
