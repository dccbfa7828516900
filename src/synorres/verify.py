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
Every intermediate homological claim of the proof is asserted as it is
used, and a failure raises TheoremContradiction with a JSON-ready
reproducer payload.

On lcm lattices the Betti table of the synor resolution yields the
Betti-level consequences: subadditivity of maximal shifts with witness
pairs n1, n2 whose lcm realizes the extremal multidegree, and the
product bound on the number of shifts.  Interval witnesses are searched
in the table and re-verified by order-complex homology, whose ranks all
come from the lattice's one interval memo (resolution.interval_ranks).
Reports are plain objects with stable line formats so sweep output is
diffable.
"""

from __future__ import annotations

from .algebra import DomainError, Monomial, ValidationError
from .chains import FormalChain, boundary, bounds, graded_component
from .linalg import kernel_basis
from .poset import (LATTICE_ENUMERATION_CAP, Lattice, LcmLattice,
                    enumerate_lattices, lattice_hash, poset_to_json)
from .resolution import (BettiTable, betti_from_resolution, interval_ranks,
                         synor_resolution)
from .shuffle import shuffle_product
from .synor import (Generator, SynorComplex, bracket, build_synor_complex,
                    ell_representation, homologous_in_pair, rho)


class TheoremContradiction(Exception):
    """A proved statement failed mechanically; carries a reproducer."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


class DecompositionWitness:
    """A certified synor pair decomposing a target join.

    n1 and n2 are lattice ids; target is the element their join must
    dominate (the top for the lattice statement, the interval top for
    the Betti statement).  verify() recomputes every certified fact from
    the lattice alone.
    """

    def __init__(self, lattice: Lattice, i1: int, i2: int, k: int,
                 n1: int, n2: int, target: int, certification: dict):
        self.lattice = lattice
        self.i1 = i1
        self.i2 = i2
        self.k = k
        self.n1 = n1
        self.n2 = n2
        self.target = target
        self.certification = certification

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


def _map_chain(c: FormalChain, table) -> FormalChain:
    """Relabel every element of every basis chain through an id table."""
    return FormalChain(
        c.dim, c.field,
        {tuple(table[v] for v in key): coeff for key, coeff in c.terms.items()},
        c.kind,
    )


class TopAnalysis:
    """Per-lattice workspace for decomposition checks.

    Holds the lattice, the poset P = L minus bottom (the synor complex
    lives there) and the middle part (P minus top) as an id set.  Below a
    P-id x lies the open interval (0, to_L[x]) of L, whose ranks the
    lattice's memo holds.  Whether a chain bounds in the middle part is
    read from chains.bounds, whose span per degree P's cache holds, so
    the nontriviality, relative-homology and step-lemma checks share it.
    """

    def __init__(self, L: Lattice, field):
        if L.n < 2:
            raise DomainError("need a lattice with distinct bottom and top")
        self.L = L
        self.field = field
        self.P = L.sub([i for i in range(L.n) if i != L.bottom])
        self.to_L = self.P.origin
        self.from_L = {v: i for i, v in enumerate(self.to_L)}
        self.top = self.from_L[L.top]
        self.middle = frozenset(i for i in range(self.P.n) if i != self.top)
        self._S: SynorComplex | None = None

    @property
    def S(self) -> SynorComplex:
        if self._S is None:
            self._S = build_synor_complex(self.P, self.field)
        return self._S

    def _rank_below(self, x: int, d: int) -> int:
        """Rank of H_d strictly below the P-id x, computed simplicially."""
        return interval_ranks(self.L, self.to_L[x], self.field).get(d, 0)

    def synor_elements(self, i: int) -> list[int]:
        """P-ids carrying nonzero H_{i-1} below, in ascending order."""
        return [x for x in range(self.P.n) if self._rank_below(x, i - 1)]

    def middle_ranks(self) -> dict:
        return interval_ranks(self.L, self.L.top, self.field)

    def top_is_synor(self, m: int) -> bool:
        return self.middle_ranks().get(m - 1, 0) > 0

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
        if not self.top_is_synor(m):
            return None
        ys = self.synor_elements(i2 - 1)
        for x in self.synor_elements(i1 - 1):
            for y in ys:
                if self.L.join_of(self.to_L[x], self.to_L[y]) == self.L.top:
                    return self._witness(i1, i2, k, x, y, stage="bruteforce")
        return None

    def _witness(self, i1, i2, k, x, y, stage: str) -> DecompositionWitness:
        n1, n2 = self.to_L[x], self.to_L[y]
        cert = {
            "rank1": self._rank_below(x, i1 - 2),
            "rank2": self._rank_below(y, i2 - 2),
            "join_is_top": self.L.join_of(n1, n2) == self.L.top,
            "stage": stage,
        }
        w = DecompositionWitness(self.L, i1, i2, k, n1, n2,
                                 self.L.top, cert)
        if not (cert["rank1"] > 0 and cert["rank2"] > 0
                and cert["join_is_top"]):
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

    def principal_generators(self, m: int) -> list[Generator]:
        return [g for g in self.S.generators(m) if g.element == self.top]

    def constructive(self, i1: int, i2: int, k: int) -> DecompositionWitness | None:
        """Witness extraction along the existence proof, asserting each step."""
        self._check_params(i1, i2, k)
        m = i1 + i2 - k - 1
        gens = self.principal_generators(m)
        if not gens:
            return None
        g = gens[0]
        ell = i1 - 1

        # the boundary of the principal chain represents a nonzero class
        # of the middle part, which is what makes the relative class of
        # the chain itself nonzero
        zeta_phi = self.S.phi_chain(self.S.delta_of(g))
        if bounds(self.P, self.middle, zeta_phi):
            raise TheoremContradiction(
                "principal chain has trivial relative class",
                self._payload(i1, i2, k, "nontriviality"))

        reps = ell_representation(self.S, g, ell)
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

        def certified(w):
            w.certification.update(relative_nontrivial=True,
                                   homologous_rel_middle=True,
                                   top_component_nonzero=True)
            return w

        for chi in sorted(reps):
            zeta = reps[chi]
            xs = sorted({h.element for h in rho(self.S, chi).terms})
            if zeta.dim == -1:
                if self.top in xs:
                    return certified(
                        self._lifted_witness(i1, i2, k, chi, self.top))
                continue
            ys = sorted({h.element for h in zeta.terms})
            for x in xs:
                for y in ys:
                    if self.L.join_of(self.to_L[x], self.to_L[y]) == self.L.top:
                        if k == 0:
                            return certified(self._witness(
                                i1, i2, k, x, y, stage="constructive"))
                        return certified(
                            self._lifted_witness(i1, i2, k, chi, x))
        raise TheoremContradiction(
            "no join-reaching pair in any shuffle term",
            self._payload(i1, i2, k, "witness-scan"))

    def _lifted_witness(self, i1, i2, k, chi, x) -> DecompositionWitness:
        """For k >= 1 the second witness is the prefix element whose
        position from the top makes it an (i2-1)-synor."""
        z = chi[i1 - k]
        return self._witness(i1, i2, k, x, z, stage="constructive-lifted")

    # --- the step lemma ---

    def step_lemma_sum(self, g: Generator, ell: int) -> FormalChain:
        """Sum over the ell-representation of rho of the chain minus its
        top, shuffled with the suffix; a cycle supported in the middle."""
        return self._shuffle_sum(ell_representation(self.S, g, ell),
                                 g.dim - 1, skip=1)

    def _shuffle_sum(self, reps, dim: int, skip: int) -> FormalChain:
        """sum over chi of phi(rho(chi[skip:])) shuffled with phi(reps[chi]),
        taken in L and mapped back to P; a chain of dimension dim."""
        def product(chi):
            left = self.S.phi_chain(rho(self.S, chi[skip:]))
            right = self.S.phi_chain(reps[chi])
            return shuffle_product(_map_chain(left, self.to_L),
                                   _map_chain(right, self.to_L), self.L)

        total = FormalChain.combination(
            dim, self.field,
            ((self.field.one, product(chi)) for chi in sorted(reps)))
        return _map_chain(total, self.from_L)

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
    so the search reads the Betti table: the first pair x, y <= m in
    ascending ids, x outermost, with beta_{i1,x} > 0, beta_{i2,y} > 0 and
    x v y = m.  The pair is then re-verified by order-complex homology.
    Raises TheoremContradiction if beta_{i1+i2-k,m} = 0, if no pair
    exists, or if the re-verification fails.
    """
    def beta(i, x):
        return table.beta(i, L.monomials[x])

    def payload(stage):
        return {"lattice": poset_to_json(L), "m": m,
                "i1": i1, "i2": i2, "k": k, "stage": stage}

    below = [x for x in range(L.n) if L.le(x, m)]
    pair = None
    if beta(i1 + i2 - k, m):
        pair = next(((x, y) for x in below if beta(i1, x)
                     for y in below if beta(i2, y) and L.join_of(x, y) == m),
                    None)
    if pair is None:
        raise TheoremContradiction("no synor pair joins to the interval top",
                                   payload("interval-search"))
    n1, n2 = pair
    cert = {"rank1": beta(i1, n1), "rank2": beta(i2, n2),
            "join_is_top": True, "stage": "interval-search"}
    out = DecompositionWitness(L, i1, i2, k, n1, n2, m, cert)
    if not out.verify(field):
        raise TheoremContradiction("interval witness failed re-verification",
                                   payload("interval-reverify"))
    return out


def verify_interval_decomposition(L: LcmLattice, m: int, i1: int, i2: int,
                                  field) -> DecompositionWitness:
    """Betti-level decomposition: a certified pair joining to m.

    Requires beta_{i1+i2,m} > 0, read off the synor resolution; the
    witness pair is found inside the closed interval [0, m] and
    re-verified by order-complex homology.
    """
    if not isinstance(L, LcmLattice):
        raise DomainError("Betti-level decomposition needs an lcm lattice")
    if isinstance(m, Monomial):
        if m not in L.monomials:
            raise DomainError("target monomial is not a lattice element")
        m = L.monomials.index(m)
    if i1 < 1 or i2 < 1:
        raise DomainError("need i1 >= 1 and i2 >= 1")
    table = betti_from_resolution(synor_resolution(L, field))
    if not table.beta(i1 + i2, L.monomials[m]):
        raise DomainError(
            "open interval below the target has no homology in the "
            "required degree")
    return _interval_witness(L, m, i1, i2, 0, field, table)


def check_subadditivity(L: LcmLattice, i1: int, i2: int, k: int,
                        field, table: BettiTable) -> VerifyReport:
    """Maximal-shift inequality with witness pairs at the extremal degree.

    Asserts t_{i1+i2-k} <= t_{i1} + t_{i2}.  When the left side is
    positive and i1, i2 >= 1, each multidegree realizing it is decomposed
    into a certified pair n1, n2 with lcm(n1, n2) = m and nonzero Betti
    numbers in columns i1 and i2; witness degrees are bounded by the
    column maxima.  table is L's Betti table over field.
    """
    if k < 0 or k > min(i1, i2):
        raise DomainError("need 0 <= k <= min(i1, i2)")
    s = i1 + i2 - k
    ts, t1, t2 = table.t(s), table.t(i1), table.t(i2)
    lines = [f"t_{s}={ts} <= t_{i1}+t_{i2}={t1}+{t2}"]
    ok = ts <= t1 + t2
    witnesses = []
    if ok and ts > 0 and i1 >= 1 and i2 >= 1:
        monomial_of = {m: i for i, m in enumerate(L.monomials)}
        for (j, mono), _v in sorted(table.entries.items()):
            if j != s or mono.degree() != ts:
                continue
            m_id = monomial_of[mono]
            w = _interval_witness(L, m_id, i1, i2, k, field, table)
            d1 = L.monomials[w.n1].degree()
            d2 = L.monomials[w.n2].degree()
            degree_ok = (d1 <= t1 and d2 <= t2 and
                         L.join_of(w.n1, w.n2) == m_id)
            betti_ok = (table.beta(i1, L.monomials[w.n1]) > 0 and
                        table.beta(i2, L.monomials[w.n2]) > 0)
            if not (degree_ok and betti_ok):
                ok = False
                lines.append(f"witness check failed at "
                             f"{mono.format(L.variables)}")
            witnesses.append(w)
            lines.append(
                f"m={mono.format(L.variables)} -> "
                f"n1={L.format_label(w.n1)} (deg {d1}), "
                f"n2={L.format_label(w.n2)} (deg {d2})")
    if not ok and ts > t1 + t2:
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
        for vec in kernel_basis({g: S.delta_of(g).terms
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


def verify_intervals(L: LcmLattice, field) -> tuple[bool, list[str]]:
    """Betti-level decomposition at every multidegree: for each m and
    each split i1 + i2 of a column with nonzero entry at m, a certified
    pair with lcm dominating m.  One line per instance."""
    table = betti_from_resolution(synor_resolution(L, field))
    monomial_of = {m: i for i, m in enumerate(L.monomials)}
    ok = True
    lines = []
    for (i, mono), _v in sorted(table.entries.items()):
        if i < 2:
            continue
        m_id = monomial_of[mono]
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


def verify_lattice_instances(L: Lattice, field) -> tuple[bool, list[str]]:
    """All valid (i1, i2, k) for one lattice, both routes, one line each."""
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
