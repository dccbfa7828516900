"""Acceptance gate: one check per published claim, one report line each.

Each test ends by calling note(), which records a pass/fail line; the
terminal-summary hook in conftest prints the collected lines after the
run.  Runtime-limited checks assert their own wall-clock budgets.
"""

import time
from itertools import combinations

from synorres.algebra import Monomial, PrimeField, RationalField
from synorres.chains import all_homology_ranks
from synorres.corpus import (MmixRandom, corpus_ideals, ideal_powers,
                             random_chain, random_ideal, random_poset)
from synorres.poset import build_lcm_lattice, without_bottom
from synorres.resolution import (betti_from_intervals, betti_from_resolution,
                                 certify_resolution, synor_resolution)
from synorres.shuffle import check_chain_map
from synorres.synor import build_synor_complex, synors
from synorres.verify import (TopAnalysis, check_bracket_vanishing,
                             check_class_sums, check_shift_count_bound,
                             check_subadditivity, sweep_lattices,
                             verify_intervals)

QQ = RationalField()
RESULTS = []


def note(num, slug, ok):
    RESULTS.append(f"ACCEPT {num:02d} {slug}: {'pass' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({slug}) failed"


def corpus_lattices():
    for spec in corpus_ideals():
        yield spec, build_lcm_lattice(list(spec.generators), spec.variables)


GOLDEN_62 = """\
       0 1  2  3 4 5
total: 1 6 11 10 5 1
    0: 1 .  .  . . .
    1: . 5 10 10 5 1
    2: . .  .  . . .
    3: . .  .  . . .
    4: . 1  1  . . ."""


def test_criterion_01_example_reproduction(example62_lattice):
    start = time.monotonic()
    T = betti_from_intervals(example62_lattice, QQ)
    elapsed = time.monotonic() - start
    ok = (T.text() == GOLDEN_62
          and T.t_sequence() == (0, 5, 6, 4, 5, 6)
          and elapsed < 30.0)
    note(1, "example-betti-and-t-exact", ok)


def test_criterion_02_resolution_equals_intervals():
    ok = True
    for spec, L in corpus_lattices():
        R = synor_resolution(L, QQ)
        if betti_from_resolution(R) != betti_from_intervals(L, QQ):
            ok = False
    note(2, "resolution-equals-interval-homology", ok)


def test_criterion_03_certification_with_mutation_control():
    ok = True
    for spec, L in corpus_lattices():
        R = synor_resolution(L, QQ)
        if not certify_resolution(R, L, QQ).ok:
            ok = False
    # negative control: a corrupted scalar must be caught
    L = build_lcm_lattice(
        [Monomial((1, 1, 0)), Monomial((1, 0, 1)), Monomial((0, 1, 1))],
        ("x", "y", "z"))
    R = synor_resolution(L, QQ)
    entries = dict(R.differentials[1])
    key = next(iter(entries))
    entries[key] = entries[key] + QQ.one
    bad = type(R)(R.variables, R.labels,
                  [R.differentials[0], entries] + list(R.differentials[2:]))
    control_failed = not certify_resolution(bad, L, QQ).ok
    note(3, "certification-and-mutation-control", ok and control_failed)


def test_criterion_04_power_ideal_shifts():
    ok = True
    for n in range(1, 5):
        for a in range(1, 4):
            spec = ideal_powers(n, a)
            L = build_lcm_lattice(list(spec.generators), spec.variables)
            T = betti_from_intervals(L, QQ)
            if T.t_sequence() != tuple(a * k for k in range(n + 1)):
                ok = False
    note(4, "power-ideal-linear-shifts", ok)


def test_criterion_05_subadditivity_with_witnesses():
    ok = True
    for spec, L in corpus_lattices():
        T = betti_from_intervals(L, QQ)
        pd = T.projective_dimension()
        for i1 in range(pd + 1):
            for i2 in range(i1, pd + 1):
                for k in range(min(i1, i2) + 1):
                    s = i1 + i2 - k
                    if s > pd:
                        continue
                    rep = check_subadditivity(L, i1, i2, k, QQ, T)
                    if not rep.ok:
                        ok = False
                    if (T.t(s) > 0 and i1 >= 1 and i2 >= 1
                            and not rep.data["witnesses"]):
                        ok = False
    note(5, "subadditivity-and-witness-pairs", ok)


def test_criterion_06_shift_count_bound():
    ok = True
    for spec, L in corpus_lattices():
        T = betti_from_intervals(L, QQ)
        pd = T.projective_dimension()
        for i1 in range(pd + 1):
            for i2 in range(i1, pd + 1):
                if i1 + i2 > pd:
                    continue
                if not check_shift_count_bound(T, i1, i2).ok:
                    ok = False
    note(6, "shift-count-bound", ok)


def test_criterion_07_chain_map_random_trials():
    start = time.monotonic()
    lattices = []
    seed = 0
    while len(lattices) < 40:
        seed += 1
        spec = random_ideal(seed, 1 + seed % 5, 2 + seed % 6, 1 + seed % 3)
        L = build_lcm_lattice(list(spec.generators), spec.variables)
        if 3 <= L.n <= 15:
            lattices.append(L)
    rng = MmixRandom(20260817)
    trials = 0
    ok = True
    while trials < 1000:
        L = lattices[rng.below(len(lattices))]
        a = random_chain(L, rng.below(4), rng, QQ)
        b = random_chain(L, rng.below(4), rng, QQ)
        if a.is_zero() or b.is_zero():
            continue
        if not check_chain_map(a, b, L):
            ok = False
        trials += 1
    elapsed = time.monotonic() - start
    note(7, "shuffle-chain-map-1000-trials", ok and elapsed < 60.0)


def _s1_counts_match(P):
    S = build_synor_complex(P, QQ)
    oracle = {(x, i): m for x, i, m in synors(P, QQ)}
    built = {}
    for d in S.dims():
        if d < 0:
            continue
        for g in S.generators(d):
            built[(g.element, g.dim)] = built.get((g.element, g.dim), 0) + 1
    return S, built == oracle


def _s2_matches(P, S, rng, samples=3):
    for _ in range(samples):
        seed_ids = [x for x in range(P.n) if rng.chance()]
        ideal = sorted({y for x in seed_ids for y in P.below_or_equal(x)})
        sub = S.restrict(ideal)
        simplicial = all_homology_ranks(P.sub(ideal), QQ)
        top = max(sub.dims(), default=-1)
        for k in range(-1, top + 2):
            if sub.homology(k).rank != simplicial.get(k, 0):
                return False
    return True


def test_criterion_08_synor_soundness():
    ok = True
    rng = MmixRandom(8)
    for seed in range(1, 101):
        P = random_poset(seed, 3 + seed % 8)
        S, counts_ok = _s1_counts_match(P)
        ok = ok and counts_ok and _s2_matches(P, S, rng)
    for spec, L in corpus_lattices():
        upper = without_bottom(L)
        S, counts_ok = _s1_counts_match(upper)
        ok = ok and counts_ok and _s2_matches(upper, S, rng)
    note(8, "synor-complex-soundness", ok)


def test_criterion_09_bracket_lemmas():
    ok = True
    for seed in range(1, 101):
        P = random_poset(seed, 3 + seed % 8)
        S = build_synor_complex(P, QQ)
        if not check_bracket_vanishing(S, QQ).ok:
            ok = False
    controls = 0
    for spec, L in corpus_lattices():
        upper = without_bottom(L)
        S = build_synor_complex(upper, QQ)
        for d in S.dims():
            if d < 1:
                continue
            for g in S.generators(d):
                rep = check_class_sums(S, g, d, QQ)
                if not rep.ok:
                    ok = False
                if rep.data["j0_nonzero"]:
                    controls += 1
    note(9, "bracket-and-class-sum-lemmas", ok and controls >= 1)


def test_criterion_10_decomposition_sweep():
    start = time.monotonic()
    counts = {}
    ok, lines = sweep_lattices(7, QQ, counts)
    elapsed = time.monotonic() - start
    expected = {2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53}
    note(10, "decomposition-sweep-to-seven",
         ok and counts == expected and elapsed < 600.0)


def test_criterion_11_interval_decomposition():
    ok = True
    instances = 0
    for spec, L in corpus_lattices():
        good, lines = verify_intervals(TopAnalysis(L, QQ))
        ok = ok and good
        instances += len(lines)
    note(11, "interval-decomposition-corpus", ok and instances > 0)


# the 6-vertex triangulation of the real projective plane
RP2_TRIANGLES = ("123", "134", "145", "156", "126",
                 "235", "346", "245", "356", "246")


def rp2_lattice():
    """lcm lattice of the Stanley-Reisner ideal of the 6-vertex RP^2:
    every edge is a face, so the ideal is generated by the ten vertex
    triples that are not triangles."""
    faces = {frozenset(map(int, t)) for t in RP2_TRIANGLES}
    gens = [Monomial(tuple(int(v in triple) for v in range(1, 7)))
            for triple in map(frozenset, combinations(range(1, 7), 3))
            if triple not in faces]
    assert len(gens) == 10
    return build_lcm_lattice(gens, tuple(f"x{v}" for v in range(1, 7)))


def test_criterion_12_field_dependence_rp2():
    # one lattice object across fields, which must stay apart, and GF(2)
    # sees the torsion of H_1(RP^2)
    L = rp2_lattice()
    runs = [(QQ, (1, 10, 15, 6)), (PrimeField(2), (1, 10, 15, 7, 1)),
            (PrimeField(3), (1, 10, 15, 6)), (QQ, (1, 10, 15, 6))]
    ok = L.n == 33
    for field, totals in runs:
        R = synor_resolution(L, field)
        T = betti_from_resolution(R)
        ok = (ok and T == betti_from_intervals(L, field)
              and T.totals() == totals
              and certify_resolution(R, L, field).ok)
    note(12, "field-dependence-rp2", ok)
