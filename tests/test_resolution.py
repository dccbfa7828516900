from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synorres.linalg as linalg
import synorres.resolution as resolution
from synorres.algebra import Monomial, PrimeField, RationalField
from synorres.corpus import ideal_kpq, ideal_powers, random_ideal
from synorres.poset import build_lcm_lattice, without_bottom
from synorres.resolution import (betti_from_intervals, betti_from_resolution,
                                 certify_resolution, resolution_to_json,
                                 synor_resolution)
from synorres.synor import build_synor_complex

QQ = RationalField()

EXAMPLE62_TABLE = """\
       0 1  2  3 4 5
total: 1 6 11 10 5 1
    0: 1 .  .  . . .
    1: . 5 10 10 5 1
    2: . .  .  . . .
    3: . .  .  . . .
    4: . 1  1  . . ."""

CYCLE_TABLE = """\
       0 1 2
total: 1 3 2
    0: 1 . .
    1: . 3 2"""


def test_example62_golden_table(example62_lattice):
    T = betti_from_intervals(example62_lattice, QQ)
    assert T.text() == EXAMPLE62_TABLE
    assert T.t_sequence() == (0, 5, 6, 4, 5, 6)
    assert T.a_sequence() == (1, 6, 11, 10, 5, 1)
    assert T.totals() == (1, 6, 11, 10, 5, 1)
    assert T.projective_dimension() == 5


def test_cycle_ideal_table(cycle_lattice):
    T = betti_from_intervals(cycle_lattice, QQ)
    assert T.text() == CYCLE_TABLE
    assert T.t_sequence() == (0, 2, 3)
    # the double first syzygy sits at the full lcm
    assert T.beta(2, Monomial((1, 1, 1))) == 2


def test_unit_betti_convention(cycle_lattice):
    T = betti_from_intervals(cycle_lattice, QQ)
    assert T.beta(0, Monomial.one(3)) == 1


def test_resolution_matches_intervals_sample():
    cases = [ideal_powers(3, 2), ideal_kpq(3, 2), random_ideal(11, 4, 5, 2)]
    for spec in cases:
        L = build_lcm_lattice(list(spec.generators), spec.variables)
        R = synor_resolution(L, QQ)
        assert betti_from_resolution(R) == betti_from_intervals(L, QQ)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 2), st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
def test_synor_betti_equals_interval_betti(seed, n, g, emax, field):
    spec = random_ideal(seed, n, g, emax)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, field)
    assert betti_from_resolution(R) == betti_from_intervals(L, field)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 3),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(32003)]))
def test_stored_scalars_are_plain_numbers(seed, n, g, emax, field):
    # GF(p): an int in [1, p); QQ: an int, or a Fraction only when it is
    # not an integer
    spec = random_ideal(seed, n, g, emax)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, field)
    S = build_synor_complex(without_bottom(L), field)
    scalars = [v for mat in R.differentials for _mono, v in mat.values()]
    scalars += [v for chain in S.delta.values() for v in chain.terms.values()]
    for v in scalars:
        if field.modulus:
            assert type(v) is int and 1 <= v < field.modulus
        else:
            assert type(v) is int or (type(v) is Fraction
                                      and v.denominator != 1)


def test_resolution_over_f2(example62_lattice):
    F2 = PrimeField(2)
    R = synor_resolution(example62_lattice, F2)
    rep = certify_resolution(R, example62_lattice, F2)
    assert rep.ok
    assert betti_from_resolution(R) == betti_from_intervals(
        example62_lattice, F2)


def test_certification_passes(example62_lattice):
    R = synor_resolution(example62_lattice, QQ)
    rep = certify_resolution(R, example62_lattice, QQ)
    assert rep.ok
    names = [name for name, _ in rep.checks]
    assert names == ["grading consistent", "differential squares to zero",
                     "no unit entries", "cokernel is the ideal",
                     "all multidegree strands exact"]
    assert rep.problems == []


def test_mutation_negative_control(cycle_lattice):
    # corrupting one differential entry must break certification
    L = cycle_lattice
    R = synor_resolution(L, QQ)
    entries = dict(R.differentials[1])
    (r, c), (mono, scalar) = next(iter(entries.items()))
    entries[(r, c)] = (mono, scalar + QQ.one + QQ.one)
    bad = type(R)(R.variables, R.labels,
                  [R.differentials[0], entries] + list(R.differentials[2:]))
    rep = certify_resolution(bad, L, QQ)
    assert not rep.ok
    assert rep.problems


def test_mutation_drop_entry_breaks_exactness(cycle_lattice):
    L = cycle_lattice
    R = synor_resolution(L, QQ)
    entries = dict(R.differentials[1])
    entries.pop(next(iter(entries)))
    bad = type(R)(R.variables, R.labels,
                  [R.differentials[0], entries] + list(R.differentials[2:]))
    rep = certify_resolution(bad, L, QQ)
    assert not rep.ok


def test_resolution_json_shape(cycle_lattice):
    R = synor_resolution(cycle_lattice, QQ)
    data = resolution_to_json(R)
    assert data["ranks"] == [1, 3, 2]
    assert data["labels"][0] == ["1"]
    assert sorted(data["labels"][1]) == ["x*y", "x*z", "y*z"]
    # differential entries carry the monomial quotient and the scalar
    for level in data["differentials"]:
        assert level["rows"] >= 1 and level["cols"] >= 1
        for row, col, mono, scalar in level["entries"]:
            assert isinstance(row, int) and isinstance(col, int)
            assert isinstance(mono, str) and isinstance(scalar, str)


def test_betti_table_json(cycle_lattice):
    T = betti_from_intervals(cycle_lattice, QQ)
    data = T.to_json()
    assert data["totals"] == [1, 3, 2]
    assert data["t"] == [0, 2, 3]
    assert ["2", "x*y*z", 2] in [
        [str(i), m, r] for i, m, r in data["entries"]]


def mutated_cycle_resolution(cycle_lattice, shift):
    """The cycle ideal's resolution with shift added to the first stored
    scalar of its second differential."""
    R = synor_resolution(cycle_lattice, QQ)
    entries = dict(R.differentials[1])
    key = next(iter(entries))
    mono, scalar = entries[key]
    entries[key] = (mono, scalar + shift)
    return type(R)(R.variables, R.labels,
                   [R.differentials[0], entries] + list(R.differentials[2:]))


def full_spans(columns_of, count, field):
    """cleared_spans without clearing: every matrix spanned in full."""
    return [linalg.span(columns_of(i, ()), field) for i in range(count)]


def test_truncated_resolution_is_not_exact_on_the_cleared_path(monkeypatch):
    # negative control with d . d = 0: dropping the last module of the
    # Koszul resolution of (x1, x2, x3) leaves a complex that is not exact
    # at x1*x2*x3; the cleared path reports the full spans' dims and ranks
    spec = ideal_powers(3, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, QQ)
    assert R.ranks == (1, 3, 3, 1)
    bad = type(R)(R.variables, R.labels[:-1], R.differentials[:-1])
    engine, cleared = resolution.cleared_spans, []

    def spy(columns_of, count, field):
        cleared.append(count)
        return engine(columns_of, count, field)
    monkeypatch.setattr(resolution, "cleared_spans", spy)
    rep = certify_resolution(bad, L, QQ)
    assert cleared
    assert not rep.ok
    assert rep.lines() == [
        "ok  grading consistent", "ok  differential squares to zero",
        "ok  no unit entries", "ok  cokernel is the ideal",
        "FAIL  all multidegree strands exact",
        "     strand at x1*x2*x3 not exact (dims [1, 3, 3], ranks [1, 2])",
        "NOT CERTIFIED"]
    monkeypatch.setattr(resolution, "cleared_spans", full_spans)
    assert certify_resolution(bad, L, QQ).lines() == rep.lines()


@pytest.mark.parametrize("shift, problems", [
    # criterion 03's mutation: the scalar becomes 0, so the grading check
    # and the squared differential both fail
    (1, ["zero scalar stored in differential 2",
         "composite of differentials 2 and 1 nonzero on generator 0"]),
    # a nonzero scalar: only the squared differential fails
    (2, ["composite of differentials 2 and 1 nonzero on generator 0"]),
])
def test_nonzero_square_never_reaches_the_cleared_path(cycle_lattice,
                                                       monkeypatch, shift,
                                                       problems):
    # clearing is sound only for d . d = 0, so a mutation that breaks it
    # must be ranked with full spans and report what it always reported
    def refuse(*args):
        raise AssertionError("certify_resolution cleared a strand")
    monkeypatch.setattr(resolution, "cleared_spans", refuse)
    bad = mutated_cycle_resolution(cycle_lattice, shift)
    rep = certify_resolution(bad, cycle_lattice, QQ)
    assert not rep.ok
    assert rep.problems == problems
    assert rep.lines()[:2] == [
        f"{'FAIL' if shift == 1 else 'ok'}  grading consistent",
        "FAIL  differential squares to zero"]


@pytest.mark.parametrize("make", [
    lambda: ideal_powers(4, 1), lambda: ideal_kpq(4, 3),
    lambda: random_ideal(5, 4, 6, 3)])
def test_certify_clears_and_agrees_with_full_spans(make, monkeypatch):
    spec = make()
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, QQ)
    rep = certify_resolution(R, L, QQ)
    assert rep.ok
    monkeypatch.setattr(resolution, "cleared_spans", full_spans)
    assert certify_resolution(R, L, QQ).lines() == rep.lines()
