from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synorres.linalg as linalg
import synorres.resolution as resolution
from synorres.algebra import (Monomial, PrimeField, RationalField,
                              ValidationError)
from synorres.corpus import ideal_kpq, ideal_powers, random_ideal
from synorres.poset import _lex_keys, build_lcm_lattice, without_bottom
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
    assert T.entries.get((2, Monomial((1, 1, 1)))) == 2


def test_unit_betti_convention(cycle_lattice):
    T = betti_from_intervals(cycle_lattice, QQ)
    assert T.entries.get((0, Monomial.one(3))) == 1


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
    scalars = [v for mat in R.differentials for v in mat.values()]
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
    (r, c), scalar = next(iter(entries.items()))
    entries[(r, c)] = scalar + QQ.one + QQ.one
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
    # differential entries carry the label quotient and the scalar
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
    entries[key] = entries[key] + shift
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


@pytest.mark.parametrize("field, c, d, square_zero", [
    (PrimeField(5), 1, 4, True),  # 1 + 4 = 5: zero mod 5, not as an int
    (PrimeField(5), 1, 3, False),
    (QQ, Fraction(1, 2), Fraction(-1, 2), True),
    (QQ, Fraction(1, 2), Fraction(1, 3), False),
    (QQ, 2, -2, True),
    (QQ, 2, Fraction(-3, 2), False),
    (QQ, 1, 32002, False),  # 32003 is not zero over QQ
])
def test_squared_differential_is_zero_in_the_field(field, c, d, square_zero):
    # the Koszul resolution of (x, y) with d_1 = (1, 1) and d_2 = (c, d):
    # d_1 d_2 = c + d, summed as plain scalars and tested in the field
    L = build_lcm_lattice([Monomial((1, 0)), Monomial((0, 1))], ("x", "y"))
    one, x, y, xy = (Monomial(e) for e in [(0, 0), (1, 0), (0, 1), (1, 1)])
    R = resolution.FreeResolution(
        ("x", "y"), [[one], [x, y], [xy]],
        [{(0, 0): 1, (0, 1): 1}, {(0, 0): c, (1, 0): d}])
    rep = certify_resolution(R, L, field)
    assert rep.checks[1] == ("differential squares to zero", square_zero)
    assert rep.ok == square_zero
    assert rep.problems == ([] if square_zero else [
        "composite of differentials 2 and 1 nonzero on generator 0"])


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


def test_labels_outside_the_lattice_are_not_certified():
    # appending F_2 = <x^3> with d_2 = 0 and F_3 = <x^4> with d_3 = x.e to
    # the resolution of (x^2) keeps the grading, d . d = 0, the units and
    # the cokernel, and every strand at a lattice monomial, but the
    # strand at x^3 has homology; no lattice strand sees those labels
    L = build_lcm_lattice([Monomial((2,))], ("x",))
    R = synor_resolution(L, QQ)
    bad = type(R)(R.variables,
                  R.labels + [[Monomial((3,))], [Monomial((4,))]],
                  R.differentials + [{}, {(0, 0): QQ.one}])
    rep = certify_resolution(bad, L, QQ)
    assert not rep.ok
    assert rep.lines() == [
        "ok  grading consistent", "ok  differential squares to zero",
        "ok  no unit entries", "ok  cokernel is the ideal",
        "FAIL  all multidegree strands exact",
        "     label x^3 of module 2 is not in the lcm lattice",
        "     label x^4 of module 3 is not in the lcm lattice",
        "NOT CERTIFIED"]


def test_a_row_label_not_dividing_its_column_label_breaks_grading():
    # swapping the first two labels of module 2 of the Koszul resolution
    # of (x1, x2, x3) keeps the scalars, so d . d = 0, the units, the
    # cokernel and every strand pass; only the grading check sees that
    # the row labels x2 and x1 no longer divide their column labels
    spec = ideal_powers(3, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, QQ)
    labels = [list(labs) for labs in R.labels]
    labels[2][:2] = labels[2][1::-1]
    bad = type(R)(R.variables, labels, R.differentials)
    rep = certify_resolution(bad, L, QQ)
    assert not rep.ok
    assert rep.lines() == [
        "FAIL  grading consistent", "ok  differential squares to zero",
        "ok  no unit entries", "ok  cokernel is the ideal",
        "ok  all multidegree strands exact",
        "     entry (1,0) of differential 2 breaks grading",
        "     entry (2,1) of differential 2 breaks grading",
        "NOT CERTIFIED"]


def test_a_label_over_other_variables_is_rejected():
    L = build_lcm_lattice([Monomial((2,))], ("x",))
    R = synor_resolution(L, QQ)
    with pytest.raises(ValidationError, match="label Monomial\\(2, 0\\) "
                       "of module 1 has 2 variables, not 1"):
        type(R)(R.variables, [R.labels[0], [Monomial((2, 0))]],
                R.differentials)


def test_certify_refuses_a_lattice_over_other_variables():
    # the resolution of (x^2, y) against the lattice of (x^2)
    R = synor_resolution(
        build_lcm_lattice([Monomial((2, 0)), Monomial((0, 1))], "xy"), QQ)
    L = build_lcm_lattice([Monomial((2,))], ("x",))
    with pytest.raises(ValidationError, match=r"resolution variables "
                       r"\['x', 'y'\] differ from lattice's \['x'\]"):
        certify_resolution(R, L, QQ)


@pytest.mark.parametrize("key", [(1, 0), (0, 1), (-1, 0)])
def test_an_entry_outside_its_matrix_is_rejected(key):
    L = build_lcm_lattice([Monomial((2,))], ("x",))
    R = synor_resolution(L, QQ)
    with pytest.raises(ValidationError, match=f"entry \\({key[0]},{key[1]}\\) "
                       "of differential 1 is outside its 1 x 1 matrix"):
        type(R)(R.variables, R.labels, [{key: QQ.one}])


def spy_quotients(monkeypatch):
    """Record each _atom_quotients result of certify_resolution as a dict
    {m: (lo, keep)}."""
    seen = []
    engine = resolution._atom_quotients

    def spy(exps, L):
        seen.append({m: (lo, keep) for m, lo, keep in engine(exps, L)})
        return [(m, lo, keep) for m, (lo, keep) in seen[-1].items()]
    monkeypatch.setattr(resolution, "_atom_quotients", spy)
    return seen


def spy_spans(monkeypatch):
    """Record the matrix count of each cleared_spans call."""
    ranked = []
    engine = resolution.cleared_spans

    def spans(columns_of, count, field):
        ranked.append(count)
        return engine(columns_of, count, field)
    monkeypatch.setattr(resolution, "cleared_spans", spans)
    return ranked


@pytest.mark.parametrize("n", [3, 5, 7])
def test_boolean_quotient_strands_have_two_generators(n, monkeypatch):
    # in B_n, with a the first atom below m, the labels l with
    # lcm(l, a) = m are m and m / a, one generator each, in adjacent
    # modules, so each quotient strand spans one differential alone
    spec = ideal_powers(n, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, QQ)
    seen = spy_quotients(monkeypatch)
    ranked = spy_spans(monkeypatch)
    assert certify_resolution(R, L, QQ).ok
    (quotients,) = seen
    assert sorted(quotients) == [m for m in range(L.n) if m != L.bottom]
    for m_id, (lo, keep) in quotients.items():
        assert [len(sel) for sel in keep] == [1, 1]
        labels = sorted(R.labels[lo + j][p] for j, sel in enumerate(keep)
                        for p in sel)
        m = L.monomials[m_id]
        a = L.monomials[min(a for a in L.atoms if L.le(a, m_id))]
        assert labels == sorted([m.quotient(a), m])
    assert ranked == [1] * (L.n - 1)


def whole_strands(R, L, field):
    """The report with every strand checked whole: no quotient strand.
    Every caller's R has d . d = 0, so each of the L.n - 1 strands above
    the bottom is ranked by one cleared_spans call."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(resolution, "_atom_quotients", lambda exps, L: ())
        ranked = spy_spans(patch)
        lines = certify_resolution(R, L, field).lines()
    assert len(ranked) == L.n - 1
    return lines


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 10**6), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 3), st.sampled_from([QQ, PrimeField(2),
                                           PrimeField(3)]))
def test_quotient_strands_report_what_whole_strands_report(seed, n, g, emax,
                                                           field):
    spec = random_ideal(seed, n, g, emax)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, field)
    rep = certify_resolution(R, L, field)
    assert rep.ok
    assert whole_strands(R, L, field) == rep.lines()
    # a negative control with d . d = 0: the last generator dropped
    labels = [list(labs) for labs in R.labels]
    if len(labels) > 2:
        last = len(labels[-1]) - 1
        labels[-1].pop()
        diffs = R.differentials[:-1] + [
            {key: e for key, e in R.differentials[-1].items()
             if key[1] != last}]
        bad = type(R)(R.variables, labels, diffs)
        rep = certify_resolution(bad, L, field)
        assert not rep.ok
        assert whole_strands(bad, L, field) == rep.lines()


def test_exponents_past_the_int64_codes_certify_through_records():
    # radices 2^40 + 1 in x and y: their product is past 2^63, so the
    # quotient strands look lcms up by _lex_records records
    big = 2 ** 40
    L = build_lcm_lattice([Monomial((big, 0)), Monomial((0, big)),
                           Monomial((big - 1, big - 1))], ("x", "y"))
    assert _lex_keys(L.exps, L.exps[L.top]).dtype.names is not None
    R = synor_resolution(L, QQ)
    rep = certify_resolution(R, L, QQ)
    assert rep.ok and R.ranks == (1, 3, 2)
    assert whole_strands(R, L, QQ) == rep.lines()


def test_truncated_koszul_fails_on_its_first_quotient(monkeypatch):
    # the truncated Koszul complex of (x1, x2, x3) has d . d = 0, so the
    # quotient strands run; every one is exact but the top's, which is
    # then checked whole and reported as with whole strands
    spec = ideal_powers(3, 1)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    R = synor_resolution(L, QQ)
    bad = type(R)(R.variables, R.labels[:-1], R.differentials[:-1])
    seen = spy_quotients(monkeypatch)
    ranked = spy_spans(monkeypatch)
    rep = certify_resolution(bad, L, QQ)
    assert len(seen) == 1 and list(seen[0])[-1] == L.top
    # seven quotient strands, each over its own modules: six of one
    # differential, the top's of one module (x2*x3 alone, not exact);
    # then the top's strand whole, over modules 0 to 2
    assert ranked == [1] * 6 + [0, 2]
    assert rep.problems == [
        "strand at x1*x2*x3 not exact (dims [1, 3, 3], ranks [1, 2])"]
    assert whole_strands(bad, L, QQ) == rep.lines()


def test_a_unit_summand_keeps_the_whole_strand_report(cycle_lattice):
    # adding the acyclic summand 1 -> 1 (a unit entry) keeps every strand
    # acyclic but puts two generators at the bottom of each; the
    # presentation check fails, so no quotient strand may stand in for
    # the strands, whose problem lines name the doubled bottom
    L = cycle_lattice
    R = synor_resolution(L, QQ)
    one = Monomial.one(len(L.variables))
    labels = [list(labs) for labs in R.labels]
    labels[0].append(one)
    labels[1].append(one)
    first = dict(R.differentials[0])
    first[(1, len(labels[1]) - 1)] = QQ.one
    bad = type(R)(R.variables, labels, [first] + R.differentials[1:])
    rep = certify_resolution(bad, L, QQ)
    assert [name for name, good in rep.checks if not good] == [
        "no unit entries", "cokernel is the ideal",
        "all multidegree strands exact"]
    assert sum("not exact (dims [2," in p for p in rep.problems) == L.n - 1
    assert whole_strands(bad, L, QQ) == rep.lines()
