import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synorres.poset as poset_module

from synorres.algebra import (DomainError, Monomial, RationalField,
                              ValidationError)
from synorres.corpus import (MmixRandom, _prune_to_antichain, corpus_ideals,
                             ideal_example62, ideal_kpq, ideal_powers,
                             parse_ideal_text, random_ideal, random_poset)
from synorres.poset import build_lcm_lattice, is_lattice

QQ = RationalField()


def test_lcg_reference_stream():
    r = MmixRandom(1)
    assert [r.next_word() for _ in range(4)] == [
        7806831264735756412, 9396908728118811419,
        11960119808228829710, 7062582979898595269]


def test_lcg_below_stream_and_bounds():
    r = MmixRandom(1)
    draws = [r.below(6) for _ in range(8)]
    assert draws == [4, 1, 1, 1, 0, 4, 4, 3]
    r2 = MmixRandom(77)
    assert all(0 <= r2.below(10) < 10 for _ in range(200))


def test_random_ideal_is_deterministic():
    a = random_ideal(1, 4, 5, 2)
    b = random_ideal(1, 4, 5, 2)
    assert a.generators == b.generators
    assert [tuple(g.exps) for g in a.generators] == [
        (0, 0, 0, 2), (0, 1, 1, 0), (1, 0, 1, 0), (2, 2, 0, 0)]


def test_random_ideal_generators_form_antichain():
    for seed in range(1, 30):
        spec = random_ideal(seed, 5, 7, 3)
        gens = spec.generators
        for i, a in enumerate(gens):
            for j, b in enumerate(gens):
                if i != j:
                    assert not a.divides(b)
        # buildable without validation errors
        build_lcm_lattice(list(gens), spec.variables)


def quadratic_prune(monomials) -> tuple:
    """The pruning before degree order: every pair of distinct monomials."""
    unique = sorted(set(monomials))
    return tuple(m for m in unique
                 if not any(o != m and o.divides(m) for o in unique))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), min_size=3, max_size=3),
                min_size=1, max_size=40))
def test_prune_to_antichain_matches_the_quadratic_pruning(exponents):
    monomials = [Monomial(e) for e in exponents]
    assert _prune_to_antichain(monomials) == quadratic_prune(monomials)


def test_prune_refuses_an_antichain_at_the_lattice_cap(monkeypatch):
    # x^2, xy, y^2 is an antichain of three; z^2 makes a fourth
    monos = [Monomial(e) for e in
             [(2, 0, 0), (1, 1, 0), (0, 2, 0), (2, 1, 0), (0, 0, 2)]]
    monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", 5)
    assert len(_prune_to_antichain(monos)) == 4
    monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", 4)
    with pytest.raises(DomainError, match="at least 4 minimal generators"):
        _prune_to_antichain(monos)


def test_random_poset_is_poset_and_deterministic():
    for seed in range(1, 20):
        P = random_poset(seed, 6)
        Q = random_poset(seed, 6)
        assert P.n == 6
        for a in range(6):
            for b in range(6):
                assert P.le(a, b) == Q.le(a, b)


def test_example62_spec(example62_lattice):
    spec = ideal_example62()
    assert len(spec.generators) == 6
    assert spec.variables == ("a", "b", "c", "d", "e", "f")
    assert example62_lattice.n == 33
    assert spec.expected["totals"] == (1, 6, 11, 10, 5, 1)


def test_powers_spec():
    spec = ideal_powers(3, 2)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    assert L.n == 8
    assert spec.expected["t"] == (0, 2, 4, 6)


def test_powers_refuses_a_boolean_lattice_past_the_cap():
    # B_n has 2^n elements: B_11 fits the 2048-element cap, B_12 does not
    assert len(ideal_powers(11, 1).generators) == 11
    with pytest.raises(DomainError, match="more than 2048 elements"):
        ideal_powers(12, 1)


def test_kpq_spec_shapes():
    for (p, q, size) in ((3, 2, 21), (4, 2, 37), (4, 3, 45)):
        spec = ideal_kpq(p, q)
        assert len(spec.generators) == 1 + p + q
        L = build_lcm_lattice(list(spec.generators), spec.variables)
        assert L.n == size
        assert is_lattice(L)
    with pytest.raises(DomainError):
        ideal_kpq(2, 2)  # needs p > q
    with pytest.raises(DomainError):
        ideal_kpq(3, 1)  # needs q >= 2


def test_kpq_claimed_t_matches_computed():
    from synorres.resolution import betti_from_intervals
    for (p, q) in ((3, 2), (4, 2), (4, 3)):
        spec = ideal_kpq(p, q)
        L = build_lcm_lattice(list(spec.generators), spec.variables)
        T = betti_from_intervals(L, QQ)
        assert T.t_sequence() == tuple(spec.expected["t_claimed"])


def test_parse_ideal_text():
    text = "# comment\nvars: x y z\nx^2*y\n\nz\n"
    variables, gens = parse_ideal_text(text)
    assert variables == ("x", "y", "z")
    assert gens == (Monomial((2, 1, 0)), Monomial((0, 0, 1)))


def test_parse_ideal_text_errors():
    with pytest.raises(ValidationError):
        parse_ideal_text("x*y\n")  # missing vars header
    with pytest.raises(ValidationError):
        parse_ideal_text("vars: x y\nx*q\n")
    with pytest.raises(ValidationError):
        parse_ideal_text("vars: x y\n")  # no generators


def test_corpus_composition():
    specs = corpus_ideals()
    names = [s.name for s in specs]
    assert names[0] == "example62"
    assert sum(1 for n in names if n.startswith("powers")) == 12
    assert sum(1 for n in names if n.startswith("kpq")) == 3
    assert sum(1 for n in names if n.startswith("random")) == 50
    assert len(set(names)) == len(names)


def test_ideal_spec_format_roundtrip():
    spec = ideal_powers(2, 2)
    text = spec.format()
    variables, gens = parse_ideal_text(text)
    assert variables == spec.variables
    assert tuple(gens) == tuple(spec.generators)
