"""Interval ranks on bitmask facet complexes, against the other routes.

resolution.interval_ranks reads the homology of an open interval (0, x)
off the upper Koszul complex on an lcm lattice and off the atom
crosscut complex on any other lattice, both ranked by
chains.facet_ranks.  The other two routes are the synor complex's
generator counts (TopAnalysis.beta) and the order complex of the open
interval (all_homology_ranks), the oracle.
"""

import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synorres import chains
from synorres.algebra import DomainError, Monomial, PrimeField, RationalField
from synorres.chains import FACE_CAP, all_homology_ranks, facet_ranks
from synorres.cli import main
from synorres.corpus import random_ideal
from synorres.poset import (LcmLattice, Poset, build_lcm_lattice,
                            enumerate_lattices, open_interval)
from synorres.resolution import _betti_from_ranks, interval_ranks
from synorres.verify import DecompositionWitness, TopAnalysis
from test_acceptance import rp2_lattice

QQ = RationalField()
GF2, GF3 = PrimeField(2), PrimeField(3)


def nonzero(ranks):
    return {d: r for d, r in ranks.items() if r}


def three_routes(L, field):
    """For each element x above the bottom, (x, synor counts, order
    complex, interval_ranks), each a {degree: nonzero rank} dict."""
    ana = TopAnalysis(L, field)
    return [(x,
             {i - 2: ana.beta(i, x) for i in range(L.n + 2) if ana.beta(i, x)},
             nonzero(all_homology_ranks(open_interval(L, L.bottom, x), field)),
             nonzero(interval_ranks(L, x, field)))
            for x in range(L.n) if x != L.bottom]


def assert_routes_agree(L, field):
    for x, synor, order, facets in three_routes(L, field):
        assert synor == order == facets, (x, synor, order, facets)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 5), st.integers(1, 7),
       st.integers(1, 3), st.sampled_from([QQ, GF2, GF3]))
def test_koszul_ranks_agree_with_synors_and_order_complex(seed, n, g, emax,
                                                          field):
    spec = random_ideal(seed, n, g, emax)
    assert_routes_agree(
        build_lcm_lattice(list(spec.generators), spec.variables), field)


def test_koszul_ranks_see_the_torsion_of_rp2():
    # one lattice object across fields: the interval memo keeps them apart
    L = rp2_lattice()
    for field, totals in [(QQ, (1, 10, 15, 6)), (GF2, (1, 10, 15, 7, 1)),
                          (QQ, (1, 10, 15, 6))]:
        assert_routes_agree(L, field)
        table = _betti_from_ranks(L, lambda m: interval_ranks(L, m, field))
        assert table.totals() == totals


@pytest.mark.parametrize("field", [QQ, GF2], ids=["QQ", "GF2"])
def test_crosscut_ranks_equal_the_order_complex_on_small_lattices(field):
    checked = 0
    for n in range(2, 8):
        for L in enumerate_lattices(n):
            assert not isinstance(L, LcmLattice)
            for x in range(L.n):
                if x == L.bottom:
                    continue
                order = all_homology_ranks(open_interval(L, L.bottom, x),
                                           field)
                assert nonzero(interval_ranks(L, x, field)) == \
                    nonzero(order), (L.n, x)
                checked += 1
    assert checked == 422


def test_interval_ranks_keep_the_open_interval_contract(example62_lattice):
    L = example62_lattice
    with pytest.raises(IndexError):
        interval_ranks(L, L.n, QQ)
    with pytest.raises(IndexError):
        interval_ranks(L, -1, QQ)
    with pytest.raises(DomainError):
        interval_ranks(L, L.bottom, QQ)
    # an atom's interval is empty: the complex {empty face}
    assert interval_ranks(L, L.atoms[0], QQ) == {-1: 1}


def simplex(vertices):
    return sum(1 << v for v in vertices)


def test_facet_ranks_of_small_complexes():
    assert facet_ranks([], QQ, "void") == {}
    assert facet_ranks([0], QQ, "{empty face}") == {-1: 1}
    # the boundary of a triangle is a circle; a facet inside another drops
    circle = [simplex(e) for e in ((0, 1), (1, 2), (0, 2))] + [simplex([2])]
    assert nonzero(facet_ranks(circle, QQ, "circle")) == {1: 1}
    assert nonzero(facet_ranks([simplex(range(4))], GF2, "simplex")) == {}


def face_poset(facets):
    """The nonempty faces below facets, ordered by inclusion: its order
    complex is the barycentric subdivision, with the same homology."""
    faces = sorted({s for f in facets for s in range(1, f + 1) if s & f == s})
    return Poset([[a & b == a for b in faces] for a in faces])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 31), min_size=1, max_size=7),
       st.sampled_from([QQ, GF2]))
def test_facet_ranks_and_the_nerve_match_the_subdivision(facets, field):
    # facet_ranks ranks the complex or its nerve, whichever is smaller;
    # the order complex of each one's face poset is the oracle for both
    want = nonzero(all_homology_ranks(face_poset(facets), field))
    assert nonzero(facet_ranks(facets, field, "random")) == want
    nerve = chains._nerve_facets(chains._maximal_facets(facets))
    assert nonzero(all_homology_ranks(face_poset(nerve), field)) == want


def test_a_complex_of_few_large_facets_is_ranked_through_its_nerve():
    # two generators on disjoint sets of 15 variables: at the top, K^b is
    # two disjoint 14-simplices, bounding 2 * 2^15 faces, and its nerve
    # is two points; the order complex of (0, top) is two points too
    names = [f"x{v}" for v in range(30)]
    L = build_lcm_lattice([Monomial((1,) * 15 + (0,) * 15),
                           Monomial((0,) * 15 + (1,) * 15)], names)
    assert 2 << 15 > FACE_CAP
    start = time.process_time()
    assert nonzero(interval_ranks(L, L.top, QQ)) == {0: 1}
    assert time.process_time() - start < 1.0


def test_face_cap_refuses_before_listing_faces():
    # the boundary of the 15-simplex, 15 facets of 14 vertices, has
    # 2^15 - 1 faces, and its nerve is the same complex: both listings
    # stop once they pass the cap, long before the last face
    boundary = [simplex(range(15)) & ~(1 << v) for v in range(15)]
    assert (1 << 15) - 1 > FACE_CAP
    start = time.process_time()
    with pytest.raises(DomainError, match=(
            r"^interval ranks: refusing the sphere: it and its nerve each "
            rf"have more than {FACE_CAP} faces$")):
        facet_ranks(boundary, QQ, "sphere")
    assert time.process_time() - start < 0.1


def test_face_cap_counts_each_face_once():
    # the boundary of the 12-simplex: its facets bound 12 * 2^11 faces
    # with repeats, above the cap, but it has 2^12 - 1 faces, under it
    boundary = [simplex(range(12)) & ~(1 << v) for v in range(12)]
    assert (1 << 12) - 1 < FACE_CAP < 12 << 11
    assert nonzero(facet_ranks(boundary, QQ, "sphere")) == {10: 1}


def test_witness_check_raises_above_the_face_cap(example62_lattice,
                                                 monkeypatch):
    # invalid ids fail the check; a refused complex is not a failed check
    L = example62_lattice
    ana = TopAnalysis(L, QQ)
    w = ana.bruteforce(*ana.valid_triples()[0])
    monkeypatch.setattr(chains, "FACE_CAP", 1)
    with pytest.raises(DomainError, match="upper Koszul complex at"):
        DecompositionWitness(L, w.i1, w.i2, w.k, w.n1, L.top,
                             w.target).verify(GF3)


def pairs_lattice(n):
    """The lcm lattice of all products of two of n variables: every
    variable set of two or more, so 2^n - n elements."""
    names = [f"x{v}" for v in range(1, n + 1)]
    gens = [Monomial(tuple(int(v in pair) for v in range(n)))
            for pair in combinations(range(n), 2)]
    return build_lcm_lattice(gens, names)


def test_koszul_complex_of_few_faces_is_admitted_above_the_bound(
        tmp_path, capsys):
    # at the top of the 11-variable lattice (2037 elements), 55 facets of
    # 9 vertices bound 28160 faces with repeats, but K^b is the
    # 8-skeleton of the 10-simplex, 2036 faces, with H~_8 of rank 10
    L = pairs_lattice(11)
    assert L.n == 2037
    start = time.process_time()
    assert nonzero(interval_ranks(L, L.top, QQ)) == {8: 10}
    assert time.process_time() - start < 0.2
    # `resolve` certifies it and cross-checks every element's Koszul
    # ranks in 1.8-2.0 s of CPU (2-core x86, Python 3.11): lattice
    # 0.12-0.15, synor build 0.8-0.9, certification 0.16-0.17, Koszul
    # ranks 0.7-0.8
    names = [f"x{v}" for v in range(1, 12)]
    path = tmp_path / "pairs11.txt"
    path.write_text("vars: " + " ".join(names) + "\n" + "".join(
        f"{a}*{b}\n" for a, b in combinations(names, 2)))
    start = time.process_time()
    assert main(["resolve", str(path)]) == 0
    assert time.process_time() - start < 16.0
    out = capsys.readouterr().out
    assert out.endswith("certified\nbetti cross-check: ok\n")


def test_resolve_exits_1_naming_the_refused_complex(capsys, monkeypatch):
    # with the cap lowered, a refusal midway through `resolve`'s
    # cross-check reaches the command line as an error
    monkeypatch.setattr(chains, "FACE_CAP", 2)
    assert main(["resolve", "@example62"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: interval ranks: refusing the upper "
                          "Koszul complex at ")
    assert err.endswith(": it and its nerve each have more than 2 faces\n")
