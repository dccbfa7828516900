import math
import os
import subprocess
import sys
import time
from itertools import combinations, permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from synorres.algebra import (DimensionError, DomainError, Monomial,
                              ValidationError)
from synorres.corpus import (MmixRandom, ideal_example62, ideal_kpq,
                             ideal_powers, random_ideal, random_poset)
from synorres.poset import (Lattice, LcmLattice, Poset, _bounded_closure,
                            _canonical_code, _decode_canonical,
                            _invariants, _is_least, _lattice_tables,
                            _lex_keys, _lex_records, _natural_posets,
                            _smallest_first,
                            build_lcm_lattice,
                            canonical_form, enumerate_lattices,
                            is_isomorphic, is_lattice,
                            lattice_hash, open_interval, poset_from_json,
                            poset_to_json, without_bottom)

ROOT = Path(__file__).resolve().parents[1]


def boolean_lattice(n):
    """Subsets of {0..n-1} ordered by inclusion."""
    size = 1 << n
    leq = [[(a & b) == a for b in range(size)] for a in range(size)]
    return Lattice(leq)


def test_validation_rejects_non_poset():
    with pytest.raises(ValidationError):
        Poset([[True, True], [True, True]])  # antisymmetry fails
    with pytest.raises(ValidationError):
        Poset([[True, False], [False, False]])  # reflexivity fails


def test_covers_of_boolean_cube():
    B3 = boolean_lattice(3)
    cov = B3.covers()
    # n * 2^(n-1) cover relations in the n-cube
    assert len(cov) == 12
    for a, b in cov:
        assert B3.lt(a, b)
        assert not any(B3.lt(a, c) and B3.lt(c, b) for c in range(B3.n))


def covers_by_matrix(P):
    """Poset.covers before the up-set masks, kept as the reference: the
    strict order minus its square."""
    lt = P.leq & ~np.eye(P.n, dtype=bool)
    return [(int(i), int(j)) for i, j in np.argwhere(lt & ~(lt @ lt))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10))
def test_covers_match_the_matrix_formula(relabel, seed, n):
    P = random_poset(seed, n)
    for Q in (P, relabel(P, seed)):
        assert Q.covers() == covers_by_matrix(Q)


def test_covers_of_enumerated_lattices_match_the_matrix_formula():
    for n in range(2, 9):
        for L in enumerate_lattices(n):
            assert L.covers() == covers_by_matrix(L)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10))
def test_chains_come_in_lexicographic_order(relabel, seed, n):
    # linalg pivots on least keys, so chain bases must sort in basis order,
    # also when the ids are not a linear extension
    P = random_poset(seed, n)
    for Q in (P, relabel(P, seed)):
        for d in range(-1, Q.max_chain_dim() + 2):
            assert Q.chains(d) == sorted(Q.chains(d))


def test_linear_extension_is_monotone():
    B3 = boolean_lattice(3)
    order = B3.linear_extension()
    pos = {x: i for i, x in enumerate(order)}
    for a in range(B3.n):
        for b in range(B3.n):
            if B3.lt(a, b):
                assert pos[a] < pos[b]


def test_chains_of_boolean_cube():
    B2 = boolean_lattice(2)
    assert B2.chains(-1) == [()]
    assert sorted(B2.chains(0)) == [(0,), (1,), (2,), (3,)]
    # maximal chains of B2 have dimension 2
    assert B2.max_chain_dim() == 2
    for key in B2.chains(1):
        assert B2.lt(key[1], key[0])


def test_sub_origin_roundtrip():
    B3 = boolean_lattice(3)
    ids = [0, 1, 2, 3]
    Q = B3.sub(ids)
    assert Q.n == 4
    assert [Q.origin[i] for i in range(Q.n)] == ids
    for a in range(Q.n):
        for b in range(Q.n):
            assert Q.le(a, b) == B3.le(Q.origin[a], Q.origin[b])


def test_join_meet_tables():
    B3 = boolean_lattice(3)
    assert B3.bottom == 0
    assert B3.top == 7
    assert B3.join_of(1, 2) == 3
    assert B3.join_of(B3.join_of(1, 2), 4) == 7


def test_is_lattice_rejects_diamondless():
    # two incomparable elements with no common upper bound
    leq = [[True, False], [False, True]]
    assert not is_lattice(Poset(leq))
    # the same above a bottom: the join check alone must reject it
    leq = [[True, True, True], [False, True, False], [False, False, True]]
    assert not is_lattice(Poset(leq))
    with pytest.raises(DomainError):
        Lattice(leq)


def test_all_joins_without_bottom_is_not_a_lattice():
    # two minimal elements below one top: every pair has a join, no meet
    leq = [[True, False, True], [False, True, True], [False, False, True]]
    assert not is_lattice(Poset(leq))
    with pytest.raises(DomainError):
        Lattice(leq)


def brute_force_join(P, a, b):
    """The least upper bound of a and b read straight off leq."""
    ubs = [c for c in range(P.n) if P.le(a, c) and P.le(b, c)]
    least = [c for c in ubs if all(P.le(c, d) for d in ubs)]
    assert len(least) == 1
    return least[0]


def seeded_permutation(seed, n):
    """Fisher-Yates shuffle of range(n) from the corpus generator."""
    rng = MmixRandom(seed)
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def relabeled(P, perm):
    """P with new id k standing for old id perm[k]."""
    perm = np.array(perm, dtype=int)
    return P.leq[np.ix_(perm, perm)]


def test_join_table_equals_brute_force_least_upper_bound():
    B3 = boolean_lattice(3)
    perm = [7, 3, 0, 5, 1, 6, 2, 4]  # the top first: not a linear extension
    lattices = [Lattice(relabeled(B3, perm))]
    for n in range(2, 7):
        lattices.extend(enumerate_lattices(n))
    for L in lattices:
        for a in range(L.n):
            for b in range(L.n):
                assert L.join_of(a, b) == brute_force_join(L, a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(1, 10**6), n=st.integers(0, 9))
def test_join_classes_group_elements_by_their_least_upper_bound(seed, n):
    # random posets miss joins; relabeled so ids are not an extension
    P = Poset(relabeled(random_poset(seed, n), seeded_permutation(seed, n)))
    order = P.linear_extension()
    for a in range(P.n):
        none, joins = P.join_classes(a)
        want_none, want = 0, {}
        for r, y in enumerate(order):
            ubs = [c for c in range(P.n) if P.le(a, c) and P.le(y, c)]
            least = [c for c in ubs if all(P.le(c, d) for d in ubs)]
            if least:
                want[least[0]] = want.get(least[0], 0) | 1 << r
            else:
                want_none |= 1 << r
        assert none == want_none
        assert dict(joins) == want


def lattice_by_definition(P):
    """Nonempty, with a bottom and a least upper bound for every pair."""
    def has_join(a, b):
        ubs = [c for c in range(P.n) if P.le(a, c) and P.le(b, c)]
        return any(all(P.le(c, d) for d in ubs) for c in ubs)
    return (P.n > 0 and any(all(P.le(x, y) for y in range(P.n))
                            for x in range(P.n))
            and all(has_join(a, b) for a in range(P.n) for b in range(P.n)))


def natural_posets(m):
    """Every poset on m elements whose id order is a linear extension, as
    tuples of bitmasks down[i] = {j : j <= i} (including i), in
    lexicographic order: the unpruned stream that `poset._natural_posets`
    walks.  Element i is appended with each downward-closed strict
    down-set, in ascending order."""
    def rec(down):
        k = len(down)
        if k == m:
            yield down
            return
        masks = [0]
        for i in range(k):
            masks += [mask | 1 << i for mask in masks
                      if down[i] & ~mask == 1 << i]
        for mask in masks:
            yield from rec(down + (mask | 1 << k,))

    yield from rec(())


CLOSURES = [_bounded_closure(down, m) for m in range(7)
            for down in natural_posets(m)]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(1, 10**6), n=st.integers(0, 7),
       pick=st.integers(0, len(CLOSURES) - 1), closure=st.booleans())
def test_lattice_test_matches_the_definition(seed, n, pick, closure):
    if closure:  # a bottom and a top: non-lattices only by a missing join
        up = CLOSURES[pick]
        n = len(up)
        leq = [[bool(up[x] >> y & 1) for y in range(n)] for x in range(n)]
    else:
        leq = random_poset(seed, n).leq
    # relabeled so that ids are not a linear extension
    P = Poset(relabeled(Poset(leq), seeded_permutation(seed, n)))
    expected = lattice_by_definition(P)
    assert is_lattice(P) == expected
    if not expected:
        with pytest.raises(DomainError):
            Lattice(P.leq)
        return
    L = Lattice(P.leq)
    for a in range(n):
        for b in range(n):
            assert L.join_of(a, b) == brute_force_join(L, a, b)


@pytest.mark.parametrize("spec", [
    ideal_example62(), ideal_kpq(3, 2), random_ideal(3, 4, 6, 3)],
    ids=lambda s: s.name)
def test_lcm_lattice_order_and_join_are_divisibility_and_lcm(spec):
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    mons = L.monomials
    for a in range(L.n):
        for b in range(L.n):
            assert L.le(a, b) == mons[a].divides(mons[b])
            assert mons[L.join_of(a, b)] == mons[a].lcm(mons[b])
    back = poset_from_json(poset_to_json(L))
    for M in (L, back):
        assert all(M.index[M.monomials[i]] == i for i in range(M.n))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(1, 10**6), nvars=st.integers(1, 6),
       gens=st.integers(1, 8), emax=st.integers(1, 3))
def test_lcm_lattice_leq_is_divisibility(seed, nvars, gens, emax):
    spec = random_ideal(seed, nvars, gens, emax)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    mons = L.monomials
    want = [[a.divides(b) for b in mons] for a in mons]
    assert L.leq.dtype == bool
    assert L.leq.tolist() == want


def loop_canonical_form(P):
    """Least big-endian code of leq over all linear-extension relabelings,
    with bit a*n + b set iff the elements at positions a, b are related."""
    n, best = P.n, None
    for perm in permutations(range(n)):
        if any(P.lt(perm[a], perm[b]) for a in range(n) for b in range(a)):
            continue
        bits = sum(1 << (a * n + b) for a in range(n) for b in range(n)
                   if P.le(perm[a], perm[b]))
        code = bits.to_bytes((n * n + 7) // 8, "big")
        best = code if best is None or code < best else best
    return best


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(1, 10**6), n=st.integers(0, 6))
@example(seed=1, n=0)  # the empty poset: its code is b""
def test_canonical_form_matches_bit_loop_reference(seed, n):
    P = Poset(relabeled(random_poset(seed, n), seeded_permutation(seed, n)))
    form = canonical_form(P)
    assert form == loop_canonical_form(P)
    bits = int.from_bytes(form, "big")
    decoded = [[bool(bits >> (a * n + b) & 1) for b in range(n)]
               for a in range(n)]
    assert _decode_canonical(form, n).tolist() == decoded


def unpruned_canonical_code(up) -> bytes:
    """`_canonical_code` without the twin rule: every available element
    is tried at every position."""
    n = len(up)
    strict_up = [u & ~(1 << x) for x, u in enumerate(up)]
    code = 0
    states = [(0, (0,) * n)]
    for a in range(n - 1, -1, -1):
        best, ties = None, []
        for placed, posbit in states:
            for x in range(n):
                above = strict_up[x]
                if placed >> x & 1 or above & ~placed:
                    continue
                row = 1 << a
                while above:
                    low = above & -above
                    row |= posbit[low.bit_length() - 1]
                    above ^= low
                if best is None or row < best:
                    best, ties = row, []
                if row == best:
                    bits = list(posbit)
                    bits[x] = 1 << a
                    ties.append((placed | 1 << x, tuple(bits)))
        code = code << n | best
        states = ties
    return code.to_bytes((n * n + 7) // 8, "big")


def test_twin_pruned_code_equals_the_unpruned_code():
    # every lattice that enumerate_lattices codes for n <= 9, as the walk
    # hands it over and relabeled so that ids are not an extension
    for n in range(2, 10):
        for i, down in enumerate(_natural_posets(n - 2)):
            up = _bounded_closure(down, n - 2)
            assert _canonical_code(up) == unpruned_canonical_code(up)
            perm = seeded_permutation(1000 * n + i, n)
            at = {x: k for k, x in enumerate(perm)}  # old id -> new id
            up = [sum(1 << at[y] for y in range(n) if up[x] >> y & 1)
                  for x in perm]
            assert _canonical_code(up) == unpruned_canonical_code(up)


def test_canonical_form_is_fixed_and_invariant_on_enumerated_lattices():
    # tie-heavy inputs: M6 (bottom, six atoms, top) has 720 automorphisms
    for n in range(2, 9):
        for i, L in enumerate(enumerate_lattices(n)):
            form = canonical_form(L)
            own = np.packbits(L.leq, axis=None,
                              bitorder="little")[::-1].tobytes()
            assert form == own
            perm = seeded_permutation(1000 * n + i, n)
            assert canonical_form(Poset(relabeled(L, perm))) == form


def test_bounded_closure_matches_bit_loop_reference():
    for m in range(4):
        for down in natural_posets(m):
            up = _bounded_closure(down, m)
            n = m + 2
            # leq[x, y] is bit y of up[x]
            leq = [[bool(up[x] >> y & 1) for y in range(n)] for x in range(n)]
            for i in range(m):
                for j in range(m):
                    assert leq[1 + j][1 + i] == bool(down[i] >> j & 1)
            assert all(leq[0]) and all(row[m + 1] for row in leq)
            assert all(leq[x][x] for x in range(n))


def min_available_extension(P):
    """The smallest id among elements with no unplaced element below."""
    remaining = set(range(P.n))
    out = []
    while remaining:
        nxt = min(i for i in remaining
                  if not any(P.lt(j, i) for j in remaining))
        out.append(nxt)
        remaining.remove(nxt)
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(1, 10**6), n=st.integers(0, 12))
def test_linear_extension_is_smallest_available_first(seed, n):
    # random_poset's ids are a linear extension, and so are the ids of a
    # random relabeling relabeled along its heap walk: leq is upper
    # triangular, and the ids in order must be what the heap walk gives
    P = random_poset(seed, n)
    Q = Poset(relabeled(P, seeded_permutation(seed, n)))
    R = Poset(relabeled(Q, _smallest_first(Q.leq)))
    assert not np.tril(R.leq, -1).any()
    assert P.linear_extension() == R.linear_extension() == tuple(range(n))
    for S in (P, Q, R):
        assert S.linear_extension() == min_available_extension(S) == \
            _smallest_first(S.leq)


def random_exponent_rows(seed, nvars, size, emax):
    """size rows over nvars variables of exponents up to emax, distinct
    and in lexicographic order, their top, and size query rows at most
    their top."""
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.integers(0, emax + 1, (size, nvars)), axis=0)
    rows = rows[np.lexsort(rows.T[::-1])]
    top = rows.max(axis=0)
    return rows, top, rng.integers(0, top + 1, (size, nvars))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(1, 10**6), nvars=st.integers(1, 6),
       size=st.integers(1, 60), emax=st.sampled_from([1, 2, 5, 2**20, 2**40]))
def test_lex_codes_find_what_lex_records_find(seed, nvars, size, emax):
    # int64 codes while the radices' product is below 2^63, records past it
    rows, top, queries = random_exponent_rows(seed, nvars, size, emax)
    keys = _lex_keys(rows, top)
    if math.prod(int(t) + 1 for t in top) < 2**63:
        assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    else:
        assert keys.dtype == _lex_records(rows).dtype
    assert np.searchsorted(keys, _lex_keys(queries, top)).tolist() == \
        np.searchsorted(_lex_records(rows), _lex_records(queries)).tolist()


def test_lcm_lattice_of_cycle_ideal(cycle_lattice):
    L = cycle_lattice
    assert L.n == 5
    labels = [L.format_label(i) for i in range(L.n)]
    assert labels == ["1", "y*z", "x*z", "x*y", "x*y*z"]
    assert L.bottom == 0 and L.top == 4
    assert sorted(L.atoms) == [1, 2, 3]
    # join = lcm through the monomial labels
    j = L.join_of(1, 2)
    assert L.monomials[j] == Monomial((1, 1, 1))


def test_lcm_lattice_requires_minimal_generators():
    with pytest.raises(ValidationError):
        # duplicate generator is redundant
        build_lcm_lattice(
            [Monomial((1, 0)), Monomial((1, 0))], ("x", "y"))
    with pytest.raises(ValidationError):
        # x divides xy
        build_lcm_lattice([Monomial((1, 0)), Monomial((1, 1))], ("x", "y"))
    with pytest.raises(DimensionError):
        build_lcm_lattice([Monomial((1, 0))], ("x",))
    with pytest.raises(ValidationError):
        build_lcm_lattice([Monomial.one(2)], ("x", "y"))


def test_lcm_lattice_size_cap(monkeypatch):
    import synorres.poset as poset_module

    spec = ideal_powers(3, 1)  # B3: 8 elements
    gens = list(spec.generators)
    monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", 3)
    with pytest.raises(DomainError, match="more than 3 elements"):
        build_lcm_lattice(gens, spec.variables)  # 3 generators need 4
    monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", 7)
    with pytest.raises(DomainError, match="more than 7 elements"):
        build_lcm_lattice(gens, spec.variables)  # caught in the closure
    monkeypatch.setattr(poset_module, "LCM_LATTICE_CAP", 8)
    assert build_lcm_lattice(gens, spec.variables).n == 8


def minimal_rows(exps) -> list[tuple]:
    """The distinct nonzero rows of exps that no other row divides."""
    rows = {tuple(r) for r in exps.tolist() if any(r)}
    return sorted(r for r in rows
                  if not any(s != r and all(map(int.__le__, s, r))
                             for s in rows))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(1, 10**6), nvars=st.integers(1, 5),
       size=st.integers(1, 8), big=st.booleans())
def test_lcm_closure_is_every_subset_lcm(seed, nvars, size, big):
    # brute force over all subsets; with big, every nonzero exponent is
    # 2^33 or more, so two variables put the radices' product past 2^63
    # and the closure keys its rows by _lex_records; e -> e 2^33 + 4 - e
    # keeps the order of 1, 2, 3 but reverses that of their low bytes
    rng = np.random.default_rng(seed)
    exps = rng.integers(0, 4, (size, nvars))
    if big:
        exps = np.where(exps > 0, exps * 2**33 + 4 - exps, 0)
    gens = minimal_rows(exps)
    assume(gens)
    L = build_lcm_lattice([Monomial(g) for g in gens],
                          tuple(f"x{v}" for v in range(nvars)))
    lcms = {(0,) * nvars}
    for r in range(1, len(gens) + 1):
        for subset in combinations(gens, r):
            lcms.add(tuple(max(col) for col in zip(*subset)))
    assert L.exps.tolist() == [list(e) for e in sorted(lcms)]
    assert [m.exps for m in L.monomials] == sorted(lcms)
    assert sorted(L.monomials[a].exps for a in L.atoms) == gens
    top = L.exps[L.top]
    if big and (top > 0).sum() >= 2:
        assert _lex_keys(L.exps, top).dtype.names is not None


def test_lcm_closure_leaves_numpy_ma_unimported():
    # np.unique and np.isin import numpy.ma on first use, which costs
    # resident memory in every process that builds a lattice
    code = ("import sys\n"
            "from synorres.cli import lattice_of, load_ideal\n"
            "L = lattice_of(load_ideal('@kpq:7,3'))\n"
            "assert L.n == 269\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_oversized_lcm_lattice_fails_before_the_minimality_scan():
    # B_1200 passes the cap early in the closure; the quadratic minimality
    # scan over 1200 generators of length 1200 would take tens of seconds;
    # ideal_powers refuses B_1200 itself, so the generators are built here
    gens = [Monomial(tuple(int(j == i) for j in range(1200)))
            for i in range(1200)]
    variables = tuple(f"x{i + 1}" for i in range(1200))
    start = time.perf_counter()
    with pytest.raises(DomainError, match="more than 2048 elements"):
        build_lcm_lattice(gens, variables)
    assert time.perf_counter() - start < 5.0


def test_example62_lattice_size(example62_lattice):
    assert example62_lattice.n == 33


def test_ids_in_lex_order(example62_lattice):
    L = example62_lattice
    exps = [m.exps for m in L.monomials]
    assert exps == sorted(exps)
    assert L.bottom == 0
    assert L.top == L.n - 1


def test_open_interval_and_without_bottom(cycle_lattice):
    L = cycle_lattice
    inside = open_interval(L, L.bottom, L.top)
    assert inside.n == L.n - 2 == 3  # the three atoms
    upper = without_bottom(L)
    assert upper.n == L.n - 1
    assert upper.origin == tuple(range(1, L.n))  # L's ids, bottom 0 left out


def test_a_run_of_ids_shares_the_frozen_matrix():
    # without_bottom of a lattice with bottom 0 is a view of L's matrix;
    # other id sets, and writable matrices, are copied
    L = build_lcm_lattice(list(ideal_kpq(3, 2).generators),
                          ideal_kpq(3, 2).variables)
    upper = without_bottom(L)
    assert np.shares_memory(upper.leq, L.leq)
    assert (upper.leq == L.leq[1:, 1:]).all() and not upper.leq.flags.writeable
    gappy = L.sub([0, 2, 3])
    assert not np.shares_memory(gappy.leq, L.leq)
    assert (gappy.leq == L.leq[np.ix_([0, 2, 3], [0, 2, 3])]).all()
    leq = np.eye(3, dtype=bool)
    P = Poset(leq)
    leq[0, 1] = True
    assert leq.flags.writeable and not P.leq[0, 1]


def test_without_bottom_has_the_lattice_joins():
    # no two elements above the bottom join to it, so the poset that
    # carries the synor complex answers every join as L does, relabelled
    lattices = [build_lcm_lattice(list(spec.generators), spec.variables)
                for spec in (ideal_example62(), ideal_kpq(3, 2))]
    lattices += list(enumerate_lattices(6))
    for L in lattices:
        P = without_bottom(L)
        to_L = P.origin
        for a in range(P.n):
            for b in range(P.n):
                assert to_L[P.join_of(a, b)] == L.join_of(to_L[a], to_L[b])


def test_enumeration_counts():
    # lattices on n elements up to isomorphism: OEIS A006966
    counts = [len(list(enumerate_lattices(n))) for n in range(2, 10)]
    assert counts == [1, 1, 2, 5, 15, 53, 222, 1078]


def test_enumeration_tests_only_the_children_of_kept_middle_posets(
        monkeypatch):
    # the pruned walk tests 828 children at n = 8; the unpruned stream of
    # naturally labeled middle posets has 4,824 candidates
    calls = []

    def counted(order, up):
        calls.append(up)
        return _lattice_tables(order, up)

    monkeypatch.setattr("synorres.poset._lattice_tables", counted)
    assert len(list(enumerate_lattices(8))) == 222
    assert len(calls) == 828


def code_every_candidate(n):
    """Enumeration by coding every lattice candidate with
    `_canonical_code` and keeping the first candidate of each code."""
    seen = set()
    for down in natural_posets(n - 2):
        up = _bounded_closure(down, n - 2)
        if not _lattice_tables(range(n), up):
            continue
        form = _canonical_code(up)
        if form not in seen:
            seen.add(form)
            yield _decode_canonical(form, n).tobytes()


@pytest.mark.parametrize("n", range(2, 9))
def test_enumeration_matches_code_every_candidate_reference(n):
    found = [L.leq.tobytes() for L in enumerate_lattices(n)]
    assert found == list(code_every_candidate(n))


def test_natural_posets_are_distinct_with_a006455_counts():
    # naturally labeled posets on m elements: OEIS A006455
    for m, count in enumerate([1, 1, 2, 7, 40, 357, 4824]):
        downs = list(natural_posets(m))
        assert len(downs) == len(set(downs)) == count
        assert downs == sorted(downs)


def test_least_labelings_are_the_first_candidates_of_their_class():
    for m, classes in enumerate([1, 1, 2, 5, 16, 63, 318]):  # A000112
        downs = list(natural_posets(m))
        first = {}
        for down in downs:
            first.setdefault(_canonical_code(_bounded_closure(down, m)), down)
        least = [down for down in downs if _is_least(down)]
        assert least == list(first.values())
        assert len(least) == classes
        for down in least:
            assert all(_is_least(down[:k]) for k in range(m))


def test_enumerated_are_lattices_pairwise_nonisomorphic():
    found = list(enumerate_lattices(6))
    for L in found:
        assert is_lattice(L)
        assert L.n == 6
    for i in range(len(found)):
        for j in range(i + 1, len(found)):
            assert not is_isomorphic(found[i], found[j])


def test_isomorphism_detects_relabeling():
    B2 = boolean_lattice(2)
    perm = [3, 1, 2, 0]
    leq = [[B2.le(perm[a], perm[b]) for b in range(4)] for a in range(4)]
    assert is_isomorphic(B2, Lattice(leq))
    assert not is_isomorphic(B2, boolean_lattice(3))


def crown(cycles):
    """A height-1 poset on 6 minimal elements 0..5 and 6 maximal ones
    6..11 whose comparability graph is a union of even cycles, one of
    2k elements per k in cycles: minimal i lies below maximal 6 + i and
    below the next maximal of its cycle."""
    leq = np.eye(12, dtype=bool)
    start = 0
    for k in cycles:
        for i in range(start, start + k):
            leq[i, 6 + i] = True
            leq[i, 6 + start + (i - start + 1) % k] = True
        start += k
    return Poset(leq)


def test_isomorphism_backtracks_past_equal_invariants():
    # a 12-cycle and two 6-cycles: every element has the same invariants,
    # so only the backtracking search tells them apart
    one, two = crown([6]), crown([3, 3])
    assert sorted(_invariants(one)) == sorted(_invariants(two))
    assert not is_isomorphic(one, two)
    assert canonical_form(one) != canonical_form(two)
    # a relabeled 12-cycle is found isomorphic, also by canonical form
    perm = np.random.default_rng(7).permutation(12)
    moved = Poset(one.leq[np.ix_(perm, perm)])
    assert is_isomorphic(one, moved) and is_isomorphic(moved, one)
    assert canonical_form(one) == canonical_form(moved)


def test_json_roundtrip(cycle_lattice):
    data = poset_to_json(cycle_lattice)
    back = poset_from_json(data)
    assert back.n == cycle_lattice.n
    for a in range(back.n):
        for b in range(back.n):
            assert back.le(a, b) == cycle_lattice.le(a, b)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(1, 10**6), nvars=st.integers(1, 6),
       gens=st.integers(1, 8), emax=st.integers(1, 3))
def test_lcm_json_round_trip_rebuilds_the_same_lattice(seed, nvars, gens,
                                                       emax):
    spec = random_ideal(seed, nvars, gens, emax)
    L = build_lcm_lattice(list(spec.generators), spec.variables)
    back = poset_from_json(poset_to_json(L))
    assert type(back) is LcmLattice
    assert back.monomials == L.monomials
    assert (back.leq == L.leq).all()
    assert back.atoms == L.atoms
    assert back.exps.tolist() == L.exps.tolist()
    assert lattice_hash(back) == lattice_hash(L)


def test_plain_and_enumerated_posets_round_trip_without_lcm_data():
    plain = [random_poset(seed, 5 + seed) for seed in range(1, 6)]
    for P in [*plain, *enumerate_lattices(5)]:
        back = poset_from_json(poset_to_json(P))
        assert type(back) is (Lattice if is_lattice(P) else Poset)
        assert (back.leq == P.leq).all()


@pytest.mark.parametrize("data", [
    {"n": 4, "covers": [[0, 1], [1, 2], [2, 3]],
     "labels": ["1", "x", "y", "x*y"], "variables": ["x", "y"]},
    {"n": 3, "covers": [[0, 1], [1, 2]],
     "labels": ["1", "x", "x^2"], "variables": ["x"]},
    {"n": 1, "covers": [], "labels": ["1"], "variables": ["x"]},
    {"n": 4, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
     "labels": ["1", "x", "y", "x*y"], "variables": ["x", "y"]},
    {"n": 5, "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
     "labels": ["1", "y", "x", "x*y"], "variables": ["x", "y"]},
    {"n": -1, "covers": []},
], ids=["chain-covers", "not-lcm-closed", "bottom-alone", "not-lex-order",
        "label-count", "negative-n"])
def test_json_refuses_what_build_lcm_lattice_would_not_make(data):
    with pytest.raises(ValidationError):
        poset_from_json(data)


def test_json_refuses_a_dump_with_a_cover_dropped(example62_lattice):
    data = poset_to_json(example62_lattice)
    for k in (0, len(data["covers"]) // 2, -1):
        covers = list(data["covers"])
        del covers[k]
        with pytest.raises(ValidationError):
            poset_from_json(dict(data, covers=covers))


def test_lcm_lattice_keeps_a_read_only_int64_exponent_matrix():
    L = build_lcm_lattice([Monomial((2**63 - 1, 0)), Monomial((0, 1))],
                          ("x", "y"))
    assert L.exps.dtype == np.int64 and not L.exps.flags.writeable
    assert L.exps.tolist() == [list(m.exps) for m in L.monomials]
    with pytest.raises(DomainError, match=r"exponent of 2\^63 or more"):
        build_lcm_lattice([Monomial((2**63, 0)), Monomial((0, 1))],
                          ("x", "y"))


def test_lattice_hash_is_isomorphism_invariant():
    B2 = boolean_lattice(2)
    perm = [0, 2, 1, 3]
    leq = [[B2.le(perm[a], perm[b]) for b in range(4)] for a in range(4)]
    assert lattice_hash(B2) == lattice_hash(Lattice(leq))
    assert lattice_hash(B2) != lattice_hash(boolean_lattice(3))
