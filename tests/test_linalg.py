import random
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

import synorres.chains as chains
import synorres.linalg as linalg

from synorres.algebra import PrimeField, RationalField
from synorres.chains import all_homology_ranks, boundary_key
from synorres.corpus import random_poset
from synorres.linalg import (HomologyBasis, Reducer, cleared_spans,
                             complex_homology, eliminate, homology_of_complex,
                             kernel_basis, rank_of, solve)

QQ = RationalField()


# sparse-vector arithmetic for building reference combinations below

def vec_add(a: dict, b: dict, p: int = 0) -> dict:
    """a + b, mod p unless p is 0."""
    out = dict(a)
    for k, v in b.items():
        w = out.get(k)
        w = v if w is None else w + v
        if p:
            w %= p
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def vec_scale(a: dict, s, p: int = 0) -> dict:
    """s * a, mod p unless p is 0."""
    if not s:
        return {}
    return {k: v * s % p if p else v * s for k, v in a.items()}


def vec_sub(a: dict, b: dict) -> dict:
    return vec_add(a, {k: -v for k, v in b.items()})


def to_cols(rows, field):
    """Row-major integer matrix -> list of column dicts."""
    cols = []
    for j in range(len(rows[0])):
        col = {}
        for i, row in enumerate(rows):
            if row[j]:
                col[i] = field.of(row[j])
        cols.append(col)
    return cols


def test_rank_known_matrix():
    cols = to_cols([[1, 2, 3], [2, 4, 6], [1, 1, 1]], QQ)
    assert rank_of(cols, QQ) == 2


def test_rank_mod_p_differs():
    # rank drops mod 2: the two columns coincide there
    F2 = PrimeField(2)
    cols_q = to_cols([[1, 3], [2, 4]], QQ)
    cols_2 = to_cols([[1, 3], [2, 4]], F2)
    assert rank_of(cols_q, QQ) == 2
    assert rank_of(cols_2, F2) == 1


def test_kernel_basis_annihilates():
    rows = [[1, 2, 0, 1], [0, 1, 1, 0], [1, 3, 1, 1]]
    cols = to_cols(rows, QQ)
    basis = kernel_basis(dict(enumerate(cols)), QQ)
    assert len(basis) == 4 - rank_of(cols, QQ)
    for vec in basis:
        out = {}
        for j, c in vec.items():
            out = vec_add(out, vec_scale(cols[j], c))
        assert out == {}


def test_solve_finds_combination():
    cols = to_cols([[1, 0], [1, 1], [0, 2]], QQ)
    target = {0: QQ.of(3), 1: QQ.of(4), 2: QQ.of(2)}
    x = solve(dict(enumerate(cols)), target, QQ)
    assert x is not None
    out = {}
    for j, c in x.items():
        out = vec_add(out, vec_scale(cols[j], c))
    assert out == target


def test_solve_detects_inconsistency():
    cols = to_cols([[1], [2], [0]], QQ)
    assert solve(dict(enumerate(cols)), {2: QQ.one}, QQ) is None


def row_keyed(vec: dict) -> dict:
    """vec re-keyed by tuples that sort like its int keys."""
    return {(i // 2, i % 2): v for i, v in vec.items()}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=5),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]),
       st.lists(st.integers(-2, 2), min_size=4, max_size=4))
def test_keyed_solve_and_kernel_basis_follow_their_keys(rows, field, x):
    # results come back keyed by column key, and keys that sort like the
    # positions give the positions' results
    p = field.modulus
    cols = [{i: v for i, v in c.items() if v} for c in to_cols(rows, field)]
    keyed = {("c", j): row_keyed(c) for j, c in enumerate(cols)}

    def image(vec, columns):
        out = {}
        for key, c in vec.items():
            out = vec_add(out, vec_scale(columns[key], c, p), p)
        return out
    kernel = kernel_basis(keyed, field)
    assert kernel == [{("c", j): v for j, v in vec.items()}
                      for vec in kernel_basis(dict(enumerate(cols)), field)]
    assert len(kernel) == len(cols) - rank_of(cols, field)
    for vec in kernel:
        assert vec[max(vec)] == field.one and image(vec, keyed) == {}
    target = image({j: field.of(c) for j, c in enumerate(x)},
                   dict(enumerate(cols)))
    sol = solve(keyed, row_keyed(target), field)
    assert sol == {("c", j): v for j, v in
                   solve(dict(enumerate(cols)), target, field).items()}
    assert image(sol, keyed) == row_keyed(target)
    assert solve(keyed, {(9, 0): field.one}, field) is None


matrices = st.lists(
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    min_size=1, max_size=5)


@settings(max_examples=60)
@given(matrices, st.sampled_from([QQ, PrimeField(5)]))
def test_reducer_witness_reconstructs(rows, field):
    cols = to_cols(rows, field)
    red = Reducer(field)
    for j, col in enumerate(cols):
        residue, wit = red.reduce(col, {j: field.one})
        # the witness is a certificate: applying it to the originals
        # reproduces the residue
        acc = {}
        p = field.modulus
        for i, c in wit.items():
            acc = vec_add(acc, vec_scale(cols[i], c, p), p)
        assert acc == residue
        if residue:
            red.insert(residue, wit)
    assert red.rank == rank_of(cols, field)


def reference_axpy(target: dict, c, source: dict, p: int):
    """target -= c * source, in place, dropping zeros; mod p unless p is 0."""
    for k, v in source.items():
        w = target.get(k)
        w = -(c * v) if w is None else w - c * v
        if p:
            w %= p
        if w:
            target[k] = w
        else:
            target.pop(k, None)


class ReferenceReducer:
    """Reducer as it was with one reference_axpy call per row update: the
    reference for the inlined loops, whose rows, witnesses and key order
    must match it exactly."""

    def __init__(self, field):
        self.field = field
        self.rows: dict = {}
        self.wits: dict = {}

    def reduce(self, vec: dict, wit: dict | None = None):
        p = self.field.modulus
        vec = dict(vec)
        wit = dict(wit) if wit is not None else None
        for piv in sorted(k for k in vec if k in self.rows):
            c = vec.get(piv)
            if not c:
                continue
            reference_axpy(vec, c, self.rows[piv], p)
            if wit is not None:
                reference_axpy(wit, c, self.wits[piv], p)
        return vec, wit

    def _store(self, vec: dict, wit: dict | None):
        piv = min(vec)
        inv = self.field.inverse(vec[piv])
        p = self.field.modulus
        wit = {} if wit is None else wit
        if inv != 1:
            vec = {k: v * inv % p if p else v * inv for k, v in vec.items()}
            wit = {k: v * inv % p if p else v * inv for k, v in wit.items()}
        for q, row in self.rows.items():
            c = row.get(piv)
            if c:
                reference_axpy(row, c, vec, p)
                if wit:
                    reference_axpy(self.wits[q], c, wit, p)
        self.rows[piv] = vec
        self.wits[piv] = wit
        return piv

    def insert(self, vec: dict, wit: dict | None = None):
        vec, wit = self.reduce(vec, wit)
        if not vec:
            return None
        return self._store(vec, wit)


def reference_kernel(columns: dict, red: ReferenceReducer) -> list[dict]:
    kernel = []
    for key, col in columns.items():
        residual, wit = red.reduce(col, {key: red.field.one})
        if residual:
            red._store(residual, wit)
        else:
            kernel.append(wit)
    return kernel


def reference_cycles(cols: dict, above, rank: int, field) -> list[dict]:
    """representative_cycles by the echelon reps at every rank."""
    cycles = []
    reps = ReferenceReducer(field)
    for z in reference_kernel(cols, ReferenceReducer(field)):
        piv = reps.insert(above.reduce(z)[0])
        if piv is not None:
            cycles.append(dict(reps.rows[piv]))
            if len(cycles) == rank:
                break
    return cycles


def ordered(vectors) -> list:
    """Vectors as lists of (key, scalar, scalar type), in key order."""
    return [[(k, v, type(v)) for k, v in vec.items()] for vec in vectors]


def sparse_columns(draw, keys, count):
    # entries +-2, +-3 and 5 make pivots that are not units over QQ, so
    # normalizing them brings Fractions
    return [{k: v for k in draw(st.lists(st.sampled_from(keys), max_size=5,
                                          unique=True))
             if (v := draw(st.sampled_from([1, -1, 2, -2, 3, -3, 5])))}
            for _ in range(count)]


@st.composite
def reducer_inputs(draw):
    field = draw(st.sampled_from([QQ, PrimeField(5), PrimeField(32003)]))
    cols = [{k: field.of(v) for k, v in col.items()}
            for col in sparse_columns(draw, list(range(7)),
                                      draw(st.integers(1, 9)))]
    cols = [{k: v for k, v in col.items() if v} for col in cols]
    wits = [draw(st.booleans()) for _ in cols]
    above = [{k: field.of(v) for k, v in col.items()}
             for col in sparse_columns(draw, [("c", j) for j in
                                              range(len(cols))],
                                       draw(st.integers(0, 4)))]
    above = [{k: v for k, v in col.items() if v} for col in above]
    return field, cols, wits, above


@settings(max_examples=150, deadline=None)
@given(reducer_inputs())
def test_inlined_reducer_matches_the_axpy_reference(data):
    field, cols, with_wits, above_cols = data
    red, ref = Reducer(field), ReferenceReducer(field)
    for j, (col, with_wit) in enumerate(zip(cols, with_wits)):
        wit = {("c", j): field.one} if with_wit else None
        assert red.insert(col, wit) == ref.insert(col, wit)
        assert list(red.rows) == list(ref.rows)
        assert ordered(red.rows.values()) == ordered(ref.rows.values())
        assert list(red.wits) == list(ref.wits)
        assert ordered(red.wits.values()) == ordered(ref.wits.values())
    keyed = {("c", j): col for j, col in enumerate(cols)}
    got = list(linalg.kernel_vectors(keyed, Reducer(field)))
    assert ordered(got) == ordered(reference_kernel(keyed,
                                                    ReferenceReducer(field)))
    for above in (linalg.span([], field), linalg.span(above_cols, field)):
        want = reference_cycles(keyed, above, len(cols), field)
        for rank in range(1, len(want) + 1):
            cycles = linalg.representative_cycles(keyed, above, rank, field)
            assert ordered(cycles) == ordered(want[:rank])
        assert linalg.representative_cycles(
            keyed, above, 1, field) == want[:1]


def test_homology_of_circle():
    # triangle boundary: three vertices, three edges, no faces
    # d1 columns are edge boundaries in the vertex basis
    d1 = dict(enumerate(to_cols([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], QQ)))
    h1 = homology_of_complex(d1, {}, QQ, 1)
    assert h1.rank == 1
    # full triangle kills it
    d2 = dict(enumerate(to_cols([[1], [-1], [1]], QQ)))
    assert homology_of_complex(d1, d2, QQ, 1).rank == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.sampled_from([QQ, PrimeField(3)]))
def test_one_elimination_gives_every_position(seed, field):
    # reference: per position, a witness-free span of the matrix above and
    # the kernel of the matrix below, reduced and kept in echelon form
    P = random_poset(seed, 3 + seed % 6)
    top = P.max_chain_dim()
    mats = [{k: boundary_key(k, field) for k in P.chains(d)}
            for d in range(-1, top + 2)]
    got = complex_homology(mats, field, -1)
    assert [hb.dim for hb in got] == list(range(-1, top + 1))
    for hb, below, above in zip(got, mats, mats[1:]):
        span = Reducer(field)
        for col in above.values():
            span.insert(col)
        assert eliminate(above, field)[0].rows == span.rows
        reps = Reducer(field)
        want = []
        for z in kernel_basis(below, field):
            piv = reps.insert(span.reduce(z)[0])
            if piv is not None:
                want.append(dict(reps.rows[piv]))
        assert hb.cycles == want and hb.rank == len(want)
        assert homology_of_complex(below, above, field, hb.dim) == hb


def random_complex(seed: int, field):
    """Boundary matrices out of degrees 0 .. top + 1 of a random complex,
    keyed by basis index, and its homology ranks in degrees 0 .. top.

    The complex is a direct sum of spheres (one basis vector, zero
    differential) and disks (an identity k[d] -> k[d - 1]) over degrees
    -1 .. top + 1, with every degree's basis changed by random
    elementary operations: a column operation on the matrix out of a
    degree is undone by the inverse row operation on the matrix into it,
    so d o d stays zero and the homology ranks are the sphere counts over
    any field.  At least two degrees have homology.
    """
    rng = random.Random(seed)
    top = rng.randint(1, 4)
    degrees = range(-1, top + 2)
    spheres = {d: rng.randint(0, 2) for d in degrees}
    for d in rng.sample(range(0, top + 1), 2):
        spheres[d] = max(spheres[d], 1)
    disks = {d: rng.randint(0, 2) for d in degrees[1:]}  # k[d] -> k[d-1]
    # basis of degree d: spheres, then disk sources, then disk targets
    size = {d: spheres[d] + disks.get(d, 0) + disks.get(d + 1, 0)
            for d in degrees}
    mats = {d: [[0] * size[d] for _ in range(size[d - 1])]
            for d in degrees[1:]}
    for d, m in mats.items():
        for t in range(disks[d]):
            m[spheres[d - 1] + disks.get(d - 1, 0) + t][spheres[d] + t] = 1
    for d in (d for d in degrees if size[d] >= 2):
        for _ in range(3 * size[d]):
            i, j = rng.sample(range(size[d]), 2)
            if rng.random() < 0.2:  # swap basis vectors i and j
                for row in mats.get(d, []):
                    row[i], row[j] = row[j], row[i]
                if d + 1 in mats:
                    rows = mats[d + 1]
                    rows[i], rows[j] = rows[j], rows[i]
                continue
            c = rng.choice([-2, -1, 1, 2])
            for row in mats.get(d, []):  # col_i += c col_j
                row[i] += c * row[j]
            if d + 1 in mats:  # row_j -= c row_i
                rows = mats[d + 1]
                rows[j] = [a - c * b for a, b in zip(rows[j], rows[i])]
    boundaries = []
    for d in range(0, top + 2):
        cols = []
        for j in range(size[d]):
            col = {i: field.of(row[j]) for i, row in enumerate(mats[d])}
            cols.append({i: v for i, v in col.items() if v})
        boundaries.append(dict(enumerate(cols)))
    return boundaries, [spheres[d] for d in range(0, top + 1)]


def reference_homology(boundaries, field, lowest):
    """The algorithm before rank-first homology: eliminate every matrix
    with witnesses and reduce every kernel vector against the span of the
    matrix above.  Also returns, per degree, how many kernel vectors come
    up to and including the last one that gave a new cycle."""
    eliminated = []
    for cols in boundaries:
        red = Reducer(field)
        kernel = []
        for j, col in cols.items():
            residual, wit = red.reduce(col, {j: field.one})
            if residual:
                red.insert(residual, wit)
            else:
                kernel.append(wit)
        eliminated.append((red, kernel))
    out, needed = [], []
    for i, ((_, kernel), (above, _)) in enumerate(zip(eliminated,
                                                      eliminated[1:])):
        reps = Reducer(field)
        cycles = []
        last = 0
        for n, z in enumerate(kernel, 1):
            piv = reps.insert(above.reduce(z)[0])
            if piv is not None:
                cycles.append(dict(reps.rows[piv]))
                last = n
        out.append(HomologyBasis(lowest + i, len(cycles), cycles))
        needed.append((last, len(kernel)))
    return out, needed


def check_rank_first(seed, field):
    """complex_homology against the reference on random_complex(seed):
    the same ranks and cycles, no witness pass where the homology is zero,
    and each witness pass stops at the last new cycle.  Returns the number
    of kernel vectors the early stops skipped."""
    boundaries, ranks = random_complex(seed, field)
    want, needed = reference_homology(boundaries, field, 0)
    drawn = {}
    kernel_vectors = linalg.kernel_vectors

    def counted(columns, red):
        drawn[id(columns)] = 0
        for z in kernel_vectors(columns, red):
            drawn[id(columns)] += 1
            yield z
    with mock.patch.object(linalg, "kernel_vectors", counted):
        got = complex_homology(boundaries, field, 0)
    assert got == want
    assert [hb.rank for hb in got] == ranks
    assert sum(r > 0 for r in ranks) >= 2
    skipped = 0
    for cols, hb, (last, kernel) in zip(boundaries, got, needed):
        if hb.rank:
            assert drawn[id(cols)] == last
            skipped += kernel - last
        else:
            assert id(cols) not in drawn
    return skipped


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@example(2, QQ)
def test_rank_first_homology_matches_the_full_elimination(seed, field):
    check_rank_first(seed, field)


def test_early_stop_skips_kernel_vectors_after_the_last_cycle():
    # in random_complex(2) some degree has boundaries in its kernel after
    # the last new cycle, over each field
    for field in (QQ, PrimeField(2), PrimeField(3)):
        assert check_rank_first(2, field) > 0


def test_vec_ops_cancel():
    a = {0: QQ.of(2), 1: QQ.of(-1)}
    assert vec_sub(a, a) == {}
    assert vec_scale(a, QQ.zero) == {}


def check_cleared_spans(seed, field):
    """cleared_spans against plain spans on random_complex(seed): each
    matrix gets the columns that are not pivots of the span above, and
    each span has the plain span's rows and rank.  Returns the number of
    columns cleared."""
    boundaries, _ = random_complex(seed, field)
    given = {}

    def columns_of(i, cleared):
        given[i] = set(cleared)
        return [c for j, c in boundaries[i].items() if j not in cleared]
    got = cleared_spans(columns_of, len(boundaries), field)
    assert len(got) == len(boundaries)
    assert list(given) == list(reversed(range(len(boundaries))))
    for i, (cols, red) in enumerate(zip(boundaries, got)):
        plain = linalg.span(cols.values(), field)
        assert red.rows == plain.rows and red.rank == plain.rank
        above = got[i + 1].rows if i + 1 < len(got) else {}
        assert given[i] == set(above)
    return sum(len(c) for c in given.values())


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
@example(2, QQ)
def test_cleared_spans_equal_plain_spans(seed, field):
    check_cleared_spans(seed, field)


def test_cleared_spans_skip_columns():
    for field in (QQ, PrimeField(2), PrimeField(3)):
        assert check_cleared_spans(2, field) > 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 6), max_size=6),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
def test_zero_differential_ranks_equal_the_cleared_spans_route(sizes,
                                                                field):
    # every column empty: the ranks are the column counts and the spans
    # are empty, as the cleared spans give them, and none is built
    boundaries = [{(i, j): {} for j in range(n)} for i, n in enumerate(sizes)]
    spans = cleared_spans(
        lambda i, cleared: [c for k, c in boundaries[i].items()
                            if k not in cleared], len(boundaries), field)
    want = [len(cols) - below.rank - above.rank
            for cols, below, above in zip(boundaries, spans, spans[1:])]
    with mock.patch.object(linalg, "cleared_spans", None):
        ranks, got = linalg.homology_ranks(boundaries, field)
    assert ranks == want == sizes[:-1]
    assert len(got) == len(spans)
    for red, ref in zip(got, spans):
        assert red.rows == ref.rows == {} and red.rank == ref.rank == 0
        assert red.field == field


def test_one_nonzero_column_takes_the_cleared_spans_route():
    boundaries = [{0: {}, 1: {}}, {2: {}, 3: {0: QQ.one, 1: QQ.one}}, {}]
    calls = []
    spans = cleared_spans

    def counted(*args):
        calls.append(args)
        return spans(*args)
    with mock.patch.object(linalg, "cleared_spans", counted):
        ranks, got = linalg.homology_ranks(boundaries, QQ)
    assert len(calls) == 1
    assert ranks == [1, 1] and [red.rank for red in got] == [0, 1, 0]


def reference_homology_ranks(P, field):
    """all_homology_ranks before clearing: every boundary matrix built and
    ranked in full."""
    top = P.max_chain_dim()
    ranks = [rank_of((boundary_key(key, field) for key in P.chains(d)),
                     field) for d in range(-1, top + 1)] + [0]
    return {d: len(P.chains(d)) - ranks[d + 1] - ranks[d + 2]
            for d in range(-1, top + 1)}


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 9),
       st.sampled_from([QQ, PrimeField(2), PrimeField(3)]))
def test_all_homology_ranks_matches_the_full_ranks(seed, n, field):
    # cleared chains get no boundary built: one boundary_key call per
    # chain of degree d that is not a pivot of d_{d+1}'s span, which is
    # dim C_d - rank d_{d+1} of them
    P = random_poset(seed, n)
    want = reference_homology_ranks(P, field)
    built = []
    key_of = chains.boundary_key

    def counted(key, field):
        built.append(key)
        return key_of(key, field)
    with mock.patch.object(chains, "boundary_key", counted):
        got = all_homology_ranks(P, field)
    assert got == want
    top = P.max_chain_dim()
    ranks = [rank_of((key_of(key, field) for key in P.chains(d)), field)
             for d in range(-1, top + 2)]
    assert len(built) == sum(len(P.chains(d)) - ranks[d + 2]
                             for d in range(-1, top + 1))
