from hypothesis import given, settings
from hypothesis import strategies as st

from synorres.algebra import PrimeField, RationalField
from synorres.chains import boundary_columns, boundary_key
from synorres.corpus import random_poset
from synorres.linalg import (Reducer, complex_homology, eliminate,
                             homology_of_complex, kernel_basis, rank_of,
                             solve)

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
    basis = kernel_basis(cols, QQ)
    assert len(basis) == 4 - rank_of(cols, QQ)
    for vec in basis:
        out = {}
        for j, c in vec.items():
            out = vec_add(out, vec_scale(cols[j], c))
        assert out == {}


def test_solve_finds_combination():
    cols = to_cols([[1, 0], [1, 1], [0, 2]], QQ)
    target = {0: QQ.of(3), 1: QQ.of(4), 2: QQ.of(2)}
    x = solve(cols, target, QQ)
    assert x is not None
    out = {}
    for j, c in x.items():
        out = vec_add(out, vec_scale(cols[j], c))
    assert out == target


def test_solve_detects_inconsistency():
    cols = to_cols([[1], [2], [0]], QQ)
    assert solve(cols, {2: QQ.one}, QQ) is None


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


def test_homology_of_circle():
    # triangle boundary: three vertices, three edges, no faces
    # d1 columns are edge boundaries in the vertex basis
    d1 = to_cols([[-1, -1, 0], [1, 0, -1], [0, 1, 1]], QQ)
    h1 = homology_of_complex(d1, [], QQ, 1)
    assert h1.rank == 1
    # full triangle kills it
    d2 = to_cols([[1], [-1], [1]], QQ)
    assert homology_of_complex(d1, d2, QQ, 1).rank == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.sampled_from([QQ, PrimeField(3)]))
def test_one_elimination_gives_every_position(seed, field):
    # reference: per position, a witness-free span of the matrix above and
    # the kernel of the matrix below, reduced and kept in echelon form
    P = random_poset(seed, 3 + seed % 6)
    top = P.max_chain_dim()
    mats = [boundary_columns(P.chains(d), lambda k: boundary_key(k, field),
                             P.chains(d - 1)) for d in range(-1, top + 2)]
    got = complex_homology(mats, field, -1)
    assert [hb.dim for hb in got] == list(range(-1, top + 1))
    for hb, below, above in zip(got, mats, mats[1:]):
        span = Reducer(field)
        for col in above:
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


def test_vec_ops_cancel():
    a = {0: QQ.of(2), 1: QQ.of(-1)}
    assert vec_sub(a, a) == {}
    assert vec_scale(a, QQ.zero) == {}
