"""Exact linear algebra: rank/kernel, canonical echelon, congruence."""

import pytest
from hypothesis import given, settings, strategies as st

from orbitcert import linalg
from orbitcert.linalg import (Matrix, Subspace, _rref, column_echelon,
                              column_space_equal, congruence_diagonalize,
                              hermitian_signature, kernel, null_combinations,
                              rank, real_coords, real_rank)
from orbitcert.scalars import Tower, TowerError

from conftest import (column_echelon_reference, deep_scalars, gauss,
                      in_span, intersect_reference, square_matrices,
                      tower_of_depth, vectors)

T = Tower()

mats3 = square_matrices(T, 3)
invertible3 = mats3.filter(lambda m: not m.det().is_zero())


@settings(max_examples=25)
@given(mats3)
def test_rank_equals_rank_of_transpose(a):
    assert rank(a) == rank(a.transpose())


@settings(max_examples=25)
@given(mats3)
def test_rank_nullity(a):
    ker = kernel(a)
    assert len(ker) + rank(a) == a.cols
    for v in ker:
        assert all(x.is_zero() for x in a.apply(v))


@settings(max_examples=25)
@given(mats3)
def test_canonical_echelon_idempotent(a):
    e = column_echelon(a)
    assert column_echelon(e) == e
    assert column_space_equal(a, e)


@settings(max_examples=25)
@given(mats3, mats3)
def test_det_multiplicative(a, b):
    assert (a * b).det() == a.det() * b.det()


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = T.zero()
    for j, x in enumerate(rows[0]):
        term = x * _cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


_entries = st.one_of(st.just(0), gauss(T))


@settings(max_examples=25)
@given(st.data())
def test_det_matches_cofactor_expansion(data):
    n = data.draw(st.sampled_from([3, 4]))
    rows = data.draw(st.lists(st.lists(_entries, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    rows = [[T.lift(x) for x in r] for r in rows]
    if data.draw(st.booleans()):
        # singular: the last row is a combination of the first two
        c0, c1 = data.draw(gauss(T)), data.draw(gauss(T))
        rows[-1] = [c0 * x + c1 * y for x, y in zip(rows[0], rows[1])]
    got = Matrix(T, rows).det()
    assert got == _cofactor_det(rows)
    assert got.is_zero() == (rank(Matrix(T, rows)) < n)


@settings(max_examples=25)
@given(invertible3)
def test_inverse(a):
    assert a * a.inverse() == Matrix.identity(T, 3)


def test_inverse_rejects_singular():
    a = Matrix.from_rows(T, [[1, 2], [2, 4]])
    with pytest.raises(ZeroDivisionError):
        a.inverse()


@settings(max_examples=25)
@given(st.lists(st.sampled_from([-2, -1, 0, 1, 2]), min_size=3, max_size=3),
       invertible3)
def test_hermitian_signature_congruence_invariant(diag, s):
    g = Matrix.diag(T, diag)
    moved = s.transpose() * g * s.conj()
    expected = (sum(1 for d in diag if d > 0),
                sum(1 for d in diag if d < 0),
                sum(1 for d in diag if d == 0))
    assert hermitian_signature(g) == expected
    assert hermitian_signature(moved) == expected


@settings(max_examples=25)
@given(invertible3)
def test_congruence_diagonalize_hermitian(s):
    g = s * s.conj_transpose()          # positive definite hermitian
    d, u = congruence_diagonalize(g)
    assert u.transpose() * g * u.conj() == Matrix.diag(T, d)
    assert all(x.sign() > 0 for x in d)


def test_congruence_diagonalize_with_isotropic_diagonal():
    # all diagonal entries vanish; the pivoting must mix coordinates
    g = Matrix.from_rows(T, [[0, 1], [1, 0]])
    d, u = congruence_diagonalize(g)
    assert u.transpose() * g * u.conj() == Matrix.diag(T, d)
    assert hermitian_signature(g) == (1, 1, 0)


def test_imaginary_norm_signature():
    gram = Matrix.diag(T, [1, 1, 1, -1, -1, -1, -1])
    assert hermitian_signature(gram) == (3, 4, 0)


def test_matrix_json_round_trip_with_roots():
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    m = Matrix.from_rows(t, [[r2, t.i()], [t.one() - r2, t.zero()]])
    obj = m.to_json()
    t2 = Tower.deserialize(obj["radicands"])
    assert Matrix.from_json(obj, t2).to_json() == obj


def test_matrix_from_json_reads_only_in_a_tower_that_starts_it():
    # obj is written over sqrt2, sqrt3; a deeper tower that starts with
    # them reads it, one that lacks sqrt3 or has sqrt5 first is refused
    # and keeps its depth
    t = Tower()
    t.adjoin_sqrt(2)
    obj = Matrix.from_rows(t, [[t.adjoin_sqrt(3), t.root(0)]]).to_json()
    t.adjoin_sqrt(5)
    assert Matrix.from_json(obj, t).to_json() == obj
    shallow, other = Tower(), Tower()
    shallow.adjoin_sqrt(2)
    other.adjoin_sqrt(5)
    other.adjoin_sqrt(3)
    for tower, j in ((shallow, 1), (other, 0)):
        depth = tower.depth
        with pytest.raises(TowerError,
                           match="radicand %d conflicts with tower" % j):
            Matrix.from_json(obj, tower)
        assert tower.depth == depth


@pytest.mark.parametrize("cell", [
    ["3/1+0/1*i", "0/1+0/1*i"], ["3/1+0/1*i"],
    ["0/1+0/1*i", "1/1+0/1*i", "0/1+0/1*i", "0/1+0/1*i"],
    ["0/1+0/1*i", "0/1+0/1*i", "1/1+0/1*i", "0/1+0/1*i"]],
    ids=["level-0-pair", "level-0-single", "level-1-as-four",
         "past-the-radicands"])
def test_matrix_from_json_refuses_a_cell_it_would_not_write(cell):
    # the matrix lists one radicand, sqrt 2; its tower also has sqrt 3
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    t.adjoin_sqrt(3)
    obj = Matrix.from_rows(t, [[r2, t.one()]]).to_json()
    assert obj["entries"] == [[["0/1+0/1*i", "1/1+0/1*i"], "1/1+0/1*i"]]
    assert Matrix.from_json(obj, t).to_json() == obj
    obj["entries"][0][1] = cell
    with pytest.raises(TowerError,
                       match=r"cell \(0, 1\) is not in canonical form"):
        Matrix.from_json(obj, t)


@settings(max_examples=25)
@given(st.lists(vectors(T, 4), min_size=1, max_size=3),
       st.lists(vectors(T, 4), min_size=1, max_size=3))
def test_subspace_dimension_formula(us, ws):
    u = Subspace.from_vectors(T, 4, us)
    w = Subspace.from_vectors(T, 4, ws)
    meet = u.intersect(w)
    join = Subspace.from_vectors(T, 4, us + ws)
    assert meet.dim + join.dim == u.dim + w.dim
    for v in meet.basis_vectors():
        assert in_span(u, v) and in_span(w, v)
    assert all(in_span(join, v) for v in us + ws)


T1 = tower_of_depth(1)


@st.composite
def spanning_sets(draw, tower: Tower, scalars):
    """Up to four vectors in tower^4: drawn ones, zero ones and
    combinations of those drawn before, in any order."""
    vecs = []
    for kind in draw(st.lists(st.sampled_from(["drawn", "zero", "sum"]),
                              max_size=4)):
        if kind == "zero":
            vecs.append([tower.zero()] * 4)
        elif kind == "sum" and vecs:
            cs = draw(st.lists(scalars, min_size=len(vecs),
                               max_size=len(vecs)))
            vecs.append([sum((c * v[i] for c, v in zip(cs, vecs)),
                             tower.zero()) for i in range(4)])
        else:
            vecs.append(draw(st.lists(scalars, min_size=4, max_size=4)))
    return vecs


def _spanning_pairs():
    return st.one_of(
        st.tuples(st.just(T), spanning_sets(T, gauss(T)),
                  spanning_sets(T, gauss(T))),
        st.tuples(st.just(T1), spanning_sets(T1, deep_scalars(T1)),
                  spanning_sets(T1, deep_scalars(T1))))


def _as_matrix(tower: Tower, vecs: list) -> Matrix:
    return Matrix(tower, [[v[i] for v in vecs] for i in range(4)],
                  cols=len(vecs))


@settings(max_examples=40)
@given(_spanning_pairs())
def test_subspace_rows_match_the_transposed_column_echelon(case):
    tower, us, ws = case
    u = Subspace.from_vectors(tower, 4, us)
    w = Subspace.from_vectors(tower, 4, ws)
    echelon = column_echelon_reference(_as_matrix(tower, us))
    assert u.matrix == echelon == column_echelon(_as_matrix(tower, us))
    assert u.pivots() == [next(i for i, x in enumerate(v) if not x.is_zero())
                          for v in echelon.col_list()]
    assert u.intersect(w).matrix == intersect_reference(u.matrix, w.matrix)


@settings(max_examples=25)
@given(_spanning_pairs())
def test_null_combinations_are_the_kernel_read_through_the_vectors(case):
    tower, vecs, images = case
    images = (images + vecs)[:len(vecs)]     # one image per vector
    want = [[sum((a * v[i] for a, v in zip(c, vecs)), tower.zero())
             for i in range(4)] for c in kernel(_as_matrix(tower, images))]
    assert null_combinations(tower, vecs, images) == want


def test_column_space_equal_ignores_presentation():
    a = Matrix.from_cols(T, [[1, 0, 1], [0, 1, 1]])
    b = Matrix.from_cols(T, [[1, 1, 2], [2, -1, 1]])   # mixed columns
    c = Matrix.from_cols(T, [[1, 0, 0], [0, 1, 0]])
    assert column_space_equal(a, b)
    assert not column_space_equal(a, c)


def test_subspace_contains_scaled_basis():
    t = Tower()
    r2 = t.adjoin_sqrt(2)
    s = Subspace.from_vectors(t, 3, [[t.one(), r2, t.zero()]])
    assert s.dim == 1
    assert in_span(s, [r2, t.scalar(2), t.zero()])
    assert not in_span(s, [t.one(), t.one(), t.zero()])


@settings(max_examples=25)
@given(st.lists(vectors(T, 4), max_size=3), vectors(T, 4), vectors(T, 3))
def test_residual_agrees_with_rank_membership(gens, v, coeffs):
    s = Subspace.from_vectors(T, 4, gens)
    member = [T.zero()] * 4
    for c, g in zip(coeffs, gens):
        member = [a + c * b for a, b in zip(member, g)]
    for w in (v, member):
        res = s.residual(w)
        assert all(x.is_zero() for x in res) == in_span(s, w)
        assert in_span(s, [a - b for a, b in zip(w, res)])
    for k, (b, piv) in enumerate(zip(s.basis_vectors(), s.pivots())):
        assert b[piv].is_one() and all(x.is_zero() for x in b[:piv])
        assert all(o[piv].is_zero()
                   for j, o in enumerate(s.basis_vectors()) if j != k)


# -- rank of large integer entries, and the towers shared below ------------

DEEP = Tower()
for _r in (2, 3):
    DEEP.adjoin_sqrt(_r)


def _rref_rank(m):
    return len(_rref(m.tower, m.to_lists())[1])


def test_fraction_free_rank_of_large_integers():
    big = [[10 ** 6 + (7 * i + 13 * j) % 17 - 8 for j in range(8)]
           for i in range(5)]
    big.append([a - 3 * b for a, b in zip(big[0], big[4])])
    for m in (Matrix.from_rows(T, big), Matrix.from_rows(T, big).transpose()):
        assert rank(m) == _rref_rank(m) == 5


# -- the real rank of vectors against the real-coordinate matrix ------------

def _real_coords_rank(t, vecs):
    return rank(Matrix.from_cols(t, [real_coords(v) for v in vecs]))


@st.composite
def qi_vector_sets(draw):
    """Up to 7 Q(i) vectors of length up to 6, zero-heavy, some of them
    real combinations of earlier ones, in the base tower or a depth-2 one."""
    t = draw(st.sampled_from([T, DEEP]))
    n = draw(st.integers(min_value=0, max_value=6))
    k = draw(st.integers(min_value=0, max_value=7))
    entry = st.one_of(st.just(0), gauss(t))
    vecs = [[t.lift(x) for x in v] for v in draw(st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=k, max_size=k))]
    for j in range(2, k):
        if draw(st.booleans()):
            cs = draw(st.lists(st.integers(-3, 3), min_size=j, max_size=j))
            vecs[j] = [sum((c * v[e] for c, v in zip(cs, vecs)), t.zero())
                       for e in range(n)]
    return t, vecs


@settings(max_examples=100)
@given(qi_vector_sets())
def test_real_rank_matches_the_real_coordinate_rank(tv):
    t, vecs = tv
    assert real_rank(t, vecs) == _real_coords_rank(t, vecs)


@settings(max_examples=25)
@given(st.data())
def test_real_rank_of_rooted_vectors_falls_back_to_rank(data):
    t = tower_of_depth(data.draw(st.integers(min_value=1, max_value=2)))
    n = data.draw(st.integers(min_value=1, max_value=4))
    vecs = data.draw(st.lists(st.lists(deep_scalars(t), min_size=n,
                                       max_size=n), min_size=1, max_size=4))
    vecs.append([a + b for a, b in zip(vecs[0], vecs[-1])])
    assert real_rank(t, vecs) == _real_coords_rank(t, vecs)


def test_real_rank_reads_gaussian_triples_and_falls_back(monkeypatch):
    i, r2 = DEEP.i(), DEEP.root(0)
    qi = [[DEEP.one(), i], [i, -DEEP.one()], [DEEP.scalar(1, 1), DEEP.zero()]]
    rooted = [[DEEP.one(), r2], [r2, DEEP.scalar(2)], [i, i * r2]]
    zero_coord = [[DEEP.zero(), DEEP.one()], [DEEP.zero(), i]]
    assert [real_rank(DEEP, v)
            for v in (qi, rooted, zero_coord, [], [[], []])] == [3, 2, 2, 0, 0]
    calls = []
    monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or 0)
    real_rank(DEEP, qi)
    real_rank(DEEP, zero_coord)
    assert calls == []
    real_rank(DEEP, rooted)
    assert len(calls) == 1


# -- the integer fraction-free rank of real rows against _rref --------------

@st.composite
def integer_rows(draw):
    """Integer matrices up to 6x8 with entries in [-9, 9], zero-heavy,
    some rows integer combinations of earlier ones."""
    r = draw(st.integers(min_value=0, max_value=6))
    c = draw(st.integers(min_value=0, max_value=8))
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    rows = draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                         min_size=r, max_size=r))
    for k in range(2, r):
        if draw(st.booleans()):
            cs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
            rows[k] = [sum(a * row[j] for a, row in zip(cs, rows))
                       for j in range(c)]
    return rows


@settings(max_examples=100)
@given(integer_rows())
def test_integer_pivots_give_the_rref_rank(rows):
    pivots = linalg._integer_pivots([list(row) for row in rows])
    assert len(pivots) == _rref_rank(Matrix.from_rows(T, rows))


@given(st.data())
def test_integer_pivots_are_minors(data):
    # the last pivot of a square integer matrix is its determinant up to
    # the sign of the row swaps
    n = data.draw(st.integers(min_value=2, max_value=5))
    small = st.integers(min_value=-9, max_value=9)
    ints = data.draw(st.lists(st.lists(small, min_size=n, max_size=n),
                              min_size=n, max_size=n))
    m = Matrix.from_rows(T, ints)
    pivots = linalg._integer_pivots([list(row) for row in ints])
    assert len(pivots) == _rref_rank(m)
    d = m.det()
    if d:
        assert T.scalar(pivots[-1]) in (d, -d)


def test_integer_pivots_of_large_integers():
    big = [[10 ** 6 + (7 * i + 13 * j) % 17 - 8 for j in range(8)]
           for i in range(5)]
    big.append([a - 3 * b for a, b in zip(big[0], big[4])])
    for rows in (big, [list(col) for col in zip(*big)]):
        assert len(linalg._integer_pivots([list(r) for r in rows])) == 5


def test_real_rank_of_gaussian_vectors_runs_the_integer_kernel(monkeypatch):
    i = DEEP.i()
    half = DEEP.scalar(1, -2).inv()
    vecs = [[DEEP.one(), i, DEEP.zero()], [i, -DEEP.one(), half],
            [DEEP.scalar(1, 1), i - DEEP.one(), half],
            [DEEP.scalar(3), DEEP.zero(), half * i]]
    want = _real_coords_rank(DEEP, vecs)

    def refuse(*args):
        raise AssertionError("wrong rank path")
    for name in ("_rref", "rank"):
        monkeypatch.setattr(linalg, name, refuse)
    assert real_rank(DEEP, vecs) == want == 3
