"""Split octonions: multiplication, norm, derivations, the G2 group."""

from hypothesis import given, settings, strategies as st

from conftest import gaussian, submatrix
from orbitcert.forms import StandardModel
from orbitcert.groups import LieAlgebraBasis
from orbitcert.linalg import Matrix, hermitian_signature, rank
from orbitcert.octonions import derivations, octonion_product, table_json
from orbitcert.scalars import Tower
from orbitcert.witnesses import build_group

T = Tower()
BASIS = [[T.one() if i == k else T.zero() for i in range(8)]
         for k in range(8)]


def mul(x, y):
    return octonion_product(T, x, y)


def conj(x):
    return [x[0]] + [-a for a in x[1:]]


# the norm read off the table: e_k conj(e_k) = N(e_k) e0, and distinct
# basis vectors are orthogonal (``test_conjugation_recovers_norm`` checks
# x conj(x) = N(x) e0 for this N)
NORM_GRAM = Matrix.diag(T, [mul(e, conj(e))[0] for e in BASIS])


def norm(x):
    return sum((NORM_GRAM[k, k] * a * a for k, a in enumerate(x)), T.zero())


ints8 = st.lists(st.integers(min_value=-4, max_value=4),
                 min_size=8, max_size=8)


def _lift(coords):
    return [T.scalar(c) for c in coords]


def test_unit_element():
    e0 = BASIS[0]
    for x in BASIS + [_lift([2, -1, 3, 0, 1, 1, -2, 5])]:
        assert mul(e0, x) == x
        assert mul(x, e0) == x


@settings(max_examples=40)
@given(ints8, ints8)
def test_norm_is_multiplicative(xc, yc):
    x, y = _lift(xc), _lift(yc)
    assert norm(mul(x, y)) == norm(x) * norm(y)


@settings(max_examples=40)
@given(ints8, ints8)
def test_alternative_but_not_associative(xc, yc):
    x, y = _lift(xc), _lift(yc)
    xx = mul(x, x)
    assert mul(xx, y) == mul(x, mul(x, y))
    assert mul(mul(y, x), x) == mul(y, xx)


def test_some_products_fail_to_associate():
    x = _lift([0, 1, 0, 0, 0, 0, 0, 0])
    y = _lift([0, 0, 1, 0, 0, 0, 0, 0])
    z = _lift([0, 0, 0, 0, 0, 1, 0, 0])
    lhs = mul(mul(x, y), z)
    rhs = mul(x, mul(y, z))
    assert lhs != rhs


@settings(max_examples=40)
@given(ints8)
def test_conjugation_recovers_norm(xc):
    x = _lift(xc)
    prod = mul(x, conj(x))
    want = [norm(x)] + [T.zero()] * 7
    assert prod == want


def test_norm_signature_is_split():
    assert NORM_GRAM == Matrix.diag(T, [1, 1, 1, 1, -1, -1, -1, -1])
    assert hermitian_signature(NORM_GRAM) == (4, 4, 0)


def test_derivations_have_dimension_14():
    der = derivations(T)
    assert der.dim == 14
    assert der.ground == "real"


def test_derivation_identity_on_all_basis_pairs():
    der = derivations(T)
    for x in der.matrices:
        for ei in BASIS:
            for ej in BASIS:
                lhs = x.apply(mul(ei, ej))
                rhs_a = mul(x.apply(ei), ej)
                rhs_b = mul(ei, x.apply(ej))
                assert all((a - b - c).is_zero()
                           for a, b, c in zip(lhs, rhs_a, rhs_b))


def test_imaginary_embedding_is_injective_and_orthogonal():
    # derivations kill the unit and act on e1..e7; restricted there they
    # span the algebra of the group keeping the cross product
    der = derivations(T)
    for d in der.matrices:
        assert all(d[0, j].is_zero() and d[j, 0].is_zero() for j in range(8))
    g2 = LieAlgebraBasis(T, 7, [submatrix(d, range(1, 8), range(1, 8))
                                for d in der.matrices], "real")
    assert g2.dim == 14
    stacked = Matrix.from_cols(T, [x.flatten() for x in g2.matrices])
    assert rank(stacked) == 14
    gram = Matrix.diag(T, [1, 1, 1, -1, -1, -1, -1])
    for x in g2.matrices:
        assert (x.transpose() * gram + gram * x).is_zero()
    quad = StandardModel.quadric7(T)
    assert g2.same_span(build_group(quad, "G2split").lie_algebra())


def test_imaginary_norm_gram_is_the_quadric_gram():
    # PreservesCrossProduct works in the quadric's coordinates e1..e7
    quad = StandardModel.quadric7(T)
    assert submatrix(NORM_GRAM, range(1, 8), range(1, 8)) == quad.b.gram


def test_structure_constant_dump():
    obj = table_json()
    assert obj["schema"] == "octonion-structure-constants/1"
    assert obj["dim"] == 8
    assert obj["unit_index"] == 0
    assert len(obj["table"]) == 8 and all(len(r) == 8 for r in obj["table"])
    # cross-check entries against octonion_product()
    for i in (1, 5):
        for j in (2, 6):
            prod = mul(BASIS[i], BASIS[j])
            assert [gaussian(x) for x in prod] == [
                (c, 0, 1) for c in obj["table"][i][j]]
