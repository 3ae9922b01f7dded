"""Split octonions: multiplication, norm, derivations, the G2 group."""

from hypothesis import given, settings, strategies as st

from conftest import gaussian, submatrix
from orbitcert.forms import StandardModel
from orbitcert.groups import LieAlgebraBasis
from orbitcert.linalg import Matrix, hermitian_signature, rank
from orbitcert.octonions import OctonionAlgebra, derivations
from orbitcert.scalars import Tower
from orbitcert.witnesses import build_group

ALG = OctonionAlgebra(Tower())
T = ALG.tower

ints8 = st.lists(st.integers(min_value=-4, max_value=4),
                 min_size=8, max_size=8)


def _lift(coords):
    return [T.scalar(c) for c in coords]


def test_unit_element():
    e0 = ALG.basis_vector(0)
    x = _lift([2, -1, 3, 0, 1, 1, -2, 5])
    assert ALG.multiply(e0, x) == x
    assert ALG.multiply(x, e0) == x


@settings(max_examples=40)
@given(ints8, ints8)
def test_norm_is_multiplicative(xc, yc):
    x, y = _lift(xc), _lift(yc)
    assert ALG.norm(ALG.multiply(x, y)) == ALG.norm(x) * ALG.norm(y)


@settings(max_examples=40)
@given(ints8, ints8)
def test_alternative_but_not_associative(xc, yc):
    x, y = _lift(xc), _lift(yc)
    xx = ALG.multiply(x, x)
    assert ALG.multiply(xx, y) == ALG.multiply(x, ALG.multiply(x, y))
    assert ALG.multiply(ALG.multiply(y, x), x) == ALG.multiply(
        y, ALG.multiply(x, x))


def test_some_products_fail_to_associate():
    x = _lift([0, 1, 0, 0, 0, 0, 0, 0])
    y = _lift([0, 0, 1, 0, 0, 0, 0, 0])
    z = _lift([0, 0, 0, 0, 0, 1, 0, 0])
    lhs = ALG.multiply(ALG.multiply(x, y), z)
    rhs = ALG.multiply(x, ALG.multiply(y, z))
    assert lhs != rhs


@settings(max_examples=40)
@given(ints8)
def test_conjugation_recovers_norm(xc):
    x = _lift(xc)
    prod = ALG.multiply(x, ALG.conj(x))
    want = [ALG.norm(x)] + [T.zero()] * 7
    assert prod == want


def test_norm_signature_is_split():
    assert hermitian_signature(ALG.norm_gram) == (4, 4, 0)


def test_derivations_have_dimension_14():
    der = derivations(ALG)
    assert der.dim == 14
    assert der.ground == "real"


def test_derivation_identity_on_all_basis_pairs():
    der = derivations(ALG)
    basis = [ALG.basis_vector(k) for k in range(8)]
    for x in der.matrices:
        for i in range(8):
            for j in range(8):
                lhs = x.apply(ALG.multiply(basis[i], basis[j]))
                rhs_a = ALG.multiply(x.apply(basis[i]), basis[j])
                rhs_b = ALG.multiply(basis[i], x.apply(basis[j]))
                assert all((a - b - c).is_zero()
                           for a, b, c in zip(lhs, rhs_a, rhs_b))


def test_imaginary_embedding_is_injective_and_orthogonal():
    # derivations kill the unit and act on e1..e7; restricted there they
    # span the algebra of the group keeping the cross product
    der = derivations(ALG)
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
    assert submatrix(ALG.norm_gram, range(1, 8), range(1, 8)) == quad.b.gram


def test_imaginary_norm_signature():
    gram = Matrix.diag(T, [1, 1, 1, -1, -1, -1, -1])
    assert hermitian_signature(gram) == (3, 4, 0)


def test_structure_constant_dump():
    obj = ALG.table_json()
    assert obj["schema"] == "octonion-structure-constants/1"
    assert obj["dim"] == 8
    assert obj["unit_index"] == 0
    assert len(obj["table"]) == 8 and all(len(r) == 8 for r in obj["table"])
    # cross-check one entry against multiply()
    for i in (1, 5):
        for j in (2, 6):
            prod = ALG.multiply(ALG.basis_vector(i), ALG.basis_vector(j))
            assert [gaussian(x) for x in prod] == [
                (c, 0, 1) for c in obj["table"][i][j]]
