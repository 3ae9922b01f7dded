"""Constraint groups, Lie-algebra solving and the inclusion-triple check."""

from fractions import Fraction

import pytest

from orbitcert.forms import FormSpec, StandardModel
from orbitcert.groups import (DetOne, FixesVector, GroupSpec,
                              PreservesBilinear, check_onishchik_triple,
                              exp_nilpotent,
                              isotropy_subalgebra, nilpotent_orthogonal,
                              nilpotent_symplectic, nilpotent_unitary)
from orbitcert.linalg import Matrix, Subspace
from orbitcert.scalars import Tower
from orbitcert.witnesses import build_group


def _split(n):
    return StandardModel.projective_split(Tower(), n)


def _e(t, m, k):
    v = [t.zero()] * m
    v[k] = t.one()
    return v


def test_symplectic_dimensions():
    for n in (1, 2):
        model = _split(n)
        alg = build_group(model, "Sp2nC").lie_algebra()
        assert alg.dim == n * (2 * n + 1)
        assert alg.ground == "complex"


def test_orthogonal_dimensions():
    t = Tower()
    for m in (4, 5):
        b = PreservesBilinear(
            FormSpec("symmetric", Matrix.identity(t, m), "b"))
        alg = GroupSpec(t, m, [b], "so%dC" % m).lie_algebra()
        assert alg.dim == m * (m - 1) // 2


def test_special_unitary_dimensions():
    model = _split(1)
    su = build_group(model, "SU(n,n)").lie_algebra()
    assert su.dim == 3
    assert su.ground == "real"


def test_basis_satisfies_linearized_constraints():
    model = _split(2)
    group = build_group(model, "Sp2nC")
    alg = group.lie_algebra()
    for x in alg.matrices:
        for c in group.constraints:
            for residual in c.linearized(x):
                assert residual.is_zero()


def test_bracket_closure_reverified():
    model = _split(2)
    alg = build_group(model, "Sp2nC").lie_algebra()
    alg.verify_bracket_closure()
    a, b = alg.matrices[0], alg.matrices[-1]
    assert alg.contains(a * b - b * a)


def test_exp_of_nilpotents_lies_in_the_group():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC")
    u = [t.scalar(1), t.scalar(0, 2), t.scalar(-1), t.scalar(3, 1)]
    x = nilpotent_symplectic(model.omega, u)
    for step in (1, Fraction(1, 2), -2):
        assert sp.contains(exp_nilpotent(x, step))

    quad = StandardModel.quadric7(Tower())
    tq = quad.tower
    so7 = build_group(quad, "SO7C")
    y = nilpotent_orthogonal(quad.b, quad.z_plus, quad.z_minus)
    assert so7.contains(exp_nilpotent(y, Fraction(3, 2)))

    su = build_group(model, "SU(n,n)")
    w = [t.one(), t.zero(), t.one(), t.zero()]   # h-isotropic in E = (+,+,-,-)
    z = nilpotent_unitary(model.h, w)
    assert su.contains(exp_nilpotent(z, Fraction(-5, 3)))


def test_nilpotent_builders_validate_their_input():
    quad = StandardModel.quadric7(Tower())
    t = quad.tower
    with pytest.raises(ValueError):
        nilpotent_orthogonal(quad.b, _e(t, 7, 0), _e(t, 7, 3))  # not isotropic
    model = _split(1)
    with pytest.raises(ValueError):
        nilpotent_unitary(model.h, _e(model.tower, 2, 0))       # h-norm 1
    with pytest.raises(ValueError):
        nilpotent_symplectic(model.h, _e(model.tower, 2, 0))    # wrong kind


def test_isotropy_subalgebra_of_a_line():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra()
    e0 = _e(t, 4, 0)
    iso = isotropy_subalgebra(sp, e0, name="q")
    assert iso.dim == sp.dim - 3          # codim 2n-1 = 3
    iso.verify_bracket_closure()
    line = Subspace.from_vectors(t, 4, [e0])
    for x in iso.matrices:
        assert line.contains(x.apply(e0))


def test_isotropy_subalgebra_of_a_plane():
    model = StandardModel.isotropic(Tower(), 2, 1)
    so4 = build_group(model, "SO2nC").lie_algebra()
    plane = model.normal_form_complex()
    iso = isotropy_subalgebra(so4, plane, name="q")
    assert iso.dim == so4.dim - model.flag_dim_complex
    for x in iso.matrices:
        for v in plane.basis_vectors():
            assert plane.contains(x.apply(v))


def test_real_form_dimensions_match_complex_ones():
    model = _split(2)
    sp_c = build_group(model, "Sp2nC").lie_algebra()
    sp_r = build_group(model, "Sp2nR").lie_algebra()
    su_r = build_group(model, "SU(n,n)").lie_algebra()
    sl_c = build_group(model, "SL2nC").lie_algebra()
    assert (sp_r.ground, sp_c.ground) == ("real", "complex")
    assert sp_r.dim == sp_c.dim
    assert su_r.dim == sl_c.dim


def test_complexified_real_forms_recover_complex_algebras():
    model = _split(1)
    sp_c = build_group(model, "Sp2nC").lie_algebra()
    sl_c = build_group(model, "SL2nC").lie_algebra()
    sp_r = build_group(model, "Sp2nR").lie_algebra()
    su_r = build_group(model, "SU(n,n)").lie_algebra()
    assert sp_r.complexify().same_span(sp_c)
    assert su_r.complexify().same_span(sl_c)


def test_onishchik_triple_report_positive():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra(name="sp4")
    sl = build_group(model, "SL2nC").lie_algebra(name="sl4")
    rep = check_onishchik_triple(sp, sl, _e(t, 4, 0))
    assert rep["included"]
    assert (rep["dim_sub"], rep["dim_amb"]) == (10, 15)
    assert (rep["codim_sub"], rep["codim_amb"]) == (3, 3)
    assert rep["codims_equal"]
    assert rep["isotropy_is_trace"]
    assert rep["ok"]


def test_onishchik_triple_report_negative():
    # the stabilizer of e1 misses most tangent directions at [e1]
    model = _split(2)
    t = model.tower
    e0 = _e(t, 4, 0)
    small = GroupSpec(t, 4, [DetOne(), FixesVector(e0)],
                      "stab").lie_algebra(name="stab")
    sl = build_group(model, "SL2nC").lie_algebra(name="sl4")
    rep = check_onishchik_triple(small, sl, e0)
    assert rep["included"]
    assert rep["codim_sub"] == 0 and rep["codim_amb"] == 3
    assert not rep["codims_equal"]
    assert not rep["ok"]


def test_group_membership_and_violations():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC")
    ident = Matrix.identity(t, 4)
    assert sp.contains(ident)
    assert not sp.contains(ident.scale(2))
    assert sp.violations(ident) == []
    assert sp.violations(ident.scale(2)) != []


def test_real_entries_ground():
    t = Tower()
    model = StandardModel.isotropic(t, 2, 1)
    so_pq = build_group(model, "SO(p,q)")
    assert so_pq.lie_algebra().ground == "real"
    g = Matrix.diag(t, [1, -1, -1, 1])
    assert so_pq.contains(g)


def test_intersection_of_algebras():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra(name="sp4")
    b_id = PreservesBilinear(model.b)
    so = GroupSpec(t, 4, [b_id], "so4C").lie_algebra(name="so4")
    meet = sp.intersect(so, name="sp^so")
    # skew matrices commuting with J form a copy of gl_2: dimension 4
    assert meet.dim == 4
    for x in meet.matrices:
        assert sp.contains(x) and so.contains(x)
