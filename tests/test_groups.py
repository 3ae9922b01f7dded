"""Constraint groups, Lie-algebra solving and the inclusion-triple check."""

import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbitcert import cli, groups, octonions, witnesses
from orbitcert.forms import FormSpec, StandardModel
from orbitcert.groups import (CommutesWithConj, DetOne, FixesVector,
                              GroupSpec, LieAlgebraBasis, PreservesForm,
                              RealEntries,
                              _distinct_up_to_sign, _null_combinations,
                              check_onishchik_triple, isotropy_subalgebra,
                              nilpotent_orthogonal, outer,
                              solve_linear_constraints)
from orbitcert.linalg import Matrix, Subspace
from orbitcert.octonions import PreservesCrossProduct, _cross7, _cross_pairs
from orbitcert.scalars import Scalar, Tower, TowerError
from orbitcert.witnesses import (GROUP_CONSTRAINTS, build_group,
                                 transport_positive_line_sp)

from conftest import (deep_scalars, describe, exp_nilpotent, gauss, gaussian,
                      in_span, nilpotent_symplectic, nilpotent_unitary,
                      reflection, signed_permutation_gram, tower_of_depth,
                      violations)

# every group build_group names, on one model of each case
CASE_GROUPS = [(info, StandardModel.CASES[info["case"]].groups) for info in (
    dict(case="projective-split", n=2), dict(case="projective-pq", p=1, q=1),
    dict(case="quadric7"), dict(case="isotropic", p=2, q=1))]
GROUPS = [(info, name) for info, names in CASE_GROUPS for name in names]
GROUP_IDS = ["%s:%s" % (info["case"], name) for info, name in GROUPS]


def _group(info, name):
    return build_group(StandardModel.from_info(Tower(), info), name)


def _reference(con, x):
    """The linearized constraint at x by matrix products: the formulas
    the assembled terms replace."""
    if isinstance(con, PreservesForm):
        g = con.form.gram
        return (x.transpose() * g
                + g * (x.conj() if con.antilinear else x)).flatten()
    if isinstance(con, CommutesWithConj):
        m = _conjugation(con)
        return (x * m - m * x.conj()).flatten()
    if isinstance(con, DetOne):
        return [sum((x[i, i] for i in range(x.rows)), x.tower.zero())]
    if isinstance(con, FixesVector):
        return x.apply(con.v)
    if isinstance(con, PreservesCrossProduct):
        # the derivation condition c x e_k = (x e_i) * e_j + e_i * (x e_j)
        t = x.tower
        cols = [x.col(k) for k in range(7)]
        units = [_e(t, 7, k) for k in range(7)]
        rows = []
        for i, j, k, c in _cross_pairs():
            lhs = [c * a for a in cols[k]]
            rhs1 = _cross7(t, cols[i], units[j])
            rhs2 = _cross7(t, units[i], cols[j])
            rows.extend(a - b - d for a, b, d in zip(lhs, rhs1, rhs2))
        return rows
    assert isinstance(con, RealEntries)
    return []


def _conjugation(con):
    """M = B^-1 H by a matrix inverse and product, so that H(z, w) =
    B(z, M conj(w))."""
    return con.bilinear.gram.inverse() * con.hermitian.gram


def _evaluate(terms, x, nrows):
    t = x.tower
    out = [t.zero()] * nrows
    for row, j, k, c, conj in terms:
        out[row] = out[row] + c * (x[j, k].conj() if conj else x[j, k])
    return out


def _random_matrix(t, m, rng):
    def entry():
        return t.scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return Matrix(t, [[entry() for _ in range(m)] for _ in range(m)])


def _unit_reference_solve(group):
    """The algebra by the unit-matrix path: every E_jk (and i E_jk on a
    real ground without RealEntries) pushed through the reference
    formulas, then one kernel."""
    t, m = group.tower, group.dim
    real = group.ground == "real"
    values = [t.one()]
    if real and not any(isinstance(c, RealEntries)
                        for c in group.constraints):
        values.append(t.i())
    units = []
    for value in values:
        for j in range(m):
            for k in range(m):
                rows = [[t.zero()] * m for _ in range(m)]
                rows[j][k] = value
                units.append(Matrix(t, rows, cols=m))

    def image(x):
        return [s for c in group.constraints for s in _reference(c, x)]

    return _null_combinations(t, m, units, [image(x) for x in units],
                              real)


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
        b = PreservesForm(
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
            for residual in _reference(c, x):
                assert residual.is_zero()


@pytest.mark.parametrize("info,name", GROUPS, ids=GROUP_IDS)
def test_linear_terms_match_the_product_formulas(info, name):
    group = _group(info, name)
    t, m = group.tower, group.dim
    rng = random.Random(name)
    for _ in range(3):
        x = _random_matrix(t, m, rng)
        for c in group.constraints:
            want = _reference(c, x)
            terms = c.linear_terms(m)
            assert all(0 <= row < len(want) for row, *_ in terms)
            assert _evaluate(terms, x, len(want)) == want


@pytest.mark.parametrize("info,name", GROUPS, ids=GROUP_IDS)
def test_assembled_basis_equals_the_unit_matrix_solve(info, name):
    group = _group(info, name)
    alg = solve_linear_constraints(group)
    assert alg.ground == group.ground
    assert [x.to_json() for x in alg.matrices] == [
        x.to_json() for x in _unit_reference_solve(group)]


def _paired_forms(t):
    """Signed-permutation Grams that pair coordinates 0 and 1, unlike the
    models' diagonal h, hhat and b: a hermitian h with h[0, 1] = h[1, 0]
    = 1 and h[2, 2] = -1, of signature (1, 2), and a symmetric b with
    b[0, 1] = b[1, 0] = b[2, 2] = 1."""
    zero, one = t.zero(), t.one()
    h = Matrix(t, [[zero, one, zero], [one, zero, zero], [zero, zero, -one]])
    b = Matrix(t, [[zero, one, zero], [one, zero, zero], [zero, zero, one]])
    return (FormSpec("hermitian", h, "h"), FormSpec("symmetric", b, "b"))


# the dimensions by hand, for v = (1, i, 0), h-null (h(v, v) = -i + i)
# and not b-null (b(v, v) = 2i): u(1, 2) is 9; su(1, 2) is 8; U(1, 2) is
# transitive on the 5-dimensional cone of nonzero h-null vectors, so
# v's stabilizer is 9 - 5 = 4; so(3, C) is 3 over C, and v's stabilizer
# so(2, C) is 1; a real x preserving the real h is in so(1, 2), 3; a
# real x with x v = 0 kills e0 and e1, leaving its last column, 3
@pytest.mark.parametrize("kinds,dim", [
    ("h", 9), ("h,det", 8), ("h,fix", 4), ("b", 3), ("b,fix", 1),
    ("h,real", 3), ("fix,real", 3),
])
def test_assembled_basis_equals_the_unit_matrix_solve_on_complex_grams(
        kinds, dim):
    t = Tower()
    h, b = _paired_forms(t)
    make = {"h": lambda: PreservesForm(h),
            "b": lambda: PreservesForm(b), "det": DetOne,
            "fix": lambda: FixesVector([t.one(), t.i(), t.zero()]),
            "real": RealEntries}
    group = GroupSpec(t, 3, [make[k]() for k in kinds.split(",")], kinds)
    alg = group.lie_algebra()
    assert alg.dim == dim
    assert [x.to_json() for x in alg.matrices] == [
        x.to_json() for x in _unit_reference_solve(group)]


def test_assembly_makes_no_matrix_products(monkeypatch):
    groups = [_group(dict(case="isotropic", p=2, q=1), "SO(p,q)"),
              _group(dict(case="quadric7"), "G2split")]
    calls = []
    product = Matrix.__mul__

    def counting(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    dims = [solve_linear_constraints(g).dim for g in groups]
    assert dims == [3, 14]
    assert calls == []


def test_wrong_size_bilinear_form_is_rejected():
    t = Tower()
    b = PreservesForm(FormSpec("symmetric", Matrix.identity(t, 4), "b"))
    with pytest.raises(ValueError, match="dimension 4, the group acts on 5"):
        GroupSpec(t, 5, [b], "so5C").lie_algebra()


def test_wrong_size_hermitian_form_is_rejected():
    t = Tower()
    h = PreservesForm(FormSpec("hermitian", Matrix.identity(t, 3), "h"))
    with pytest.raises(ValueError, match="dimension 3, the group acts on 4"):
        GroupSpec(t, 4, [DetOne(), h], "SU(4)").lie_algebra()


def test_wrong_size_fixed_vector_is_rejected():
    t = Tower()
    with pytest.raises(ValueError,
                       match="FixesVector has dimension 3, the group acts on 4"):
        GroupSpec(t, 4, [FixesVector(_e(t, 3, 0))], "stab").lie_algebra()


def test_wrong_size_cross_product_is_rejected():
    t = Tower()
    for m in (6, 8):
        with pytest.raises(ValueError, match="the group acts on %d" % m):
            GroupSpec(t, m, [PreservesCrossProduct()], "G2").lie_algebra()
    with pytest.raises(ValueError, match="not on a 8x8 matrix"):
        PreservesCrossProduct().holds(Matrix.identity(t, 8))
    assert PreservesCrossProduct().holds(Matrix.identity(t, 7))


@pytest.mark.parametrize("make", [
    lambda t: PreservesForm(
        FormSpec("symmetric", Matrix.identity(t, 3), "b")),
    lambda t: PreservesForm(
        FormSpec("hermitian", Matrix.identity(t, 3), "h")),
    lambda t: FixesVector(_e(t, 3, 0)),
    lambda t: PreservesCrossProduct(),
], ids=["bilinear", "hermitian", "fixed-vector", "cross-product"])
def test_group_spec_rejects_a_constraint_of_another_size(make):
    t = Tower()
    with pytest.raises(ValueError, match="the group acts on 4"):
        GroupSpec(t, 4, [DetOne(), make(t)], "G")


def test_groups_build_without_listing_linear_terms(monkeypatch):
    # the size check reads each constraint's ``dim``: every named group
    # builds and holds the identity with no linearization listed
    def refuse(self, m):
        raise AssertionError("%s.linear_terms called" % type(self).__name__)

    classes = [c for mod in (groups, octonions) for c in vars(mod).values()
               if isinstance(c, type) and hasattr(c, "linear_terms")]
    assert len(classes) == 6
    for cls in classes:
        monkeypatch.setattr(cls, "linear_terms", refuse)
    for case, rule in StandardModel.CASES.items():
        model = StandardModel.from_info(Tower(), dict(case=case,
                                                      **rule.defaults))
        for name in rule.groups:
            group = build_group(model, name)
            assert group.contains(Matrix.identity(model.tower, group.dim))


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
    reps = quad.stratum_representatives
    y = nilpotent_orthogonal(quad.b, reps["positive"], reps["negative"])
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
    iso = isotropy_subalgebra(sp, e0)
    assert iso.dim == sp.dim - 3          # codim 2n-1 = 3
    iso.verify_bracket_closure()
    line = Subspace.from_vectors(t, 4, [e0])
    for x in iso.matrices:
        assert in_span(line, x.apply(e0))


def test_isotropy_subalgebra_of_a_plane():
    model = StandardModel.isotropic(Tower(), 2, 1)
    so4 = build_group(model, "SO2nC").lie_algebra()
    plane = model.normal_form_complex()
    iso = isotropy_subalgebra(so4, plane)
    assert iso.dim == so4.dim - model.flag_dim_complex
    for x in iso.matrices:
        for v in plane.basis_vectors():
            assert in_span(plane, x.apply(v))


def test_real_form_dimensions_match_complex_ones():
    model = _split(2)
    sp_c = build_group(model, "Sp2nC").lie_algebra()
    sp_r = build_group(model, "Sp2nR").lie_algebra()
    su_r = build_group(model, "SU(n,n)").lie_algebra()
    sl_c = build_group(model, "SL2nC").lie_algebra()
    assert (sp_r.ground, sp_c.ground) == ("real", "complex")
    assert sp_r.dim == sp_c.dim
    assert su_r.dim == sl_c.dim


# the campaign default of each case, and the other isotropic signatures
QUADRUPLE_MODELS = [dict(case=case, **rule.defaults)
                    for case, rule in StandardModel.CASES.items()]
QUADRUPLE_MODELS += [dict(case="isotropic", p=p, q=q)
                     for p, q in ((1, 2), (2, 3), (3, 2))]


@pytest.mark.parametrize("info", QUADRUPLE_MODELS, ids=lambda info: "-".join(
    str(v) for v in info.values()))
def test_quadruple_real_forms_complexify_and_nest(info):
    # G0 and Ghat0 are real forms of G and Ghat, and G0 in Ghat0 as G in Ghat
    model = StandardModel.from_info(Tower(), info)
    roles = StandardModel.CASES[model.case].groups
    g, ghat, g0, ghat0 = (build_group(model, name).lie_algebra()
                          for name in roles)
    assert [a.ground for a in (g, ghat, g0, ghat0)] == [
        "complex", "complex", "real", "real"]
    assert (g0.dim, ghat0.dim) == (g.dim, ghat.dim)
    assert g0.complexify().same_span(g)
    assert ghat0.complexify().same_span(ghat)
    assert all(ghat.contains(x) for x in g.matrices)
    assert all(ghat0.contains(x) for x in g0.matrices)


def test_every_group_name_has_its_own_constraints():
    # each name a case carries builds that group, with constraints no other
    # name on the model shares, and the name table lists no other name
    carried = set()
    for case, rule in StandardModel.CASES.items():
        model = StandardModel.from_info(Tower(), dict(case=case,
                                                      **rule.defaults))
        built = [build_group(model, name) for name in rule.groups]
        assert [g.name for g in built] == list(rule.groups)
        kinds = {tuple(sorted(describe(c) for c in g.constraints))
                 for g in built}
        assert len(kinds) == len(built), case
        carried.update(rule.groups)
    assert carried == set(GROUP_CONSTRAINTS)


def test_onishchik_triple_report_positive():
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra()
    sl = build_group(model, "SL2nC").lie_algebra()
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
                      "stab").lie_algebra()
    sl = build_group(model, "SL2nC").lie_algebra()
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
    assert violations(sp, ident) == []
    assert violations(sp, ident.scale(2)) != []


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
    sp = build_group(model, "Sp2nC").lie_algebra()
    b_id = PreservesForm(model.b)
    so = GroupSpec(t, 4, [b_id], "so4C").lie_algebra()
    meet = sp.intersect(so)
    # skew matrices commuting with J form a copy of gl_2: dimension 4
    assert meet.dim == 4
    for x in meet.matrices:
        assert sp.contains(x) and so.contains(x)


def test_intersection_of_real_algebras():
    # u(2,1) and gl(3,R): neither holds the other, and they meet in o(2,1)
    t = Tower()
    h = FormSpec("hermitian", Matrix.diag(t, [1, 1, -1]), "h")
    u = GroupSpec(t, 3, [PreservesForm(h)], "U(2,1)").lie_algebra()
    gl = GroupSpec(t, 3, [RealEntries()], "GL3R").lie_algebra()
    o = GroupSpec(t, 3, [PreservesForm(h), RealEntries()],
                  "O(2,1)").lie_algebra()
    assert (u.ground, gl.ground, u.dim, gl.dim, o.dim) == (
        "real", "real", 9, 9, 3)
    assert not all(u.contains(x) for x in gl.matrices)
    assert not all(gl.contains(x) for x in u.matrices)
    for a, b in ((u, gl), (gl, u)):
        meet = a.intersect(b)
        assert meet.ground == "real" and meet.same_span(o)


def test_constraint_rows_are_kept_once_up_to_sign():
    t = Tower()
    i, r2 = t.i(), t.adjoin_sqrt(2)
    rows = [{0: t.one(), 2: -i}, {0: -t.one(), 2: i}, {2: t.zero()},
            {1: -i, 3: r2}, {1: i, 3: -r2}, {1: i, 3: r2},
            {0: t.scalar(2), 2: -i}, {0: t.zero(), 1: i, 3: -r2}]
    kept = _distinct_up_to_sign(rows)
    assert [[col for col, _ in row] for row in kept] == [
        [0, 2], [1, 3], [1, 3], [0, 2]]
    assert [[c for _, c in row] for row in kept] == [
        [t.one(), -i], [-i, r2], [i, r2], [t.scalar(2), -i]]


def test_g2_solve_reduces_its_distinct_rows_only(monkeypatch):
    group = _group(dict(case="quadric7"), "G2split")
    seen = []
    solve = groups.kernel

    def recording(m):
        seen.append(m.rows)
        return solve(m)

    monkeypatch.setattr(groups, "kernel", recording)
    assert solve_linear_constraints(group).dim == 14
    assert seen == [77]


# -- acting through the nonzero entries of a basis ---------------------------

DEPTHS = [tower_of_depth(d) for d in range(3)]


def _derived_algebras():
    """Bases no constraint solve returns: an isotropy algebra, the trace
    of a triple, and the complexification of a real form."""
    model = _split(2)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra()
    sl = build_group(model, "SL2nC").lie_algebra()
    su = build_group(model, "SU(n,n)").lie_algebra()
    iso = isotropy_subalgebra(sl, _e(t, 4, 0))
    return [iso, iso.intersect(sp), isotropy_subalgebra(su, _e(t, 4, 0)),
            su.complexify()]


_ALGEBRAS = {}


def _algebra(info, name):
    key = (info["case"], name)
    if key not in _ALGEBRAS:
        g = _group(info, name)
        _ALGEBRAS[key] = solve_linear_constraints(g)
    return _ALGEBRAS[key]


@pytest.mark.parametrize("info,name", GROUPS, ids=GROUP_IDS)
@settings(max_examples=6)
@given(data=st.data())
def test_images_equal_the_dense_products(info, name, data):
    alg = _algebra(info, name)
    t = data.draw(st.sampled_from(DEPTHS))
    v = data.draw(st.lists(deep_scalars(t), min_size=alg.ambient,
                           max_size=alg.ambient))
    assert alg.images(v) == [x.apply(v) for x in alg.matrices]


def test_images_of_derived_bases_equal_the_dense_products():
    rng = random.Random(3)
    for alg in _derived_algebras():
        for t in DEPTHS:
            v = [t.scalar(rng.randint(-3, 3), rng.randint(-3, 3))
                 + t.scalar(rng.randint(-3, 3)) * sum(
                     (t.root(k) for k in range(t.depth)), t.zero())
                 for _ in range(alg.ambient)]
            assert alg.images(v) == [x.apply(v) for x in alg.matrices]
    with pytest.raises(ValueError, match="does not match 4 columns"):
        alg.images([t.one()] * 3)


@pytest.mark.parametrize("info,name", [
    (dict(case="projective-split", n=2), "SU(n,n)"),
    (dict(case="quadric7"), "G2split"),
    (dict(case="isotropic", p=2, q=1), "SO2n-1C"),
    (dict(case="projective-pq", p=1, q=1), "Sp(2p,2q)"),
], ids=["su22", "g2", "so5C", "sp11"])
def test_sparse_bracket_equals_the_dense_commutator(info, name):
    alg = _algebra(info, name)
    xs = alg.matrices
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            assert alg._bracket(i, j) == xs[i] * xs[j] - xs[j] * xs[i]


def test_closure_makes_no_matrix_products(monkeypatch):
    algs = [_algebra(dict(case="projective-split", n=2), "SU(n,n)"),
            _algebra(dict(case="isotropic", p=2, q=1), "SO2nC")]
    calls = []

    def refuse(name):
        def counting(self, *args):
            calls.append(name)
        return counting

    monkeypatch.setattr(Matrix, "__mul__", refuse("__mul__"))
    monkeypatch.setattr(Matrix, "apply", refuse("apply"))
    for alg in algs:
        alg.verify_bracket_closure()
    assert calls == []


@pytest.mark.parametrize("ground", ["complex", "real"])
def test_a_basis_that_does_not_close_is_refused(ground):
    # [E01, E10] = E00 - E11 lies outside span{E01, E10} in gl2
    t = Tower()
    e01 = Matrix.from_rows(t, [[0, 1], [0, 0]])
    e10 = Matrix.from_rows(t, [[0, 0], [1, 0]])
    alg = LieAlgebraBasis(t, 2, [e01, e10], ground)
    with pytest.raises(ValueError, match="0, 1 leaves the span"):
        alg.verify_bracket_closure()


def test_onishchik_triple_at_a_point_of_a_deeper_tower():
    model = _split(1)
    t = model.tower
    sp = build_group(model, "Sp2nC").lie_algebra()
    sl = build_group(model, "SL2nC").lie_algebra()
    e0 = _e(t, 2, 0)
    w = transport_positive_line_sp(model, e0, [t.scalar(2), t.one()])
    z = w.element.apply([w.element.tower.lift(c) for c in e0])
    assert w.element.tower.depth == 1 and any(
        gaussian(x) is None for x in z)
    at_e0 = check_onishchik_triple(sp, sl, e0)
    moved = check_onishchik_triple(sp, sl, z)
    assert moved == at_e0 and moved["ok"]
    q = isotropy_subalgebra(sp, z)
    assert q.tower is w.element.tower
    for x in q.matrices:
        assert in_span(Subspace.from_vectors(q.tower, 2, [z]), x.apply(z))


# -- the half check of PreservesForm ------------------------------------------

# every form build_group reads, and b_sig, which isotropic_normal_form_real
# preserves with its Witt transports (a diagonal Gram of both signs)
HALF_FORMS = [
    (dict(case="projective-split", n=2), "omega"),
    (dict(case="projective-split", n=2), "h"),
    (dict(case="projective-pq", p=1, q=1), "omega"),
    (dict(case="projective-pq", p=1, q=1), "h"),
    (dict(case="quadric7"), "b"),
    (dict(case="quadric7"), "h"),
    (dict(case="isotropic", p=2, q=1), "b"),
    (dict(case="isotropic", p=2, q=1), "hhat"),
    (dict(case="isotropic", p=2, q=1), "b_sig"),
    (dict(case="isotropic", p=1, q=2), "b_sig"),
]
HALF_IDS = ["%s:%s" % ("-".join(str(v) for v in info.values()), attr)
            for info, attr in HALF_FORMS]


@pytest.mark.parametrize("info,attr", HALF_FORMS, ids=HALF_IDS)
def test_the_form_check_makes_no_matrix_products(info, attr, monkeypatch):
    model = StandardModel.from_info(Tower(), info)
    con = PreservesForm(getattr(model, attr))
    t, m = model.tower, model.ambient_dim
    member = Matrix.diag(t, [-1] * m)
    calls = []
    product = Matrix.__mul__

    def counting(self, other):
        calls.append(other)
        return product(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    assert con.holds(member) and not con.holds(member.scale(t.scalar(2)))
    assert calls == []
    assert con.antilinear == (con.form.kind == "hermitian")
    assert describe(con) == "preserves %s form %r" % (con.form.kind, attr)


def _full_product_holds(con, g):
    """g^T G g' == G (g' = conj(g) for a hermitian G) by full products:
    the formula ``holds`` evaluates on half the entries."""
    gram = con.form.gram
    right = g.conj() if con.antilinear else g
    return g.transpose() * gram * right == gram


def _null_on_pair(data, f, a, b):
    """x e_a + zeta x e_b, f-null for the diagonal Gram of f."""
    t = f.tower
    x = data.draw(deep_scalars(t).filter(lambda s: not s.is_zero()))
    ga, gb = f.gram[a, a], f.gram[b, b]
    if f.kind == "hermitian":
        zeta = data.draw(st.sampled_from([t.one(), -t.one(), t.i(), -t.i()]))
    else:
        zeta = t.one() if ga == -gb else t.i()
    v = [t.zero()] * f.dim
    v[a], v[b] = x, zeta * x
    assert f.norm(v).is_zero()
    return v


def _unitary_reflection(f, u):
    """x -> x - 2 h(x, u)/h(u, u) u, for a diagonal hermitian Gram."""
    t = f.tower
    gu = f.gram.apply([c.conj() for c in u])
    return Matrix.identity(t, f.dim) - outer(t, u, gu).scale(
        t.scalar(2) / f.norm(u))


def _member(data, f):
    """A reflection or the exponential of a square-zero element of the
    algebra of f (with entries over all of its tower).  A symmetric f
    needs m >= 4, and a hermitian one signs of both kinds, for the
    square-zero element; otherwise it is a reflection."""
    t, m = f.tower, f.dim
    s = data.draw(deep_scalars(t))
    if f.kind == "antisymmetric":
        u = [data.draw(deep_scalars(t)) for _ in range(m)]
        return exp_nilpotent(nilpotent_symplectic(f, u), s)
    mixed = [(a, b) for a in range(m) for b in range(m)
             if (f.gram[a, a] * f.gram[b, b]).sign() < 0]
    if data.draw(st.booleans()) or (m < 4 if f.kind == "symmetric"
                                    else not mixed):
        # reflect in a base-field vector: dividing by a deep norm would
        # only swell the entries, and the products bring in the depth
        u = [data.draw(gauss(t)) for _ in range(m)]
        if f.norm(u).is_zero():
            return Matrix.identity(t, m)
        return (reflection(f, u) if f.kind == "symmetric"
                else _unitary_reflection(f, u))
    if f.kind == "symmetric":
        a, b, c, d = data.draw(st.permutations(range(m)))[:4]
        return exp_nilpotent(nilpotent_orthogonal(
            f, _null_on_pair(data, f, a, b), _null_on_pair(data, f, c, d)), s)
    a, b = data.draw(st.sampled_from(mixed))
    return exp_nilpotent(nilpotent_unitary(f, _null_on_pair(data, f, a, b)),
                         s.real_part())


@pytest.mark.parametrize("info,attr", HALF_FORMS, ids=HALF_IDS)
@settings(max_examples=8)
@given(data=st.data())
def test_half_check_agrees_with_the_full_product(info, attr, data):
    t = tower_of_depth(data.draw(st.integers(0, 3)))
    f = getattr(StandardModel.from_info(t, info), attr)
    con = PreservesForm(f)
    m = f.dim
    g = Matrix.identity(t, m)
    for _ in range(data.draw(st.integers(1, 2))):
        g = g * _member(data, f)
    assert _full_product_holds(con, g) and con.holds(g)
    # provable non-members: c I with |c| != 1 (G scaled by c^2 or |c|^2,
    # so a skipped diagonal lets it through a hermitian or symmetric
    # check) and a doubled column (a nonzero row of G scaled by 2 and 4)
    re, im = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                       .filter(lambda c: c[0] ** 2 + c[1] ** 2 > 1))
    i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
    doubled = Matrix(t, [[x + x if k == j else x for k, x in enumerate(row)]
                         for row in g.to_lists()])
    for bad in (Matrix.identity(t, m).scale(t.scalar(re, im)), doubled):
        assert not _full_product_holds(con, bad) and not con.holds(bad)
    rows = g.to_lists()
    rows[i][j] += data.draw(deep_scalars(t).filter(lambda s: not s.is_zero()))
    for other in (Matrix(t, rows), g.transpose(), g.conj()):
        assert con.holds(other) == _full_product_holds(con, other)


# -- the monomial split of _preserves against the full product ---------------


def _nested_tower():
    """sqrt(2), then sqrt(1 + sqrt(2)): the square of the second root has a
    root in it, so products of roots recurse in ``_mul_into``."""
    t = Tower()
    t.adjoin_sqrt(1 + t.adjoin_sqrt(2))
    return t


def _drawn_dim(data, kind):
    """m = 1..6 for a drawn form, even if it is antisymmetric."""
    if kind == "antisymmetric":
        return 2 * data.draw(st.integers(1, 3))
    return data.draw(st.integers(1, 6))


def _drawn_form(data, t, kind):
    """A drawn signed-permutation form f of ``kind``
    (``signed_permutation_gram``), and the rows of G0 and Q with G =
    Q^T G0 Q, so that Q^-1 g Q preserves f whenever g preserves G0 (Q is
    real, so conj leaves it alone).  G0 = G and Q = I for an
    antisymmetric f, which ``_member`` takes as it is.  Otherwise G0 is
    diagonal, as ``_member`` needs: s on a fixed point of sign s, and
    diag(1, -1) on a pair G[a, b] = G[b, a] = s, through the rows
    (1, s/2) and (1, -s/2) of Q on (a, b)."""
    m = _drawn_dim(data, kind)
    f = FormSpec(kind, signed_permutation_gram(data, t, m, kind), "f")
    g0, q = f.gram.to_lists(), Matrix.identity(t, m).to_lists()
    if kind != "antisymmetric":
        for a, b in enumerate(f.perm):
            if a < b:
                half = t.scalar(Fraction(f.signs[a], 2))
                g0[a][b] = g0[b][a] = t.zero()
                g0[a][a], g0[b][b] = t.one(), -t.one()
                q[a][b], q[b][a], q[b][b] = half, t.one(), -half
    return f, g0, q


def _rooted_member(f, r):
    """A member of the group of f whose entries carry r: the reflection
    in u = e0 + r e1 (unitary for a hermitian f), or exp(u u^T J) for an
    antisymmetric f.  The off-diagonal entries are r or conj(r) over the
    norm of u, which lies in the field below r."""
    t, m = f.tower, f.dim
    u = [t.one(), r] + [t.zero()] * (m - 2)
    if f.kind == "antisymmetric":
        return exp_nilpotent(nilpotent_symplectic(f, u), 1)
    assert not f.norm(u).is_zero()
    return (reflection(f, u) if f.kind == "symmetric"
            else _unitary_reflection(f, u))


# every half form as the model builds it, a drawn Gram of each kind, and
# every half form again with a root in the member
SPLIT_FORMS = ([(info, attr, False) for info, attr in HALF_FORMS]
               + [(None, kind, False) for kind in
                  ("symmetric", "antisymmetric", "hermitian")]
               + [(info, attr, True) for info, attr in HALF_FORMS])
SPLIT_IDS = (HALF_IDS + ["drawn:" + kind for kind in
                         ("symmetric", "antisymmetric", "hermitian")]
             + [i + ":rooted" for i in HALF_IDS])


@pytest.mark.parametrize("info,attr,rooted", SPLIT_FORMS, ids=SPLIT_IDS)
@settings(max_examples=8)
@given(data=st.data())
def test_monomial_split_agrees_with_the_full_product(info, attr, rooted,
                                                     data):
    """Members, tampered members and perturbed elements, over towers of
    depth 0-3 and the nested tower; the element may live in a separate
    tower one level deeper than the Gram's.  A ``drawn`` case checks a
    drawn signed-permutation Gram of the kind ``attr``, which no model
    builds, with members Q^-1 g Q (``_drawn_form``).  A ``rooted`` case
    draws a tower of depth 1-3 or the nested one and multiplies the
    member by one whose entries carry the tower's last root
    (``_rooted_member``): a Gram holds only signs, so the root rides on
    the element."""
    depth = data.draw(st.sampled_from([1, 2, 3, "nested"] if rooted
                                      else [0, 1, 2, 3, "nested"]))
    base = _nested_tower() if depth == "nested" else tower_of_depth(depth)
    if info is None:
        f, g0, q = _drawn_form(data, base, attr)
    else:
        f = getattr(StandardModel.from_info(base, info), attr)
        g0, q = f.gram.to_lists(), None
    t, m = base, f.dim
    if data.draw(st.booleans()):
        t = base.clone()
        t.adjoin_sqrt(7)
    fg = FormSpec(f.kind, Matrix.from_rows(t, g0), f.name)
    g = _member(data, fg)
    if rooted:
        root = _rooted_member(fg, t.root(base.depth - 1))
        assert any(not gaussian(x) for row in root.to_lists() for x in row)
        g = g * root
    if q is not None:
        q = Matrix.from_rows(t, q)
        g = q.inverse() * g * q
    con = PreservesForm(f)
    assert con.holds(g) and _full_product_holds(con, g)
    tg = g.tower
    re, im = data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))
                       .filter(lambda c: c[0] ** 2 + c[1] ** 2 > 1))
    j = data.draw(st.integers(0, m - 1))
    doubled = Matrix(tg, [[x + x if k == j else x for k, x in enumerate(row)]
                          for row in g.to_lists()])
    for bad in (Matrix.identity(tg, m).scale(tg.scalar(re, im)), doubled):
        assert not con.holds(bad) and not _full_product_holds(con, bad)
    i = data.draw(st.integers(0, m - 1))
    rows = g.to_lists()
    rows[i][j] += data.draw(deep_scalars(t).filter(lambda s: not s.is_zero()))
    for other in (Matrix(tg, rows), g.transpose(), g.conj()):
        assert con.holds(other) == _full_product_holds(con, other)


def _outcome(holds, con, g):
    """``holds(con, g)``, or "TowerError" when it raises one."""
    try:
        return holds(con, g)
    except TowerError:
        return "TowerError"


@pytest.mark.parametrize("attr", ["omega", "h"])
def test_a_radicand_conflict_raises_as_the_full_product_does(attr):
    """A member g over Q(i)(sqrt 2), checked against forms over Q(i)(sqrt 3):
    the form, or rational entries of the other tower, meet no conflict;
    an entry using sqrt 3 next to the sqrt 2 of g raises TowerError in
    both checks."""
    t2, t3 = tower_of_depth(1), Tower()
    t3.adjoin_sqrt(3)
    info = dict(case="projective-split", n=2)
    f2 = getattr(StandardModel.from_info(t2, info), attr)
    f3 = getattr(StandardModel.from_info(t3, info), attr)
    r2 = t2.root(0)
    if f2.kind == "antisymmetric":
        x = nilpotent_symplectic(f2, [1 + r2, t2.scalar(2), r2, t2.one()])
    else:
        x = nilpotent_unitary(f2, [1 + r2, t2.zero(), 1 + r2, t2.zero()])
    g = exp_nilpotent(x, 1)
    assert any(not gaussian(e) for row in g.to_lists() for e in row)

    def with_entry(e):
        rows = g.to_lists()
        rows[1][2] = e
        return Matrix(t2, rows)

    cases = [(f3, g, True), (f3, with_entry(t3.scalar(5, 1)), False),
             (f3, with_entry(t3.root(0) + 1), "TowerError")]
    for f, elem, want in cases:
        con = PreservesForm(f)
        assert _outcome(_full_product_holds, con, elem) == want
        assert _outcome(type(con).holds, con, elem) == want


# -- the conjugation check of the real forms ----------------------------------

# every (bilinear, hermitian) pair of forms a model carries
CONJ_PAIRS = [
    (dict(case="projective-split", n=2), "omega", "h"),
    (dict(case="projective-split", n=2), "b", "h"),
    (dict(case="projective-pq", p=1, q=1), "omega", "h"),
    (dict(case="projective-pq", p=1, q=1), "b", "h"),
    (dict(case="quadric7"), "b", "h"),
    (dict(case="isotropic", p=2, q=1), "b", "hhat"),
    (dict(case="isotropic", p=2, q=1), "b_sig", "hhat"),
    (dict(case="isotropic", p=1, q=2), "b", "hhat"),
]
CONJ_IDS = ["%s:%s/%s" % ("-".join(str(v) for v in info.values()), b, h)
            for info, b, h in CONJ_PAIRS]


def _conj_forms(info, battr, hattr):
    if info is None:
        h, b = _paired_forms(Tower())
        return b, h
    model = StandardModel.from_info(Tower(), info)
    return getattr(model, battr), getattr(model, hattr)


@pytest.mark.parametrize("info,battr,hattr",
                         CONJ_PAIRS + [(None, "b", "h")],
                         ids=CONJ_IDS + ["complex-grams"])
@settings(max_examples=8)
@given(data=st.data())
def test_the_hermitian_form_is_the_bilinear_one_through_the_conjugation(
        info, battr, hattr, data):
    """H(z, w) = B(z, M conj(w)) for the M that ``CommutesWithConj`` reads
    off the two forms, which is B^-1 H; the vectors may live in a deeper
    tower than the forms."""
    b, h = _conj_forms(info, battr, hattr)
    con = CommutesWithConj(b, h)
    t, m = b.tower, b.dim
    rows = [[t.zero()] * m for _ in range(m)]
    for r, (p, s) in enumerate(zip(con.perm, con.signs)):
        rows[r][p] = t.lift(s)
    mat = Matrix(t, rows)
    assert mat == _conjugation(con)
    deep = tower_of_depth(data.draw(st.integers(0, 3)))
    z, w = (data.draw(st.lists(deep_scalars(deep), min_size=m, max_size=m))
            for _ in range(2))
    assert h.value(z, w) == b.value(z, mat.apply([x.conj() for x in w]))


def test_the_conjugation_check_refuses_forms_that_do_not_pair():
    model = StandardModel.isotropic(Tower(), 2, 1)
    with pytest.raises(ValueError, match="a bilinear and a hermitian"):
        CommutesWithConj(model.hhat, model.b)
    with pytest.raises(ValueError, match="a bilinear and a hermitian"):
        CommutesWithConj(model.b, model.b_sig)
    small = FormSpec("hermitian", Matrix.identity(model.tower, 3), "h3")
    with pytest.raises(ValueError, match="differ in dimension"):
        CommutesWithConj(model.b, small)
    with pytest.raises(ValueError, match="the group acts on 5"):
        GroupSpec(model.tower, 5, [CommutesWithConj(model.b, model.hhat)],
                  "G")


# the tags the four real forms had before ``CommutesWithConj``: their
# hermitian form itself, through ``PreservesForm``
HERMITIAN_TABLE = {
    "Sp2nR": ("omega", "h"), "Sp(2p,2q)": ("omega", "h"),
    "SO(p,q)": ("b", "hhat", "det", "fix"), "SO(hhat)": ("b", "hhat", "det"),
}


def _hermitian_group(model, name):
    return GroupSpec(model.tower, model.ambient_dim,
                     [witnesses._constraint(model, tag)
                      for tag in HERMITIAN_TABLE[name]], name)


# the configs whose bases the two tables must give byte for byte
CONJ_GROUPS = [(dict(case="projective-split", n=n), "Sp2nR") for n in (2, 3)]
CONJ_GROUPS += [(dict(case="projective-pq", p=p, q=q), "Sp(2p,2q)")
                for p, q in ((1, 1), (2, 1))]
CONJ_GROUPS += [(dict(case="isotropic", p=p, q=q), name)
                for p, q in ((2, 1), (1, 2), (2, 3), (3, 2), (4, 1))
                for name in ("SO(p,q)", "SO(hhat)")]


@pytest.mark.parametrize("info,name", CONJ_GROUPS, ids=[
    "%s:%s" % ("-".join(str(v) for v in info.values()), name)
    for info, name in CONJ_GROUPS])
def test_the_conjugation_table_solves_to_the_same_basis(info, name):
    model = StandardModel.from_info(Tower(), info)
    new, old = build_group(model, name), _hermitian_group(model, name)
    assert any(isinstance(c, CommutesWithConj) for c in new.constraints)
    a, b = solve_linear_constraints(new), solve_linear_constraints(old)
    assert [x.to_json() for x in a.matrices] == [
        x.to_json() for x in b.matrices]


def test_the_conjugation_solves_as_the_hermitian_form_on_complex_grams():
    # both forms pair e0 and e1, so M = b^-1 h = diag(1, 1, -1): x is real
    # but for imaginary x[r, 2] and x[2, r], r < 2, a real form of
    # so(3, C) (so(1, 2)), of real dimension 3
    t = Tower()
    h, b = _paired_forms(t)
    con = CommutesWithConj(b, h)
    assert (con.perm, con.signs) == ([0, 1, 2], [1, 1, -1])
    new = GroupSpec(t, 3, [con, PreservesForm(b)], "new")
    old = GroupSpec(t, 3, [PreservesForm(b), PreservesForm(h)], "old")
    a, b = new.lie_algebra(), old.lie_algebra()
    assert a.dim == 3
    assert [x.to_json() for x in a.matrices] == [
        x.to_json() for x in b.matrices] == [
        x.to_json() for x in _unit_reference_solve(new)]


def _golden_element(name):
    golden = os.path.join(os.path.dirname(__file__), "data", "golden")
    with open(os.path.join(golden, name + ".json")) as fh:
        obj = json.load(fh)["element"]
    return Matrix.from_json(obj, Tower.deserialize(obj["radicands"]))


def _pq_transport():
    model = StandardModel.projective_signature(Tower(), 2, 1)
    t = model.tower
    src = [t.zero(), t.zero(), t.one(), t.zero(), t.zero(), t.zero()]
    dst = [t.zero(), t.one(), t.scalar(3), t.zero(), t.zero(), t.one()]
    return transport_positive_line_sp(model, src, dst).element


# a member of each group from a witness: the golden transports and real
# normal forms (tower depth 1-3), and a pq transport built here
CONJ_MEMBERS = [
    (dict(case="projective-split", n=2), "Sp2nR",
     lambda: _golden_element("witness-transport-n2")),
    (dict(case="projective-split", n=3), "Sp2nR",
     lambda: _golden_element("witness-transport-n3")),
    (dict(case="projective-pq", p=2, q=1), "Sp(2p,2q)", _pq_transport),
] + [(dict(case="isotropic", p=p, q=q), name,
      lambda p=p, q=q: _golden_element(
          "witness-normal-form-real-p%d-q%d" % (p, q)))
     for p, q in ((2, 1), (3, 2)) for name in ("SO(p,q)", "SO(hhat)")]


def _complex_member(model):
    """An element of the complex group of the bilinear form that is not
    real for the hermitian one: the exponential of u u^T J for u = (i, 1,
    0, ..., 0, 2), or of the orthogonal nilpotent of e0 + i e1 and
    e2 + i e3."""
    t, m = model.tower, model.ambient_dim
    if model.case.startswith("projective"):
        u = [t.i(), t.one()] + [t.zero()] * (m - 3) + [t.scalar(2)]
        return exp_nilpotent(nilpotent_symplectic(model.omega, u), 1)
    u, v = _e(t, m, 0), _e(t, m, 2)
    u[1], v[3] = t.i(), t.i()
    return exp_nilpotent(nilpotent_orthogonal(model.b, u, v), 1)


@pytest.mark.parametrize("info,name,member", CONJ_MEMBERS, ids=[
    "%s:%s" % ("-".join(str(v) for v in info.values()), name)
    for info, name, _ in CONJ_MEMBERS])
@settings(max_examples=4)
@given(data=st.data())
def test_the_conjugation_table_agrees_with_the_hermitian_one(info, name,
                                                             member, data):
    """``contains`` under ``GROUP_CONSTRAINTS`` against the hermitian
    table, on a witness element and tampered copies of it, complex
    elements that are not real, random matrices, and elements over a
    tower one root deeper than the witness."""
    g = member()
    model = StandardModel.from_info(g.tower, info)
    new, old = build_group(model, name), _hermitian_group(model, name)
    t, m = g.tower, g.rows
    ident = Matrix.identity(t, m)
    cplx = _complex_member(model)
    bilinear, hermitian = (describe(c) for c in old.constraints[:2])
    assert hermitian in violations(old, cplx)
    assert bilinear not in violations(old, cplx)
    i, j = (data.draw(st.integers(0, m - 1)) for _ in range(2))
    rows = g.to_lists()
    rows[i][j] += data.draw(deep_scalars(t).filter(lambda s: not s.is_zero()))
    deep = t.clone()
    deep.adjoin_sqrt(7)
    r7 = deep.root(deep.depth - 1)
    deep_rows = Matrix.from_rows(deep, g.to_lists()).to_lists()
    deep_rows[j][i] += r7
    elements = [
        g, ident, -ident, g.scale(t.scalar(2)), g.scale(t.i()), cplx,
        g * cplx, cplx * g, g.conj(), g.transpose(), -g, Matrix(t, rows),
        Matrix(t, [[x + x if k == j else x for k, x in enumerate(row)]
                   for row in g.to_lists()]),
        ident.scale(0), _random_matrix(t, m, random.Random(j)),
        Matrix.from_rows(deep, g.to_lists()),
        Matrix.from_rows(deep, g.to_lists()).scale(r7),
        Matrix(deep, deep_rows),
    ]
    verdicts = [old.contains(x) for x in elements]
    assert [new.contains(x) for x in elements] == verdicts
    assert verdicts[:3] == [True, True, name != "SO(p,q)"]
    assert not any(verdicts[3:8])


# -- the conjugation check against its operator formula ----------------------


def _commutes_by_operators(con, g):
    """x * M[j] == M[r] * conj(y) for every entry x = g[r, j], with y =
    g[perm[r], perm[j]], by ``Scalar`` operators on the signs lifted into
    the forms' tower: the formula ``holds`` evaluates on coefficient
    triples.  Every entry is compared before the verdict, so a radicand
    conflict on any of them raises."""
    t = con.bilinear.tower
    rows = g.to_lists()
    ps = [(p, t.lift(s)) for p, s in zip(con.perm, con.signs)]
    return all([x * mj == mr * rows[sr][sj].conj()
                for row, (sr, mr) in zip(rows, ps)
                for x, (sj, mj) in zip(row, ps)])


def _averaged(con, a):
    """The sum of T^k(A), k < 2j, for T(A) = M conj(A) M^-1 and the least
    j with M^2j = +-I: M is real, so T^2(A) = M^2 A M^-2, T^2j is the
    identity and the sum g has T(g) = g, that is g M = M conj(g).  On
    every pair of forms a model carries j = 1, and g = A + T(A)."""
    mat = _conjugation(con)
    ident = Matrix.identity(mat.tower, mat.rows)
    square = power = mat * mat
    j = 1
    while power not in (ident, -ident):
        power, j = power * square, j + 1
    inv, terms = mat.inverse(), [a]
    for _ in range(2 * j - 1):
        terms.append(mat * terms[-1].conj() * inv)
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize("info,battr,hattr", CONJ_PAIRS + [(None, "b", "h")],
                         ids=CONJ_IDS + ["drawn"])
@settings(max_examples=6)
@given(data=st.data())
def test_the_conjugation_check_agrees_with_its_operator_formula(
        info, battr, hattr, data):
    """Averaged elements, tampered and perturbed copies and plain
    matrices, over towers of depth 0-3 and the nested tower; the element
    may live in a separate tower one root deeper than the forms.  The
    ``drawn`` case checks a drawn symmetric or antisymmetric form with a
    drawn hermitian one (``signed_permutation_gram``), a pair no model
    carries, whose M need not square to +-I."""
    depth = data.draw(st.sampled_from([0, 1, 2, 3, "nested"]))
    base = _nested_tower() if depth == "nested" else tower_of_depth(depth)
    if info is None:
        kind = data.draw(st.sampled_from(["symmetric", "antisymmetric"]))
        m = _drawn_dim(data, kind)
        b, h = (FormSpec(k, signed_permutation_gram(data, base, m, k), name)
                for k, name in ((kind, battr), ("hermitian", hattr)))
    else:
        model = StandardModel.from_info(base, info)
        b, h = getattr(model, battr), getattr(model, hattr)
    con = CommutesWithConj(b, h)
    t, m = base, con.dim
    if data.draw(st.booleans()):
        t = base.clone()
        t.adjoin_sqrt(7)
    a = Matrix(t, [[data.draw(deep_scalars(t)) for _ in range(m)]
                   for _ in range(m)])
    g = _averaged(con, a)
    assert con.holds(g) and _commutes_by_operators(con, g)
    i, j = (data.draw(st.integers(0, m - 1)) for _ in range(2))
    rows = g.to_lists()
    rows[i][j] += data.draw(deep_scalars(t).filter(lambda s: not s.is_zero()))
    for other in (Matrix(t, rows), a, g.transpose(), g.conj(),
                  g.scale(t.i()), g.scale(t.scalar(2))):
        assert con.holds(other) == _commutes_by_operators(con, other)


def test_a_radicand_conflict_raises_in_the_conjugation_check_as_in_its_formula():
    """An averaged element over Q(i)(sqrt 2), checked against the
    omega/h conjugation over Q(i)(sqrt 3): the forms, or a rational entry
    of the other tower, meet no conflict; an entry using sqrt 3 next to
    the sqrt 2 of its mirror entry raises TowerError in both checks."""
    t2, t3 = tower_of_depth(1), Tower()
    t3.adjoin_sqrt(3)
    info = dict(case="projective-split", n=2)
    m2, m3 = (StandardModel.from_info(t, info) for t in (t2, t3))
    r2 = t2.root(0)
    a = Matrix(t2, [[t2.scalar(i + 1, j) + (i + j + 1) * r2
                     for j in range(4)] for i in range(4)])
    g = _averaged(CommutesWithConj(m2.omega, m2.h), a)
    assert all(gaussian(x) is None for x in g.flatten())

    def with_entry(e):
        rows = g.to_lists()
        rows[1][2] = e
        return Matrix(t2, rows)

    plain = CommutesWithConj(m3.omega, m3.h)
    cases = [(plain, g, True), (plain, with_entry(t3.scalar(5, 1)), False),
             (plain, with_entry(t3.root(0) + 1), "TowerError")]
    for con, elem, want in cases:
        assert _outcome(_commutes_by_operators, con, elem) == want
        assert _outcome(type(con).holds, con, elem) == want


def _dense_commuting_element(d):
    """The golden n=2 transport's model over the first d primes, and
    g = A + M conj(A) M^-1 for M = ``phi_mat`` and a 4x4 A whose entries
    have all 2**d coordinates nonzero: an element that passes the
    commutation check, so that a verifier reaches ``omega``."""
    t = Tower.deserialize([2, 3, 5, 7, 11, 13, 17, 19][:d])
    model = StandardModel.projective_split(t, 2)
    a = Matrix(t, [[Scalar.from_coords(t, [
        "%d/1+%d/1*i" % (1 + (7 * r + 5 * c + 3 * k) % 11,
                         1 + (3 * r + 11 * c + k) % 7)
        for k in range(1 << d)]) for c in range(4)] for r in range(4)])
    mat = model.phi_mat
    return model, a + mat * a.conj() * mat.inverse()


def test_a_dense_depth_four_element_fails_at_omega(tmp_path, capsys):
    """The hostile input of the depth cap, at depth 4: the element
    passes the commutation check, ``PreservesForm(omega)`` refuses it as
    the full product does, and ``witness verify`` exits 1."""
    model, g = _dense_commuting_element(4)
    assert max(len(x._terms) for x in g.flatten()) == 16
    group = build_group(model, "Sp2nR")
    assert violations(group, g) == ["preserves antisymmetric form 'omega'"]
    con = PreservesForm(model.omega)
    assert con.holds(g) is False
    assert _full_product_holds(con, g) is False
    golden = os.path.join(os.path.dirname(__file__), "data", "golden",
                          "witness-transport-n2.json")
    with open(golden) as fh:
        obj = json.load(fh)
    obj["element"] = g.to_json()
    path = tmp_path / "dense.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["witness", "verify", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().out
