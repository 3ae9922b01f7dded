"""Model construction and the form identities tying h, omega and phi."""

import pytest
from hypothesis import given, settings, strategies as st

from orbitcert.forms import FormSpec, StandardModel
from orbitcert.linalg import Matrix, Subspace, hermitian_signature, kernel
from orbitcert.scalars import Tower

from conftest import deep_scalars, gauss, tower_of_depth, vectors

T2 = Tower()
SPLIT2 = StandardModel.projective_split(T2, 2)
ISO21 = StandardModel.isotropic(Tower(), 2, 1)


def test_projective_structure_matrices():
    # phi is a real structure on the split model (phi^2 = +Id: fixed group
    # Sp(2n,R)) and a quaternionic one on the signature model (phi^2 = -Id:
    # fixed group Sp(2p,2q)); the identities of the omega Gram J and the
    # h Gram E are common to both.
    for model, phi_sq_sign in (
            (SPLIT2, 1),
            (StandardModel.projective_signature(Tower(), 2, 1), -1)):
        m = model.ambient_dim
        t = model.tower
        ident = Matrix.identity(t, m)
        j, e = model.omega.gram, model.h.gram
        assert j * j == -ident
        assert j.transpose() * j == ident
        assert e * e == ident
        phi2 = model.phi_mat * model.phi_mat.conj()
        assert phi2 == ident.scale(phi_sq_sign)


def test_phi_is_antilinear():
    t = T2
    z = [t.scalar(1, 2), t.scalar(0, -1), t.scalar(3), t.scalar(-1, 1)]
    again = SPLIT2.phi(SPLIT2.phi(z))
    assert all((x - y).is_zero() for x, y in zip(again, z))
    i = t.i()
    lifted = SPLIT2.phi([i * x for x in z])
    expected = [-(i * x) for x in SPLIT2.phi(z)]
    assert all((x - y).is_zero() for x, y in zip(lifted, expected))


@settings(max_examples=30)
@given(vectors(T2, 4), vectors(T2, 4))
def test_h_equals_omega_of_phi(z, w):
    lhs = SPLIT2.h.value(z, w)
    rhs = SPLIT2.omega.value(z, SPLIT2.phi(w))
    assert lhs == rhs


@settings(max_examples=20)
@given(vectors(T2, 4))
def test_phi_plane_has_equal_perps(z):
    model = SPLIT2
    if model.h.norm(z).is_zero():
        return
    plane = Subspace.from_vectors(T2, 4, [z, model.phi(z)])
    if plane.dim != 2:
        return
    gram = model.h.restrict(plane)
    if gram.det().is_zero():
        return
    whole = Subspace.from_vectors(T2, 4, Matrix.identity(T2, 4).col_list())
    perp_h = model.h.perp(plane.basis_vectors(), whole)
    perp_w = model.omega.perp(plane.basis_vectors(), whole)
    assert perp_h == perp_w
    assert plane.intersect(perp_h).dim == 0
    join = Subspace.from_vectors(
        T2, 4, plane.basis_vectors() + perp_h.basis_vectors())
    assert join.dim == 4


def test_signature_of_standard_hermitian_grams():
    assert hermitian_signature(SPLIT2.h.gram) == (2, 2, 0)
    sig = StandardModel.projective_signature(Tower(), 2, 1)
    assert hermitian_signature(sig.h.gram) == (4, 2, 0)
    quad = StandardModel.quadric7(Tower())
    assert hermitian_signature(quad.h.gram) == (3, 4, 0)


def test_quadric_representatives():
    model = StandardModel.quadric7(Tower())
    reps = model.stratum_representatives
    for name, z in reps.items():
        assert model.b.norm(z).is_zero(), name
    assert model.h.norm(reps["positive"]).sign() == 1
    assert model.h.norm(reps["negative"]).sign() == -1
    assert model.h.norm(reps["null-real"]).is_zero()
    assert model.h.norm(reps["null-nonreal"]).is_zero()


def test_form_value_conventions():
    t = Tower()
    i = t.i()
    h = FormSpec("hermitian", t, [0, 1], [1, 1], "h")
    z = [i, t.zero()]
    w = [t.one(), t.zero()]
    # linear in the first slot, conjugate-linear in the second
    assert h.value(z, w) == i
    assert h.value(w, z) == -i
    assert h.norm(z) == t.one()
    omega = FormSpec("antisymmetric", t, [1, 0], [1, -1], "omega")
    assert omega.value(w, [t.zero(), t.one()]) == t.one()
    assert omega.norm(w).is_zero()


def test_isotropic_model_normal_forms():
    # positives pair in order, then negatives; the one left over pairs
    # with the last coordinate
    pinned = {(4, 1): [(0, 1), (2, 3), (4, 5)],
              (1, 4): [(1, 2), (3, 4), (0, 5)],
              (5, 2): [(0, 1), (2, 3), (5, 6), (4, 7)],
              (2, 5): [(0, 1), (2, 3), (4, 5), (6, 7)]}
    for (p, q), pairs in pinned.items():
        assert StandardModel.isotropic(
            Tower(), p, q).normal_form_real_pairs() == pairs
    for p, q in ((2, 1), (1, 2), (2, 3), (3, 2)):
        model = StandardModel.isotropic(Tower(), p, q)
        n, m = model.n, model.ambient_dim
        assert m == p + q + 1

        nf_c = model.normal_form_complex()
        assert nf_c.dim == n
        for u in nf_c.basis_vectors():
            for v in nf_c.basis_vectors():
                assert model.b.value(u, v).is_zero()

        pairs = model.normal_form_real_pairs()
        assert len(pairs) == n
        assert pairs[-1][1] == m - 1
        flat = [c for pr in pairs for c in pr]
        assert len(set(flat)) == 2 * n

        nf_r = model.normal_form_real()
        assert nf_r.dim == n
        for u in nf_r.basis_vectors():
            for v in nf_r.basis_vectors():
                assert model.b.value(u, v).is_zero()
        gram = model.hhat.restrict(nf_r)
        assert hermitian_signature(gram)[:2] == model.open_signature


def test_isotropic_signature_coordinates():
    model = StandardModel.isotropic(Tower(), 2, 3)
    s = model.sig_change
    # the change of basis carries b to the signature Gram and keeps hhat
    assert s.transpose() * model.b.gram * s == model.b_sig.gram
    assert s.conj_transpose() * model.hhat.gram * s == model.hhat.gram


def test_restrict_and_perp_shapes():
    model = SPLIT2
    t = model.tower
    plane = Subspace.from_vectors(t, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
    gram = model.h.restrict(plane)
    assert gram.rows == gram.cols == 2
    whole = Subspace.from_vectors(t, 4, Matrix.identity(t, 4).col_list())
    perp = model.h.perp(plane.basis_vectors(), whole)
    assert perp.dim == 2
    for v in perp.basis_vectors():
        for u in plane.basis_vectors():
            assert model.h.value(u, v).is_zero()


def _intersect_with_second_slot_perp(form, vectors, within, t):
    """within ∩ {v : value(w, v) = 0 for every w}: the kernel of the
    rows G^T w (conjugated if hermitian), intersected with ``within``,
    all in the tower ``t`` of the vectors."""
    rows = Matrix(t, [form.gram.transpose().apply(w) for w in vectors],
                  cols=form.dim)
    if form.kind == "hermitian":
        rows = rows.conj()
    perp = Subspace.from_vectors(t, form.dim, kernel(rows))
    return Subspace.from_vectors(t, form.dim,
                                 within.basis_vectors()).intersect(perp)


@pytest.mark.parametrize("form", [SPLIT2.omega, SPLIT2.h, ISO21.b,
                                  ISO21.hhat], ids=lambda f: f.name)
@settings(max_examples=15)
@given(st.data())
def test_perp_within_is_the_intersection_with_the_perp(form, data):
    m = form.dim
    within = Subspace.from_vectors(form.tower, m, data.draw(
        st.lists(vectors(form.tower, m), max_size=m)))
    deep = tower_of_depth(data.draw(st.integers(1, 2)))
    ws = data.draw(st.lists(st.lists(deep_scalars(deep), min_size=m,
                                     max_size=m), min_size=1, max_size=2))
    got = form.perp(ws, within)
    assert got == _intersect_with_second_slot_perp(form, ws, within, deep)
    for v in got.basis_vectors():
        assert all(form.value(v, w).is_zero() for w in ws)


def test_model_guards():
    with pytest.raises(ValueError):
        StandardModel.isotropic(Tower(), 2, 2)
    with pytest.raises(ValueError):
        StandardModel.projective_split(Tower(), 0)
    quad = StandardModel.quadric7(Tower())
    with pytest.raises(ValueError):
        quad.phi([quad.tower.zero()] * 7)
    with pytest.raises(ValueError):
        quad.normal_form_complex()


# signed permutations (perm, signs) of each kind, and vectors from a tower
# two levels deeper
_GT = Tower()
_DEEP = _GT.clone()
_R2, _R3 = _DEEP.adjoin_sqrt(2), _DEEP.adjoin_sqrt(3)
_I = _GT.i()
_FORMS = {
    "symmetric": ([2, 1, 0, 3], [1, -1, 1, 1]),
    "antisymmetric": ([3, 2, 1, 0], [1, -1, 1, -1]),
    "hermitian": ([1, 0, 2, 3], [-1, -1, 1, -1]),
}
_deep_scalars = st.builds(
    lambda a, b, c: _DEEP.lift(a) + _DEEP.lift(b) * _R2
    + _DEEP.lift(c) * _R2 * _R3, gauss(_GT), gauss(_GT), gauss(_GT))


@settings(max_examples=25)
@given(st.sampled_from(sorted(_FORMS)),
       st.lists(_deep_scalars, min_size=4, max_size=4),
       st.lists(_deep_scalars, min_size=4, max_size=4))
def test_value_on_deeper_vectors_is_the_explicit_sum(kind, u, v):
    f = FormSpec(kind, _GT, *_FORMS[kind], "f")
    acc = _DEEP.zero()
    for i in range(4):
        for j in range(4):
            vj = v[j].conj() if kind == "hermitian" else v[j]
            acc = acc + u[i] * _DEEP.lift(f.gram[i, j]) * vj
    assert f.value(u, v) == acc
    assert f.norm(u) == f.value(u, u)


@pytest.mark.parametrize("info,attr", [
    (dict(case="projective-split", n=2), "omega"),
    (dict(case="projective-pq", p=1, q=1), "h"),
    (dict(case="quadric7"), "b"),
    (dict(case="quadric7"), "h"),
    (dict(case="isotropic", p=2, q=1), "b_sig"),
    (dict(case="isotropic", p=2, q=1), "hhat"),
], ids=["omega", "h-pq", "b-quadric", "h-quadric", "b_sig", "hhat"])
@settings(max_examples=10)
@given(data=st.data())
def test_gram_of_equals_the_full_pairwise_values(info, attr, data):
    # the vectors live in a tower of their own, deeper than the Gram's
    f = getattr(StandardModel.from_info(Tower(), info), attr)
    t = tower_of_depth(data.draw(st.integers(0, 3)))
    vs = data.draw(st.lists(st.lists(deep_scalars(t), min_size=f.dim,
                                     max_size=f.dim), max_size=4))
    full = [[f.value(u, v) for v in vs] for u in vs]
    assert f.gram_of(vs) == Matrix(f.tower, full, cols=len(vs))


# -- the forms FormSpec refuses ---------------------------------------------

_ROOT = tower_of_depth(1).root(0)


@pytest.mark.parametrize("kind,perm,signs,match", [
    ("symmetric", [0, 1, 2], [1, 1], "2 signs for a permutation of 3"),
    ("hermitian", [0, 1], [1, 0], r"entry \(1, 1\) is not 1 or -1"),
    ("symmetric", [1, 1], [1, 1], r"entry \(1, 0\)"),
    ("symmetric", [1, 0], [1, -1], "not symmetric"),
    ("antisymmetric", [1, 0], [1, 1], "not antisymmetric"),
    ("hermitian", [1, 0], [1, -1], "not hermitian"),
    ("antisymmetric", [1, 0, 2], [1, -1, 1], r"entry \(2, 2\)"),
    ("hermitian", [0, 1], [1, 1 + _I], r"entry \(1, 1\)"),
    ("symmetric", [0, 1], [2, 1], r"entry \(0, 0\) is not 1 or -1"),
    ("symmetric", [1, 0], [_I, _I], r"entry \(0, 1\) is not 1 or -1"),
    ("hermitian", [1, 0], [1 + _I, 1 - _I],
     r"entry \(0, 1\) is not 1 or -1"),
    ("symmetric", [0, 1], [1, _ROOT], r"entry \(1, 1\) is not 1 or -1"),
    # omega's J as P^T J P for P = diag(1 + root, 1, 1, 1)
    ("antisymmetric", [2, 3, 0, 1], [-(1 + _ROOT), -1, 1 + _ROOT, 1],
     r"entry \(0, 2\) is not 1 or -1"),
    ("symmetric", [0, 1], [1, True], r"entry \(1, 1\) is not 1 or -1"),
    ("symmetric", [0, 1], [_GT.one(), 1], r"entry \(0, 0\) is not 1 or -1"),
    ("symmetric", [0, 2], [1, 1], r"not symmetric: entry \(2, 1\)"),
    ("symmetric", [1, 2, 0], [1, 1, 1], r"not symmetric: entry \(1, 0\)"),
    ("skew", [1, 0], [1, -1], "unknown form kind 'skew'"),
], ids=["length-mismatch", "zero-row", "shared-column", "symmetric-mirror",
        "antisymmetric-mirror", "hermitian-mirror", "antisymmetric-diagonal",
        "hermitian-nonreal-diagonal", "entry-two", "entry-i",
        "entry-one-plus-i", "entry-root", "rooted-gram", "sign-true",
        "sign-scalar-one", "out-of-range", "three-cycle", "unknown-kind"])
def test_form_spec_refuses_a_gram_that_is_not_monomial_of_its_kind(
        kind, perm, signs, match):
    with pytest.raises(ValueError, match=match):
        FormSpec(kind, _GT, perm, signs, "f")


def test_form_spec_reads_the_permutation_and_entries():
    f = FormSpec("hermitian", _GT, *_FORMS["hermitian"], "h")
    assert f.perm == [1, 0, 2, 3]
    assert f.signs == [-1, -1, 1, -1]
    assert f.gram == Matrix.from_rows(_GT, [
        [0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    assert SPLIT2.omega.perm == [2, 3, 0, 1]
    # G[a, perm[a]] = signs[a] on omega: J e_i = e_{n+i}, J e_{n+i} = -e_i
    assert SPLIT2.omega.gram == Matrix.from_rows(T2, [
        [0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])


@pytest.mark.parametrize("form", [SPLIT2.omega, SPLIT2.h, ISO21.b],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
def test_a_vector_of_the_wrong_length_is_refused(form, extra):
    t, m = form.tower, form.dim
    good, bad = [t.one()] * m, [t.one()] * (m + extra)
    whole = Subspace.from_vectors(t, m, Matrix.identity(t, m).col_list())
    for call in (lambda: form.value(good, bad), lambda: form.value(bad, good),
                 lambda: form.gram_of([good, bad]),
                 lambda: form.perp([bad], whole)):
        with pytest.raises(ValueError, match="vector length"):
            call()


def test_models_are_built_with_no_determinant(monkeypatch):
    calls = []
    det = Matrix.det

    def counting(self):
        calls.append(self)
        return det(self)

    monkeypatch.setattr(Matrix, "det", counting)
    for info in (dict(case="projective-split", n=2),
                 dict(case="projective-pq", p=2, q=1), dict(case="quadric7"),
                 dict(case="isotropic", p=2, q=3)):
        StandardModel.from_info(Tower(), info)
    assert calls == []
