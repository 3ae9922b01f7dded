"""Witness construction: reflections, Witt transport, normal forms."""

import json
import os
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from conftest import (deep_scalars, exp_nilpotent, reflection, submatrix,
                      tower_of_depth, transport_matrix, violations)
from orbitcert import witnesses
from orbitcert.forms import FormSpec, StandardModel
from orbitcert.groups import outer
from orbitcert.linalg import Matrix, column_space_equal, rank
from orbitcert.orbits import _quadric_nilpotents
from orbitcert.rng import SplitMix64
from orbitcert.scalars import Tower
from orbitcert.witnesses import (NotInDomainError, Witness,
                                 WitnessVerificationError, _model_dim,
                                 build_group, isotropic_normal_form_complex,
                                 isotropic_normal_form_real,
                                 transport_positive_line_sp, witness_from_json,
                                 witt_transport)


def _line(model, coords):
    t = model.tower
    return [t.scalar(c) if not hasattr(c, "sign") else c for c in coords]


def _rand_vec(rng, t, m, bound=4, real=False):
    return [t.scalar(rng.randint(-bound, bound),
                     0 if real else rng.randint(-bound, bound))
            for _ in range(m)]


# -- reflections --------------------------------------------------------------


def test_reflection_is_an_involutive_isometry():
    t = Tower()
    f = FormSpec("symmetric", Matrix.diag(t, [1, 1, -1]), "b")
    u = [t.one(), t.scalar(2), t.zero()]
    s = reflection(f, u)
    assert s * s == Matrix.identity(t, 3)
    assert s.transpose() * f.gram * s == f.gram
    assert s.apply(u) == [-x for x in u]
    assert s.det() == -t.one()
    # fixes the orthogonal complement
    w = [t.scalar(2), -t.one(), t.zero()]
    assert f.value(u, w).is_zero()
    assert s.apply(w) == w


def test_reflection_rejects_isotropic_vectors():
    t = Tower()
    f = FormSpec("symmetric", Matrix.diag(t, [1, -1]), "b")
    with pytest.raises(ValueError):
        reflection(f, [t.one(), t.one()])
    with pytest.raises(ValueError):
        reflection(FormSpec("antisymmetric",
                            Matrix.from_rows(t, [[0, 1], [-1, 0]]), "w"),
                   [t.one(), t.zero()])


# -- Witt transport ------------------------------------------------------------


def test_witt_transport_moves_a_frame():
    t = Tower()
    f = FormSpec("symmetric", Matrix.identity(t, 3), "b")
    e0 = [t.one(), t.zero(), t.zero()]
    e1 = [t.zero(), t.one(), t.zero()]
    g = transport_matrix(f, [e0], [e1])
    assert g.apply(e0) == e1
    assert g.transpose() * f.gram * g == f.gram


def test_witt_transport_isotropic_difference_fallback():
    # a and b both have norm 1 but a - b is isotropic, forcing the
    # two-reflection path through a + b
    t = Tower()
    f = FormSpec("symmetric", Matrix.identity(t, 3), "b")
    a = [t.one(), t.zero(), t.zero()]
    b = [t.one(), t.one(), t.i()]
    assert f.norm(b).is_one() and f.norm([x - y for x, y in zip(a, b)]).is_zero()
    g = transport_matrix(f, [a], [b])
    assert g.apply(a) == b


def test_witt_transport_two_vector_frame():
    t = Tower()
    f = FormSpec("symmetric", Matrix.identity(t, 4), "b")
    fr_a = [[t.one(), t.zero(), t.zero(), t.zero()],
            [t.zero(), t.one(), t.zero(), t.zero()]]
    fr_b = [[t.zero(), t.zero(), t.one(), t.zero()],
            [t.zero(), t.one(), t.zero(), t.zero()]]
    g = transport_matrix(f, fr_a, fr_b)
    for x, y in zip(fr_a, fr_b):
        assert g.apply(x) == y


def test_witt_transport_real():
    t = Tower()
    f = FormSpec("symmetric", Matrix.diag(t, [1, 1, -1]), "b")
    a = [t.one(), t.zero(), t.zero()]
    b = [t.scalar(Fraction(5, 4)), t.zero(), t.scalar(Fraction(3, 4))]
    g = transport_matrix(f, [a], [b])
    assert g.apply(a) == b
    assert all(x.is_real() for x in g.flatten())


def test_witt_transport_rejects_gram_mismatch():
    t = Tower()
    f = FormSpec("symmetric", Matrix.diag(t, [1, 1, -1]), "b")
    a = [t.one(), t.zero(), t.zero()]
    with pytest.raises(ValueError):
        transport_matrix(f, [a], [[t.scalar(2), t.zero(), t.zero()]])


@pytest.mark.parametrize("second,where", [
    ([1, 1, 0, 0], "(0, 1)"),     # an entry above the diagonal
    ([0, 2, 0, 0], "(1, 1)"),     # a diagonal entry only
    ([0, 0, 1, 0], None),         # the same Gram: no error
])
def test_witt_transport_names_the_first_gram_mismatch(second, where):
    t = Tower()
    f = FormSpec("symmetric", Matrix.identity(t, 4), "b")
    e0, e1 = ([t.scalar(int(k == j)) for k in range(4)] for j in range(2))
    frame_b = [e0, [t.scalar(c) for c in second]]
    if where is None:
        g = transport_matrix(f, [e0, e1], frame_b)
        assert [g.apply(e0), g.apply(e1)] == frame_b
        return
    with pytest.raises(ValueError, match="differ at %s" % re.escape(where)):
        transport_matrix(f, [e0, e1], frame_b)


def test_witt_transport_stays_in_the_base_tower():
    # the complex-case construction is root-free: reflections divide by
    # norms but never adjoin radicals
    t = Tower()
    f = FormSpec("symmetric", Matrix.identity(t, 4), "b")
    rng = SplitMix64(11)
    for _ in range(10):
        a = _rand_vec(rng, t, 4)
        if f.norm(a).is_zero():
            continue
        b = [x * t.scalar(Fraction(2, 3)) for x in a]
        fr_b = transport_matrix(f, [a], [a])  # identity-ish sanity
        assert fr_b.tower.depth == 0
    assert t.depth == 0


# -- symplectic line transport ---------------------------------------------------


def test_line_transport_split_disc():
    model = StandardModel.projective_split(Tower(), 1)
    w = transport_positive_line_sp(model, [1, 0], [2, 1])
    assert w.verified
    assert w.group.name == "Sp2nR"
    assert w.claim_kind == "maps_line"


def test_line_transport_negative_lines():
    model = StandardModel.projective_split(Tower(), 2)
    t = model.tower
    src = [t.zero(), t.zero(), t.one(), t.zero()]
    dst = [t.zero(), t.zero(), t.one(), t.scalar(Fraction(1, 2))]
    w = transport_positive_line_sp(model, src, dst)
    assert w.verified


def test_line_transport_preserves_both_forms():
    model = StandardModel.projective_signature(Tower(), 2, 1)
    t = model.tower
    src = [t.zero(), t.zero(), t.one(), t.zero(), t.zero(), t.zero()]
    dst = [t.zero(), t.one(), t.scalar(3), t.zero(), t.zero(), t.one()]
    w = transport_positive_line_sp(model, src, dst)
    assert w.verified
    g = w.element
    tw = g.tower
    omega = Matrix.from_json(model.omega.gram.to_json(), tw)
    hg = Matrix.from_json(model.h.gram.to_json(), tw)
    assert g.transpose() * omega * g == omega
    assert g.transpose() * hg * g.conj() == hg


def test_line_transport_rejects_sign_mismatch_and_null_lines():
    model = StandardModel.projective_split(Tower(), 2)
    with pytest.raises(NotInDomainError):
        transport_positive_line_sp(model, [1, 0, 0, 0], [0, 0, 1, 0])
    with pytest.raises(NotInDomainError):
        transport_positive_line_sp(model, [1, 0, 1, 0], [1, 0, 0, 0])


def test_line_transport_seeded_pairs():
    model = StandardModel.projective_split(Tower(), 2)
    t = model.tower
    rng = SplitMix64(5)
    done = 0
    while done < 6:
        z = _rand_vec(rng, t, 4)
        zt = _rand_vec(rng, t, 4)
        nz, nzt = model.h.norm(z), model.h.norm(zt)
        if nz.is_zero() or nzt.is_zero() or nz.sign() != nzt.sign():
            continue
        w = transport_positive_line_sp(model, z, zt)
        assert w.verified
        done += 1


# -- the one certificate ---------------------------------------------------------
#
# A builder proves nothing about its element apart from ``Witness.verify``:
# each test breaks one construction step and expects the builder's own
# ``verify`` call to refuse the element.


def test_line_transport_refuses_a_wrongly_scaled_frame(monkeypatch):
    # frame b scaled by 2 sqrt(ratio): the element still maps the line,
    # but it no longer preserves omega or h
    scale = witnesses.vec_scale
    monkeypatch.setattr(witnesses, "vec_scale",
                        lambda c, v: scale(c + c, v))
    model = StandardModel.projective_split(Tower(), 2)
    with pytest.raises(WitnessVerificationError):
        transport_positive_line_sp(model, [1, 0, 0, 0], [1, 1, 0, 0])


def _verifies_with_row_negated(w: Witness, r: int) -> bool:
    """Whether ``w``'s claim still verifies once row ``r`` of its element
    is negated back: the element without the builder's sign correction."""
    rows = w.element.to_lists()
    rows[r] = [-x for x in rows[r]]
    return Witness(w.group, Matrix(w.element.tower, rows), w.claim_kind,
                   w.source, w.target, w.model_info).verify()


def _reflection_parities(monkeypatch, build, model, plane, nf) -> tuple:
    """The parity of the number of reflections ``build`` applies on
    ``plane`` and on the normal form ``nf`` itself.  det g = +1 is
    verified and the sign correction is the one other factor of det -1,
    so it runs exactly when the two parities differ: the untouched
    normal form takes none."""
    calls = []
    real = witnesses.reflect

    def counting(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(witnesses, "reflect", counting)
    parities = []
    for w_hat in (plane, nf):
        del calls[:]
        assert build(model, w_hat).verified
        parities.append(len(calls) % 2)
    return tuple(parities)


def test_complex_normal_form_refuses_a_missing_sign_correction(monkeypatch):
    # this scramble ends on the line e1 - i e2, which the sign correction
    # turns round by negating coordinate 2; the interleave moves that row
    # to row n, and without it the element has det -1 and misses the plane
    model = StandardModel.isotropic(Tower(), 2, 1)
    t = model.tower
    scr = (reflection(model.b, [t.zero(), t.zero(), t.one(), t.zero()])
           * reflection(model.b, [t.zero(), t.one(), t.one(), t.zero()]))
    nf = model.normal_form_complex().basis_vectors()
    plane = [scr.apply(v) for v in nf]
    w = isotropic_normal_form_complex(model, plane)
    assert w.verified
    assert not _verifies_with_row_negated(w, model.n)
    scrambled, untouched = _reflection_parities(
        monkeypatch, isotropic_normal_form_complex, model, plane, nf)
    assert scrambled != untouched


@pytest.mark.parametrize("p, q, v1, v2", [(2, 1, 2, 1), (1, 2, 2, 0)])
def test_real_normal_form_refuses_a_skipped_final_flip(monkeypatch, p, q,
                                                       v1, v2):
    # scrambles by the reflections in e_v1 and e_v2 (signature
    # coordinates) whose leftover line lands on the conjugate line; the
    # final flip negates the row of the last pair's real coordinate, which
    # S g S^-1 leaves in place
    model = StandardModel.isotropic(Tower(), p, q)
    t, m = model.tower, model.ambient_dim
    e = Matrix.identity(t, m)
    gsig = reflection(model.b_sig, e.col(v1)) * reflection(model.b_sig,
                                                           e.col(v2))
    g_std = model.sig_change * gsig * model.sig_change.inverse()
    nf = model.normal_form_real().basis_vectors()
    plane = [g_std.apply(v) for v in nf]
    w = isotropic_normal_form_real(model, plane)
    assert w.verified
    a_fin = model.normal_form_real_pairs()[-1][0]
    assert not _verifies_with_row_negated(w, a_fin)
    scrambled, untouched = _reflection_parities(
        monkeypatch, isotropic_normal_form_real, model, plane, nf)
    assert scrambled != untouched


@pytest.mark.parametrize("name", ["complex-p2-q1", "complex-p3-q2",
                                  "real-p2-q1", "real-p3-q2"])
def test_normal_forms_make_one_matrix_product(monkeypatch, name):
    # transports move the element's columns, and the sign flip, the
    # interleave and S g S^-1 move its rows and entries: the one product
    # left is ``Witness.verify``'s element * source
    path = os.path.join(os.path.dirname(__file__), "data", "golden",
                        "witness-normal-form-%s.json" % name)
    with open(path) as fh:
        doc = json.load(fh)
    model = StandardModel.from_info(Tower(), doc["model"])
    plane = Matrix.from_json(doc["claim"]["source"], model.tower).col_list()
    build = (isotropic_normal_form_complex if name.startswith("complex")
             else isotropic_normal_form_real)
    calls = []

    def counted(method):
        real = getattr(Matrix, method)

        def counting(self, *args):
            calls.append(method)
            return real(self, *args)
        return counting

    for method in ("__mul__", "inverse"):
        monkeypatch.setattr(Matrix, method, counted(method))
    assert build(model, plane).verified
    assert calls == ["__mul__"]


# -- witness documents -----------------------------------------------------------


def test_witness_json_round_trip():
    model = StandardModel.projective_signature(Tower(), 2, 1)
    t = model.tower
    src = [t.zero(), t.zero(), t.one(), t.zero(), t.zero(), t.zero()]
    dst = [t.zero(), t.one(), t.scalar(3), t.zero(), t.zero(), t.one()]
    w = transport_positive_line_sp(model, src, dst)
    doc = json.dumps(w.to_json())
    again = witness_from_json(json.loads(doc))
    assert again.verify()
    assert again.to_json() == w.to_json()


def test_tampered_witness_fails_verification():
    model = StandardModel.projective_split(Tower(), 1)
    w = transport_positive_line_sp(model, [1, 0], [3, 1])
    again = witness_from_json(w.to_json())
    t = again.element.tower
    bump = Matrix.from_rows(t, [[1, 0], [0, 0]])
    bad = Witness(again.group, again.element + bump, again.claim_kind,
                  again.source, again.target, again.model_info)
    assert not bad.verify()


def test_witness_rejects_unknown_kind():
    model = StandardModel.projective_split(Tower(), 1)
    t = model.tower
    g = build_group(model, "Sp2nC")
    ident = Matrix.identity(t, 2)
    with pytest.raises(ValueError):
        Witness(g, ident, "maps_everything", ident, ident, {})


def test_witness_rejects_vacuous_and_misshaped_claims():
    model = StandardModel.projective_split(Tower(), 1)
    t = model.tower
    g = build_group(model, "Sp2nC")
    ident = Matrix.identity(t, 2)
    e0 = Matrix.from_rows(t, [[1], [0]])
    zero = Matrix.from_rows(t, [[0], [0]])
    twice = Matrix.from_rows(t, [[1, 2], [0, 0]])
    for kind, src, dst in (
            ("maps_vector", zero, zero),          # 0 -> 0 is vacuous
            ("maps_line", ident, ident),          # a plane is not a line
            ("maps_line", Matrix.from_rows(t, [[1]]), e0),  # wrong ambient
            ("maps_subspace", twice, twice),      # dependent columns
            ("maps_subspace", ident, e0),         # dimensions differ
            ("maps_subspace", ident, ident),      # the whole space
            ("maps_subspace", Matrix(t, [[], []]),
             Matrix(t, [[], []]))):               # the zero subspace
        with pytest.raises(ValueError):
            Witness(g, ident, kind, src, dst, {})
    with pytest.raises(ValueError):
        Witness(g, Matrix.identity(t, 3), "maps_line", e0, e0, {})
    assert Witness(g, ident, "maps_subspace", e0, e0, {}).verify()


def test_model_dim_is_the_built_model_dim():
    for info in ({"case": "projective-split", "n": 3},
                 {"case": "projective-pq", "p": 2, "q": 1},
                 {"case": "quadric7"},
                 {"case": "isotropic", "p": 2, "q": 3}):
        model = StandardModel.from_info(Tower(), info)
        assert _model_dim(info) == model.ambient_dim
        assert model.info == info
        assert StandardModel.from_info(Tower(), model.info).info == info


def test_g2split_is_the_cross_product_subgroup_of_so34():
    model = StandardModel.quadric7(Tower())
    t = model.tower
    group = build_group(model, "G2split")
    nil = _quadric_nilpotents(model)
    # both lie in so(3,4); only the fifth lies in split g2
    assert violations(group, exp_nilpotent(nil[0], 1)) == [
        "preserves the octonion cross product"]
    assert group.contains(exp_nilpotent(nil[4], 3))
    ident = Matrix.identity(t, 7)
    assert group.contains(ident)
    assert not group.contains(ident.scale(t.scalar(2)))
    for info in ({"case": "projective-split", "n": 2},
                 {"case": "isotropic", "p": 2, "q": 1}):
        with pytest.raises(ValueError):
            build_group(StandardModel.from_info(Tower(), info), "G2split")


# -- isotropic normal forms --------------------------------------------------------


def test_complex_normal_form_round_trips():
    model = StandardModel.isotropic(Tower(), 2, 1)
    t = model.tower
    nf = model.normal_form_complex()
    w = isotropic_normal_form_complex(model, nf)
    assert w.verified

    f = FormSpec("symmetric", Matrix.identity(t, 4), "b")
    r1 = reflection(f, [t.one(), t.scalar(2), t.zero(), t.zero()])
    r2 = reflection(f, [t.scalar(3), t.zero(), t.one(), t.zero()])
    scr = r1 * r2
    moved = [scr.apply(v) for v in nf.basis_vectors()]
    w2 = isotropic_normal_form_complex(model, moved)
    assert w2.verified
    assert w2.element.det().is_one()
    img = w2.element * Matrix.from_cols(w2.element.tower, [
        [w2.element.tower.zero() + c for c in v] for v in moved])
    assert column_space_equal(img, Matrix.from_cols(
        w2.element.tower,
        [[w2.element.tower.zero() + c for c in v]
         for v in nf.basis_vectors()]))


def test_complex_normal_form_rejects_other_family():
    model = StandardModel.isotropic(Tower(), 2, 1)
    t = model.tower
    i = t.i()
    other = [[t.one(), t.zero(), -i, t.zero()],
             [t.zero(), t.one(), t.zero(), i]]
    with pytest.raises(NotInDomainError):
        isotropic_normal_form_complex(model, other)
    f = FormSpec("symmetric", Matrix.identity(t, 4), "b")
    r1 = reflection(f, [t.one(), t.scalar(2), t.zero(), t.zero()])
    odd = [r1.apply(v) for v in model.normal_form_complex().basis_vectors()]
    with pytest.raises(NotInDomainError):
        isotropic_normal_form_complex(model, odd)


def test_real_normal_form_round_trips():
    for p, q in ((2, 1), (1, 2), (3, 2)):
        model = StandardModel.isotropic(Tower(), p, q)
        t = model.tower
        m = model.ambient_dim
        nf = model.normal_form_real()
        assert isotropic_normal_form_real(model, nf).verified

        ehat = Matrix.diag(t, [1] * p + [-1] * q + [model.eps])
        fsig = FormSpec("symmetric", ehat, "b_sig")
        v1 = [t.zero()] * m
        v1[0], v1[1] = t.one(), t.scalar(2)
        v2 = [t.zero()] * m
        v2[1], v2[2] = t.one(), t.scalar(3)
        assert not fsig.norm(v1).is_zero() and not fsig.norm(v2).is_zero()
        gsig = reflection(fsig, v1) * reflection(fsig, v2)
        g_std = model.sig_change * gsig * model.sig_change.inverse()
        moved = [g_std.apply(v) for v in nf.basis_vectors()]
        w = isotropic_normal_form_real(model, moved)
        assert w.verified
        assert w.group.name == "SO(p,q)"


def test_real_normal_form_rejects_boundary_planes():
    model = StandardModel.isotropic(Tower(), 2, 1)
    t = model.tower
    i = t.i()
    degenerate = [[t.one(), t.zero(), i, t.zero()],
                  [t.zero(), t.one(), t.zero(), i]]
    with pytest.raises(NotInDomainError):
        isotropic_normal_form_real(model, degenerate)


def test_normal_form_witnesses_live_in_the_stated_groups():
    # the smaller orthogonal group (fixing the last basis vector) already
    # reaches the normal form — the crux of the Grassmannian case
    model = StandardModel.isotropic(Tower(), 2, 3)
    nf = model.normal_form_complex()
    w = isotropic_normal_form_complex(model, nf)
    assert w.group.name == "SO2n-1C"
    assert w.group.contains(w.element)
    wr = isotropic_normal_form_real(model, model.normal_form_real())
    assert wr.group.name == "SO(p,q)"
    assert wr.group.contains(wr.element)


def test_builders_work_on_a_clone_of_the_model():
    # the caller's tower never grows, and the group a witness names is
    # built over the tower its element lives in, roots included
    split = StandardModel.projective_split(Tower(), 2)
    iso = StandardModel.isotropic(Tower(), 2, 1)
    t = iso.tower
    v1 = [t.one(), t.scalar(2), t.zero(), t.zero()]
    v2 = [t.zero(), t.one(), t.scalar(3), t.zero()]
    gsig = reflection(iso.b_sig, v1) * reflection(iso.b_sig, v2)
    g_std = iso.sig_change * gsig * iso.sig_change.inverse()
    plane = [g_std.apply(v) for v in iso.normal_form_real().basis_vectors()]
    builds = [
        (split, lambda: transport_positive_line_sp(split, [1, 0, 0, 0],
                                                   [1, 1, 0, 0])),
        (iso, lambda: isotropic_normal_form_complex(
            iso, iso.normal_form_complex())),
        (iso, lambda: isotropic_normal_form_real(iso, plane)),
    ]
    deepest = 0
    for model, build in builds:
        w = build()
        assert w.verified
        assert model.tower.depth == 0
        forms = [c.form for c in w.group.constraints if hasattr(c, "form")]
        assert forms and all(f.tower is w.element.tower for f in forms)
        assert w.model_info == model.info
        deepest = max(deepest, w.element.tower.depth)
    assert deepest > 0


# -- rank-one reflections against the dense paths ---------------------------------


def _dense_reflection(f, u):
    """I - (2/f(u,u)) u (G u)^T, formed as a matrix: the oracle for the
    rank-one updates behind ``reflection`` and ``transport_matrix``."""
    t = f.tower
    gu = f.gram.apply(list(u))
    return (Matrix.identity(t, f.dim)
            - outer(t, list(u), gu).scale(t.scalar(2) / f.norm(u)))


def _embed(t, m, idx, small):
    """Identity on C^m except the block ``small`` on the listed coordinates."""
    rows = Matrix.identity(t, m).to_lists()
    for bi, i in enumerate(idx):
        for bj, j in enumerate(idx):
            rows[i][j] = small[bi, bj]
    return Matrix(t, rows, cols=m)


@given(st.data())
def test_reflection_is_the_dense_formula(data):
    t = tower_of_depth(data.draw(st.integers(0, 1)))
    n = data.draw(st.integers(1, 4))
    # a random involution: the first k pairs of a shuffled order swap
    order = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(0, n // 2))
    perm = list(range(n))
    for a, b in zip(order[:2 * k:2], order[1:2 * k:2]):
        perm[a], perm[b] = b, a
    rows = [[t.zero()] * n for _ in range(n)]
    for a, b in enumerate(perm):
        if a <= b:
            rows[a][b] = rows[b][a] = data.draw(
                st.sampled_from([t.one(), -t.one()]))
    f = FormSpec("symmetric", Matrix(t, rows), "f")
    assert f.perm == perm
    u = data.draw(st.lists(deep_scalars(t), min_size=n, max_size=n))
    assume(not f.norm(u).is_zero())
    assert reflection(f, u).to_json() == _dense_reflection(f, u).to_json()


def _assert_embedded_transport(f, sub, frame_a, frame_b):
    """``witt_transport`` on the whole form equals the transport on the
    sub-form of the coordinates ``sub``, which carry both frames, embedded
    by the identity; or both refuse the frames."""
    t, m = f.tower, f.dim
    f_sub = FormSpec("symmetric", submatrix(f.gram, sub, sub), "sub")
    cut = [[[v[j] for j in sub] for v in fr] for fr in (frame_a, frame_b)]
    try:
        small = transport_matrix(f_sub, *cut)
    except ValueError:
        with pytest.raises(ValueError):
            transport_matrix(f, frame_a, frame_b)
        return None
    full = transport_matrix(f, frame_a, frame_b)
    assert full.to_json() == _embed(t, m, sub, small).to_json()
    return full


@given(st.data())
def test_full_form_witt_transport_is_the_embedded_sub_form_one(data):
    p, q = data.draw(st.sampled_from([(2, 1), (1, 2), (2, 3), (3, 2)]))
    model = StandardModel.isotropic(Tower(), p, q)
    real = data.draw(st.booleans())
    f = model.b_sig if real else model.b
    t, m = model.tower, model.ambient_dim
    # the last coordinate is never moved, as in both normal forms
    sub = sorted(data.draw(st.sets(st.integers(0, m - 2), min_size=2)))
    entry = st.integers(-3, 3)

    def vector():
        v = [t.zero()] * m
        for j in sub:
            v[j] = t.scalar(data.draw(entry), 0 if real else data.draw(entry))
        return v

    k = data.draw(st.integers(1, min(2, len(sub) - 1)))
    frame_a = [vector() for _ in range(k)]
    assume(rank(Matrix.from_cols(t, frame_a)) == k)
    g = Matrix.identity(t, m)
    for _ in range(2):
        u = vector()
        assume(not f.norm(u).is_zero())
        g = _dense_reflection(f, u) * g
    frame_b = [g.apply(v) for v in frame_a]
    full = _assert_embedded_transport(f, sub, frame_a, frame_b)
    if full is not None:
        assert [full.apply(v) for v in frame_a] == frame_b
        # moving a vector is applying the matrix of moved identity columns
        assert witt_transport(f, frame_a, frame_b, [u]) == [full.apply(u)]


def test_full_form_witt_transport_fallback_is_the_embedded_one():
    # on b_sig = diag(1,1,1,-1,-1,1), a = e2 and b = e1 + e2 + e4 have
    # norm 1 and an isotropic difference: the a + b, then b, path
    model = StandardModel.isotropic(Tower(), 3, 2)
    t = model.tower
    e = Matrix.identity(t, 6).col_list()
    a = e[1]
    b = [x + y + z for x, y, z in zip(e[0], e[1], e[3])]
    assert model.b_sig.norm([x - y for x, y in zip(a, b)]).is_zero()
    full = _assert_embedded_transport(model.b_sig, [0, 1, 3], [a], [b])
    assert full.apply(a) == b
