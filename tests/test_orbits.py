"""Tangent-space dimensions, stratum classification, orbit equality."""

import pytest
from hypothesis import given, strategies as st

from conftest import exp_nilpotent, vectors
from orbitcert.forms import StandardModel
from orbitcert.groups import isotropy_subalgebra
from orbitcert.linalg import Matrix, Subspace, vec_add, vec_scale
from orbitcert.orbits import (STRATA, _quadric_nilpotents, classify_point,
                              quadric_algebras, spans_null_subalgebra,
                              tangent_dim_grassmann, tangent_dim_projective,
                              vector_text, verify_orbit_equality)
from orbitcert.rng import SplitMix64
from orbitcert.scalars import Tower
from orbitcert.witnesses import (build_group, isotropic_normal_form_complex,
                                 transport_positive_line_sp)


def test_complex_projective_tangents_agree():
    for n in (1, 2):
        model = StandardModel.projective_split(Tower(), n)
        t = model.tower
        sp = build_group(model, "Sp2nC").lie_algebra()
        sl = build_group(model, "SL2nC").lie_algebra()
        e0 = [t.one()] + [t.zero()] * (2 * n - 1)
        z = [t.scalar(k + 1, 1 - k) for k in range(2 * n)]
        for point in (e0, z):
            d_sp = tangent_dim_projective(sp, point)
            d_sl = tangent_dim_projective(sl, point)
            assert d_sp == d_sl == 2 * n - 1


def test_disc_model_real_tangents():
    model = StandardModel.projective_split(Tower(), 1)
    t = model.tower
    sp_r = build_group(model, "Sp2nR").lie_algebra()
    assert tangent_dim_projective(sp_r, [t.one(), t.zero()]) == 2   # open
    assert tangent_dim_projective(sp_r, [t.zero(), t.one()]) == 2   # open
    assert tangent_dim_projective(sp_r, [t.one(), t.one()]) == 1    # boundary


def test_real_open_orbit_tangent_doubles_complex_dim():
    model = StandardModel.projective_split(Tower(), 2)
    t = model.tower
    su = build_group(model, "SU(n,n)").lie_algebra()
    e0 = [t.one(), t.zero(), t.zero(), t.zero()]
    assert tangent_dim_projective(su, e0) == 2 * model.flag_dim_complex


def test_grassmann_tangents_at_the_normal_form():
    for p, q in ((2, 1), (2, 3)):
        model = StandardModel.isotropic(Tower(), p, q)
        n = model.n
        want = n * (n - 1) // 2
        so_big = build_group(model, "SO2nC").lie_algebra()
        so_small = build_group(model, "SO2n-1C").lie_algebra()
        nf = model.normal_form_complex()
        assert tangent_dim_grassmann(so_big, nf, model.b) == want
        assert tangent_dim_grassmann(so_small, nf, model.b) == want
        so_pq = build_group(model, "SO(p,q)").lie_algebra()
        nfr = model.normal_form_real()
        assert tangent_dim_grassmann(so_pq, nfr, model.b) == 2 * want


def _case_algebras_and_points(case):
    """The algebras of the groups ``case`` carries, on its model at the
    campaign defaults, and campaign-style points as subspaces: lines on
    the projective models (one moved by a line transport into a deeper
    tower) and on the quadric, the two normal forms on the isotropic
    model."""
    model = StandardModel.from_info(
        Tower(), dict(case=case, **StandardModel.CASES[case].defaults))
    t, m = model.tower, model.ambient_dim
    algs = [build_group(model, g).lie_algebra()
            for g in StandardModel.CASES[case].groups]
    if case == "isotropic":
        return algs, [model.normal_form_complex(), model.normal_form_real()]
    if case == "quadric7":
        lines = list(model.stratum_representatives.values())
    else:
        e0 = [t.one()] + [t.zero()] * (m - 1)
        null = [t.one(), t.one()] + [t.zero()] * (m - 2)
        generic = [t.scalar(k + 1, 1 - k) for k in range(m)]
        w = transport_positive_line_sp(
            model, e0, [t.scalar(2), t.one()] + [t.zero()] * (m - 2))
        lines = [e0, null, generic, w.element.apply(
            [w.element.tower.lift(c) for c in e0])]
    return algs, [Subspace.from_vectors(t.host(z), m, [z]) for z in lines]


@pytest.mark.parametrize("case", list(StandardModel.CASES))
def test_tangent_and_isotropy_dimensions_add_up(case):
    algs, points = _case_algebras_and_points(case)
    assert {alg.ground for alg in algs} == {"complex", "real"}
    for alg in algs:
        for s in points:
            assert (tangent_dim_grassmann(alg, s)
                    + isotropy_subalgebra(alg, s).dim == alg.dim)


@pytest.mark.parametrize("case", ["projective-split", "projective-pq",
                                  "quadric7"])
def test_projective_tangent_is_the_grassmann_tangent_of_the_line(case):
    algs, lines = _case_algebras_and_points(case)
    for alg in algs:
        for line in lines:
            assert (tangent_dim_projective(alg, line.basis_vectors()[0])
                    == tangent_dim_grassmann(alg, line))


def test_projective_tangent_makes_no_matrix_products(monkeypatch):
    model = StandardModel.quadric7(Tower())
    algs = quadric_algebras(model)
    sl = build_group(model, "SO7C").lie_algebra()
    points = list(model.stratum_representatives.values())
    want = [[tangent_dim_projective(a, z) for z in points]
            for a in algs + (sl,)]
    calls = []

    def counting(name):
        def record(self, *args):
            calls.append(name)
        return record

    monkeypatch.setattr(Matrix, "__mul__", counting("__mul__"))
    monkeypatch.setattr(Matrix, "apply", counting("apply"))
    assert [[tangent_dim_projective(a, z) for z in points]
            for a in algs + (sl,)] == want
    assert calls == []


def test_classify_projective_lines():
    model = StandardModel.projective_split(Tower(), 1)
    t = model.tower
    assert classify_point(model, [t.one(), t.zero()]) == "positive"
    assert classify_point(model, [t.zero(), t.one()]) == "negative"
    assert classify_point(model, [t.one(), t.one()]) == "null-real"
    assert classify_point(model, [t.one(), t.i()]) in ("null-real",
                                                       "null-nonreal")


def test_classify_quadric_representatives():
    model = StandardModel.quadric7(Tower())
    for name, rep in model.stratum_representatives.items():
        assert classify_point(model, rep) == name
    # points off the quadric are rejected
    t = model.tower
    with pytest.raises(ValueError):
        classify_point(model, [t.one()] + [t.zero()] * 6)


def test_classify_isotropic_planes():
    model = StandardModel.isotropic(Tower(), 2, 1)
    label = classify_point(model, model.normal_form_real())
    assert label == "signature(%d,%d)-open" % model.open_signature
    t = model.tower
    i = t.i()
    boundary = [[t.one(), t.zero(), i, t.zero()],
                [t.zero(), t.one(), t.zero(), i]]
    assert "null" in classify_point(model, boundary)


def test_stratum_constant_along_witness_orbits():
    model = StandardModel.projective_split(Tower(), 2)
    t = model.tower
    src = [t.one(), t.zero(), t.zero(), t.zero()]
    dst = [t.one(), t.scalar(2), t.scalar(0, 1), t.zero()]
    assert model.h.norm(dst).sign() == 1
    w = transport_positive_line_sp(model, src, dst)
    assert w.verified
    tw = w.element.tower
    img = w.element.apply([tw.lift(c) for c in src])
    assert classify_point(model, img) == classify_point(model, src)
    sp_r = build_group(model, "Sp2nR").lie_algebra()
    assert (tangent_dim_projective(sp_r, img)
            == tangent_dim_projective(sp_r, src))


def test_tangent_dim_constant_along_grassmann_witness_orbits():
    model = StandardModel.isotropic(Tower(), 2, 1)
    t = model.tower
    nf = model.normal_form_complex()
    w = isotropic_normal_form_complex(model, nf)
    so_small = build_group(model, "SO2n-1C").lie_algebra()
    before = tangent_dim_grassmann(so_small, nf, model.b)
    tw = w.element.tower
    moved = Subspace.from_vectors(
        tw, model.ambient_dim,
        [w.element.apply([tw.lift(c) for c in v])
         for v in nf.basis_vectors()])
    assert tangent_dim_grassmann(so_small, moved, model.b) == before


def test_quadric_algebras_dimensions():
    model = StandardModel.quadric7(Tower())
    g2, so34 = quadric_algebras(model)
    assert (g2.dim, g2.ground) == (14, "real")
    assert (so34.dim, so34.ground) == (21, "real")


def test_orbit_equality_across_strata():
    model = StandardModel.quadric7(Tower())
    algebras = quadric_algebras(model)
    pairs = verify_orbit_equality(model, samples=2, seed=42,
                                  algebras=algebras)
    assert len(pairs) == 2 * len(STRATA)
    dims = {}
    for rep_small, rep_big in pairs:
        assert rep_small.tangent_dim == rep_big.tangent_dim
        assert rep_small.stratum == rep_big.stratum
        dims.setdefault(rep_small.stratum, set()).add(rep_small.tangent_dim)
    assert dims["positive"] == dims["negative"] == {10}
    assert dims["null-real"] == {5}
    assert dims["null-nonreal"] == {9}
    for rep_small, rep_big in pairs:
        is_open = rep_small.stratum in ("positive", "negative")
        assert rep_small.open == rep_big.open == is_open


@pytest.fixture(scope="module")
def quadric():
    model = StandardModel.quadric7(Tower())
    return model, quadric_algebras(model)


def test_null_subalgebra_locus_has_a_smaller_g2_orbit(quadric):
    # Re z = (4,3,3,3,3,4,0) and Im z = -(3,2,2,2,2,3,0) multiply to zero
    # as split octonions: a null-nonreal point where split G2 has a
    # smaller orbit inside the SO(3,4) orbit
    model, (g2, so34) = quadric
    t = model.tower
    z = [t.scalar(4, -3)] + [t.scalar(3, -2)] * 4 + [t.scalar(4, -3),
                                                     t.zero()]
    assert classify_point(model, z) == "null-nonreal"
    assert spans_null_subalgebra(model, z)
    assert spans_null_subalgebra(model, [t.scalar(2, 1) * x for x in z])
    assert tangent_dim_projective(g2, z) == 7
    assert tangent_dim_projective(so34, z) == 9
    rep = model.stratum_representatives["null-nonreal"]
    assert not spans_null_subalgebra(model, rep)


# at samples=1 each of these seeds draws one candidate on the locus above
NULL_LOCUS_SEEDS = [537687876, 3432174607, 3458538153]


@pytest.mark.parametrize("seed", NULL_LOCUS_SEEDS)
def test_orbit_equality_skips_the_null_subalgebra_locus(quadric, seed):
    # without the rejection these seeds sample the locus above
    model, algebras = quadric
    pairs = verify_orbit_equality(model, samples=1, seed=seed,
                                  algebras=algebras)
    for small, big in pairs:
        assert small.tangent_dim == big.tangent_dim
        if small.stratum == "null-nonreal":
            assert small.tangent_dim == 9


def _reference_points(model, samples, seed, bound=5):
    """The sampled points as the product of the six exponentials applied
    to each stratum representative, with the same draws and rejections
    as verify_orbit_equality."""
    nil = _quadric_nilpotents(model)
    rng = SplitMix64(seed)
    out = []
    for stratum in STRATA:
        rep = model.stratum_representatives[stratum]
        for _ in range(samples):
            for _attempt in range(20):
                g = Matrix.identity(model.tower, 7)
                for x in nil:
                    w = rng.randint(-bound, bound)
                    if w:
                        g = g * exp_nilpotent(x, w)
                cand = g.apply(rep)
                if classify_point(model, cand) == stratum and not (
                        stratum == "null-nonreal"
                        and spans_null_subalgebra(model, cand)):
                    out.append(vector_text(cand))
                    break
    return out


def test_sampled_points_match_the_exponential_product(quadric):
    model, algebras = quadric
    for seed in list(range(50)) + NULL_LOCUS_SEEDS:
        pairs = verify_orbit_equality(model, samples=1, seed=seed,
                                      algebras=algebras)
        assert [small.point for small, _ in pairs] == \
            _reference_points(model, 1, seed), seed
    pairs = verify_orbit_equality(model, samples=3, seed=7, bound=2,
                                  algebras=algebras)
    assert [small.point for small, _ in pairs] == \
        _reference_points(model, 3, 7, bound=2)


_Q7 = StandardModel.quadric7(Tower())


@given(st.integers(0, 5), vectors(_Q7.tower, 7), st.integers(-9, 9))
def test_square_zero_exponential_is_affine(k, p, w):
    t = _Q7.tower
    x = _quadric_nilpotents(_Q7)[k]
    assert exp_nilpotent(x, w).apply(p) == \
        vec_add(p, vec_scale(t.scalar(w), x.apply(p)))


@pytest.mark.parametrize("bound", [0, -2])
def test_orbit_equality_rejects_a_vacuous_bound(quadric, bound):
    model, algebras = quadric
    with pytest.raises(ValueError, match="bound must be >= 1"):
        verify_orbit_equality(model, samples=3, seed=0, bound=bound,
                              algebras=algebras)
