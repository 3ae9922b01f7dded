"""Acceptance gate: one test (= one verbose pass/fail line) per criterion.

Every check here is exact — scalars are represented exactly as algebraic
numbers, so the tolerance is zero throughout.  Run as ``pytest -v`` so each
``test_criterion_*`` line doubles as that criterion's pass/fail record.

The two seeded witness suites (line transports, normal-form round-trips)
are built once at import and shared by criteria 3, 4 and 6.
"""

from orbitcert.campaigns import CampaignConfig, report_text, run_campaign
from orbitcert.forms import FormSpec, StandardModel
from orbitcert.groups import GroupSpec, PreservesForm, check_onishchik_triple
from orbitcert.linalg import Matrix, Subspace
from orbitcert.octonions import derivations
from orbitcert.orbits import (classify_point, quadric_algebras,
                              tangent_dim_grassmann, tangent_dim_projective,
                              verify_orbit_equality)
from orbitcert.rng import SplitMix64
from orbitcert.scalars import Tower
from orbitcert.witnesses import (NotInDomainError, build_group,
                                 isotropic_normal_form_complex,
                                 isotropic_normal_form_real,
                                 transport_positive_line_sp)

from conftest import reflection

SAMPLES = 25


# -- seeded sampling helpers ---------------------------------------------------


def _random_vector(rng, tower, m, bound=5, real=False):
    return [tower.scalar(rng.randint(-bound, bound),
                         0 if real else rng.randint(-bound, bound))
            for _ in range(m)]


def _line_with_sign(rng, model, want_sign=None, tries=500):
    for _ in range(tries):
        z = _random_vector(rng, model.tower, model.ambient_dim)
        val = model.h.norm(z)
        if val.is_zero():
            continue
        if want_sign is None or val.sign() == want_sign:
            return z
    raise RuntimeError("sampling a definite line failed")


def _even_scramble(rng, form, coords, real, bound=5):
    """Product of two anisotropic reflections supported on ``coords``."""
    t = form.tower
    g = Matrix.identity(t, form.dim)
    made = 0
    while made < 2:
        v = [t.zero()] * form.dim
        for j in coords:
            v[j] = t.scalar(rng.randint(-bound, bound),
                            0 if real else rng.randint(-bound, bound))
        if all(x.is_zero() for x in v) or form.norm(v).is_zero():
            continue
        g = reflection(form, v) * g
        made += 1
    return g


# -- shared witness suites -----------------------------------------------------


LINE_CONFIGS = (("split", 1, 101), ("split", 2, 102), ("split", 3, 103),
                ("pq", (1, 1), 104), ("pq", (2, 1), 105))
NF_COMPLEX_CONFIGS = ((2, 1, 201), (2, 3, 202))
NF_REAL_CONFIGS = ((2, 1, 301), (2, 3, 302), (3, 2, 303))


def _build_line_suite():
    suites = {}
    for kind, par, seed in LINE_CONFIGS:
        if kind == "split":
            model = StandardModel.projective_split(Tower(), par)
        else:
            model = StandardModel.projective_signature(Tower(), *par)
        rng = SplitMix64(seed)
        runs = []
        for _ in range(SAMPLES):
            src = _line_with_sign(rng, model)
            dst = _line_with_sign(rng, model,
                                  want_sign=model.h.norm(src).sign())
            wit = transport_positive_line_sp(model, src, dst)
            runs.append((src, dst, wit))
        suites[(kind, par)] = (model, runs)
    return suites


def _build_nf_complex_suite():
    suites = {}
    for p, q, seed in NF_COMPLEX_CONFIGS:
        model = StandardModel.isotropic(Tower(), p, q)
        m = model.ambient_dim
        nf = model.normal_form_complex()
        rng = SplitMix64(seed)
        runs = []
        for _ in range(SAMPLES):
            wit = None
            for _attempt in range(10):
                g = _even_scramble(rng, model.b, range(m - 1), real=False)
                moved = [g.apply(v) for v in nf.basis_vectors()]
                try:
                    wit = isotropic_normal_form_complex(model, moved)
                except NotInDomainError:
                    continue
                break
            runs.append((moved, wit))
        suites[(p, q)] = (model, runs)
    return suites


def _build_nf_real_suite():
    suites = {}
    for p, q, seed in NF_REAL_CONFIGS:
        model = StandardModel.isotropic(Tower(), p, q)
        m = model.ambient_dim
        nf = model.normal_form_real()
        b_sig = FormSpec("symmetric", model.hhat.gram, "b_sig")
        s_mat = model.sig_change
        s_inv = s_mat.inverse()
        rng = SplitMix64(seed)
        runs = []
        for _ in range(SAMPLES):
            gsig = _even_scramble(rng, b_sig, range(m - 1), real=True)
            g_std = s_mat * gsig * s_inv
            moved = [g_std.apply(v) for v in nf.basis_vectors()]
            try:
                wit = isotropic_normal_form_real(model, moved)
            except NotInDomainError:
                wit = None
            runs.append((moved, wit))
        suites[(p, q)] = (model, runs)
    return suites


_LINE_SUITE = _build_line_suite()
_NF_COMPLEX_SUITE = _build_nf_complex_suite()
_NF_REAL_SUITE = _build_nf_real_suite()


# -- criteria --------------------------------------------------------------------


def test_criterion_1_dimension_certificates():
    """sp/so/su dimensions and the 14-dimensional derivation algebra."""
    for n in (1, 2, 3, 4):
        model = StandardModel.projective_split(Tower(), n)
        alg = build_group(model, "Sp2nC").lie_algebra()
        assert alg.dim == n * (2 * n + 1), "sp_%d" % (2 * n)
    for m in range(4, 9):
        t = Tower()
        form = FormSpec("symmetric", Matrix.identity(t, m), "b")
        alg = GroupSpec(t, m, [PreservesForm(form)],
                        "so%dC" % m).lie_algebra()
        assert alg.dim == m * (m - 1) // 2, "so_%d" % m
    for n in (1, 2):
        model = StandardModel.projective_split(Tower(), n)
        su = build_group(model, "SU(n,n)").lie_algebra()
        assert su.ground == "real"
        assert su.dim == (2 * n) ** 2 - 1, "su(%d,%d)" % (n, n)
    der = derivations(Tower())
    assert der.dim == 14


def test_criterion_2_onishchik_triples():
    """Equal isotropy codimensions, and q = q-hat intersected with g."""
    for n in (1, 2, 3):
        model = StandardModel.projective_split(Tower(), n)
        t = model.tower
        sp = build_group(model, "Sp2nC").lie_algebra()
        sl = build_group(model, "SL2nC").lie_algebra()
        e0 = [t.one()] + [t.zero()] * (2 * n - 1)
        rep = check_onishchik_triple(sp, sl, e0)
        assert rep["ok"], rep
        assert rep["codim_sub"] == rep["codim_amb"] == 2 * n - 1
        assert rep["isotropy_is_trace"]

    quad = StandardModel.quadric7(Tower())
    g2, _ = quadric_algebras(quad)
    so7 = build_group(quad, "SO7C").lie_algebra()
    rep = check_onishchik_triple(g2.complexify(), so7,
                                 quad.stratum_representatives["positive"])
    assert rep["ok"], rep
    assert rep["codim_sub"] == rep["codim_amb"] == 5
    assert rep["isotropy_is_trace"]

    for p, q in ((2, 1), (2, 3)):           # n = 2 and n = 3
        model = StandardModel.isotropic(Tower(), p, q)
        n = model.n
        so_big = build_group(model, "SO2nC").lie_algebra()
        so_small = build_group(model, "SO2n-1C").lie_algebra()
        rep = check_onishchik_triple(so_small, so_big,
                                     model.normal_form_complex())
        assert rep["ok"], rep
        assert rep["codim_sub"] == rep["codim_amb"] == n * (n - 1) // 2
        assert rep["isotropy_is_trace"]


def test_criterion_3_line_transport_suite():
    """25 seeded same-sign line pairs per configuration, zero failures."""
    assert set(_LINE_SUITE) == {(k, p) for k, p, _ in LINE_CONFIGS}
    for key, (model, runs) in _LINE_SUITE.items():
        assert len(runs) == SAMPLES, key
        failures = [1 for _, _, wit in runs if wit is None or not wit.verified]
        assert not failures, (key, len(failures))
        for src, dst, wit in runs:
            tw = wit.element.tower
            omega = Matrix.from_json(model.omega.gram.to_json(), tw)
            hg = Matrix.from_json(model.h.gram.to_json(), tw)
            g = wit.element
            assert g.transpose() * omega * g == omega
            assert g.transpose() * hg * g.conj() == hg


def test_criterion_4_normal_form_suite():
    """25 seeded scrambles per configuration recover the normal form."""
    for key, (model, runs) in _NF_COMPLEX_SUITE.items():
        assert len(runs) == SAMPLES, key
        bad = [1 for _, wit in runs if wit is None or not wit.verified]
        assert not bad, ("complex", key, len(bad))
        for _, wit in runs:
            assert wit.element.det().is_one()
    for key, (model, runs) in _NF_REAL_SUITE.items():
        assert len(runs) == SAMPLES, key
        bad = [1 for _, wit in runs if wit is None or not wit.verified]
        assert not bad, ("real", key, len(bad))
        for _, wit in runs:
            assert wit.group.contains(wit.element)


def test_criterion_5_orbit_equality():
    """g2 and so(3,4) tangent dimensions agree on >= 10 samples/stratum."""
    model = StandardModel.quadric7(Tower())
    algebras = quadric_algebras(model)
    pairs = verify_orbit_equality(model, samples=10, seed=7,
                                  algebras=algebras)
    per_stratum = {}
    for rep_g2, rep_so in pairs:
        assert rep_g2.tangent_dim == rep_so.tangent_dim
        assert rep_g2.stratum == rep_so.stratum
        per_stratum.setdefault(rep_g2.stratum, []).append(rep_g2.tangent_dim)
    assert len(per_stratum) == 4
    assert all(len(v) >= 10 for v in per_stratum.values())
    for stratum in ("positive", "negative"):
        assert set(per_stratum[stratum]) == {10}    # = 2 dim_C Z: open


def test_criterion_6_classification_invariance():
    """Stratum labels constant along witness orbits; open flag matches."""
    for (kind, par), (model, runs) in _LINE_SUITE.items():
        real_name = "Sp2nR" if kind == "split" else "Sp(2p,2q)"
        alg = build_group(model, real_name).lie_algebra()
        full = 2 * model.flag_dim_complex
        for src, dst, wit in runs:
            tw = wit.element.tower
            img = wit.element.apply([tw.lift(c) for c in src])
            label = classify_point(model, src)
            assert classify_point(model, img) == label
            d_src = tangent_dim_projective(alg, src)
            d_img = tangent_dim_projective(alg, img)
            assert d_src == d_img
            assert (d_src == full) == (label in ("positive", "negative"))

    for key, (model, runs) in _NF_REAL_SUITE.items():
        alg = build_group(model, "SO(p,q)").lie_algebra()
        open_label = "signature(%d,%d)-open" % model.open_signature
        assert classify_point(model, model.normal_form_real()) == open_label
        full = 2 * model.flag_dim_complex
        for moved, wit in runs:
            assert classify_point(model, moved) == open_label
            plane = Subspace.from_vectors(model.tower, model.ambient_dim,
                                          moved)
            assert tangent_dim_grassmann(alg, plane, model.b) == full


def test_criterion_7_report_determinism():
    """Identical (config, version) re-runs give byte-identical reports."""
    for kwargs in ({"case": "quadric7", "samples": 10, "seed": 7},
                   {"case": "projective-split", "n": 1, "samples": 5,
                    "seed": 42},
                   {"case": "isotropic", "p": 2, "q": 1, "samples": 5,
                    "seed": 3}):
        first = report_text(run_campaign(CampaignConfig(**kwargs)))
        second = report_text(run_campaign(CampaignConfig(**kwargs)))
        assert first == second, kwargs["case"]
        assert '"status": "pass"' in first
