"""Seeded verification campaigns and machine-readable reports.

A campaign bundles every check for one of the model cases — dimension
certificates, inclusion-triple certification, witness round-trips,
tangent-dimension equalities and stratum invariance — into a JSON report
that is byte-identical for identical (config, version).  Reports carry no
timestamps and all randomness comes from the documented splitmix64
generator, so a report is a reproducible certificate.
"""

from __future__ import annotations

import json
from typing import Callable, Optional

from ._version import __version__
from .forms import FormSpec, StandardModel
from .groups import check_onishchik_triple
from .linalg import Matrix, Subspace
from .orbits import (classify_point, quadric_algebras, tangent_dim_grassmann,
                     tangent_dim_projective, verify_orbit_equality)
from .rng import SplitMix64
from .scalars import Tower
from .witnesses import (NotInDomainError, build_group,
                        isotropic_normal_form_complex,
                        isotropic_normal_form_real, reflection,
                        transport_positive_line_sp)

CASES = tuple(StandardModel.CASES)

REPORT_SCHEMA = "orbitcert-report/1"


class CampaignConfig:
    """Validated parameters of one verification campaign, and the model it
    runs on.  The parameters given (or, when none is, the case's defaults
    from ``StandardModel.CASES``) must be exactly the case's own; the
    model's constructor checks their range."""

    def __init__(self, case: str, n: Optional[int] = None,
                 p: Optional[int] = None, q: Optional[int] = None,
                 samples: int = 25, seed: int = 0, bound: int = 5,
                 out: Optional[str] = None, strict: bool = False) -> None:
        if samples < 1:
            raise ValueError("samples must be >= 1")
        if bound < 1:
            raise ValueError("bound must be >= 1")
        given = {k: v for k, v in (("n", n), ("p", p), ("q", q))
                 if v is not None}
        info = {"case": case, **given}
        if not given and case in StandardModel.CASES:
            info.update(StandardModel.CASES[case].defaults)
        self.model = StandardModel.from_info(Tower(), info)
        self.case = case
        self.n, self.p, self.q = (getattr(self.model, k, None) for k in "npq")
        self.samples = samples
        self.seed = seed
        self.bound = bound
        self.out = out
        self.strict = strict

    def to_json(self) -> dict:
        # the output path is deliberately not part of the report
        return {
            "case": self.case, "n": self.n, "p": self.p, "q": self.q,
            "samples": self.samples, "seed": self.seed, "bound": self.bound,
            "strict": self.strict,
        }


class _StrictStop(Exception):
    pass


def run_campaign(cfg: CampaignConfig) -> dict:
    checks = []

    def rec(name: str, ok: bool, details: dict) -> None:
        checks.append({
            "name": name,
            "status": "pass" if ok else "fail",
            "details": details,
        })
        if cfg.strict and not ok:
            raise _StrictStop()

    try:
        if cfg.case in ("projective-split", "projective-pq"):
            _campaign_projective(cfg, cfg.model, rec)
        elif cfg.case == "quadric7":
            _campaign_quadric(cfg, cfg.model, rec)
        else:
            _campaign_isotropic(cfg, cfg.model, rec)
    except _StrictStop:
        pass
    n_pass = sum(1 for c in checks if c["status"] == "pass")
    n_fail = sum(1 for c in checks if c["status"] == "fail")
    n_skip = sum(1 for c in checks if c["status"] == "skipped")
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": cfg.to_json(),
        "checks": checks,
        "summary": {"pass": n_pass, "fail": n_fail, "skipped": n_skip},
        "status": "pass" if n_fail == 0 else "fail",
    }


def report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- sampling helpers ---------------------------------------------------------------


def _random_vector(rng: SplitMix64, tower: Tower, m: int, bound: int) -> list:
    # arguments are evaluated left to right: the real part is drawn first
    return [tower.scalar(rng.randint(-bound, bound),
                         rng.randint(-bound, bound)) for _ in range(m)]


def _random_line_with_sign(rng, model, bound, want_sign=None):
    """A random integer-coordinate vector with nonzero h-norm (of the
    requested sign when given), in at most 200 draws."""
    for _ in range(200):
        z = _random_vector(rng, model.tower, model.ambient_dim, bound)
        val = model.h.norm(z)
        if val.is_zero():
            continue
        if want_sign is None or val.sign() == want_sign:
            return z
    raise RuntimeError("failed to sample a definite line")


def _even_reflection_scramble(rng, form: FormSpec, coords: list, bound: int,
                              real: bool) -> Matrix:
    """A product of two reflections in vectors supported on the listed
    coordinates — an exact special isometry of the form fixing the
    complementary coordinates."""
    t = form.tower
    g = Matrix.identity(t, form.dim)
    made = 0
    while made < 2:
        v = [t.zero()] * form.dim
        for j in coords:
            re = rng.randint(-bound, bound)
            im = 0 if real else rng.randint(-bound, bound)
            v[j] = t.scalar(re, im)
        if all(x.is_zero() for x in v) or form.norm(v).is_zero():
            continue
        g = reflection(form, v) * g
        made += 1
    return g


# -- projective campaigns -------------------------------------------------------------


def _campaign_projective(cfg: CampaignConfig, model: StandardModel,
                         rec: Callable) -> None:
    split = cfg.case == "projective-split"
    tower, n, m = model.tower, model.n, model.ambient_dim

    sp_c = build_group(model, "Sp2nC").lie_algebra(name="sp2nC")
    rec("dim sp_2n(C) == n(2n+1)", sp_c.dim == n * (2 * n + 1),
        {"dim": sp_c.dim, "expected": n * (2 * n + 1)})

    sl_c = build_group(model, "SL2nC").lie_algebra(name="sl2nC")
    rec("dim sl_2n(C) == (2n)^2 - 1", sl_c.dim == m * m - 1,
        {"dim": sl_c.dim, "expected": m * m - 1})

    real_name = "Sp2nR" if split else "Sp(2p,2q)"
    sp_r = build_group(model, real_name).lie_algebra(name=real_name)
    rec("dim_R %s == n(2n+1)" % real_name, sp_r.dim == n * (2 * n + 1),
        {"dim": sp_r.dim, "expected": n * (2 * n + 1), "ground": sp_r.ground})

    su_name = "SU(n,n)" if split else "SU(2p,2q)"
    su_r = build_group(model, su_name).lie_algebra(name=su_name)
    rec("dim_R %s == (2n)^2 - 1" % su_name, su_r.dim == m * m - 1,
        {"dim": su_r.dim, "expected": m * m - 1, "ground": su_r.ground})

    e0 = [tower.one()] + [tower.zero()] * (m - 1)
    triple = check_onishchik_triple(sp_c, sl_c, e0)
    rec("triple sp_2n in sl_2n at [e1]: codim %d both" % (m - 1),
        triple["ok"] and triple["codim_sub"] == m - 1, triple)

    rng = SplitMix64(cfg.seed)
    failures = 0
    label_mismatch = 0
    for _ in range(cfg.samples):
        z = _random_line_with_sign(rng, model, cfg.bound)
        sgn = model.h.norm(z).sign()
        zt = _random_line_with_sign(rng, model, cfg.bound, sgn)
        try:
            w = transport_positive_line_sp(model, z, zt)
        except NotInDomainError:
            failures += 1
            continue
        img = w.element.apply(z)
        if not (classify_point(model, img) == classify_point(model, z)):
            label_mismatch += 1
    rec("line transports: %d same-sign pairs, all witnesses verify"
        % cfg.samples, failures == 0,
        {"samples": cfg.samples, "failures": failures})
    rec("stratum label constant along each witness", label_mismatch == 0,
        {"mismatches": label_mismatch})

    dims_equal = True
    seen = []
    for _ in range(3):
        z = _random_line_with_sign(rng, model, cfg.bound)
        d_sp = tangent_dim_projective(sp_c, z)
        d_sl = tangent_dim_projective(sl_c, z)
        seen.append([d_sp, d_sl])
        dims_equal = dims_equal and d_sp == d_sl == m - 1
    rec("complex tangent dims: sp == sl == 2n-1 at sampled points",
        dims_equal, {"pairs": seen, "expected": m - 1})

    d_open = tangent_dim_projective(sp_r, e0)
    rec("real form open at a definite line (tangent == 2(2n-1))",
        d_open == 2 * (m - 1),
        {"tangent": d_open, "ambient_real": 2 * (m - 1)})


# -- quadric campaign ----------------------------------------------------------------


def _campaign_quadric(cfg: CampaignConfig, model: StandardModel,
                      rec: Callable) -> None:
    g2, so34 = quadric_algebras(model)
    rec("dim der(octonions) == 14", g2.dim == 14,
        {"dim": g2.dim, "expected": 14, "ground": g2.ground})
    rec("dim_R so(3,4) == 21", so34.dim == 21,
        {"dim": so34.dim, "expected": 21, "ground": so34.ground})

    so7c = build_group(model, "SO7C").lie_algebra(name="so7C")
    rec("dim so_7(C) == 21", so7c.dim == 21,
        {"dim": so7c.dim, "expected": 21})
    g2c = g2.complexify(name="g2C")
    rec("dim_C complexified derivations == 14", g2c.dim == 14,
        {"dim": g2c.dim, "expected": 14})

    triple = check_onishchik_triple(g2c, so7c, model.z_plus)
    rec("triple g2 in so7 at [z+]: codim 5 both",
        triple["ok"] and triple["codim_sub"] == 5, triple)

    pairs = verify_orbit_equality(model, samples=cfg.samples, seed=cfg.seed,
                                  bound=cfg.bound, algebras=(g2, so34))
    per_stratum = {}
    equal = True
    for rh, ra in pairs:
        equal = equal and rh.tangent_dim == ra.tangent_dim
        per_stratum.setdefault(rh.stratum, []).append(rh.tangent_dim)
    rec("tangent dims equal (g2 vs so(3,4)) on %d samples per stratum"
        % cfg.samples, equal,
        {s: sorted(set(v)) for s, v in per_stratum.items()})
    const = all(len(set(v)) == 1 for v in per_stratum.values())
    rec("tangent dim constant within each stratum", const,
        {s: sorted(set(v)) for s, v in per_stratum.items()})
    open_ok = all(
        (rh.open and ra.open) == (rh.stratum in ("positive", "negative"))
        for rh, ra in pairs)
    rec("open strata are exactly the definite ones", open_ok, {})
    d_ok = all(rh.tangent_dim == 10 for rh, ra in pairs
               if rh.stratum in ("positive", "negative"))
    rec("tangent dim on D+ and D- == 10 == 2 dim_C Z", d_ok,
        {"ambient_real": 10})


# -- isotropic campaign ----------------------------------------------------------------


def _campaign_isotropic(cfg: CampaignConfig, model: StandardModel,
                        rec: Callable) -> None:
    tower, n, m = model.tower, model.n, model.ambient_dim

    so_big = build_group(model, "SO2nC").lie_algebra(name="so2nC")
    rec("dim so_2n(C) == n(2n-1)", so_big.dim == m * (m - 1) // 2,
        {"dim": so_big.dim, "expected": m * (m - 1) // 2})
    so_small = build_group(model, "SO2n-1C").lie_algebra(name="so2n-1C")
    want_small = (m - 1) * (m - 2) // 2
    rec("dim so_2n-1(C) == (n-1)(2n-1)", so_small.dim == want_small,
        {"dim": so_small.dim, "expected": want_small})
    so_pq = build_group(model, "SO(p,q)").lie_algebra(name="so(p,q)")
    rec("dim_R so(%d,%d) == %d" % (cfg.p, cfg.q, want_small),
        so_pq.dim == want_small,
        {"dim": so_pq.dim, "expected": want_small, "ground": so_pq.ground})

    nf_c = model.normal_form_complex()
    triple = check_onishchik_triple(so_small, so_big, nf_c)
    want_codim = n * (n - 1) // 2
    rec("triple so_2n-1 in so_2n at the normal form: codim %d both"
        % want_codim,
        triple["ok"] and triple["codim_sub"] == want_codim, triple)

    # complex normal-form round-trips: scramble by even reflection products
    # supported inside the fixed hyperplane
    rng = SplitMix64(cfg.seed)
    b_c = model.b
    v_coords = list(range(m - 1))
    failures = 0
    retries = 0
    for _ in range(cfg.samples):
        for _attempt in range(10):
            g = _even_reflection_scramble(rng, b_c, v_coords, cfg.bound,
                                          real=False)
            w_in = [g.apply(v) for v in nf_c.basis_vectors()]
            try:
                isotropic_normal_form_complex(model, w_in)
            except NotInDomainError:
                retries += 1
                continue
            break
        else:
            failures += 1
    rec("complex normal-form round-trips: %d scrambles recovered"
        % cfg.samples, failures == 0,
        {"samples": cfg.samples, "failures": failures, "retries": retries})

    # real round-trips: scramble in the signature presentation
    b_sig = model.b_sig
    s_mat = model.sig_change
    s_inv = s_mat.inverse()
    nf_r = model.normal_form_real()
    real_failures = 0
    label_bad = 0
    open_label = "signature(%d,%d)-open" % model.open_signature
    for _ in range(cfg.samples):
        gsig = _even_reflection_scramble(rng, b_sig, v_coords, cfg.bound,
                                         real=True)
        g_std = s_mat * gsig * s_inv
        w_in = [g_std.apply(v) for v in nf_r.basis_vectors()]
        try:
            isotropic_normal_form_real(model, w_in)
        except NotInDomainError:
            real_failures += 1
            continue
        if classify_point(model, w_in) != open_label:
            label_bad += 1
    rec("real normal-form round-trips: %d scrambles recovered"
        % cfg.samples, real_failures == 0,
        {"samples": cfg.samples, "failures": real_failures})
    rec("scrambled planes all classify as the open stratum %r" % open_label,
        label_bad == 0, {"mismatches": label_bad})

    dims_equal = True
    seen = []
    for _ in range(3):
        g = _even_reflection_scramble(rng, b_c, list(range(m)), cfg.bound,
                                      real=False)
        plane = Subspace.from_vectors(
            tower, m, [g.apply(v) for v in nf_c.basis_vectors()])
        d_small = tangent_dim_grassmann(so_small, plane, model.b)
        d_big = tangent_dim_grassmann(so_big, plane, model.b)
        seen.append([d_small, d_big])
        dims_equal = dims_equal and d_small == d_big == want_codim
    rec("complex tangent dims: so_2n-1 == so_2n == dim Z at sampled planes",
        dims_equal, {"pairs": seen, "expected": want_codim})

    d_open = tangent_dim_grassmann(so_pq, nf_r, model.b)
    rec("real form open at the normal form (tangent == n(n-1))",
        d_open == n * (n - 1),
        {"tangent": d_open, "ambient_real": n * (n - 1)})
