"""Seeded verification campaigns and machine-readable reports.

A campaign bundles every check for one of the model cases into a JSON
report that is byte-identical for identical (config, version).  Reports
carry no timestamps and all randomness comes from the documented
splitmix64 generator, so a report is a reproducible certificate.

One driver runs every case over the roles of its Onishchik quadruple
(G, Ghat, G0, Ghat0 in ``StandardModel.CASES``).  The case's ``Plan``
in ``PLANS`` names the checks and holds what else differs; in order:

1. ``dims``: the dimension of each role the report checks, in report
   order; only those roles are built, each by ``build_group`` with its
   bracket closure certified;
2. the triple G in Ghat at the point ``base`` (``check_onishchik_triple``),
   with orbit codimension dim_C Z;
3. ``section``: the case's own witness and sampling checks;
4. where the case has them, ``sampled``: the complex tangent dimensions
   of G and Ghat at three sampled points, both dim_C Z, and ``opened``:
   G0's real tangent dimension at a point of D, 2 dim_C Z.  ``tangent``
   gives the dimensions.

The isotropic section scrambles its normal forms by pairs of random
reflections applied straight to their basis vectors (``reflect``); the
real one is scrambled in the signature presentation, on the S^-1-images
of its basis, and mapped back by S.  No reflection matrix and no
S g S^-1 product is formed.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple
from typing import Callable, Optional

from ._version import __version__
from .forms import FormSpec, StandardModel
from .groups import check_onishchik_triple
from .linalg import Subspace
from .orbits import (classify_point, tangent_dim_grassmann,
                     tangent_dim_projective, verify_orbit_equality)
from .rng import SplitMix64
from .scalars import Tower
from .witnesses import (NotInDomainError, build_group,
                        isotropic_normal_form_complex,
                        isotropic_normal_form_real, reflect,
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
                 strict: bool = False) -> None:
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
        self.strict = strict

    def to_json(self) -> dict:
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
        checks.append({"name": name, "status": "pass" if ok else "fail",
                       "details": details})
        if cfg.strict and not ok:
            raise _StrictStop()

    try:
        _run_checks(cfg, rec)
    except _StrictStop:
        pass
    count = Counter(c["status"] for c in checks)
    return {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "config": cfg.to_json(),
        "checks": checks,
        "summary": {k: count[k] for k in ("pass", "fail", "skipped")},
        "status": "pass" if count["fail"] == 0 else "fail",
    }


def _run_checks(cfg: CampaignConfig, rec: Callable) -> None:
    """The driver of the module docstring, with the case's ``Plan``."""
    model = cfg.model
    plan = PLANS[cfg.case](cfg)
    roles = StandardModel.CASES[cfg.case].groups._asdict()
    algs = {}
    for role, name, want in plan.dims:
        alg = algs[role] = build_group(model, roles[role]).lie_algebra()
        details = {"dim": alg.dim, "expected": want}
        if alg.ground == "real":
            details["ground"] = alg.ground
        rec(name, alg.dim == want, details)
    codim = model.flag_dim_complex
    triple = check_onishchik_triple(algs["G"], algs["Ghat"], plan.base)
    rec(plan.triple, triple["ok"] and triple["codim_sub"] == codim, triple)
    rng = SplitMix64(cfg.seed)
    plan.section(cfg, algs, rng, rec)
    if plan.sampled:
        name, sample = plan.sampled
        pairs = [[plan.tangent(algs[role], point) for role in ("G", "Ghat")]
                 for point in (sample(rng) for _ in range(3))]
        rec(name, all(pair == [codim, codim] for pair in pairs),
            {"pairs": pairs, "expected": codim})
    if plan.opened:
        name, point = plan.opened
        d_open = plan.tangent(algs["G0"], point)
        rec(name, d_open == 2 * codim,
            {"tangent": d_open, "ambient_real": 2 * codim})


def report_text(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


# -- sampling helpers ---------------------------------------------------------------


def _random_line_with_sign(rng, model, bound, want_sign=None):
    """A random integer-coordinate vector with nonzero h-norm (of the
    requested sign when given), in at most 200 draws."""
    for _ in range(200):
        # arguments are evaluated left to right: the real part is drawn first
        z = [model.tower.scalar(rng.randint(-bound, bound),
                                rng.randint(-bound, bound))
             for _ in range(model.ambient_dim)]
        val = model.h.norm(z)
        if val.is_zero():
            continue
        if want_sign is None or val.sign() == want_sign:
            return z
    raise RuntimeError("failed to sample a definite line")


def _even_reflection_scramble(rng, form: FormSpec, coords: list, bound: int,
                              real: bool, vectors: list) -> list:
    """``vectors`` moved by a product of two reflections in vectors
    supported on the listed coordinates — an exact special isometry of the
    form fixing the complementary coordinates — applied by ``reflect``,
    with no matrix formed."""
    t = form.tower
    made = 0
    while made < 2:
        v = [t.zero()] * form.dim
        for j in coords:
            v[j] = t.scalar(rng.randint(-bound, bound),
                            0 if real else rng.randint(-bound, bound))
        if all(x.is_zero() for x in v) or form.norm(v).is_zero():
            continue
        vectors = reflect(form, v, vectors)
        made += 1
    return vectors


# -- the per-case plans --------------------------------------------------------------

# ``section(cfg, algs, rng, rec)``, ``tangent(alg, point)``, ``sampled``
# (name, sampler(rng) -> point) and ``opened`` (name, point), or None
Plan = namedtuple("Plan", "dims triple base section tangent sampled opened")


def _projective_plan(cfg: CampaignConfig) -> Plan:
    model, n, m = cfg.model, cfg.model.n, cfg.model.ambient_dim
    roles = StandardModel.CASES[model.case].groups
    e0 = [model.tower.one()] + [model.tower.zero()] * (m - 1)
    return Plan(
        dims=(("G", "dim sp_2n(C) == n(2n+1)", n * (2 * n + 1)),
              ("Ghat", "dim sl_2n(C) == (2n)^2 - 1", m * m - 1),
              ("G0", "dim_R %s == n(2n+1)" % roles.G0, n * (2 * n + 1)),
              ("Ghat0", "dim_R %s == (2n)^2 - 1" % roles.Ghat0, m * m - 1)),
        triple="triple sp_2n in sl_2n at [e1]: codim %d both" % (m - 1),
        base=e0, section=_line_transports, tangent=tangent_dim_projective,
        sampled=("complex tangent dims: sp == sl == 2n-1 at sampled points",
                 lambda rng: _random_line_with_sign(rng, model, cfg.bound)),
        opened=("real form open at a definite line (tangent == 2(2n-1))",
                e0))


def _quadric_plan(cfg: CampaignConfig) -> Plan:
    return Plan(
        dims=(("G0", "dim der(octonions) == 14", 14),
              ("Ghat0", "dim_R so(3,4) == 21", 21),
              ("Ghat", "dim so_7(C) == 21", 21),
              ("G", "dim_C complexified derivations == 14", 14)),
        triple="triple g2 in so7 at [z+]: codim 5 both",
        base=cfg.model.stratum_representatives["positive"],
        section=_quadric_strata, tangent=tangent_dim_projective,
        sampled=None, opened=None)


def _isotropic_plan(cfg: CampaignConfig) -> Plan:
    model, m = cfg.model, cfg.model.ambient_dim
    want_small = (m - 1) * (m - 2) // 2
    nf_c, nf_r = model.normal_form_complex(), model.normal_form_real()
    return Plan(
        dims=(("Ghat", "dim so_2n(C) == n(2n-1)", m * (m - 1) // 2),
              ("G", "dim so_2n-1(C) == (n-1)(2n-1)", want_small),
              ("G0", "dim_R so(%d,%d) == %d" % (model.p, model.q, want_small),
               want_small)),
        triple="triple so_2n-1 in so_2n at the normal form: codim %d both"
               % model.flag_dim_complex,
        base=nf_c, section=lambda cfg, algs, rng, rec: _isotropic_normal_forms(
            cfg, nf_c, nf_r, rng, rec),
        tangent=lambda alg, s: tangent_dim_grassmann(alg, s, model.b),
        sampled=("complex tangent dims: so_2n-1 == so_2n == dim Z at "
                 "sampled planes",
                 lambda rng: _scrambled_plane(rng, model, nf_c, cfg.bound)),
        opened=("real form open at the normal form (tangent == n(n-1))",
                nf_r))


PLANS = {"projective-split": _projective_plan,
         "projective-pq": _projective_plan,
         "quadric7": _quadric_plan, "isotropic": _isotropic_plan}


# -- the per-case sections -----------------------------------------------------------


def _line_transports(cfg: CampaignConfig, algs: dict, rng: SplitMix64,
                     rec: Callable) -> None:
    model = cfg.model
    failures = label_mismatch = 0
    for _ in range(cfg.samples):
        z = _random_line_with_sign(rng, model, cfg.bound)
        sgn = model.h.norm(z).sign()
        zt = _random_line_with_sign(rng, model, cfg.bound, sgn)
        try:
            w = transport_positive_line_sp(model, z, zt)
        except NotInDomainError:
            failures += 1
            continue
        if classify_point(model, w.element.apply(z)) != \
                classify_point(model, z):
            label_mismatch += 1
    rec("line transports: %d same-sign pairs, all witnesses verify"
        % cfg.samples, failures == 0,
        {"samples": cfg.samples, "failures": failures})
    rec("stratum label constant along each witness", label_mismatch == 0,
        {"mismatches": label_mismatch})


def _quadric_strata(cfg: CampaignConfig, algs: dict, rng: SplitMix64,
                    rec: Callable) -> None:
    # verify_orbit_equality draws from its own generator, seeded alike
    pairs = verify_orbit_equality(cfg.model, samples=cfg.samples,
                                  seed=cfg.seed, bound=cfg.bound,
                                  algebras=(algs["G0"], algs["Ghat0"]))
    per_stratum = {}
    equal = True
    for rh, ra in pairs:
        equal = equal and rh.tangent_dim == ra.tangent_dim
        per_stratum.setdefault(rh.stratum, []).append(rh.tangent_dim)
    seen = {s: sorted(set(v)) for s, v in per_stratum.items()}
    rec("tangent dims equal (g2 vs so(3,4)) on %d samples per stratum"
        % cfg.samples, equal, seen)
    rec("tangent dim constant within each stratum",
        all(len(v) == 1 for v in seen.values()), seen)
    open_ok = all(
        (rh.open and ra.open) == (rh.stratum in ("positive", "negative"))
        for rh, ra in pairs)
    rec("open strata are exactly the definite ones", open_ok, {})
    d_ok = all(rh.tangent_dim == 10 for rh, ra in pairs
               if rh.stratum in ("positive", "negative"))
    rec("tangent dim on D+ and D- == 10 == 2 dim_C Z", d_ok,
        {"ambient_real": 10})


def _scrambled_plane(rng: SplitMix64, model: StandardModel, nf_c: Subspace,
                     bound: int) -> Subspace:
    """The complex normal form moved by a random even reflection product."""
    m = model.ambient_dim
    return Subspace.from_vectors(model.tower, m, _even_reflection_scramble(
        rng, model.b, list(range(m)), bound, False, nf_c.basis_vectors()))


def _isotropic_normal_forms(cfg: CampaignConfig, nf_c: Subspace,
                            nf_r: Subspace, rng: SplitMix64,
                            rec: Callable) -> None:
    model = cfg.model
    m = model.ambient_dim
    # complex normal-form round-trips: scramble by even reflection products
    # supported inside the fixed hyperplane
    v_coords = list(range(m - 1))
    failures = retries = 0
    for _ in range(cfg.samples):
        for _attempt in range(10):
            w_in = _even_reflection_scramble(rng, model.b, v_coords,
                                             cfg.bound, False,
                                             nf_c.basis_vectors())
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

    # real round-trips: scramble in the signature presentation, where the
    # normal form's basis is S^-1 nf_r, and map back by S (S^-1 = conj(S),
    # S being diagonal with entries 1 and i)
    s_mat = model.sig_change
    s_inv = s_mat.conj()
    nf_sig = [s_inv.apply(v) for v in nf_r.basis_vectors()]
    real_failures = label_bad = 0
    open_label = "signature(%d,%d)-open" % model.open_signature
    for _ in range(cfg.samples):
        w_in = [s_mat.apply(v) for v in _even_reflection_scramble(
            rng, model.b_sig, v_coords, cfg.bound, True, nf_sig)]
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
