"""The four closed-loop workloads of the orbitcert benchmark.

Each workload is a class whose constructor is the set-up (models,
algebras, seeded inputs or witness pools), whose ``op(i)`` is one
operation on the i-th input, and whose ``check(i, out)`` compares the
operation's output with the answer known for that input.  Inputs come
only from the seed given to the constructor; the package under test
receives nothing but the generated inputs.

Package functions are called through their modules (``witnesses.f``,
not a name imported from it) so that the traced run, which patches the
modules' attributes, sees the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from orbitcert import cli, forms, orbits, witnesses
from orbitcert.linalg import Matrix
from orbitcert.scalars import Tower

# Same-sign integer line pairs: Gaussian-integer coordinates in
# [-BOUND, BOUND], as the projective campaigns sample them.
BOUND = 5
DEFINITE = ("positive", "negative")
# stored witnesses in the recheck pool, a quarter of them tampered
POOL = 12


def _line(rng: random.Random, model, want_sign=None) -> list:
    """A Gaussian-integer vector with nonzero h-norm of the wanted sign."""
    t = model.tower
    while True:
        z = [t.scalar(rng.randint(-BOUND, BOUND), rng.randint(-BOUND, BOUND))
             for _ in range(model.ambient_dim)]
        val = model.h.norm(z)
        if not val.is_zero() and want_sign in (None, val.sign()):
            return z


def line_pairs(rng: random.Random, model, count: int) -> list:
    """``count`` pairs of h-definite lines of the same sign."""
    out = []
    for _ in range(count):
        z = _line(rng, model)
        out.append((z, _line(rng, model, model.h.norm(z).sign())))
    return out


def double_column(m: Matrix, j: int) -> Matrix:
    """``m`` with column ``j`` doubled.  For an element g preserving a
    nondegenerate hermitian h this breaks g*hg == h: row j of g*hg is
    row j of h, which is nonzero, and every entry of it is scaled by 2
    or 4."""
    rows = m.to_lists()
    for r in rows:
        r[j] = r[j] + r[j]
    return Matrix.from_rows(m.tower, rows)


class WitnessBuild:
    """Build one Sp(6,R) definite-line transport witness (n=3) and
    serialize it.  Known answer: every same-sign pair has a witness,
    it verifies, its claim is the input pair, and a check apart from
    ``Witness.verify`` confirms that its element maps the source line
    onto the target line."""

    name = "witness-build"
    why = ("deep-tower construction path: transport_positive_line_sp at "
           "n=3 (depth 2-3), self re-verify and to_json")
    trace_ops = 12

    def __init__(self, seed: int, workdir: str) -> None:
        self.model = forms.StandardModel.projective_split(Tower(), 3)
        self.pairs = line_pairs(random.Random(seed), self.model, 256)
        t = self.model.tower
        self.expected = [
            (Matrix.from_cols(t, [z]).to_json(),
             Matrix.from_cols(t, [zt]).to_json()) for z, zt in self.pairs]
        self.json_kb = []
        self.radicands = []

    def op(self, i: int):
        z, zt = self.pairs[i % len(self.pairs)]
        w = witnesses.transport_positive_line_sp(self.model, z, zt)
        return w, json.dumps(w.to_json())

    def check(self, i: int, out) -> bool:
        w, text = out
        doc = json.loads(text)
        self.json_kb.append(len(text) / 1000)
        self.radicands.append(len(doc["element"]["radicands"]))
        src, dst = self.expected[i % len(self.pairs)]
        return (w.verified is True and doc["claim"]["kind"] == "maps_line"
                and doc["claim"]["source"] == src
                and doc["claim"]["target"] == dst
                and self.transports(w.element, w.source, w.target))

    @staticmethod
    def transports(g: Matrix, src: Matrix, dst: Matrix) -> bool:
        """The witness's line claim re-checked without
        ``Witness.verify``: g*src is a nonzero multiple of dst.  Group
        membership is left to ``Witness.verify``; ``recheck`` catches a
        verifier that accepts elements outside the group."""
        v, u = (g * src).col(0), dst.col(0)
        return (any(not x.is_zero() for x in v)
                and all((v[a] * u[b] - v[b] * u[a]).is_zero()
                        for a in range(len(v)) for b in range(a)))


class TangentDims:
    """Sampled tangent-dimension equality on the quadric: one point per
    stratum, g2 against so(3,4).  Known answer: equal dims everywhere,
    open exactly on the definite strata, with tangent dim 10 there."""

    name = "tangent-dims"
    why = ("depth-0 Gaussian-rational arithmetic and rank, no roots: "
           "verify_orbit_equality(quadric7, samples=1) per op")
    trace_ops = 6

    def __init__(self, seed: int, workdir: str) -> None:
        self.model = forms.StandardModel.quadric7(Tower())
        self.algebras = orbits.quadric_algebras(self.model)
        self.base = random.Random(seed).randrange(1 << 32)
        self.json_kb = []
        self.radicands = []

    def op(self, i: int):
        return orbits.verify_orbit_equality(
            self.model, samples=1, seed=self.base + i,
            algebras=self.algebras)

    def check(self, i: int, pairs) -> bool:
        if [rh.stratum for rh, _ in pairs] != list(orbits.STRATA):
            return False
        for rh, ra in pairs:
            definite = rh.stratum in DEFINITE
            if rh.tangent_dim != ra.tangent_dim \
                    or rh.open != definite or ra.open != definite \
                    or (definite and rh.tangent_dim != 10):
                return False
        return True


class Recheck:
    """``orbitcert witness verify FILE`` in-process over a pool of stored
    n=3 transport witnesses, a seeded quarter of them tampered by
    doubling one column of the element.  Known answer: exit 0 for an
    untouched file, exit 1 for a tampered one."""

    name = "recheck"
    why = ("read side of the witness layer: JSON parse, tower and model "
           "rebuild, constraint re-check; no construction, no Lie solves")
    trace_ops = 24

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random("recheck-pool-%d" % seed)
        model = forms.StandardModel.projective_split(Tower(), 3)
        tampered = set(rng.sample(range(POOL), POOL // 4))
        self.files = []
        for k, (z, zt) in enumerate(line_pairs(rng, model, POOL)):
            w = witnesses.transport_positive_line_sp(model, z, zt)
            doc = w.to_json()
            if k in tampered:
                col = rng.randrange(model.ambient_dim)
                doc["element"] = double_column(w.element, col).to_json()
            text = json.dumps(doc)
            path = os.path.join(workdir, "witness-%02d.json" % k)
            with open(path, "w") as fh:
                fh.write(text)
            self.files.append((path, 1 if k in tampered else 0,
                               len(text) / 1000,
                               len(doc["element"]["radicands"])))
        self.json_kb = []
        self.radicands = []

    def op(self, i: int) -> int:
        path = self.files[i % len(self.files)][0]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["witness", "verify", path])

    def check(self, i: int, rc: int) -> bool:
        _, want, kb, radicands = self.files[i % len(self.files)]
        self.json_kb.append(kb)
        self.radicands.append(radicands)
        return rc == want


class CampaignIsotropic:
    """``orbitcert verify isotropic --p 2 --q 1 --samples 2`` through
    ``cli.main``, cycling over a fixed set of seeds.  Known answer: exit
    0, and each report byte-identical to the first one made with its
    seed."""

    name = "campaign-isotropic"
    why = ("the product command end to end: Lie solves, Onishchik "
           "certificate, both isotropic normal forms, Grassmann dims, report")
    trace_ops = 16

    def __init__(self, seed: int, workdir: str) -> None:
        rng = random.Random(seed)
        self.seeds = [rng.randrange(1 << 31) for _ in range(16)]
        self.out = os.path.join(workdir, "report.json")
        self.reference = {}
        self.json_kb = []
        self.radicands = []

    def op(self, i: int) -> int:
        return cli.main(["verify", "isotropic", "--p", "2", "--q", "1",
                         "--samples", "2",
                         "--seed", str(self.seeds[i % len(self.seeds)]),
                         "--out", self.out])

    def check(self, i: int, rc: int) -> bool:
        with open(self.out, "rb") as fh:
            report = fh.read()
        ref = self.reference.setdefault(self.seeds[i % len(self.seeds)],
                                        report)
        return rc == 0 and report == ref


WORKLOADS = {cls.name: cls for cls in
             (WitnessBuild, TangentDims, Recheck, CampaignIsotropic)}
