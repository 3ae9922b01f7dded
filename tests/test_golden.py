"""Golden campaign reports and witness documents: fixed configs must
reproduce byte for byte.

The report files under ``data/golden`` were generated before the
linear-algebra and tower-lifting refactors, the ``witness-*`` files before
the Gaussian-rational coefficients became integer triples; any change to
them is a change in behaviour.  The transports reach tower depth 2 and 3
and the real normal form depth 1, so their JSON pins the text form of
coordinates over adjoined roots.  ``quadric7-samples8-seed17`` was
generated before the quadric sampler stopped forming its group elements.
The isotropic (3,2) normal forms were generated while each Witt step still
ran on a sub-form and was embedded; the complex one peels three levels and
the real one places two pairs.  The ``dump-*`` files are the output of
``orbitcert dump`` for four models and the octonion table, generated
while the models still stored their Grams and base points twice and the
octonion algebra kept a copy of its structure constants.
"""

import contextlib
import io
import json
import os

import pytest

from orbitcert.cli import main
from orbitcert.campaigns import CampaignConfig, report_text, run_campaign
from orbitcert.forms import FormSpec, StandardModel
from orbitcert.linalg import Matrix
from orbitcert.rng import SplitMix64
from orbitcert.scalars import Tower
from orbitcert.witnesses import (isotropic_normal_form_complex,
                                 isotropic_normal_form_real,
                                 transport_positive_line_sp)

from conftest import reflection

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

CONFIGS = {
    "projective-split-n2": dict(case="projective-split", n=2, samples=3),
    "projective-pq-p1-q1": dict(case="projective-pq", p=1, q=1, samples=3),
    "quadric7": dict(case="quadric7", samples=1),
    "isotropic-p2-q1": dict(case="isotropic", p=2, q=1, samples=2),
    # eight sampled points per stratum where the case above has one
    "quadric7-samples8-seed17": dict(case="quadric7", samples=8, seed=17),
}


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        return fh.read()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    cfg = CampaignConfig(**{"seed": 0, "bound": 5, **CONFIGS[name]})
    assert report_text(run_campaign(cfg)) == _golden(name)


def _transport(n: int, seed: int):
    """Sp(2n,R) transport between the first seeded pair of same-sign
    Gaussian-integer lines with coordinates in [-5, 5]."""
    model = StandardModel.projective_split(Tower(), n)
    t = model.tower
    rng = SplitMix64(seed)

    def line():
        while True:
            z = [t.scalar(rng.randint(-5, 5), rng.randint(-5, 5))
                 for _ in range(model.ambient_dim)]
            if not model.h.norm(z).is_zero():
                return z

    z = line()
    while True:
        zt = line()
        if model.h.norm(zt).sign() == model.h.norm(z).sign():
            return transport_positive_line_sp(model, z, zt)


def _scrambled(form: FormSpec, vectors, plane):
    """``plane`` moved by the product of the reflections of ``form`` in
    the given vectors."""
    t = form.tower
    g = Matrix.identity(t, form.dim)
    for v in vectors:
        g = reflection(form, [t.scalar(*c) for c in v]) * g
    return [g.apply(u) for u in plane]


def _complex_normal_form():
    model = StandardModel.isotropic(Tower(), 2, 1)
    moved = _scrambled(model.b, [[(1, 2), (0, 1), (3, 0), (0, 0)],
                                 [(2, 0), (1, -1), (0, 0), (0, 0)]],
                       model.normal_form_complex().basis_vectors())
    return isotropic_normal_form_complex(model, moved)


def _real_normal_form():
    model = StandardModel.isotropic(Tower(), 2, 1)
    moved = _scrambled(model.b_sig, [[(2,), (1,), (1,), (0,)],
                                     [(1,), (0,), (2,), (0,)]],
                       [model.sig_change.inverse().apply(u)
                        for u in model.normal_form_real().basis_vectors()])
    moved = [model.sig_change.apply(u) for u in moved]
    return isotropic_normal_form_real(model, moved)


def _complex_normal_form_p3_q2():
    model = StandardModel.isotropic(Tower(), 3, 2)
    moved = _scrambled(model.b,
                       [[(1, 2), (0, 1), (3, 0), (1, 0), (2, -1), (0, 0)],
                        [(2, 0), (1, -1), (0, 0), (1, 1), (0, 3), (0, 0)]],
                       model.normal_form_complex().basis_vectors())
    return isotropic_normal_form_complex(model, moved)


def _real_normal_form_p3_q2():
    model = StandardModel.isotropic(Tower(), 3, 2)
    moved = _scrambled(model.b_sig, [[(2,), (1,), (1,), (3,), (-1,), (0,)],
                                     [(1,), (0,), (2,), (1,), (1,), (0,)]],
                       [model.sig_change.inverse().apply(u)
                        for u in model.normal_form_real().basis_vectors()])
    moved = [model.sig_change.apply(u) for u in moved]
    return isotropic_normal_form_real(model, moved)


WITNESSES = {
    "witness-transport-n2": lambda: _transport(2, 11),
    "witness-transport-n3": lambda: _transport(3, 12),
    "witness-normal-form-complex-p2-q1": _complex_normal_form,
    "witness-normal-form-real-p2-q1": _real_normal_form,
    "witness-normal-form-complex-p3-q2": _complex_normal_form_p3_q2,
    "witness-normal-form-real-p3-q2": _real_normal_form_p3_q2,
}


@pytest.mark.parametrize("name", sorted(WITNESSES))
def test_witness_matches_golden(name):
    w = WITNESSES[name]()
    assert w.verified
    assert json.dumps(w.to_json(), sort_keys=True) + "\n" == _golden(name)


DUMPS = {
    "dump-model-projective-split-n2": ["model", "projective-split",
                                       "--n", "2"],
    "dump-model-projective-pq-p2-q1": ["model", "projective-pq",
                                       "--p", "2", "--q", "1"],
    "dump-model-quadric7": ["model", "quadric7"],
    "dump-model-isotropic-p3-q2": ["model", "isotropic",
                                   "--p", "3", "--q", "2"],
    "dump-octonion-table": ["octonion-table"],
}


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dump_matches_golden(name):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["dump"] + DUMPS[name]) == 0
    assert out.getvalue() == _golden(name)
