"""Campaign configuration, report structure and reproducibility."""

import itertools
import json

import pytest

from orbitcert import campaigns
from orbitcert.campaigns import (CASES, CampaignConfig, report_text,
                                 run_campaign)
from orbitcert.forms import StandardModel
from orbitcert.scalars import Tower


def test_config_defaults_per_case():
    assert CampaignConfig("projective-split").n == 1
    pq = CampaignConfig("projective-pq")
    assert (pq.p, pq.q, pq.n) == (1, 1, 2)
    iso = CampaignConfig("isotropic")
    assert (iso.p, iso.q, iso.n) == (2, 1, 2)
    quad = CampaignConfig("quadric7")
    assert quad.n is None and quad.p is None


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig("nonsense")
    with pytest.raises(ValueError):
        CampaignConfig("projective-split", n=0)
    with pytest.raises(ValueError):
        CampaignConfig("projective-pq", p=2, q=1, n=5)   # n != p + q
    with pytest.raises(ValueError):
        CampaignConfig("isotropic", p=2, q=2)            # p + q even
    with pytest.raises(ValueError):
        CampaignConfig("isotropic", p=2, q=3, n=2)       # 2n != p + q + 1
    with pytest.raises(ValueError):
        CampaignConfig("projective-split", p=3, q=4)     # takes only n
    with pytest.raises(ValueError):
        CampaignConfig("quadric7", n=9, p=1, q=2)        # takes no parameter
    with pytest.raises(ValueError):
        CampaignConfig("quadric7", samples=0)
    with pytest.raises(ValueError):
        CampaignConfig("quadric7", bound=0)


def test_config_follows_the_model_rules():
    # a config is valid exactly when the model it names is, with the
    # case's defaults standing in when no parameter is given
    values = (None, -1, 0, 1, 2, 3)
    for case in CASES:
        for n, p, q in itertools.product(values, repeat=3):
            given = {k: v for k, v in zip("npq", (n, p, q)) if v is not None}
            info = dict(case=case,
                        **(given or StandardModel.CASES[case].defaults))
            try:
                StandardModel.from_info(Tower(), info)
            except ValueError:
                with pytest.raises(ValueError):
                    CampaignConfig(case, n=n, p=p, q=q)
                continue
            assert CampaignConfig(case, n=n, p=p, q=q).model.info == info


def test_config_echo_omits_output_path():
    cfg = CampaignConfig("quadric7", samples=3, seed=11)
    echo = cfg.to_json()
    assert "out" not in echo
    assert echo["samples"] == 3 and echo["seed"] == 11


def test_report_shape_and_text():
    cfg = CampaignConfig("projective-split", n=1, samples=2, seed=4)
    report = run_campaign(cfg)
    assert report["schema"] == "orbitcert-report/1"
    assert set(report) == {"schema", "version", "config", "checks",
                           "summary", "status"}
    total = sum(report["summary"].values())
    assert total == len(report["checks"])
    assert report["status"] == "pass"
    assert report["summary"]["fail"] == 0
    text = report_text(report)
    assert text.endswith("\n")
    assert json.loads(text) == report
    # serialization is canonical: keys sorted, so identical dicts give
    # identical bytes
    assert report_text(json.loads(text)) == text


def test_report_is_reproducible():
    cfg = lambda: CampaignConfig("projective-pq", p=1, q=1, samples=3, seed=8)
    assert report_text(run_campaign(cfg())) == report_text(run_campaign(cfg()))


def test_quadric_campaign_samples_every_stratum():
    cfg = CampaignConfig("quadric7", samples=1, seed=7)
    report = run_campaign(cfg)
    assert report["status"] == "pass"
    by_name = {c["name"]: c for c in report["checks"]}
    tangent = next(c for name, c in by_name.items()
                   if name.startswith("tangent dims equal"))
    assert set(tangent["details"]) == {"positive", "negative", "null-real",
                                       "null-nonreal"}


def test_strict_mode_passes_cleanly():
    base = CampaignConfig("isotropic", p=2, q=1, samples=2, seed=3)
    strict = CampaignConfig("isotropic", p=2, q=1, samples=2, seed=3,
                            strict=True)
    a, b = run_campaign(base), run_campaign(strict)
    assert a["status"] == b["status"] == "pass"
    assert [c["name"] for c in a["checks"]] == [c["name"] for c in b["checks"]]


def test_strict_mode_stops_at_a_failing_triple(monkeypatch):
    # every case runs its dimension checks, then the triple; under strict
    # the report ends there when the triple fails
    monkeypatch.setattr(campaigns, "check_onishchik_triple",
                        lambda sub, amb, point: {"ok": False})
    for case in CASES:
        report = run_campaign(CampaignConfig(case, samples=1, strict=True))
        *dims, last = report["checks"]
        assert last["name"].startswith("triple ") and \
            last["status"] == "fail", case
        assert dims and all(c["name"].startswith("dim") for c in dims)
        assert report["summary"] == {"pass": len(dims), "fail": 1,
                                     "skipped": 0}
        assert report["status"] == "fail"


def test_all_cases_run_green_at_small_scale():
    for case in CASES:
        report = run_campaign(CampaignConfig(case, samples=2, seed=1))
        assert report["status"] == "pass", (case, report["summary"])


def test_one_config_runs_twice_alike():
    for case in CASES:
        cfg = CampaignConfig(case, samples=1, seed=5)
        first = report_text(run_campaign(cfg))
        assert report_text(run_campaign(cfg)) == first, case
