"""Golden campaign reports: fixed configs must reproduce byte for byte.

The files under ``data/golden`` were generated before the linear-algebra
and tower-lifting refactors; any change to them is a change in behaviour.
"""

import os

import pytest

from orbitcert.campaigns import CampaignConfig, report_text, run_campaign

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden")

CONFIGS = {
    "projective-split-n2": dict(case="projective-split", n=2, samples=3),
    "projective-pq-p1-q1": dict(case="projective-pq", p=1, q=1, samples=3),
    "quadric7": dict(case="quadric7", samples=1),
    "isotropic-p2-q1": dict(case="isotropic", p=2, q=1, samples=2),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_matches_golden(name):
    cfg = CampaignConfig(seed=0, bound=5, **CONFIGS[name])
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        expected = fh.read()
    assert report_text(run_campaign(cfg)) == expected
