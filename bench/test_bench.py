"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py

Each workload runs a few operations at tiny size and must emit every
metric name; a stubbed wrong verdict must be counted as failed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import calibration  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from workloads import (POOL, WORKLOADS, Recheck, WitnessBuild,  # noqa: E402
                       double_column)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_timed_run_emits_every_end_to_end_metric(name, tmp_path):
    res = harness.timed_run(WORKLOADS[name], 3, 0.0, str(tmp_path))
    assert res["attempted"] >= 1 and res["failed"] == 0, res["errors"]
    gated = {m["name"] for m in _benchmark_json()["end_to_end"]}
    assert gated == {n for n, _, _ in harness.END_TO_END}
    assert gated | {n for n, _ in harness.REPORTED} == set(res["metrics"])
    assert all(res["metrics"][n] > 0 for n in gated)
    assert set(res["wall"]) <= gated


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    cls = WORKLOADS[name]
    res = harness.traced_run(cls, 3, 0.0, str(tmp_path))
    assert res["passes"] == 1 and res["failed"] == 0, res["errors"]
    names = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert names == set(harness.per_layer_units()) == set(res["metrics"])
    assert res["metrics"]["cli.main.calls"] == (
        cls.trace_ops if name in ("recheck", "campaign-isotropic") else 0)
    # every op and the set-up are roots; the layer spans hang below them
    roots = [s for s in res["spans"] if s.parent < 0]
    assert {s.name for s in roots} == {"bench.setup", "bench.op"}


def test_benchmark_json_units_match_the_harness():
    doc = _benchmark_json()
    units = {n: u for n, u, _ in harness.END_TO_END}
    for m in doc["end_to_end"]:
        assert units[m["name"]] == m["unit"]
    per_layer = harness.per_layer_units()
    for m in doc["per_layer"]:
        assert per_layer[m["name"]] == m["unit"]
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS)


def test_tampered_file_reported_verified_counts_as_failed(tmp_path,
                                                          monkeypatch):
    from orbitcert import witnesses

    monkeypatch.setattr(witnesses.Witness, "verify", lambda self: True)
    res = harness.timed_run(Recheck, 5, 3.0, str(tmp_path))
    assert res["attempted"] >= POOL
    assert res["failed"] >= 1
    assert res["metrics"]["failed_share"] > 0
    assert any("wrong verdict" in e for e in res["errors"])


def test_witness_build_checks_the_line_claim_apart_from_verify(tmp_path):
    wl = WitnessBuild(1, str(tmp_path))
    w, text = wl.op(0)
    assert wl.check(0, (w, text))
    assert not wl.transports(w.element, w.source, w.source)
    assert not wl.transports(double_column(w.element, 0), w.source,
                             w.target)


def test_calibration_scales_by_the_speed_around_a_timing():
    ref = calibration.REF_MS
    assert calibration.scale(2.0, [ref] * 2, [ref] * 2) == 2.0
    assert calibration.scale(2.0, [2 * ref] * 2, [2 * ref] * 2) == 1.0
    out, walls, scaled = calibration.repeated(
        lambda: sum(range(1000)), lambda walls: len(walls) < 3)
    assert out == 499500 and len(walls) == 3 and scaled > 0


def test_layer_totals_self_time_and_nesting():
    spans = []
    for name, start, end, parent in (("bench.op", 0, 10, -1),
                                     ("linalg.rank", 1, 4, 0),
                                     ("linalg.rank", 2, 3, 1),
                                     ("linalg.kernel", 5, 9, 0)):
        s = layers.Span(name, parent, 0)
        s.start, s.end = start, end
        spans.append(s)
    totals = layers.layer_totals(spans, {0})
    assert totals["linalg.rank"] == {"calls": 2, "busy_s": 3, "self_s": 3,
                                     "raised": 0}
    assert totals["linalg.kernel"]["self_s"] == 4
    assert "bench.op" not in totals


def test_tracer_patches_imported_names_and_restores_them():
    from orbitcert import linalg, orbits, witnesses

    rank, mul = linalg.rank, linalg.Matrix.__mul__
    tracer = layers.Tracer()
    with tracer.installed():
        assert orbits.rank is linalg.rank is not rank
        assert witnesses.rank is linalg.rank
        assert linalg.Matrix.__mul__ is not mul
    assert orbits.rank is linalg.rank is rank
    assert linalg.Matrix.__mul__ is mul


def test_command_prints_result_line_and_fails_without_sources(tmp_path):
    cmd = [sys.executable, "bench/run.py", "--workload", "campaign-isotropic",
           "--seed", "2", "--seconds", "0.5", "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    res = json.loads(done.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    env = json.loads(done.stdout.splitlines()[-2])["environment"]
    assert env["seed"] == 2 and env["ops"] == res["attempted"]

    bare = tmp_path / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
