"""Measurement loops of the benchmark: the timed run and the traced run.

Both are closed loops with one client: the next operation starts only
after the previous one and its verdict check have finished, in one
process and one thread.  Every operation's output is checked against
its workload's known answer; a wrong verdict, an unexpected exit code,
a differing report or an exception counts as a failed operation and is
reported on stderr, never retried.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time

import calibration
import layers
from workloads import WitnessBuild

# set-ups per timed run: at least SETUP_MIN, then more while they have
# taken under SETUP_BUDGET_S of wall time, up to SETUP_MAX
SETUP_MIN = 3
SETUP_MAX = 15
SETUP_BUDGET_S = 1.0

# (name, unit, better) of BENCHMARK.json's end_to_end metrics
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
# printed beside them: 0 on a correct build, or defined on two
# workloads only, so no relative bound can gate them
REPORTED = (("failed_share", "share"), ("witness_kb_mean", "kB"))


def per_layer_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {"scalars." + name: "us" for name in layers.SCALAR_METRICS}
    for name in layers.layer_names():
        for kind, unit in layers.KINDS:
            units[name + "." + kind] = unit
    units.update({
        "pass.setup_s": "s",
        "pass.ops_s": "s",
        "witnesses.radicands_mean": "count",
        "witnesses.json_kb_mean": "kB",
        "trace.untraced_ops_per_s": "1/s",
        "trace.traced_ops_per_s": "1/s",
        "trace.overhead_share": "share",
    })
    return units


def _run_op(wl, i: int, errors: list) -> tuple:
    """(latency in seconds, verdict ok) of operation ``i``."""
    t0 = time.perf_counter()
    try:
        out = wl.op(i)
    except Exception as exc:  # a failed op, counted and reported
        latency = time.perf_counter() - t0
        errors.append("op %d raised %s: %s" % (i, type(exc).__name__, exc))
        return latency, False
    latency = time.perf_counter() - t0
    try:
        ok = bool(wl.check(i, out))
    except Exception as exc:
        errors.append("op %d check raised %s: %s"
                      % (i, type(exc).__name__, exc))
        return latency, False
    if not ok:
        errors.append("op %d: wrong verdict" % i)
    return latency, ok


def _mean(xs: list):
    return statistics.fmean(xs) if xs else None


def _p90(xs: list) -> float:
    return (statistics.quantiles(xs, n=10, method="inclusive")[8]
            if len(xs) > 1 else xs[0])


def timed_run(cls, seed: int, seconds: float, workdir: str,
              imports: tuple = (0.0, 0.0)) -> dict:
    """Set up several times, then run ops 0, 1, ... in a closed loop
    until ``seconds`` have passed (at least one op runs).

    Each op is timed between two calibration blocks and scaled to the
    reference speed, and the set-ups as one phase (see
    ``calibration``); the gated metrics use the scaled times, and the
    wall-clock figures are returned beside them.  ``imports`` holds the
    (wall, scaled) median seconds of the package's fresh imports, which
    count towards set-up.
    """
    wl, setups, setup_s = calibration.repeated(
        lambda: cls(seed, workdir),
        lambda walls: len(walls) < SETUP_MIN or (
            len(walls) < SETUP_MAX and sum(walls) < SETUP_BUDGET_S))
    errors = []
    wall_ms, scaled_ms = [], []
    verified = 0
    before = calibration.block()
    end = time.perf_counter() + seconds
    while True:
        latency, ok = _run_op(wl, len(wall_ms), errors)
        after = calibration.block()
        wall_ms.append(latency * 1000)
        scaled_ms.append(calibration.scale(latency, before, after) * 1000)
        verified += ok
        before = after
        if time.perf_counter() >= end:
            break
    attempted = len(wall_ms)
    failed = attempted - verified

    def figures(ms: list, setup: float) -> dict:
        return {
            "ops_per_s": verified / (sum(ms) / 1000),
            "latency_p50_ms": statistics.median(ms),
            "latency_p90_ms": _p90(ms),
            "setup_s": setup,
        }

    metrics = figures(scaled_ms, imports[1] + setup_s)
    metrics.update({
        "peak_rss_mb": peak_rss_mb(),
        "failed_share": failed / attempted,
        "witness_kb_mean": _mean(wl.json_kb),
    })
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setups": len(setups),
        "beyond_p90": sum(x > metrics["latency_p90_ms"] for x in scaled_ms),
        "metrics": metrics,
        "wall": figures(wall_ms, imports[0] + statistics.median(setups)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_run(cls, seed: int, seconds: float, workdir: str) -> dict:
    """Traced passes, each beside an untraced twin, while another pass
    fits in ``seconds`` (at least one runs).

    A pass is one set-up plus the workload's first ``cls.trace_ops``
    operations, the same work every time, so the
    per-layer totals of a pass compare across runs.  Per-layer values are
    medians over the passes.  Op i of the twin runs untraced right
    before op i of the pass, so both meet the same state of the machine
    and their throughputs give the tracing overhead.
    """
    tracer = layers.Tracer()
    op_time = {False: 0.0, True: 0.0}
    pass_totals, kb_means, radicand_means, errors = [], [], [], []
    setup_s, ops_s = [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        first = len(tracer.spans)
        with tracer.installed(), tracer.span("bench.setup"):
            traced = cls(seed, workdir)
        twin = cls(seed, workdir)
        for i in range(cls.trace_ops):
            for wl in (twin, traced):
                with contextlib.ExitStack() as stack:
                    if wl is traced:
                        stack.enter_context(tracer.installed())
                        stack.enter_context(tracer.span("bench.op"))
                    latency, ok = _run_op(wl, i, errors)
                op_time[wl is traced] += latency
                attempted += 1
                failed += not ok
        roots = [k for k in range(first, len(tracer.spans))
                 if tracer.spans[k].parent < 0]
        pass_totals.append(layers.layer_totals(tracer.spans, set(roots)))
        setup_s.append(_duration(tracer.spans[roots[0]]))
        ops_s.append(sum(_duration(tracer.spans[k]) for k in roots[1:]))
        kb_means.append(_mean(traced.json_kb) or 0.0)
        radicand_means.append(_mean(traced.radicands) or 0.0)
        now = time.perf_counter()
        if now + (now - pass_start) > start + seconds:
            break

    metrics = {}
    for name in layers.layer_names():
        for kind, _ in layers.KINDS:
            metrics[name + "." + kind] = statistics.median(
                t.get(name, {}).get(kind, 0) for t in pass_totals)
    metrics["pass.setup_s"] = statistics.median(setup_s)
    metrics["pass.ops_s"] = statistics.median(ops_s)
    metrics["witnesses.radicands_mean"] = statistics.median(radicand_means)
    metrics["witnesses.json_kb_mean"] = statistics.median(kb_means)
    n = len(pass_totals) * cls.trace_ops
    metrics["trace.untraced_ops_per_s"] = n / op_time[False]
    metrics["trace.traced_ops_per_s"] = n / op_time[True]
    metrics["trace.overhead_share"] = op_time[True] / op_time[False] - 1
    for name, value in scalar_metrics(twin, seed, workdir).items():
        metrics["scalars." + name] = value
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "passes": len(pass_totals), "metrics": metrics,
            "spans": tracer.spans, "origin": start}


def _duration(span) -> float:
    return span.end - span.start


def scalar_metrics(wl, seed: int, workdir: str) -> dict:
    """Scalar microbenchmark on operands from the workload's own matrix
    products; depth-3 operands come from transport witnesses when the
    workload never reaches depth 3."""
    pools = layers.sample_operands(lambda: wl.op(0))
    if not pools[3]:
        witness_build = WitnessBuild(seed, workdir)
        for i in range(8):
            pools[3] = layers.sample_operands(lambda: witness_build.op(i))[3]
            if pools[3]:
                break
    if not pools[0] or not pools[3]:
        raise RuntimeError("no scalar operands of depth 0 and 3 found")
    return layers.scalar_microbench(pools)


def report_errors(name: str, errors: list, limit: int = 10) -> None:
    for line in errors[:limit]:
        print("%s: %s" % (name, line), file=sys.stderr)
    if len(errors) > limit:
        print("%s: ... %d more failures" % (name, len(errors) - limit),
              file=sys.stderr)
