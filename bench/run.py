"""orbitcert benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/``.  ``--workload all`` runs every workload, each in a process of
its own.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it reports the per-layer metrics of a traced run and
writes its spans to ``.bench_out/``.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the run environment.  The
exit code is 0 only when every operation gave its known answer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

import calibration

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("witness-build", "tangent-dims", "recheck", "campaign-isotropic")


def _parse(argv) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="how long one run measures")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "unknown" without one."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except OSError:
            return "unknown"
        if done.returncode == 0:
            return done.stdout.strip()
    return "unknown"


def environment(args, ops) -> dict:
    return {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "ops": ops,
    }


def _line(name: str, value, unit: str, note: str = "") -> str:
    text = "n/a" if value is None else "%.6g" % value
    return "  %-52s %12s %-6s%s" % (name, text, unit, note)


def run_one(args, imports: tuple) -> int:
    import harness
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        if args.trace:
            res = harness.traced_run(cls, args.seed, args.seconds, workdir)
        else:
            res = harness.timed_run(cls, args.seed, args.seconds, workdir,
                                    imports=imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    harness.report_errors(args.workload, res["errors"])
    metrics = res["metrics"]
    print("workload %s  seed %d  ops %d  failed %d  (closed loop, 1 client)"
          % (args.workload, args.seed, res["attempted"], res["failed"]))
    print("  why: " + cls.why)
    if args.trace:
        units = harness.per_layer_units()
        for name, unit in units.items():
            if not name.endswith((".calls", ".busy_s", ".self_s",
                                  ".raised")) \
                    or metrics[name.rpartition(".")[0] + ".calls"]:
                print(_line(name, metrics[name], unit))
        spans = os.path.join(OUT_DIR, "spans-%s-seed%d.json"
                             % (args.workload, args.seed))
        with open(spans, "w") as fh:
            json.dump({"workload": args.workload, "passes": res["passes"],
                       "fields": ["name", "start", "end", "parent", "root",
                                  "raised"],
                       "spans": [[s.name, s.start - res["origin"],
                                  s.end - res["origin"], s.parent, s.root,
                                  s.raised] for s in res["spans"]]}, fh)
        print("  %d traced passes; spans written to %s"
              % (res["passes"], os.path.relpath(spans, ROOT)))
        shown = units
    else:
        shown = {name: unit for name, unit, _ in harness.END_TO_END}
        for name, unit in list(shown.items()) + list(harness.REPORTED):
            note = ""
            if name in res["wall"]:
                note = "  wall-clock %.6g" % res["wall"][name]
            if name == "latency_p90_ms":
                note += "  (%d of %d ops beyond)" % (res["beyond_p90"],
                                                     res["attempted"])
            if name == "setup_s":
                note += "  (median of %d set-ups)" % res["setups"]
            print(_line(name, metrics[name], unit, note))
    print(json.dumps({"environment": environment(args, res["attempted"])}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in shown.items()},
    }))
    return 0 if res["failed"] == 0 else 1


def run_all(args) -> int:
    """Every workload in a child process of its own; one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            print("workload %s printed no result (exit %d)"
                  % (name, child.returncode), file=sys.stderr)
            return 1
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            combined["metrics"][name + "." + key] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "orbitcert", "__init__.py")):
        print("bench: no orbitcert sources under %s; run from the root of "
              "a source checkout" % SRC, file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    return run_one(args, import_seconds())


def import_seconds(repeats: int = 5) -> tuple:
    """(wall, scaled) median seconds of ``repeats`` fresh ``import
    orbitcert`` runs, part of set-up.  Runs before the benchmark's own
    modules bind the package, so they bind the last import."""
    def fresh_import():
        for name in [n for n in sys.modules
                     if n == "orbitcert" or n.startswith("orbitcert.")]:
            del sys.modules[name]
        __import__("orbitcert")

    _, walls, scaled = calibration.repeated(
        fresh_import, lambda walls: len(walls) < repeats)
    return statistics.median(walls), scaled


if __name__ == "__main__":
    sys.exit(main())
