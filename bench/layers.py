"""Per-layer measurement for the traced run.

``Tracer`` wraps the public functions listed in ``TRACED`` with span
recorders, from the benchmark's side: the package itself is not edited.
A function bound elsewhere by ``from .x import f`` is replaced in every
``orbitcert`` module that holds it, so calls through the importing
module are seen too.  Spans stay in memory (name, start, end, parent,
the root span of their operation, and whether the call raised) and are
written out when the run ends.

``scalar_microbench`` times scalar arithmetic, which is too hot to wrap,
on operands sampled from the workload's own matrix products.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

from orbitcert.linalg import Matrix
from orbitcert.scalars import Scalar

# module -> public functions and methods whose calls become spans
TRACED = {
    "linalg": ("rank", "column_echelon", "kernel", "congruence_diagonalize",
               "hermitian_signature", "Matrix.__mul__", "Matrix.inverse"),
    "groups": ("solve_linear_constraints", "check_onishchik_triple",
               "GroupSpec.lie_algebra", "GroupSpec.contains",
               "LieAlgebraBasis.verify_bracket_closure"),
    "octonions": ("derivations",),
    "forms": ("StandardModel.projective_split",
              "StandardModel.projective_signature",
              "StandardModel.quadric7", "StandardModel.isotropic"),
    "witnesses": ("transport_positive_line_sp", "witness_from_json",
                  "isotropic_normal_form_complex",
                  "isotropic_normal_form_real", "Witness.verify"),
    "orbits": ("tangent_dim_projective", "classify_point",
               "tangent_dim_grassmann"),
    "campaigns": ("run_campaign", "report_text"),
    "cli": ("main",),
}

KINDS = (("calls", "count"), ("busy_s", "s"), ("self_s", "s"),
         ("raised", "count"))
SCALAR_METRICS = ("mul_us.d0", "add_us.d0", "inv_us.d0",
                  "mul_us.d3", "add_us.d3", "inv_us.d3", "from_coords_us")


def layer_name(span_name: str) -> str:
    """The metric a span counts towards: the model constructors share
    ``forms.StandardModel``; every other function is its own layer."""
    if span_name.startswith("forms.StandardModel."):
        return "forms.StandardModel"
    return span_name


def layer_names() -> list:
    names = []
    for module, attrs in TRACED.items():
        for attr in attrs:
            name = layer_name(module + "." + attr)
            if name not in names:
                names.append(name)
    return names


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "raised")

    def __init__(self, name: str, parent: int, root: int) -> None:
        self.name = name
        self.parent = parent
        self.root = root
        self.raised = False
        self.start = self.end = 0.0

    def to_json(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.root,
                self.raised]


class Tracer:
    """Span recorder; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = Span(name, parent, self.spans[parent].root if parent >= 0
                    else idx)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; the benchmark's op and set-up roots."""
        span = self._open(name)
        try:
            yield span
        except BaseException:
            span.raised = True
            raise
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.raised = True
                raise
            finally:
                self._close(span)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every function in TRACED for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "orbitcert" or n.startswith("orbitcert.")]
        undo = []
        try:
            for module, attrs in TRACED.items():
                mod = sys.modules["orbitcert." + module]
                for attr in attrs:
                    owner, _, leaf = attr.rpartition(".")
                    holder = getattr(mod, owner) if owner else mod
                    raw = holder.__dict__[leaf]
                    fn = raw.__func__ if isinstance(raw, staticmethod) \
                        else raw
                    traced = self.wrap(layer_name(module + "." + attr), fn)
                    undo.append((holder, leaf, raw))
                    setattr(holder, leaf, staticmethod(traced)
                            if isinstance(raw, staticmethod) else traced)
                    if owner:
                        continue
                    for other in modules:
                        for key, val in list(vars(other).items()):
                            if val is fn and other is not mod:
                                undo.append((other, key, val))
                                setattr(other, key, traced)
            yield self
        finally:
            for holder, leaf, raw in reversed(undo):
                setattr(holder, leaf, raw)


def layer_totals(spans: list, roots: set) -> dict:
    """calls / busy_s / self_s / raised per layer over the spans whose
    root is in ``roots``.  busy_s counts only the outermost span of a
    layer (a nested call of the same layer is already inside it);
    self_s is a span's duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals = {}
    for idx, s in enumerate(spans):
        if s.root not in roots or s.root == idx:
            continue
        name = layer_name(s.name)
        row = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                       "self_s": 0.0, "raised": 0})
        row["calls"] += 1
        row["raised"] += s.raised
        row["self_s"] += (s.end - s.start) - child_time[idx]
        up = s.parent
        while up >= 0 and layer_name(spans[up].name) != name:
            up = spans[up].parent
        if up < 0:
            row["busy_s"] += s.end - s.start
    return totals


# -- scalar microbenchmark --------------------------------------------------


def _level(x: Scalar) -> int:
    return (len(x.coords()) - 1).bit_length()


def sample_operands(run_op, per_level: int = 64) -> dict:
    """Operand pairs drawn from the matrix products of one ``run_op()``
    call, keyed by tower depth (0 and 3).  The two scalars of a pair come
    from the same matrix, so they share a tower."""
    pools = {0: [], 3: []}
    original = Matrix.__mul__

    def sampling_mul(a, b):
        for m in (a, b) if isinstance(b, Matrix) else (a,):
            by_level = {0: [], 3: []}
            for row in m.to_lists():
                for x in row:
                    if not x.is_zero() and _level(x) in by_level:
                        by_level[_level(x)].append(x)
            for lvl, xs in by_level.items():
                for u, v in zip(xs, xs[1:]):
                    if len(pools[lvl]) < per_level:
                        pools[lvl].append((m.tower, u, v))
        return original(a, b)

    Matrix.__mul__ = sampling_mul
    try:
        run_op()
    finally:
        Matrix.__mul__ = original
    return pools


def _time_per_call(fn, items: list, min_s: float = 0.02,
                   repeats: int = 5) -> float:
    """Median over ``repeats`` of the mean time per call, in microseconds;
    each repeat loops over ``items`` until it has run ``min_s``."""
    samples = []
    for _ in range(repeats):
        calls = 0
        t0 = time.perf_counter()
        while True:
            for item in items:
                fn(item)
            calls += len(items)
            elapsed = time.perf_counter() - t0
            if elapsed >= min_s:
                break
        samples.append(elapsed / calls * 1e6)
    return statistics.median(samples)


def scalar_microbench(pools: dict) -> dict:
    out = {}
    for lvl in (0, 3):
        pairs = pools[lvl]
        out["mul_us.d%d" % lvl] = _time_per_call(lambda p: p[1] * p[2], pairs)
        out["add_us.d%d" % lvl] = _time_per_call(lambda p: p[1] + p[2], pairs)
        out["inv_us.d%d" % lvl] = _time_per_call(lambda p: p[1].inv(), pairs)
    coords = [(p[0], p[1].coords(3)) for p in pools[3]]
    out["from_coords_us"] = _time_per_call(
        lambda c: Scalar.from_coords(c[0], c[1]), coords)
    return out
