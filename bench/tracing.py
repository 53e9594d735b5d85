"""Spans and call counters for the traced benchmark run.

The tracer wraps the public entry points of each vhcplan layer from outside:
`installed()` replaces every module attribute in the vhcplan package that
holds one of them (so the names vhcplan.cli imported are wrapped too) and
restores them on exit. Nothing in the package changes.

Counts come from wrappers around objects that the caller passes in or gets
back: the callables of the MechanicalSystem that `pvtol_model()` returns, a
chart proxy counting `forward`, `jacobian` and `invert_guess`, and
`LtvModel.a_of/b_of` and `GainSchedule.k_of`. A count is charged to the
innermost open span. Spans (name, start, end, parent, op id) stay in memory
until `write()`.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import dataclasses
import json
import os
import statistics
import sys
import time
from pathlib import Path

LAYERS = ("mech", "vhc", "singular_solver", "feasibility", "transverse", "sim",
          "io_utils", "cli")

# Span name -> (module of the layer, function names). These are the public
# functions vhcplan.cli calls, plus its own `main`; per-sample evaluators such
# as `tic_toc_reference` are counted through the objects below instead.
SPANNED = {
    "mech.pvtol_model": ("mech", ("pvtol_model",)),
    "vhc.tic_toc_vhc": ("vhc", ("tic_toc_vhc",)),
    "vhc.reduce": ("vhc", ("reduce",)),
    "vhc.family_reduced": ("vhc", ("family_reduced",)),
    "vhc.check_theorem1": ("vhc", ("check_theorem1",)),
    "vhc.find_family_parameters": ("vhc", ("find_family_parameters",)),
    "singular_solver.solve_boundary": ("singular_solver", ("solve_boundary",)),
    "singular_solver.singular_acceleration": ("singular_solver", ("singular_acceleration",)),
    "singular_solver.make_periodic": ("singular_solver", ("make_periodic",)),
    "singular_solver.lift": ("singular_solver", ("lift",)),
    "feasibility.certify_no_regular_vhc": ("feasibility", ("certify_no_regular_vhc",)),
    "feasibility.accessibility_det": ("feasibility", ("accessibility_det_closed_form",
                                                      "accessibility_det_numeric")),
    "transverse.TicTocChart": ("transverse", ("TicTocChart",)),
    "transverse.FamilyChart": ("transverse", ("FamilyChart",)),
    "transverse.linearize": ("transverse", ("linearize",)),
    "transverse.gramian": ("transverse", ("gramian",)),
    "transverse.periodic_lqr": ("transverse", ("periodic_lqr",)),
    "transverse.monodromy": ("transverse", ("monodromy",)),
    "sim.run_closed_loop": ("sim", ("run_closed_loop",)),
    "io_utils.write": ("io_utils", ("write_csv", "write_json")),
    "cli.main": ("cli", ("main",)),
}

_MECH_FIELDS = ("mass_matrix", "coriolis", "gravity", "input_map", "annihilator")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class CountingChart:
    """Transverse chart proxy that counts forward, jacobian and invert_guess calls.

    A jacobian taken inside `chart_invert` is one damped-Newton step.
    """

    def __init__(self, chart, tracer: "Tracer"):
        self._chart = chart
        self._tracer = tracer

    def forward(self, q, qd):
        return self._tracer.call("transverse", "chart_forward_calls", self._chart.forward, q, qd)

    def jacobian(self, q, qd):
        counter = "newton_steps" if self._tracer.newton_depth else "chart_jacobian_calls"
        return self._tracer.call("transverse", counter, self._chart.jacobian, q, qd)

    def invert_guess(self, tau, rho):
        return self._tracer.call("transverse", "chart_inversions", self._chart.invert_guess,
                                 tau, rho)

    def __getattr__(self, name):
        return getattr(self._chart, name)


class Tracer:
    """In-memory spans and counters of one benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[list] = []          # [name, start, end, parent index, op id]
        self.counts = collections.Counter()  # (op id, span name, counter) -> n
        self.newton_depth = 0
        self._stack: list[int] = []
        self._op = None

    # -- recording ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, op=None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        except BaseException as exc:
            self._error(_layer(name), exc)
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, counter: str, n: int = 1) -> None:
        where = self.spans[self._stack[-1]][0] if self._stack else "none"
        self.counts[(self._op, where, counter)] += int(n)

    def _error(self, layer: str, exc: BaseException) -> None:
        # An exception is charged once per layer it leaves, however many
        # wrapped calls of that layer it passes through.
        seen = exc.__dict__.setdefault("_bench_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.counts[(self._op, layer, "errors")] += 1

    def call(self, layer: str, counter: str, fn, *args):
        self.count(counter)
        try:
            return fn(*args)
        except BaseException as exc:
            self._error(layer, exc)
            raise

    def counted(self, layer: str, counter: str, fn):
        def wrapper(*args):
            return self.call(layer, counter, fn, *args)
        return wrapper

    # -- counting wrappers around objects -------------------------------------

    def count_system(self, sys_):
        """Copy of a MechanicalSystem whose model callables count as mech_evals."""
        fields = {f: self.counted("mech", "mech_evals", getattr(sys_, f))
                  for f in _MECH_FIELDS if getattr(sys_, f) is not None}
        return dataclasses.replace(sys_, **fields)

    def count_chart(self, chart):
        return CountingChart(chart, self)

    def count_ltv(self, ltv):
        """Copy of an LtvModel; each a_of call is one right-hand-side evaluation."""
        out = copy.copy(ltv)
        out.a_of = self.counted("transverse", "rhs_evals", ltv.a_of)
        out.b_of = self.counted("transverse", "b_of_calls", ltv.b_of)
        return out

    def count_gains(self, gains):
        out = copy.copy(gains)
        out.k_of = self.counted("transverse", "k_of_calls", gains.k_of)
        return out

    def _after(self, name: str, args, out):
        """Count what a spanned call returned; may swap in a counting wrapper."""
        if name == "mech.pvtol_model":
            return self.count_system(out)
        if name in ("transverse.TicTocChart", "transverse.FamilyChart"):
            return self.count_chart(out)
        if name == "transverse.linearize":
            return self.count_ltv(out)
        if name == "transverse.periodic_lqr":
            self.count("sweeps", out.sweeps)
            return self.count_gains(out)
        if name == "sim.run_closed_loop":
            self.count("steps", out.t.size - 1)
        elif name == "io_utils.write":
            self.count("bytes", os.path.getsize(args[0]))
        elif name == "cli.main" and out != 0:
            self._error("cli", RuntimeError(f"exit code {out}"))
        return out

    # -- patching -------------------------------------------------------------

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return self._after(name, args, fn(*args, **kwargs))
        return wrapper

    def _newton(self, fn):
        def wrapper(*args, **kwargs):
            self.newton_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.newton_depth -= 1
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions in every loaded vhcplan module, then restore them."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "vhcplan" or n.startswith("vhcplan."))]
        targets = []
        for name, (mod, attrs) in SPANNED.items():
            for attr in attrs:
                original = getattr(sys.modules[f"vhcplan.{mod}"], attr)
                targets.append((original, self._spanned(name, original)))
        chart_invert = sys.modules["vhcplan.transverse"].chart_invert
        targets.append((chart_invert, self._newton(chart_invert)))
        patches = []
        for original, wrapper in targets:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        patches.append((module, key, original))
        try:
            yield
        finally:
            for module, key, original in reversed(patches):
                setattr(module, key, original)

    # -- summaries ------------------------------------------------------------

    def op_metrics(self, op) -> dict:
        """Inclusive seconds per span name and counts per (span, counter) of one op.

        Keys are `<span>.s`, `<span>.<counter>`, `<layer>.errors` and
        `cli.self.s`: the time inside `cli.main` spans not covered by their
        direct child spans (argument parsing, config, building CSV rows).
        """
        out: dict = collections.defaultdict(float)
        child_s = collections.defaultdict(float)
        for name, start, end, parent, span_op in self.spans:
            if span_op != op:
                continue
            out[f"{name}.s"] += end - start
            if parent is not None:
                child_s[parent] += end - start
        for index, (name, start, end, _, span_op) in enumerate(self.spans):
            if span_op == op and name == "cli.main":
                out["cli.self.s"] += (end - start) - child_s[index]
        for (count_op, where, counter), n in self.counts.items():
            if count_op == op:
                out[f"{where}.{counter}"] += n
        return out

    def summary(self, names, traced_ops, op_seconds, scales) -> dict:
        """Median over traced ops of each per-layer metric named in `names`.

        `op_seconds` are the scaled op times of all good ops; the span times
        of op `i` are multiplied by `scales[i]`.
        """
        per_op = [self.op_metrics(op) for op in traced_ops]
        for op, metrics in zip(traced_ops, per_op):
            for key in metrics:
                if key.endswith(".s"):
                    metrics[key] *= scales[op]
        values = {}
        for name in names:
            if name == "trace.overhead_frac":
                traced = [op_seconds[op] for op in traced_ops]
                plain = [s for op, s in op_seconds.items() if op not in traced_ops]
                values[name] = statistics.median(traced) / statistics.median(plain) - 1.0
            else:
                values[name] = statistics.median(m.get(name, 0.0) for m in per_op)
        return values

    def write(self, path: Path, meta: dict, op_seconds: dict, scales: dict) -> None:
        """Spans and per-op metrics in raw seconds, with each op's time scale."""
        path.parent.mkdir(parents=True, exist_ok=True)
        ops = sorted({s[4] for s in self.spans if s[4] is not None})
        payload = {
            "meta": meta,
            "op_seconds": {str(op): s for op, s in op_seconds.items()},
            "span_scales": {str(op): f for op, f in scales.items()},
            "ops": {str(op): dict(self.op_metrics(op)) for op in ops},
            "spans": [[n, a - self.t0, b - self.t0, p, op] for n, a, b, p, op in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


def known_metric(name: str) -> bool:
    """Whether a per-layer metric name is one `Tracer.summary` can produce."""
    if name in ("trace.overhead_frac", "cli.self.s"):
        return True
    head, _, _ = name.rpartition(".")
    return head in SPANNED or head in LAYERS
