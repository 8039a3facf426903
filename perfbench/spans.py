"""Span recorder for the traced benchmark run.

The recorder wraps public names of the library where their callers look them
up (module globals, or methods on the class), so that nested calls produce
nested spans. Nothing in the library itself is changed: wrappers are
installed for one traced op and removed again afterwards.

A span is (name, start, end, parent, op). A layer is the first dotted part of
a span name (``forward``, ``sturm``, ...). Self time is a span's duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


def self_times(spans) -> dict:
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, cursor), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _bound_argument(fn, name):
    sig = inspect.signature(fn)

    def get(args, kwargs):
        return sig.bind(*args, **kwargs).arguments[name]
    return get


ROOT = "op"
# Spans whose call count per op is reported beside their self time.
COUNTED = ("forward.solve_layer_modes", "forward.solve_qpbvp",
           "forward.LayerField.mode_coefficients", "sturm.SLSpectrum.eigenfunction_values")


class Tracer:
    """Keeps spans and counters in memory for one benchmark run."""

    def __init__(self):
        self.spans = []
        self.errors = {}            # layer -> exceptions first raised inside it
        self.stack_keys = []        # (profile digest, modeset digest) per stack build
        self.matrix_order = 0       # largest Sturm-Liouville matrix order seen
        self.a2_attempted = 0
        self.a2_retained = 0
        self._open = []
        self._op = -1
        self._wraps = []            # (owner, attribute, original, wrapper)
        self._names = []            # span name per wrapper, in registration order

    # -- spans -----------------------------------------------------------
    def _enter(self, name):
        span = Span(len(self.spans), name, time.perf_counter(), 0.0,
                    self._open[-1].id if self._open else None, self._op)
        self.spans.append(span)
        self._open.append(span)
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def op(self, index: int):
        """Root span of one traced op, with every wrapper installed."""
        self._op = index
        self._install()
        span = self._enter(ROOT)
        try:
            yield
        finally:
            self._exit(span)
            self._uninstall()

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, on_call=None, on_return=None):
        """Trace ``owner.attr`` as span ``name`` while an op is traced."""
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # Count an error once, in the innermost layer it left.
                if not getattr(exc, "_perfbench_counted", False):
                    self.errors[layer] = self.errors.get(layer, 0) + 1
                    exc._perfbench_counted = True
                raise
            finally:
                self._exit(span)
            if on_return is not None:
                on_return(result)
            return result
        self._wraps.append((owner, attr, fn, traced))
        self._names.append(name)

    def _install(self):
        for owner, attr, _, traced in self._wraps:
            setattr(owner, attr, traced)

    def _uninstall(self):
        for owner, attr, fn, _ in self._wraps:
            setattr(owner, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)

    def metrics(self) -> dict:
        """Per-layer metrics as name -> (value, unit); per op unless the unit says run."""
        own = self_times(self.spans)
        ops = [s for s in self.spans if s.name == ROOT]
        n = max(len(ops), 1)
        total = dict.fromkeys(self._names, 0.0)
        calls = dict.fromkeys(total, 0)
        for s in self.spans:
            if s.name != ROOT:
                total[s.name] += own[s.id]
                calls[s.name] += 1
        out = {}
        for name in total:
            out[f"{name}.self_s"] = (total[name] / n, "s/op")
            if name in COUNTED:
                out[f"{name}.calls"] = (calls[name] / n, "calls/op")
        builds = len(self.stack_keys)
        distinct = len(set(self.stack_keys))
        out["forward.stack_builds"] = (builds, "count/run")
        out["forward.stack_distinct"] = (distinct, "count/run")
        out["forward.stack_reuse_ratio"] = (1.0 - distinct / builds if builds else 0.0, "ratio")
        out["sturm.matrix_order"] = (self.matrix_order, "count")
        out["separable.a2_retained_ratio"] = (
            self.a2_retained / self.a2_attempted if self.a2_attempted else 0.0, "ratio")
        for layer in dict.fromkeys(name.split(".", 1)[0] for name in self._names):
            out[f"{layer}.errors"] = (self.errors.get(layer, 0), "count/run")
        op_time = sum(s.end - s.start for s in ops)
        attributed = op_time - sum(own[s.id] for s in ops)
        out["trace.coverage"] = (attributed / op_time if op_time > 0 else 0.0, "ratio")
        return out


def instrument(tracer: Tracer) -> Tracer:
    """Register the library's public layer boundaries on ``tracer``."""
    from gratescat import cli, forward, inverse, lattice, rayleigh_dtn, separable, sturm

    def stack_key(fn):
        profile = _bound_argument(fn, "profile")
        modeset = _bound_argument(fn, "modeset")

        def record(args, kwargs):
            tracer.stack_keys.append((profile(args, kwargs).digest(),
                                      modeset(args, kwargs).digest()))
        return record

    def sl_order(args, kwargs):
        problem = args[0] if args else kwargs["problem"]
        tracer.matrix_order = max(tracer.matrix_order, 2 * problem.M + 1)

    def a2_counts(table):
        tracer.a2_attempted += len(table.entries)
        tracer.a2_retained += sum(1 for e in table.entries if e.a2_ok)

    def cli_exit(code):
        if code != 0:
            tracer.errors["cli"] = tracer.errors.get("cli", 0) + 1

    w = tracer.wrap
    for owner in (lattice, cli):
        w(owner, "build_modeset", "lattice.build_modeset")
    w(forward, "solve_layer_modes", "forward.solve_layer_modes")
    w(forward, "solve_scattering", "forward.solve_scattering",
      on_call=stack_key(forward.solve_scattering))
    w(forward, "assemble_dtn", "forward.assemble_dtn", on_call=stack_key(forward.assemble_dtn))
    for owner in (forward, inverse):
        w(owner, "solve_qpbvp", "forward.solve_qpbvp", on_call=stack_key(forward.solve_qpbvp))
    w(forward.LayerField, "mode_coefficients", "forward.LayerField.mode_coefficients")
    w(rayleigh_dtn, "efficiencies", "rayleigh_dtn.efficiencies")
    w(rayleigh_dtn, "write_rayleigh_csv", "rayleigh_dtn.write_rayleigh_csv")
    for owner in (sturm, inverse):
        w(owner, "solve_sl", "sturm.solve_sl", on_call=sl_order)
    w(sturm.SLSpectrum, "eigenfunction_values", "sturm.SLSpectrum.eigenfunction_values")
    for owner in (separable, inverse):
        w(owner, "build_u", "separable.build_u")
        w(owner, "moment_kernels", "separable.moment_kernels")
    w(inverse, "reciprocity_gap", "inverse.reciprocity_gap")
    w(inverse, "extract_moments", "inverse.extract_moments", on_return=a2_counts)
    w(inverse, "reconstruct_difference", "inverse.reconstruct_difference")
    w(cli, "run", "cli.run", on_return=cli_exit)
    return tracer
