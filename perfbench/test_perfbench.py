"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

import json
import math
import os
import pickle
import sys
import types
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))
os.environ.update(dict.fromkeys(run.BLAS_VARS, "1"))   # before numpy is imported

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_union_of_children():
    tree = [Span(0, "op", 0.0, 10.0, None, 0),
            Span(1, "a", 1.0, 4.0, 0, 0),
            Span(2, "a.inner", 2.0, 3.0, 1, 0),
            Span(3, "b", 5.0, 9.0, 0, 0),
            Span(4, "c", 8.0, 11.0, 0, 0)]   # overlaps b and ends past its parent
    own = self_times(tree)
    assert own[0] == pytest.approx(10.0 - 3.0 - 5.0)   # children cover [1,4] and [5,10]
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0)
    assert own[3] == pytest.approx(4.0)
    assert own[4] == pytest.approx(3.0)


def test_wrappers_nest_where_callers_look_names_up_and_are_removed():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2      # looks inner up on the module at call time
    inner, outer = mod.inner, mod.outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "lib.inner")
    tracer.wrap(mod, "outer", "lib.outer")
    with tracer.op(0):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == (inner, outer)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["lib.outer"].parent == by_name["op"].id
    assert by_name["lib.inner"].parent == by_name["lib.outer"].id
    out = tracer.metrics()
    assert out["lib.inner.self_s"][0] >= 0.0
    assert 0.0 <= out["trace.coverage"][0] <= 1.0


def test_error_is_counted_once_in_the_innermost_layer():
    mod = types.SimpleNamespace()

    def inner():
        raise ValueError("boom")
    mod.inner = inner
    mod.outer = lambda: mod.inner()
    tracer = Tracer()
    tracer.wrap(mod, "inner", "sturm.inner")
    tracer.wrap(mod, "outer", "inverse.outer")
    with pytest.raises(ValueError), tracer.op(0):
        mod.outer()
    assert tracer.errors == {"sturm": 1}


@pytest.mark.parametrize("n, value, pct, beyond", [
    (100, 90, 90.0, 10),       # the 90th of 100 has 10 above it
    (15, 5, 100 * 5 / 15, 10),
    (11, 1, 100 / 11, 10),
    (10, 10, 100.0, 0),        # no percentile has 10 above it: maximum, 0 beyond
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, value, pct, beyond):
    samples = list(range(n, 0, -1))   # order must not matter
    assert run.tail(samples) == (value, pytest.approx(pct), beyond)


def _count_metrics(metrics: dict) -> dict:
    keep = (".calls", ".errors")
    names = ("sturm.matrix_order", "cli.artifact_bytes", "separable.a2_retained_ratio")
    return {k: v for k, v in metrics.items()
            if k.endswith(keep) or k.startswith("forward.stack_") or k in names}


def _traced_run(cls, seed, tmp_path):
    wl = cls(seed, 0, str(tmp_path))
    try:
        tracer = spans.instrument(Tracer())
        m = run.measure(wl, seed, math.inf, run.HostSpeed(), tracer, max_ops=3)  # ops 0, 2 traced
    finally:
        wl.close()
    assert m.failed == 0, m.failures
    return run.per_layer_metrics(tracer, m)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs_and_counts(name, tmp_path):
    cls = workloads.WORKLOADS[name]

    def inputs(seed):
        wl = cls(seed, 0, str(tmp_path))
        try:
            fixed = {k: v for k, v in vars(wl).items() if k not in ("dir", "configs")}
            if name == "cli-scenarios":
                fixed["configs"] = {k: Path(p).read_text() for k, p in wl.configs.items()}
            ops = [wl.draw(workloads.rng_for(seed, workloads.OPS, i), i) for i in range(3)]
            return pickle.dumps((fixed, ops))
        finally:
            wl.close()

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)
    first = _traced_run(cls, 5, tmp_path)
    assert _count_metrics(first) == _count_metrics(_traced_run(cls, 5, tmp_path))
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: unit for k, (_, unit) in first.items()}
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_UNITS


def test_traced_counts_match_the_workload_shape(tmp_path):
    fwd = _traced_run(workloads.ForwardSweep, 3, tmp_path)
    gap = _traced_run(workloads.GapCheck, 3, tmp_path)
    assert fwd["forward.solve_layer_modes.calls"][0] == workloads.ForwardSweep.SLABS
    assert fwd["forward.stack_reuse_ratio"][0] == 0.0
    assert gap["forward.stack_distinct"][0] == 3
    assert gap["forward.stack_reuse_ratio"][0] > 0.0
