"""The CI smoke check, ``.github/check_smoke.py``, on synthetic last lines of perfbench/run.py."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / ".github" / "check_smoke.py"
_spec = importlib.util.spec_from_file_location("check_smoke", SCRIPT)
check_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_smoke)

# per workload: stack builds, field evaluations and Sturm-Liouville matrix
# order per op, as a passing traced run reads them
CLEAN = {
    "forward-sweep": (3.0, 0.0, 0),
    "gapcheck": (0.0, 6.0, 0),
    "reconstruct": (0.0, 0.0, 289),
    "cli-scenarios": (10.0, 6.0, 281),
}
BUILDS = "forward.solve_layer_modes.calls"
FIELDS = "forward.LayerField.mode_coefficients.calls"
ERRORS = ("lattice", "forward", "rayleigh_dtn", "sturm", "separable", "inverse", "cli")


def _line(workload: str) -> dict:
    builds, fields, order = CLEAN[workload]
    metrics = {
        BUILDS: builds,
        FIELDS: fields,
        "sturm.matrix_order": order,
        "forward.solve_layer_modes.self_s": 0.004,
        **{f"{module}.errors": 0 for module in ERRORS},
    }
    return {"correct": True, "attempted": 40, "failed": 0,
            "metrics": {name: {"value": value, "unit": ""} for name, value in metrics.items()}}


def _with(workload: str, values: dict) -> dict:
    """The clean line of ``workload`` with the metrics in ``values`` replaced."""
    line = _line(workload)
    for name, value in values.items():
        line["metrics"][name]["value"] = value
    return line


@pytest.mark.parametrize("workload", sorted(CLEAN))
def test_a_clean_run_passes(workload):
    assert check_smoke.failures(workload, _line(workload)) == []


@pytest.mark.parametrize("workload", sorted(CLEAN))
def test_a_run_with_no_op_fails(workload):
    line = _line(workload)
    line.update(attempted=0, correct=False)
    assert check_smoke.failures(workload, line) == [f"{workload}: no op ran"]


@pytest.mark.parametrize("workload", sorted(CLEAN))
def test_failed_ops_fail(workload):
    line = _line(workload)
    line.update(correct=False, failed=3)
    assert check_smoke.failures(workload, line) == [f"{workload}: 3 of 40 ops failed their oracle"]


@pytest.mark.parametrize("builds", [0.03, 0.24, 1.0, 3.0])
def test_gapcheck_fails_unless_its_stacks_are_reused(builds):
    line = _with("gapcheck", {BUILDS: builds})
    assert check_smoke.failures("gapcheck", line) == [
        f"gapcheck: {builds:g} stack builds (solve_layer_modes calls) per op"]


@pytest.mark.parametrize("builds", [0.0, 2.0, 2.9, 4.0])
def test_forward_sweep_fails_unless_it_builds_three_stacks(builds):
    line = _with("forward-sweep", {BUILDS: builds})
    assert check_smoke.failures("forward-sweep", line) == [
        f"forward-sweep: {builds:g} stack builds (solve_layer_modes calls) per op"]


@pytest.mark.parametrize("fields", [5.0, 7.0, 288.0])
def test_gapcheck_fails_unless_six_field_evaluations(fields):
    line = _with("gapcheck", {FIELDS: fields})
    assert check_smoke.failures("gapcheck", line) == [
        f"gapcheck: {fields:g} field evaluations (mode_coefficients calls) per op, expected 6"]


@pytest.mark.parametrize("order", [0, 145, 290])
def test_reconstruct_fails_unless_matrix_order_289(order):
    line = _with("reconstruct", {"sturm.matrix_order": order})
    assert check_smoke.failures("reconstruct", line) == [
        f"reconstruct: Sturm-Liouville matrix order {order:g}, expected 289"]


@pytest.mark.parametrize("workload", sorted(CLEAN))
def test_a_nonzero_error_count_fails(workload):
    line = _with(workload, {"sturm.errors": 2})
    assert check_smoke.failures(workload, line) == [
        f"{workload}: nonzero error counts {{'sturm.errors': 2}}"]


def test_each_failed_condition_gives_its_own_message():
    line = _with("gapcheck", {BUILDS: 1.0, FIELDS: 7.0, "cli.errors": 1})
    line.update(correct=False, failed=1)
    assert len(check_smoke.failures("gapcheck", line)) == 4


@pytest.mark.parametrize("line, code", [(_line("reconstruct"), 0),
                                        (_with("reconstruct", {"sturm.matrix_order": 145}), 1)])
def test_script_exit_code(line, code):
    run = subprocess.run([sys.executable, str(SCRIPT), "reconstruct"], input=json.dumps(line),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == code
    assert run.stderr == ("" if code == 0 else
                          "reconstruct: Sturm-Liouville matrix order 145, expected 289\n")
