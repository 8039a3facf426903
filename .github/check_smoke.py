"""Check one benchmark smoke run from the last line that perfbench/run.py prints.

    python perfbench/run.py --workload W --seed 1 --seconds 3 --trace 1 | tail -n 1 \\
        | python .github/check_smoke.py W

run.py exits 0 even when ops fail their oracle or none ran, so this script
reads its last line, a JSON object whose "correct" is false when an op failed
and whose "attempted" is 0 when none ran, and exits nonzero with one message
per failed condition. The same line carries the traced per-op metrics:

- stack builds (solve_layer_modes calls): gapcheck's profiles hold their 3
  stacks from the untraced warm-up op on, so it must read exactly 0, and
  forward-sweep builds one fresh 3-slab stack per op, so it reads 3;
- gapcheck field evaluations (LayerField.mode_coefficients calls): exactly 6,
  one batched call per field and x3 segment at all of the segment's Gauss
  nodes;
- reconstruct's Sturm-Liouville matrix order (sturm.matrix_order, 2M+1)
  must read 289, the order that the schedule's truncation M = 144 fixes, so a
  faster eigensolve cannot come from a smaller truncation;
- every "*.errors" metric must read 0, so an error that is raised and then
  recovered from inside an op does not pass quietly.
"""

import json
import sys


def failures(workload: str, result: dict) -> list:
    """One message per condition the run fails; empty when it passes."""
    if result["attempted"] == 0:
        return [f"{workload}: no op ran"]
    out = []
    if not result["correct"]:
        out.append("%s: %d of %d ops failed their oracle"
                   % (workload, result["failed"], result["attempted"]))
    metrics = result["metrics"]
    builds = metrics["forward.solve_layer_modes.calls"]["value"]
    if not {"gapcheck": builds == 0, "forward-sweep": builds == 3}.get(workload, True):
        out.append("%s: %g stack builds (solve_layer_modes calls) per op" % (workload, builds))
    fields = metrics["forward.LayerField.mode_coefficients.calls"]["value"]
    if workload == "gapcheck" and fields != 6:
        out.append("%s: %g field evaluations (mode_coefficients calls) per op, expected 6"
                   % (workload, fields))
    if workload == "reconstruct" and metrics["sturm.matrix_order"]["value"] != 289:
        out.append("%s: Sturm-Liouville matrix order %g, expected 289"
                   % (workload, metrics["sturm.matrix_order"]["value"]))
    bad = {k: m["value"] for k, m in metrics.items() if k.endswith(".errors") and m["value"] != 0}
    if bad:
        out.append("%s: nonzero error counts %s" % (workload, bad))
    return out


if __name__ == "__main__":
    messages = failures(sys.argv[1], json.loads(sys.stdin.read()))
    sys.exit("\n".join(messages) or None)
