"""Benchmark of the gratescat solver suite, run from the root of a checkout.

    python3 perfbench/run.py --workload forward-sweep --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One process runs one workload: a closed loop with one client, timed for
``--seconds``. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
traces every other op and prints the per-layer metrics. ``--workload all``
runs each workload in its own child process, one after another. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record (environment, failure tallies,
tail percentile, spans) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
TAIL_BEYOND = 10
# Median time of HostSpeed.sample on the machine the bounds were set on: a
# shared 2-vCPU VM (Python 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread).
REFERENCE_S = 0.027
END_TO_END_UNITS = {"ops_per_s": "op/s", "latency_p50_s": "s", "latency_tail_s": "s",
                    "setup_s": "s", "peak_rss_mib": "MiB"}


def tail(latencies, beyond: int = TAIL_BEYOND):
    """Highest percentile with at least ``beyond`` samples above it.

    Returns (value, percentile, samples beyond). The k-th smallest of n
    samples is the 100 k / n percentile; k = n - beyond is the highest one
    with ``beyond`` samples above it. With ``beyond`` or fewer samples no
    percentile qualifies, and the maximum is returned with 0 beyond.
    """
    xs = sorted(latencies)
    n = len(xs)
    k = n - beyond if n > beyond else n
    return xs[k - 1], 100.0 * k / n, n - k


class HostSpeed:
    """Rescales wall-clock intervals to a nominal host speed.

    The speed of a shared VM drifts by up to ±20% over seconds to minutes,
    which moves whole runs more than any bound worth having. So a fixed
    reference kernel (numpy and scipy only; it never calls gratescat) is
    timed right before and right after each measured interval, and the
    interval is scaled by REFERENCE_S over the mean of the two. A change to
    the library moves the interval and not the kernel.
    """

    def __init__(self):
        import numpy as np
        import scipy.linalg
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(80, 80)) + 1j * rng.normal(size=(80, 80))
        self._phases = 1j * np.outer(rng.normal(size=200), rng.normal(size=800))
        self._eig, self._exp = scipy.linalg.eig, np.exp
        self.factors = []
        self._last = self.sample()

    def sample(self) -> float:
        """Wall time of the reference kernel: an eigensolve, a vector exp, a Python loop."""
        t = time.perf_counter()
        self._eig(self._matrix)
        self._exp(self._phases)
        acc = 0.0
        for v in range(100_000):
            acc += v * 0.5
        return time.perf_counter() - t

    def nominal(self, seconds: float) -> float:
        """Rescale an interval that has just ended."""
        before, self._last = self._last, self.sample()
        factor = REFERENCE_S / (0.5 * (before + self._last))
        self.factors.append(factor)
        return seconds * factor


@dataclass
class Measurement:
    attempted: int = 0
    latencies: list = field(default_factory=list)         # untraced ops that passed, nominal s
    traced_latencies: list = field(default_factory=list)  # traced ops that passed, nominal s
    wall_latencies: list = field(default_factory=list)    # untraced ops that passed, wall s
    failures: Counter = field(default_factory=Counter)    # error name -> count
    extras: list = field(default_factory=list)            # per-op oracle records

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def measure(wl, seed: int, seconds: float, speed: HostSpeed, tracer=None,
            max_ops: int | None = None) -> Measurement:
    """Closed loop, one client: run ops until ``seconds`` have passed.

    With a tracer, even-numbered ops are traced and odd ones are not, so the
    tracing overhead is measured on interleaved ops of the same run.
    """
    from workloads import OPS, OracleFailure, rng_for
    m = Measurement()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (max_ops is None or m.attempted < max_ops):
        i = m.attempted
        m.attempted += 1
        x = wl.draw(rng_for(seed, OPS, i), i)
        traced = tracer is not None and i % 2 == 0
        try:
            t = time.perf_counter()
            with tracer.op(i) if traced else contextlib.nullcontext():
                out = wl.call(x)
            wall = time.perf_counter() - t
            dt = speed.nominal(wall)
            m.extras.append(wl.check(x, out))
        except OracleFailure as exc:
            m.failures[f"oracle.{exc.check}"] += 1
            print(f"op {i} failed: {exc}", file=sys.stderr)
            continue
        except Exception as exc:  # a library error is a failed op, tallied by its name
            m.failures[type(exc).__name__] += 1
            print(f"op {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        if traced:
            m.traced_latencies.append(dt)
        else:
            m.latencies.append(dt)
            m.wall_latencies.append(wall)
    return m


def setup(cls, seed: int, speed: HostSpeed):
    """Build the workload SETUP_REPS times, each with its own warm-up op.

    Each repetition draws different fixed inputs, so a cache keyed on inputs
    cannot carry work from one repetition to the next; the last one is kept.
    Returns the workload and the per-repetition times, wall and nominal.
    """
    from workloads import WARMUP, rng_for
    wall, nominal = [], []
    for rep in range(SETUP_REPS):
        t = time.perf_counter()
        wl = cls(seed, rep, str(OUT))
        try:
            x = wl.draw(rng_for(seed, WARMUP, rep), rep)
            wl.check(x, wl.call(x))
        except BaseException:
            wl.close()
            raise
        wall.append(time.perf_counter() - t)
        nominal.append(speed.nominal(wall[-1]))
        if rep < SETUP_REPS - 1:
            wl.close()
    return wl, wall, nominal


def _blas_threads(modules) -> dict:
    """Thread count each bundled OpenBLAS reports at run time."""
    out = {}
    for mod in modules:
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[f"{mod.__name__}.libs/{lib.name}"] = fn()
                    break
    return out


def environment(seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads((numpy, scipy)),
        "blas_env": {v: os.environ.get(v) for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "src_loc": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def per_layer_metrics(tracer, m: Measurement) -> dict:
    """The tracer's per-layer metrics plus the two that the op loop measures."""
    metrics = tracer.metrics()
    artifact = [e["artifact_bytes"] for e in m.extras if "artifact_bytes" in e]
    metrics["cli.artifact_bytes"] = (_median(artifact), "B/op")
    untraced = _times(m.latencies)["ops_per_s"]
    metrics["trace.overhead"] = (
        _times(m.traced_latencies)["ops_per_s"] / untraced if untraced else 0.0, "ratio")
    return metrics


def _times(lat) -> dict:
    """Throughput and latency figures of one list of op latencies."""
    return {"ops_per_s": len(lat) / sum(lat) if lat else 0.0,
            "latency_p50_s": _median(lat),
            "latency_tail_s": tail(lat)[0] if lat else 0.0}


def end_to_end_metrics(m: Measurement, setup_s: float) -> dict:
    """End-to-end metrics of an untraced run, times at nominal host speed."""
    metrics = {**_times(m.latencies), "setup_s": setup_s,
               "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> int:
    from spans import Tracer, instrument
    from workloads import WORKLOADS
    OUT.mkdir(exist_ok=True)
    speed = HostSpeed()
    import_nominal = speed.nominal(import_s)
    wl, setup_wall, setup_nominal = setup(WORKLOADS[name], seed, speed)
    tracer = instrument(Tracer()) if trace else None
    try:
        m = measure(wl, seed, seconds, speed, tracer)
    finally:
        wl.close()
    lat = m.latencies
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": m.attempted, "failed": m.failed, "failures": dict(m.failures),
              "error_rate": m.failed / max(m.attempted, 1),
              "latency_tail": dict(zip(("value", "percentile", "beyond"),
                                       tail(lat) if lat else (0.0, 0.0, 0)), samples=len(lat)),
              "speed_factor_median": _median(speed.factors),
              "wall": {**_times(m.wall_latencies), "setup_s": import_s + _median(setup_wall)},
              "setup_rep_s": setup_wall, "import_s": import_s, "env": environment(seed)}
    recon = [e["recon_err"] for e in m.extras if "recon_err" in e]
    if recon:
        record["recon_err_max"] = max(recon)
    if trace:
        metrics = per_layer_metrics(tracer, m)
        tracer.dump(OUT / f"spans-{name}-seed{seed}.json")
    else:
        metrics = end_to_end_metrics(m, import_nominal + _median(setup_nominal))
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    _print_summary(record, metrics)
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
                      "metrics": record["metrics"]}))
    return 0


def _print_summary(rec: dict, metrics: dict) -> None:
    print(f"{rec['workload']} seed={rec['seed']} trace={rec['trace']}: {rec['attempted']} ops "
          f"attempted, {rec['failed']} failed, in {rec['seconds']:g} s")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<44} {value:.6g} {unit}"
        if name == "latency_tail_s":
            t = rec["latency_tail"]
            line += f"  (p{t['percentile']:.1f} of {t['samples']} samples, {t['beyond']} beyond)"
        print(line)
    if not rec["trace"]:
        wall = ", ".join(f"{k} {v:.6g}" for k, v in rec["wall"].items())
        print(f"  wall clock: {wall}; host speed factor median {rec['speed_factor_median']:.3f}")
        print(f"  {'error_rate':<44} {rec['error_rate']:.6g} ratio  "
              f"({rec['failed']} of {rec['attempted']}; {rec['failures'] or 'no failures'})")
        if "recon_err_max" in rec:
            print(f"  {'recon_err_max':<44} {rec['recon_err_max']:.6g} 1")
    print("  env: " + json.dumps(rec["env"], sort_keys=True))


def main(argv=None) -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if not (SRC / "gratescat" / "__init__.py").is_file():
        print(f"perfbench: no gratescat sources under {SRC}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS  # imports numpy, scipy and gratescat after the pin
    import_s = time.perf_counter() - START

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
    code = 0
    for name in WORKLOADS:
        sys.stdout.flush()
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                                str(args.seed), "--seconds", str(args.seconds),
                                "--trace", str(args.trace)])
        code = code or child.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
