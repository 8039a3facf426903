"""The four benchmark workloads: seeded input generators, ops and oracles.

Every workload is a closed loop with one client: the next op starts when the
previous one has returned. A workload object holds the inputs fixed for a run
(drawn from the run seed at set-up); ``draw`` makes one op's inputs from its
own generator; ``call`` is the timed work and goes through public functions of
the library only, looked up on their modules at call time so that the traced
run sees them; ``check`` compares the output with a physical oracle and raises
:class:`OracleFailure` when it does not hold.
"""

from __future__ import annotations

import csv
import math
import os
import shutil
import tempfile
from dataclasses import dataclass

import numpy as np

from gratescat import cli, forward, inverse, lattice, rayleigh_dtn
from gratescat.forward import MediumProfile, Slab
from gratescat.greens import PlaneWaveIncidence
from gratescat.lattice import Quasimomentum
from gratescat.rayleigh_dtn import TangentialField


class OracleFailure(Exception):
    """An op returned, but its output broke the workload's oracle."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    """Independent generator per (seed, stream, index); streams keep set-up,
    measured ops and warm-up ops from sharing draws."""
    return np.random.default_rng([seed, stream, index])


SETUP, OPS, WARMUP = 0, 1, 2


def hermitian_slab_coeffs(rng, mean_re, mean_im, ripple1, ripple2) -> dict:
    """Degree-2 trigonometric polynomial with a real ripple (c_-j = conj c_j).

    Im q is then the constant ``mean_im`` everywhere, so a nonnegative value
    keeps the profile admissible whatever the ripple draw.
    """
    c1 = ripple1 * (rng.random() + 1j * rng.random())
    c2 = ripple2 * (rng.random() + 1j * rng.random())
    return {0: complex(mean_re, mean_im), 1: c1, -1: np.conj(c1), 2: c2, -2: np.conj(c2)}


def _gap_profile_pair(rng, b):
    """Two 2-slab absorbing profiles of total height b, split at different heights."""
    def one():
        h = b * rng.uniform(0.4, 0.6)
        return [(h, hermitian_slab_coeffs(rng, 1.4 + 0.25 * rng.random(),
                                          0.08 + 0.06 * rng.random(), 0.08, 0.05)),
                (b - h, hermitian_slab_coeffs(rng, 1.4 + 0.25 * rng.random(),
                                              0.08 + 0.06 * rng.random(), 0.08, 0.05))]
    return one(), one()


def _profile(slabs) -> MediumProfile:
    return MediumProfile([Slab(h, c) for h, c in slabs])


class _Workload:
    """Defaults for a workload with no fixed inputs and nothing to release."""

    def __init__(self, seed: int, rep: int, workdir: str):
        pass

    def close(self):
        pass


# -- forward-sweep ---------------------------------------------------------

@dataclass
class ForwardInput:
    slabs: list          # [(height, coeffs)] bottom to top
    theta1: float
    theta2: float
    pol_seed: tuple
    lossless: bool


class ForwardSweep(_Workload):
    """Fresh 3-slab stack and incidence per op; scattering solve at N=12."""

    name = "forward-sweep"
    K = 1.25
    N = 12
    SLABS = 3
    LOSSLESS_EVERY = 4
    ENERGY_TOL = 1e-8

    def draw(self, rng, index: int) -> ForwardInput:
        lossless = index % self.LOSSLESS_EVERY == self.LOSSLESS_EVERY - 1
        slabs = [(0.2 + 0.2 * rng.random(),
                  hermitian_slab_coeffs(rng, 1.3 + 0.4 * rng.random(),
                                        0.0 if lossless else 0.05 + 0.15 * rng.random(),
                                        0.1, 0.06))
                 for _ in range(self.SLABS)]
        return ForwardInput(slabs, rng.uniform(0.5, 1.3), rng.uniform(0.0, 2.0 * math.pi),
                            tuple(rng.normal(size=3)), lossless)

    def call(self, x: ForwardInput):
        ms = lattice.build_modeset(self.K, Quasimomentum.from_angles(self.K, x.theta1, x.theta2),
                                   self.N)
        inc = PlaneWaveIncidence.from_angles(self.K, x.theta1, x.theta2, x.pol_seed)
        result = forward.solve_scattering(_profile(x.slabs), inc, ms)
        return result, rayleigh_dtn.efficiencies(result.scattered, inc)

    def check(self, x: ForwardInput, out) -> dict:
        result, eff = out
        result.scattered.validate_divergence()
        total = sum(eff.values())
        if x.lossless and not abs(total - 1.0) <= self.ENERGY_TOL:
            raise OracleFailure("energy_balance",
                                f"lossless stack: |sum eff - 1| = {abs(total - 1.0):.3e}")
        if not x.lossless and not total < 1.0:
            raise OracleFailure("dissipation", f"absorbing stack: sum eff = {total!r}")
        return {}


# -- gapcheck --------------------------------------------------------------

class GapCheck(_Workload):
    """Reciprocity gap on one fixed profile pair per run, fresh boundary data per op."""

    name = "gapcheck"
    K = 1.2
    ALPHA = (0.23, 0.11)
    N = 8
    B = 0.7
    GAP_TOL = 1e-6

    def __init__(self, seed: int, rep: int, workdir: str):
        self.modeset = lattice.build_modeset(self.K, Quasimomentum(*self.ALPHA), self.N)
        s1, s2 = _gap_profile_pair(rng_for(seed, SETUP, rep), self.B)
        self.profiles = (_profile(s1), _profile(s2))
        for p in self.profiles:
            p.validate(require_absorbing=True)

    def draw(self, rng, index: int) -> np.ndarray:
        m = self.modeset.num_modes
        return rng.normal(size=(4, m)) + 1j * rng.normal(size=(4, m))

    def call(self, data: np.ndarray) -> dict:
        ms = self.modeset
        f = TangentialField.from_components(ms, data[0], data[1], self.B)
        g = TangentialField.from_components(ms, data[2], data[3], self.B)
        return inverse.reciprocity_gap(*self.profiles, f, g, ms)

    def check(self, data, out: dict) -> dict:
        if not out["gap"] <= self.GAP_TOL:
            raise OracleFailure("reciprocity_gap", f"gap {out['gap']!r} > {self.GAP_TOL:g}")
        return {}


# -- reconstruct -----------------------------------------------------------

class Reconstruct(_Workload):
    """Moment extraction and reconstruction of a seeded degree-4 difference."""

    name = "reconstruct"
    BASE = {0: 1.7 + 0.15j, 1: 0.3, -1: 0.3, 2: 0.15, -2: 0.15}
    K = 1.6
    ALPHA = (0.3, 0.14)
    L = 4
    SCHEDULE = (16, 24, 32, 48, 64)
    HEIGHT = 0.7
    ERR_TOL = 1e-3

    def draw(self, rng, index: int) -> dict:
        """q1 - q2 with a real mean and a real ripple, sized like criterion 10's."""
        diff = {0: complex(rng.uniform(0.05, 0.15))}
        for j in range(1, self.L + 1):
            c = (0.12 / j) * rng.uniform(0.5, 1.0) * np.exp(2j * math.pi * rng.random())
            diff[j], diff[-j] = c, np.conj(c)
        return diff

    def call(self, diff: dict):
        q1 = dict(self.BASE)
        for j, c in diff.items():
            q1[j] = q1.get(j, 0.0) + c
        table = inverse.extract_moments(
            MediumProfile.from_coeffs(q1, self.HEIGHT), MediumProfile.from_coeffs(self.BASE, self.HEIGHT),
            self.L, self.SCHEDULE, k=self.K, alpha=Quasimomentum(*self.ALPHA))
        return inverse.reconstruct_difference(table)

    def check(self, diff: dict, rec) -> dict:
        err = max(abs(rec.coeffs[j] - diff.get(j, 0.0)) for j in rec.coeffs)
        if not err <= self.ERR_TOL:
            raise OracleFailure("reconstruction", f"max coefficient error {err!r} > {self.ERR_TOL:g}")
        return {"recon_err": err}


# -- cli-scenarios ---------------------------------------------------------

def _qcoef(coeffs: dict) -> str:
    return "".join(f"\n    {j} {float(c.real)!r} {float(c.imag)!r}"
                   for j, c in sorted(coeffs.items()))


def _profile_section(name: str, slabs) -> str:
    lines = [f"[{name}]", "direction = x1",
             "slabs = " + " ".join(repr(float(h)) for h, _ in slabs)]
    for i, (_, c) in enumerate(slabs):
        lines.append(("qcoef" if i == 0 else f"qcoef{i + 1}") + " =" + _qcoef(c))
    return "\n".join(lines) + "\n"


class CliScenarios(_Workload):
    """One in-process batch of forward, dtn, gapcheck and reconstruct CLI runs."""

    name = "cli-scenarios"
    KINDS = ("forward", "dtn", "gapcheck", "reconstruct")
    N = 8
    L = 2
    SCHEDULE = (16, 24, 32, 48, 64)
    GAP_TOL = 1e-6

    def __init__(self, seed: int, rep: int, workdir: str):
        rng = rng_for(seed, SETUP, rep)
        self.dir = tempfile.mkdtemp(prefix=f"cli-{rep}-", dir=workdir)
        b = 0.7
        layered = [(0.35, hermitian_slab_coeffs(rng, 1.5, 0.1, 0.1, 0.05)),
                   (0.35, hermitian_slab_coeffs(rng, 1.4, 0.12, 0.08, 0.04))]
        p1, p2 = _gap_profile_pair(rng, b)
        base = Reconstruct.BASE
        q1 = dict(base)
        diff = hermitian_slab_coeffs(rng, 0.1, 0.0, 0.08, 0.05)
        for j, c in diff.items():
            q1[j] = q1.get(j, 0.0) + c
        theta1, theta2 = rng.uniform(0.6, 1.2), rng.uniform(0.0, 2.0 * math.pi)
        physics = {"forward": (1.25, layered, None), "dtn": (1.25, layered, None),
                   "gapcheck": (1.2, p1, p2), "reconstruct": (1.6, [(b, q1)], [(b, base)])}
        self.configs = {}
        for kind, (k, prof, prof2) in physics.items():
            text = (f"[scenario]\nkind = {kind}\n\n"
                    f"[physics]\nk = {k!r}\ntheta1 = {float(theta1)!r}\ntheta2 = {float(theta2)!r}\n\n"
                    f"[numerics]\nN = {self.N}\nL = {self.L}\ncases = 1\n"
                    f"m_schedule = {' '.join(str(m) for m in self.SCHEDULE)}\n\n"
                    + _profile_section("profile", prof)
                    + (_profile_section("profile2", prof2) if prof2 else ""))
            path = os.path.join(self.dir, f"{kind}.ini")
            with open(path, "w") as fh:
                fh.write(text)
            self.configs[kind] = path
        self.modeset = lattice.build_modeset(
            1.25, Quasimomentum.from_angles(1.25, theta1, theta2), self.N)

    def draw(self, rng, index: int) -> int:
        return int(rng.integers(2 ** 31))

    def call(self, gap_seed: int) -> dict:
        return {kind: cli.run(kind, self.configs[kind], self._out(kind), seed=gap_seed)
                for kind in self.KINDS}

    def _out(self, kind):
        return os.path.join(self.dir, kind)

    def _rows(self, kind, name, expected: int) -> list:
        path = os.path.join(self._out(kind), name)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        for row in rows:
            for value in row:
                float(value)
        if len(rows) != expected:
            raise OracleFailure(f"cli_{kind}_rows", f"{name}: {len(rows)} rows, expected {expected}")
        return rows

    def check(self, gap_seed, codes: dict) -> dict:
        for kind, code in codes.items():
            if code != 0:
                raise OracleFailure(f"cli_{kind}_exit", f"exit code {code}")
        ms = self.modeset
        blk = 2 * ms.block_size
        self._rows("forward", "rayleigh.csv", ms.num_modes)
        eff = self._rows("forward", "efficiencies.csv", int(np.count_nonzero(ms.propagating)))
        if not sum(float(r[2]) for r in eff) < 1.0:
            raise OracleFailure("cli_forward_dissipation", "absorbing stack: sum eff >= 1")
        self._rows("dtn", "dtn.csv", (2 * ms.N + 1) * blk * blk)
        gap = self._rows("gapcheck", "gap.csv", 1)
        if not float(gap[0][5]) <= self.GAP_TOL:
            raise OracleFailure("cli_gapcheck_gap", f"gap {gap[0][5]} > {self.GAP_TOL:g}")
        self._rows("reconstruct", "moments.csv", (2 * self.L + 1) * len(self.SCHEDULE))
        self._rows("reconstruct", "coefficients.csv", 2 * self.L + 1)
        size = sum(os.path.getsize(os.path.join(root, f))
                   for kind in self.KINDS for root, _, files in os.walk(self._out(kind))
                   for f in files)
        return {"artifact_bytes": size}

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (ForwardSweep, GapCheck, Reconstruct, CliScenarios)}
