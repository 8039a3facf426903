"""Batch front-end: parse a scenario config, dispatch one solve, emit tables.

One scenario per file, INI-style sections.  Subcommands select the problem
kind; the config may repeat the kind under ``[scenario]`` for cross-checking.
Exit codes: 0 success, 1 validation failure, 2 solver failure; every error
message names the originating module and operation on stderr.

Config grammar (sections and keys; angles in radians):

    [scenario]  kind, seed
    [physics]   k, theta1, theta2, b
    [numerics]  N, M (sturm only), L, wood_tol, m_schedule, cases, a2_floor
    [profile]   direction, slabs, qcoef (lines of "j re im"; qcoef2... per slab,
                a slab without its own qcoefK reuses slab 1's qcoef)
    [profile2]  second profile for moments / reconstruct / gapcheck
    [incidence] pol_seed ("x y z") or p1/p2/p3 (complex literals)
    [green]     x, y ("x1 x2 x3"), h
    [output]    one filename per artifact (modes, green, rayleigh,
                efficiencies, dtn, eigenvalues, moments, coefficients, gap,
                summary); defaults derive from the kind
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys

import numpy as np

from . import forward, inverse, rayleigh_dtn, sturm
from .errors import SolverError, ValidationError
from .greens import PlaneWaveIncidence, green_eval, helmholtz_residual
from .lattice import Quasimomentum, build_modeset

KINDS = ("modes", "green", "forward", "dtn", "sturm", "moments", "reconstruct", "gapcheck")


class Scenario:
    """Resolved scenario: kind, physics, numerics, profiles, outputs."""

    def __init__(self, kind: str, config: configparser.ConfigParser,
                 output_dir: str, seed: int | None):
        self.kind = kind
        self.cfg = config
        self.output_dir = output_dir
        cfg_kind = self._get("scenario", "kind", None)
        if cfg_kind is not None and cfg_kind != kind:
            raise ValidationError(
                f"cli.run: config kind '{cfg_kind}' does not match subcommand '{kind}'")
        self.seed = seed if seed is not None else int(self._get("scenario", "seed", "0"))
        self.k = float(self._get("physics", "k", "1.0"))
        self.theta1 = float(self._get("physics", "theta1", "1.5707963267948966"))
        self.theta2 = float(self._get("physics", "theta2", "0.0"))
        self.b = self._maybe_float("physics", "b")
        self.N = int(self._get("numerics", "N", "8"))
        self.M = int(self._get("numerics", "M", "64"))
        self.L = int(self._get("numerics", "L", "2"))
        self.cases = int(self._get("numerics", "cases", "5"))
        self.a2_floor = float(self._get("numerics", "a2_floor", str(inverse.DEFAULT_A2_FLOOR)))
        wt = self._get("numerics", "wood_tol", "")
        self.wood_tol = float(wt) if wt else None
        sched = self._get("numerics", "m_schedule", "16 24 32 48 64")
        self.m_schedule = tuple(int(tok) for tok in sched.split())
        if self.k <= 0 or self.N < 0 or self.M <= 0 or self.L < 0 or self.cases <= 0:
            raise ValidationError("cli.run: numerical parameters must be positive")
        self.alpha = Quasimomentum.from_angles(self.k, self.theta1, self.theta2)
        self.profile = self._profile("profile")
        self.profile2 = self._profile("profile2")
        if self.profile is not None:
            if self.b is not None and abs(self.profile.b - self.b) > 1e-12:
                raise ValidationError(
                    f"cli.run: physics b = {self.b:g} does not equal the slab total "
                    f"{self.profile.b:g}")
            self.b = self.profile.b
        for prof in (self.profile, self.profile2):
            if prof is not None:
                prof.validate()

    def _get(self, section, key, default):
        if self.cfg.has_option(section, key):
            return self.cfg.get(section, key).strip()
        return default

    def _maybe_float(self, section, key):
        raw = self._get(section, key, "")
        return float(raw) if raw else None

    def _profile(self, section):
        if not self.cfg.has_section(section):
            return None
        return forward.profile_from_mapping(dict(self.cfg.items(section)))

    def incidence(self) -> PlaneWaveIncidence:
        if self.cfg.has_section("incidence") and self.cfg.has_option("incidence", "p1"):
            p = np.array([complex(self._get("incidence", f"p{i}", "0")) for i in (1, 2, 3)])
            d = np.array([np.cos(self.theta1) * np.cos(self.theta2),
                          np.cos(self.theta1) * np.sin(self.theta2),
                          -np.sin(self.theta1)])
            return PlaneWaveIncidence(p, d, self.k)
        seed = self._get("incidence", "pol_seed", "0 1 0")
        return PlaneWaveIncidence.from_angles(self.k, self.theta1, self.theta2,
                                              tuple(float(t) for t in seed.split()))

    def out_path(self, key: str, default: str) -> str:
        name = self._get("output", key, default)
        return os.path.join(self.output_dir, name)

    def echo(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        print(f"kind = {self.kind}", file=stream)
        print(f"seed = {self.seed}", file=stream)
        for name in ("k", "theta1", "theta2", "b"):
            print(f"{name} = {getattr(self, name)}", file=stream)
        print(f"alpha = ({self.alpha.alpha1!r}, {self.alpha.alpha2!r})", file=stream)
        for name in ("N", "M", "L", "cases", "wood_tol", "a2_floor"):
            print(f"{name} = {getattr(self, name)}", file=stream)
        print(f"m_schedule = {' '.join(str(m) for m in self.m_schedule)}", file=stream)
        for tag, prof in (("profile", self.profile), ("profile2", self.profile2)):
            if prof is None:
                continue
            print(f"{tag}.direction = {prof.direction}", file=stream)
            print(f"{tag}.slabs = {' '.join(repr(s.height) for s in prof.slabs)}", file=stream)
            for i, slab in enumerate(prof.slabs):
                coeffs = " ".join(f"{j}:{slab.coeffs[j]!r}" for j in sorted(slab.coeffs))
                print(f"{tag}.qcoef[{i}] = {coeffs}", file=stream)
        print(f"output_dir = {self.output_dir}", file=stream)


def _write_summary(path, pairs) -> None:
    with open(path, "w", newline="") as fh:
        for key, val in pairs:
            if isinstance(val, complex):
                fh.write(f"{key} = {val.real:.17g}{val.imag:+.17g}j\n")
            elif isinstance(val, float):
                fh.write(f"{key} = {val:.17g}\n")
            else:
                fh.write(f"{key} = {val}\n")


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _run_modes(sc: Scenario) -> None:
    ms = build_modeset(sc.k, sc.alpha, sc.N, sc.wood_tol)
    with open(sc.out_path("modes", "modes.csv"), "w", newline="") as fh:
        fh.write("n1,n2,alpha1,alpha2,re_beta,im_beta,propagating\n")
        for j in range(ms.num_modes):
            fh.write(f"{ms.n1[j]},{ms.n2[j]},{ms.alpha_n[j, 0]:.17g},{ms.alpha_n[j, 1]:.17g},"
                     f"{ms.beta[j].real:.17g},{ms.beta[j].imag:.17g},"
                     f"{1 if ms.propagating[j] else 0}\n")


def _run_green(sc: Scenario) -> None:
    _require(sc.cfg.has_section("green"), "cli.run: green scenario needs a [green] section")
    x = np.array([float(t) for t in sc.cfg.get("green", "x").split()])
    y = np.array([float(t) for t in sc.cfg.get("green", "y").split()])
    h = float(sc.cfg.get("green", "h", fallback="1e-3"))
    ms = build_modeset(sc.k, sc.alpha, sc.N, sc.wood_tol)
    g = green_eval(x, y, ms)
    shifted = green_eval(x + np.array([2 * np.pi, 0, 0]), y, ms)
    qp_defect = abs(shifted - np.exp(2j * np.pi * sc.alpha.alpha1) * g) / abs(g)
    res_h = helmholtz_residual(x, y, ms, h)
    res_2h = helmholtz_residual(x, y, ms, 2 * h)
    with open(sc.out_path("green", "green.csv"), "w", newline="") as fh:
        fh.write("re_G,im_G,qp_defect,residual_h,residual_2h,decay_ratio\n")
        fh.write(f"{g.real:.17g},{g.imag:.17g},{qp_defect:.17g},"
                 f"{res_h:.17g},{res_2h:.17g},{res_2h / res_h:.17g}\n")


def _run_forward(sc: Scenario) -> None:
    _require(sc.profile is not None, "cli.run: forward scenario needs a [profile] section")
    ms = build_modeset(sc.k, sc.alpha, sc.N, sc.wood_tol)
    inc = sc.incidence()
    result = forward.solve_scattering(sc.profile, inc, ms)
    rayleigh_dtn.write_rayleigh_csv(result.scattered, sc.out_path("rayleigh", "rayleigh.csv"))
    eff = rayleigh_dtn.efficiencies(result.scattered, inc)
    with open(sc.out_path("efficiencies", "efficiencies.csv"), "w", newline="") as fh:
        fh.write("n1,n2,efficiency\n")
        for (n1, n2) in sorted(eff):
            fh.write(f"{n1},{n2},{eff[(n1, n2)]:.17g}\n")
    _write_summary(sc.out_path("summary", "summary.txt"), [
        ("kind", "forward"),
        ("total_efficiency", sum(eff.values())),
        ("propagating_modes", len(eff)),
        ("max_divergence_residual", float(np.max(result.scattered.divergence_residuals()))),
        ("condition", result.condition),
    ])


def _run_dtn(sc: Scenario) -> None:
    _require(sc.profile is not None, "cli.run: dtn scenario needs a [profile] section")
    ms = build_modeset(sc.k, sc.alpha, sc.N, sc.wood_tol)
    dtn = forward.assemble_dtn(sc.profile, ms)
    rows, cols = np.nonzero(dtn.matrix)
    vals = dtn.matrix[rows, cols]
    with open(sc.out_path("dtn", "dtn.csv"), "w", newline="") as fh:
        fh.write("row,col,re,im\n")
        fh.writelines(f"{i},{j},{re:.17g},{im:.17g}\n" for i, j, re, im in zip(
            rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist()))
    _write_summary(sc.out_path("summary", "summary.txt"), [
        ("kind", "dtn"),
        ("profile_digest", dtn.profile_digest),
        ("modeset_digest", dtn.modeset_digest),
        ("matrix_norm", float(np.linalg.norm(dtn.matrix))),
        ("size", dtn.matrix.shape[0]),
    ])


def _run_sturm(sc: Scenario) -> None:
    _require(sc.profile is not None, "cli.run: scenario needs a [profile] section")
    coeffs, along, _ = inverse.one_directional_coeffs(sc.profile, sc.alpha, "profile")
    prob = sturm.SLProblem(coeffs, sc.k, along, sc.M)
    spec = sturm.solve_sl(prob)
    sturm.write_spectrum_csv(spec, sc.out_path("eigenvalues", "eigenvalues.csv"))
    rep = sturm.check_asymptotics(spec, prob)
    _write_summary(sc.out_path("summary", "summary.txt"), [
        ("kind", "sturm"),
        ("shift_convention", rep.shift_convention),
        ("shift_value", rep.shift_value),
        ("mean_term_fitted", rep.mean_term_fitted),
        ("mean_term_exact", rep.mean_term_exact),
        ("eigenvalue_decay_exponent", rep.eigenvalue_decay_exponent),
        ("eigenfunction_decay_exponent", rep.eigenfunction_decay_exponent),
    ])


def _moment_table(sc: Scenario):
    _require(sc.profile is not None and sc.profile2 is not None,
             "cli.run: moments scenario needs [profile] and [profile2]")
    return inverse.extract_moments(sc.profile, sc.profile2, sc.L, sc.m_schedule, k=sc.k,
                                   alpha=sc.alpha, a2_floor=sc.a2_floor)


def _run_moments(sc: Scenario) -> None:
    table = _moment_table(sc)
    inverse.write_moment_csv(table, sc.out_path("moments", "moments.csv"))
    rows = [("kind", "moments"), ("L", table.L),
            ("m_schedule", " ".join(str(m) for m in table.m_schedule))]
    for l in sorted(table.estimates):
        rows.append((f"estimate_{l}", table.estimates[l]))
        rows.append((f"fit_residual_{l}", table.fit_residuals[l]))
    _write_summary(sc.out_path("summary", "summary.txt"), rows)


def _run_reconstruct(sc: Scenario) -> None:
    table = _moment_table(sc)
    inverse.write_moment_csv(table, sc.out_path("moments", "moments.csv"))
    rec = inverse.reconstruct_difference(table)
    inverse.write_reconstruction_csv(rec, sc.out_path("coefficients", "coefficients.csv"))
    rows = [("kind", "reconstruct"), ("L", table.L)]
    for j in sorted(rec.coeffs):
        rows.append((f"coeff_{j}", rec.coeffs[j]))
    _write_summary(sc.out_path("summary", "summary.txt"), rows)


def _run_gapcheck(sc: Scenario) -> None:
    _require(sc.profile is not None and sc.profile2 is not None,
             "cli.run: gapcheck scenario needs [profile] and [profile2]")
    ms = build_modeset(sc.k, sc.alpha, sc.N, sc.wood_tol)
    rng = np.random.default_rng(sc.seed)
    rows = []
    worst = 0.0
    for case in range(sc.cases):
        def tf():
            c1 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
            c2 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
            return rayleigh_dtn.TangentialField.from_components(ms, c1, c2, sc.profile.b)
        out = inverse.reciprocity_gap(sc.profile, sc.profile2, tf(), tf(), ms)
        rows.append((case, out))
        worst = max(worst, out["gap"])
    with open(sc.out_path("gap", "gap.csv"), "w", newline="") as fh:
        fh.write("case,re_lhs,im_lhs,re_rhs,im_rhs,gap\n")
        for case, out in rows:
            fh.write(f"{case},{out['lhs'].real:.17g},{out['lhs'].imag:.17g},"
                     f"{out['rhs'].real:.17g},{out['rhs'].imag:.17g},{out['gap']:.17g}\n")
    _write_summary(sc.out_path("summary", "summary.txt"), [
        ("kind", "gapcheck"), ("cases", sc.cases), ("seed", sc.seed), ("max_gap", worst)])


_RUNNERS = {
    "modes": _run_modes,
    "green": _run_green,
    "forward": _run_forward,
    "dtn": _run_dtn,
    "sturm": _run_sturm,
    "moments": _run_moments,
    "reconstruct": _run_reconstruct,
    "gapcheck": _run_gapcheck,
}


def run(kind: str, config_path: str, output_dir: str = ".",
        show_config: bool = False, seed: int | None = None) -> int:
    """Execute one scenario; returns the process exit code."""
    try:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ValidationError(f"cli.run: cannot read config file '{config_path}'")
        os.makedirs(output_dir, exist_ok=True)
        scenario = Scenario(kind, parser, output_dir, seed)
        if show_config:
            scenario.echo()
            return 0
        _RUNNERS[kind](scenario)
        return 0
    except ValidationError as exc:
        print(f"validation failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (configparser.Error, KeyError, ValueError) as exc:
        print(f"validation failure [{type(exc).__name__}]: cli.run: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gratescat",
        description="Quasi-periodic layer scattering scenarios (one config file per run)")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a '{kind}' scenario")
        p.add_argument("config", help="scenario config file (INI sections)")
        p.add_argument("--output-dir", default=".", help="directory for CSV artifacts")
        p.add_argument("--show-config", action="store_true",
                       help="echo the fully resolved scenario and exit")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed (randomized scenarios)")
    args = parser.parse_args(argv)
    return run(args.kind, args.config, args.output_dir, args.show_config, args.seed)


if __name__ == "__main__":
    sys.exit(main())
