"""Batch front-end: parse a scenario config, dispatch one solve, emit tables.

One scenario per file, INI-style sections.  Subcommands select the problem
kind; the config may repeat the kind under ``[scenario]`` for cross-checking.
Exit codes: 0 success, 1 validation failure, 2 solver failure; every error
message names the originating module and operation on stderr.

The config grammar is ``_GRAMMAR``: every section and key the CLI reads, with
its parser and its default (angles in radians).  A section or key it does not
list is rejected before anything runs.  A profile section also takes
``qcoefK`` for slab K, 2 <= K <= its slab count; a slab without its own
``qcoefK`` reuses slab 1's ``qcoef``.
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
from .tables import write_csv, write_summary

_REQUIRED = object()


def _words(parse):
    return lambda raw: tuple(parse(tok) for tok in raw.split())


def _qcoef(raw):
    """Fourier coefficients of q, one ``j re im`` line each, no index twice."""
    coeffs = {}
    for line in filter(str.strip, raw.splitlines()):
        parts = line.split()
        if len(parts) != 3:
            raise ValidationError(f"cli.run: qcoef line '{line}' is not 'j re im'")
        j = int(parts[0])
        if j in coeffs:
            raise ValidationError(f"cli.run: qcoef line '{line}' repeats index {j}")
        coeffs[j] = float(parts[1]) + 1j * float(parts[2])
    return coeffs


# q's axis (x1 only), the slab heights bottom to top, and slab 1's coefficients of q
_PROFILE = {"direction": (str, "x1"), "slabs": (_words(float), _REQUIRED),
            "qcoef": (_qcoef, _REQUIRED)}
# section -> key -> (parser of the stripped text, default or _REQUIRED)
_GRAMMAR = {
    "scenario": {"kind": (str, None), "seed": (int, 0)},
    "physics": {"k": (float, 1.0), "theta1": (float, np.pi / 2), "theta2": (float, 0.0)},
    "numerics": {"N": (int, 8), "M": (int, 64), "L": (int, 2), "cases": (int, 5),
                 "m_schedule": (_words(int), inverse.DEFAULT_SCHEDULE)},
    "profile": _PROFILE,
    "profile2": _PROFILE,
    # projected orthogonal to the incidence direction d
    "incidence": {"pol_seed": (_words(complex), (0, 1, 0))},
    "green": {"x": (_words(float), _REQUIRED), "y": (_words(float), _REQUIRED),
              "h": (float, 1e-3)},
    # one artifact file name per key
    "output": {key: (str, f"{key}.csv") for key in (
        "modes", "green", "rayleigh", "efficiencies", "dtn", "eigenvalues", "moments",
        "coefficients", "gap")} | {"summary": (str, "summary.txt")},
}


class Scenario:
    """Resolved scenario; each [physics] and [numerics] key is an attribute."""

    def __init__(self, kind: str, config: configparser.ConfigParser,
                 output_dir: str, seed: int | None):
        self.kind = kind
        self.cfg = config
        self.output_dir = output_dir
        for section in config.sections():
            if section not in _GRAMMAR:
                raise ValidationError(f"cli.run: unknown section [{section}]")
            known = {config.optionxform(key) for key in _GRAMMAR[section]}
            if _GRAMMAR[section] is _PROFILE:
                known |= {f"qcoef{K}" for K in range(2, len(self.value(section, "slabs")) + 1)}
            unknown = [key for key in config.options(section) if key not in known]
            if unknown:
                raise ValidationError(f"cli.run: unknown key '{unknown[0]}' in [{section}]")
        cfg_kind = self.value("scenario", "kind")
        if cfg_kind is not None and cfg_kind != kind:
            raise ValidationError(
                f"cli.run: config kind '{cfg_kind}' does not match subcommand '{kind}'")
        self.seed = seed if seed is not None else self.value("scenario", "seed")
        for section in ("physics", "numerics"):
            for key in _GRAMMAR[section]:
                setattr(self, key, self.value(section, key))
        if self.k <= 0 or self.N < 0 or self.M <= 0 or self.L < 0 or self.cases <= 0:
            raise ValidationError("cli.run: numerical parameters must be positive")
        self.alpha = Quasimomentum.from_angles(self.k, self.theta1, self.theta2)
        self.profile = self._profile("profile")
        self.profile2 = self._profile("profile2")

    def value(self, section, key):
        """The key's parsed value, or its ``_GRAMMAR`` default when absent."""
        parse, default = _GRAMMAR[section][key]
        if self.cfg.has_option(section, key):
            return parse(self.cfg.get(section, key).strip())
        if default is _REQUIRED:
            raise ValidationError(f"cli.run: [{section}] needs key '{key}'")
        return default

    def _profile(self, section):
        if not self.cfg.has_section(section):
            return None
        if self.value(section, "direction") != "x1":
            raise ValidationError(
                f"cli.run: [{section}] direction must be x1: q varies along x1, and a layer "
                "that varies along x2 is the x1 layer at theta2 -> pi/2 - theta2")
        first = self.value(section, "qcoef")
        slabs = []
        for i, height in enumerate(self.value(section, "slabs"), 1):
            own = i > 1 and self.cfg.has_option(section, f"qcoef{i}")
            slabs.append(forward.Slab(height, _qcoef(self.cfg.get(section, f"qcoef{i}"))
                                      if own else first))
        profile = forward.MediumProfile(slabs)
        profile.validate()
        return profile

    def incidence(self) -> PlaneWaveIncidence:
        return PlaneWaveIncidence.from_angles(self.k, self.theta1, self.theta2,
                                              self.value("incidence", "pol_seed"))

    def out_path(self, key: str) -> str:
        os.makedirs(self.output_dir, exist_ok=True)   # a run that writes nothing makes nothing
        return os.path.join(self.output_dir, self.value("output", key))

    def echo(self, stream=None) -> None:
        stream = stream if stream is not None else sys.stdout
        print(f"kind = {self.kind}", file=stream)
        print(f"seed = {self.seed}", file=stream)
        for key in _GRAMMAR["physics"]:
            print(f"{key} = {getattr(self, key)}", file=stream)
        # derived: the layer height b is the slab total
        print(f"b = {self.profile.b if self.profile is not None else None}", file=stream)
        print(f"alpha = ({self.alpha.alpha1!r}, {self.alpha.alpha2!r})", file=stream)
        for key in _GRAMMAR["numerics"]:
            value = getattr(self, key)   # m_schedule, a tuple, space-joined
            value = " ".join(str(v) for v in value) if isinstance(value, tuple) else value
            print(f"{key} = {value}", file=stream)
        for tag, prof in (("profile", self.profile), ("profile2", self.profile2)):
            if prof is None:
                continue
            print(f"{tag}.slabs = {' '.join(repr(s.height) for s in prof.slabs)}", file=stream)
            for i, slab in enumerate(prof.slabs):
                coeffs = " ".join(f"{j}:{slab.coeffs[j]!r}" for j in sorted(slab.coeffs))
                print(f"{tag}.qcoef[{i}] = {coeffs}", file=stream)
        print(f"output_dir = {self.output_dir}", file=stream)


def _run_modes(sc: Scenario) -> None:
    ms = build_modeset(sc.k, sc.alpha, sc.N)
    write_csv(sc.out_path("modes"), "n1,n2,alpha1,alpha2,re_beta,im_beta,propagating",
              "%d,%d,%.17g,%.17g,%.17g,%.17g,%d",
              zip(ms.n1, ms.n2, ms.alpha_n[:, 0], ms.alpha_n[:, 1], ms.beta.real, ms.beta.imag,
                  ms.propagating))


def _run_green(sc: Scenario) -> None:
    x, y = (np.array(sc.value("green", key)) for key in ("x", "y"))
    h = sc.value("green", "h")
    ms = build_modeset(sc.k, sc.alpha, sc.N)
    g = green_eval(x, y, ms)
    shifted = green_eval(x + np.array([2 * np.pi, 0, 0]), y, ms)
    qp_defect = abs(shifted - np.exp(2j * np.pi * sc.alpha.alpha1) * g) / abs(g)
    res_h = helmholtz_residual(x, y, ms, h)
    res_2h = helmholtz_residual(x, y, ms, 2 * h)
    write_csv(sc.out_path("green"), "re_G,im_G,qp_defect,residual_h,residual_2h,decay_ratio",
              "%.17g" + ",%.17g" * 5, [(g.real, g.imag, qp_defect, res_h, res_2h, res_2h / res_h)])


def _run_forward(sc: Scenario) -> None:
    ms = build_modeset(sc.k, sc.alpha, sc.N)
    inc = sc.incidence()
    result = forward.solve_scattering(sc.profile, inc, ms)
    rayleigh_dtn.write_rayleigh_csv(result.scattered, sc.out_path("rayleigh"))
    eff = rayleigh_dtn.efficiencies(result.scattered, inc)
    write_csv(sc.out_path("efficiencies"), "n1,n2,efficiency", "%d,%d,%.17g",
              ((n1, n2, eff[(n1, n2)]) for (n1, n2) in sorted(eff)))
    write_summary(sc.out_path("summary"), [
        ("kind", "forward"),
        ("total_efficiency", sum(eff.values())),
        ("propagating_modes", len(eff)),
        ("max_divergence_residual", float(np.max(result.scattered.divergence_residuals()))),
        ("condition", result.condition),
    ])


def _run_dtn(sc: Scenario) -> None:
    ms = build_modeset(sc.k, sc.alpha, sc.N)
    blocks = forward.assemble_dtn(sc.profile, ms)
    m, mb, nb = ms.num_modes, ms.block_size, blocks.shape[0]
    # assemble_dtn's dense indices; C order of (c, b, i, c', i') is their row-major order
    vals = blocks.reshape(nb, 2, mb, 2, mb).transpose(1, 0, 2, 3, 4)
    c, b, i, c2, i2 = np.ogrid[:2, :nb, :mb, :2, :mb]
    rows, cols = np.broadcast_arrays(c * m + b * mb + i, c2 * m + b * mb + i2)
    keep = vals != 0      # the exact zeros inside a block stay out, as off the n2 diagonal
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    write_csv(sc.out_path("dtn"), "row,col,re,im", "%d,%d,%.17g,%.17g",
              zip(rows.tolist(), cols.tolist(), vals.real.tolist(), vals.imag.tolist()))
    write_summary(sc.out_path("summary"), [
        ("kind", "dtn"),
        ("profile_digest", sc.profile.digest()),
        ("modeset_digest", ms.digest()),
        ("matrix_norm", float(np.linalg.norm(blocks))),
        ("size", 2 * m),
    ])


def _run_sturm(sc: Scenario) -> None:
    coeffs = inverse.one_directional_coeffs(sc.profile, "profile")
    prob = sturm.SLProblem(coeffs, sc.k, sc.alpha.alpha1, sc.M)
    spec = sturm.solve_sl(prob)
    rep = sturm.check_asymptotics(spec)   # before any artifact, so a refused fit leaves none
    sturm.write_spectrum_csv(spec, sc.out_path("eigenvalues"))
    write_summary(sc.out_path("summary"), [
        ("kind", "sturm"),
        ("shift_convention", rep.shift_convention),
        ("shift_value", rep.shift_value),
        ("mean_term_fitted", rep.mean_term_fitted),
        ("mean_term_exact", rep.mean_term_exact),
        ("eigenvalue_decay_exponent", rep.eigenvalue_decay_exponent),
        ("eigenfunction_decay_exponent", rep.eigenfunction_decay_exponent),
        ("undecided_branches", len(spec.undecided)),
    ])


def _moment_table(sc: Scenario):
    a1 = sc.alpha.alpha1
    if abs(a1 - round(2 * a1) / 2) <= 1e-9:
        raise ValidationError(
            f"cli.run: alpha1 is {a1!r}, within 1e-9 of a multiple of 1/2; theta1 = pi/2, "
            "or any alpha1 in Z/2, makes the mirror branches coincide")
    return inverse.extract_moments(sc.profile, sc.profile2, sc.L, sc.m_schedule, k=sc.k,
                                   alpha=sc.alpha)


def _run_moments(sc: Scenario) -> None:
    table = _moment_table(sc)
    inverse.write_moment_csv(table, sc.out_path("moments"))
    rows = [("kind", "moments"), ("L", table.L),
            ("m_schedule", " ".join(str(m) for m in table.m_schedule))]
    for l in sorted(table.estimates):
        rows.append((f"estimate_{l}", table.estimates[l]))
        rows.append((f"fit_residual_{l}", table.fit_residuals[l]))
    write_summary(sc.out_path("summary"), rows)


def _run_reconstruct(sc: Scenario) -> None:
    table = _moment_table(sc)
    inverse.write_moment_csv(table, sc.out_path("moments"))
    rec = inverse.reconstruct_difference(table)
    inverse.write_reconstruction_csv(rec, sc.out_path("coefficients"))
    write_summary(sc.out_path("summary"), [("kind", "reconstruct"), ("L", table.L)]
                  + [(f"coeff_{j}", c) for j, c in sorted(rec.coeffs.items())])


def _run_gapcheck(sc: Scenario) -> None:
    ms = build_modeset(sc.k, sc.alpha, sc.N)
    rng = np.random.default_rng(sc.seed)

    def tf():
        c1 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
        c2 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
        return rayleigh_dtn.TangentialField.from_components(ms, c1, c2, sc.profile.b)
    outs = [inverse.reciprocity_gap(sc.profile, sc.profile2, tf(), tf(), ms)
            for _ in range(sc.cases)]
    write_csv(sc.out_path("gap"), "case,re_lhs,im_lhs,re_rhs,im_rhs,gap", "%d" + ",%.17g" * 5,
              ((case, out["lhs"].real, out["lhs"].imag, out["rhs"].real, out["rhs"].imag,
                out["gap"]) for case, out in enumerate(outs)))
    # rhs_scale / |rhs|: how far the boundary side's two inner products
    # cancel, inf where they cancel exactly
    ratios = [out["rhs_scale"] / abs(out["rhs"]) if out["rhs"] else np.inf for out in outs]
    write_summary(sc.out_path("summary"), [
        ("kind", "gapcheck"), ("cases", sc.cases), ("seed", sc.seed),
        ("max_gap", max(out["gap"] for out in outs)), ("max_rhs_scale_ratio", max(ratios))])


_RUNNERS = {
    "modes": (_run_modes, ()),
    "green": (_run_green, ()),
    "forward": (_run_forward, ("profile",)),
    "dtn": (_run_dtn, ("profile",)),
    "sturm": (_run_sturm, ("profile",)),
    "moments": (_run_moments, ("profile", "profile2")),
    "reconstruct": (_run_reconstruct, ("profile", "profile2")),
    "gapcheck": (_run_gapcheck, ("profile", "profile2")),
}
KINDS = tuple(_RUNNERS)


def run(kind: str, config_path: str, output_dir: str = ".",
        show_config: bool = False, seed: int | None = None) -> int:
    """Execute one scenario; returns the process exit code."""
    try:
        parser = configparser.ConfigParser()
        read = parser.read(config_path)
        if not read:
            raise ValidationError(f"cli.run: cannot read config file '{config_path}'")
        scenario = Scenario(kind, parser, output_dir, seed)
        if show_config:
            scenario.echo()
            return 0
        runner, sections = _RUNNERS[kind]
        if any(getattr(scenario, section) is None for section in sections):
            raise ValidationError(f"cli.run: {kind} scenario needs "
                                  + " and ".join(f"[{section}]" for section in sections))
        runner(scenario)
        return 0
    except ValidationError as exc:
        print(f"validation failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2
    except (configparser.Error, KeyError, ValueError, OSError) as exc:   # OSError: --output-dir
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
