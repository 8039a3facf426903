"""Constructive uniqueness machinery for the layered medium.

Three pieces:

1. The reciprocity-gap identity.  For two admissible profiles and shared
   boundary data f, integration by parts over the layer gives

       k^2 int (q2 - q1) E1 . conj(E2) dx
            = int_{Gamma_b} (e3 x (T2 f - T1 f)) . conj(E2) ds,

   where E1 solves the layer problem for q1 with trace f, E2 solves for
   conj(q2) with trace g, and T_j are the boundary maps.  Equal boundary maps
   therefore force the volume orthogonality; the identity is checked
   quantitatively with independent volume and boundary quadratures.

2. Moment extraction.  Pairing eigen-solutions of the longitudinal problems
   for q1 and conj(q2) through the separable family, the longitudinal overlap
   A1^{m+l, m} converges to the Fourier moment of the difference,
   M_l = int (q1 - q2) e^{i l x1} dx1, at rate O(1/m); a Richardson fit
   a + b/m over an increasing branch schedule extrapolates the limit.  The
   transverse overlap A2 is kept away from zero by the growth preset
   c2 = exp(2 pi sqrt(mu)).

3. Reconstruction: the extrapolated moments are the Fourier coefficients of
   the difference, (q1 - q2)(x1) = (1/2pi) sum_l M_l e^{-i l x1}, with the
   sign convention pinned by the constant-difference calibration case.

q1, q2, conj(q2) and the difference are all :class:`TrigPoly` values; the
moment pipeline needs each profile to depend on x1 alone
(:func:`one_directional_coeffs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (A2Floor, InsufficientDegree, NotOneDirectional,
                     ValidationError)
from .forward import MediumProfile, solve_qpbvp
from .lattice import ModeSet, Quasimomentum, TrigPoly
from .rayleigh_dtn import CELL_AREA, TangentialField
from .separable import build_u, growth_c2, moment_kernels
from .sturm import SLProblem, solve_sl

DEFAULT_SCHEDULE = (16, 24, 32, 48, 64)
DEFAULT_A2_FLOOR = 1e-6
_N_GAUSS = 48  # Gauss-Legendre nodes in x3 per slab segment of the gap's volume side


def _gauss_nodes(a: float, b: float, n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def _padded_grid_values(coeffs, modeset: ModeSet, G: int) -> np.ndarray:
    """Synthesize periodic-part values of (m, 3) coefficients on a G x G grid."""
    spec = np.zeros((G, G, 3), dtype=complex)
    spec[modeset.n1 % G, modeset.n2 % G, :] = coeffs
    return np.fft.ifft2(spec, axes=(0, 1)) * (G * G)


def reciprocity_gap(profile1: MediumProfile, profile2: MediumProfile,
                    f: TangentialField, g: TangentialField, modeset: ModeSet) -> dict:
    """Evaluate both sides of the reciprocity-gap identity and their mismatch.

    Returns ``{'lhs', 'rhs', 'gap', 'floor'}`` with
    ``gap = |lhs - rhs| / max(|lhs|, |rhs|, floor)``.
    """
    if abs(profile1.b - profile2.b) > 1e-12:
        raise ValidationError("inverse.reciprocity_gap: profiles have different layer heights")
    sol1 = solve_qpbvp(profile1, f, modeset)
    sol2 = solve_qpbvp(profile2, f, modeset)
    sol3 = solve_qpbvp(profile2.conjugate(), g, modeset)
    ms = modeset
    k = ms.k

    # Volume side: Gauss-Legendre in x3 per slab segment, alias-free FFT grid
    # in the horizontal plane.
    bounds = np.unique(np.concatenate([profile1.slab_bounds(), profile2.slab_bounds()]))
    deg = max(s.coeffs.degree for s in profile1.slabs + profile2.slabs)
    G = 4 * ms.N + 2 * deg + 9
    x1 = 2.0 * np.pi * np.arange(G) / G
    lhs = 0.0 + 0.0j
    e1max = 0.0
    e2max = 0.0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        nodes, weights = _gauss_nodes(lo, hi, _N_GAUSS)
        for x3, w in zip(nodes, weights):
            dq = (profile2.q_at(x1, x3) - profile1.q_at(x1, x3))[:, None]
            c1, _ = sol1.field.mode_coefficients(x3)
            c2, _ = sol3.field.mode_coefficients(x3)
            v1 = _padded_grid_values(c1, ms, G)
            v2 = _padded_grid_values(c2, ms, G)
            dot = np.sum(v1 * np.conj(v2), axis=2)
            lhs += w * np.sum(dq[:, 0][:, None] * dot) * (2.0 * np.pi / G) ** 2
            e1max = max(e1max, float(np.max(np.abs(v1))))
            e2max = max(e2max, float(np.max(np.abs(v2))))
    lhs *= k * k

    # Boundary side: Fourier pairing of the rotated boundary-map difference
    # against the trace of E2 (known exactly from its datum g).
    dT = sol2.trace - sol1.trace
    e2_trace = np.zeros((ms.num_modes, 3), dtype=complex)
    e2_trace[:, 0] = g.coeffs[:, 1]
    e2_trace[:, 1] = -g.coeffs[:, 0]
    cross = dT.cross_e3()
    rhs = CELL_AREA * complex(np.sum(cross.coeffs * np.conj(e2_trace)))

    floor = max(1e-300, 1e-10 * k * k * profile1.b * CELL_AREA * e1max * e2max)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
    return {"lhs": lhs, "rhs": rhs, "gap": float(gap), "floor": floor}


@dataclass
class MomentEntry:
    l: int
    m: int
    A1: complex
    A2: complex
    a2_log10: float
    a2_ok: bool


@dataclass
class MomentTable:
    """Overlap data per (l, m) plus Richardson-extrapolated moment estimates."""

    L: int
    m_schedule: tuple
    a2_floor: float
    entries: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)      # l -> extrapolated moment
    fit_slopes: dict = field(default_factory=dict)     # l -> fitted b of a + b/m
    fit_residuals: dict = field(default_factory=dict)  # l -> rms residual of the fit

    def entry(self, l: int, m: int) -> MomentEntry:
        for e in self.entries:
            if e.l == l and e.m == m:
                return e
        raise ValidationError(f"inverse.MomentTable: no entry (l={l}, m={m})")


def one_directional_coeffs(profile: MediumProfile, name: str) -> TrigPoly:
    """q(x1) of a profile that depends on x1 alone: every slab must carry it."""
    if profile.direction != "x1":
        raise NotOneDirectional(
            f"inverse: {name} depends on x2; apply swap_direction first")
    first = profile.slabs[0].coeffs
    for s in profile.slabs[1:]:
        if s.coeffs != first:
            raise NotOneDirectional(
                f"inverse: {name} varies with height, so it depends on more than one direction")
    return first


def extract_moments(q1: MediumProfile, q2: MediumProfile, L: int,
                    m_schedule=DEFAULT_SCHEDULE, *, k: float, alpha: Quasimomentum,
                    M: int | None = None, a2_floor: float = DEFAULT_A2_FLOOR) -> MomentTable:
    """Build the moment table for the difference q1 - q2.

    For each l in [-L, L] and each branch index m in the schedule, the
    (m + l, m) eigenpair product of the q1-spectrum against the conj(q2)-
    spectrum is overlapped with the difference; the per-l moment estimate is
    the intercept of an a + b/m fit over the schedule.  Both transverse
    factors use the growth preset c2 = exp(2 pi sqrt(mu)).
    """
    m_schedule = tuple(sorted(int(m) for m in m_schedule))
    if len(m_schedule) < 2:
        raise ValidationError("inverse.extract_moments: schedule needs at least two entries")
    if m_schedule[0] - L < 1:
        raise ValidationError("inverse.extract_moments: schedule too low for requested degree")
    c1 = one_directional_coeffs(q1, "q1")
    c2 = one_directional_coeffs(q2, "q2")
    if M is None:
        M = 2 * (m_schedule[-1] + L) + 8
    if m_schedule[-1] > M // 2:
        raise ValidationError("inverse.extract_moments: schedule exceeds half the truncation")
    spec1 = solve_sl(SLProblem(c1, k, alpha.alpha1, M))
    spec2 = solve_sl(SLProblem(c2.conj(), k, alpha.alpha1, M))
    qdiff = c1 - c2
    table = MomentTable(L, m_schedule, a2_floor)
    log_floor = math.log10(a2_floor)
    for l in range(-L, L + 1):
        a1_vals = []
        ms_used = []
        for m in m_schedule:
            n = m + l
            e_n = spec1.entry(1, n)
            e_m = spec2.entry(1, m)
            mu_n = -e_n.lam
            mu_m = -e_m.lam
            u_n = build_u(mu_n, alpha.alpha2, growth_c2(mu_n))
            u_m = build_u(mu_m, alpha.alpha2, growth_c2(mu_m))
            kern = moment_kernels(spec1, e_n, spec2, e_m, u_n, u_m, qdiff)
            ok = kern.a2_log10 > log_floor
            table.entries.append(MomentEntry(l, m, kern.A1, kern.A2, kern.a2_log10, ok))
            if ok:
                a1_vals.append(kern.A1)
                ms_used.append(m)
        if len(ms_used) < 2:
            raise A2Floor(
                f"inverse.extract_moments: fewer than two retained entries at l={l} "
                f"(floor {a2_floor:g})")
        design = np.stack([np.ones(len(ms_used)), 1.0 / np.asarray(ms_used, dtype=float)], axis=1)
        sol, *_ = np.linalg.lstsq(design, np.asarray(a1_vals), rcond=None)
        resid = np.asarray(a1_vals) - design @ sol
        table.estimates[l] = complex(sol[0])
        table.fit_slopes[l] = complex(sol[1])
        table.fit_residuals[l] = float(np.sqrt(np.mean(np.abs(resid) ** 2)))
    return table


@dataclass
class ReconstructionResult:
    """Recovered q1 - q2 with per-coefficient error bars; ``coeffs(x1)`` evaluates it."""

    coeffs: TrigPoly
    errors: dict
    diagnostics: dict


def reconstruct_difference(table: MomentTable, L: int | None = None) -> ReconstructionResult:
    """Invert the moment table: coefficient of e^{i j x1} is M_{-j} / 2pi."""
    if L is None:
        L = table.L
    if L > table.L:
        raise InsufficientDegree(
            f"inverse.reconstruct_difference: degree {L} exceeds available moments {table.L}")
    coeffs = {}
    errors = {}
    for j in range(-L, L + 1):
        if -j not in table.estimates:
            raise InsufficientDegree(
                f"inverse.reconstruct_difference: no moment estimate for l={-j}")
        coeffs[j] = table.estimates[-j] / (2.0 * np.pi)
        errors[j] = table.fit_residuals[-j] / (2.0 * np.pi)
    diagnostics = {"m_schedule": table.m_schedule,
                   "fit_slopes": dict(table.fit_slopes),
                   "a2_floor": table.a2_floor}
    return ReconstructionResult(TrigPoly(coeffs), errors, diagnostics)


def swap_direction(profile: MediumProfile, alpha: Quasimomentum | None = None):
    """Relabel the horizontal coordinates of a one-directional profile.

    A profile in x2 becomes the same trigonometric polynomial in x1 (and vice
    versa).  When a quasimomentum is supplied its components are swapped too
    and the pair is returned.
    """
    swapped = MediumProfile(list(profile.slabs),
                            "x1" if profile.direction == "x2" else "x2")
    if alpha is None:
        return swapped
    return swapped, Quasimomentum(alpha.alpha2, alpha.alpha1)


def write_moment_csv(table: MomentTable, path) -> None:
    """Moment table rows: l, m, overlaps, and the per-l extrapolated estimate."""
    with open(path, "w", newline="") as fh:
        fh.write("l,m,re_A1,im_A1,re_A2,im_A2,re_estimate,im_estimate\n")
        for e in sorted(table.entries, key=lambda t: (t.l, t.m)):
            est = table.estimates.get(e.l, 0.0 + 0.0j)
            fh.write(f"{e.l},{e.m},{e.A1.real:.17g},{e.A1.imag:.17g},"
                     f"{e.A2.real:.17g},{e.A2.imag:.17g},"
                     f"{est.real:.17g},{est.imag:.17g}\n")


def write_reconstruction_csv(result: ReconstructionResult, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("j,re_coeff,im_coeff,error\n")
        for j in sorted(result.coeffs):
            c = result.coeffs[j]
            fh.write(f"{j},{c.real:.17g},{c.imag:.17g},{result.errors[j]:.17g}\n")
