"""Constructive uniqueness machinery for the layered medium.

Three pieces:

1. The reciprocity-gap identity.  For two admissible profiles and shared
   boundary data f, integration by parts over the layer gives

       k^2 int (q2 - q1) E1 . conj(E2) dx
            = int_{Gamma_b} (e3 x (T2 f - T1 f)) . conj(E2) ds,

   where E1 solves the layer problem for q1 with trace f, E2 solves for
   conj(q2) with trace g, and T_j are the boundary maps.  Equal boundary maps
   therefore force the volume orthogonality; the identity is checked
   quantitatively with independent volume and boundary quadratures.  Both
   sides are Fourier sums over the cell: q2 - q1 depends on x1 alone, so the
   horizontal integral of the volume side is the exact coefficient pairing
   :meth:`TrigPoly.overlap` (as is the moment kernel A1), a batch of one per
   slab segment over its Gauss-Legendre nodes in x3, whose weights ride on E1
   along the node axis; the boundary side is the L^2_t inner product of the
   coefficient vectors.  In a segment
   the integrand is a sum of exponentials e^{z x3} with |z| <= c, the largest
   |gamma| of E1's slab plus that of E2's, so each segment takes the smallest
   order n whose Gauss-Legendre remainder bound K_n (c L / 2)^(2n), L the
   segment length, is at most 1e-16 (about 12 nodes at N = 8 on a segment
   of 0.35).

2. Moment extraction.  Pairing eigen-solutions of the longitudinal problems
   for q1 and conj(q2) through the separable family, the longitudinal overlap
   A1^{m+l, m} converges to the Fourier moment of the difference,
   M_l = int (q1 - q2) e^{i l x1} dx1, at rate O(1/m); a Richardson fit
   a + b/m over an increasing branch schedule extrapolates the limit.  The
   transverse overlap A2 is kept away from zero by the growth preset
   c2 = exp(2 pi sqrt(mu)), and is carried as log|A2| + i arg A2.

3. Reconstruction: the extrapolated moments are the Fourier coefficients of
   the difference, (q1 - q2)(x1) = (1/2pi) sum_l M_l e^{-i l x1}, with the
   sign convention pinned by the constant-difference calibration case.

q1, q2, conj(q2) and the difference are all :class:`TrigPoly` values in x1,
and each profile must carry the same q in every slab
(:func:`one_directional_coeffs`).  alpha1 is the Sturm-Liouville shift, and
alpha2 enters the transverse factor.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (A2Floor, InsufficientDegree, NotOneDirectional,
                     ValidationError)
from .forward import MediumProfile, solve_qpbvp
from .lattice import ModeSet, Quasimomentum, TrigPoly
from .rayleigh_dtn import CELL_AREA, TangentialField, inner
from .separable import build_u, moment_kernels
from .sturm import SLProblem, solve_sl
from .tables import write_csv

DEFAULT_SCHEDULE = (16, 24, 32, 48, 64)
# An entry with |A2| at or below A2_FLOOR leaves the Richardson fit: the
# orthogonality relation identifies the moment only where A2 != 0;
# extract_moments reads it at each call.
A2_FLOOR = 1e-6
_GAUSS_TOL = 1e-16  # bound on the Gauss-Legendre remainder of each x3 segment of the gap


def _gauss_order(c: float) -> int:
    """Smallest Gauss-Legendre order n with K_n c^(2n) <= _GAUSS_TOL.

    K_n = 2^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) is the remainder constant of
    the n-node rule on [-1, 1], whose error is K_n f^(2n)(xi) (Davis &
    Rabinowitz, Methods of Numerical Integration, 1984, section 2.7).  For
    f(t) = e^{z t} with |z| <= c the derivative is bounded by c^(2n) times
    the size of f.  The bound is evaluated in log space, where it cannot
    overflow.
    """
    log_tol = math.log(_GAUSS_TOL)
    log_c = math.log(c) if c > 0 else -math.inf
    n = 1
    while ((2 * n + 1) * math.log(2.0) + 4 * math.lgamma(n + 1) - math.log(2 * n + 1)
           - 3 * math.lgamma(2 * n + 1) + 2 * n * log_c > log_tol):
        n += 1
    return n


@functools.lru_cache(maxsize=16)
def _gauss_rule(n: int):
    """Gauss-Legendre nodes and weights of order n on [-1, 1], read-only and built once."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def reciprocity_gap(profile1: MediumProfile, profile2: MediumProfile,
                    f: TangentialField, g: TangentialField, modeset: ModeSet) -> dict:
    """Evaluate both sides of the reciprocity-gap identity and their mismatch.

    Returns ``{'lhs', 'rhs', 'gap', 'floor', 'rhs_scale'}`` with
    ``gap = |lhs - rhs| / max(|lhs|, |rhs|, floor)``.  The floor is
    ``1e-10 k^2 b CELL_AREA max|c1|_2 max|c2|_2``, the maxima of the
    coefficient 2-norms of E1 and E2 over the Gauss nodes: by Parseval and
    Cauchy-Schwarz it bounds the volume side for a unit |q2 - q1|.  Each x3
    segment is one ``TrigPoly.overlap``, a batch of one, of both fields at all
    of its nodes.

    ``rhs = -<T2 f - T1 f, g>`` is a difference of two inner products, and
    ``rhs_scale = |<T2 f, g>| + |<T1 f, g>|`` is the size of the terms it
    cancels: round-off in rhs is of order u * rhs_scale (u the unit
    round-off), so ``rhs_scale / |rhs|`` says how many digits the boundary
    side lost.  It enters neither the gap nor its floor.

    Each segment gets its own Gauss-Legendre order.  In a segment the
    integrand is a finite sum of exponentials e^{z x3} with |z| at most the
    largest |gamma| of E1's slab plus that of E2's slab
    (``LayerField.max_exponent``).  So the order is the smallest n with
    K_n c^(2n) <= 1e-16, where c is that sum times half the segment length
    and K_n the Gauss-Legendre remainder constant (``_gauss_order``).
    """
    if abs(profile1.b - profile2.b) > 1e-12:
        raise ValidationError("inverse.reciprocity_gap: profiles have different layer heights")
    sol1 = solve_qpbvp(profile1, f, modeset)
    sol2 = solve_qpbvp(profile2, f, modeset)
    sol3 = solve_qpbvp(profile2.conjugate(), g, modeset)
    ms = modeset
    k = ms.k
    mb = ms.block_size

    # Volume side: per slab segment, the exact Fourier pairing of E1 and E2
    # weighted by the segment's q2 - q1, summed over n2, the components and
    # the Gauss-Legendre nodes in x3, of an order sized to the segment's
    # exponents.  The segments end at the lower of the two heights, which
    # may differ by round-off.
    bounds = np.concatenate([profile1.slab_bounds(), profile2.slab_bounds()])
    bounds = np.unique(np.minimum(bounds, min(profile1.b, profile2.b)))
    mids = 0.5 * (bounds[:-1] + bounds[1:])
    lhs = 0.0 + 0.0j
    c1max = c2max = 0.0
    for lo, hi, mid, j1, j2 in zip(bounds[:-1], bounds[1:], mids,
                                   profile1.slab_of(mids), profile2.slab_of(mids)):
        dq = profile2.slabs[j2].coeffs - profile1.slabs[j1].coeffs
        half = 0.5 * (hi - lo)
        x, w = _gauss_rule(_gauss_order(
            (sol1.field.max_exponent(j1) + sol3.field.max_exponent(j2)) * half))
        nodes, weights = half * x + mid, half * w
        shape = (1, mb, mb, 3, len(x))  # (batch of one, n2, n1, component, node)
        c1 = sol1.field.mode_coefficients(nodes)
        c2 = sol3.field.mode_coefficients(nodes)
        # contiguous n1-major operands, so that overlap's slices along n1 are too
        lhs += dq.overlap(np.multiply(c1.reshape(shape).swapaxes(1, 2), weights, order="C"),
                          np.ascontiguousarray(c2.reshape(shape).swapaxes(1, 2)))[0]
        c1max = max(c1max, float(np.max(np.linalg.norm(c1, axis=(0, 1)))))
        c2max = max(c2max, float(np.max(np.linalg.norm(c2, axis=(0, 1)))))
    lhs *= k * k * CELL_AREA

    # Boundary side: E2's tangential trace is (g2, -g1) = -(e3 x g) and e3 x
    # preserves the pairing, so (e3 x (T2 f - T1 f)) . conj(E2) sums to
    # -<T2 f - T1 f, g>.
    rhs = -inner(sol2.trace - sol1.trace, g)
    rhs_scale = abs(inner(sol2.trace, g)) + abs(inner(sol1.trace, g))

    floor = max(1e-300, 1e-10 * k * k * profile1.b * CELL_AREA * c1max * c2max)
    gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor)
    return {"lhs": lhs, "rhs": rhs, "gap": float(gap), "floor": floor, "rhs_scale": rhs_scale}


@dataclass
class MomentEntry:
    l: int
    m: int
    A1: complex
    a2_log10: float  # log10 |A2|
    a2_arg: float    # arg A2 in (-pi, pi]
    a2_ok: bool


@dataclass
class MomentTable:
    """Overlap data per (l, m) plus Richardson-extrapolated moment estimates."""

    L: int
    m_schedule: tuple
    entries: list = field(default_factory=list)
    estimates: dict = field(default_factory=dict)      # l -> extrapolated moment
    fit_residuals: dict = field(default_factory=dict)  # l -> rms residual of the fit


def one_directional_coeffs(profile: MediumProfile, name: str) -> TrigPoly:
    """q(x1) of a profile that carries the same q in every slab."""
    first = profile.slabs[0].coeffs
    for s in profile.slabs[1:]:
        if s.coeffs != first:
            raise NotOneDirectional(
                f"inverse: {name} varies with height, so it depends on more than one direction")
    return first


def extract_moments(q1: MediumProfile, q2: MediumProfile, L: int,
                    m_schedule=DEFAULT_SCHEDULE, *, k: float,
                    alpha: Quasimomentum) -> MomentTable:
    """Build the moment table for the difference q1 - q2.

    For each l in [-L, L] (L an integer >= 0) and each branch index m in the
    schedule, the (m + l, m) eigenpair product of the q1-spectrum against the
    conj(q2)-spectrum is overlapped with the difference; the per-l moment
    estimate is the intercept of an a + b/m fit over the schedule.  alpha1 is
    the Sturm-Liouville shift, and alpha2 the quasimomentum of the transverse
    factor.  The Sturm-Liouville truncation follows from the schedule,
    M = 2 (max m + L) + 8, and only the branches the table reads are solved
    (``solve_sl(..., branches=...)``).

    The table is one batched pass over its (2L + 1) x len(schedule) pairs.
    :func:`build_u` builds one transverse factor per branch of each pair,
    under the growth preset c2 = exp(2 pi sqrt(mu)), so |A2| is recorded as
    ``a2_log10`` and never overflows; one :func:`moment_kernels` call gives
    every A1 and A2.  The l that keep the same entries above
    ``A2_FLOOR`` share one design and one least-squares solve, so a full
    table is one solve; fewer than two retained entries at any l raise
    :class:`A2Floor`.
    """
    if not isinstance(L, numbers.Integral) or L < 0:
        raise ValidationError(
            f"inverse.extract_moments: degree L must be an integer >= 0, got {L!r}")
    m_schedule = tuple(sorted(int(m) for m in m_schedule))
    if len(m_schedule) < 2 or len(set(m_schedule)) < len(m_schedule):
        raise ValidationError(f"inverse.extract_moments: schedule {m_schedule} needs at least "
                              "two entries, none repeated")
    if m_schedule[0] - L < 1:
        raise ValidationError("inverse.extract_moments: schedule too low for requested degree")
    c1, c2 = one_directional_coeffs(q1, "q1"), one_directional_coeffs(q2, "q2")
    M = 2 * (m_schedule[-1] + L) + 8
    ls = range(-L, L + 1)
    S = len(m_schedule)
    pairs = [(m + l, m) for l in ls for m in m_schedule]
    ns = sorted({n for n, _ in pairs})
    spec1 = solve_sl(SLProblem(c1, k, alpha.alpha1, M), branches=[(1, n) for n in ns])
    spec2 = solve_sl(SLProblem(c2.conj(), k, alpha.alpha1, M),
                     branches=[(1, m) for m in m_schedule])
    en, em = [spec1.entry(1, n) for n, _ in pairs], [spec2.entry(1, m) for _, m in pairs]
    A1, a2_log = moment_kernels(spec1, en, spec2, em, build_u([-e.lam for e in en], alpha.alpha2),
                                build_u([-e.lam for e in em], alpha.alpha2), c1 - c2)
    A1, a2_log = A1.reshape(len(ls), S), a2_log.reshape(len(ls), S)
    a2_log10 = a2_log.real / math.log(10.0)
    ok = a2_log10 > math.log10(A2_FLOOR)
    table = MomentTable(L, m_schedule)
    table.entries = [MomentEntry(l, m, complex(A1[i, j]), float(a2_log10[i, j]),
                                 float(a2_log.imag[i, j]), bool(ok[i, j]))
                     for i, l in enumerate(ls) for j, m in enumerate(m_schedule)]
    short = np.flatnonzero(ok.sum(axis=1) < 2)
    if short.size:
        raise A2Floor(
            f"inverse.extract_moments: fewer than two retained entries at l={ls[short[0]]} "
            f"(floor {A2_FLOOR:g})")
    inv_m = 1.0 / np.asarray(m_schedule, dtype=float)
    estimates = np.empty(len(ls), dtype=complex)
    residuals = np.empty(len(ls))
    # one fit per retention pattern (np.unique(ok, axis=0) alone costs more than a full fit)
    patterns = {}
    for i, kept in enumerate(ok.tolist()):
        patterns.setdefault(tuple(kept), []).append(i)
    for kept, rows in patterns.items():
        kept = np.array(kept)
        estimates[rows], residuals[rows] = _richardson_fit(inv_m[kept], A1[rows][:, kept].T)
    table.estimates = {l: complex(estimates[i]) for i, l in enumerate(ls)}
    table.fit_residuals = {l: float(residuals[i]) for i, l in enumerate(ls)}
    return table


def _richardson_fit(inv_m, values):
    """Intercept and rms residual of the a + b/m least-squares fit, per column of ``values``."""
    design = np.stack([np.ones(len(inv_m)), inv_m], axis=1)
    sol, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ sol
    return sol[0], np.sqrt(np.mean(np.abs(resid) ** 2, axis=0))


@dataclass
class ReconstructionResult:
    """Recovered q1 - q2 with per-coefficient error bars; ``coeffs(x1)`` evaluates it."""

    coeffs: TrigPoly
    errors: dict


def reconstruct_difference(table: MomentTable) -> ReconstructionResult:
    """Invert the moment table to degree ``table.L``: coefficient of e^{i j x1} is M_{-j} / 2pi.

    A missing estimate for some |l| <= ``table.L`` raises :class:`InsufficientDegree`.
    """
    coeffs = {}
    errors = {}
    for j in range(-table.L, table.L + 1):
        if -j not in table.estimates:
            raise InsufficientDegree(
                f"inverse.reconstruct_difference: no moment estimate for l={-j}")
        coeffs[j] = table.estimates[-j] / (2.0 * np.pi)
        errors[j] = table.fit_residuals[-j] / (2.0 * np.pi)
    return ReconstructionResult(TrigPoly(coeffs), errors)


def write_moment_csv(table: MomentTable, path) -> None:
    """Moment table rows: l, m, A1, log10 |A2| and arg A2, and the per-l estimate."""
    rows = []
    for e in sorted(table.entries, key=lambda t: (t.l, t.m)):
        est = table.estimates.get(e.l, 0.0 + 0.0j)
        rows.append((e.l, e.m, e.A1.real, e.A1.imag, e.a2_log10, e.a2_arg, est.real, est.imag))
    write_csv(path, "l,m,re_A1,im_A1,log10_abs_A2,arg_A2,re_estimate,im_estimate",
              "%d,%d" + ",%.17g" * 6, rows)


def write_reconstruction_csv(result: ReconstructionResult, path) -> None:
    write_csv(path, "j,re_coeff,im_coeff,error", "%d,%.17g,%.17g,%.17g",
              ((j, c.real, c.imag, result.errors[j]) for j, c in sorted(result.coeffs.items())))
