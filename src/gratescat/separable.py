"""Separable fields (0, 0, v(x1) u(x2)) and their overlap kernels.

For an eigenpair (lambda, v) of the longitudinal problem
v'' + k^2 q(x1) v = lambda v, the third-component field E = (0, 0, v u)
satisfies the Maxwell cell equation exactly when the transverse factor obeys
u'' = mu u with mu = -lambda: substituting gives v'' u + v u'' + k^2 q v u =
(lambda + mu) v u, which vanishes only for the opposite-sign pairing.
The longitudinal eigenvalue as computed here is
k^2 q0 - (m + alpha1)^2 for constant q, so mu grows like (m + alpha1)^2 and
the transverse exponentials stiffen with the branch index; overlap integrals
are therefore evaluated in closed form: the longitudinal one as a finite sum
over Fourier coefficients, the transverse one with log-scaled arithmetic.

The exponential factor u = c1 e^{sqrt(mu) x2} + c2 e^{-sqrt(mu) x2} satisfies
the quasi-periodic value condition only through the coefficient relation

    c1 = c2 (e^{-2 pi sqrt(mu)} - e^{2 pi i alpha2}) /
            (e^{2 pi i alpha2} - e^{2 pi sqrt(mu)}),

which pins continuity of the phase-shifted periodic extension at the cell
seam; u is evaluated as that extension, so value quasi-periodicity holds by
construction while u' may jump across the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDenominator, LambdaMismatch, ValidationError,
                     ZeroLambda)
from .lattice import TrigPoly
from .sturm import SLEntry, SLSpectrum

TWO_PI = 2.0 * np.pi
_EXP_LIMIT = 690.0  # stay clear of float64 exp overflow


def principal_sqrt(z: complex) -> complex:
    """Square root with Re >= 0 (branch cut on the negative real axis)."""
    return complex(np.sqrt(complex(z)))


def growth_c2(mu: complex) -> complex:
    """The non-vanishing-overlap preset c2 = exp(2 pi sqrt(mu))."""
    s = principal_sqrt(mu)
    if TWO_PI * s.real > _EXP_LIMIT:
        raise ValidationError(
            f"separable.growth_c2: exp(2 pi sqrt(mu)) overflows (Re sqrt = {s.real:g})")
    return complex(np.exp(TWO_PI * s))


@dataclass
class TransverseFactor:
    """Exponential factor u(x2) with transverse parameter mu (u'' = mu u)."""

    mu: complex
    sqrt_mu: complex
    c1: complex
    c2: complex
    alpha2: float

    def values(self, x2) -> np.ndarray:
        """Quasi-periodic extension: cell values times the per-period phase."""
        x2 = np.asarray(x2, dtype=float)
        period = np.floor(x2 / TWO_PI)
        base = x2 - TWO_PI * period
        phase = np.exp(1j * TWO_PI * self.alpha2 * period)
        s = self.sqrt_mu
        return phase * (self.c1 * np.exp(s * base) + self.c2 * np.exp(-s * base))

    def derivative2_residual(self, x2) -> float:
        """max |u'' - mu u| / max |mu u| on sample points inside the cell."""
        x2 = np.asarray(x2, dtype=float)
        s = self.sqrt_mu
        u = self.c1 * np.exp(s * x2) + self.c2 * np.exp(-s * x2)
        upp = s * s * (self.c1 * np.exp(s * x2) + self.c2 * np.exp(-s * x2))
        scale = float(np.max(np.abs(self.mu * u))) + 1e-300
        return float(np.max(np.abs(upp - self.mu * u))) / scale

    def seam_defect(self) -> float:
        """|u(2pi) - e^{2 pi i alpha2} u(0)| relative to the endpoint scale."""
        s = self.sqrt_mu
        u0 = self.c1 + self.c2
        u1 = self.c1 * np.exp(TWO_PI * s) + self.c2 * np.exp(-TWO_PI * s)
        scale = max(abs(u0), abs(u1), 1e-300)
        return abs(u1 - np.exp(1j * TWO_PI * self.alpha2) * u0) / scale


def build_u(mu: complex, alpha2: float, c2: complex = 1.0 + 0.0j) -> TransverseFactor:
    """Build the transverse factor for parameter mu; c1 follows from the seam relation."""
    mu = complex(mu)
    if abs(mu) < 1e-14:
        raise ZeroLambda("separable.build_u: transverse parameter must be nonzero")
    s = principal_sqrt(mu)
    if TWO_PI * abs(s.real) > _EXP_LIMIT:
        raise ValidationError(
            f"separable.build_u: exp(2 pi sqrt(mu)) out of float range (Re sqrt = {s.real:g})")
    qp = np.exp(1j * TWO_PI * alpha2)
    denom = qp - np.exp(TWO_PI * s)
    if abs(denom) <= 1e-12:
        raise DegenerateDenominator(
            f"separable.build_u: quasimomentum resonance, |e^(2 pi i alpha2) - e^(2 pi sqrt(mu))| "
            f"= {abs(denom):.3e}")
    c2 = complex(c2)
    c1 = c2 * (np.exp(-TWO_PI * s) - qp) / denom
    return TransverseFactor(mu, complex(s), complex(c1), c2, float(alpha2))


@dataclass
class SeparableSolution:
    """E = (0, 0, v(x1) u(x2)); the trace on the plate vanishes identically."""

    spectrum: SLSpectrum
    entry: SLEntry
    u: TransverseFactor

    @property
    def lam(self) -> complex:
        return self.entry.lam

    def e3_values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.spectrum.eigenfunction_values(self.entry, pts[:, 0])
        return v * self.u.values(pts[:, 1])

    def field_values(self, points) -> np.ndarray:
        e3 = self.e3_values(points)
        out = np.zeros((e3.size, 3), dtype=complex)
        out[:, 2] = e3
        return out

    def plate_trace(self, points) -> np.ndarray:
        """nu x E on the conducting plate: identically zero for a vertical field."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.zeros((pts.shape[0], 3), dtype=complex)

    def residual_report(self, points) -> dict:
        """Pointwise residual of -Lap E3 - k^2 q E3, relative to the field scale."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prob = self.spectrum.problem
        v = self.spectrum.eigenfunction_values(self.entry, pts[:, 0])
        vpp = self.spectrum.eigenfunction_derivative2(self.entry, pts[:, 0])
        uu = self.u.values(pts[:, 1])
        upp = self.u.mu * uu
        q = prob.coeffs(pts[:, 0])
        res = -(vpp * uu + v * upp) - prob.k ** 2 * q * v * uu
        scale = prob.k ** 2 * float(np.max(np.abs(q)) * np.max(np.abs(v * uu))) + 1e-300
        return {"max_relative": float(np.max(np.abs(res))) / scale,
                "pointwise": np.abs(res), "scale": scale}


def build_separable(spectrum: SLSpectrum, entry: SLEntry,
                    u: TransverseFactor) -> SeparableSolution:
    """Pair a longitudinal eigenfunction with its transverse factor.

    The transverse parameter must be the negative of the eigenvalue
    (opposite-sign separation constants); anything else leaves a nonzero
    cell residual and is rejected.
    """
    tol = 1e-8 * max(1.0, abs(entry.lam))
    if abs(u.mu + entry.lam) > tol:
        raise LambdaMismatch(
            f"separable.build_separable: transverse parameter {u.mu!r} is not the "
            f"negative of the eigenvalue {entry.lam!r}")
    return SeparableSolution(spectrum, entry, u)


def _log_interval_integral(w: complex) -> complex:
    """Principal log of J(w) = integral_0^{2pi} e^{w t} dt = (e^{2 pi w} - 1)/w."""
    a = TWO_PI * w
    if abs(a) < 1e-4:
        return complex(np.log(TWO_PI) + np.log1p(a / 2.0 + a * a / 6.0 + a ** 3 / 24.0))
    if a.real > 50.0:
        return complex(a + np.log1p(-np.exp(-a)) - np.log(w))
    if a.real < -50.0:
        return complex(1j * np.pi - np.log(w) + np.log1p(-np.exp(a)))
    return complex(np.log((np.exp(a) - 1.0) / w))


@dataclass
class MomentKernels:
    """Longitudinal and transverse overlap integrals of two separable solutions.

    ``A2`` may overflow the float range under the growth preset; ``a2_log``
    (natural log of |A2|) and ``a2_phase`` are always finite and are what the
    moment pipeline consumes.
    """

    A1: complex
    A2: complex
    a2_log: float
    a2_phase: float

    @property
    def a2_log10(self) -> float:
        return self.a2_log / math.log(10.0)


def transverse_overlap(u_n: TransverseFactor, u_m: TransverseFactor) -> tuple:
    """Closed-form integral of u_n(x2) conj(u_m(x2)) over the cell, log-scaled."""
    terms = []
    for cn, sn_sign in ((u_n.c1, 1.0), (u_n.c2, -1.0)):
        for cm, sm_sign in ((u_m.c1, 1.0), (u_m.c2, -1.0)):
            if cn == 0 or cm == 0:
                continue
            w = sn_sign * u_n.sqrt_mu + sm_sign * np.conj(u_m.sqrt_mu)
            logc = np.log(complex(cn)) + np.conj(np.log(complex(cm)))
            terms.append(logc + _log_interval_integral(w))
    if not terms:
        return complex(0.0), -np.inf, 0.0
    logs = np.array(terms, dtype=complex)
    lmax = float(np.max(logs.real))
    total = complex(np.sum(np.exp(logs - lmax)))
    if total == 0:
        return complex(0.0), -np.inf, 0.0
    log_a2 = lmax + np.log(total)
    phase = float(log_a2.imag)
    mag = float(log_a2.real)
    if mag > _EXP_LIMIT:
        value = complex(np.inf, 0.0)
    else:
        value = complex(np.exp(log_a2))
    return value, mag, phase


def moment_kernels(spec1: SLSpectrum, entry_n: SLEntry, spec2: SLSpectrum,
                   entry_m: SLEntry, u_n: TransverseFactor, u_m: TransverseFactor,
                   qdiff: TrigPoly) -> MomentKernels:
    """Overlap kernels of the (n, m) separable pair against a profile difference.

    ``A1`` integrates v_n(x1) conj(v_m(x1)) (q1 - q2)(x1) exactly as a finite
    sum over Fourier coefficients, 2 pi sum_j dq_j sum_b c_n[b - j] conj(c_m[b]):
    the quasimomentum phases cancel, which needs both spectra to share alpha1,
    and only index-matched terms survive.
    ``A2`` is the closed-form transverse overlap.
    """
    if abs(spec1.problem.alpha1 - spec2.problem.alpha1) > 1e-13:
        raise ValidationError("separable.moment_kernels: spectra use different alpha1")
    Mn, Mm = spec1.problem.M, spec2.problem.M
    cn, cm = entry_n.coeffs, entry_m.coeffs
    A1 = 0j
    for j, c in qdiff.items():
        lo, hi = max(-Mm, j - Mn), min(Mm, j + Mn)
        if lo <= hi:
            A1 += c * np.vdot(cm[lo + Mm:hi + Mm + 1], cn[lo - j + Mn:hi - j + Mn + 1])
    A1 = complex(TWO_PI * A1)
    A2, a2_log, a2_phase = transverse_overlap(u_n, u_m)
    return MomentKernels(A1, A2, a2_log, a2_phase)
