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

The normalisation is fixed to the growth preset c2 = e^{2 pi sqrt(mu)}, which
keeps the transverse overlap A2 away from zero.  Divided through by the
preset, the seam relation leaves c1 of order one; c2 is kept as its log,
2 pi sqrt(mu), and A2 as log|A2| + i arg A2.  The preset grows without bound
in the branch index, and neither it nor A2 is ever exponentiated, so every
stored transverse number stays in the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, LambdaMismatch, ValidationError, ZeroLambda
from .lattice import TrigPoly
from .sturm import SLEntry, SLSpectrum

TWO_PI = 2.0 * np.pi


@dataclass
class TransverseFactor:
    """Exponential factor u(x2) with transverse parameter mu (u'' = mu u).

    ``c1`` is the coefficient of e^{sqrt(mu) x2}; ``log_c2`` is the log of the
    preset c2 = e^{2 pi sqrt(mu)}, i.e. 2 pi sqrt(mu).
    """

    mu: complex
    sqrt_mu: complex
    c1: complex
    log_c2: complex
    alpha2: float

    def _cell_values(self, x2):
        """c1 e^{sqrt(mu) x2} + c2 e^{-sqrt(mu) x2}, the second term formed from log_c2."""
        s = self.sqrt_mu
        return self.c1 * np.exp(s * x2) + np.exp(self.log_c2 - s * x2)

    def values(self, x2) -> np.ndarray:
        """Quasi-periodic extension: cell values times the per-period phase."""
        x2 = np.asarray(x2, dtype=float)
        period = np.floor(x2 / TWO_PI)
        phase = np.exp(1j * TWO_PI * self.alpha2 * period)
        return phase * self._cell_values(x2 - TWO_PI * period)

    def derivative2_residual(self, x2) -> float:
        """max |u'' - mu u| / max |mu u| on sample points inside the cell."""
        u = self._cell_values(np.asarray(x2, dtype=float))
        upp = self.sqrt_mu * self.sqrt_mu * u
        scale = float(np.max(np.abs(self.mu * u))) + 1e-300
        return float(np.max(np.abs(upp - self.mu * u))) / scale

    def seam_defect(self) -> float:
        """|u(2pi) - e^{2 pi i alpha2} u(0)| relative to the endpoint scale."""
        u0, u1 = self._cell_values(np.array([0.0, TWO_PI]))
        scale = max(abs(u0), abs(u1), 1e-300)
        return abs(u1 - np.exp(1j * TWO_PI * self.alpha2) * u0) / scale


def build_u(mu: complex, alpha2: float) -> TransverseFactor:
    """Build the transverse factor for parameter mu under the growth preset.

    With d = e^{-2 pi sqrt(mu)} (|d| <= 1 on the principal branch) the seam
    relation reads c1 = (d - e^{2 pi i alpha2}) / (e^{2 pi i alpha2} d - 1).
    The resonance guard is |e^{2 pi i alpha2} - e^{2 pi sqrt(mu)}| <= 1e-12,
    evaluated as |e^{2 pi i alpha2} d - 1| <= 1e-12 |d|.
    """
    mu = complex(mu)
    if abs(mu) < 1e-14:
        raise ZeroLambda("separable.build_u: transverse parameter must be nonzero")
    s = complex(np.sqrt(mu))
    qp = np.exp(1j * TWO_PI * alpha2)
    d = np.exp(-TWO_PI * s)
    denom = qp * d - 1.0
    if abs(denom) <= 1e-12 * abs(d):
        raise DegenerateDenominator(
            f"separable.build_u: quasimomentum resonance, |e^(2 pi i alpha2) - e^(2 pi sqrt(mu))| "
            f"= {abs(denom / d):.3e}")
    return TransverseFactor(mu, s, complex((d - qp) / denom), TWO_PI * s, float(alpha2))


@dataclass
class SeparableSolution:
    """E = (0, 0, v(x1) u(x2)); the trace on the plate vanishes identically."""

    spectrum: SLSpectrum
    entry: SLEntry
    u: TransverseFactor

    @property
    def lam(self) -> complex:
        return self.entry.lam

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

    ``a2_log`` is log|A2| + i arg A2 with arg in (-pi, pi]; under the growth
    preset |A2| leaves the float range, so A2 itself is never formed.
    """

    A1: complex
    a2_log: complex

    @property
    def a2_log10(self) -> float:
        return self.a2_log.real / math.log(10.0)


def transverse_overlap(u_n: TransverseFactor, u_m: TransverseFactor) -> complex:
    """log of the closed-form integral of u_n(x2) conj(u_m(x2)) over the cell.

    Each of the four exponential products integrates in closed form in log
    space; the terms are summed relative to the largest one.
    """
    terms = []
    for logc_n, sn_sign in ((np.log(u_n.c1), 1.0), (u_n.log_c2, -1.0)):
        for logc_m, sm_sign in ((np.log(u_m.c1), 1.0), (u_m.log_c2, -1.0)):
            w = sn_sign * u_n.sqrt_mu + sm_sign * np.conj(u_m.sqrt_mu)
            terms.append(logc_n + np.conj(logc_m) + _log_interval_integral(w))
    logs = np.array(terms)
    lmax = float(np.max(logs.real))
    return complex(lmax + np.log(np.sum(np.exp(logs - lmax))))


def moment_kernels(spec1: SLSpectrum, entry_n: SLEntry, spec2: SLSpectrum,
                   entry_m: SLEntry, u_n: TransverseFactor, u_m: TransverseFactor,
                   qdiff: TrigPoly) -> MomentKernels:
    """Overlap kernels of the (n, m) separable pair against a profile difference.

    ``A1`` integrates v_n(x1) conj(v_m(x1)) (q1 - q2)(x1) exactly as a finite
    sum over Fourier coefficients, 2 pi sum_j dq_j sum_b c_n[b - j] conj(c_m[b])
    (:meth:`TrigPoly.overlap`): the quasimomentum phases cancel, which needs
    both spectra to share alpha1, and only index-matched terms survive.
    ``a2_log`` is the log of the closed-form transverse overlap A2.
    """
    if abs(spec1.problem.alpha1 - spec2.problem.alpha1) > 1e-13:
        raise ValidationError("separable.moment_kernels: spectra use different alpha1")
    A1 = complex(TWO_PI * TrigPoly(qdiff).overlap(entry_n.coeffs, entry_m.coeffs))
    return MomentKernels(A1, transverse_overlap(u_n, u_m))
