"""Separable fields (0, 0, v(x1) u(x2)) and their overlap kernels.

For an eigenpair (lambda, v) of the longitudinal problem
v'' + k^2 q(x1) v = lambda v, the third-component field E = (0, 0, v u)
satisfies the Maxwell cell equation exactly when the transverse factor obeys
u'' = mu u with mu = -lambda: substituting gives v'' u + v u'' + k^2 q v u =
(lambda + mu) v u, which vanishes only for the opposite-sign pairing.
The longitudinal eigenvalue as computed here is
k^2 q0 - (m + alpha1)^2 for constant q, so mu grows like (m + alpha1)^2 and
the transverse exponentials stiffen with the branch index; overlap integrals
are therefore evaluated in closed form: the longitudinal one as the exact
Fourier pairing :meth:`TrigPoly.overlap` of the eigenvector coefficients, the
transverse one with log-scaled arithmetic.

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

The kernels work on batches, because a moment table pairs many branches:
:func:`build_u` builds any number of factors in one call,
:func:`transverse_overlap` takes batches of factors elementwise, and
:func:`moment_kernels` returns A1 and log A2 for a whole list of pairs.  One
factor or one pair is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominator, ValidationError, ZeroLambda
from .lattice import TrigPoly
from .sturm import SLSpectrum

TWO_PI = 2.0 * np.pi


@dataclass
class TransverseFactor:
    """Exponential factor u(x2) with transverse parameter mu (u'' = mu u).

    ``c1`` is the coefficient of e^{sqrt(mu) x2}; ``log_c2`` is the log of the
    preset c2 = e^{2 pi sqrt(mu)}, i.e. 2 pi sqrt(mu).  The fields are scalars
    for one factor, or arrays of one shape for a batch (:func:`build_u`).
    The evaluation methods take one factor.
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


def build_u(mu, alpha2: float) -> TransverseFactor:
    """Build the transverse factors for parameters mu under the growth preset.

    ``mu`` is a scalar or an array; every field of the result has its shape,
    so one call builds a whole batch of factors.  With d = e^{-2 pi sqrt(mu)}
    (|d| <= 1 on the principal branch) the seam relation reads
    c1 = (d - e^{2 pi i alpha2}) / (e^{2 pi i alpha2} d - 1).  The guards
    hold for every element, and an error names the first one that fails:
    |mu| < 1e-14 raises :class:`ZeroLambda`, and the resonance
    |e^{2 pi i alpha2} - e^{2 pi sqrt(mu)}| <= 1e-12, evaluated as
    |e^{2 pi i alpha2} d - 1| <= 1e-12 |d|, raises
    :class:`DegenerateDenominator`.
    """
    mu = np.asarray(mu, dtype=complex)
    zero = np.abs(mu) < 1e-14
    if zero.any():
        i = int(np.argmax(zero.ravel()))
        raise ZeroLambda("separable.build_u: transverse parameter must be nonzero, "
                         f"got mu = {mu.ravel()[i]:.6g} at element {i}")
    s = np.sqrt(mu)
    qp = np.exp(1j * TWO_PI * alpha2)
    d = np.exp(-TWO_PI * s)
    denom = qp * d - 1.0
    resonant = np.abs(denom) <= 1e-12 * np.abs(d)
    if resonant.any():
        i = int(np.argmax(resonant.ravel()))
        raise DegenerateDenominator(
            f"separable.build_u: quasimomentum resonance, |e^(2 pi i alpha2) - e^(2 pi sqrt(mu))| "
            f"= {abs(denom.ravel()[i] / d.ravel()[i]):.3e} at element {i} "
            f"(mu = {mu.ravel()[i]:.6g})")
    # [()] turns a 0-d result into a scalar and leaves an array as it is
    return TransverseFactor(mu[()], s[()], ((d - qp) / denom)[()], (TWO_PI * s)[()],
                            float(alpha2))


def _log_interval_integral(w):
    """Principal log of J(w) = integral_0^{2pi} e^{w t} dt = (e^{2 pi w} - 1)/w, elementwise.

    Four forms, each evaluated on its own elements only, so that no branch
    forms an exponential that overflows: a series near w = 0, the large
    factor e^{2 pi w} taken out in log space for Re 2 pi w > 50, the
    vanishing one dropped to log1p for Re 2 pi w < -50, and the direct
    formula in between.
    """
    w = np.asarray(w, dtype=complex)
    a = TWO_PI * w
    out = np.empty_like(a)
    small = np.abs(a) < 1e-4
    high = ~small & (a.real > 50.0)
    low = ~small & (a.real < -50.0)
    mid = ~(small | high | low)
    x = a[small]
    out[small] = np.log(TWO_PI) + np.log1p(x / 2.0 + x * x / 6.0 + x ** 3 / 24.0)
    x, v = a[high], w[high]
    out[high] = x + np.log1p(-np.exp(-x)) - np.log(v)
    x, v = a[low], w[low]
    out[low] = 1j * np.pi - np.log(v) + np.log1p(-np.exp(x))
    x, v = a[mid], w[mid]
    out[mid] = np.log((np.exp(x) - 1.0) / v)
    return out


def transverse_overlap(u_n: TransverseFactor, u_m: TransverseFactor):
    """log of the closed-form integral of u_n(x2) conj(u_m(x2)) over the cell.

    Elementwise over batches of factors of one shape.  Each of the four
    exponential products integrates in closed form in log space; the terms
    are summed relative to the largest one.  The result is log|A2| + i arg A2
    with arg in (-pi, pi]; under the growth preset |A2| leaves the float
    range, so A2 itself is never formed.
    """
    terms = []
    for logc_n, sn_sign in ((np.log(u_n.c1), 1.0), (u_n.log_c2, -1.0)):
        for logc_m, sm_sign in ((np.log(u_m.c1), 1.0), (u_m.log_c2, -1.0)):
            w = sn_sign * u_n.sqrt_mu + sm_sign * np.conj(u_m.sqrt_mu)
            terms.append(logc_n + np.conj(logc_m) + _log_interval_integral(w))
    logs = np.stack(terms, axis=-1)
    lmax = np.max(logs.real, axis=-1, keepdims=True)
    return (lmax[..., 0] + np.log(np.sum(np.exp(logs - lmax), axis=-1)))[()]


def moment_kernels(spec1: SLSpectrum, entries_n, spec2: SLSpectrum, entries_m,
                   u_n: TransverseFactor, u_m: TransverseFactor, qdiff: dict):
    """Overlap kernels of a batch of separable pairs (n_p, m_p) against a profile difference.

    ``entries_n`` and ``entries_m`` are sequences of :class:`SLEntry` of
    spec1 and spec2, paired by position, and ``u_n``, ``u_m`` the batches of
    their transverse factors.  Returns ``(A1, a2_log)``, one element per pair.
    ``A1`` integrates v_n(x1) conj(v_m(x1)) (q1 - q2)(x1) exactly: it is
    2 pi times :meth:`TrigPoly.overlap` of the stacked eigenvectors, one row
    per pair.  The quasimomentum phases cancel, which needs both spectra to
    share alpha1.  ``a2_log`` is the log of the closed-form transverse
    overlap A2 (:func:`transverse_overlap`).
    """
    if abs(spec1.problem.alpha1 - spec2.problem.alpha1) > 1e-13:
        raise ValidationError("separable.moment_kernels: spectra use different alpha1")
    A1 = TrigPoly(qdiff).overlap(np.stack([e.coeffs for e in entries_n]),
                                 np.stack([e.coeffs for e in entries_m]))
    return TWO_PI * A1, transverse_overlap(u_n, u_m)
