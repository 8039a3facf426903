"""Quasi-periodic Green's function and dipole-sheet incident fields.

The scalar kernel is the modal series

    G(x, y) = (1 / 8 pi^2) sum_n (1 / (i beta_n))
              exp(i alpha_n . (x - y) + i beta_n |x3 - y3|),

which converges like exp(-|beta_n| |x3 - y3|) / |beta_n| and therefore needs
vertical separation between source and evaluation point; a minimum-distance
guard replaces any lattice-sum acceleration here.  The double curl of the
sheet potential over a plane of tangential dipoles has a closed modal form,
used to manufacture downgoing incident fields for the scattering solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PointsTooClose, ValidationError
from .lattice import ModeSet, _check_angles
from .rayleigh_dtn import RayleighField, _check_coeffs

DELTA_MIN = 1e-2


def green_eval(x, y, modeset: ModeSet) -> complex:
    """Evaluate the truncated modal series for G(x, y).

    Requires ``|x3 - y3| >= DELTA_MIN``; omitted tail terms decay like
    ``exp(-|beta_n| |x3 - y3|) / |beta_n|``.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (3,) or y.shape != (3,) or not np.isfinite([x, y]).all():
        raise ValidationError("greens.green_eval: x and y must be finite 3-vectors")
    dz = abs(x[2] - y[2])
    if dz < DELTA_MIN:
        raise PointsTooClose(
            f"greens.green_eval: |x3 - y3| = {dz:g} < delta_min = {DELTA_MIN:g}")
    ms = modeset
    d = x - y
    phase = np.exp(1j * (ms.alpha_n[:, 0] * d[0] + ms.alpha_n[:, 1] * d[1]) + 1j * ms.beta * dz)
    return complex(np.sum(phase / (1j * ms.beta)) / (8.0 * np.pi ** 2))


def helmholtz_residual(x, y, modeset: ModeSet, h: float) -> float:
    """Relative central-difference Helmholtz residual |(D_h + k^2) G| / |G|.

    A correctness probe: the truncated series satisfies the Helmholtz equation
    exactly, so the residual is pure finite-difference error, O(h^2).  The
    step must be finite with h^2 > 0, and x + h and x - h must differ from x
    in every coordinate: a step that rounds away divides a zero difference
    by h^2.
    """
    if not math.isfinite(h) or h * h == 0:
        raise ValidationError("greens.helmholtz_residual: step h must be finite with h^2 > 0")
    x = np.asarray(x, dtype=float)
    g0 = green_eval(x, y, modeset)
    if np.any(x + h == x) or np.any(x - h == x):
        raise ValidationError(
            f"greens.helmholtz_residual: step h = {h:g} does not move every coordinate of x")
    lap = -6.0 * g0
    for axis in range(3):
        step = np.zeros(3)
        step[axis] = h
        lap += green_eval(x + step, y, modeset)
        lap += green_eval(x - step, y, modeset)
    lap /= h * h
    return abs(lap + modeset.k ** 2 * g0) / abs(g0)


def _require_finite_norm(v: np.ndarray, what: str) -> None:
    """Refuse a vector whose squared norm sum |v_j|^2 is NaN or overflows."""
    with np.errstate(over="ignore"):      # an overflow is refused below, not warned
        sq = float(np.sum(np.abs(v) ** 2))
    if not math.isfinite(sq):
        raise ValidationError(f"{what} must be finite with a finite squared norm, got {v!r}")


@dataclass
class PlaneWaveIncidence:
    """Downgoing plane wave p exp(i k x . d) with transversal polarization."""

    p: np.ndarray
    d: np.ndarray
    k: float

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=complex)
        self.d = np.asarray(self.d, dtype=float)
        if not 0 < self.k < math.inf:
            raise ValidationError("greens.PlaneWaveIncidence: k must be finite and > 0")
        if self.p.shape != (3,) or self.d.shape != (3,):
            raise ValidationError("greens.PlaneWaveIncidence: p and d must be 3-vectors")
        _require_finite_norm(self.p, "greens.PlaneWaveIncidence: p")
        _require_finite_norm(self.d, "greens.PlaneWaveIncidence: d")
        if abs(np.linalg.norm(self.d) - 1.0) > 1e-12:
            raise ValidationError("greens.PlaneWaveIncidence: |d| must be 1")
        if self.d[2] >= 0:
            raise ValidationError("greens.PlaneWaveIncidence: need d3 < 0 (downgoing)")
        if abs(np.dot(self.p, self.d)) > 1e-10 * max(1.0, float(np.linalg.norm(self.p))):
            raise ValidationError("greens.PlaneWaveIncidence: polarization must satisfy p . d = 0")

    @classmethod
    def from_angles(cls, k: float, theta1: float, theta2: float,
                    pol_seed=(0.0, 1.0, 0.0)) -> "PlaneWaveIncidence":
        """Build a transversal polarization by projecting pol_seed orthogonal to d.

        The angles follow ``Quasimomentum.from_angles``: finite, 0 < theta1 < pi.
        """
        _check_angles("greens.PlaneWaveIncidence.from_angles", theta1, theta2)
        d = np.array([math.cos(theta1) * math.cos(theta2),
                      math.cos(theta1) * math.sin(theta2),
                      -math.sin(theta1)])
        seed = np.asarray(pol_seed, dtype=complex)
        _require_finite_norm(seed, "greens.PlaneWaveIncidence.from_angles: pol_seed")
        p = seed - np.dot(seed, d) * d
        if np.linalg.norm(p) < 1e-12:
            raise ValidationError("greens.PlaneWaveIncidence.from_angles: pol_seed parallel to d")
        return cls(p, d, k)


@dataclass
class DipoleDensity:
    """Tangential dipole coefficients g_n on the plane x3 = a (third comp 0)."""

    modeset: ModeSet
    height: float
    coeffs: np.ndarray

    def __post_init__(self):
        if not math.isfinite(self.height):
            raise ValidationError(f"greens.DipoleDensity: height must be finite, got {self.height!r}")
        self.coeffs = _check_coeffs(self.modeset, self.coeffs, "greens.DipoleDensity")
        if np.any(np.abs(self.coeffs[:, 2]) > 0):
            raise ValidationError("greens.DipoleDensity: density must be tangential (g3 = 0)")


def incident_from_density(g: DipoleDensity, modeset: ModeSet) -> RayleighField:
    """Downgoing expansion of the double-curl sheet potential, valid for x3 < a.

    Per mode, with kappa_n = alpha_n - beta_n e3 (|kappa_n|^2 = k^2),

        c_n = exp(i beta_n a) / (2 i beta_n) * [k^2 g_n - (kappa_n . g_n) kappa_n],

    returned as coefficients of exp(i(alpha_n . x' - beta_n x3)); each mode is
    divergence free by construction.
    """
    g.modeset.require_same(modeset, "greens.incident_from_density")
    ms = modeset
    a = g.height
    kappa = ms.alpha_n.astype(complex).copy()
    kappa[:, 2] = -ms.beta
    kdot = np.sum(kappa * g.coeffs, axis=1)
    bracket = ms.k ** 2 * g.coeffs - kdot[:, None] * kappa
    w = np.exp(1j * ms.beta * a) / (2j * ms.beta)
    return RayleighField(ms, w[:, None] * bracket, height=0.0, direction="down")
