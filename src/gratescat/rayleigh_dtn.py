"""Rayleigh sequences, tangential traces, and the transparent-boundary operator.

The scattered field above the layer is a sum of upgoing plane-wave modes;
its coefficient vectors (the Rayleigh sequence) live in :class:`RayleighField`.
Tangential data on a horizontal plane lives in :class:`TangentialField`.
The operator realized by :func:`apply_R` maps the rotated tangential trace
``e3 x E`` of an outgoing field to the tangential trace of its curl, per mode:

    (R F)_n = -(1 / (i beta_n)) [k^2 F_n - (alpha_n . F_n) alpha_n].

Its quadratic form splits by mode type: evanescent modes contribute the real
part, propagating modes the (nonnegative) imaginary part.
"""

from __future__ import annotations

import numpy as np

from .errors import DivergenceViolation, ValidationError
from .lattice import ModeSet
from .tables import write_csv

CELL_AREA = 4.0 * np.pi ** 2
_DIVERGENCE_TOL = 1e-10  # largest scaled residual RayleighField.validate_divergence accepts


def _check_coeffs(modeset: ModeSet, coeffs) -> np.ndarray:
    """Coefficients as a complex (num_modes, 3) array; a wrong shape or a NaN or inf raises."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (modeset.num_modes, 3):
        raise ValidationError("rayleigh_dtn: coefficients must have shape (num_modes, 3)")
    finite = np.isfinite(coeffs)
    if not finite.all():
        j = int(np.argmin(finite.all(axis=1)))
        raise ValidationError(f"rayleigh_dtn: non-finite coefficient at mode "
                              f"({modeset.n1[j]},{modeset.n2[j]}): {coeffs[j]}")
    return coeffs


class TangentialField:
    """Tangential Fourier coefficients on a plane x3 = height (third component 0)."""

    def __init__(self, modeset: ModeSet, coeffs, height: float = 0.0):
        coeffs = _check_coeffs(modeset, coeffs)
        if np.any(np.abs(coeffs[:, 2]) > 0):
            raise ValidationError("rayleigh_dtn.TangentialField: third component must be exactly 0")
        self.modeset = modeset
        self.coeffs = coeffs
        self.height = height

    @classmethod
    def from_components(cls, modeset, c1, c2, height: float = 0.0) -> "TangentialField":
        coeffs = np.zeros((modeset.num_modes, 3), dtype=complex)
        coeffs[:, 0] = c1
        coeffs[:, 1] = c2
        return cls(modeset, coeffs, height)

    def values(self, points) -> np.ndarray:
        """Quasi-periodic values at (x1, x2) points; shape (P, 3)."""
        return self.modeset.phases(points) @ self.coeffs

    def __add__(self, other):
        self.modeset.require_same(other.modeset, "rayleigh_dtn.TangentialField.__add__")
        return TangentialField(self.modeset, self.coeffs + other.coeffs, self.height)

    def __sub__(self, other):
        self.modeset.require_same(other.modeset, "rayleigh_dtn.TangentialField.__sub__")
        return TangentialField(self.modeset, self.coeffs - other.coeffs, self.height)

    def __mul__(self, scalar):
        return TangentialField(self.modeset, self.coeffs * scalar, self.height)

    __rmul__ = __mul__


class RayleighField:
    """Rayleigh coefficient vectors E_n over a ModeSet.

    ``direction='up'`` means the field is sum of E_n exp(i(alpha_n.x' +
    beta_n (x3 - height))); ``'down'`` uses -beta_n.  ``height`` is the
    reference plane of the coefficients.
    """

    def __init__(self, modeset: ModeSet, coeffs, height: float = 0.0,
                 direction: str = "up"):
        if direction not in ("up", "down"):
            raise ValidationError("rayleigh_dtn.RayleighField: direction must be 'up' or 'down'")
        self.modeset = modeset
        self.coeffs = _check_coeffs(modeset, coeffs)
        self.height = height
        self.direction = direction

    @property
    def _beta_signed(self):
        s = 1.0 if self.direction == "up" else -1.0
        return s * self.modeset.beta

    def divergence_residuals(self) -> np.ndarray:
        """|alpha_n . E_n + (signed) beta_n E_n3| per mode."""
        ms = self.modeset
        return np.abs(np.sum(self.coeffs[:, :2] * ms.alpha_n[:, :2], axis=1)
                      + self._beta_signed * self.coeffs[:, 2])

    def validate_divergence(self) -> None:
        """Refuse a mode whose scaled divergence residual exceeds ``_DIVERGENCE_TOL`` or is NaN."""
        # hypot: a 2-norm that does not overflow; a NaN left out of the max fails only its own mode
        a = np.abs(self.coeffs)
        scale = np.hypot(np.hypot(a[:, 0], a[:, 1]), a[:, 2])
        ratio = self.divergence_residuals() / (
            scale + np.max(a, initial=0.0, where=~np.isnan(a)) * 1e-3 + 1e-300)
        worst = np.max(ratio, initial=0.0)
        if not worst <= _DIVERGENCE_TOL:      # a NaN residual fails too
            j = int(np.argmax(ratio))   # the first NaN, if any
            raise DivergenceViolation(
                "rayleigh_dtn.RayleighField: divergence constraint violated at mode "
                f"({self.modeset.n1[j]},{self.modeset.n2[j]}): {worst:.3e} > {_DIVERGENCE_TOL:g}")

    def rebase(self, height: float) -> "RayleighField":
        """Re-express the coefficients at another reference height."""
        shift = np.exp(1j * self._beta_signed * (height - self.height))
        return RayleighField(self.modeset, self.coeffs * shift[:, None], height, self.direction)

    def values(self, points) -> np.ndarray:
        """Field values at (x1, x2, x3) points; shape (P, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vert = np.exp(1j * np.outer(pts[:, 2] - self.height, self._beta_signed))
        return (self.modeset.phases(pts) * vert) @ self.coeffs


def inner(a: TangentialField, b: TangentialField) -> complex:
    """L^2_t inner product over the cell, <a, b> = 4 pi^2 sum a_n conj(b_n)."""
    a.modeset.require_same(b.modeset, "rayleigh_dtn.inner")
    return CELL_AREA * complex(np.sum(a.coeffs * np.conj(b.coeffs)))


def _r_entries(modeset: ModeSet):
    """Per-mode entries of R on (F1, F2): (R F)_n = s_n [[c11, c12], [c12, c22]]_n F_n.

    Returns ``(c11, c12, c22, s)`` with c11 = a1^2 - k^2, c12 = a1 a2,
    c22 = a2^2 - k^2 and s = 1 / (i beta_n), where (a1, a2) = alpha_n.
    """
    a1 = modeset.alpha_n[:, 0]
    a2 = modeset.alpha_n[:, 1]
    k2 = modeset.k ** 2
    return -(k2 - a1 ** 2), a1 * a2, -(k2 - a2 ** 2), 1.0 / (1j * modeset.beta)


def apply_R(field: TangentialField) -> TangentialField:
    """Apply the transparent-boundary operator mode by mode, over the field's own mode set."""
    ms = field.modeset
    c11, c12, c22, s = _r_entries(ms)
    f1, f2 = field.coeffs[:, 0], field.coeffs[:, 1]
    return TangentialField.from_components(ms, s * (c11 * f1 + c12 * f2),
                                           s * (c12 * f1 + c22 * f2), field.height)


def energy_forms(field: TangentialField) -> dict:
    """Real/imaginary quadratic forms of R on a tangential field, over its own mode set.

    Returns ``{'re_form': ..., 'im_form': ...}`` where the real part sums the
    evanescent modes with weight 1/|beta_n| and the imaginary part sums the
    propagating modes with weight 1/beta_n; the latter is nonnegative.
    """
    ms = field.modeset
    bracket = (ms.k ** 2 * np.sum(np.abs(field.coeffs) ** 2, axis=1)
               - np.abs(np.sum(field.coeffs * ms.alpha_n, axis=1)) ** 2)
    prop = ms.propagating
    im_form = CELL_AREA * float(np.sum(bracket[prop] / ms.beta[prop].real))
    re_form = CELL_AREA * float(np.sum(bracket[~prop] / np.abs(ms.beta[~prop])))
    return {"re_form": re_form, "im_form": im_form}


def efficiencies(scattered: RayleighField, incidence) -> dict:
    """Diffraction efficiencies of the propagating Rayleigh modes.

    Standard grating normalization: weight beta_n |E_n|^2 / (beta_inc |p|^2)
    per propagating mode, with beta_inc the vertical wavenumber of the
    incident plane wave (the specular mode constant of the shared mode set).
    Any other incidence, a dipole sheet among them, has no such norm and
    raises ValidationError.
    """
    from .greens import PlaneWaveIncidence  # greens imports this module

    if not isinstance(incidence, PlaneWaveIncidence):
        raise ValidationError("rayleigh_dtn.efficiencies: efficiencies are normalised to a "
                              f"plane wave, got a {type(incidence).__name__} incidence")
    if scattered.direction != "up":
        raise ValidationError("rayleigh_dtn.efficiencies: scattered field must be upgoing")
    scattered.validate_divergence()
    ms = scattered.modeset
    beta_inc = ms.beta[ms.mode0].real
    p = np.abs(np.asarray(incidence.p, dtype=complex))
    if not np.any(p):
        raise ValidationError("rayleigh_dtn.efficiencies: zero incident polarization")
    # Efficiencies are ratios: scaled by 2^-s ~ 1 / max |p_j|, |p|^2 and |E_n|^2 do
    # not overflow, and a power of 2 changes no rounding outside the subnormal range.
    s = np.frexp(np.max(p))[1]
    pnorm = float(np.sum(np.ldexp(p, -s) ** 2))
    prop = np.flatnonzero(ms.propagating)
    weights = {}
    for j in prop:
        e = float(ms.beta[j].real * np.sum(np.ldexp(np.abs(scattered.coeffs[j]), -s) ** 2)
                  / (beta_inc * pnorm))
        weights[(int(ms.n1[j]), int(ms.n2[j]))] = e
    return weights


def write_rayleigh_csv(field: RayleighField, path) -> None:
    """Dump a Rayleigh sequence: one row per mode, full-precision floats."""
    ms = field.modeset
    parts = np.ascontiguousarray(field.coeffs).view(float)  # re_E1, im_E1, re_E2, ...
    write_csv(path, "n1,n2,re_E1,im_E1,re_E2,im_E2,re_E3,im_E3,re_beta,im_beta,propagating",
              "%d,%d" + ",%.17g" * 8 + ",%d",
              zip(ms.n1.tolist(), ms.n2.tolist(), *parts.T.tolist(), ms.beta.real.tolist(),
                  ms.beta.imag.tolist(), ms.propagating.tolist()))
