"""Mode bookkeeping on the 2pi x 2pi cell.

Everything downstream is expanded in the lattice of Fourier modes
``n = (n1, n2)`` with horizontal wavevectors ``alpha_n = alpha + n`` and
vertical mode constants

    beta_n = sqrt(k^2 - |alpha_n|^2)   (>= 0 real for propagating modes),
           = i sqrt(|alpha_n|^2 - k^2) (decaying for evanescent modes).

Modes with ``|beta_n|`` at or below ``WOOD_TOL * k`` are excluded outright:
the degenerate frequencies are assumed away by the model, and we convert
that assumption into a guarded error at construction time.

The refractive index q(x1) of a slab is a :class:`TrigPoly`, the one type
for its Fourier coefficients: evaluation, the Toeplitz matrix of the
Laurent product, conjugation, differences and the q-weighted overlap
(1/2pi) int q a conj(b) dx1 row by row over a batch, the one pairing that
the reciprocity gap and the moment kernel A1 share, all live there.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import TruncationMismatch, ValidationError, WoodAnomaly

# A mode with |beta_n| <= WOOD_TOL * k sits on a Wood anomaly, a degenerate
# frequency the model assumes away; build_modeset reads it at each call.
WOOD_TOL = 1e-8


class TrigPoly(dict):
    """Trigonometric polynomial q(x1) = sum_j c_j e^{i j x1} as ``{j: c_j}``.

    A dict with int keys and complex values, kept in the caller's key order:
    sums over the coefficients run in that order.  A key that is not
    ``numbers.Integral`` (``1.0`` is not) raises ValidationError.  It is a
    value: every in-place change raises TypeError.
    """

    def __init__(self, coeffs):
        # a plain int skips the ABC check, which would quadruple the cost of a build
        bad = [j for j in coeffs if type(j) is not int and not isinstance(j, numbers.Integral)]
        if bad:
            raise ValidationError(f"lattice.TrigPoly: Fourier index {bad[0]!r} is not an integer")
        super().__init__((int(j), complex(c)) for j, c in coeffs.items())

    def _immutable(self, *args, **kwargs):
        raise TypeError("lattice.TrigPoly is immutable; build a new one")

    __setitem__ = __delitem__ = __ior__ = _immutable
    update = setdefault = pop = popitem = clear = _immutable

    def __reduce__(self):
        return TrigPoly, (dict(self),)

    @property
    def degree(self) -> int:
        return max((abs(j) for j in self), default=0)

    @property
    def mean(self) -> complex:
        return self.get(0, 0.0 + 0.0j)

    def __call__(self, x1) -> np.ndarray:
        x1 = np.asarray(x1, dtype=float)
        out = np.zeros(x1.shape, dtype=complex)
        for j, c in self.items():
            out += c * np.exp(1j * j * x1)
        return out

    def conj(self) -> "TrigPoly":
        """Coefficients of conj(q(x1)): c_j -> conj(c_{-j})."""
        return TrigPoly({-j: np.conj(c) for j, c in self.items()})

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        """Difference over the union of keys: self's keys first, then other's new ones."""
        return TrigPoly({j: self.get(j, 0.0) - other.get(j, 0.0) for j in {**self, **other}})

    def overlap(self, a, b) -> np.ndarray:
        """(1/2pi) int_0^{2pi} q a_p conj(b_p) dx1 for each row p of a batch.

        ``a`` and ``b`` hold P rows of coefficients indexed -Ma..Ma and
        -Mb..Mb along axis 1; any trailing axes must match and are summed.
        Row p sums index-matched terms only: sum_j c_j sum_i a[p, i - j] conj(b[p, i]).
        """
        P, Ma, Mb = len(a), (a.shape[1] - 1) // 2, (b.shape[1] - 1) // 2
        dots = np.zeros((len(self), P), dtype=complex)  # one contiguous dot per row and c_j
        for i, j in enumerate(self):
            lo, hi = max(-Mb, j - Ma), min(Mb, j + Ma)
            if lo <= hi:
                np.vecdot(b[:, lo + Mb:hi + Mb + 1].reshape(P, -1),
                          a[:, lo - j + Ma:hi - j + Ma + 1].reshape(P, -1), out=dots[i])
        return np.fromiter(self.values(), complex, len(self)) @ dots

    def toeplitz(self, n: int) -> np.ndarray:
        """n x n Laurent-product matrix T[a, b] = c_{a-b}; terms with |j| >= n drop out."""
        # first column c_0 .. c_{n-1}, first row c_0, c_{-1} .. c_{1-n}
        col, row = np.array([[self.get(s * j, 0) for j in range(n)] for s in (1, -1)], dtype=complex)
        return scipy.linalg.toeplitz(col, row)


def _check_angles(where: str, theta1: float, theta2: float) -> None:
    """Refuse a non-finite angle, on which math.cos raises or returns NaN, and
    a theta1 outside (0, pi), which gives no downgoing wave."""
    if not (math.isfinite(theta1) and math.isfinite(theta2)):
        raise ValidationError(
            f"{where}: the angles theta1, theta2 must be finite, got {theta1!r}, {theta2!r}")
    if not 0.0 < theta1 < math.pi:
        raise ValidationError(
            f"{where}: need 0 < theta1 < pi (a downgoing wave), got theta1 = {theta1!r}")


def _sqrt_up(z):
    """Square root with Im >= 0 (decay upward); positive root on the real axis."""
    g = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(g.imag < 0, -g, g)


def _check_k(where: str, k: float) -> None:
    """Refuse a k that is not > 0 or whose square overflows: k^2 scales every mode constant."""
    if not math.isfinite(float(k) * float(k)):
        raise ValidationError(f"{where}: k must be finite with a finite square, got {float(k)!r}")
    if k <= 0:
        raise ValidationError(f"{where}: k must be > 0")


@dataclass(frozen=True)
class Quasimomentum:
    """Horizontal quasimomentum (alpha1, alpha2) of the incident field."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise ValidationError("lattice.Quasimomentum: components must be finite")

    @classmethod
    def from_angles(cls, k: float, theta1: float, theta2: float) -> "Quasimomentum":
        """Quasimomentum of a plane wave with direction angles (theta1, theta2).

        The propagation direction is
        ``d = (cos(theta1)cos(theta2), cos(theta1)sin(theta2), -sin(theta1))``
        with ``0 < theta1 < pi`` so the wave travels downward.
        """
        if k <= 0:
            raise ValidationError("lattice.Quasimomentum.from_angles: k must be > 0")
        _check_angles("lattice.Quasimomentum.from_angles", theta1, theta2)
        return cls(k * math.cos(theta1) * math.cos(theta2),
                   k * math.cos(theta1) * math.sin(theta2))


class ModeSet:
    """Truncated mode lattice: |n1|, |n2| <= N, with alpha_n, beta_n and flags.

    Modes are stored flattened, grouped by n2 (n1 varies fastest), which keeps
    the x2-decoupled blocks of the layer solver contiguous.
    """

    def __init__(self, k: float, alpha: Quasimomentum, N: int, n1, n2, alpha_n, beta, propagating):
        self.k = k
        self.alpha = alpha
        self.N = N
        self.n1 = n1
        self.n2 = n2
        self.alpha_n = alpha_n
        self.beta = beta
        self.propagating = propagating
        self.num_modes = n1.size
        self.block_size = 2 * N + 1

    def index_of(self, n1: int, n2: int) -> int:
        if abs(n1) > self.N or abs(n2) > self.N:
            raise ValidationError(f"lattice.ModeSet: mode ({n1},{n2}) outside truncation N={self.N}")
        return (n2 + self.N) * self.block_size + (n1 + self.N)

    @property
    def mode0(self) -> int:
        return self.index_of(0, 0)

    def require_same(self, other: "ModeSet", where: str = "") -> None:
        if (self.N != other.N or self.k != other.k
                or self.alpha != other.alpha):
            raise TruncationMismatch(f"{where}: operands built over different mode sets")

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(np.array([self.k, self.alpha.alpha1, self.alpha.alpha2,
                           self.N, WOOD_TOL * self.k]).tobytes())
        return h.hexdigest()[:16]

    def phases(self, points) -> np.ndarray:
        """Quasi-periodic phases exp(i alpha_n . x') at points; shape (P, num_modes).

        Only the first two columns (x1, x2) of ``points`` are read, so a field
        with coefficients c_n takes the values ``phases(points) @ c`` there.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(1j * (np.outer(pts[:, 0], self.alpha_n[:, 0])
                            + np.outer(pts[:, 1], self.alpha_n[:, 1])))


def build_modeset(k: float, alpha: Quasimomentum, N: int) -> ModeSet:
    """Build the truncated mode lattice for wavenumber k and quasimomentum alpha.

    Construction fails with :class:`WoodAnomaly` if any mode constant
    satisfies ``|beta_n| <= WOOD_TOL * k``.
    """
    _check_k("lattice.build_modeset", k)
    if not isinstance(N, numbers.Integral) or N < 0:
        raise ValidationError(f"lattice.build_modeset: N must be an integer >= 0, got {N!r}")
    a1_max, a2_max = abs(alpha.alpha1) + N, abs(alpha.alpha2) + N
    if not math.isfinite(a1_max * a1_max + a2_max * a2_max):   # the largest |alpha_n|^2
        raise ValidationError(
            f"lattice.build_modeset: |alpha + n|^2 overflows at alpha = "
            f"({alpha.alpha1!r}, {alpha.alpha2!r}), N = {N}")

    idx = np.arange(-N, N + 1)
    n2, n1 = np.meshgrid(idx, idx, indexing="ij")  # n2-major, n1 fastest
    n1 = n1.ravel()
    n2 = n2.ravel()
    a1 = alpha.alpha1 + n1
    a2 = alpha.alpha2 + n2
    alpha_n = np.stack([a1, a2, np.zeros_like(a1, dtype=float)], axis=1)
    disc = k * k - (a1 * a1 + a2 * a2)
    propagating = disc > 0
    beta = _sqrt_up(disc)
    tol = WOOD_TOL * k
    bad = np.abs(beta) <= tol
    if np.any(bad):
        j = int(np.argmax(bad))
        raise WoodAnomaly(
            f"lattice.build_modeset: |beta| <= {tol:g} at mode ({n1[j]},{n2[j]})",
            mode=(int(n1[j]), int(n2[j])))
    return ModeSet(k, alpha, N, n1, n2, alpha_n, beta, propagating)
