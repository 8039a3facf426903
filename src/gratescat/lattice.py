"""Mode bookkeeping on the 2pi x 2pi cell.

Everything downstream is expanded in the lattice of Fourier modes
``n = (n1, n2)`` with horizontal wavevectors ``alpha_n = alpha + n`` and
vertical mode constants

    beta_n = sqrt(k^2 - |alpha_n|^2)   (>= 0 real for propagating modes),
           = i sqrt(|alpha_n|^2 - k^2) (decaying for evanescent modes).

Modes with ``|beta_n|`` at or below a tolerance are excluded outright:
the degenerate frequencies are assumed away by the model, and we convert
that assumption into a guarded error at construction time.

The refractive index q(x1) of a slab is a :class:`TrigPoly`, the one type
for its Fourier coefficients: evaluation, the Toeplitz matrix of the
Laurent product, conjugation and differences all live there.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, TruncationMismatch, ValidationError, WoodAnomaly


class TrigPoly(dict):
    """Trigonometric polynomial q(x1) = sum_j c_j e^{i j x1} as ``{j: c_j}``.

    A dict with int keys and complex values, kept in the caller's key order:
    sums over the coefficients run in that order.
    """

    def __init__(self, coeffs):
        super().__init__((int(j), complex(c)) for j, c in coeffs.items())

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

    def toeplitz(self, n: int) -> np.ndarray:
        """n x n Laurent-product matrix T[a, b] = c_{a-b}; terms with |j| >= n drop out."""
        band = np.zeros(2 * n - 1, dtype=complex)
        for j, c in self.items():
            if abs(j) < n:
                band[j + n - 1] = c
        d = np.arange(n)
        return band[d[:, None] - d[None, :] + n - 1]


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
        if not (0.0 < theta1 < math.pi):
            raise ValidationError(
                "lattice.Quasimomentum.from_angles: need 0 < theta1 < pi for a downgoing wave"
            )
        return cls(k * math.cos(theta1) * math.cos(theta2),
                   k * math.cos(theta1) * math.sin(theta2))


class ModeSet:
    """Truncated mode lattice: |n1|, |n2| <= N, with alpha_n, beta_n and flags.

    Modes are stored flattened, grouped by n2 (n1 varies fastest), which keeps
    the x2-decoupled blocks of the layer solver contiguous.
    """

    def __init__(self, k: float, alpha: Quasimomentum, N: int, wood_tol: float,
                 n1, n2, alpha_n, beta, propagating):
        self.k = k
        self.alpha = alpha
        self.N = N
        self.wood_tol = wood_tol
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
                           self.N, self.wood_tol]).tobytes())
        return h.hexdigest()[:16]

    def grid(self, size: int):
        """Uniform periodic grid (size x size) over the cell; returns X1, X2."""
        x = 2.0 * np.pi * np.arange(size) / size
        return np.meshgrid(x, x, indexing="ij")

    # Quasi-periodic phase of the cell expansion at arbitrary points.
    def phases(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.exp(1j * (np.outer(pts[:, 0], self.n1) + np.outer(pts[:, 1], self.n2)))


def build_modeset(k: float, alpha: Quasimomentum, N: int,
                  wood_tol: float | None = None) -> ModeSet:
    """Build the truncated mode lattice for wavenumber k and quasimomentum alpha.

    ``wood_tol`` defaults to ``1e-8 * k``; construction fails with
    :class:`WoodAnomaly` if any mode constant satisfies ``|beta_n| <= wood_tol``.
    """
    if k <= 0:
        raise ValidationError("lattice.build_modeset: k must be > 0")
    if N < 0:
        raise ValidationError("lattice.build_modeset: N must be >= 0")
    if wood_tol is None:
        wood_tol = 1e-8 * k
    if wood_tol <= 0:
        raise ValidationError("lattice.build_modeset: wood_tol must be > 0")

    idx = np.arange(-N, N + 1)
    n2, n1 = np.meshgrid(idx, idx, indexing="ij")  # n2-major, n1 fastest
    n1 = n1.ravel()
    n2 = n2.ravel()
    a1 = alpha.alpha1 + n1
    a2 = alpha.alpha2 + n2
    alpha_n = np.stack([a1, a2, np.zeros_like(a1, dtype=float)], axis=1)
    disc = k * k - (a1 * a1 + a2 * a2)
    propagating = disc > 0
    beta = np.where(propagating,
                    np.sqrt(np.maximum(disc, 0.0)) + 0j,
                    1j * np.sqrt(np.maximum(-disc, 0.0)))
    bad = np.abs(beta) <= wood_tol
    if np.any(bad):
        j = int(np.argmax(bad))
        raise WoodAnomaly(
            f"lattice.build_modeset: |beta| <= {wood_tol:g} at mode ({n1[j]},{n2[j]})",
            mode=(int(n1[j]), int(n2[j])))
    return ModeSet(k, alpha, N, wood_tol, n1, n2, alpha_n, beta, propagating)


class CellFunction:
    """A 2pi-biperiodic scalar as Fourier coefficients over a ModeSet."""

    def __init__(self, modeset: ModeSet, coeffs):
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (modeset.num_modes,):
            raise ValidationError("lattice.CellFunction: coefficient shape does not match mode set")
        self.modeset = modeset
        self.coeffs = coeffs


def analyze(modeset: ModeSet, samples) -> CellFunction:
    """Fourier-analyze uniform-grid samples of a periodic function.

    ``samples[i, j]`` must be the value at ``(2pi i/G1, 2pi j/G2)``.  Both grid
    sizes must be at least ``2N + 1`` so degree-N trigonometric polynomials are
    captured alias-free.
    """
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValidationError("lattice.analyze: samples must be a 2-d grid")
    g1, g2 = samples.shape
    need = 2 * modeset.N + 1
    if g1 < need or g2 < need:
        raise GridTooCoarse(
            f"lattice.analyze: grid {g1}x{g2} below alias-free bound {need} for N={modeset.N}")
    spec = np.fft.fft2(samples) / (g1 * g2)
    coeffs = spec[modeset.n1 % g1, modeset.n2 % g2]
    return CellFunction(modeset, coeffs)


def synthesize(cellfn: CellFunction, points) -> np.ndarray:
    """Evaluate a CellFunction at arbitrary (x1, x2) points."""
    ms = cellfn.modeset
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return ms.phases(pts[:, :2]) @ cellfn.coeffs
