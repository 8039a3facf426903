"""Oracles for the tests: checks and reference solvers that the runtime pipeline never runs.

The pipeline uses the separable fields E = (0, 0, v(x1) u(x2)) and the layer
fields only through closed-form overlaps and modal coefficients.  The
functions here evaluate those fields at points and report how well they
satisfy their equations, which only a test needs.  The Sturm-Liouville
spectrum has a dense reference too: one eigensolve of the full Galerkin
matrix, against which the band solver of :mod:`gratescat.sturm` is checked.
Test modules import this file as ``oracles``; pytest does not collect it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from gratescat.errors import ValidationError
from gratescat.forward import _toeplitz_inverse, _wavenumbers
from gratescat.separable import TWO_PI, TransverseFactor
from gratescat.sturm import SLEntry, SLProblem, SLSpectrum, _key


class LambdaMismatch(ValidationError):
    """Transverse factor and eigenpair were built from inconsistent values."""


def derivative2_residual(u: TransverseFactor, x2) -> float:
    """max |u'' - mu u| / max |mu u| on sample points inside the cell."""
    v = u._cell_values(np.asarray(x2, dtype=float))
    upp = u.sqrt_mu * u.sqrt_mu * v
    scale = float(np.max(np.abs(u.mu * v))) + 1e-300
    return float(np.max(np.abs(upp - u.mu * v))) / scale


def seam_defect(u: TransverseFactor) -> float:
    """|u(2pi) - e^{2 pi i alpha2} u(0)| relative to the endpoint scale."""
    u0, u1 = u._cell_values(np.array([0.0, TWO_PI]))
    scale = max(abs(u0), abs(u1), 1e-300)
    return abs(u1 - np.exp(1j * TWO_PI * u.alpha2) * u0) / scale


def eigenfunction_derivative2(spectrum: SLSpectrum, entry: SLEntry, x1) -> np.ndarray:
    """v''(x1) of a longitudinal eigenfunction, from its Fourier coefficients."""
    m = np.arange(-spectrum.problem.M, spectrum.problem.M + 1)
    x1 = np.asarray(x1, dtype=float)
    w = -(m + spectrum.problem.alpha1) ** 2
    return np.exp(1j * np.outer(x1, m + spectrum.problem.alpha1)) @ (w * entry.coeffs)


@dataclass
class SeparableSolution:
    """E = (0, 0, v(x1) u(x2)); the trace on the plate vanishes identically."""

    spectrum: SLSpectrum
    entry: SLEntry
    u: TransverseFactor

    def residual_report(self, points) -> dict:
        """Pointwise residual of -Lap E3 - k^2 q E3, relative to the field scale."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        prob = self.spectrum.problem
        v = self.spectrum.eigenfunction_values(self.entry, pts[:, 0])
        vpp = eigenfunction_derivative2(self.spectrum, self.entry, pts[:, 0])
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
            f"oracles.build_separable: transverse parameter {u.mu!r} is not the "
            f"negative of the eigenvalue {entry.lam!r}")
    return SeparableSolution(spectrum, entry, u)


def q_at(profile, x1, x3) -> np.ndarray:
    """q of a layer profile at the points x1 and height x3 (a float, or an array as long as x1)."""
    q = np.array([s.coeffs(x1) for s in profile.slabs])
    return q[profile.slab_of(x3), np.arange(len(x1))]


def layer_residual(field, points) -> dict:
    """Pointwise residual of (curl curl - k^2 q) E of a LayerField, relative to the field scale.

    curl E = i k H holds identically in the modal representation, so the
    residual reduces to i k curl H - k^2 q E with q evaluated pointwise;
    what remains is the spectral aliasing of the q-product.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ms = field.modeset
    k = ms.k
    E, H, dE, dH = field.mode_coefficients(pts[:, 2], derivatives=True)
    a1, a2 = ms.alpha_n[:, 0, None], ms.alpha_n[:, 1, None]
    curl_h = np.empty_like(H)
    curl_h[:, 0] = 1j * a2 * H[:, 2] - dH[:, 1]
    curl_h[:, 1] = dH[:, 0] - 1j * a1 * H[:, 2]
    curl_h[:, 2] = 1j * a1 * H[:, 1] - 1j * a2 * H[:, 0]
    ph = ms.phases(pts)
    ev = np.einsum("pm,mcp->pc", ph, E)
    cv = np.einsum("pm,mcp->pc", ph, curl_h)
    q = q_at(field.profile, pts[:, 0], pts[:, 2])
    res = np.linalg.norm(1j * k * cv - k * k * q[:, None] * ev, axis=1)
    escale = float(np.max(np.linalg.norm(ev, axis=1)))
    scale = k * k * field.profile.q_inf * max(escale, 1e-300)
    return {"max_relative": float(np.max(res)) / scale,
            "pointwise": res, "scale": scale}


def block_operators(slab, modeset, slab_index: int):
    """The slab's propagation operators A, B stacked over the n2 blocks: (2N+1, 2mb, 2mb) each.

    Each mode of a ModalBasis satisfies A V = W gamma and B W = V gamma.
    """
    ms = modeset
    mb = ms.block_size
    k = ms.k
    d1, a2 = _wavenumbers(ms)
    c2 = a2[:, :, None]
    Q = slab.coeffs.toeplitz(mb)
    eye = np.eye(mb, dtype=complex)
    Qinv = _toeplitz_inverse(slab, Q, slab_index)
    A = np.zeros((2 * ms.N + 1, 2 * mb, 2 * mb), dtype=complex)
    B = np.zeros_like(A)
    d1Qinv = d1[:, None] * Qinv
    A[:, :mb, :mb] = (c2 / k) * d1Qinv
    A[:, :mb, mb:] = k * eye - (d1Qinv * d1[None, :]) / k
    A[:, mb:, :mb] = (c2 * c2 / k) * Qinv - k * eye
    A[:, mb:, mb:] = -(c2 / k) * (Qinv * d1[None, :])
    diag = np.arange(mb)
    B[:, diag, diag] = -(a2 / k) * d1
    B[:, :mb, mb:] = np.diag(d1 * d1 / k) - k * Q
    B[:, mb:, :mb] = k * Q - (c2 * c2 / k) * eye
    B[:, mb + diag, mb + diag] = (a2 / k) * d1
    return A, B


def eigen_residual(basis) -> float:
    """max_j ||M Phi_j - gamma_j Phi_j|| / ||M|| of a ModalBasis over its full eigen set."""
    A, B = block_operators(basis.slab, basis.modeset, basis.slab_index)
    mnorm = np.maximum(np.linalg.matrix_norm(A, ord=2), np.linalg.matrix_norm(B, ord=2))
    g = basis.gamma[:, None, :]
    ra = A @ basis.V - basis.W * g
    rb = B @ basis.W - basis.V * g
    res = np.sqrt(np.sum(np.abs(ra) ** 2, axis=1) + np.sum(np.abs(rb) ** 2, axis=1))
    scale = np.sqrt(np.sum(np.abs(basis.W) ** 2, axis=1) + np.sum(np.abs(basis.V) ** 2, axis=1))
    return float(np.max(res / (scale * mnorm[:, None])))


def exponents(basis) -> np.ndarray:
    """All propagation exponents of a ModalBasis, both signs, flattened over blocks."""
    return np.concatenate([basis.gamma.ravel(), -basis.gamma.ravel()])


def moment_entry(table, l: int, m: int):
    """The MomentEntry of a MomentTable at (l, m)."""
    for e in table.entries:
        if e.l == l and e.m == m:
            return e
    raise ValidationError(f"oracles.moment_entry: no entry (l={l}, m={m})")


def sl_matrix(problem: SLProblem) -> np.ndarray:
    """The dense Galerkin matrix A[m, m'] = -(m + alpha1)^2 delta + k^2 qhat_{m - m'}, m = -M..M."""
    m = np.arange(-problem.M, problem.M + 1)
    A = problem.k ** 2 * problem.coeffs.toeplitz(m.size)
    A[m + problem.M, m + problem.M] -= (m + problem.alpha1) ** 2
    return A


def decided_by_peak(vecs) -> dict:
    """{column j: row} for each eigenvector column that alone peaks at its row."""
    peaks = np.argmax(np.abs(vecs), axis=0)
    count = np.bincount(peaks, minlength=len(vecs))
    return {j: int(row) for j, row in enumerate(peaks) if count[row] == 1}


def dense_spectrum(problem: SLProblem) -> SLSpectrum:
    """Every eigenpair of the dense Galerkin matrix, from one scipy.linalg.eig.

    A pair is labelled (sign, n) only where its eigenvector alone peaks at the
    index m = sign n (:func:`decided_by_peak`); every other key is listed in
    ``undecided``.  Vectors have unit norm with the largest component real,
    as geev returns them, and are not scaled to v(0) = 1.  ``matrix_norm`` is
    the spectral radius max |lambda|, which scales each ``residual``.
    """
    A = sl_matrix(problem)
    lams, vecs = scipy.linalg.eig(A)
    rho = float(np.max(np.abs(lams)))
    residuals = np.linalg.norm(A @ vecs - vecs * lams, axis=0) / rho   # geev's vectors: unit norm
    spectrum = SLSpectrum(problem, matrix_norm=rho)
    for j, row in sorted(decided_by_peak(vecs).items(), key=lambda t: t[1]):
        sign, n = _key(row - problem.M)
        spectrum.entries[(sign, n)] = SLEntry(sign, n, complex(lams[j]), vecs[:, j].copy(),
                                              float(residuals[j]), False)
    for m in range(-problem.M, problem.M + 1):
        if _key(m) not in spectrum.entries:
            spectrum.undecided[_key(m)] = "oracles.dense_spectrum: no eigenvector alone peaks here"
    return spectrum
