"""Layer solver: boundary value problem, DtN map, and full scattering solve.

The medium occupies 0 < x3 < b over a perfectly conducting plane at x3 = 0 and
is resolved as a stack of x3-uniform slabs, each with refractive index
q = q(x1) given by a trigonometric polynomial (a :class:`TrigPoly`).
Expanding the field in lattice modes turns the Maxwell system inside a slab
into the first-order transverse system

    d/dx3 [E_t; H_t] = i [[0, A], [B, 0]] [E_t; H_t],

where (with D1 = diag(alpha1 + n1), D2 = diag(alpha2 + n2), Q = q.toeplitz(mb)
the Toeplitz matrix of q's x1-Fourier coefficients)

    A = [[ D1 Q^-1 D2 / k,  k - D1 Q^-1 D1 / k ],
         [ D2 Q^-1 D2 / k - k,  -D2 Q^-1 D1 / k ]],
    B = [[ -D1 D2 / k,  D1^2 / k - k Q ],
         [ k Q - D2^2 / k,  D2 D1 / k ]],

and the vertical components are recovered algebraically as
E3 = -(1/k) Q^-1 (D1 H2 - D2 H1), H3 = (1/k)(D1 E2 - D2 E1).

Because q depends on x1 only, modes with different n2 never couple: every
matrix above is block diagonal over n2.  The solver holds each slab's
eigenbasis and reflection matrices as arrays stacked over that block axis,
block ib holding the modes with n2 = ib - N, and runs every solve as one
batched call over the stack.  Mode-set order is n2-major, so an
(m, 3) coefficient array reshapes straight into blocks.

Within one slab the eigenproblem of M^2 = AB splits into two scalar families
relative to x1 whose n2 dependence is only a shift, as for the TE and TM
problems of a 1-D grating in conical mounting (Moharam, Grann, Pommet &
Gaylord, J. Opt. Soc. Am. A 12(5):1068, 1995):

    T_E = k^2 Q - D1^2,   T_M = k^2 Q - Q D1 Q^-1 D1,

both mb x mb and independent of n2.  Each eigenvalue kappa^2 gives the
exponent gamma = sqrt(kappa^2 - (alpha2 + n2)^2) in every block, and the
transverse profiles follow in closed form (see ``solve_layer_modes``), so a
slab costs two mb x mb eigensolves whatever the number of blocks.

Slabs are joined by a reflection-matrix recursion started at the conducting
plate (r = -I), which is the stable S-matrix composition for a stack with no
transmission channel.  Amplitudes are always referenced at the face where
their exponential is largest, so no growing factor is ever formed.

The product Q E uses the plain Laurent rule (direct coefficient convolution);
q enters only as a zeroth-order coefficient here, so no inverse-rule
factorization is warranted.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (EigenFailure, IllConditionedBasis, SingularMatch,
                     TruncationMismatch, ValidationError)
from .lattice import ModeSet, TrigPoly
from .rayleigh_dtn import RayleighField, TangentialField

COND_LIMIT = 1e12
_PROFILE_GRID = 512


def _sqrt_up(z):
    """Square root with Im >= 0 (decay upward); positive root on the real axis."""
    g = np.sqrt(np.asarray(z, dtype=complex))
    return np.where(g.imag < 0, -g, g)


class Slab:
    """One x3-uniform layer: thickness and q(x1) as a :class:`TrigPoly`.

    Zero coefficients are dropped and c_0 is always present (appended last
    when the caller gave none); otherwise the caller's key order is kept.
    """

    def __init__(self, height: float, coeffs: dict):
        if height <= 0:
            raise ValidationError("forward.Slab: height must be > 0")
        self.height = float(height)
        self.coeffs = TrigPoly({j: c for j, c in coeffs.items() if c != 0})
        if 0 not in self.coeffs:
            self.coeffs[0] = 0.0 + 0.0j

    @property
    def is_uniform(self) -> bool:
        return self.coeffs.degree == 0


class MediumProfile:
    """Refractive index of the layer: a list of slabs, varying in one direction.

    Admissibility: Re q >= gamma > 0 on a sampling grid, and Im q of one sign
    everywhere (nonnegative for physical media; the conjugated profiles used
    by the reciprocity identities have Im q <= 0 and are accepted on the same
    footing, since conjugating the whole problem restores well-posedness).
    """

    def __init__(self, slabs, direction: str = "x1"):
        if direction not in ("x1", "x2"):
            raise ValidationError("forward.MediumProfile: direction must be 'x1' or 'x2'")
        if not slabs:
            raise ValidationError("forward.MediumProfile: need at least one slab")
        self.slabs = list(slabs)
        self.direction = direction
        self.b = float(sum(s.height for s in self.slabs))
        grid = 2.0 * np.pi * np.arange(_PROFILE_GRID) / _PROFILE_GRID
        samples = np.concatenate([s.coeffs(grid) for s in self.slabs])
        self.gamma_lower = float(np.min(samples.real))
        self.q_inf = float(np.max(np.abs(samples)))
        self._im_min = float(np.min(samples.imag))
        self._im_max = float(np.max(samples.imag))

    @classmethod
    def uniform(cls, q0: complex, height: float) -> "MediumProfile":
        return cls([Slab(height, {0: q0})])

    @classmethod
    def from_coeffs(cls, coeffs: dict, height: float, direction: str = "x1") -> "MediumProfile":
        return cls([Slab(height, coeffs)], direction)

    def validate(self, require_absorbing: bool = False) -> None:
        tol = 1e-12 * max(1.0, self.q_inf)
        if self.gamma_lower <= 0:
            raise ValidationError(
                f"forward.MediumProfile: Re q must have a positive lower bound, found {self.gamma_lower:g}")
        if self._im_min < -tol and self._im_max > tol:
            raise ValidationError(
                "forward.MediumProfile: Im q changes sign; neither the profile nor its "
                "conjugate is admissible")
        if require_absorbing and self._im_max <= tol:
            raise ValidationError(
                "forward.MediumProfile: absorbing medium required (Im q > 0 somewhere)")

    def conjugate(self) -> "MediumProfile":
        return MediumProfile([Slab(s.height, s.coeffs.conj()) for s in self.slabs],
                             self.direction)

    def slab_bounds(self):
        z = np.concatenate([[0.0], np.cumsum([s.height for s in self.slabs])])
        return z

    def slab_of(self, x3: float) -> int:
        z = self.slab_bounds()
        if x3 < 0 or x3 > self.b:
            raise ValidationError(f"forward.MediumProfile: x3 = {x3:g} outside [0, {self.b:g}]")
        j = int(np.searchsorted(z, x3, side="right")) - 1
        return min(max(j, 0), len(self.slabs) - 1)

    def q_at(self, x1, x3: float) -> np.ndarray:
        return self.slabs[self.slab_of(x3)].coeffs(x1)

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.direction.encode())
        for s in self.slabs:
            h.update(np.float64(s.height).tobytes())
            for j in sorted(s.coeffs):
                h.update(np.int64(j).tobytes())
                h.update(np.complex128(s.coeffs[j]).tobytes())
        return h.hexdigest()[:16]


@dataclass(eq=False)
class ModalBasis:
    """Transverse eigenbasis of one slab, stacked over the n2 blocks.

    ``W``, ``V`` have shape (2N+1, 2mb, 2mb) and ``gamma`` (2N+1, 2mb), with
    mb = 2N+1 the block size.  Block ``ib`` holds the modes with n2 = ib - N;
    within a block, column j is the mode with tangential E profile W[ib, :, j]
    ([E1; E2] over n1 = -N..N), H profile V[ib, :, j] and exponent
    gamma[ib, j].  For a non-uniform slab columns 0..mb-1 are the TE family
    (E1 = 0) and columns mb..2mb-1 the TM family (H1 = 0), each in the order
    of its eigensolve; every W column has unit 2-norm.  A uniform slab has
    W = I.
    """

    modeset: ModeSet
    slab_index: int
    slab: Slab
    W: np.ndarray
    V: np.ndarray
    gamma: np.ndarray
    cond: float         # largest condition number of W over the blocks

    def exponents(self) -> np.ndarray:
        """All propagation exponents, both signs, flattened over blocks."""
        return np.concatenate([self.gamma.ravel(), -self.gamma.ravel()])

    def eigen_residual(self) -> float:
        """max_j ||M Phi_j - gamma_j Phi_j|| / ||M|| over the full eigen set."""
        A, B = _block_operators(self.slab, self.modeset, self.slab_index)
        mnorm = np.maximum(np.linalg.matrix_norm(A, ord=2), np.linalg.matrix_norm(B, ord=2))
        g = self.gamma[:, None, :]
        ra = A @ self.V - self.W * g
        rb = B @ self.W - self.V * g
        res = np.sqrt(np.sum(np.abs(ra) ** 2, axis=1) + np.sum(np.abs(rb) ** 2, axis=1))
        scale = np.sqrt(np.sum(np.abs(self.W) ** 2, axis=1) + np.sum(np.abs(self.V) ** 2, axis=1))
        return float(np.max(res / (scale * mnorm[:, None])))


def _to_blocks(modeset: ModeSet, coeffs) -> np.ndarray:
    """(m, >=2) coefficients -> (2N+1, 2mb) block vectors [c1-block; c2-block]."""
    nb = 2 * modeset.N + 1
    return coeffs[:, :2].reshape(nb, modeset.block_size, 2).transpose(0, 2, 1).reshape(nb, -1)


def _from_blocks(modeset: ModeSet, vecs) -> np.ndarray:
    """(2N+1, 2mb) block vectors -> (m, 3) coefficients with a zero third column."""
    out = np.zeros((modeset.num_modes, 3), dtype=complex)
    out[:, :2] = vecs.reshape(-1, 2, modeset.block_size).transpose(0, 2, 1).reshape(-1, 2)
    return out


def _wavenumbers(modeset: ModeSet):
    """alpha1 + n1 over one block, shape (mb,), and alpha2 + n2 per block, shape (2N+1, 1)."""
    n = np.arange(-modeset.N, modeset.N + 1)
    return modeset.alpha.alpha1 + n, (modeset.alpha.alpha2 + n)[:, None]


def _block_label(ib: int, nblocks: int, slab: int | None) -> str:
    where = f"block {ib} (n2 = {ib - (nblocks - 1) // 2})"
    return where if slab is None else f"slab {slab}, {where}"


def _guard(mats, stage: str, slab: int | None = None, error=SingularMatch) -> float:
    """Largest condition number over a stack of matrices, refused above COND_LIMIT.

    COND_LIMIT is read at call time.  A non-finite condition or one above the
    limit raises ``error`` naming the stage, the slab (when known) and the
    first failing n2 block.
    """
    conds = np.linalg.cond(mats)
    bad = np.flatnonzero(~(conds <= COND_LIMIT))
    if bad.size:
        ib = int(bad[0])
        raise error(f"{stage} condition {conds[ib]:.2e} exceeds {COND_LIMIT:g} at "
                    f"{_block_label(ib, len(conds), slab)}")
    return float(np.max(conds))


def _toeplitz_inverse(slab: Slab, Q: np.ndarray, slab_index: int) -> np.ndarray:
    """Inverse of the slab's Toeplitz factor Q; a singular Q raises EigenFailure."""
    if slab.is_uniform:
        return np.eye(len(Q), dtype=complex) / slab.coeffs.mean
    try:
        return np.linalg.inv(Q)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(
            f"forward.solve_layer_modes: q Toeplitz factor singular at slab {slab_index} ({exc})")


def _block_operators(slab: Slab, modeset: ModeSet, slab_index: int):
    """Assemble A, B stacked over the n2 blocks: (2N+1, 2mb, 2mb) each."""
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


def solve_layer_modes(profile: MediumProfile, slab_index: int, modeset: ModeSet) -> ModalBasis:
    """Eigen-decompose the transverse propagation system of one slab.

    For a uniform slab the system is already diagonal and the exponents are
    the mode constants of the shifted wavenumber k^2 -> k^2 q0.  Otherwise
    the TE and TM eigenproblems (module docstring) are solved once, and
    their eigenvectors are lifted to every n2 block in closed form:

        TE (T_E e = kappa^2 e):  W = [0; e],
                                 V = [-(kappa^2/k) e; (a2/k) D1 e] / gamma;
        TM (T_M h = kappa^2 h):  V = [0; h],
                                 W = [(kappa^2/k) Q^-1 h; -(a2/k) Q^-1 D1 h] / gamma,

    with a2 = alpha2 + n2 and gamma = sqrt(kappa^2 - a2^2).  These satisfy
    A V = W gamma and B W = V gamma exactly (for TM via
    Q^-1 T_M = k^2 - D1 Q^-1 D1).  Each W column is scaled to unit 2-norm and
    its V column by the same factor.
    """
    if profile.direction != "x1":
        raise ValidationError(
            "forward.solve_layer_modes: solver expects q = q(x1); swap the profile direction first")
    slab = profile.slabs[slab_index]
    ms = modeset
    if slab.is_uniform:
        _, B = _block_operators(slab, ms, slab_index)
        a1, a2 = _wavenumbers(ms)
        g = _sqrt_up(ms.k ** 2 * slab.coeffs.mean - a1 ** 2 - a2 ** 2)
        gamma = np.concatenate([g, g], axis=1)
        W = np.broadcast_to(np.eye(2 * ms.block_size, dtype=complex), B.shape)
        return ModalBasis(ms, slab_index, slab, W, B / gamma[:, None, :], gamma, 1.0)
    k = ms.k
    mb = ms.block_size
    d1, a2 = _wavenumbers(ms)
    Q = slab.coeffs.toeplitz(mb)
    Qinv = _toeplitz_inverse(slab, Q, slab_index)
    Qinv_d1 = Qinv * d1
    try:
        kte, e = scipy.linalg.eig(k * k * Q - np.diag(d1 * d1))
        ktm, h = scipy.linalg.eig(k * k * Q - Q @ (d1[:, None] * Qinv_d1))
    except (np.linalg.LinAlgError, ValueError) as exc:  # non-convergence, non-finite q
        raise EigenFailure(
            f"forward.solve_layer_modes: eigensolve failed at slab {slab_index} ({exc})")
    w2 = np.concatenate([kte, ktm]) - a2 * a2
    gamma = _sqrt_up(w2)
    bad = np.flatnonzero(~np.all(np.isfinite(w2), axis=1)
                         | np.any(np.abs(gamma) < 1e-12 * k, axis=1))
    if bad.size:
        raise EigenFailure(
            "forward.solve_layer_modes: non-finite or vanishing propagation exponent "
            f"(degenerate slab) at {_block_label(int(bad[0]), len(w2), slab_index)}")
    g_te, g_tm = gamma[:, :mb], gamma[:, mb:]
    e = e / np.linalg.norm(e, axis=0)
    x, y = Qinv @ h, Qinv_d1 @ h
    # 1 / ||W column|| of each TM mode in each block, before scaling
    tm_scale = k * np.abs(g_tm) / np.sqrt(np.abs(ktm) ** 2 * np.sum(np.abs(x) ** 2, axis=0)
                                          + np.abs(a2) ** 2 * np.sum(np.abs(y) ** 2, axis=0))
    W = np.zeros((2 * ms.N + 1, 2 * mb, 2 * mb), dtype=complex)
    V = np.zeros_like(W)
    W[:, mb:, :mb] = e
    V[:, :mb, :mb] = e * (-(kte / k) / g_te)[:, None, :]
    V[:, mb:, :mb] = (d1[:, None] * e) * ((a2 / k) / g_te)[:, None, :]
    W[:, :mb, mb:] = x * ((ktm / k) * tm_scale / g_tm)[:, None, :]
    W[:, mb:, mb:] = y * (-(a2 / k) * tm_scale / g_tm)[:, None, :]
    V[:, mb:, mb:] = h * tm_scale[:, None, :]
    cond = _guard(W, "forward.solve_layer_modes: eigenbasis", slab_index, IllConditionedBasis)
    return ModalBasis(ms, slab_index, slab, W, V, gamma, cond)


class _Stack:
    """Reflection recursion through the slab stack, batched over the n2 blocks.

    Per slab j, ``r[j]`` is the reflection matrix at the slab's bottom face
    and ``phi[j]`` its one-slab propagation factors; ``P[j]`` maps downgoing
    amplitudes at the top face to tangential E there, and ``top_H`` does the
    same for tangential H at the top of the stack.
    """

    def __init__(self, profile: MediumProfile, modeset: ModeSet):
        profile.validate()
        if profile.direction != "x1":
            raise ValidationError(
                "forward: solver expects q = q(x1); swap the profile direction first")
        self.profile = profile
        self.modeset = modeset
        self.bases = [solve_layer_modes(profile, j, modeset)
                      for j in range(len(profile.slabs))]
        self.qlu = [scipy.linalg.lu_factor(s.coeffs.toeplitz(modeset.block_size))
                    for s in profile.slabs]
        self.max_cond = 1.0
        self.r, self.phi, self.P = [], [], []
        eye = np.eye(2 * modeset.block_size)
        r = -eye
        for j, (slab, basis) in enumerate(zip(profile.slabs, self.bases)):
            if j > 0:
                self.max_cond = max(self.max_cond,
                                    _guard(self.P[-1], "forward: interface admittance", j))
                YW = H @ np.linalg.solve(self.P[-1], basis.W)
                r = self.solve(basis.V - YW, basis.V + YW, "forward: interface match", j)
            phi = np.exp(1j * basis.gamma * slab.height)
            r_top = (phi[:, :, None] * r) * phi[:, None, :]
            self.r.append(r)
            self.phi.append(phi)
            self.P.append(basis.W @ (r_top + eye))
            H = basis.V @ (r_top - eye)
        self.top_H = H

    def solve(self, mats, rhs, stage: str, slab: int | None = None):
        """Guarded batched solve; a stack of vectors ``rhs`` gives vectors back."""
        self.max_cond = max(self.max_cond, _guard(mats, stage, slab))
        if rhs.shape == mats.shape[:-1]:
            return np.linalg.solve(mats, rhs[..., None])[..., 0]
        return np.linalg.solve(mats, rhs)

    def downward_amplitudes(self, d):
        """Per-slab (u, d) amplitude pairs, top slab included, from the top-face d.

        The interface matrices were guarded when the stack was built.
        """
        amps = [None] * len(self.profile.slabs)
        for j in range(len(amps) - 1, -1, -1):
            u = np.matvec(self.r[j], self.phi[j] * d)
            amps[j] = (u, d)
            if j > 0:
                et_bot = np.matvec(self.bases[j].W, u + self.phi[j] * d)
                d = np.linalg.solve(self.P[j - 1], et_bot[..., None])[..., 0]
        return amps


class LayerField:
    """Modal representation of a field inside the layer stack."""

    def __init__(self, stack: _Stack, amplitudes):
        self.stack = stack
        self.modeset = stack.modeset
        self.profile = stack.profile
        self.amplitudes = amplitudes
        self._bounds = stack.profile.slab_bounds()

    def mode_coefficients(self, x3: float, derivatives: bool = False):
        """Modal E and H coefficient arrays (m, 3) at height x3.

        With ``derivatives=True`` also returns dE_t/dx3 and dH_t/dx3 packed in
        (m, 3) arrays whose third column holds H3-free values (zeros).
        """
        ms = self.modeset
        mb = ms.block_size
        j = self.profile.slab_of(x3)
        basis = self.stack.bases[j]
        u, d = self.amplitudes[j]
        ep = np.exp(1j * basis.gamma * (x3 - self._bounds[j]))
        em = np.exp(1j * basis.gamma * (self._bounds[j + 1] - x3))
        et = np.matvec(basis.W, ep * u + em * d)
        ht = np.matvec(basis.V, ep * u - em * d)
        a1, a2 = _wavenumbers(ms)
        rhs = (a1 * ht[:, mb:] - a2 * ht[:, :mb]).T
        e3 = -scipy.linalg.lu_solve(self.stack.qlu[j], rhs).T / ms.k
        h3 = (a1 * et[:, mb:] - a2 * et[:, :mb]) / ms.k
        E = _from_blocks(ms, et)
        H = _from_blocks(ms, ht)
        E[:, 2] = e3.reshape(-1)
        H[:, 2] = h3.reshape(-1)
        if derivatives:
            dE = _from_blocks(ms, np.matvec(basis.W, 1j * basis.gamma * (ep * u - em * d)))
            dH = _from_blocks(ms, np.matvec(basis.V, 1j * basis.gamma * (ep * u + em * d)))
            return E, H, dE, dH
        return E, H

    def tangential_trace(self, x3: float) -> TangentialField:
        E, _ = self.mode_coefficients(x3)
        out = E.copy()
        out[:, 2] = 0.0
        return TangentialField(self.modeset, out, x3)

    def values(self, points) -> np.ndarray:
        """Electric field values at (x1, x2, x3) points; shape (P, 3)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ms = self.modeset
        out = np.zeros((pts.shape[0], 3), dtype=complex)
        for i, pt in enumerate(pts):
            E, _ = self.mode_coefficients(pt[2])
            ph = (ms.phases(pt[:2][None, :])[0]
                  * np.exp(1j * (ms.alpha.alpha1 * pt[0] + ms.alpha.alpha2 * pt[1])))
            out[i] = ph @ E
        return out

    def residual_report(self, points) -> dict:
        """Pointwise residual of (curl curl - k^2 q) E, relative to the field scale.

        curl E = i k H holds identically in the modal representation, so the
        residual reduces to i k curl H - k^2 q E with q evaluated pointwise;
        what remains is the spectral aliasing of the q-product.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        ms = self.modeset
        k = ms.k
        res = np.zeros(pts.shape[0])
        escale = 0.0
        for i, pt in enumerate(pts):
            E, H, dE, dH = self.mode_coefficients(pt[2], derivatives=True)
            a1 = ms.alpha_n[:, 0]
            a2 = ms.alpha_n[:, 1]
            curl_h = np.empty_like(H)
            curl_h[:, 0] = 1j * a2 * H[:, 2] - dH[:, 1]
            curl_h[:, 1] = dH[:, 0] - 1j * a1 * H[:, 2]
            curl_h[:, 2] = 1j * a1 * H[:, 1] - 1j * a2 * H[:, 0]
            ph = (ms.phases(pt[:2][None, :])[0]
                  * np.exp(1j * (ms.alpha.alpha1 * pt[0] + ms.alpha.alpha2 * pt[1])))
            ev = ph @ E
            cv = ph @ curl_h
            q = complex(self.profile.q_at(pt[0], pt[2]))
            r = 1j * k * cv - k * k * q * ev
            res[i] = float(np.linalg.norm(r))
            escale = max(escale, float(np.linalg.norm(ev)))
        scale = k * k * self.profile.q_inf * max(escale, 1e-300)
        return {"max_relative": float(np.max(res)) / scale,
                "pointwise": res, "scale": scale}

    def pec_residual(self) -> float:
        """Norm of the tangential trace at the conducting plate, relative to scale."""
        E, _ = self.mode_coefficients(0.0)
        top, _ = self.mode_coefficients(self.profile.b)
        scale = max(float(np.max(np.abs(top))), float(np.max(np.abs(E))), 1e-300)
        return float(np.max(np.abs(E[:, :2]))) / scale


@dataclass
class QpbvpResult:
    field: LayerField
    trace: TangentialField       # T(f), tangential curl at Gamma_b
    condition: float


@dataclass
class DtnMap:
    """Dense matrix of the boundary map on tangential coefficients.

    Layout: a tangential field with coefficients (m, 3) is flattened as
    [all first components; all second components] (length 2m); the matrix maps
    the flattened boundary datum f = e3 x E to the flattened tangential curl.
    """

    matrix: np.ndarray
    modeset: ModeSet
    profile_digest: str
    modeset_digest: str

    def apply(self, f: TangentialField) -> TangentialField:
        f.modeset.require_same(self.modeset, "forward.DtnMap.apply")
        vec = np.concatenate([f.coeffs[:, 0], f.coeffs[:, 1]])
        out = self.matrix @ vec
        m = self.modeset.num_modes
        return TangentialField.from_components(self.modeset, out[:m], out[m:],
                                               height=f.height)


def solve_qpbvp(profile: MediumProfile, f: TangentialField, modeset: ModeSet) -> QpbvpResult:
    """Solve the layer problem with conducting plate below and trace f above.

    ``f`` is the rotated tangential trace e3 x E on Gamma_b.  Returns the
    interior field and T(f), the tangential trace of curl E on Gamma_b.
    """
    f.modeset.require_same(modeset, "forward.solve_qpbvp")
    stack = _Stack(profile, modeset)
    top = len(profile.slabs) - 1
    et = f.coeffs[:, [1, 0]] * [1, -1]     # f = e3 x E  =>  E_t = (f2, -f1)
    d = stack.solve(stack.P[top], _to_blocks(modeset, et), "forward.solve_qpbvp: trace match", top)
    trace = _from_blocks(modeset, 1j * modeset.k * np.matvec(stack.top_H, d))
    return QpbvpResult(LayerField(stack, stack.downward_amplitudes(d)),
                       TangentialField(modeset, trace, profile.b), stack.max_cond)


def assemble_dtn(profile: MediumProfile, modeset: ModeSet) -> DtnMap:
    """Assemble the dense boundary-map matrix, one 2mb x 2mb block per n2."""
    stack = _Stack(profile, modeset)
    ms = modeset
    m = ms.num_modes
    mb = ms.block_size
    nb = 2 * ms.N + 1
    # J maps block [f1; f2] to block [E1; E2] = [f2; -f1].
    J = np.kron([[0, 1], [-1, 0]], np.eye(mb))
    top = len(profile.slabs) - 1
    blocks = 1j * ms.k * stack.top_H @ stack.solve(stack.P[top], J,
                                                   "forward.assemble_dtn: trace match", top)
    # Matrix rows and columns split as (component, block, n1): scatter the
    # diagonal of the block axis.
    matrix = np.zeros((2 * m, 2 * m), dtype=complex)
    ib = np.arange(nb)
    matrix.reshape(2, nb, mb, 2, nb, mb)[:, ib, :, :, ib, :] = blocks.reshape(nb, 2, mb, 2, mb)
    return DtnMap(matrix, ms, profile.digest(), ms.digest())


@dataclass
class ScatteringResult:
    field: LayerField            # total field inside the layer
    scattered: RayleighField     # upgoing Rayleigh sequence, referenced at b
    incident: RayleighField      # downgoing expansion, referenced at 0
    trace_total: TangentialField
    condition: float


def _rho_diagonals(modeset: ModeSet):
    """Per-mode 2x2 entries of the map E_t -> [R(e3 x E)]_t."""
    ms = modeset
    a1 = ms.alpha_n[:, 0]
    a2 = ms.alpha_n[:, 1]
    ib = 1.0 / (1j * ms.beta)
    r11 = a1 * a2 * ib
    r12 = (ms.k ** 2 - a1 ** 2) * ib
    r21 = -(ms.k ** 2 - a2 ** 2) * ib
    r22 = -a1 * a2 * ib
    return r11, r12, r21, r22


def expand_incidence(incidence, modeset: ModeSet) -> RayleighField:
    """Downgoing modal expansion of a plane wave or dipole-sheet incidence."""
    from .greens import DipoleDensity, PlaneWaveIncidence, incident_from_density
    if isinstance(incidence, PlaneWaveIncidence):
        if abs(incidence.k - modeset.k) > 1e-12 * modeset.k:
            raise TruncationMismatch("forward.expand_incidence: wavenumber mismatch")
        if (abs(incidence.k * incidence.d[0] - modeset.alpha.alpha1) > 1e-10
                or abs(incidence.k * incidence.d[1] - modeset.alpha.alpha2) > 1e-10):
            raise TruncationMismatch(
                "forward.expand_incidence: plane-wave direction does not match the "
                "mode-set quasimomentum")
        coeffs = np.zeros((modeset.num_modes, 3), dtype=complex)
        coeffs[modeset.mode0] = incidence.p
        return RayleighField(modeset, coeffs, height=0.0, direction="down")
    if isinstance(incidence, DipoleDensity):
        return incident_from_density(incidence, modeset)
    if isinstance(incidence, RayleighField):
        if incidence.direction != "down":
            raise ValidationError("forward.expand_incidence: incident field must be downgoing")
        return incidence
    raise ValidationError(f"forward.expand_incidence: unsupported incidence {type(incidence)!r}")


def solve_scattering(profile: MediumProfile, incidence, modeset: ModeSet) -> ScatteringResult:
    """Full scattering solve with the transparent boundary condition at Gamma_b.

    The layer stack is coupled to the radiation condition through the modal
    form of the transparent-boundary operator; the right-hand side carries the
    incident tangential curl and rotated trace.
    """
    from .greens import DipoleDensity
    if isinstance(incidence, DipoleDensity) and incidence.height <= profile.b:
        raise ValidationError(
            f"forward.solve_scattering: dipole plane a = {incidence.height:g} must lie "
            f"above the layer height b = {profile.b:g}")
    stack = _Stack(profile, modeset)
    ms = modeset
    mb = ms.block_size
    incident0 = expand_incidence(incidence, ms)
    inc_b = incident0.rebase(profile.b)
    C = inc_b.coeffs
    a1 = ms.alpha_n[:, 0]
    a2 = ms.alpha_n[:, 1]
    beta = ms.beta
    r11, r12, r21, r22 = _rho_diagonals(ms)
    # Tangential curl of the incident field minus R applied to its rotated trace.
    g1 = 1j * (a2 * C[:, 2] + beta * C[:, 1]) - (r11 * C[:, 0] + r12 * C[:, 1])
    g2 = 1j * (-beta * C[:, 0] - a1 * C[:, 2]) - (r21 * C[:, 0] + r22 * C[:, 1])
    nb = 2 * ms.N + 1
    P = stack.P[-1]
    r11, r12, r21, r22 = (r.reshape(nb, mb, 1) for r in (r11, r12, r21, r22))
    rho_P = np.concatenate([r11 * P[:, :mb] + r12 * P[:, mb:],
                            r21 * P[:, :mb] + r22 * P[:, mb:]], axis=1)
    d = stack.solve(1j * ms.k * stack.top_H - rho_P, _to_blocks(ms, np.column_stack([g1, g2])),
                    "forward.solve_scattering: boundary match", len(profile.slabs) - 1)
    trace_total = TangentialField(ms, _from_blocks(ms, np.matvec(P, d)), profile.b)
    s_t = trace_total.coeffs[:, :2] - C[:, :2]
    s3 = -(a1 * s_t[:, 0] + a2 * s_t[:, 1]) / beta
    scat = np.zeros((ms.num_modes, 3), dtype=complex)
    scat[:, :2] = s_t
    scat[:, 2] = s3
    scattered = RayleighField(ms, scat, height=profile.b, direction="up")
    return ScatteringResult(LayerField(stack, stack.downward_amplitudes(d)), scattered, incident0,
                            trace_total, stack.max_cond)


def profile_from_mapping(mapping: dict) -> MediumProfile:
    """Build a MediumProfile from a flat text mapping (CLI config section).

    Keys: ``direction`` ('x1' or 'x2'), ``slabs`` (whitespace-separated heights),
    ``qcoef`` (lines of ``j re im``, one Fourier coefficient per line; repeated
    per slab via ``qcoef2``, ``qcoef3``, ... when the stack is layered).  A slab
    with no ``qcoefK`` of its own reuses slab 1's ``qcoef``, not the previous
    slab's coefficients.
    """
    direction = mapping.get("direction", "x1").strip()
    heights = [float(tok) for tok in mapping["slabs"].split()]
    if not heights:
        raise ValidationError("forward.profile_from_mapping: no slab heights given")
    slabs = []
    for i, h in enumerate(heights):
        key = "qcoef" if i == 0 else f"qcoef{i + 1}"
        if key not in mapping and i > 0:
            key = "qcoef"  # fall back to slab 1, not the previous slab
        coeffs = {}
        for line in mapping[key].strip().splitlines():
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValidationError(
                    f"forward.profile_from_mapping: qcoef line '{line}' is not 'j re im'")
            coeffs[int(parts[0])] = float(parts[1]) + 1j * float(parts[2])
        slabs.append(Slab(h, coeffs))
    return MediumProfile(slabs, direction)
