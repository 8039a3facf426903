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
from gratescat.forward import _from_blocks, _toeplitz_inverse, _wavenumbers
from gratescat.lattice import TrigPoly
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
        v = self.spectrum.eigenfunction_values([self.entry], pts[:, 0])[:, 0]
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


def layer_fields(field, x3, derivatives: bool = False):
    """Modal E and H of a LayerField at x3, each (m, 3) for a float x3 and (m, 3, P) for P heights.

    With ``derivatives`` also dE_t/dx3 and dH_t/dx3, third column zero.  The
    heights are grouped by ``MediumProfile.slab_of`` and gathered by index,
    and H3 = (1/k)(D1 E2 - D2 E1).  E is formed independently of
    ``LayerField.mode_coefficients``: complex exponentials for the propagation
    factors and E3 = -(1/k) Q^-1 (D1 H2 - D2 H1) from H_t = V (up - dn), so the
    two agree to rounding, not bit for bit (test_forward's ``_FIELD_TOL``).
    """
    ms = field.modeset
    mb = ms.block_size
    heights = np.asarray(x3, dtype=float)
    slab = np.atleast_1d(field.profile.slab_of(heights))
    bounds = field.profile.slab_bounds()
    a1, a2 = (w[..., None] for w in _wavenumbers(ms))
    out = [np.empty((ms.num_modes, 3, slab.size), dtype=complex)
           for _ in range(4 if derivatives else 2)]
    for j in np.unique(slab):
        at = np.flatnonzero(slab == j)
        h = heights.reshape(-1)[at]
        basis = field.stack.bases[j]
        u, d = field.amplitudes[j]
        g = basis.gamma[:, :, None]
        up = np.exp(1j * g * (h - bounds[j])) * u[:, :, None]
        dn = np.exp(1j * g * (bounds[j + 1] - h)) * d[:, :, None]
        vecs = [basis.W @ (up + dn), basis.V @ (up - dn)]
        if derivatives:
            vecs += [basis.W @ (1j * g * (up - dn)), basis.V @ (1j * g * (up + dn))]
        for o, vec in zip(out, vecs):
            o[..., at] = _from_blocks(ms, vec)
        et, ht = vecs[:2]
        e3 = -(basis.Qinv @ (a1 * ht[:, mb:] - a2 * ht[:, :mb])) / ms.k
        out[0][:, 2, at] = e3.reshape(-1, h.size)
        out[1][:, 2, at] = ((a1 * et[:, mb:] - a2 * et[:, :mb]) / ms.k).reshape(-1, h.size)
    return tuple(o[..., 0] if heights.ndim == 0 else o for o in out)


def pec_residual(field) -> float:
    """Norm of a LayerField's tangential E trace at the conducting plate, relative to scale."""
    E = layer_fields(field, np.array([0.0, field.profile.b]))[0]
    scale = max(float(np.max(np.abs(E))), 1e-300)
    return float(np.max(np.abs(E[:, :2, 0]))) / scale


def layer_residual(field, points) -> dict:
    """Pointwise residual of (curl curl - k^2 q) E of a LayerField, relative to the field scale.

    curl E = i k H holds identically in the modal representation, so the
    residual reduces to i k curl H - k^2 q E with q evaluated pointwise;
    what remains is the spectral aliasing of the q-product.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ms = field.modeset
    k = ms.k
    E, H, dE, dH = layer_fields(field, pts[:, 2], derivatives=True)
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
    scale = k * k * field.profile._sample_bounds[1] * max(escale, 1e-300)
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


def _transfer(profile, modeset):
    """Each slab's S_j = [[0, A_j], [B_j, 0]] (``block_operators``), and the propagators
    Phi_0 = I, Phi_(j+1) = expm(i S_j h_j) Phi_j, stacked over the n2 blocks.

    Within slab j, [E_t; H_t] at x3 = x + h is expm(i S_j h) [E_t; H_t] at x,
    so [E_t; H_t] at the bottom of slab j is Phi_j [E_t; H_t](0).
    """
    S, Phi = [], [np.eye(4 * modeset.block_size, dtype=complex)]
    for j, slab in enumerate(profile.slabs):
        A, B = block_operators(slab, modeset, j)
        mb2 = A.shape[1]
        S.append(np.zeros((A.shape[0], 2 * mb2, 2 * mb2), dtype=complex))
        S[j][:, :mb2, mb2:], S[j][:, mb2:, :mb2] = A, B
        Phi.append(scipy.linalg.expm(1j * slab.height * S[j]) @ Phi[j])
    return S, Phi


def dtn_transfer(profile, modeset) -> np.ndarray:
    """``assemble_dtn``'s n2 blocks from the slabs' propagators, with no eigensolve.

    E_t vanishes at the plate, so Phi = prod_j expm(i S_j h_j), from the plate
    up (``_transfer``), gives E_t(b) = Phi_EH h0 and H_t(b) = Phi_HH h0, and
    T = i k Phi_HH Phi_EH^-1 J with J f = [f2; -f1] = E_t.  Phi_EH has
    condition of order exp(2 max Im gamma b): keep N and b small.
    """
    mb2 = 2 * modeset.block_size
    Phi = _transfer(profile, modeset)[1][-1]
    # Phi_HH Phi_EH^-1 J: J swaps Phi_EH^-1's column halves, negating one
    HE = np.linalg.solve(Phi[:, :mb2, mb2:].transpose(0, 2, 1),
                         Phi[:, mb2:, mb2:].transpose(0, 2, 1)).transpose(0, 2, 1)
    mb = mb2 // 2
    return 1j * modeset.k * np.concatenate([-HE[..., mb:], HE[..., :mb]], axis=-1)


def field_transfer(profile, modeset, f, x3) -> np.ndarray:
    """``solve_qpbvp``'s E coefficients at heights x3, (m, 3, P), from the slabs' propagators.

    As in ``dtn_transfer``, E_t(b) = J f = Phi_EH(b) h0 gives h0, the H_t of
    the plate.  In slab j, [E_t; H_t](x3) = expm(i S_j (x3 - x3_j)) Phi_j
    [0; h0], x3_j the slab's bottom, and E3 = -(1/k) Q_j^-1 (D1 H2 - D2 H1)
    (the ``forward`` module docstring).  No eigensolve, lift, recursion or
    trace match.
    """
    ms = modeset
    mb, nb = ms.block_size, 2 * ms.N + 1
    S, Phi = _transfer(profile, ms)
    et = (f.coeffs[:, [1, 0]] * [1, -1]).reshape(nb, mb, 2).transpose(0, 2, 1)
    h0 = np.linalg.solve(Phi[-1][:, :2 * mb, 2 * mb:], et.reshape(nb, 2 * mb, 1))
    d1, a2 = _wavenumbers(ms)
    x3 = np.asarray(x3, dtype=float)
    out = np.empty((nb, mb, 3, x3.size), dtype=complex)
    for p, (h, j) in enumerate(zip(x3, profile.slab_of(x3))):
        slab = profile.slabs[j]
        Qinv = _toeplitz_inverse(slab, slab.coeffs.toeplitz(mb), j)
        grow = scipy.linalg.expm(1j * (h - profile.slab_bounds()[j]) * S[j])
        eh = (grow @ Phi[j][..., 2 * mb:] @ h0)[..., 0]
        out[:, :, 0, p], out[:, :, 1, p] = eh[:, :mb], eh[:, mb:2 * mb]
        out[:, :, 2, p] = -np.matvec(Qinv, d1 * eh[:, 3 * mb:] - a2 * eh[:, 2 * mb:3 * mb]) / ms.k
    return out.reshape(ms.num_modes, 3, x3.size)


def dtn_matrix(blocks, modeset) -> np.ndarray:
    """Dense 2m x 2m boundary map on [all f1; all f2] from ``assemble_dtn``'s n2 blocks."""
    m, mb, nb = modeset.num_modes, modeset.block_size, 2 * modeset.N + 1
    matrix = np.zeros((2 * m, 2 * m), dtype=complex)
    # Matrix rows and columns split as (component, block, n1): scatter the
    # diagonal of the block axis.
    ib = np.arange(nb)
    matrix.reshape(2, nb, mb, 2, nb, mb)[:, ib, :, :, ib, :] = blocks.reshape(nb, 2, mb, 2, mb)
    return matrix


def eigen_residual(basis, profile, slab_index: int) -> float:
    """max_j ||M Phi_j - gamma_j Phi_j|| / ||M|| of a slab's ModalBasis over its full eigen set."""
    A, B = block_operators(profile.slabs[slab_index], basis.modeset, slab_index)
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
                                              float(residuals[j]))
    for m in range(-problem.M, problem.M + 1):
        if _key(m) not in spectrum.entries:
            spectrum.undecided[_key(m)] = "oracles.dense_spectrum: no eigenvector alone peaks here"
    return spectrum


def dtn_n2_zero_block(q: TrigPoly, height: float, k: float, alpha1: float, N: int):
    """Closed-form T11 and T22 of one slab's DtN block where alpha2 + n2 = 0.

    There TE and TM decouple into scalar problems in q(x1), which separate
    exactly on one x3-uniform slab over the plate.  With Q = q.toeplitz(2N+1),
    D1 = diag(alpha1 + n1) and gamma = sqrt(kappa^2):
    T11 = V diag(gamma cot(gamma b)) V^-1 with (kappa^2, V) = eig(k^2 Q - D1^2), and
    T22 = k^2 H diag(cot(gamma b) / gamma) (Q^-1 H)^-1 with
    (kappa^2, H) = eig(k^2 Q - Q D1 Q^-1 D1).  T12 and T21 vanish.
    """
    Q = q.toeplitz(2 * N + 1)
    d1 = np.diag(alpha1 + np.arange(-N, N + 1))
    Qinv = np.linalg.inv(Q)
    kte, V = np.linalg.eig(k * k * Q - d1 @ d1)
    ktm, H = np.linalg.eig(k * k * Q - Q @ d1 @ Qinv @ d1)
    g_te, g_tm = np.sqrt(kte.astype(complex)), np.sqrt(ktm.astype(complex))
    t11 = V @ np.diag(g_te / np.tan(g_te * height)) @ np.linalg.inv(V)
    t22 = k * k * H @ np.diag(1 / (g_tm * np.tan(g_tm * height))) @ np.linalg.inv(Qinv @ H)
    return t11, t22


def _carry(T, y, dy, height):
    """(y, y') at the top of a slab of ``height`` where y'' = -T y, from (y, y') at its bottom."""
    kappa2, V = np.linalg.eig(T)
    g = np.sqrt(kappa2.astype(complex))[:, None]
    a, b = np.linalg.solve(V, y), np.linalg.solve(V, dy)
    c, s = np.cos(g * height), np.sin(g * height)
    return V @ (c * a + (s / g) * b), V @ (c * b - (g * s) * a)


def dtn_n2_zero_stack(slabs, k: float, alpha1: float, N: int):
    """T11 and T22 of a slab stack's DtN block where alpha2 + n2 = 0, by transfer recursion.

    ``slabs`` lists (height, q) from the plate up.  In each slab the TE field
    u solves u'' = -(k^2 Q - D1^2) u and the TM field v solves
    v'' = -(k^2 Q - Q D1 Q^-1 D1) v (``dtn_n2_zero_block``).  From u = 0,
    u' = I and v = I, Q^-1 v' = 0 at the plate, (u, u') and (v, Q^-1 v') are
    carried up each slab with cos and sin of gamma in its eigenbasis, and are
    continuous across each face.  At the top, T11 = u' u^-1 and
    T22 = -k^2 v (Q^-1 v')^-1.  Shares no code with the forward solver.
    """
    eye = np.eye(2 * N + 1, dtype=complex)
    d1 = np.diag(alpha1 + np.arange(-N, N + 1))
    u, du, v, w = 0 * eye, eye, eye, 0 * eye
    for height, q in slabs:
        Q = q.toeplitz(2 * N + 1)
        Qinv = np.linalg.inv(Q)
        u, du = _carry(k * k * Q - d1 @ d1, u, du, height)
        v, dv = _carry(k * k * Q - Q @ d1 @ Qinv @ d1, v, Q @ w, height)
        w = Qinv @ dv
    return du @ np.linalg.inv(u), -k * k * v @ np.linalg.inv(w)
