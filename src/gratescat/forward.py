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
their exponential is largest, so no growing factor is ever formed.  At the
face between slab j-1 and slab j above it, the slab below presents
tangential fields E_t = P' d and H_t = H' d for its downgoing amplitudes d
there, with P' = W_{j-1}(r'_top + I) and H' = V_{j-1}(r'_top - I).  E_t
continuity gives W_j^-1 P' d = (r_j + I) x for slab j's downgoing
amplitudes x at that face, so H_t continuity reads M d = 2 V_j x with the
match M = V_j A - H' and A = W_j^-1 P', and

    r_j = 2 A (M^-1 V_j) - I,    d = 2 M^-1 V_j x

(the transfer form of the enhanced-transmittance recursion: Moharam, Grann,
Pommet & Gaylord, JOSA A 12:1077, 1995; L. Li, JOSA A 13:1024, 1996).
W_j^-1 comes in closed form from the lift's shared factors
(``ModalBasis.solve_W``), so each interface factors one matrix, M, which its
guard checks and solves; P' is never solved, and V_j^-1 is formed nowhere.
W and V apply through the same factors (``ModalBasis.apply_W``, ``apply_V``),
and at the plate, where r = -I, the bottom slab's P' and H' are column
scalings of its W and V (``_Stack._face``).

The product Q E uses the plain Laurent rule (direct coefficient convolution);
q enters only as a zeroth-order coefficient here, so no inverse-rule
factorization is warranted.

``solve_qpbvp``, ``assemble_dtn`` and ``solve_scattering`` get their stack
from ``_stack``.  A profile is an immutable value and holds its last stack: a
request on the same ModeSet object under the COND_LIMIT that holds now is
served from it, and any other request validates the profile, builds a new
stack and holds that one instead.  A stack lives as long as its profile or a
result that holds it: about 1.1 MiB at N = 8 with 2 slabs and 5.3 MiB at
N = 12 with 3 slabs.  It holds solved operators, not LU factors (``_Stack``),
and each slab's eigenbasis as its lift's factors, not as dense blocks
(``ModalBasis``), so a request on a held stack is batched products.  A built
stack never changes, apart from its trace-match inverse, formed once on first
use under the stack's COND_LIMIT, and the dense E_t and E3 maps of each slab
a field is evaluated in (``ModalBasis.W`` and ``ModalBasis.Z``), formed on
the first such evaluation: a (2N+1, 2mb, 2mb) and a (2N+1, mb, 2mb) array per
evaluated slab, 0.47 MB together at N = 8.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .errors import (EigenFailure, IllConditionedBasis, SingularMatch,
                     TruncationMismatch, ValidationError)
from .greens import DipoleDensity, PlaneWaveIncidence, incident_from_density
from .lattice import ModeSet, TrigPoly, _sqrt_up
from .rayleigh_dtn import RayleighField, TangentialField, _r_entries

# Largest 1-norm condition number any guarded matrix may have.  A slab
# eigenbasis reads its exact condition from the TE/TM lift's shared factors
# (``_lift_condition``); every matrix that is factored and solved (the
# interface matches, the trace match and the boundary match) reads the LAPACK
# gecon estimate from the LU factors its solve uses (Higham, ACM TOMS 14:381,
# 1988; see ``_guard``).
COND_LIMIT = 1e12
# Largest TE/TM eigensolve defect (``_eigen_defect``): random slabs of degree
# 1-3 at N <= 12 and k <= 1e60 read at most 6.3e-15, geev's basis at k >= 3e69 0.8.
_EIG_TOL = 1e-12
_PROFILE_GRID = 512
_getrf, _gecon, _getrs = scipy.linalg.get_lapack_funcs(("getrf", "gecon", "getrs"),
                                                       dtype=complex)


def _slab_index(bounds, x3):
    """Slab index of height x3 (an index array for an array) between the faces ``bounds``."""
    x = np.asarray(x3, dtype=float)
    outside = ~((0 <= x) & (x <= bounds[-1]))
    if np.any(outside):
        raise ValidationError(
            f"forward.MediumProfile: x3 = {x[outside][0]:g} outside [0, {bounds[-1]:g}]")
    j = np.minimum(np.searchsorted(bounds, x, side="right") - 1, len(bounds) - 2)
    return int(j) if j.ndim == 0 else j


def _read_only(self, name, *value):    # __setattr__ and __delattr__ of the immutable classes
    raise AttributeError(f"forward.{type(self).__name__} is immutable: cannot change {name!r}")


class Slab:
    """One x3-uniform layer: thickness and q(x1) as a :class:`TrigPoly`, both read-only.

    Zero coefficients are dropped and c_0 is always present (appended last
    when the caller gave none); otherwise the caller's key order is kept.
    """

    __slots__ = ("height", "coeffs")
    __setattr__ = __delattr__ = _read_only

    def __init__(self, height: float, coeffs: dict):
        if not (np.isfinite(height) and height > 0):
            raise ValidationError(f"forward.Slab: height must be finite and > 0, got {height!r}")
        q = TrigPoly({j: c for j, c in coeffs.items() if c != 0})
        if not all(np.isfinite(c) for c in q.values()):
            raise ValidationError("forward.Slab: Fourier coefficients of q must be finite")
        object.__setattr__(self, "height", float(height))
        object.__setattr__(self, "coeffs", q if 0 in q else TrigPoly({**q, 0: 0.0}))

    def __reduce__(self):
        return Slab, (self.height, self.coeffs)

    @property
    def is_uniform(self) -> bool:
        return self.coeffs.degree == 0


class MediumProfile:
    """Refractive index of the layer: a tuple of slabs, each with q = q(x1).

    A layer that varies along x2 is the x1 problem with alpha's two
    components swapped (theta2 -> pi/2 - theta2), so q(x1) is the only model.
    A profile is an immutable value.  It holds what it derives from its slabs:
    q's sampled bounds, its conjugate and its last layer stack (``_stack``).

    Admissibility: Re q >= gamma > 0 on a sampling grid, and Im q of one sign
    everywhere (nonnegative for physical media; the conjugated profiles used
    by the reciprocity identities have Im q <= 0 and are accepted on the same
    footing, since conjugating the whole problem restores well-posedness).
    """

    __setattr__ = __delattr__ = _read_only

    def __init__(self, slabs):
        slabs = tuple(slabs)
        if not slabs:
            raise ValidationError("forward.MediumProfile: need at least one slab")
        vars(self).update(slabs=slabs, b=float(sum(s.height for s in slabs)))  # past __setattr__

    def __reduce__(self):
        return MediumProfile, (self.slabs,)

    @functools.cached_property
    def _sample_bounds(self) -> tuple:
        """(min Re q, max |q|, min Im q, max Im q) on the sampling grid, sampled on first use."""
        grid = 2.0 * np.pi * np.arange(_PROFILE_GRID) / _PROFILE_GRID
        with np.errstate(over="ignore", invalid="ignore"):   # validate refuses a non-finite q
            q = np.concatenate([s.coeffs(grid) for s in self.slabs])
        return (float(np.min(q.real)), float(np.max(np.abs(q))),
                float(np.min(q.imag)), float(np.max(q.imag)))

    @classmethod
    def from_coeffs(cls, coeffs: dict, height: float) -> "MediumProfile":
        return cls([Slab(height, coeffs)])

    def validate(self, require_absorbing: bool = False) -> None:
        """Check admissibility; an inadmissible profile raises ValidationError."""
        gamma_lower, q_inf, im_min, im_max = self._sample_bounds
        if not math.isfinite(q_inf):
            raise ValidationError(
                f"forward.MediumProfile: q is not finite on the sampling grid (max |q| = {q_inf:g})")
        tol = 1e-12 * max(1.0, q_inf)
        if gamma_lower <= 0:
            raise ValidationError(
                f"forward.MediumProfile: Re q must have a positive lower bound, found {gamma_lower:g}")
        if im_min < -tol and im_max > tol:
            raise ValidationError(
                "forward.MediumProfile: Im q changes sign; neither the profile nor its "
                "conjugate is admissible")
        if require_absorbing and im_max <= tol:
            raise ValidationError(
                "forward.MediumProfile: absorbing medium required (Im q > 0 somewhere)")

    def conjugate(self) -> "MediumProfile":
        """The profile of conj(q), built on the first call and held."""
        if "_conjugate" not in vars(self):
            vars(self)["_conjugate"] = MediumProfile(
                [Slab(s.height, s.coeffs.conj()) for s in self.slabs])
        return vars(self)["_conjugate"]

    def slab_bounds(self):
        return np.concatenate([[0.0], np.cumsum([s.height for s in self.slabs])])

    def slab_of(self, x3):
        """Slab index of height x3 (an index array for an array); a face goes to the slab above."""
        return _slab_index(self.slab_bounds(), x3)

    def digest(self) -> str:
        h = hashlib.sha256()
        for s in self.slabs:
            h.update(np.float64(s.height).tobytes())
            for j in sorted(s.coeffs):
                h.update(np.int64(j).tobytes())
                h.update(np.complex128(s.coeffs[j]).tobytes())
        return h.hexdigest()[:16]


@dataclass(eq=False)
class ModalBasis:
    """Transverse eigenbasis of one slab, stacked over the n2 blocks, held as its lift's factors.

    Block ``ib`` holds the modes with n2 = ib - N, mb = 2N+1 of them per
    family; ``gamma`` (2N+1, 2mb) holds their exponents.  Within a block,
    column j of the E_t map W_b ([E1; E2] over n1 = -N..N) and of the H_t map
    V_b is the mode with exponent gamma[ib, j].  For a non-uniform slab
    columns 0..mb-1 are the TE family (E1 = 0) and columns mb..2mb-1 the TM
    family (H1 = 0), each in the order of its eigensolve, and every W column
    has unit 2-norm.  No block of W or V is held: every block is the same
    mb x mb factors under diagonal column scalings (``solve_layer_modes``),

        W_b = [[0, X S1_b], [E, Y S2_b]],
        V_b = [[E T1_b, 0], [D1 E T2_b, h T3_b]],

    with E, h, X = Q^-1 h and Y = Q^-1 D1 h shared by every block, and
    ``scales`` (5, 2N+1, mb) holding the diagonals of S1, S2, T1, T2 and T3.
    A uniform slab has W = I, no factors, and ``scales`` (4, 2N+1, mb)
    holding V's four diagonal mb x mb blocks (EE, EH, HE, HH).
    ``apply_W``, ``apply_V`` and ``solve_W`` apply W_b, V_b and W_b^-1 to a
    stack of matrices through the factors; ``E_inv``, ``X_inv`` and ``G``
    (mb x mb) are the shared factors of W^-1, None on a uniform slab.
    ``dense_W`` and ``dense_V`` form every block, column-scaled, and the
    stack build uses them only as temporaries.  ``W`` and ``Z``
    ((2N+1, mb, 2mb), mapping a block's (up - dn) amplitudes to E3) are the
    dense field maps: each is built on the first field evaluation in the slab
    and held, so a basis that no field is evaluated in forms neither.
    """

    modeset: ModeSet
    gamma: np.ndarray
    Qinv: np.ndarray    # inverse of the slab's Toeplitz factor Q, for E3
    cond: float         # largest exact 1-norm condition of W over the blocks, at least 1
    scales: np.ndarray
    E: np.ndarray | None = None
    h: np.ndarray | None = None
    X: np.ndarray | None = None
    Y: np.ndarray | None = None
    E_inv: np.ndarray | None = None
    X_inv: np.ndarray | None = None
    G: np.ndarray | None = None

    def apply_W(self, rhs) -> np.ndarray:
        """W_b rhs_b for every block b; rhs is (2N+1, 2mb, ncols).  A uniform slab returns rhs."""
        if self.E is None:
            return rhs
        mb = self.modeset.block_size
        s1, s2 = self.scales[:2, :, :, None]
        top, bottom = rhs[:, :mb], rhs[:, mb:]
        out = np.empty(rhs.shape, dtype=complex)
        out[:, :mb] = self.X @ (s1 * bottom)
        out[:, mb:] = self.E @ top + self.Y @ (s2 * bottom)
        return out

    def apply_V(self, rhs) -> np.ndarray:
        """V_b rhs_b for every block b; rhs is (2N+1, 2mb, ncols).  A uniform slab's V_b is four
        diagonal blocks, applied as row scalings."""
        mb = self.modeset.block_size
        top, bottom = rhs[:, :mb], rhs[:, mb:]
        out = np.empty(rhs.shape, dtype=complex)
        if self.E is None:
            ee, eh, he, hh = self.scales[:, :, :, None]
            out[:, :mb] = ee * top + eh * bottom
            out[:, mb:] = he * top + hh * bottom
            return out
        d1, _ = _wavenumbers(self.modeset)
        t1, t2, t3 = self.scales[2:, :, :, None]
        out[:, :mb] = self.E @ (t1 * top)
        out[:, mb:] = d1[:, None] * (self.E @ (t2 * top)) + self.h @ (t3 * bottom)
        return out

    def solve_W(self, rhs) -> np.ndarray:
        """W_b^-1 rhs_b for every block b; rhs is (2N+1, 2mb, ncols).

        W_b^-1 = [[a2_b G, E^-1], [S1_b^-1 X^-1, 0]] applies with three mb x mb
        factors shared by every block, so no block is factored or inverted.
        A uniform slab has W = I and returns rhs itself.
        """
        if self.G is None:
            return rhs
        mb = self.modeset.block_size
        top, bottom = rhs[:, :mb], rhs[:, mb:]
        _, a2 = _wavenumbers(self.modeset)
        out = np.empty(rhs.shape, dtype=complex)
        out[:, :mb] = a2[:, :, None] * (self.G @ top) + self.E_inv @ bottom
        out[:, mb:] = (self.X_inv @ top) / self.scales[0, :, :, None]
        return out

    def dense_W(self, scale=None) -> np.ndarray:
        """W_b diag(scale_b) for every block b, (2N+1, 2mb, 2mb), formed from the factors.

        ``scale`` is (2N+1, 2mb), all ones when omitted.
        """
        nb, mb = self.gamma.shape[0], self.modeset.block_size
        scale = np.ones(self.gamma.shape) if scale is None else scale
        out = np.zeros((nb, 2 * mb, 2 * mb), dtype=complex)
        if self.E is None:
            out[:, np.arange(2 * mb), np.arange(2 * mb)] = scale
            return out
        te, tm = scale[:, None, :mb], scale[:, None, mb:]
        out[:, :mb, mb:] = self.X * (self.scales[0, :, None] * tm)
        out[:, mb:, :mb] = self.E * te
        out[:, mb:, mb:] = self.Y * (self.scales[1, :, None] * tm)
        return out

    def dense_V(self, scale=None) -> np.ndarray:
        """V_b diag(scale_b) for every block b, (2N+1, 2mb, 2mb), formed from the factors.

        ``scale`` is (2N+1, 2mb), all ones when omitted.  The interface guard's
        right-hand side is this array, formed per use and never held.
        """
        nb, mb = self.gamma.shape[0], self.modeset.block_size
        scale = np.ones(self.gamma.shape) if scale is None else scale
        out = np.zeros((nb, 2 * mb, 2 * mb), dtype=complex)
        te, tm = scale[:, :mb], scale[:, mb:]
        if self.E is None:
            e, h = np.arange(mb), mb + np.arange(mb)
            ee, eh, he, hh = self.scales
            out[:, e, e], out[:, e, h] = ee * te, eh * tm
            out[:, h, e], out[:, h, h] = he * te, hh * tm
            return out
        d1, _ = _wavenumbers(self.modeset)
        t1, t2, t3 = self.scales[2:]
        out[:, :mb, :mb] = self.E * (t1 * te)[:, None, :]
        out[:, mb:, :mb] = (d1[:, None] * self.E) * (t2 * te)[:, None, :]
        out[:, mb:, mb:] = self.h * (t3 * tm)[:, None, :]
        return out

    @functools.cached_property
    def W(self) -> np.ndarray:
        """E_t map of every block, (2N+1, 2mb, 2mb), built on the first field evaluation and held.

        A uniform slab's is a read-only broadcast identity.
        """
        if self.E is None:
            mb2 = 2 * self.modeset.block_size
            return np.broadcast_to(np.eye(mb2, dtype=complex), (self.gamma.shape[0], mb2, mb2))
        return self.dense_W()

    @functools.cached_property
    def Z(self) -> np.ndarray:
        """E3 map of every block, (2N+1, mb, 2mb), built on the first field evaluation and held.

        E3 = -(1/k) Q^-1 (D1 H2 - D2 H1) with H_t = V_b (up - dn), so
        E3 = Z_b (up - dn) with Z_b = -(1/k) Q^-1 (D1 V_b[mb:] - a2_b V_b[:mb]).
        """
        mb = self.modeset.block_size
        a1, a2 = _wavenumbers(self.modeset)
        V = self.dense_V()
        return -(self.Qinv @ (a1[:, None] * V[:, mb:] - a2[:, :, None] * V[:, :mb])) / self.modeset.k


def _to_blocks(modeset: ModeSet, coeffs) -> np.ndarray:
    """(m, >=2) coefficients -> (2N+1, 2mb) block vectors [c1-block; c2-block]."""
    nb = 2 * modeset.N + 1
    return coeffs[:, :2].reshape(nb, modeset.block_size, 2).transpose(0, 2, 1).reshape(nb, -1)


def _from_blocks(modeset: ModeSet, vecs) -> np.ndarray:
    """(2N+1, 2mb, *rest) block vectors -> (m, 3, *rest) coefficients, third column zero."""
    m, rest = modeset.num_modes, vecs.shape[2:]
    out = np.zeros((m, 3, *rest), dtype=complex)
    out[:, :2] = vecs.reshape(-1, 2, modeset.block_size, *rest).swapaxes(1, 2).reshape(m, 2, *rest)
    return out


def _wavenumbers(modeset: ModeSet):
    """alpha1 + n1 over one block, shape (mb,), and alpha2 + n2 per block, shape (2N+1, 1)."""
    return modeset.alpha_n[:modeset.block_size, 0], modeset.alpha_n[::modeset.block_size, 1, None]


def _block_label(ib: int, nblocks: int, slab: int | None) -> str:
    where = f"block {ib} (n2 = {ib - (nblocks - 1) // 2})"
    return where if slab is None else f"slab {slab}, {where}"


def _guard(mats, rhs, stage: str, slab: int | None = None):
    """Solutions of a stack of matrices against ``rhs``, and their largest condition estimate.

    Guards every matrix that is solved: the interface matches, the trace
    match and the boundary match.  The slab eigenbases are not factored:
    they read their exact condition from ``_lift_condition`` and are inverted
    through ``ModalBasis.solve_W``.  Each block is factored once with LAPACK
    getrf, and gecon estimates its 1-norm condition number from those factors
    (Hager 1984; Higham, ACM TOMS 14:381, 1988).  The estimate of ||A^-1||_1
    is a lower bound, so the reading never exceeds kappa_1(A) beyond
    rounding.  COND_LIMIT is read at call time.  A non-finite block, an exact
    zero pivot or an estimate above the limit raises SingularMatch naming the
    stage, the slab (when known) and the first failing n2 block, in its
    message and its attributes.  Each block that passes is solved against
    its slice of ``rhs``, (nb, n) or (nb, n, nrhs), on the factors just
    checked, and no factor leaves: returns the largest estimate and the solutions.
    """
    anorms = np.max(np.sum(np.abs(mats), axis=-2), axis=-1)
    worst, out = 1.0, np.empty(rhs.shape, dtype=complex)
    for ib, (a, anorm) in enumerate(zip(mats, anorms)):
        cond = anorm            # nan or inf for a non-finite block
        if np.isfinite(anorm):
            lu, piv, info = _getrf(a)
            rcond = _gecon(lu, anorm)[0] if info == 0 else 0.0
            cond = 1.0 / rcond if rcond > 0 else np.inf
        if not cond <= COND_LIMIT:
            raise SingularMatch(f"{stage} condition {cond:.2e} exceeds {COND_LIMIT:g} at "
                                f"{_block_label(ib, len(mats), slab)}",
                                stage, slab, ib, float(cond), COND_LIMIT)
        worst = max(worst, cond)
        out[ib] = _getrs(lu, piv, rhs[ib])[0]
    return float(worst), out


def _toeplitz_inverse(slab: Slab, Q: np.ndarray, slab_index: int) -> np.ndarray:
    """Inverse of the slab's Toeplitz factor Q; a singular Q raises EigenFailure."""
    if slab.is_uniform:
        return np.eye(len(Q), dtype=complex) / slab.coeffs.mean
    try:
        return np.linalg.inv(Q)
    except np.linalg.LinAlgError as exc:
        raise EigenFailure(
            f"forward.solve_layer_modes: q Toeplitz factor singular at slab {slab_index} ({exc})")


def _lift_condition(e, x, y, ktm, a2, s1, s2, slab_index: int):
    """Exact 1-norm condition of every block of the lifted basis W, and W^-1's shared factors.

    W_b = [[0, x S1_b], [e, y S2_b]] with S1_b = diag(s1[b]), S2_b = diag(s2[b]),
    and W_b^-1 follows from e^-1, x^-1 and G = e^-1 y diag(1/ktm) x^-1, which
    every block shares (``solve_layer_modes``), so no block is factored.
    Returns the per-block conditions, shape (2N+1,), and (e^-1, x^-1, G).  A
    singular e or x, or a block whose condition is not <= COND_LIMIT (nan and
    inf included), raises IllConditionedBasis naming the slab and, for a
    block, the first one over.
    """
    stage = "forward.solve_layer_modes: eigenbasis"
    try:
        e_inv, x_inv = np.linalg.inv(e), np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedBasis(f"{stage} singular at slab {slab_index} ({exc})",
                                  stage, slab_index, None, np.inf, COND_LIMIT)
    g = e_inv @ (y / ktm) @ x_inv
    winv_norm = np.maximum(np.max(np.sum(np.abs(e_inv), axis=0)),
                           np.max(np.abs(a2) * np.sum(np.abs(g), axis=0)
                                  + (1 / np.abs(s1)) @ np.abs(x_inv), axis=1))
    w_norm = np.maximum(np.max(np.sum(np.abs(e), axis=0)),
                        np.max(np.abs(s1) * np.sum(np.abs(x), axis=0)
                               + np.abs(s2) * np.sum(np.abs(y), axis=0), axis=1))
    cond = w_norm * winv_norm
    over = np.flatnonzero(~(cond <= COND_LIMIT))
    if over.size:
        ib = int(over[0])
        raise IllConditionedBasis(
            f"{stage} condition {cond[ib]:.2e} exceeds {COND_LIMIT:g} at "
            f"{_block_label(ib, len(cond), slab_index)}",
            stage, slab_index, ib, float(cond[ib]), COND_LIMIT)
    return cond, (e_inv, x_inv, g)


def _eigen_defect(T, w, v) -> float:
    """max_j ||T v_j - w_j v_j|| / ||T||_1 of unit eigenvectors v_j, formed on T / ||T||_1
    so that nothing overflows at a large k."""
    t = np.linalg.norm(T, 1)
    return float(np.max(np.linalg.norm((T / t) @ v - v * (w / t), axis=0)))


def _exponents(w2, k: float, slab_index: int) -> np.ndarray:
    """Propagation exponents gamma = sqrt(w2), Im >= 0, of a slab's (block, mode) table.

    Both bases divide by gamma, so a non-finite w2 or |gamma| < 1e-12 k
    raises :class:`EigenFailure`, naming slab and block, before any division.
    """
    gamma = _sqrt_up(w2)
    bad = np.flatnonzero(~np.all(np.isfinite(w2), axis=1)
                         | np.any(np.abs(gamma) < 1e-12 * k, axis=1))
    if bad.size:
        raise EigenFailure(
            "forward.solve_layer_modes: non-finite or vanishing propagation exponent "
            f"(degenerate slab) at {_block_label(int(bad[0]), len(w2), slab_index)}")
    return gamma


def solve_layer_modes(profile: MediumProfile, slab_index: int, modeset: ModeSet) -> ModalBasis:
    """Eigen-decompose the transverse propagation system of one slab.

    For a uniform slab the system is already diagonal and the exponents are
    the mode constants of the shifted wavenumber k^2 -> k^2 q0.  Otherwise
    the TE and TM eigenproblems (module docstring) are solved once, and
    their eigenvectors are lifted to every n2 block in closed form (both
    paths check their exponents in ``_exponents`` before dividing by them):

        TE (T_E e = kappa^2 e):  W = [0; e],
                                 V = [-(kappa^2/k) e; (a2/k) D1 e] / gamma;
        TM (T_M h = kappa^2 h):  V = [0; h],
                                 W = [(kappa^2/k) Q^-1 h; -(a2/k) Q^-1 D1 h] / gamma,

    with a2 = alpha2 + n2 and gamma = sqrt(kappa^2 - a2^2).  These satisfy
    A V = W gamma and B W = V gamma exactly (for TM via
    Q^-1 T_M = k^2 - D1 Q^-1 D1).  Each W column is scaled to unit 2-norm and
    its V column by the same factor.

    So block b of W is W_b = [[0, X S1_b], [E, Y S2_b]], where E holds the
    normalised TE eigenvectors, X = Q^-1 h and Y = Q^-1 D1 h are shared by
    every block, and S1_b = diag((kappa_TM^2/k) s_b / gamma_TM) and
    S2_b = diag(-(a2_b/k) s_b / gamma_TM), with s_b the TM column scales, are
    diagonal.  Likewise V_b = [[E T1_b, 0], [D1 E T2_b, h T3_b]] with
    T1_b = diag(-(kappa_TE^2/k) / gamma_TE), T2_b = diag((a2_b/k) / gamma_TE)
    and T3_b = diag(s_b).  The basis holds E, h, X, Y and these five
    diagonals, never a block of W or V (``ModalBasis``).
    Since S2_b S1_b^-1 = -a2_b diag(1/kappa_TM^2),

        W_b^-1 = [[a2_b G, E^-1], [S1_b^-1 X^-1, 0]],
        G = E^-1 Y diag(1/kappa_TM^2) X^-1,

    and ``_lift_condition`` reads every block's exact 1-norm condition
    ||W_b||_1 ||W_b^-1||_1 from E^-1, X^-1 and G, formed once per slab: the
    column sums of W_b^-1 are colsum|E^-1|, shared, and
    |a2_b| colsum|G| + |S1_b^-1| |X^-1|, one product for all blocks.  The
    factor a2_b / kappa_TM^2 is where the lift loses its conditioning near a
    TE/TM coincidence.  ``ModalBasis.cond`` is the largest reading, at
    least 1; a uniform slab keeps W = I and reads 1.  Each of the two
    eigensolves must leave a scaled residual of at most ``_EIG_TOL``
    (``_eigen_defect``), or :class:`EigenFailure` names the family and slab.
    """
    slab = profile.slabs[slab_index]
    ms = modeset
    k = ms.k
    # k^2 sum_j |q_j| bounds every entry of k^2 Q; math.hypot overflows to inf, unwarned
    qsum = sum(math.hypot(c.real, c.imag) for c in slab.coeffs.values())
    if not math.isfinite(float(k) * float(k) * qsum):
        raise ValidationError(f"forward.solve_layer_modes: k^2 sum_j |q_j| is not finite at slab "
                              f"{slab_index} (k = {float(k):.3g})")
    mb = ms.block_size
    Q = slab.coeffs.toeplitz(mb)
    Qinv = _toeplitz_inverse(slab, Q, slab_index)
    d1, a2 = _wavenumbers(ms)
    if slab.is_uniform:
        q0 = slab.coeffs.mean
        w2 = k ** 2 * q0 - d1 ** 2 - a2 ** 2
        gamma = _exponents(np.concatenate([w2, w2], axis=1), k, slab_index)
        g_e, g_h = gamma[:, :mb], gamma[:, mb:]
        # V = B / gamma, where B = [[-(a2/k) D1, D1^2/k - k q0], [k q0 - a2^2/k, (a2/k) D1]]
        # has four diagonal mb x mb blocks
        scales = np.stack([-(a2 / k) * d1 / g_e, (d1 * d1 / k - k * q0) / g_h,
                           (k * q0 - a2 * a2 / k) / g_e, (a2 / k) * d1 / g_h])
        return ModalBasis(ms, gamma, Qinv, 1.0, scales)
    Qinv_d1 = Qinv * d1
    t_te, t_tm = k * k * Q - np.diag(d1 * d1), k * k * Q - Q @ (d1[:, None] * Qinv_d1)
    try:
        kte, e = scipy.linalg.eig(t_te)
        ktm, h = scipy.linalg.eig(t_tm)
    except (np.linalg.LinAlgError, ValueError) as exc:  # non-convergence, non-finite q
        raise EigenFailure(
            f"forward.solve_layer_modes: eigensolve failed at slab {slab_index} ({exc})")
    gamma = _exponents(np.concatenate([kte, ktm]) - a2 * a2, k, slab_index)
    g_te, g_tm = gamma[:, :mb], gamma[:, mb:]
    e = e / np.linalg.norm(e, axis=0)
    x, y = Qinv @ h, Qinv_d1 @ h
    # 1 / ||W column|| of each TM mode in each block, before scaling; at a
    # huge k its square |kappa_TM^2|^2 ||x||^2 + |a2|^2 ||y||^2 overflows
    try:
        with np.errstate(over="raise"):
            tm_norm2 = (np.abs(ktm) ** 2 * np.sum(np.abs(x) ** 2, axis=0)
                        + np.abs(a2) ** 2 * np.sum(np.abs(y) ** 2, axis=0))
    except FloatingPointError:
        stage = "forward.solve_layer_modes: eigenbasis"
        raise IllConditionedBasis(
            f"{stage} TM column scale overflows at slab {slab_index} (k = {k:.3g})",
            stage, slab_index, None, np.inf, COND_LIMIT) from None
    # geev's unit eigenvectors: a wrong basis at a huge k passes every other guard
    for family, T, w, v in (("TE", t_te, kte, e), ("TM", t_tm, ktm, h)):
        defect = _eigen_defect(T, w, v)
        if not defect <= _EIG_TOL:
            raise EigenFailure(
                f"forward.solve_layer_modes: {family} eigensolve residual {defect:.2e} "
                f"exceeds {_EIG_TOL:g} at slab {slab_index}")
    tm_scale = k * np.abs(g_tm) / np.sqrt(tm_norm2)
    s1, s2 = (ktm / k) * tm_scale / g_tm, -(a2 / k) * tm_scale / g_tm
    cond, (e_inv, x_inv, g) = _lift_condition(e, x, y, ktm, a2, s1, s2, slab_index)
    scales = np.stack([s1, s2, -(kte / k) / g_te, (a2 / k) / g_te, tm_scale])
    return ModalBasis(ms, gamma, Qinv, max(1.0, float(np.max(cond))), scales,
                      e, h, x, y, e_inv, x_inv, g)


class _Stack:
    """Reflection recursion through the slab stack, batched over the n2 blocks.

    Per slab j, ``r[j]`` is the reflection matrix at the slab's bottom face
    and ``phi[j]`` its one-slab propagation factors.  ``down[j - 1]`` is
    Y = 2 M^-1 V_j, solved on the match M = V_j W_j^-1 P' - H' at the face
    below slab j (module docstring), the one matrix each interface factors;
    it maps slab j's downgoing amplitudes there to slab j-1's at its top.
    ``top_H`` maps the downgoing amplitudes at the top of the stack to
    tangential H there, and ``top_P()`` to tangential E; ``top_P()`` is
    recomputed per call rather than kept, which keeps a held stack one array
    smaller, and ``trace_match`` holds its inverse once a request needs it.
    ``max_cond`` is the largest condition reading of the slab eigenbases
    (exact 1-norm condition, from the lift's shared factors) and of the
    interface matches (gecon estimates, from ``_guard``).  ``cond_limit`` is the
    COND_LIMIT that every guard of the stack read.
    """

    def __init__(self, profile: MediumProfile, modeset: ModeSet):
        self.modeset = modeset
        self.cond_limit = COND_LIMIT
        self.bases = [solve_layer_modes(profile, j, modeset)
                      for j in range(len(profile.slabs))]
        self.max_cond = max(basis.cond for basis in self.bases)
        self.r, self.phi, self.down = [], [], []
        self._trace = None
        r = -np.eye(2 * modeset.block_size)
        for j, (slab, basis) in enumerate(zip(profile.slabs, self.bases)):
            if j > 0:
                r, Y, cond = self._join(j)
                self.down.append(Y)
                self.max_cond = max(self.max_cond, cond)
            self.r.append(r)
            self.phi.append(np.exp(1j * basis.gamma * slab.height))
        self.top_H = self._face(-1, "H")

    def _join(self, j: int):
        """Reflection matrix at the bottom face of slab j > 0, with Y = 2 M^-1 V_j and M's condition.

        Slab j - 1 presents P' and H' (``_face``).  The step is a method of
        its own, and works in place where it can, so that its
        (2N+1, 2mb, 2mb) temporaries, the guard's right-hand side V_j among
        them, are freed before the next interface's.
        """
        basis = self.bases[j]
        A = basis.solve_W(self._face(j - 1, "E"))
        M = basis.apply_V(A)
        M -= self._face(j - 1, "H")
        cond, Y = _guard(M, basis.dense_V(), "forward: interface match", j)
        Y *= 2
        r = A @ Y
        diag = np.arange(r.shape[-1])
        r[:, diag, diag] -= 1
        return r, Y, cond

    def _r_top(self, j: int):
        """Reflection matrix at the top face of slab j."""
        r_top = self.phi[j][:, :, None] * self.r[j]
        r_top *= self.phi[j][:, None, :]
        return r_top

    def _face(self, j: int, field: str):
        """Map from slab j's downgoing amplitudes at its top face to tangential ``field`` there.

        ``field`` "E" gives P' = W_j(r'_top + I), "H" gives H' = V_j(r'_top - I)
        (module docstring), both applied through the lift's factors, a
        uniform slab's W as the identity.  At the plate r = -I, so the bottom
        slab's r'_top is -diag(phi^2), and both maps are column scalings of
        its W or V, formed with no product.
        """
        j %= len(self.bases)
        basis = self.bases[j]
        sign = 1.0 if field == "E" else -1.0
        if j == 0:
            scale = sign - self.phi[0] ** 2
            return basis.dense_W(scale) if field == "E" else basis.dense_V(scale)
        r_top = self._r_top(j)
        diag = np.arange(r_top.shape[-1])
        r_top[:, diag, diag] += sign
        return basis.apply_W(r_top) if field == "E" else basis.apply_V(r_top)

    def top_P(self):
        """Map from downgoing amplitudes at the top face to tangential E there."""
        return self._face(-1, "E")

    def trace_match(self, stage: str):
        """Condition estimate and inverse of ``top_P()``, guarded once under ``stage``."""
        if self._trace is None:
            P = self.top_P()
            self._trace = _guard(P, np.broadcast_to(np.eye(P.shape[-1]), P.shape), stage,
                                 len(self.bases) - 1)
        return self._trace

    def downward_amplitudes(self, d):
        """Per-slab (u, d) amplitude pairs, top slab included, from the top-face d.

        Below slab j the downgoing amplitudes are Y phi_j d, with Y = 2 M^-1 V_j
        (``down``) solved when the stack was built.
        """
        amps = [None] * len(self.bases)
        for j in range(len(amps) - 1, -1, -1):
            d_bot = self.phi[j] * d
            amps[j] = (np.matvec(self.r[j], d_bot), d)
            if j > 0:
                d = np.matvec(self.down[j - 1], d_bot)
        return amps


def _stack(profile: MediumProfile, modeset: ModeSet) -> _Stack:
    """The profile's stack on ``modeset``: the one it holds, if built on this
    ModeSet object under the COND_LIMIT that holds now.

    Otherwise the profile is validated and a new stack is built, whose guards
    raise as on any first build, and the profile holds it from then on.
    """
    held = vars(profile).get("_stack")
    if held is None or held.modeset is not modeset or held.cond_limit != COND_LIMIT:
        profile.validate()
        held = vars(profile)["_stack"] = _Stack(profile, modeset)
    return held


class LayerField:
    """Modal E field in the layer stack, held as the downgoing amplitudes at its top face.

    The per-slab (u, d) amplitudes are recursed down the stack on the first
    evaluation, so a solve whose field is never evaluated skips the recursion.
    """

    def __init__(self, profile: MediumProfile, stack: _Stack, top_amplitudes):
        self.stack = stack
        self.modeset = stack.modeset
        self.profile = profile
        self._top = top_amplitudes
        self._bounds = profile.slab_bounds()

    @functools.cached_property
    def amplitudes(self):
        return self.stack.downward_amplitudes(self._top)

    def mode_coefficients(self, x3) -> np.ndarray:
        """Modal E coefficients at height x3: (m, 3) for a float, (m, 3, P) for P heights.

        One batched pass per slab, a face going to the slab above; where the slab
        indices do not decrease (sorted heights), a slab's heights are one slice.
        E_t = W (up + dn) and E3 = Z (up - dn), with the slab's held E3 map
        ``ModalBasis.Z``.  The propagation factors e^{i gamma (h - lo)} and
        e^{i gamma (hi - h)} are formed as one phase e^{i Re gamma (h - lo)}
        (a cosine and a sine), its conjugate times e^{i Re gamma (hi - lo)}, and
        the decays e^{-Im gamma (h - lo)} and e^{-Im gamma (hi - h)}: every
        factor has modulus <= 1 (lo <= h <= hi, Im gamma >= 0), so none
        overflows and none is divided by another.
        """
        ms = self.modeset
        mb = ms.block_size
        flat = np.asarray(x3, dtype=float).reshape(-1)
        slab = _slab_index(self._bounds, flat)
        runs = bool(np.all(slab[1:] >= slab[:-1]))
        out = np.empty((ms.num_modes, 3, flat.size), dtype=complex)
        blocks = out.reshape(2 * ms.N + 1, mb, 3, flat.size)  # (n2, n1, component, height), a view
        for j in np.unique(slab):
            # a slice writes this strided view faster than an index array (gapcheck: ~10%)
            at = slice(*np.searchsorted(slab, (j, j + 1))) if runs else np.flatnonzero(slab == j)
            lo, hi = self._bounds[j], self._bounds[j + 1]
            h = flat[at]
            basis = self.stack.bases[j]
            u, d = self.amplitudes[j]
            re, im = basis.gamma.real[:, :, None], basis.gamma.imag[:, :, None]
            arg = re * (h - lo)
            phase = np.empty(arg.shape, dtype=complex)      # e^{i Re gamma (h - lo)}
            np.cos(arg, out=phase.real)
            np.sin(arg, out=phase.imag)
            up = phase * (np.exp(-im * (h - lo)) * u[..., None])
            across = np.exp(1j * re * (hi - lo)) * d[..., None]    # one factor per mode
            dn = phase.conj() * (np.exp(-im * (hi - h)) * across)
            et, e3 = basis.W @ (up + dn), basis.Z @ (up - dn)
            blocks[:, :, 0, at] = et[:, :mb]
            blocks[:, :, 1, at] = et[:, mb:]
            blocks[:, :, 2, at] = e3
        return out if np.ndim(x3) else out[..., 0]

    def max_exponent(self, slab: int) -> float:
        """Largest |gamma| of a slab's modes: the field in the slab sums e^{+-i gamma x3}."""
        return float(np.max(np.abs(self.stack.bases[slab].gamma)))


@dataclass
class QpbvpResult:
    field: LayerField
    trace: TangentialField       # T(f), tangential curl at Gamma_b
    condition: float             # largest 1-norm condition: exact for eigenbases, gecon elsewhere


def solve_qpbvp(profile: MediumProfile, f: TangentialField, modeset: ModeSet) -> QpbvpResult:
    """Solve the layer problem with conducting plate below and trace f above.

    ``f`` is the rotated tangential trace e3 x E on Gamma_b.  Returns the
    interior field and T(f), the tangential trace of curl E on Gamma_b.
    """
    f.modeset.require_same(modeset, "forward.solve_qpbvp")
    stack = _stack(profile, modeset)
    et = f.coeffs[:, [1, 0]] * [1, -1]     # f = e3 x E  =>  E_t = (f2, -f1)
    cond, Pinv = stack.trace_match("forward.solve_qpbvp: trace match")
    d = np.matvec(Pinv, _to_blocks(modeset, et))
    trace = _from_blocks(modeset, 1j * modeset.k * np.matvec(stack.top_H, d))
    return QpbvpResult(LayerField(profile, stack, d),
                       TangentialField(modeset, trace, profile.b), max(stack.max_cond, cond))


def assemble_dtn(profile: MediumProfile, modeset: ModeSet) -> np.ndarray:
    """Boundary map on tangential coefficients as its (2N+1, 2mb, 2mb) n2 blocks.

    Block b maps f = e3 x E on modes j = b mb + i, ordered [f1 over i; f2 over i], to
    the tangential curl in the same order.  The dense 2m x 2m map on [all f1; all f2]
    (``dtn.csv``) has entry (c m + b mb + i, c' m + b mb + i') = blocks[b, c mb + i, c' mb + i'],
    and is zero off the n2 diagonal, since q = q(x1) couples no two n2 blocks.
    """
    stack = _stack(profile, modeset)
    mb = modeset.block_size
    _, Pinv = stack.trace_match("forward.assemble_dtn: trace match")
    # Block [f1; f2] is E_t = [f2; -f1], so P^-1 J swaps P^-1's column halves, negating one.
    PinvJ = np.concatenate([-Pinv[..., mb:], Pinv[..., :mb]], axis=-1)
    return 1j * modeset.k * stack.top_H @ PinvJ


@dataclass
class ScatteringResult:
    field: LayerField            # total field inside the layer
    scattered: RayleighField     # upgoing Rayleigh sequence, referenced at b
    incident: RayleighField      # downgoing expansion, referenced at b
    condition: float             # largest 1-norm condition: exact for eigenbases, gecon elsewhere


def expand_incidence(incidence, modeset: ModeSet, height: float) -> RayleighField:
    """Downgoing modal expansion of a plane wave or dipole-sheet incidence at x3 = ``height``.

    Each mode's factor is formed at that plane, e^{-i beta_0 height} for a
    plane wave and e^{i beta (a - height)} for a sheet at a, so none grows.
    """
    if isinstance(incidence, PlaneWaveIncidence):
        if abs(incidence.k - modeset.k) > 1e-12 * modeset.k:
            raise TruncationMismatch("forward.expand_incidence: wavenumber mismatch")
        if (abs(incidence.k * incidence.d[0] - modeset.alpha.alpha1) > 1e-12 * modeset.k
                or abs(incidence.k * incidence.d[1] - modeset.alpha.alpha2) > 1e-12 * modeset.k):
            raise TruncationMismatch(
                "forward.expand_incidence: plane-wave direction does not match the "
                "mode-set quasimomentum")
        coeffs = np.zeros((modeset.num_modes, 3), dtype=complex)
        coeffs[modeset.mode0] = incidence.p * np.exp(-1j * modeset.beta[modeset.mode0] * height)
        return RayleighField(modeset, coeffs, height=height, direction="down")
    if isinstance(incidence, DipoleDensity):   # the sheet at a - height, seen from 0
        moved = incident_from_density(replace(incidence, height=incidence.height - height), modeset)
        return RayleighField(modeset, moved.coeffs, height=height, direction="down")
    raise ValidationError(f"forward.expand_incidence: unsupported incidence {type(incidence)!r}")


def solve_scattering(profile: MediumProfile, incidence, modeset: ModeSet) -> ScatteringResult:
    """Full scattering solve with the transparent boundary condition at Gamma_b.

    The layer stack is coupled to the radiation condition through the modal
    form of the transparent-boundary operator; the right-hand side carries the
    incident tangential curl and rotated trace.
    """
    if isinstance(incidence, DipoleDensity) and incidence.height <= profile.b:
        raise ValidationError(
            f"forward.solve_scattering: dipole plane a = {incidence.height:g} must lie "
            f"above the layer height b = {profile.b:g}")
    stack = _stack(profile, modeset)
    ms = modeset
    mb = ms.block_size
    incident = expand_incidence(incidence, ms, profile.b)
    C = incident.coeffs
    a1 = ms.alpha_n[:, 0]
    a2 = ms.alpha_n[:, 1]
    beta = ms.beta
    # rho maps E_t to R(e3 x E) = R(-E2, E1): R's columns swapped, the second negated.
    c11, c12, c22, ib = _r_entries(ms)
    r11, r12, r21, r22 = c12 * ib, -c11 * ib, c22 * ib, -c12 * ib
    # Tangential curl of the incident field minus R applied to its rotated trace.
    g1 = 1j * (a2 * C[:, 2] + beta * C[:, 1]) - (r11 * C[:, 0] + r12 * C[:, 1])
    g2 = 1j * (-beta * C[:, 0] - a1 * C[:, 2]) - (r21 * C[:, 0] + r22 * C[:, 1])
    nb = 2 * ms.N + 1
    P = stack.top_P()
    r11, r12, r21, r22 = (r.reshape(nb, mb, 1) for r in (r11, r12, r21, r22))
    rho_P = np.concatenate([r11 * P[:, :mb] + r12 * P[:, mb:],
                            r21 * P[:, :mb] + r22 * P[:, mb:]], axis=1)
    cond, d = _guard(1j * ms.k * stack.top_H - rho_P, _to_blocks(ms, np.column_stack([g1, g2])),
                     "forward.solve_scattering: boundary match", len(profile.slabs) - 1)
    trace_total = _from_blocks(ms, np.matvec(P, d))   # tangential E of the total field at b
    s_t = trace_total[:, :2] - C[:, :2]
    s3 = -(a1 * s_t[:, 0] + a2 * s_t[:, 1]) / beta
    scat = np.zeros((ms.num_modes, 3), dtype=complex)
    scat[:, :2] = s_t
    scat[:, 2] = s3
    scattered = RayleighField(ms, scat, height=profile.b, direction="up")
    return ScatteringResult(LayerField(profile, stack, d), scattered,
                            incident, max(stack.max_cond, cond))
