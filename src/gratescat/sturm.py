"""Quasi-periodic Sturm-Liouville eigenproblem on the 1-d cell.

Solves  v'' + k^2 q(x1) v = lambda v  with the quasi-periodicity conditions
v(x1 + 2pi) = e^{2 pi i alpha1} v(x1) (and likewise v') by Fourier-Galerkin:
v = sum_{|m| <= M} c_m exp(i (m + alpha1) x1) turns the problem into the
matrix A[m, m'] = -(m + alpha1)^2 delta + k^2 Qhat_{m - m'}, whose second term
is k^2 times the Toeplitz matrix of the potential's :class:`TrigPoly`.

:func:`solve_sl` computes the branches asked for, all 2M+1 by default, by
shifted inverse iteration on the band matrix: A has half-bandwidth deg q, and
the branch-m eigenvalue lies in the Gershgorin disc of radius
k^2 sum_{j != 0} |q_j| around its anchor k^2 q0 - (m + alpha1)^2.  Anchors
whose discs overlap form a cluster, and every cluster that holds a wanted
anchor is iterated with the others, with LAPACK's band LU (gbtrf/gbtrs).  An
anchor alone in its disc is a cluster of one; its column lives on a window,
outside which an a-priori decay bound puts the branch's eigenvector below
2^-60, and takes its Rayleigh quotient.  A larger cluster spans every row and
takes the Ritz pairs of A projected on its columns.  Every column is one
segment of a single vector, its window padded by deg q zero rows on each
side, so each step applies A once to the whole vector and the padding holds
the rest of the full matrix's product: quotients and residuals are those of
the full matrix, and every acceptance test holds there.  The shifted windows
are factored at once as one block-diagonal band matrix.  An eigenvector takes
the label of the member that clearly dominates it, and a member that no
eigenvector decides is listed as undecided, not guessed.  Inverse iteration
for a few eigenpairs: Ipsen, SIAM Review 39 (1997) 254.

Sign caution: with the equation written this way the constant-coefficient
spectrum is lambda_m = k^2 q0 - (m + alpha1)^2, so it is -lambda that grows
like (n + shift)^2 - k^2 qbar for large |m|; :func:`check_asymptotics` fits
-lambda and resolves empirically which shift convention (alpha1 itself or
alpha1 / 2pi) the spectrum follows, instead of assuming one, and reports
alpha1 as degenerate where both fit and the tail cannot tell them apart.  It
reads every eigenfunction of the fit in one batched
:meth:`SLSpectrum.eigenfunction_values`, from one evaluation of the basis.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (EigenFailure, FitInconclusive, NormalizationDegenerate,
                     ValidationError)
from .lattice import TrigPoly
from .tables import write_csv

_NORM_TOL = 1e-10
_RESIDUAL_TOL = 1e-14  # targeted pairs: stop once every scaled residual is at or below this
_MAX_STEPS = 30        # targeted pairs: inverse-iteration steps before a cluster fails
_WINDOW_CUT = 2.0 ** -60  # clusters of one: solve where the eigenvector's bound is at least this
_gbtrf, _gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), dtype=np.complex128)


@dataclass
class SLProblem:
    """Potential q(x1) as a trigonometric polynomial, wavenumber, quasimomentum, truncation."""

    coeffs: TrigPoly
    k: float
    alpha1: float
    M: int

    def __post_init__(self):
        self.coeffs = TrigPoly(self.coeffs)
        if not math.isfinite(float(self.k) * float(self.k)):   # k^2 scales the whole matrix
            raise ValidationError(
                f"sturm.SLProblem: k must be finite with a finite square, got {float(self.k)!r}")
        if not math.isfinite(self.alpha1):
            raise ValidationError(f"sturm.SLProblem: alpha1 must be finite, got {self.alpha1!r}")
        for j, c in self.coeffs.items():
            if not cmath.isfinite(c):
                raise ValidationError(f"sturm.SLProblem: coefficient q_{j} = {c!r} is not finite")
        if self.k <= 0:
            raise ValidationError("sturm.SLProblem: k must be > 0")
        if not isinstance(self.M, numbers.Integral):
            raise ValidationError(
                f"sturm.SLProblem: truncation M must be an integer, got {self.M!r}")
        deg = self.coeffs.degree
        if self.M < 2 * deg + 4:
            raise ValidationError(
                f"sturm.SLProblem: truncation M={self.M} below 2*deg(q)+4 = {2 * deg + 4}")
        with np.errstate(over="ignore", invalid="ignore"):   # refused below, not warned about
            bound = self.gershgorin()[2]
        if not math.isfinite(bound):
            raise ValidationError(
                "sturm.SLProblem: the Gershgorin bound max_m |k^2 q0 - (m + alpha1)^2| "
                f"+ k^2 sum_(j != 0) |q_j| is not finite (k = {float(self.k)!r}, M = {self.M})")

    def gershgorin(self):
        """Disc centres k^2 q0 - (m + alpha1)^2 (m = -M..M), their common radius
        k^2 sum_{j != 0} |q_j|, and the bound max |centre| + radius on the spectral radius."""
        m = np.arange(-self.M, self.M + 1)
        anchors = self.k ** 2 * self.coeffs.mean - (m + self.alpha1) ** 2
        radius = self.k ** 2 * sum(abs(c) for j, c in self.coeffs.items() if j != 0)
        return anchors, radius, float(np.max(np.abs(anchors)) + radius)


@dataclass
class SLEntry:
    """One labelled eigenpair; :func:`solve_sl` scales its eigenfunction to v(0) = sum_m c_m = 1."""

    sign: int           # +1 or -1 branch
    n: int              # branch index >= 0
    lam: complex
    coeffs: np.ndarray  # Fourier coefficients c_m, m = -M..M
    residual: float


@dataclass
class SLSpectrum:
    """Branch-labelled eigenpairs; ``matrix_norm`` scales each ``residual``.

    ``matrix_norm`` is the Gershgorin bound
    max_m |k^2 q0 - (m + alpha1)^2| + k^2 sum_{j != 0} |q_j| on the spectral
    radius of the Galerkin matrix.  A requested branch whose Gershgorin cluster
    cannot decide its label is kept out of ``entries``; ``undecided`` maps its
    key to the reason, and :meth:`entry` raises :class:`EigenFailure` with it.
    """

    problem: SLProblem
    entries: dict = field(default_factory=dict)     # (sign, n) -> SLEntry
    matrix_norm: float = 0.0
    undecided: dict = field(default_factory=dict)   # (sign, n) -> why no label

    def entry(self, sign: int, n: int) -> SLEntry:
        key = (sign, n)
        if key in self.undecided:
            raise EigenFailure(self.undecided[key])
        if key not in self.entries:
            raise ValidationError(f"sturm.SLSpectrum: no entry for branch ({sign:+d}, {n})")
        return self.entries[key]

    def eigenfunction_values(self, entries, x1) -> np.ndarray:
        """The (P, len(entries)) values at P points x1 of a sequence of entries'
        eigenfunctions, from one evaluation of the Fourier basis."""
        m = np.arange(-self.problem.M, self.problem.M + 1)
        x1 = np.asarray(x1, dtype=float)
        C = np.reshape([e.coeffs for e in entries], (-1, m.size)).T
        return np.exp(1j * np.outer(x1, m + self.problem.alpha1)) @ C


def _key(m: int) -> tuple:
    """Branch key (sign, n) of Fourier index m, as in :attr:`SLSpectrum.entries`."""
    return (1 if m >= 0 else -1, abs(m))


def _names(ms) -> str:
    return ", ".join("({:+d}, {})".format(*_key(int(m))) for m in ms)


def _segments(anchors: np.ndarray, shifts, d: int, lo: np.ndarray, hi: np.ndarray):
    """Column i as the segment of rows ``lo[i] - d <= row < hi[i] + d``, all in one vector.

    Returns each entry's column and row of A (padding rows may lie outside
    A), the mask of the window entries, and the windows' principal submatrices
    as one block-diagonal band matrix in LAPACK's storage with kl = ku = d:
    its diagonal the window rows' ``anchors``, its j-th diagonal c for each
    (j, c = k^2 q_j) of ``shifts``, and its entries that would couple two
    windows zeroed, so partial pivoting never leaves a window.
    """
    width = hi - lo
    col = np.repeat(np.arange(width.size), width + 2 * d)
    local = np.arange(col.size) - np.repeat(np.cumsum(width + 2 * d) - width - d, width + 2 * d)
    row = lo[col] + local
    win = (local >= 0) & (local < width[col])
    # Fortran order, so gbtrf factors its copies in place
    band = np.zeros((3 * d + 1, np.count_nonzero(win)), dtype=complex, order="F")
    band[2 * d] = anchors[row[win]]
    for j, c in shifts:
        band[2 * d + j] = c
    t = local[win] + np.arange(-d, d + 1)[:, None]   # local row of each band entry
    band[d:][(t < 0) | (t >= width[col[win]])] = 0.0
    return col, row, win, band


def _heads(col: np.ndarray, inside: np.ndarray, csize: np.ndarray, n: int):
    """Each segment's first entry; per cluster size s > 1 the (c, n, s) A rows of its c clusters."""
    blocks = [np.flatnonzero(inside & (csize[col] == s)).reshape(-1, s, n).transpose(0, 2, 1)
              for s in np.unique(csize[col][csize[col] > 1])]
    return np.flatnonzero(np.diff(col, prepend=-1)), blocks


def _band_apply(diag: np.ndarray, shifts, inside: np.ndarray, v: np.ndarray) -> np.ndarray:
    """A on each segment of v: diag v + c v shifted by j per (j, c = k^2 q_j), 0 off ``inside``."""
    out = diag * v
    for j, c in shifts:
        if j > 0:
            out[j:] += c * v[:-j]
        else:
            out[:j] += c * v[-j:]
    out[~inside] = 0.0
    return out


def _band_solve(band, d, col, theta, anorm, y, names):
    """Solve (A_i - theta_i) x_i = y_i on every window of ``band`` (:func:`_segments`) at once.

    A shift equal to an eigenvalue to the last bit (a triangular A has its
    anchors as eigenvalues) leaves a zero on U's diagonal; those windows'
    shifts are nudged by ``_RESIDUAL_TOL * anorm`` once.  A window still
    singular raises :class:`EigenFailure` naming its column ``col``'s ``names``.
    """
    shift = np.array(theta, dtype=complex)
    for _ in range(2):
        shifted = band.copy(order="F")
        shifted[2 * d] -= shift[col]
        lu, piv, _ = _gbtrf(shifted, d, d, overwrite_ab=True)
        singular = col[lu[2 * d] == 0]   # a column once per zero pivot; += nudges it once
        if singular.size == 0:
            return _gbtrs(lu, d, d, y, piv)[0]
        shift[singular] += _RESIDUAL_TOL * anorm
    raise EigenFailure(
        f"sturm.solve_sl: singular band LU at branches {_names(np.unique(names[singular]))}")


def _windows(anchors: np.ndarray, radius: float, d: int, rows: np.ndarray):
    """Row ranges [lo, hi) outside which each lone anchor's eigenvector is below ``_WINDOW_CUT``.

    Row a != r of (A - lambda) x = 0 gives |x_a| <= rho_a max_{0<|b-a|<=d} |x_b|,
    with rho_a = radius / (|anchor_a - anchor_r| - radius) < 1 for a disc
    alone around anchor_r.  So x has no local maximum away from r, and the
    largest |x_b| beyond any run of d indices, walking outward from r, is at
    most the largest rho of that run times the largest |x_b| beyond the
    previous run.  For a unit x the products of the runs' largest rho bound
    each run and all that lies beyond it; the window ends before the first run
    whose bound is below the cut, or at the matrix edge.  (Decay of band
    inverses: Demko, Moss & Smith, Math. Comp. 43 (1984) 491.)  The products
    never grow, so the walk doubles its reach only until every row's last
    product is below the cut.
    """
    n = anchors.size
    run = max(d, 1)   # constant q: radius 0, so every rho is 0 and the window is row r
    # The anchors share one imaginary part, so their distances are those of
    # the real parts; rows past either edge sit at infinity, where rho is 0.
    full = -(-n // run)
    past = np.full(full * run, np.inf)
    line = np.concatenate((past, anchors.real, past))
    centre = anchors.real[rows, None]
    outward = np.array([1, -1])[:, None, None]
    runs = 1
    while True:
        idx = (rows + full * run)[:, None] + outward * np.arange(1, runs * run + 1)
        # rho falls as the distance grows, so a run's largest rho is at its nearest anchor
        near = np.abs(line[idx] - centre).reshape(2, rows.size, runs, run).min(axis=3)
        bound = np.cumprod(radius / (near - radius), axis=2)
        if runs == full or np.all(bound[..., -1] < _WINDOW_CUT):
            break
        runs = min(2 * runs, full)
    reach = run * np.count_nonzero(bound >= _WINDOW_CUT, axis=2)
    return np.maximum(rows - reach[1], 0), np.minimum(rows + reach[0] + 1, n)


def _solve_clusters(problem: SLProblem, anchors: np.ndarray, radius: float, anorm: float,
                    ms: np.ndarray, starts: np.ndarray, windows):
    """Eigenpairs of the Gershgorin clusters ``ms[starts[c]:starts[c + 1]]``, all in one vector.

    Column i starts as e_m for m = ms[i] and is zero outside the rows
    ``windows[0][i] <= row < windows[1][i]``, every row for a cluster of more
    than one: one segment of :func:`_segments`' vector, so a cluster of s is
    an (n + 2 deg q, s) block.  Each step applies A once to the vector and
    takes the Ritz pairs: a cluster of one its Rayleigh quotient, the larger
    ones of each size the eigenpairs of A projected on their columns, in one
    batched eig.  One band LU solves every shifted window still iterating,
    and a larger cluster's columns are orthonormalised by one batched QR per
    size.  A cluster leaves once each of its scaled residuals is at most
    ``_RESIDUAL_TOL``.

    Each Ritz vector is labelled by the member it weighs most on.  With
    residual at most ``_RESIDUAL_TOL * anorm`` it is known to that over its
    gap to the other Ritz values of its cluster (Davis-Kahan), so its top two
    member weights must differ by more than twice that, unless it has no
    weight on the other members at all: a cluster of one, or a diagonal block
    (constant q, where equal anchors are equal eigenvalues).  Returns the
    Fourier indices of the members so labelled with their eigenvalues, unit
    eigenvectors (rows, in the phase the iteration left them) and scaled
    residuals, and a dict that maps the key of every other member to why it
    has no label.
    """
    d = problem.coeffs.degree
    n, p = anchors.size, ms.size
    size = np.diff(starts)
    cid = np.repeat(np.arange(size.size), size)   # cluster of each column
    # names[i]: the members of column i's cluster, padded with its last one
    names = ms[np.minimum(starts[cid, None] + np.arange(size.max()), starts[cid + 1, None] - 1)]
    shifts = [(j, problem.k ** 2 * c) for j, c in problem.coeffs.items() if j != 0]
    col, row, win, band = _segments(anchors, shifts, d, *windows)
    inside = (row >= 0) & (row < n)
    diag = anchors[np.clip(row, 0, n - 1)]
    v = (row == ms[col] + problem.M).astype(complex)
    head, blocks = _heads(col, inside, size[cid], n)
    X = np.zeros((p, n), dtype=complex)   # rows: the unit vectors of the clusters that left
    theta, res, norm = np.empty(p, dtype=complex), np.empty(p), np.empty(p)
    for step in range(_MAX_STEPS + 1):
        av = _band_apply(diag, shifts, inside, v)
        active = col[head]
        theta[active] = np.add.reduceat(v.conj() * av, head)
        for ix in blocks:   # orthonormal columns within each cluster
            V, AV = v[ix], av[ix]
            theta[col[ix[:, 0]]], Z = scipy.linalg.eig(V.conj().transpose(0, 2, 1) @ AV)
            v[ix], av[ix] = V @ Z, AV @ Z
        r = av - theta[col] * v
        res[active] = np.sqrt(np.add.reduceat((r.conj() * r).real, head)) / anorm
        # a cluster stops only once all its residuals pass
        keep = (np.bincount(cid[active], res[active] > _RESIDUAL_TOL, size.size) > 0)[cid[col]]
        if not keep.all():
            X[col[~keep & inside], row[~keep & inside]] = v[~keep & inside]
            band = band[:, keep[win]]
            col, row, win, inside, diag, v = (a[keep] for a in (col, row, win, inside, diag, v))
            if col.size == 0:
                break
            head, blocks = _heads(col, inside, size[cid], n)
        if step == _MAX_STEPS:
            active = col[head]
            raise EigenFailure(
                f"sturm.solve_sl: branches {_names(np.sort(ms[active]))} not converged in "
                f"{_MAX_STEPS} steps (scaled residual {np.max(res[active]):.2e} > {_RESIDUAL_TOL:g})")
        v[win] = _band_solve(band, d, col[win], theta, anorm, v[win], names)
        Q = [np.linalg.qr(v[ix])[0] for ix in blocks]
        norm[col[head]] = np.sqrt(np.add.reduceat((v.conj() * v).real, head))
        v /= norm[col]
        for ix, q in zip(blocks, Q):
            v[ix] = q
    outside = (np.abs(theta[:, None] - anchors[names + problem.M]).min(axis=1)
               > radius + _RESIDUAL_TOL * anorm)
    if outside.any():
        raise EigenFailure("sturm.solve_sl: an eigenvalue left the Gershgorin discs of branches "
                           f"{_names(np.unique(names[outside]))}")
    owner = np.arange(p)   # the column of the Ritz vector that labels each member, or -1
    undecided = {}
    for s, e in zip(starts[:-1][size > 1], starts[1:][size > 1]):   # a cluster of one labels itself
        weights = np.abs(X[s:e, ms[s:e] + problem.M]).T   # [j, i]: Ritz vector i at member j
        top = np.argmax(weights, axis=0)
        second = np.sort(np.vstack([weights, np.zeros(e - s)]), axis=0)[-2]
        gap = np.min(np.abs(theta[s:e, None] - theta[s:e]) + np.diag(np.full(e - s, np.inf)), axis=0)
        clear = (second == 0) | ((weights[top, np.arange(e - s)] - second) * gap
                                 > 2 * _RESIDUAL_TOL * anorm)
        for j in range(s, e):
            owners = np.flatnonzero(top == j - s)
            if owners.size == 1 and clear[owners[0]]:
                owner[j] = s + owners[0]
                continue
            owner[j] = -1
            undecided[_key(int(ms[j]))] = (
                f"sturm.solve_sl: cannot label branches {_names(ms[j:j + 1])} in the "
                f"cluster {_names(ms[s:e])}: no eigenvector is clearly dominated by each")
    decided = owner >= 0
    i = owner[decided]
    return ms[decided], theta[i], X[i], res[i], undecided


def solve_sl(problem: SLProblem, branches=None) -> SLSpectrum:
    """Galerkin eigenpairs, labelled by branch: all 2M+1 of them, or the ``branches`` asked for.

    ``branches`` is an iterable of ``(sign, n)`` keys, as in
    :attr:`SLSpectrum.entries`; None asks for (+1, 0..M) and (-1, 1..M).
    Every Gershgorin cluster that holds a wanted anchor is solved whole by
    :func:`_solve_clusters`, each column a segment of one vector: one band
    apply and one band LU per step.  An anchor alone in its disc is a
    cluster of one, and its segment is its decay window (29-77 rows, not
    289, on the ``reconstruct`` benchmark's spectra at M = 144) padded by
    deg q rows on each side.  A key whose eigenvector its cluster cannot decide is listed in
    :attr:`SLSpectrum.undecided`, not in ``entries``.  A scaled residual
    above ``_RESIDUAL_TOL`` after ``_MAX_STEPS`` steps, a band LU that stays
    singular, or an eigenvalue outside its Gershgorin disc raises
    :class:`EigenFailure`.

    Every eigenfunction is scaled to v(0) = 1, as the paper's pairing of
    the q1 and conj(q2) spectra assumes, which also fixes its phase; a
    labelled pair whose unit eigenvector c has |v(0)| <= ``_NORM_TOL``
    raises :class:`NormalizationDegenerate` (the scaling is impossible).
    """
    M = problem.M
    wanted = set()
    for key in map(_key, range(-M, M + 1)) if branches is None else branches:
        sign, n = key
        if sign not in (1, -1) or n not in range(M + 1) or (sign, n) == (-1, 0):
            raise ValidationError(f"sturm.solve_sl: no branch {key!r} at truncation M={M}")
        wanted.add(sign * n)
    anchors, radius, anorm = problem.gershgorin()
    spectrum = SLSpectrum(problem, matrix_norm=anorm)
    if not wanted:
        return spectrum
    want = np.zeros(anchors.size, dtype=bool)
    want[np.fromiter(wanted, dtype=int) + M] = True
    # The anchors share one imaginary part, so two discs overlap where the real
    # parts lie within 2 radius; a cluster is a run of such overlaps.
    order = np.argsort(anchors.real, kind="stable")
    cluster = np.empty(anchors.size, dtype=int)
    cluster[order] = np.concatenate(([0], np.cumsum(np.diff(anchors.real[order]) > 2 * radius)))
    # Every cluster with a wanted anchor is a run of columns in order of m,
    # and the runs are in order of their first member.
    hit = np.zeros(anchors.size, dtype=bool)
    hit[cluster[want]] = True
    rows = np.flatnonzero(hit[cluster])
    first = np.unique(cluster, return_index=True)[1]   # the first row of each cluster
    rows = rows[np.argsort(first[cluster[rows]], kind="stable")]
    runs = cluster[rows]
    starts = np.concatenate(([0], np.flatnonzero(runs[1:] != runs[:-1]) + 1, [rows.size]))
    lone = starts[:-1][np.diff(starts) == 1]
    lo, hi = np.zeros(rows.size, dtype=int), np.full(rows.size, anchors.size)
    lo[lone], hi[lone] = _windows(anchors, radius, problem.coeffs.degree, rows[lone])
    index, lam, C, residual, undecided = _solve_clusters(
        problem, anchors, radius, anorm, rows - M, starts, (lo, hi))
    spectrum.undecided = {key: why for key, why in undecided.items() if want[key[0] * key[1] + M]}
    keep = np.argsort(index)
    keep = keep[want[index[keep] + M]]
    index, lam, C, residual = index[keep], lam[keep], C[keep], residual[keep]
    v0 = np.sum(C, axis=1)
    flat = np.flatnonzero(np.abs(v0) <= _NORM_TOL)   # the rows of C are unit vectors
    if flat.size:
        j = flat[0]
        raise NormalizationDegenerate(
            f"sturm.solve_sl: |v(0)| = {abs(v0[j]):.2e} at branch index {index[j]}; "
            "scaling to v(0) = 1 impossible")
    C /= v0[:, None]
    for m, lam_m, c, res_m in zip(index.tolist(), lam.tolist(), C, residual.tolist()):
        sign, n = _key(m)
        spectrum.entries[(sign, n)] = SLEntry(sign, n, lam_m, c, res_m)
    return spectrum


@dataclass
class AsymptoticsReport:
    shift_convention: str
    shift_value: float
    mean_term_fitted: complex
    mean_term_exact: complex
    eigenvalue_decay_exponent: float | None
    eigenfunction_decay_exponent: float | None
    shift_degenerate: bool
    eigenvalue_remainders: dict


def _loglog_slope(ns, vals, floor) -> float | None:
    """Decay exponent of the values above ``floor`` against n; None for fewer than 4."""
    keep = vals > floor
    if np.count_nonzero(keep) < 4:
        return None
    return float(-np.polyfit(np.log(np.asarray(ns, dtype=float)[keep]), np.log(vals[keep]), 1)[0])


def check_asymptotics(spectrum: SLSpectrum) -> AsymptoticsReport:
    """Fit -lambda_n against (n + s)^2 - k^2 qbar and resolve the shift convention.

    Candidates are s = alpha1 (forced by the quasi-period factor) and
    s = alpha1 / 2pi (the printed convention).  One fits if every tail
    remainder lies in the Gershgorin disc, radius + ``_RESIDUAL_TOL`` *
    ``matrix_norm``, where :func:`solve_sl` holds each labelled eigenvalue.
    The fitting one of smaller tail remainders is reported; if both fit and
    those are not below a quarter of the candidates' separation, the tail
    cannot tell them apart and ``alpha1`` is reported with
    ``shift_degenerate``.  The report holds the fitted mean term and the
    decay exponents of the eigenvalue remainder and of the sup-norm
    eigenfunction deviation.  The fit reads the pairs (+-1, n),
    4 <= n <= M // 2 (clear of the truncation), whose labels are both
    decided; fewer than 8 raise :class:`ValidationError`, which counts the
    pairs in range left undecided.  Raises :class:`FitInconclusive` if
    neither candidate fits.
    """
    problem = spectrum.problem
    n_min, n_max = 4, problem.M // 2
    ns = [n for n in range(n_min, n_max + 1)
          if (1, n) in spectrum.entries and (-1, n) in spectrum.entries]
    if len(ns) < 8:
        undecided = {n for (_, n) in spectrum.undecided if n_min <= n <= n_max}
        raise ValidationError(
            f"sturm.check_asymptotics: need at least 8 branch pairs in range, got {len(ns)}; "
            f"{len(undecided)} pairs in range {n_min}..{n_max} have an undecided label")
    entries = [spectrum.entries[(sign, n)] for sign in (1, -1) for n in ns]
    lam = np.reshape([e.lam for e in entries], (2, -1))   # rows: the + and - branches
    sign = np.array([[1], [-1]])
    mean_exact = problem.k ** 2 * problem.coeffs.mean
    candidates = {"alpha1": problem.alpha1, "alpha1_over_2pi": problem.alpha1 / (2.0 * np.pi)}
    # e^{i (sign n + s) x1}, the mean term lambda + (sign n + s)^2 each pair implies, the remainder
    freq = {name: sign * np.array(ns) + s for name, s in candidates.items()}
    fitted = {name: lam + f ** 2 for name, f in freq.items()}
    rems = {name: mean_exact - f for name, f in fitted.items()}
    tail = slice(-max(3, len(ns) // 4), None)
    endmag = {name: float(np.max(np.abs(r[:, tail]))) for name, r in rems.items()}
    disc = problem.gershgorin()[1] + _RESIDUAL_TOL * spectrum.matrix_norm
    fits = [name for name in candidates if endmag[name] <= disc]
    if not fits:
        raise FitInconclusive(
            "sturm.check_asymptotics: neither shift candidate fits the spectrum "
            f"(residuals {endmag['alpha1']:.3e} / {endmag['alpha1_over_2pi']:.3e} "
            f"vs Gershgorin radius {disc:.3e})")
    best = min(fits, key=endmag.get)
    sep = 2.0 * n_max * abs(candidates["alpha1"] - candidates["alpha1_over_2pi"])
    degenerate = len(fits) == 2 and endmag[best] >= 0.25 * sep
    if degenerate:
        best = "alpha1"
    rem = rems[best]
    # Fitted mean from the largest indices (least remainder contamination),
    # summed in order of n, the + branch before the -.
    mean_fitted = complex(np.mean(fitted[best][:, tail].ravel(order="F")))
    ev_exp = _loglog_slope(ns, np.max(np.abs(rem), axis=0), 1e-12 * max(abs(mean_exact), 1.0))
    # Eigenfunction deviation in sup norm on a fixed grid.
    x = np.linspace(0.0, 2.0 * np.pi, 257)
    values = spectrum.eigenfunction_values(entries, x).reshape(x.size, 2, -1)
    dev = np.max(np.abs(values - np.exp(1j * np.multiply.outer(x, freq[best]))), axis=(0, 1))
    ef_exp = _loglog_slope(ns, dev, 1e-13)
    return AsymptoticsReport(
        shift_convention=best, shift_value=float(candidates[best]),
        mean_term_fitted=mean_fitted, mean_term_exact=complex(mean_exact),
        eigenvalue_decay_exponent=ev_exp, eigenfunction_decay_exponent=ef_exp,
        shift_degenerate=degenerate,
        eigenvalue_remainders={(sg, n): complex(r) for sg, row in zip((1, -1), rem)
                               for n, r in zip(ns, row)})


def write_spectrum_csv(spectrum: SLSpectrum, path) -> None:
    """Eigenvalue table: one row per labelled branch entry, deterministic order.

    ``residual`` is ||A v - lambda v|| / (||v|| ``matrix_norm``); the keys in
    ``spectrum.undecided`` have no row.
    """
    entries = sorted(spectrum.entries.items(), key=lambda t: (t[0][1], -t[0][0]))
    write_csv(path, "n,branch,re_lambda,im_lambda,residual", "%d,%s,%.17g,%.17g,%.17g",
              ((n, "+" if sign > 0 else "-", e.lam.real, e.lam.imag, e.residual)
               for (sign, n), e in entries))
