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
anchor is a run of columns of one block, iterated with LAPACK's band LU
(gbtrf/gbtrs).  An anchor alone in its disc is a cluster of one; its column
lives on a principal band submatrix, the window outside which an a-priori
decay bound puts the branch's eigenvector below 2^-60, and takes its
Rayleigh quotient.  A larger cluster spans every row and takes the Ritz
pairs of A projected on its columns.  Each step applies A once to every
column still iterating, on the rows their windows span, and factors all
their shifted windows at once as one block-diagonal band matrix.  A column
is zero outside its window, so its quotients and residual are those of the
full matrix, and every acceptance test holds there.  An eigenvector takes
the label of the member that clearly dominates it, and a member that no
eigenvector decides is listed as undecided, not guessed.  Inverse iteration
for a few eigenpairs: Ipsen, SIAM Review 39 (1997) 254.

Sign caution: with the equation written this way the constant-coefficient
spectrum is lambda_m = k^2 q0 - (m + alpha1)^2, so it is -lambda that grows
like (n + shift)^2 - k^2 qbar for large |m|; :func:`check_asymptotics` fits
-lambda and resolves empirically which shift convention (alpha1 itself or
alpha1 / 2pi) the spectrum follows, instead of assuming one.
"""

from __future__ import annotations

import cmath
import math
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
    sign: int           # +1 or -1 branch
    n: int              # branch index >= 0
    lam: complex
    coeffs: np.ndarray  # Fourier coefficients c_m, m = -M..M
    residual: float
    normalized: bool


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

    def eigenfunction_values(self, entry: SLEntry, x1) -> np.ndarray:
        m = np.arange(-self.problem.M, self.problem.M + 1)
        x1 = np.asarray(x1, dtype=float)
        return np.exp(1j * np.outer(x1, m + self.problem.alpha1)) @ entry.coeffs


def _key(m: int) -> tuple:
    """Branch key (sign, n) of Fourier index m, as in :attr:`SLSpectrum.entries`."""
    return (1 if m >= 0 else -1, abs(m))


def _names(ms) -> str:
    return ", ".join("({:+d}, {})".format(*_key(int(m))) for m in ms)


def _band_apply(problem: SLProblem, anchors: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X from q's coefficients: (A X)[a] = anchor_a X[a] + k^2 sum_{j != 0} q_j X[a - j]."""
    k2 = problem.k ** 2
    out = anchors[:, None] * X
    for j, c in problem.coeffs.items():
        if j > 0:
            out[j:] += k2 * c * X[:-j]
        elif j < 0:
            out[:j] += k2 * c * X[-j:]
    return out


def _band_solve(ab, d, lo, hi, theta, anorm, Y, names):
    """Solve (A_i - theta_i) x_i = y_i on every window i of A in one band LU.

    A_i is the principal band submatrix of A on rows ``lo[i] <= row < hi[i]``,
    and y_i is column i of ``Y`` on those rows; the returned array holds x_i
    there and is zero elsewhere.  The shifted windows sit side by side as one
    block-diagonal band matrix, whose band entries that would couple one
    window to the next are zeroed, so partial pivoting never leaves a block:
    one gbtrf and one gbtrs serve them all.  A shift equal to an eigenvalue to
    the last bit (a triangular A has its anchors as eigenvalues) leaves a zero
    on U's diagonal; the shifts of those blocks are nudged by
    ``_RESIDUAL_TOL * anorm`` once.  A block still singular raises
    :class:`EigenFailure` naming the branches in its row of ``names``.
    """
    width = hi - lo
    block = np.repeat(np.arange(width.size), width)
    local = np.arange(block.size) - np.repeat(np.cumsum(width) - width, width)
    rows = lo[block] + local
    stacked = ab.T[rows].T   # Fortran order, so gbtrf factors its copies in place
    t = local + np.arange(-d, d + 1)[:, None]   # local row of each band entry
    stacked[d:][(t < 0) | (t >= width[block])] = 0.0
    shift = np.array(theta, dtype=complex)
    for _ in range(2):
        band = stacked.copy(order="F")
        band[2 * d] -= shift[block]
        lu, piv, _ = _gbtrf(band, d, d, overwrite_ab=True)
        singular = block[lu[2 * d] == 0]   # a block once per zero pivot; += nudges it once
        if singular.size == 0:
            X = np.zeros(Y.shape, dtype=complex)
            X[rows, block] = _gbtrs(lu, d, d, Y[rows, block], piv)[0]
            return X
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


def _solve_clusters(problem: SLProblem, ab: np.ndarray, anchors: np.ndarray, radius: float,
                    anorm: float, ms: np.ndarray, starts: np.ndarray, windows):
    """Eigenpairs of the Gershgorin clusters ``ms[starts[c]:starts[c + 1]]``, all in one block.

    Column i starts as e_m for m = ms[i] and is zero outside the rows
    ``windows[0][i] <= row < windows[1][i]``, every row for a cluster of more
    than one.  Each step applies A to the columns of every cluster still
    iterating, on the rows their windows span widened by deg q, and takes
    their Ritz pairs: a cluster of one its Rayleigh quotient, a larger one the
    eigenpairs of A projected on its columns, which are orthonormalised after
    the solve.  One band LU then solves all their shifted windows
    (:func:`_band_solve`).  A cluster stops once each of its scaled residuals
    is at most ``_RESIDUAL_TOL``.

    Each Ritz vector is labelled by the member it weighs most on.  With
    residual at most ``_RESIDUAL_TOL * anorm`` it is known to that over its
    gap to the other Ritz values of its cluster (Davis-Kahan), so its top two
    member weights must differ by more than twice that, unless it has no
    weight on the other members at all: a cluster of one, or a diagonal block
    (constant q, where equal anchors are equal eigenvalues).  Returns the
    Fourier indices of the members so labelled with their eigenvalues, unit
    eigenvectors (rows, largest component real as LAPACK's geev returns them)
    and scaled residuals, and a dict that maps the key of every other member
    to why it has no label.
    """
    d = problem.coeffs.degree
    n, p = anchors.size, ms.size
    lo, hi = windows
    size = starts[1:] - starts[:-1]
    cid = np.repeat(np.arange(size.size), size)   # cluster of each column
    # names[i]: the members of column i's cluster, padded with its last one
    names = ms[np.minimum(starts[cid, None] + np.arange(size.max()), starts[cid + 1, None] - 1)]
    larger = [tuple(starts[c:c + 2]) for c in np.flatnonzero(size > 1)]
    X = np.zeros((n, p), dtype=complex, order="F")   # columns contiguous: X[:, active] is fast
    X[ms + problem.M, np.arange(p)] = 1.0
    theta = np.empty(p, dtype=complex)
    res = np.empty(p)
    active, ritz = np.arange(p), larger   # ritz: the larger clusters still iterating
    for step in range(_MAX_STEPS + 1):
        span = slice(max(lo[active].min() - d, 0), min(hi[active].max() + d, n))
        Xa = X[span, active]   # orthonormal columns within each cluster
        AX = _band_apply(problem, anchors[span], Xa)
        theta[active] = np.einsum("ij,ij->j", Xa.conj(), AX)
        at = [slice(*np.searchsorted(active, se)) for se in ritz]   # their columns in Xa
        for (s, e), c in zip(ritz, at):
            theta[s:e], Z = scipy.linalg.eig(Xa[:, c].conj().T @ AX[:, c])
            X[:, s:e] = Xa[:, c] = Xa[:, c] @ Z   # the span is every row while it iterates
            AX[:, c] = AX[:, c] @ Z
        res[active] = np.linalg.norm(AX - Xa * theta[active], axis=0) / anorm
        going = res[active] > _RESIDUAL_TOL
        for c in at:
            going[c] = going[c].any()   # a cluster stops only once all its residuals pass
        ritz = [se for se, c in zip(ritz, at) if going[c.start]]
        active = active[going]
        if active.size == 0:
            break
        if step == _MAX_STEPS:
            raise EigenFailure(
                f"sturm.solve_sl: branches {_names(np.sort(ms[active]))} not converged in "
                f"{_MAX_STEPS} steps (scaled residual {np.max(res[active]):.2e} > {_RESIDUAL_TOL:g})")
        x = _band_solve(ab, d, lo[active], hi[active], theta[active], anorm, X[:, active],
                        names[active])
        X[:, active] = x / np.linalg.norm(x, axis=0)
        for s, e in ritz:
            X[:, s:e] = np.linalg.qr(x[:, slice(*np.searchsorted(active, (s, e)))])[0]
    outside = (np.abs(theta[:, None] - anchors[names + problem.M]).min(axis=1)
               > radius + _RESIDUAL_TOL * anorm)
    if outside.any():
        raise EigenFailure("sturm.solve_sl: an eigenvalue left the Gershgorin discs of branches "
                           f"{_names(np.unique(names[outside]))}")
    owner = np.arange(p)   # the column of the Ritz vector that labels each member, or -1
    undecided = {}
    for s, e in larger:   # a cluster of one labels its column
        weights = np.abs(X[ms[s:e] + problem.M, s:e])   # [j, i]: Ritz vector i at member j
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
    C = X.T[i]
    big = C[np.arange(i.size), np.abs(C).argmax(axis=1)]
    C *= (np.conj(big) / np.abs(big))[:, None]
    return ms[decided], theta[i], C, res[i], undecided


def solve_sl(problem: SLProblem, normalize: bool = True, branches=None) -> SLSpectrum:
    """Galerkin eigenpairs, labelled by branch: all 2M+1 of them, or the ``branches`` asked for.

    ``branches`` is an iterable of ``(sign, n)`` keys, as in
    :attr:`SLSpectrum.entries`; None asks for (+1, 0..M) and (-1, 1..M).
    Every Gershgorin cluster that holds a wanted anchor is solved whole by
    :func:`_solve_clusters`, all of them side by side in one block: one band
    apply and one band LU per step.  An anchor alone in its disc is a
    cluster of one, and its shifted solve runs on its decay window only
    (29-77 rows, not 289, on the ``reconstruct`` benchmark's spectra at
    M = 144).  A key whose eigenvector its cluster cannot decide is listed in
    :attr:`SLSpectrum.undecided`, not in ``entries``.  A scaled residual
    above ``_RESIDUAL_TOL`` after ``_MAX_STEPS`` steps, a band LU that stays
    singular, or an eigenvalue outside its Gershgorin disc raises
    :class:`EigenFailure`.

    Eigenfunctions are scaled to v(0) = 1 unless ``normalize=False``; a
    labelled pair with |v(0)| <= ``_NORM_TOL`` ||c|| raises
    :class:`NormalizationDegenerate` (the paper-style scaling is impossible).
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
    d = problem.coeffs.degree
    ab = np.zeros((3 * d + 1, anchors.size), dtype=complex, order="F")
    for j, c in problem.coeffs.items():
        ab[2 * d + j] = problem.k ** 2 * c
    ab[2 * d] = anchors
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
    lo[lone], hi[lone] = _windows(anchors, radius, d, rows[lone])
    index, lam, C, residual, undecided = _solve_clusters(
        problem, ab, anchors, radius, anorm, rows - M, starts, (lo, hi))
    spectrum.undecided = {key: why for key, why in undecided.items() if want[key[0] * key[1] + M]}
    keep = np.argsort(index)
    keep = keep[want[index[keep] + M]]
    index, lam, C, residual = index[keep], lam[keep], C[keep], residual[keep]
    if normalize:
        v0 = np.sum(C, axis=1)
        flat = np.flatnonzero(np.abs(v0) / np.linalg.norm(C, axis=1) <= _NORM_TOL)
        if flat.size:
            j = flat[0]
            raise NormalizationDegenerate(
                f"sturm.solve_sl: |v(0)| = {abs(v0[j]):.2e} at branch index {index[j]}; "
                "scaling to v(0) = 1 impossible")
        C /= v0[:, None]
    for m, lam_m, c, res_m in zip(index, lam, C, residual):
        sign, n = _key(int(m))
        spectrum.entries[(sign, n)] = SLEntry(sign, n, complex(lam_m), c,
                                              float(res_m), bool(normalize))
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


def _loglog_slope(ns, vals) -> float | None:
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > 0
    if np.count_nonzero(keep) < 4:
        return None
    coef = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)
    return float(-coef[0])


def check_asymptotics(spectrum: SLSpectrum, n_min: int = 4,
                      n_max: int | None = None) -> AsymptoticsReport:
    """Fit -lambda_n against (n + s)^2 - k^2 qbar and resolve the shift convention.

    Candidates are s = alpha1 (forced by the quasi-period factor) and
    s = alpha1 / 2pi (the printed convention); the empirically matching one is
    reported together with the fitted mean term and the decay exponents of the
    eigenvalue remainder and of the sup-norm eigenfunction deviation.
    The fit reads the pairs (+-1, n), n_min <= n <= n_max (default M // 2, clear
    of the truncation), whose labels are both decided; fewer than 8 raise
    :class:`ValidationError`, which counts the pairs in range left undecided.
    Raises :class:`FitInconclusive` if neither candidate matches.
    """
    problem = spectrum.problem
    avail = sorted(n for (s, n) in spectrum.entries if s == 1)
    if n_max is None:
        n_max = problem.M // 2
    ns = [n for n in avail if n_min <= n <= n_max and (-1, n) in spectrum.entries]
    if len(ns) < 8:
        undecided = {n for (_, n) in spectrum.undecided if n_min <= n <= n_max}
        raise ValidationError(
            f"sturm.check_asymptotics: need at least 8 branch pairs in range, got {len(ns)}; "
            f"{len(undecided)} pairs in range {n_min}..{n_max} have an undecided label")
    mean_exact = problem.k ** 2 * problem.coeffs.mean
    a1 = problem.alpha1
    candidates = {"alpha1": a1, "alpha1_over_2pi": a1 / (2.0 * np.pi)}

    def remainders(s):
        out = {}
        for n in ns:
            for sign in (1, -1):
                lam = spectrum.entry(sign, n).lam
                out[(sign, n)] = (-lam) - (n + sign * s) ** 2 + mean_exact
        return out

    rems = {name: remainders(s) for name, s in candidates.items()}
    tail = [n for n in ns[-max(3, len(ns) // 4):]]
    endmag = {name: max(abs(rems[name][(sg, n)]) for n in tail for sg in (1, -1))
              for name in candidates}
    sep = 2.0 * n_max * abs(candidates["alpha1"] - candidates["alpha1_over_2pi"])
    degenerate = sep < 1e-9 * max(1.0, n_max)
    if degenerate:
        best = "alpha1"
    else:
        best = min(endmag, key=endmag.get)
        if endmag[best] > 0.25 * sep:
            raise FitInconclusive(
                "sturm.check_asymptotics: neither shift candidate matches "
                f"(residuals {endmag['alpha1']:.3e} / {endmag['alpha1_over_2pi']:.3e} "
                f"vs separation {sep:.3e})")
    s = candidates[best]
    rem = rems[best]
    # Fitted mean from the largest indices (least remainder contamination).
    fit_vals = [spectrum.entry(sg, n).lam + (n + sg * s) ** 2
                for n in tail for sg in (1, -1)]
    mean_fitted = complex(np.mean(fit_vals))
    scale = max(abs(mean_exact), 1.0)
    ev_mag = np.array([max(abs(rem[(1, n)]), abs(rem[(-1, n)])) for n in ns])
    floor = 1e-12 * scale
    ev_exp = _loglog_slope(ns, np.where(ev_mag > floor, ev_mag, 0.0))
    # Eigenfunction deviation in sup norm on a fixed grid.
    x = np.linspace(0.0, 2.0 * np.pi, 257)
    devs = {}
    for n in ns:
        worst = 0.0
        for sign in (1, -1):
            e = spectrum.entry(sign, n)
            ref = np.exp(1j * (sign * n + s) * x)
            worst = max(worst, float(np.max(np.abs(
                spectrum.eigenfunction_values(e, x) - ref))))
        devs[n] = worst
    dev_arr = np.array([devs[n] for n in ns])
    ef_exp = _loglog_slope(ns, np.where(dev_arr > 1e-13, dev_arr, 0.0))
    return AsymptoticsReport(
        shift_convention=best, shift_value=float(s),
        mean_term_fitted=mean_fitted, mean_term_exact=complex(mean_exact),
        eigenvalue_decay_exponent=ev_exp, eigenfunction_decay_exponent=ef_exp,
        shift_degenerate=degenerate, eigenvalue_remainders=rem)


def write_spectrum_csv(spectrum: SLSpectrum, path) -> None:
    """Eigenvalue table: one row per labelled branch entry, deterministic order.

    ``residual`` is ||A v - lambda v|| / (||v|| ``matrix_norm``); the keys in
    ``spectrum.undecided`` have no row.
    """
    entries = sorted(spectrum.entries.items(), key=lambda t: (t[0][1], -t[0][0]))
    write_csv(path, "n,branch,re_lambda,im_lambda,residual", "%d,%s,%.17g,%.17g,%.17g",
              ((n, "+" if sign > 0 else "-", e.lam.real, e.lam.imag, e.residual)
               for (sign, n), e in entries))
