"""Quasi-periodic Sturm-Liouville eigenproblem on the 1-d cell.

Solves  v'' + k^2 q(x1) v = lambda v  with the quasi-periodicity conditions
v(x1 + 2pi) = e^{2 pi i alpha1} v(x1) (and likewise v') by Fourier-Galerkin:
v = sum_{|m| <= M} c_m exp(i (m + alpha1) x1) turns the problem into the dense
matrix A[m, m'] = -(m + alpha1)^2 delta + k^2 Qhat_{m - m'}, whose second term
is k^2 times the Toeplitz matrix of the potential's :class:`TrigPoly`.

Sign caution: with the equation written this way the constant-coefficient
spectrum is lambda_m = k^2 q0 - (m + alpha1)^2, so it is -lambda that grows
like (n + shift)^2 - k^2 qbar for large |m|; :func:`check_asymptotics` fits
-lambda and resolves empirically which shift convention (alpha1 itself or
alpha1 / 2pi) the spectrum follows, instead of assuming one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import (EigenFailure, FitInconclusive, NormalizationDegenerate,
                     ValidationError)
from .lattice import TrigPoly

_NORM_TOL = 1e-10


@dataclass
class SLProblem:
    """Potential q(x1) as a trigonometric polynomial, wavenumber, quasimomentum, truncation."""

    coeffs: TrigPoly
    k: float
    alpha1: float
    M: int

    def __post_init__(self):
        self.coeffs = TrigPoly(self.coeffs)
        if self.k <= 0:
            raise ValidationError("sturm.SLProblem: k must be > 0")
        deg = self.coeffs.degree
        if self.M < 2 * deg + 4:
            raise ValidationError(
                f"sturm.SLProblem: truncation M={self.M} below 2*deg(q)+4 = {2 * deg + 4}")

    def matrix(self) -> np.ndarray:
        m = np.arange(-self.M, self.M + 1)
        A = self.k ** 2 * self.coeffs.toeplitz(m.size)
        A[m + self.M, m + self.M] -= (m + self.alpha1) ** 2
        return A


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
    """Branch-labelled eigenpairs; ``matrix_norm`` is the spectral radius
    max |lambda| <= ||A||_2 of the Galerkin matrix, which scales each ``residual``."""

    problem: SLProblem
    entries: dict = field(default_factory=dict)   # (sign, n) -> SLEntry
    matrix_norm: float = 0.0

    def entry(self, sign: int, n: int) -> SLEntry:
        key = (sign, n)
        if key not in self.entries:
            raise ValidationError(f"sturm.SLSpectrum: no entry for branch ({sign:+d}, {n})")
        return self.entries[key]

    def lambdas(self) -> np.ndarray:
        return np.array([e.lam for e in self.entries.values()])

    def eigenfunction_values(self, entry: SLEntry, x1) -> np.ndarray:
        m = np.arange(-self.problem.M, self.problem.M + 1)
        x1 = np.asarray(x1, dtype=float)
        return np.exp(1j * np.outer(x1, m + self.problem.alpha1)) @ entry.coeffs

    def eigenfunction_derivative2(self, entry: SLEntry, x1) -> np.ndarray:
        m = np.arange(-self.problem.M, self.problem.M + 1)
        x1 = np.asarray(x1, dtype=float)
        w = -(m + self.problem.alpha1) ** 2
        return np.exp(1j * np.outer(x1, m + self.problem.alpha1)) @ (w * entry.coeffs)


def _assign_branches(problem: SLProblem, lams, vecs):
    """Label eigenpairs by nearest constant-coefficient anchor.

    First pass claims the dominant Fourier index of each eigenvector; ties and
    collisions fall back to eigenvalue distance from the unclaimed anchors.
    """
    M = problem.M
    count = 2 * M + 1
    dominant = np.argmax(np.abs(vecs), axis=0) - M
    claimed = {}
    unresolved = []
    for j in range(count):
        m = int(dominant[j])
        if m not in claimed:
            claimed[m] = j
        else:
            rival = claimed[m]
            if abs(vecs[m + M, j]) > abs(vecs[m + M, rival]):
                claimed[m] = j
                unresolved.append(rival)
            else:
                unresolved.append(j)
    if unresolved:
        anchors = {m: problem.k ** 2 * problem.coeffs.mean - (m + problem.alpha1) ** 2
                   for m in range(-M, M + 1) if m not in claimed}
        for j in unresolved:
            if not anchors:
                raise EigenFailure("sturm.solve_sl: branch assignment exhausted anchors")
            best = min(anchors, key=lambda m: abs(lams[j] - anchors[m]))
            claimed[best] = j
            del anchors[best]
    return {m: j for m, j in claimed.items()}


def solve_sl(problem: SLProblem, normalize: bool = True) -> SLSpectrum:
    """Dense non-Hermitian Galerkin eigensolve; all 2M+1 pairs returned.

    Eigenfunctions are scaled to v(0) = 1 unless ``normalize=False``;
    a pair whose boundary value is numerically zero raises
    :class:`NormalizationDegenerate` (the paper-style scaling is impossible).
    """
    A = problem.matrix()
    try:
        lams, vecs = scipy.linalg.eig(A)
    except Exception as exc:
        raise EigenFailure(f"sturm.solve_sl: dense eigensolve failed ({exc})")
    if not np.all(np.isfinite(lams)):
        raise EigenFailure("sturm.solve_sl: non-finite eigenvalues")
    anorm = float(np.max(np.abs(lams)))
    residuals = (np.linalg.norm(A @ vecs - vecs * lams, axis=0)
                 / (np.linalg.norm(vecs, axis=0) * anorm))
    assignment = _assign_branches(problem, lams, vecs)
    spectrum = SLSpectrum(problem, matrix_norm=anorm)
    for m, j in sorted(assignment.items()):
        c = vecs[:, j].copy()
        if normalize:
            v0 = np.sum(c)
            if abs(v0) < _NORM_TOL * np.linalg.norm(c):
                raise NormalizationDegenerate(
                    f"sturm.solve_sl: |v(0)| = {abs(v0):.2e} at branch index {m}; "
                    "scaling to v(0) = 1 impossible")
            c = c / v0
        sign = 1 if m >= 0 else -1
        spectrum.entries[(sign, abs(m))] = SLEntry(sign, abs(m), complex(lams[j]), c,
                                                   float(residuals[j]), bool(normalize))
    return spectrum


@dataclass
class AsymptoticsReport:
    shift_convention: str
    shift_value: float
    mean_term_fitted: complex
    mean_term_exact: complex
    eigenvalue_decay_exponent: float | None
    eigenfunction_decay_exponent: float | None
    n_range: tuple
    shift_degenerate: bool
    eigenvalue_remainders: dict
    eigenfunction_deviations: dict


def _loglog_slope(ns, vals) -> float | None:
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > 0
    if np.count_nonzero(keep) < 4:
        return None
    coef = np.polyfit(np.log(ns[keep]), np.log(vals[keep]), 1)
    return float(-coef[0])


def check_asymptotics(spectrum: SLSpectrum, problem: SLProblem | None = None,
                      n_min: int = 4, n_max: int | None = None) -> AsymptoticsReport:
    """Fit -lambda_n against (n + s)^2 - k^2 qbar and resolve the shift convention.

    Candidates are s = alpha1 (forced by the quasi-period factor) and
    s = alpha1 / 2pi (the printed convention); the empirically matching one is
    reported together with the fitted mean term and the decay exponents of the
    eigenvalue remainder and of the sup-norm eigenfunction deviation.
    Raises :class:`FitInconclusive` if neither candidate matches.
    """
    if problem is None:
        problem = spectrum.problem
    avail = sorted(n for (s, n) in spectrum.entries if s == 1)
    if n_max is None:
        n_max = max(avail) // 2
    ns = [n for n in avail if n_min <= n <= n_max and (-1, n) in spectrum.entries]
    if len(ns) < 8:
        raise ValidationError("sturm.check_asymptotics: need at least 8 branch pairs in range")
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
        n_range=(n_min, n_max), shift_degenerate=degenerate,
        eigenvalue_remainders=rem, eigenfunction_deviations=devs)


def write_spectrum_csv(spectrum: SLSpectrum, path) -> None:
    """Eigenvalue table: one row per branch entry, deterministic order."""
    with open(path, "w", newline="") as fh:
        fh.write("n,branch,re_lambda,im_lambda,residual\n")
        for (sign, n) in sorted(spectrum.entries, key=lambda t: (t[1], -t[0])):
            e = spectrum.entries[(sign, n)]
            fh.write(f"{n},{'+' if sign > 0 else '-'},"
                     f"{e.lam.real:.17g},{e.lam.imag:.17g},{e.residual:.17g}\n")
