import dataclasses
import math
import re
import sys

import numpy as np
import pytest
import scipy.linalg

import oracles
from gratescat import SLProblem, check_asymptotics, solve_sl
from gratescat import sturm
from gratescat.errors import (EigenFailure, FitInconclusive, NormalizationDegenerate,
                              ValidationError)
from gratescat.sturm import write_spectrum_csv

K = 1.2
ALPHA1 = 0.3


def _constant_lambda(q0, alpha1, m):
    return K * K * q0 - (m + alpha1) ** 2


def test_constant_q_closed_form():
    q0 = 1.5 + 0.1j
    prob = SLProblem({0: q0}, K, ALPHA1, 24)
    spec = solve_sl(prob)
    for m in range(-20, 21):
        sign = 1 if m >= 0 else -1
        e = spec.entry(sign, abs(m))
        assert abs(e.lam - _constant_lambda(q0, ALPHA1, m)) <= 1e-10
        # eigenfunction is the single exponential
        want = np.zeros(2 * prob.M + 1, dtype=complex)
        want[m + prob.M] = 1.0
        np.testing.assert_allclose(e.coeffs, want, atol=1e-12)


def test_alpha_zero_unit_q():
    prob = SLProblem({0: 1.0}, 1.0, 0.0, 8)
    spec = solve_sl(prob)
    assert abs(spec.entry(1, 0).lam - 1.0) <= 1e-12
    assert abs(spec.entry(1, 1).lam) <= 1e-12
    assert abs(spec.entry(-1, 1).lam) <= 1e-12


def test_galerkin_residuals():
    prob = SLProblem({0: 1.4 + 0.05j, 1: 0.2 + 0.02j, -1: 0.2 - 0.02j, 2: 0.05}, K, ALPHA1, 32)
    spec = solve_sl(prob)
    assert max(e.residual for e in spec.entries.values()) <= 1e-10


def test_matrix_norm_is_spectral_radius():
    # The dense oracle scales by the spectral radius rho(A) <= ||A||_2 (the
    # computed pair may cross by a few ulps when equal); solve_sl scales every
    # spectrum, whole or partial, by the Gershgorin bound on rho(A) instead
    cases = (({0: 1.4, 1: 0.2, -1: 0.2}, 12),
             ({0: 1.4 + 0.05j, 1: 0.2 + 0.02j, -1: 0.2 - 0.02j, -3: 0.3j}, 40),
             ({0: 9.0 + 2.0j, 1: 3.0, -1: 2.5 + 1.0j, 2: 1.0}, 96))
    for coeffs, M in cases:
        prob = SLProblem(coeffs, K, ALPHA1, M)
        dense = oracles.dense_spectrum(prob)
        rho = dense.matrix_norm
        assert rho <= np.linalg.norm(oracles.sl_matrix(prob), 2) * (1.0 + 1e-14)
        assert max(e.residual for e in dense.entries.values()) <= 1e-12
        radius = K ** 2 * sum(abs(c) for j, c in coeffs.items() if j != 0)
        for spec in (solve_sl(prob), solve_sl(prob, branches=[(1, M // 2), (-1, M // 2 + 1)])):
            assert spec.matrix_norm == prob.gershgorin()[2]
            assert rho <= spec.matrix_norm <= rho + 2 * radius
            assert max(e.residual for e in spec.entries.values()) <= 1e-12


def test_matrix_matches_galerkin_definition():
    # A[m, m'] = -(m + alpha1)^2 delta + k^2 qhat_{m - m'}, entry by entry
    coeffs = {0: 1.4 + 0.05j, 1: 0.2 + 0.02j, -1: 0.2 - 0.02j, -3: 0.3j}
    M = 10
    A = oracles.sl_matrix(SLProblem(coeffs, K, ALPHA1, M))
    ms = range(-M, M + 1)
    ref = np.array([[K ** 2 * coeffs.get(m - mp, 0.0) - (m == mp) * (m + ALPHA1) ** 2
                     for mp in ms] for m in ms])
    assert np.array_equal(A, ref)


def test_real_potential_real_spectrum():
    prob = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, ALPHA1, 48)
    spec = solve_sl(prob)
    lams = np.array([e.lam for e in spec.entries.values()])
    assert np.max(np.abs(lams.imag)) <= 1e-10 * max(1.0, np.max(np.abs(lams)))


def test_normalization_and_degenerate_case():
    prob = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, ALPHA1, 24)
    spec = solve_sl(prob)
    for e in spec.entries.values():
        assert abs(np.sum(e.coeffs) - 1.0) <= 1e-12
    # alpha1 = 0 with an even potential: each mirror pair (+-1, n) has an
    # even and an odd eigenfunction, with equal weights on +-n, so neither
    # label is decided; the odd ones would vanish at 0
    bad = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, 0.0, 24)
    for spec_bad in (solve_sl(bad), solve_sl(bad, normalize=False)):
        assert list(spec_bad.entries) == [(1, 0)]
        assert set(spec_bad.undecided) == {(s, n) for s in (1, -1) for n in range(1, 25)}
        for key in spec_bad.undecided:
            with pytest.raises(EigenFailure, match="cannot label branches " + _name(key)):
                spec_bad.entry(*key)
    assert len(spec_bad.entries) + len(spec_bad.undecided) == 49


def test_normalization_tolerance_threshold(monkeypatch):
    # A decided pair raises once _NORM_TOL reaches its |v(0)| / ||c|| and
    # passes one ulp below it
    prob = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, ALPHA1, 24)
    c = solve_sl(prob, normalize=False, branches=[(1, 5)]).entry(1, 5).coeffs[None, :]
    ratio = float((np.abs(np.sum(c, axis=1)) / np.linalg.norm(c, axis=1))[0])
    monkeypatch.setattr(sturm, "_NORM_TOL", ratio)
    with pytest.raises(NormalizationDegenerate, match="at branch index 5;"):
        solve_sl(prob, branches=[(1, 5)])
    monkeypatch.setattr(sturm, "_NORM_TOL", float(np.nextafter(ratio, 0.0)))
    assert abs(np.sum(solve_sl(prob, branches=[(1, 5)]).entry(1, 5).coeffs) - 1.0) <= 1e-12


def test_gauge_invariance():
    # alpha1 -> alpha1 + 1 with index shift leaves the spectrum unchanged;
    # compare the central eigenvalues (truncation touches only the edges)
    coeffs = {0: 1.3, 1: 0.1, -1: 0.1}
    M = 40
    s1 = solve_sl(SLProblem(coeffs, K, ALPHA1, M), normalize=False)
    s2 = solve_sl(SLProblem(coeffs, K, ALPHA1 + 1.0, M), normalize=False)
    lam1 = sorted((e.lam.real for e in s1.entries.values()), reverse=True)
    lam2 = sorted((e.lam.real for e in s2.entries.values()), reverse=True)
    central = 2 * (M // 2) + 1
    diff = np.abs(np.array(lam1[:central]) - np.array(lam2[:central]))
    assert np.max(diff) <= 1e-10


def test_weyl_count():
    prob = SLProblem({0: 1.2, 1: 0.1, -1: 0.1}, K, ALPHA1, 64)
    spec = solve_sl(prob, normalize=False)
    neg = np.array([-e.lam.real for e in spec.entries.values()])
    for R in (100.0, 400.0, 900.0):
        count = int(np.sum(neg <= R))
        assert abs(count - 2.0 * np.sqrt(R)) <= 2.0


@pytest.mark.parametrize("k, alpha1", [(float("nan"), ALPHA1), (float("inf"), ALPHA1),
                                       (K, float("nan"))])
def test_non_finite_k_or_alpha_rejected(k, alpha1):
    with pytest.raises(ValidationError, match="finite"):
        SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, k, alpha1, 24)


def test_k_squared_threshold():
    # the largest k whose square is finite is accepted (with a q small enough
    # that k^2 q stays finite too); the next float up and 1e160 (whose k ** 2
    # used to overflow inside solve_sl) are refused here
    k = math.sqrt(sys.float_info.max)
    SLProblem({0: 0.5, 1: 0.1, -1: 0.1}, k, ALPHA1, 24)
    for big in (float(np.nextafter(k, math.inf)), 1e160):
        with pytest.raises(ValidationError, match="sturm.SLProblem: k must be finite with a finite square"):
            SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, big, ALPHA1, 24)


_GERSHGORIN_REFUSED = "sturm.SLProblem: the Gershgorin bound .* is not finite"


def test_gershgorin_bound_threshold():
    # k = 1: the bound is max|q0 - (m + alpha1)^2| + sum |q_j|.  With q0 the
    # largest float it is finite at q_1 = 0 and overflows once q_1 adds an ulp
    big = sys.float_info.max
    SLProblem({0: big, 1: 0.0}, 1.0, 0.0, 24)
    ulp = big - float(np.nextafter(big, 0.0))
    with pytest.raises(ValidationError, match=_GERSHGORIN_REFUSED):
        SLProblem({0: big, 1: ulp}, 1.0, 0.0, 24)


@pytest.mark.parametrize("branches", [None, [(1, 1)]])
def test_k_squared_q_overflow_refused_on_both_paths(branches):
    # k^2 = 1e20 is finite and so is q0 = 1e300, but k^2 q0 is not: a solve of
    # every branch or of one used to warn and then raise an untyped ValueError
    # or an EigenFailure; the problem is now refused before any arithmetic warns
    with pytest.raises(ValidationError, match=_GERSHGORIN_REFUSED):
        solve_sl(SLProblem({0: 1e300}, 1e10, ALPHA1, 24), branches=branches)


@pytest.mark.parametrize("c", [float("nan"), complex(0.2, float("inf"))])
def test_non_finite_coefficient_rejected(c):
    with pytest.raises(ValidationError, match=r"sturm.SLProblem: coefficient q_1 = .* is not finite"):
        SLProblem({0: 1.4, 1: c, -1: 0.2}, K, ALPHA1, 24)


def test_truncation_floor_validation():
    with pytest.raises(ValidationError):
        SLProblem({0: 1.0, 2: 0.1, -2: 0.1}, K, ALPHA1, 6)  # M < 2 deg + 4


def test_asymptotics_constant_q():
    prob = SLProblem({0: 1.5 + 0.1j}, K, ALPHA1, 32)
    rep = check_asymptotics(solve_sl(prob), n_min=4, n_max=14)
    assert rep.shift_convention == "alpha1"
    assert rep.eigenvalue_decay_exponent is None  # remainder at round-off
    assert max(abs(v) for v in rep.eigenvalue_remainders.values()) <= 1e-10
    np.testing.assert_allclose(rep.mean_term_fitted, rep.mean_term_exact, atol=1e-10)


def test_asymptotics_perturbed_profile():
    prob = SLProblem({0: 1.3 + 0.08j, 1: 0.15 + 0.02j, -1: 0.15 - 0.02j}, K, ALPHA1, 96)
    rep = check_asymptotics(solve_sl(prob), n_min=6, n_max=44)
    assert rep.shift_convention == "alpha1"
    assert not rep.shift_degenerate
    # eigenfunction deviation carries the tight O(1/n) law
    assert 0.8 <= rep.eigenfunction_decay_exponent <= 1.2
    # eigenvalue remainder decays at least that fast (the O(1/n) bound holds)
    assert rep.eigenvalue_decay_exponent >= 0.8
    # remainder magnitudes are consistent with a C/n envelope
    worst = max(abs(r) * n for (s, n), r in rep.eigenvalue_remainders.items())
    assert worst <= 0.1


def test_asymptotics_inconclusive_on_mismatched_problem():
    spec = solve_sl(SLProblem({0: 1.3}, K, 0.37, 48))
    wrong = SLProblem({0: 1.3}, K, 0.12, 48)
    with pytest.raises(FitInconclusive):
        check_asymptotics(dataclasses.replace(spec, problem=wrong), n_min=4, n_max=20)


def test_asymptotics_refuses_a_spectrum_without_plus_branches():
    prob = SLProblem({0: 1.3, 1: 0.1, -1: 0.1}, K, ALPHA1, 24)
    spec = solve_sl(prob, branches=[(-1, n) for n in range(1, 12)])
    with pytest.raises(ValidationError, match="need at least 8 branch pairs"):
        check_asymptotics(spec)


def test_csv_dump(tmp_path):
    prob = SLProblem({0: 1.5 + 0.1j}, K, ALPHA1, 8)
    spec = solve_sl(prob)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_spectrum_csv(spec, p1)
    write_spectrum_csv(spec, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0] == "n,branch,re_lambda,im_lambda,residual"
    assert len(lines) == 1 + len(spec.entries)
    n, branch, re_l, im_l, res = lines[1].split(",")
    assert (n, branch) == ("0", "+")
    np.testing.assert_allclose(float(re_l) + 1j * float(im_l),
                               _constant_lambda(1.5 + 0.1j, ALPHA1, 0), rtol=1e-15)


_COMPLEX_Q = {0: 1.4 + 0.05j, 1: 0.2 + 0.02j, -1: 0.15 - 0.02j, 2: 0.05j}


def _name(key):
    return re.escape("({:+d}, {})".format(*key))


def _assert_same_pair(targeted, dense):
    # unit-norm vectors with the largest component real on both paths
    assert abs(targeted.lam - dense.lam) <= 1e-12 * abs(dense.lam)
    np.testing.assert_allclose(targeted.coeffs, dense.coeffs, rtol=0, atol=1e-11)
    assert targeted.residual <= 1e-14


_DENSE_CASES = [
    # the q1 spectrum of the (3, 4), L = 2 schedule in test_schedule_start_threshold
    ({0: 1.7 + 0.12j, 1: 0.15, -1: 0.15}, K, 0.23, 20),
    # alpha1 near 0 and near 1/2: the low mirror pairs share clusters
    (_COMPLEX_Q, K, 0.03, 40),
    (_COMPLEX_Q, K, 0.47, 40),
    # high contrast: the anchors |m| <= 17 form one cluster
    ({0: 9.0 + 2.0j, 1: 3.0, -1: 2.5 + 1.0j, 2: 1.0}, K, ALPHA1, 96),
    # one-sided q: A is triangular, so every anchor is an exact eigenvalue
    ({0: 1.4 + 0.05j, 1: 0.3, 2: 0.1j}, K, ALPHA1, 24),
]
# the reconstruct benchmark's base profile at its truncation M = 144, and the
# 43 q1 branches of an L = 4 table on the schedule (16, ..., 64)
_RECONSTRUCT_CASE = ({0: 1.7 + 0.15j, 1: 0.3, -1: 0.3, 2: 0.15, -2: 0.15}, 1.6, 0.3, 144)
_RECONSTRUCT_KEYS = sorted({(1, m + l) for m in (16, 24, 32, 48, 64) for l in range(-4, 5)})


@pytest.mark.parametrize("coeffs, k, alpha1, M", _DENSE_CASES)
def test_targeted_matches_dense(coeffs, k, alpha1, M):
    # Where no two anchors coincide, solve_sl labels exactly the branches
    # whose dense eigenvector is the only one peaking at the branch's own
    # index, and returns the dense pair for them; every other key is undecided.
    prob = SLProblem(coeffs, k, alpha1, M)
    dense = oracles.dense_spectrum(prob)
    decided = list(dense.entries)
    spec = solve_sl(prob, normalize=False)
    assert set(spec.entries) == set(decided)
    assert set(spec.undecided) == set(dense.undecided)
    targeted = solve_sl(prob, normalize=False, branches=decided)
    assert list(targeted.entries) == sorted(decided, key=lambda t: t[0] * t[1])
    for key in decided:
        _assert_same_pair(targeted.entries[key], dense.entries[key])
        _assert_same_pair(spec.entries[key], dense.entries[key])
    for key in dense.undecided:
        with pytest.raises(EigenFailure, match="cannot label branches " + _name(key)):
            spec.entry(*key)


@pytest.mark.parametrize("alpha1, partner", [(0.0, lambda n: n), (0.5, lambda n: n + 1)])
def test_targeted_at_coincident_anchors(alpha1, partner):
    # At alpha1 = 0 (1/2) the anchors of m and -m (-m-1) coincide, and the
    # pair's eigenvalues agree to rounding: no eigenvector decides its label.
    prob = SLProblem(_COMPLEX_Q, K, alpha1, 40)
    dense = oracles.dense_spectrum(prob)
    spec = solve_sl(prob, normalize=False)
    for n in range(1, 13):
        pattern = (f"cannot label branches {_name((1, n))} "
                   f"in the cluster .*{_name((-1, partner(n)))}")
        with pytest.raises(EigenFailure, match=pattern):
            spec.entry(1, n)
    if alpha1 == 0.0:
        # the unpaired anchor m = 0 shares a cluster with m = -1 and 1, and
        # its eigenvector still peaks clearly at its own index
        alone = solve_sl(prob, normalize=False, branches=[(1, 0)])
        _assert_same_pair(alone.entries[(1, 0)], dense.entries[(1, 0)])
        _assert_same_pair(spec.entries[(1, 0)], dense.entries[(1, 0)])


@pytest.mark.parametrize("coeffs, alpha1, key, cluster", [
    # even q at alpha1 = 0: the eigenvectors are cos and sin, equal weights on +-1
    ({0: 1.4, 1: 0.2, -1: 0.2}, 0.0, (1, 1), [(-1, 1), (1, 0), (1, 1)]),
    # both eigenvectors of the cluster {0, -1} peak at index 0
    (_COMPLEX_Q, 0.47, (1, 0), [(-1, 1), (1, 0)]),
])
def test_targeted_inseparable_cluster_raises(coeffs, alpha1, key, cluster):
    prob = SLProblem(coeffs, K, alpha1, 24)
    names = ", ".join(map(_name, cluster))
    with pytest.raises(EigenFailure, match=f"branches {_name(key)} in the cluster {names}:"):
        solve_sl(prob, branches=[key]).entry(*key)


def test_huge_k_not_converged():
    # At k = 1e70 the band iteration does not converge (the spectrum it used to
    # return through a dense eigensolve was about 100x too small, with scaled
    # residuals near 93): solve_sl raises instead of labelling it
    with pytest.raises(EigenFailure, match=r"not converged in 30 steps \(scaled residual"):
        solve_sl(SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, 1e70, 0.3, 24))


def test_asymptotics_counts_undecided_pairs():
    # even q at alpha1 = 0: every mirror pair is undecided, so the fit has no
    # pair in range and says how many of those were left out
    spec = solve_sl(SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, 0.0, 24))
    with pytest.raises(ValidationError, match="need at least 8 branch pairs in range, got 0; "
                                              "9 pairs in range 4..12 have an undecided label"):
        check_asymptotics(spec)


def test_targeted_iteration_cap(monkeypatch):
    monkeypatch.setattr(sturm, "_MAX_STEPS", 1)
    prob = SLProblem(_COMPLEX_Q, K, ALPHA1, 24)
    with pytest.raises(EigenFailure, match=_name((1, 5)) + " not converged in 1 steps"):
        solve_sl(prob, branches=[(1, 5)])


def _shrink_discs(monkeypatch):
    solve = sturm._solve_clusters

    def shrunk(problem, ab, anchors, radius, *rest):
        return solve(problem, ab, anchors, 0.0, *rest)
    monkeypatch.setattr(sturm, "_solve_clusters", shrunk)


def test_targeted_eigenvalue_outside_discs_raises(monkeypatch):
    # with the discs shrunk to their centres the converged eigenvalue lies
    # outside them, so its label would not follow from the construction
    prob = SLProblem(_COMPLEX_Q, K, ALPHA1, 24)
    _shrink_discs(monkeypatch)
    pattern = "left the Gershgorin discs of branches " + _name((1, 5))
    with pytest.raises(EigenFailure, match=pattern):
        solve_sl(prob, branches=[(1, 5)])


def test_cluster_eigenvalue_outside_discs_raises(monkeypatch):
    # the same check on a cluster of two: anchors 0 and -1 at alpha1 = 0.47
    prob = SLProblem(_COMPLEX_Q, K, 0.47, 24)
    _shrink_discs(monkeypatch)
    pattern = "left the Gershgorin discs of branches " + _name((-1, 1)) + ", " + _name((1, 0))
    with pytest.raises(EigenFailure, match=pattern):
        solve_sl(prob, branches=[(1, 0)])


def _spy_clusters(monkeypatch):
    """Record the clusters, as lists of Fourier indices, of each _solve_clusters call."""
    seen = []
    solve = sturm._solve_clusters

    def spy(problem, ab, anchors, radius, anorm, ms, starts, windows):
        seen.append([c.tolist() for c in np.split(ms, starts[1:-1])])
        return solve(problem, ab, anchors, radius, anorm, ms, starts, windows)
    monkeypatch.setattr(sturm, "_solve_clusters", spy)
    return seen


def _spy_windows(monkeypatch):
    """Record the rows and the windows of each _windows call."""
    seen = []
    windows = sturm._windows

    def spy(anchors, radius, d, rows):
        seen.append((rows, windows(anchors, radius, d, rows)))
        return seen[-1][1]
    monkeypatch.setattr(sturm, "_windows", spy)
    return seen


@pytest.mark.parametrize("alpha1, clusters", [
    # anchors 0 and -1 lie 1 - 2 alpha1 = 0.5 = 2 radius apart: their discs touch
    pytest.param(0.25, [[-1, 0]], id="0.25-one_cluster_of_two"),
    # just past 2 radius: two clusters of one, each on its window
    pytest.param(0.25 - 2.0 ** -20, [[-1], [0]], id="0.2499990463256836-two_clusters_of_one"),
])
def test_targeted_cluster_threshold(monkeypatch, alpha1, clusters):
    # k = 1 and dyadic coefficients make the anchor gap and 2 radius exact
    prob = SLProblem({0: 2.0 + 0.25j, 1: 0.125, -1: 0.125j}, 1.0, alpha1, 8)
    seen = _spy_clusters(monkeypatch)
    keys = [(-1, 1), (1, 0)]
    targeted = solve_sl(prob, normalize=False, branches=keys)
    assert seen == [clusters]
    dense = oracles.dense_spectrum(prob)
    for key in keys:
        _assert_same_pair(targeted.entries[key], dense.entries[key])


def test_isolated_block_matches_one_branch_solves(monkeypatch):
    prob = SLProblem(*_RECONSTRUCT_CASE)
    assert len(_RECONSTRUCT_KEYS) == 43 and 2 * prob.M + 1 == 289
    d = prob.coeffs.degree
    applied, factored, solved = [], [], []
    apply, gbtrf, band_solve = sturm._band_apply, sturm._gbtrf, sturm._band_solve
    monkeypatch.setattr(sturm, "_band_apply",
                        lambda *args: applied.append(args[2].shape[0]) or apply(*args))
    monkeypatch.setattr(sturm, "_gbtrf",
                        lambda ab, *args, **kw: factored.append(ab.shape[1]) or gbtrf(ab, *args, **kw))
    monkeypatch.setattr(sturm, "_band_solve",
                        lambda ab, d, lo, hi, *args: solved.append((lo, hi))
                        or band_solve(ab, d, lo, hi, *args))
    windows = _spy_windows(monkeypatch)
    spec = solve_sl(prob, normalize=False, branches=_RECONSTRUCT_KEYS)
    [(rows, (lo, hi))] = windows
    assert [sturm._key(int(r) - prob.M) for r in rows] == _RECONSTRUCT_KEYS
    # each branch is solved on its own window, not on the order-289 matrix
    assert max(hi - lo) <= 45
    # one band apply per step, not per branch; every step but the last makes
    # one band LU, whose columns are the windows of the columns still iterating
    assert len(applied) <= sturm._MAX_STEPS + 1
    assert len(factored) == len(solved) == len(applied) - 1 >= 1
    for (a, b), columns in zip(solved, factored):
        assert set(zip(a, b)) <= set(zip(lo, hi)) and columns == np.sum(b - a)
    # each band apply runs on the rows the active windows span, widened by deg q
    for (a, b), rows in zip([(lo, hi)] + solved, applied):
        assert rows == min(np.max(b) + d, 289) - max(np.min(a) - d, 0) <= 289
    for key in _RECONSTRUCT_KEYS:
        alone = solve_sl(prob, normalize=False, branches=[key]).entries[key]
        assert abs(spec.entries[key].lam - alone.lam) <= 1e-14 * spec.matrix_norm
        np.testing.assert_allclose(spec.entries[key].coeffs, alone.coeffs, rtol=0, atol=1e-13)


def test_every_cluster_shares_one_band_lu_per_step(monkeypatch):
    # At alpha1 = 0 the mirror anchors of each n >= 2 form a cluster of two
    # (and -1, 0, 1 one of three).  Each step makes one band apply and one
    # band LU for every cluster still iterating, not one per cluster.
    prob = SLProblem(_COMPLEX_Q, K, 0.0, 24)
    applied, factored = [], []
    apply, gbtrf = sturm._band_apply, sturm._gbtrf
    monkeypatch.setattr(sturm, "_band_apply", lambda *args: applied.append(1) or apply(*args))
    monkeypatch.setattr(sturm, "_gbtrf",
                        lambda *args, **kw: factored.append(1) or gbtrf(*args, **kw))
    seen = _spy_clusters(monkeypatch)
    spec = solve_sl(prob)
    [clusters] = seen
    assert sorted(clusters) == sorted([[-1, 0, 1]] + [[-n, n] for n in range(2, 25)])
    assert len(factored) == len(applied) - 1 >= 1
    assert list(spec.entries) == [(1, 0)] and len(spec.undecided) == 48


def test_no_branches_asked_gives_an_empty_spectrum():
    prob = SLProblem(_COMPLEX_Q, K, ALPHA1, 24)
    spec = solve_sl(prob, branches=[])
    assert spec.entries == {} and spec.undecided == {}
    assert spec.matrix_norm == prob.gershgorin()[2]


@pytest.mark.parametrize("coeffs, k, alpha1, M", _DENSE_CASES + [_RECONSTRUCT_CASE])
def test_isolated_windows_hold_the_dense_eigenvectors(monkeypatch, coeffs, k, alpha1, M):
    # Every branch alone in its disc is solved on a window outside which its
    # eigenvector is below 2^-60.  The oracle is the dense eigenpair, refined
    # by three inverse-iteration steps with a dense LU of the full matrix (the
    # dense vector alone has round-off up to 2.1e-15 at the top of these
    # spectra); the windowed pair must also be the dense one.
    prob = SLProblem(coeffs, k, alpha1, M)
    dense = oracles.dense_spectrum(prob)
    decided = list(dense.entries)
    seen = _spy_windows(monkeypatch)
    targeted = solve_sl(prob, normalize=False, branches=decided)
    [(rows, (lo, hi))] = seen
    ms = rows - M
    keys = [sturm._key(int(m)) for m in ms]
    if (coeffs, k, alpha1, M) == _RECONSTRUCT_CASE:
        assert set(_RECONSTRUCT_KEYS) <= set(keys)
    A = oracles.sl_matrix(prob)
    for m, key, a, b in zip(ms, keys, lo, hi):
        _assert_same_pair(targeted.entries[key], dense.entries[key])
        # a shift 1e-13 |A| off the eigenvalue damps every other eigenvector
        # by at least 1e-9 per step
        lu = scipy.linalg.lu_factor(A - (dense.entries[key].lam + 1e-13 * dense.matrix_norm)
                                    * np.eye(2 * M + 1))
        x = np.eye(2 * M + 1)[m + M]
        for _ in range(3):
            x = scipy.linalg.lu_solve(lu, x)
            x /= np.linalg.norm(x)
        outside = np.abs(np.concatenate((x[:a], x[b:])))
        assert np.max(outside, initial=0.0) <= sturm._WINDOW_CUT


@pytest.mark.parametrize("key", [(-1, 0), (1, 25), (2, 3), (1, 2.5)])
def test_targeted_rejects_unknown_branch(key):
    with pytest.raises(ValidationError, match="no branch"):
        solve_sl(SLProblem(_COMPLEX_Q, K, ALPHA1, 24), branches=[key])


@pytest.mark.parametrize("alpha1", [ALPHA1, 0.0, 0.5])
def test_targeted_constant_q_is_exact(alpha1):
    # A is diagonal: e_m is an exact eigenvector, so no inverse-iteration step
    # runs; at alpha1 = 0 and 1/2 the mirror anchors are equal eigenvalues and
    # e_m still carries its label, as on the dense path
    q0 = 1.5 + 0.1j
    spec = solve_sl(SLProblem({0: q0}, K, alpha1, 24), branches=[(1, 3), (-1, 7)])
    for (sign, n), e in spec.entries.items():
        assert e.lam == _constant_lambda(q0, alpha1, sign * n)
        assert e.residual == 0.0
        assert np.argmax(np.abs(e.coeffs)) - 24 == sign * n


def _band_storage(A, d):
    """LAPACK band storage with kl = ku = d and d fill rows: ab[2d + i - j, j] = A[i, j]."""
    n = len(A)
    ab = np.zeros((3 * d + 1, n), dtype=complex, order="F")
    for i, j in zip(*np.nonzero(np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= d)):
        ab[2 * d + i - j, j] = A[i, j]
    return ab


def _window_solve(A, d, lo, hi, shift, y):
    """The reference: scipy's banded solve of (A - shift) x = y on rows lo..hi-1 alone."""
    w = A[lo:hi, lo:hi] - shift * np.eye(hi - lo)
    return scipy.linalg.solve_banded((d, d), _band_storage(w, d)[d:], y[lo:hi])


# windows of the order-49 matrix at M = 24: two touch row 0, two touch row 2M,
# one is the whole matrix (as a cluster's Ritz solves use it), two overlap
_BLOCK_WINDOWS = (np.array([0, 0, 5, 30, 40, 17]), np.array([12, 49, 20, 49, 49, 22]))


def test_block_diagonal_solve_matches_a_banded_solve_per_window():
    prob = SLProblem(_COMPLEX_Q, K, ALPHA1, 24)
    A, d = oracles.sl_matrix(prob), prob.coeffs.degree
    anorm = prob.gershgorin()[2]
    lo, hi = _BLOCK_WINDOWS
    rng = np.random.default_rng(5)
    theta = rng.normal(size=lo.size) * 3 + 1j * rng.normal(size=lo.size)
    Y = rng.normal(size=(49, lo.size)) + 1j * rng.normal(size=(49, lo.size))
    X = sturm._band_solve(_band_storage(A, d), d, lo, hi, theta, anorm, Y, np.arange(lo.size)[:, None])
    for i, (a, b) in enumerate(zip(lo, hi)):
        ref = _window_solve(A, d, a, b, theta[i], Y[:, i])
        np.testing.assert_allclose(X[a:b, i], ref, rtol=0, atol=1e-13 * np.linalg.norm(ref))
        assert not np.any(X[:a, i]) and not np.any(X[b:, i])


def test_block_diagonal_solve_nudges_every_exact_eigenvalue_shift(monkeypatch):
    # the one-sided q of _DENSE_CASES: A is lower triangular, so each anchor is
    # an exact eigenvalue and every window's first shift leaves a zero pivot
    coeffs, k, alpha1, M = _DENSE_CASES[-1]
    prob = SLProblem(coeffs, k, alpha1, M)
    A, d = oracles.sl_matrix(prob), prob.coeffs.degree
    anchors, radius, anorm = prob.gershgorin()
    lo, hi = _BLOCK_WINDOWS
    rows = np.array([3, 30, 10, 45, 44, 20])   # one row of each window
    factored = []
    gbtrf = sturm._gbtrf
    monkeypatch.setattr(sturm, "_gbtrf",
                        lambda ab, *args, **kw: factored.append(ab.shape[1]) or gbtrf(ab, *args, **kw))
    Y = np.eye(2 * M + 1)[:, rows]
    X = sturm._band_solve(_band_storage(A, d), d, lo, hi, anchors[rows], anorm, Y, rows[:, None])
    # one factorization finds the zero pivots, one more runs with every shift nudged
    assert factored == [np.sum(hi - lo)] * 2
    for i, (a, b) in enumerate(zip(lo, hi)):
        ref = _window_solve(A, d, a, b, anchors[rows[i]] + sturm._RESIDUAL_TOL * anorm, Y[:, i])
        np.testing.assert_allclose(X[a:b, i], ref, rtol=0, atol=1e-13 * np.linalg.norm(ref))


@pytest.mark.parametrize("alpha1, branches, names", [
    # two isolated branches: the first window is the first block of the stacked band
    (ALPHA1, [(1, 5), (1, 9)], [(1, 5)]),
    # a cluster of two: each of its Ritz solves names the whole cluster
    (0.47, [(1, 0)], [(-1, 1), (1, 0)]),
])
def test_singular_band_lu_names_only_its_blocks(monkeypatch, alpha1, branches, names):
    # a factorization that keeps U's first diagonal entry zero, nudge or not
    gbtrf = sturm._gbtrf

    def singular_first_block(ab, kl, ku, **kw):
        lu, piv, info = gbtrf(ab, kl, ku, **kw)
        lu[kl + ku, 0] = 0.0
        return lu, piv, info
    monkeypatch.setattr(sturm, "_gbtrf", singular_first_block)
    pattern = "singular band LU at branches " + ", ".join(map(_name, names)) + "$"
    with pytest.raises(EigenFailure, match=pattern):
        solve_sl(SLProblem(_COMPLEX_Q, K, alpha1, 24), branches=branches)
