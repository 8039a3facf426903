import numpy as np
import pytest

from gratescat import SLProblem, check_asymptotics, solve_sl
from gratescat.errors import (FitInconclusive, NormalizationDegenerate,
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
    # rho(A) <= ||A||_2; the computed pair may cross by a few ulps when equal
    cases = (({0: 1.4, 1: 0.2, -1: 0.2}, 12),
             ({0: 1.4 + 0.05j, 1: 0.2 + 0.02j, -1: 0.2 - 0.02j, -3: 0.3j}, 40),
             ({0: 9.0 + 2.0j, 1: 3.0, -1: 2.5 + 1.0j, 2: 1.0}, 96))
    for coeffs, M in cases:
        prob = SLProblem(coeffs, K, ALPHA1, M)
        spec = solve_sl(prob)
        assert spec.matrix_norm == np.max(np.abs(spec.lambdas()))
        assert spec.matrix_norm <= np.linalg.norm(prob.matrix(), 2) * (1.0 + 1e-14)
        assert max(e.residual for e in spec.entries.values()) <= 1e-12


def test_real_potential_real_spectrum():
    prob = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, ALPHA1, 48)
    spec = solve_sl(prob)
    lams = spec.lambdas()
    assert np.max(np.abs(lams.imag)) <= 1e-10 * max(1.0, np.max(np.abs(lams)))


def test_normalization_and_degenerate_case():
    prob = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, ALPHA1, 24)
    spec = solve_sl(prob)
    for e in spec.entries.values():
        assert abs(np.sum(e.coeffs) - 1.0) <= 1e-12
    # alpha1 = 0 with an even potential has odd eigenfunctions vanishing at 0
    bad = SLProblem({0: 1.4, 1: 0.2, -1: 0.2}, K, 0.0, 24)
    with pytest.raises(NormalizationDegenerate):
        solve_sl(bad)
    spec_raw = solve_sl(bad, normalize=False)
    assert len(spec_raw.entries) == 49


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


def test_truncation_floor_validation():
    with pytest.raises(ValidationError):
        SLProblem({0: 1.0, 2: 0.1, -2: 0.1}, K, ALPHA1, 6)  # M < 2 deg + 4


def test_asymptotics_constant_q():
    prob = SLProblem({0: 1.5 + 0.1j}, K, ALPHA1, 32)
    rep = check_asymptotics(solve_sl(prob), prob, n_min=4, n_max=14)
    assert rep.shift_convention == "alpha1"
    assert rep.eigenvalue_decay_exponent is None  # remainder at round-off
    assert max(abs(v) for v in rep.eigenvalue_remainders.values()) <= 1e-10
    np.testing.assert_allclose(rep.mean_term_fitted, rep.mean_term_exact, atol=1e-10)


def test_asymptotics_perturbed_profile():
    prob = SLProblem({0: 1.3 + 0.08j, 1: 0.15 + 0.02j, -1: 0.15 - 0.02j}, K, ALPHA1, 96)
    rep = check_asymptotics(solve_sl(prob), prob, n_min=6, n_max=44)
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
        check_asymptotics(spec, wrong, n_min=4, n_max=20)


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
