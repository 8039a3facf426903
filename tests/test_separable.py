import dataclasses

import numpy as np
import pytest

from gratescat import SLProblem, build_u, moment_kernels, solve_sl
from gratescat.errors import DegenerateDenominator, ValidationError, ZeroLambda
from gratescat.lattice import TrigPoly
from gratescat.separable import _log_interval_integral, transverse_overlap

import oracles

K = 1.2
ALPHA1 = 0.3
ALPHA2 = 0.17
TWO_PI = 2.0 * np.pi


def test_coefficient_relation_reference_case():
    # mu = 1, alpha2 = 0: c1 = c2 (e^{-2pi} - 1)/(1 - e^{2pi}) with the preset c2 = e^{2pi}
    u = build_u(1.0, 0.0)
    expected = np.exp(TWO_PI) * (np.exp(-TWO_PI) - 1.0) / (1.0 - np.exp(TWO_PI))
    np.testing.assert_allclose(u.c1, expected, rtol=1e-15)


def test_ode_and_seam():
    for mu in (1.0, -2.3, 0.7 + 0.4j, -9.0 + 0.5j):
        u = build_u(mu, ALPHA2)
        x = np.linspace(0.05, TWO_PI - 0.05, 41)
        assert oracles.derivative2_residual(u, x) <= 1e-12
        assert oracles.seam_defect(u) <= 1e-12


def test_value_quasi_periodicity_of_extension():
    u = build_u(-4.0 + 0.3j, ALPHA2)
    x = np.linspace(0.0, TWO_PI, 23)
    lhs = u.values(x + TWO_PI)
    rhs = np.exp(1j * TWO_PI * ALPHA2) * u.values(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_build_u_guards():
    with pytest.raises(ZeroLambda):
        build_u(0.0, ALPHA2)
    # resonance: sqrt(mu) = i alpha2 makes the denominator vanish
    with pytest.raises(DegenerateDenominator):
        build_u(-(ALPHA2 ** 2), ALPHA2)


@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_zero_lambda_threshold(factor):
    # |mu| < 1e-14 is refused; the limit itself sits between these two cases
    mu = 1e-14 * factor * np.exp(0.7j)
    if factor < 1:
        with pytest.raises(ZeroLambda):
            build_u(mu, ALPHA2)
    else:
        u = build_u(mu, ALPHA2)
        assert u.mu == mu and np.isfinite(u.c1)


@pytest.mark.parametrize("factor", [1 - 1e-2, 1 + 1e-2])
def test_degenerate_denominator_threshold(factor):
    # sqrt(mu) = i alpha2 + log1p(1e-12 f) / 2pi puts |e^{2 pi i alpha2} - e^{2 pi sqrt(mu)}|
    # at 1e-12 f, against the guard's 1e-12; squaring into mu and back moves the
    # offset by about 1e-4 relative, inside the 1% margin
    s = 1j * ALPHA2 + np.log1p(1e-12 * factor) / TWO_PI
    mu = s * s
    denom = abs(np.exp(1j * TWO_PI * ALPHA2) - np.exp(TWO_PI * np.sqrt(complex(mu))))
    assert abs(denom / (1e-12 * factor) - 1) <= 1e-3
    if factor < 1:
        with pytest.raises(DegenerateDenominator):
            build_u(mu, ALPHA2)
    else:
        u = build_u(mu, ALPHA2)
        assert np.isfinite(u.c1)


def test_separable_constant_q_closed_form():
    q0 = 1.5 + 0.1j
    prob = SLProblem({0: q0}, K, ALPHA1, 16)
    spec = solve_sl(prob)
    entry = spec.entry(1, 0)  # v = e^{i alpha1 x1}, lambda = k^2 q0 - alpha1^2
    u = build_u(-entry.lam, ALPHA2)
    sol = oracles.build_separable(spec, entry, u)
    rng = np.random.default_rng(1)
    pts = np.column_stack([rng.uniform(0, TWO_PI, 100), rng.uniform(0.03, TWO_PI - 0.03, 100)])
    assert sol.residual_report(pts)["max_relative"] <= 1e-10


def test_separable_lambda_mismatch():
    prob = SLProblem({0: 1.5 + 0.1j}, K, ALPHA1, 16)
    spec = solve_sl(prob)
    entry = spec.entry(1, 2)
    with pytest.raises(oracles.LambdaMismatch):
        oracles.build_separable(spec, entry, build_u(entry.lam, ALPHA2))  # same sign: wrong


def test_separable_residual_scales_with_eigen_perturbation():
    prob = SLProblem({0: 1.4 + 0.06j, 1: 0.15, -1: 0.15}, K, ALPHA1, 32)
    spec = solve_sl(prob)
    entry = spec.entry(1, 3)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(0, TWO_PI, 60), rng.uniform(0.05, TWO_PI - 0.05, 60)])
    base = oracles.build_separable(spec, entry, build_u(-entry.lam, ALPHA2))
    r0 = base.residual_report(pts)["max_relative"]
    res = {}
    for delta in (1e-6, 1e-5):
        bent = dataclasses.replace(entry, lam=entry.lam + delta)
        sol = oracles.build_separable(spec, bent, build_u(-(entry.lam + delta), ALPHA2))
        res[delta] = sol.residual_report(pts)["max_relative"]
    assert res[1e-5] > res[1e-6] > r0
    ratio = (res[1e-5] - r0) / (res[1e-6] - r0)
    assert 5.0 <= ratio <= 20.0  # linear in the eigenpair perturbation


def test_nonconstant_profile_residual():
    prob = SLProblem({0: 1.4 + 0.08j, 1: 0.18 + 0.02j, -1: 0.18 - 0.02j}, K, ALPHA1, 48)
    spec = solve_sl(prob)
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, TWO_PI, 100), rng.uniform(0.03, TWO_PI - 0.03, 100)])
    for (sign, n) in ((1, 2), (-1, 5), (1, 9)):
        entry = spec.entry(sign, n)
        sol = oracles.build_separable(spec, entry, build_u(-entry.lam, ALPHA2))
        assert sol.residual_report(pts)["max_relative"] <= 1e-8


def _one_pair(sp_n, e_n, sp_m, e_m, qdiff):
    # moment_kernels on a batch of one pair; returns that pair's A1 and log A2
    A1, a2_log = moment_kernels(sp_n, [e_n], sp_m, [e_m], build_u([-e_n.lam], ALPHA2),
                                build_u([-e_m.lam], ALPHA2), qdiff)
    return A1[0], a2_log[0]


def test_moment_kernel_orthogonality_cases():
    q0 = 1.5 + 0.1j
    prob = SLProblem({0: q0}, K, ALPHA1, 24)
    spec = solve_sl(prob)
    l = 2
    n, m = 7, 5  # n - m = l
    e_n, e_m = spec.entry(1, n), spec.entry(1, m)
    # difference e^{-i l x1} against exact exponential eigenfunctions picks 2pi
    A1, _ = _one_pair(spec, e_n, spec, e_m, {-l: 1.0})
    np.testing.assert_allclose(A1, TWO_PI, rtol=1e-12)
    # any other offset integrates to zero
    A1_0, _ = _one_pair(spec, e_n, spec, e_m, {-l + 1: 1.0})
    assert abs(A1_0) <= 1e-12
    # zero difference: exactly zero
    A1_z, _ = _one_pair(spec, e_n, spec, e_m, {})
    assert A1_z == 0.0


def test_transverse_overlap_matches_quadrature():
    # the closed form is the production path; a dense trapezoid rule is the
    # independent cross-check (O(h^2), so it needs a fine grid to reach 1e-10)
    for mu_n, mu_m in ((1.3 + 0.2j, 2.1 - 0.0j), (-3.0 + 0.4j, 1.7 + 0.1j)):
        u_n = build_u(mu_n, ALPHA2)
        u_m = build_u(mu_m, ALPHA2)
        log_a2 = transverse_overlap(u_n, u_m)
        x = np.linspace(0.0, TWO_PI, 2_000_001)
        integrand = u_n.values(x) * np.conj(u_m.values(x))
        quad = np.trapezoid(integrand, x)
        np.testing.assert_allclose(np.exp(log_a2), quad, rtol=1e-10)
        # log A2 is log|A2| + i arg A2 with the principal argument
        np.testing.assert_allclose(np.exp(log_a2.real), abs(quad), rtol=1e-10)
        assert abs(log_a2.imag - np.angle(quad)) <= 1e-10


def test_a2_growth_under_preset():
    # constant-q spectra give mu_m ~ (m + alpha1)^2; under the growth preset
    # the overlap magnitude increases without bound in the branch index
    q0 = 1.5 + 0.1j
    prob = SLProblem({0: q0}, K, ALPHA1, 40)
    spec = solve_sl(prob)
    logs = []
    for m in range(4, 20, 2):
        e_n, e_m = spec.entry(1, m + 1), spec.entry(1, m)
        _, a2_log = _one_pair(spec, e_n, spec, e_m, {0: 1.0})
        logs.append(a2_log.real / np.log(10.0))
    assert np.all(np.diff(logs) > 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_build_u_far_beyond_float_range_of_preset():
    # at Re sqrt(mu) = 200 the preset e^{2 pi sqrt(mu)} is about 1e546; it is
    # read as its log and c1 stays of order one
    s = 200.0 + 0.3j
    u = build_u(s * s, ALPHA2)
    # c1 -> e^{2 pi i alpha2} as e^{-2 pi sqrt(mu)} underflows
    assert np.isfinite(u.c1)
    np.testing.assert_allclose(u.c1, np.exp(1j * TWO_PI * ALPHA2), rtol=1e-15)
    log_a2 = transverse_overlap(u, build_u((s + 1.0) ** 2, ALPHA2))
    assert np.isfinite(log_a2) and log_a2.real > 2000.0


def _a1_trapezoid(spec1, e_n, spec2, e_m, qdiff):
    # alias-free uniform grid: the integrand is a trigonometric polynomial of
    # degree M1 + M2 + deg(qdiff) once the quasimomentum phases cancel
    G = 2 * (spec1.problem.M + spec2.problem.M + max(abs(j) for j in qdiff)) + 9
    x = TWO_PI * np.arange(G) / G
    dq = sum(c * np.exp(1j * j * x) for j, c in qdiff.items())
    vn = spec1.eigenfunction_values([e_n], x)[:, 0]
    vm = spec2.eigenfunction_values([e_m], x)[:, 0]
    return np.sum(vn * np.conj(vm) * dq) * TWO_PI / G


def test_moment_kernel_a1_matches_trapezoid_reference():
    spec1 = solve_sl(SLProblem({0: 1.5 + 0.1j, 1: 0.2 + 0.03j, -1: 0.18, 2: 0.05}, K, ALPHA1, 40))
    spec2 = solve_sl(SLProblem({0: 1.4 - 0.08j, 1: 0.1j, -1: 0.15, -3: 0.04}, K, ALPHA1, 48))
    qdiff = {-3: 0.04 - 0.01j, -1: 0.05, 0: 0.1 + 0.02j, 1: -0.07j, 2: 0.05, 3: 0.03}
    far = spec1.problem.M + spec2.problem.M + 1  # no coefficient pair reaches this offset
    # the last four pairs sit on a truncation edge, where c[+-M] is not small
    cases = ((spec1, (1, 7), spec2, (1, 5)), (spec1, (-1, 3), spec2, (1, 2)),
             (spec1, (1, 20), spec2, (1, 22)), (spec2, (1, 42), spec1, (1, 40)),
             (spec2, (-1, 38), spec1, (-1, 40)), (spec1, (1, 40), spec2, (1, 41)),
             (spec1, (-1, 40), spec2, (-1, 42)))
    for sp_n, (sn, n), sp_m, (sm, m) in cases:
        e_n, e_m = sp_n.entry(sn, n), sp_m.entry(sm, m)
        A1, _ = _one_pair(sp_n, e_n, sp_m, e_m, qdiff)
        ref = _a1_trapezoid(sp_n, e_n, sp_m, e_m, qdiff)
        np.testing.assert_allclose(A1, ref, rtol=1e-12)
        with_far, _ = _one_pair(sp_n, e_n, sp_m, e_m, {**qdiff, far: 1.0})
        assert with_far == A1
        alone, _ = _one_pair(sp_n, e_n, sp_m, e_m, {far: 1.0})
        assert alone == 0.0
        assert abs(_a1_trapezoid(sp_n, e_n, sp_m, e_m, {far: 1.0})) <= 1e-12  # round-off


def test_branch_swap_symmetry():
    # flipping sqrt(mu) -> -sqrt(mu) swaps the roles of c1 and c2: the seam
    # relation coefficients satisfy ratio(s) * ratio(-s) = 1, so the same
    # two-exponential family comes out either way
    mu = 2.7 + 0.9j
    u = build_u(mu, ALPHA2)
    s = u.sqrt_mu
    qp = np.exp(1j * TWO_PI * ALPHA2)
    ratio_pos = (np.exp(-TWO_PI * s) - qp) / (qp - np.exp(TWO_PI * s))
    ratio_neg = (np.exp(TWO_PI * s) - qp) / (qp - np.exp(-TWO_PI * s))
    np.testing.assert_allclose(ratio_pos * ratio_neg, 1.0, rtol=1e-12)
    # rebuild on the flipped branch with swapped coefficients: same function
    x = np.linspace(0.1, TWO_PI - 0.1, 17)
    manual = np.exp(TWO_PI * u.sqrt_mu) * np.exp(-s * x) + u.c1 * np.exp(s * x)
    np.testing.assert_allclose(u.values(x), manual, rtol=1e-13)


def _reconstruct_pairs():
    # the spectra and the 45 (m + l, m) pairs of a degree-4 moment table on
    # the reconstruct benchmark's profiles, as extract_moments builds them
    base = {0: 1.7 + 0.15j, 1: 0.3, -1: 0.3, 2: 0.15, -2: 0.15}
    diff = {0: 0.1, 1: 0.06, -1: 0.12, 2: 0.05, -2: 0.08, 3: 0.04, -3: 0.05, 4: 0.03, -4: 0.04}
    q1 = TrigPoly({j: base.get(j, 0) + diff.get(j, 0) for j in {**base, **diff}})
    q2 = TrigPoly(base)
    schedule, L = (16, 24, 32, 48, 64), 4
    pairs = [(m + l, m) for l in range(-L, L + 1) for m in schedule]
    M = 2 * (schedule[-1] + L) + 8
    spec1 = solve_sl(SLProblem(q1, 1.6, 0.3, M), branches=[(1, n) for n, _ in pairs])
    spec2 = solve_sl(SLProblem(q2.conj(), 1.6, 0.3, M), branches=[(1, m) for m in schedule])
    return (spec1, [spec1.entry(1, n) for n, _ in pairs],
            spec2, [spec2.entry(1, m) for _, m in pairs], q1 - q2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_batched_kernels_equal_one_pair_calls():
    spec1, entries_n, spec2, entries_m, qdiff = _reconstruct_pairs()
    u_n = build_u([-e.lam for e in entries_n], 0.14)
    u_m = build_u([-e.lam for e in entries_m], 0.14)
    A1, a2_log = moment_kernels(spec1, entries_n, spec2, entries_m, u_n, u_m, qdiff)
    assert A1.shape == a2_log.shape == (45,)
    for p, (e_n, e_m) in enumerate(zip(entries_n, entries_m)):
        one_n, one_m = build_u([-e_n.lam], 0.14), build_u([-e_m.lam], 0.14)
        assert one_n.c1[0] == u_n.c1[p] and one_m.c1[0] == u_m.c1[p]
        A1_p, a2_p = moment_kernels(spec1, [e_n], spec2, [e_m], one_n, one_m, qdiff)
        assert abs(A1_p[0] - A1[p]) <= 1e-13 * abs(A1_p[0])
        assert a2_p[0] == a2_log[p]


def test_batch_guards_name_the_offending_element():
    ok = [1.0, 2.1 - 0.3j, -4.0 + 0.2j]
    with pytest.raises(DegenerateDenominator, match=r"at element 2 \(mu = "):
        build_u(ok[:2] + [-(ALPHA2 ** 2)] + ok[2:], ALPHA2)
    with pytest.raises(ZeroLambda, match=r"got mu = 0\+0j at element 1"):
        build_u(ok[:1] + [0.0] + ok[1:], ALPHA2)
    assert build_u(ok, ALPHA2).c1.shape == (3,)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_log_interval_integral_branches_are_evaluated_apart():
    # one batch through all four forms (series, Re 2 pi w > 50, < -50, direct)
    # equals each element alone, and no form sees another's elements: their
    # exponentials would overflow there
    w = np.array([1e-6 + 2e-6j, 120.0 + 3.0j, -130.0 + 0.5j, 0.7 - 1.1j, -300.0, 400.0 - 2j])
    batch = _log_interval_integral(w)
    for i, wi in enumerate(w):
        assert _log_interval_integral(wi) == batch[i]
    mid = w[3]
    np.testing.assert_allclose(np.exp(batch[3]), (np.exp(TWO_PI * mid) - 1) / mid, rtol=1e-14)
    np.testing.assert_allclose(batch[4], 1j * np.pi - np.log(w[4] + 0j), rtol=1e-14)


def test_moment_kernels_refuse_spectra_of_different_alpha1():
    spec1 = solve_sl(SLProblem({0: 1.4}, K, ALPHA1, 8), branches=[])
    spec2 = solve_sl(SLProblem({0: 1.4}, K, ALPHA1 + 1e-12, 8), branches=[])
    with pytest.raises(ValidationError,
                       match="^separable.moment_kernels: spectra use different alpha1"):
        moment_kernels(spec1, [], spec2, [], None, None, {0: 0.1})
