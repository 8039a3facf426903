"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines alongside the pytest verdicts.  Tolerances and budgets are fixed
here, not configurable.
"""

import time

import numpy as np
import pytest

from gratescat import (MediumProfile, PlaneWaveIncidence, Quasimomentum, SLProblem,
                       TangentialField, apply_R, build_modeset,
                       build_u, check_asymptotics, efficiencies, energy_forms,
                       extract_moments, green_eval, helmholtz_residual, inner, lattice,
                       reciprocity_gap, reconstruct_difference, solve_qpbvp,
                       solve_scattering, solve_sl)
from gratescat.errors import WoodAnomaly

import oracles


def _report(num, text):
    print(f"criterion {num:02d} PASS: {text}")


def test_criterion_01_mode_law(monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setattr(lattice, "WOOD_TOL", 1e-13)
    rng = np.random.default_rng(101)
    total = 0
    worst = 0.0
    while total < 10_000:
        k = rng.uniform(0.3, 3.0)
        alpha = Quasimomentum(rng.uniform(-0.7, 0.7) * k, rng.uniform(-0.7, 0.7) * k)
        ms = build_modeset(k, alpha, 5)
        disc = ms.beta ** 2 + np.sum(ms.alpha_n ** 2, axis=1) - k ** 2
        worst = max(worst, float(np.max(np.abs(disc))))
        assert np.all(ms.beta.imag >= 0)
        total += ms.num_modes
    assert worst <= 1e-12
    # guard triggers exactly at the threshold WOOD_TOL * k
    monkeypatch.setattr(lattice, "WOOD_TOL", 1e-6)
    k = 1.0
    tol = lattice.WOOD_TOL * k
    alpha2 = 0.6
    for t, should_raise in ((0.5 * tol, True), (tol, True), (2.0 * tol, False)):
        alpha1 = np.sqrt(k * k - t * t - alpha2 ** 2) - 1.0
        raised = False
        try:
            build_modeset(k, Quasimomentum(alpha1, alpha2), 1)
        except WoodAnomaly:
            raised = True
        assert raised == should_raise
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(1, f"mode law on {total} modes, worst defect {worst:.2e}, "
               f"wood guard exact ({elapsed:.2f} s)")


def test_criterion_02_greens_function():
    t0 = time.perf_counter()
    ms = build_modeset(1.2, Quasimomentum(0.25, 0.15), 10)
    x = np.array([0.4, 0.7, 1.9])
    y = np.array([0.1, 0.3, 0.2])
    g = green_eval(x, y, ms)
    shifted = green_eval(x + np.array([2 * np.pi, 0, 0]), y, ms)
    qp = abs(shifted - np.exp(2j * np.pi * 0.25) * g) / abs(g)
    assert qp <= 1e-10
    res = {h: helmholtz_residual(x, y, ms, h) for h in (1e-2, 5e-3, 2.5e-3)}
    assert res[2.5e-3] <= 1e-5
    assert 3.3 <= res[1e-2] / res[5e-3] <= 4.7
    assert 3.3 <= res[5e-3] / res[2.5e-3] <= 4.7
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(2, f"quasi-periodicity defect {qp:.2e}, residual(h=2.5e-3) "
               f"{res[2.5e-3]:.2e} with O(h^2) decay ({elapsed:.2f} s)")


def test_criterion_03_transparent_boundary_operator():
    t0 = time.perf_counter()
    # per-mode formula against hand-computed references
    ms0 = build_modeset(1.0, Quasimomentum(0.0, 0.0), 0)
    out = apply_R(TangentialField.from_components(ms0, [1.0], [0.0]))
    np.testing.assert_allclose(out.coeffs[0], [1j, 0, 0], atol=1e-15)
    ms = build_modeset(1.2, Quasimomentum(0.23, 0.11), 4)
    par = np.zeros((ms.num_modes, 3), dtype=complex)
    par[:, :2] = ms.alpha_n[:, :2] * (0.3 - 0.7j)
    rf = apply_R(TangentialField(ms, par))
    np.testing.assert_allclose(rf.coeffs, 1j * ms.beta[:, None] * par, atol=1e-13)
    # nonnegative imaginary form on 1000 random tangential fields
    rng = np.random.default_rng(103)
    scale = 4 * np.pi ** 2 * ms.k ** 2
    worst_im = 0.0
    for _ in range(1000):
        c = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
        f = TangentialField.from_components(ms, c[:, 0], c[:, 1])
        forms = energy_forms(f)
        floor = -1e-12 * scale * np.sum(np.abs(c) ** 2)
        assert forms["im_form"] >= floor
        worst_im = min(worst_im, forms["im_form"])
    # Parseval: cell quadrature of <Rf, f> against the mode sums
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes))
    rf = apply_R(f)
    g = 4 * ms.N + 3
    xg = 2 * np.pi * np.arange(g) / g
    X1, X2 = np.meshgrid(xg, xg, indexing="ij")
    pts = np.column_stack([X1.ravel(), X2.ravel()])
    quad = np.sum(np.sum(rf.values(pts) * np.conj(f.values(pts)), axis=1)) * (2 * np.pi / g) ** 2
    forms = energy_forms(f)
    modal = forms["re_form"] + 1j * forms["im_form"]
    parseval = abs(quad - modal) / abs(modal)
    assert parseval <= 1e-10
    assert abs(inner(rf, f) - modal) / abs(modal) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(3, f"formula exact, im-form >= 0 on 1000 fields, Parseval defect "
               f"{parseval:.2e} ({elapsed:.2f} s)")


def test_criterion_04_forward_oracle():
    t0 = time.perf_counter()
    k, th1, th2 = 1.25, 1.05, 0.4
    alpha = Quasimomentum.from_angles(k, th1, th2)
    ms = build_modeset(k, alpha, 8)
    b = 0.8
    # analytic two-point system for a uniform conducting-backed slab
    q0 = 1.4 + 0.2j
    prof = MediumProfile.from_coeffs({0: q0}, b)
    worst = 0.0
    for (n1, n2), vec in (((0, 0), (0.7 - 0.2j, -0.3 + 0.4j)),
                          ((2, -1), (1.0 + 0.5j, 0.6j)),
                          ((-3, 4), (0.2, 0.9 - 0.1j))):
        coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
        j = ms.index_of(n1, n2)
        coeffs[j, :2] = vec
        f = TangentialField(ms, coeffs, b)
        sol = solve_qpbvp(prof, f, ms)
        a1, a2 = ms.alpha_n[j, 0], ms.alpha_n[j, 1]
        gam = np.sqrt(k * k * q0 - a1 * a1 - a2 * a2)
        if gam.imag < 0:
            gam = -gam
        et = np.array([vec[1], -vec[0]])
        Bm = np.array([[-a1 * a2, a1 * a1 - k * k * q0],
                       [k * k * q0 - a2 * a2, a1 * a2]]) / k
        oracle = (k / gam) * (np.cos(gam * b) / np.sin(gam * b)) * (Bm @ et)
        worst = max(worst, float(np.max(np.abs(sol.trace.coeffs[j, :2] - oracle))
                                 / np.max(np.abs(oracle))))
    assert worst <= 1e-10
    # lossless constant q: modulus-1 specular reflection
    inc = PlaneWaveIncidence.from_angles(k, th1, th2, pol_seed=(0.3, 0.9, 0.2))
    pnorm = np.linalg.norm(inc.p)
    for q_lossless in (1.0, 1.45):
        res = solve_scattering(MediumProfile.from_coeffs({0: q_lossless}, b), inc, ms)
        scat = res.scattered.rebase(0.0)
        r_mod = np.linalg.norm(scat.coeffs[ms.mode0]) / pnorm
        assert abs(r_mod - 1.0) <= 1e-8
        eff = sum(efficiencies(res.scattered, inc).values())
        assert abs(eff - 1.0) <= 1e-8
    # absorbing: strict dissipation
    res_a = solve_scattering(MediumProfile.from_coeffs({0: 1.45 + 0.15j}, b), inc, ms)
    eff_a = sum(efficiencies(res_a.scattered, inc).values())
    assert eff_a < 1.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(4, f"impedance oracle defect {worst:.2e}, |r|=1 lossless, "
               f"absorbing efficiency {eff_a:.4f} < 1 ({elapsed:.1f} s)")


def test_criterion_05_truncation_convergence():
    t0 = time.perf_counter()
    k, th1, th2 = 1.2, 1.05, 0.4
    alpha = Quasimomentum.from_angles(k, th1, th2)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, 0.8)
    inc = PlaneWaveIncidence.from_angles(k, th1, th2)
    r12 = solve_scattering(prof, inc, build_modeset(k, alpha, 12))
    r16 = solve_scattering(prof, inc, build_modeset(k, alpha, 16))
    ms12, ms16 = r12.scattered.modeset, r16.scattered.modeset
    c12 = r12.scattered.rebase(0.0).coeffs
    c16 = r16.scattered.rebase(0.0).coeffs
    worst = max(
        float(np.max(np.abs(c12[j] - c16[ms16.index_of(int(ms12.n1[j]), int(ms12.n2[j]))])))
        for j in range(ms12.num_modes))
    assert worst < 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(5, f"N=12 vs N=16 Rayleigh coefficients change by {worst:.2e} "
               f"({elapsed:.1f} s)")


def test_criterion_06_sturm_liouville():
    t0 = time.perf_counter()
    k, a1 = 1.2, 0.3
    q0 = 1.5 + 0.1j
    spec_c = solve_sl(SLProblem({0: q0}, k, a1, 32))
    worst = 0.0
    for m in range(-28, 29):
        e = spec_c.entry(1 if m >= 0 else -1, abs(m))
        worst = max(worst, abs(e.lam - (k * k * q0 - (m + a1) ** 2)))
    assert worst <= 1e-10
    prob = SLProblem({0: 1.3 + 0.08j, 1: 0.15 + 0.02j, -1: 0.15 - 0.02j}, k, a1, 128)
    rep = check_asymptotics(solve_sl(prob))
    assert rep.shift_convention == "alpha1"
    # the O(1/n) law is tight for the eigenfunction deviation; the eigenvalue
    # remainder satisfies the same bound (it decays faster, see ledger note)
    assert 0.8 <= rep.eigenfunction_decay_exponent <= 1.2
    assert rep.eigenvalue_decay_exponent >= 0.8
    envelope = max(abs(r) * n for (s, n), r in rep.eigenvalue_remainders.items())
    assert envelope <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(6, f"constant-q defect {worst:.1e}; shift '{rep.shift_convention}', "
               f"eigenfunction exponent {rep.eigenfunction_decay_exponent:.2f}, "
               f"eigenvalue exponent {rep.eigenvalue_decay_exponent:.2f} "
               f"({elapsed:.1f} s)")


def test_criterion_07_separable_solutions():
    t0 = time.perf_counter()
    k, a1, a2 = 1.2, 0.3, 0.17
    prob = SLProblem({0: 1.4 + 0.08j, 1: 0.18 + 0.02j, -1: 0.18 - 0.02j}, k, a1, 48)
    spec = solve_sl(prob)
    rng = np.random.default_rng(107)
    pts = np.column_stack([rng.uniform(0, 2 * np.pi, 100),
                           rng.uniform(0.02, 2 * np.pi - 0.02, 100)])
    worst_res = 0.0
    worst_seam = 0.0
    worst_qp = 0.0
    for (sign, n) in ((1, 1), (-1, 3), (1, 6)):
        entry = spec.entry(sign, n)
        u = build_u(-entry.lam, a2)
        sol = oracles.build_separable(spec, entry, u)
        worst_res = max(worst_res, sol.residual_report(pts)["max_relative"])
        worst_seam = max(worst_seam, oracles.seam_defect(u))
        x2s = np.linspace(0.0, 2 * np.pi, 17)
        qp = np.max(np.abs(u.values(x2s + 2 * np.pi)
                           - np.exp(2j * np.pi * a2) * u.values(x2s)))
        worst_qp = max(worst_qp, qp / np.max(np.abs(u.values(x2s))))
    assert worst_res <= 1e-8
    assert worst_seam <= 1e-12
    assert worst_qp <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(7, f"cell residual {worst_res:.2e}, seam relation {worst_seam:.2e}, "
               f"value quasi-periodicity {worst_qp:.2e} ({elapsed:.1f} s)")


def test_criterion_08_reciprocity_gap():
    t0 = time.perf_counter()
    k = 1.2
    alpha = Quasimomentum(0.23, 0.11)
    ms = build_modeset(k, alpha, 8)
    b = 0.7
    rng = np.random.default_rng(108)

    def profile():
        # Hermitian coefficient pairs keep the oscillating part real-valued,
        # so the constant imaginary offset keeps Im q > 0 throughout
        im0 = 0.08 + 0.06 * rng.random()
        c1 = 0.08 * (rng.random() + 1j * rng.random())
        c2 = 0.05 * (rng.random() + 1j * rng.random())
        return MediumProfile.from_coeffs(
            {0: 1.4 + 0.25 * rng.random() + 1j * im0,
             1: c1, -1: np.conj(c1), 2: c2, -2: np.conj(c2)}, b)

    def data(seed):
        r = np.random.default_rng(seed)
        return TangentialField.from_components(
            ms, r.normal(size=ms.num_modes) + 1j * r.normal(size=ms.num_modes),
            r.normal(size=ms.num_modes) + 1j * r.normal(size=ms.num_modes), b)

    worst = 0.0
    for case in range(20):
        q1, q2 = profile(), profile()
        q1.validate()
        q2.validate()
        out = reciprocity_gap(q1, q2, data(1000 + case), data(2000 + case), ms)
        worst = max(worst, out["gap"])
    assert worst <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(8, f"max relative gap {worst:.2e} over 20 randomized cases "
               f"({elapsed:.1f} s)")


_MOMENT_BASE = {0: 1.7 + 0.15j, 1: 0.3, -1: 0.3, 2: 0.15, -2: 0.15}
_MOMENT_ALPHA = Quasimomentum(0.3, 0.14)
_MOMENT_K = 1.6
_SCHEDULE = (16, 24, 32, 48, 64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_09_moment_convergence():
    t0 = time.perf_counter()
    diff = {0: 0.15, -1: 0.25, -2: 0.12, 1: 0.05, 2: 0.03}
    q1c = dict(_MOMENT_BASE)
    for j, c in diff.items():
        q1c[j] = q1c.get(j, 0) + c
    q1 = MediumProfile.from_coeffs(q1c, 0.7)
    q2 = MediumProfile.from_coeffs(_MOMENT_BASE, 0.7)
    tab = extract_moments(q1, q2, 2, _SCHEDULE, k=_MOMENT_K, alpha=_MOMENT_ALPHA)
    slopes = {}
    for l in (0, 1, 2):
        exact = 2 * np.pi * diff.get(-l, 0.0)
        errs = np.array([abs(oracles.moment_entry(tab, l, m).A1 - exact) for m in _SCHEDULE])
        slopes[l] = float(-np.polyfit(np.log(_SCHEDULE), np.log(errs), 1)[0])
        assert 0.7 <= slopes[l] <= 1.3
    for l in range(-2, 3):
        logs = [oracles.moment_entry(tab, l, m).a2_log10 for m in _SCHEDULE]
        assert np.all(np.diff(logs) > 0)  # growth preset keeps |A2| climbing
    elapsed = time.perf_counter() - t0
    _report(9, "A1 decay exponents " +
            ", ".join(f"l={l}: {slopes[l]:.2f}" for l in (0, 1, 2)) +
            f"; |A2| growth monotone ({elapsed:.1f} s)")


_DIFF_10 = {0: 0.1, 1: 0.06, -1: 0.12, 2: 0.05, -2: 0.08,
            3: 0.04, -3: 0.05, 4: 0.03, -4: 0.04}


def _criterion_10_pair():
    q1c = dict(_MOMENT_BASE)
    for j, c in _DIFF_10.items():
        q1c[j] = q1c.get(j, 0) + c
    return MediumProfile.from_coeffs(q1c, 0.7), MediumProfile.from_coeffs(_MOMENT_BASE, 0.7)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_10_end_to_end_uniqueness():
    t0 = time.perf_counter()
    q1, q2 = _criterion_10_pair()
    q1.validate()
    q2.validate()
    tab = extract_moments(q1, q2, 4, _SCHEDULE, k=_MOMENT_K, alpha=_MOMENT_ALPHA)
    rec = reconstruct_difference(tab)
    worst = max(abs(rec.coeffs[j] - complex(_DIFF_10.get(j, 0.0))) for j in rec.coeffs)
    assert worst <= 1e-3
    tab0 = extract_moments(q2, q2, 4, _SCHEDULE, k=_MOMENT_K, alpha=_MOMENT_ALPHA)
    null = max(abs(v) for v in tab0.estimates.values())
    assert null <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(10, f"degree-4 difference recovered, max coefficient error {worst:.2e}; "
                f"identical profiles give {null:.1e} ({elapsed:.1f} s)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_criterion_10_schedule_past_the_float_range_of_the_preset():
    # m = 128 puts Re sqrt(mu) near 128, where the growth preset
    # e^{2 pi sqrt(mu)} is about 1e349; the transverse factors keep it as a log
    q1, q2 = _criterion_10_pair()
    tab = extract_moments(q1, q2, 4, (32, 48, 64, 96, 128), k=_MOMENT_K, alpha=_MOMENT_ALPHA)
    assert all(np.isfinite(e.a2_log10) and e.a2_ok for e in tab.entries)
    assert max(e.a2_log10 for e in tab.entries) > 308.0
    rec = reconstruct_difference(tab)
    worst = max(abs(rec.coeffs[j] - complex(_DIFF_10.get(j, 0.0))) for j in rec.coeffs)
    assert worst <= 1e-3
