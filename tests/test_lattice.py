import numpy as np
import pytest

from gratescat import Quasimomentum, TrigPoly, analyze, build_modeset, synthesize
from gratescat.errors import GridTooCoarse, ValidationError, WoodAnomaly
from gratescat.lattice import CellFunction


def test_mode_law_trivial_cases():
    ms = build_modeset(1.0, Quasimomentum(0.0, 0.0), 0)
    assert ms.beta[ms.mode0] == 1.0 + 0.0j
    assert ms.propagating[ms.mode0]

    ms = build_modeset(1.0, Quasimomentum(0.3, 0.0), 1, wood_tol=1e-10)
    j = ms.index_of(1, 0)
    # |alpha_n|^2 = 1.3^2 = 1.69, evanescent branch
    np.testing.assert_allclose(ms.beta[j], 1j * np.sqrt(0.69), rtol=1e-15)
    assert not ms.propagating[j]


def test_wood_anomaly_guard():
    # k = 1, alpha = 0: mode (1,0) sits exactly on the circle |alpha_n| = k
    with pytest.raises(WoodAnomaly) as ex:
        build_modeset(1.0, Quasimomentum(0.0, 0.0), 1, wood_tol=1e-8)
    assert ex.value.mode is not None

    # guard triggers exactly at |beta| <= wood_tol; every mode except the
    # engineered (1,0) sits far from the resonance circle
    tol = 1e-3
    alpha2 = 0.6
    for t, should_raise in ((0.5 * tol, True), (2.0 * tol, False)):
        k = 1.0
        alpha1 = np.sqrt(k * k - t * t - alpha2 ** 2) - 1.0  # (1,0) gets beta = t
        try:
            build_modeset(k, Quasimomentum(alpha1, alpha2), 1, wood_tol=tol)
            raised = False
        except WoodAnomaly:
            raised = True
        assert raised == should_raise


def test_mode_law_randomized():
    rng = np.random.default_rng(7)
    trials = 10_000
    k = rng.uniform(0.3, 3.0, trials)
    worst = 0.0
    for i in range(100):
        ki = k[i * 100]
        alpha = Quasimomentum(rng.uniform(-ki, ki) * 0.7, rng.uniform(-ki, ki) * 0.7)
        ms = build_modeset(ki, alpha, 9, wood_tol=1e-13)
        disc = ms.beta ** 2 + np.sum(ms.alpha_n ** 2, axis=1) - ki ** 2
        worst = max(worst, float(np.max(np.abs(disc))))
        assert np.all(ms.beta.imag >= 0)
        inside = np.sum(ms.alpha_n ** 2, axis=1) < ki ** 2
        assert np.array_equal(ms.propagating, inside)
    assert worst <= 1e-12


def test_quasimomentum_from_angles():
    k = 2.0
    qm = Quasimomentum.from_angles(k, np.pi / 3, np.pi / 4)
    np.testing.assert_allclose(qm.alpha1, np.sqrt(2) / 2, rtol=1e-14)
    np.testing.assert_allclose(qm.alpha2, np.sqrt(2) / 2, rtol=1e-14)
    assert qm.alpha1 ** 2 + qm.alpha2 ** 2 <= k ** 2
    with pytest.raises(ValidationError):
        Quasimomentum.from_angles(1.0, -0.1, 0.0)


def test_analyze_constant_and_single_mode():
    ms = build_modeset(1.3, Quasimomentum(0.0, 0.0), 2)
    x1, x2 = ms.grid(9)
    const = analyze(ms, np.ones_like(x1))
    assert abs(const.coeffs[ms.mode0] - 1.0) < 1e-14
    others = np.delete(const.coeffs, ms.mode0)
    assert np.max(np.abs(others)) < 1e-14

    mode = analyze(ms, np.exp(1j * x1))
    assert abs(mode.coeffs[ms.index_of(1, 0)] - 1.0) < 1e-13
    rest = np.delete(mode.coeffs, ms.index_of(1, 0))
    assert np.max(np.abs(rest)) < 1e-13


def test_round_trip_random_trig_polynomial():
    rng = np.random.default_rng(3)
    ms = build_modeset(1.3, Quasimomentum(0.0, 0.0), 2)
    coeffs = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    fn = CellFunction(ms, coeffs)
    for g in (5, 8, 16):
        x1, x2 = ms.grid(g)
        pts = np.column_stack([x1.ravel(), x2.ravel()])
        samples = synthesize(fn, pts).reshape(g, g)
        back = analyze(ms, samples)
        rel = np.max(np.abs(back.coeffs - coeffs)) / np.max(np.abs(coeffs))
        assert rel <= 1e-12


def test_parseval_on_grid():
    rng = np.random.default_rng(11)
    ms = build_modeset(1.3, Quasimomentum(0.0, 0.0), 3)
    coeffs = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    fn = CellFunction(ms, coeffs)
    g = 11
    x1, x2 = ms.grid(g)
    vals = synthesize(fn, np.column_stack([x1.ravel(), x2.ravel()]))
    lhs = np.sum(np.abs(vals) ** 2) / g ** 2
    rhs = np.sum(np.abs(coeffs) ** 2)
    assert abs(lhs - rhs) / rhs <= 1e-12


def test_grid_too_coarse():
    ms = build_modeset(1.3, Quasimomentum(0.0, 0.0), 3)
    with pytest.raises(GridTooCoarse):
        analyze(ms, np.ones((6, 6)))  # need 2N+1 = 7


# Non-Hermitian on purpose: c_{-j} != conj(c_j), and one key beyond every n below.
TRIG = TrigPoly({2: 0.3 - 0.1j, 0: 1.5 + 0.2j, -1: 0.25j, 1: -0.4, -5: 0.07 + 0.02j})


def test_trigpoly_toeplitz_matches_definition():
    for n in (1, 2, 3, 5, 6, 9):
        T = TRIG.toeplitz(n)
        ref = np.array([[TRIG.get(a - b, 0.0) for b in range(n)] for a in range(n)])
        assert T.shape == (n, n)
        assert np.array_equal(T, ref)
    # |j| >= n drops out: at n = 5 the -5 term has no place in the matrix.
    assert not np.any(TRIG.toeplitz(5) == TRIG[-5])


def test_trigpoly_evaluation_and_conj():
    x = np.linspace(-1.0, 2.0 * np.pi + 1.0, 41)
    direct = sum(c * np.exp(1j * j * x) for j, c in TRIG.items())
    np.testing.assert_allclose(TRIG(x), direct, rtol=0, atol=1e-14)
    conj = TRIG.conj()
    assert isinstance(conj, TrigPoly)
    np.testing.assert_allclose(conj(x), np.conj(TRIG(x)), rtol=0, atol=1e-14)
    assert conj.conj() == TRIG


def test_trigpoly_difference_takes_union_of_keys():
    a = TrigPoly({0: 1.0, 1: 0.5j})
    b = TrigPoly({-2: 0.25, 0: 0.5})
    d = a - b
    assert isinstance(d, TrigPoly)
    assert d == {0: 0.5, 1: 0.5j, -2: -0.25}
    assert list(d) == [0, 1, -2]
    x = np.linspace(0.0, 2.0 * np.pi, 17)
    np.testing.assert_allclose(d(x), a(x) - b(x), rtol=0, atol=1e-15)


def test_trigpoly_normalises_and_degree_mean():
    empty = TrigPoly({})
    assert empty.degree == 0
    assert empty.mean == 0.0
    assert np.array_equal(empty(np.zeros(3)), np.zeros(3))
    q = TrigPoly({np.int64(-3): 1, 0: 2.5})
    assert all(type(j) is int and type(c) is complex for j, c in q.items())
    assert q.degree == 3 and q.mean == 2.5
    assert q == {-3: 1.0, 0: 2.5}
