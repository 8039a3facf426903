import math
import re
import sys

import numpy as np
import pytest

from gratescat import (DipoleDensity, PlaneWaveIncidence, Quasimomentum, build_modeset,
                       green_eval, helmholtz_residual, incident_from_density)
from gratescat.errors import PointsTooClose, ValidationError
from gratescat.greens import DELTA_MIN

K = 1.2
ALPHA = Quasimomentum(0.25, 0.15)
X = np.array([0.4, 0.7, 1.9])
Y = np.array([0.1, 0.3, 0.2])


def test_quasi_periodicity():
    ms = build_modeset(K, ALPHA, 10)
    g = green_eval(X, Y, ms)
    shifted = green_eval(X + np.array([2 * np.pi, 0.0, 0.0]), Y, ms)
    assert abs(shifted - np.exp(2j * np.pi * ALPHA.alpha1) * g) / abs(g) <= 1e-10


def test_tangential_translation_invariance():
    # G depends on the horizontal coordinates only through x' - y'
    ms = build_modeset(K, ALPHA, 8)
    g = green_eval(X, Y, ms)
    shift = np.array([0.83, -0.41, 0.0])
    g2 = green_eval(X + shift, Y + shift, ms)
    assert abs(g2 - g) / abs(g) <= 1e-12


def test_two_truncation_agreement():
    # independent summation at truncations N and 2N agree once the tail is dead
    ms_n = build_modeset(K, ALPHA, 16)
    ms_2n = build_modeset(K, ALPHA, 32)
    g1 = green_eval(X, Y, ms_n)
    g2 = green_eval(X, Y, ms_2n)
    assert abs(g1 - g2) / abs(g2) <= 1e-10


def test_points_too_close():
    ms = build_modeset(K, ALPHA, 4)
    with pytest.raises(PointsTooClose):
        green_eval(np.array([0.4, 0.7, 0.205]), Y, ms)


@pytest.mark.parametrize("factor", [1 - 1e-9, 1 + 1e-9])
def test_points_too_close_threshold(factor):
    # the guard's limit is |x3 - y3| = DELTA_MIN itself: 1e-9 below raises, 1e-9 above evaluates
    ms = build_modeset(K, ALPHA, 4)
    x = np.array([0.4, 0.7, DELTA_MIN * factor])
    y = np.array([0.1, 0.3, 0.0])
    if factor < 1:
        with pytest.raises(PointsTooClose):
            green_eval(x, y, ms)
    else:
        assert np.isfinite(green_eval(x, y, ms))


@pytest.mark.parametrize("x, y", [
    ([0.4, 0.7, np.nan], Y), (X, [0.1, np.inf, 0.2]), ([0.4, 0.7], Y), (X, [[0.1, 0.3, 0.2]]),
], ids=["nan-x", "inf-y", "short-x", "matrix-y"])
def test_green_eval_rejects_points_that_are_not_finite_3_vectors(x, y):
    with pytest.raises(ValidationError, match="greens.green_eval: x and y must be finite"):
        green_eval(x, y, build_modeset(K, ALPHA, 4))


def test_helmholtz_step_threshold():
    # h is rejected when it is not finite, when h^2 underflows to 0, or when
    # x + h or x - h rounds back to x on some axis
    ms = build_modeset(K, ALPHA, 4)
    assert 1e-162 ** 2 == 0 < 3e-162 ** 2
    for h in (0.0, 1e-162, 3e-162, 1e-200, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="greens.helmholtz_residual: step h"):
            helmholtz_residual(X, Y, ms, h)
    # the smallest step that moves every coordinate of X passes; the double
    # below it raises
    h = np.spacing(np.max(np.abs(X))) / 2
    while np.any(X + h == X) or np.any(X - h == X):
        h = np.nextafter(h, np.inf)
    assert np.isfinite(helmholtz_residual(X, Y, ms, h))
    with pytest.raises(ValidationError, match="does not move every coordinate of x"):
        helmholtz_residual(X, Y, ms, np.nextafter(h, 0.0))


def test_helmholtz_residual_and_h2_decay():
    ms = build_modeset(K, ALPHA, 10)
    r = helmholtz_residual(X, Y, ms, 1e-3)
    assert r <= 1e-5
    r1 = helmholtz_residual(X, Y, ms, 1e-2)
    r2 = helmholtz_residual(X, Y, ms, 5e-3)
    assert 3.3 <= r1 / r2 <= 4.7  # O(h^2)


def test_residual_truncation_independent():
    # larger separation kills the series tail; h large enough that the
    # finite-difference cancellation noise stays below the comparison level
    xfar = np.array([0.4, 0.7, 2.7])
    r12 = helmholtz_residual(xfar, Y, build_modeset(K, ALPHA, 12), 1e-2)
    r16 = helmholtz_residual(xfar, Y, build_modeset(K, ALPHA, 16), 1e-2)
    assert abs(r12 - r16) <= 1e-10


def test_plane_wave_validation():
    inc = PlaneWaveIncidence.from_angles(1.5, 1.1, 0.3)
    assert abs(np.dot(inc.p, inc.d)) < 1e-12
    with pytest.raises(ValidationError):
        PlaneWaveIncidence(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 1.5)  # d3 >= 0
    with pytest.raises(ValidationError):
        PlaneWaveIncidence(np.array([0, 0, 1.0]), np.array([0, 0, -1.0]), 1.5)  # p.d != 0


@pytest.mark.parametrize("p, d, k, what", [
    ((np.nan, 0, 0), (0, 0, -1.0), 1.5, "p"),
    ((1.0, np.inf, 0), (0, 0, -1.0), 1.5, "p"),
    ((1.0, 0, 0), (0, np.nan, -1.0), 1.5, "d"),
    ((1.0, 0, 0), (0, 0, -np.inf), 1.5, "d"),
    ((1.0, 0, 0), (0, 0, -1.0), np.nan, "k"),
    ((1.0, 0, 0), (0, 0, -1.0), np.inf, "k"),
], ids=["p_nan", "p_inf", "d_nan", "d_inf", "k_nan", "k_inf"])
def test_plane_wave_refuses_non_finite_input(p, d, k, what):
    with pytest.raises(ValidationError, match=rf"^greens\.PlaneWaveIncidence: {what} must be finite"):
        PlaneWaveIncidence(np.array(p), np.array(d), k)


def test_plane_wave_squared_norm_threshold():
    # |p|^2 = x^2 is the largest finite square; the next float up overflows.
    x = math.sqrt(sys.float_info.max)
    over = math.nextafter(x, math.inf)
    assert math.isfinite(x * x) and math.isinf(over * over)
    inc = PlaneWaveIncidence(np.array([x, 0, 0]), np.array([0, 0, -1.0]), 1.5)
    assert inc.p[0] == x
    with pytest.raises(ValidationError, match=r"^greens\.PlaneWaveIncidence: p must be finite "
                                              r"with a finite squared norm"):
        PlaneWaveIncidence(np.array([over, 0, 0]), np.array([0, 0, -1.0]), 1.5)
    # from_angles refuses the seed before projecting it, so no overflow warning is raised
    assert np.isfinite(PlaneWaveIncidence.from_angles(1.5, 1.1, 0.3, (0, x, 0)).p).all()
    for seed in ((0, over, 0), (1e308, 1e308, 1e308), (np.nan, 0, 1)):
        with pytest.raises(ValidationError, match=r"^greens\.PlaneWaveIncidence\.from_angles: "
                                                  r"pol_seed must be finite"):
            PlaneWaveIncidence.from_angles(1.5, 1.1, 0.3, seed)


@pytest.mark.parametrize("theta1, theta2", [(1.1, math.inf), (math.inf, 0.3), (-math.inf, 0.3),
                                            (1.1, math.nan), (math.nan, 0.3)])
def test_plane_wave_from_angles_refuses_a_non_finite_angle(theta1, theta2):
    # math.cos(inf) raised a bare "math domain error", and a NaN angle was blamed on p
    with pytest.raises(ValidationError, match=re.escape(
            "greens.PlaneWaveIncidence.from_angles: the angles theta1, theta2 must be finite, "
            f"got {theta1!r}, {theta2!r}")):
        PlaneWaveIncidence.from_angles(1.5, theta1, theta2)


@pytest.mark.parametrize("theta1, theta2", [(1.1, 0.3), (0.05, -7.0), (5e-324, 0.3),
                                            (math.nextafter(math.pi, 0.0), 1e6)])
def test_plane_wave_from_angles_keeps_every_finite_direction(theta1, theta2):
    # finite angles with 0 < theta1 < pi, to the last float, give d and p by the formula
    seed = np.array([0.0, 1.0, 0.0], dtype=complex)
    d = np.array([math.cos(theta1) * math.cos(theta2), math.cos(theta1) * math.sin(theta2),
                  -math.sin(theta1)])
    inc = PlaneWaveIncidence.from_angles(1.5, theta1, theta2)
    assert np.array_equal(inc.d, d)
    assert np.array_equal(inc.p, seed - np.dot(seed, d) * d)


@pytest.mark.parametrize("theta1, theta2", [(-5.0, 2.0), (2.0 * math.pi + 1.0, 1e6),
                                            (0.0, 0.3), (math.pi, 0.3)])
def test_both_from_angles_refuse_theta1_outside_0_pi(theta1, theta2):
    # the plane wave took any theta1 with sin(theta1) > 0, pi itself included,
    # and refused 0 only through d3 < 0; both constructors now share one rule
    rule = f"need 0 < theta1 < pi (a downgoing wave), got theta1 = {theta1!r}"
    with pytest.raises(ValidationError, match=re.escape(
            f"greens.PlaneWaveIncidence.from_angles: {rule}")):
        PlaneWaveIncidence.from_angles(1.5, theta1, theta2)
    with pytest.raises(ValidationError, match=re.escape(
            f"lattice.Quasimomentum.from_angles: {rule}")):
        Quasimomentum.from_angles(1.5, theta1, theta2)


def _single_mode_density(ms, height, n1, n2, vec):
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[ms.index_of(n1, n2), :2] = vec
    return DipoleDensity(ms, height, coeffs)


def test_incident_zero_mode_closed_form():
    # g with the single mode g_0 = (1,0,0) at alpha = 0: kappa_0 = (0,0,-k),
    # so the double-curl bracket collapses to k^2 (1,0,0).
    k = 1.3
    ms = build_modeset(k, Quasimomentum(0.0, 0.0), 3)
    a = 1.5
    inc = incident_from_density(_single_mode_density(ms, a, 0, 0, (1.0, 0.0)), ms)
    w = np.exp(1j * k * a) / (2j * k)
    expected = w * k * k * np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(inc.coeffs[ms.mode0], expected, rtol=1e-14)
    other = np.delete(inc.coeffs, ms.mode0, axis=0)
    assert np.max(np.abs(other)) == 0.0


def test_incident_divergence_free_and_downgoing():
    rng = np.random.default_rng(5)
    ms = build_modeset(K, ALPHA, 4)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
    inc = incident_from_density(DipoleDensity(ms, 1.4, coeffs), ms)
    assert inc.direction == "down"
    kappa = ms.alpha_n.astype(complex).copy()
    kappa[:, 2] = -ms.beta
    div = np.abs(np.sum(kappa * inc.coeffs, axis=1))
    assert np.max(div / np.max(np.abs(inc.coeffs))) <= 1e-12


def test_incident_matches_quadrature_oracle():
    # Trapezoid quadrature of the sheet integral, exact for band-limited
    # densities: per Green's mode n the x-dependence is a downgoing plane wave
    # with kappa_n = alpha_n - beta_n e3, so the double curl acts in closed
    # form under the integral and only the y'-quadrature remains.
    rng = np.random.default_rng(8)
    N = 4
    ms = build_modeset(K, ALPHA, N)
    a = 1.4
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
    dens = DipoleDensity(ms, a, coeffs)
    inc = incident_from_density(dens, ms)

    xpt = np.array([0.7, 1.1, 0.3])
    value = inc.values(xpt[None, :])[0]

    G = 4 * N + 3
    t = 2 * np.pi * np.arange(G) / G
    Y1, Y2 = np.meshgrid(t, t, indexing="ij")
    ypts = np.column_stack([Y1.ravel(), Y2.ravel()])
    phase_y = np.exp(1j * (np.outer(ypts[:, 0], ms.alpha_n[:, 0])
                           + np.outer(ypts[:, 1], ms.alpha_n[:, 1])))
    gvals = phase_y @ coeffs  # density values at the grid points
    oracle = np.zeros(3, dtype=complex)
    for j in range(ms.num_modes):
        kappa = np.array([ms.alpha_n[j, 0], ms.alpha_n[j, 1], -ms.beta[j]], dtype=complex)
        xphase = np.exp(1j * (kappa[0] * xpt[0] + kappa[1] * xpt[1] + kappa[2] * xpt[2]))
        coef = xphase * np.exp(1j * ms.beta[j] * a) / (1j * ms.beta[j]) / (8 * np.pi ** 2)
        yphase = np.exp(-1j * (ms.alpha_n[j, 0] * ypts[:, 0] + ms.alpha_n[j, 1] * ypts[:, 1]))
        gbar = yphase @ gvals * (2 * np.pi / G) ** 2
        oracle += coef * (K ** 2 * gbar - np.dot(kappa, gbar) * kappa)
    assert np.max(np.abs(value - oracle)) / np.max(np.abs(value)) <= 1e-8


def _tilted_d(theta1=1.1, theta2=0.3):
    return np.array([math.cos(theta1) * math.cos(theta2), math.cos(theta1) * math.sin(theta2),
                     -math.sin(theta1)])


def _density(g3):
    ms = build_modeset(K, ALPHA, 2)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[ms.mode0] = (1.0, 0.5j, g3)
    return DipoleDensity(ms, 1.6, coeffs)


@pytest.mark.parametrize("refuse, where", [
    (lambda: PlaneWaveIncidence(np.zeros(2), np.array([0.0, 0.0, -1.0]), K),
     "greens.PlaneWaveIncidence:"),
    (lambda: PlaneWaveIncidence(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, -2.0]), K),
     "greens.PlaneWaveIncidence:"),
    (lambda: PlaneWaveIncidence.from_angles(K, 1.1, 0.3, pol_seed=_tilted_d()),
     "greens.PlaneWaveIncidence.from_angles:"),
    (lambda: DipoleDensity(build_modeset(K, ALPHA, 2), 1.6, np.zeros((3, 3))),
     "greens.DipoleDensity:"),
    (lambda: _density(0.1), "greens.DipoleDensity:"),
], ids=["p-not-a-3-vector", "d-not-unit", "seed-parallel-to-d", "density-shape",
        "density-not-tangential"])
def test_refusal_names_its_guard(refuse, where):
    with pytest.raises(ValidationError, match="^" + re.escape(where)):
        refuse()
