import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import gratescat
from gratescat import (MediumProfile, MomentTable, Quasimomentum, TangentialField,
                       build_modeset, extract_moments, reciprocity_gap, reconstruct_difference)
from gratescat import forward, inverse, sturm
from gratescat.errors import A2Floor, InsufficientDegree, NotOneDirectional, ValidationError
from gratescat.forward import LayerField, Slab, _Stack, solve_layer_modes, solve_qpbvp
from gratescat.inverse import _gauss_order, write_moment_csv, write_reconstruction_csv

import oracles

K = 1.2
ALPHA = Quasimomentum(0.23, 0.11)
B = 0.7
SCHEDULE = (16, 24, 32, 48, 64)


def _modeset(N=6):
    return build_modeset(K, ALPHA, N)


def _tangential(ms, seed):
    rng = np.random.default_rng(seed)
    return TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes), B)


def _profiles():
    q1 = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.12, -1: 0.12}, B)
    q2 = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.22, -1: 0.12}, B)
    return q1, q2


def test_gap_identical_profiles():
    ms = _modeset()
    q1, _ = _profiles()
    out = reciprocity_gap(q1, q1, _tangential(ms, 0), _tangential(ms, 1), ms)
    assert out["lhs"] == 0.0  # q2 - q1 has only zero coefficients
    assert abs(out["rhs"]) == 0.0  # identical solves, exact cancellation
    assert out["rhs_scale"] > 0.0  # of two equal, nonzero inner products
    assert out["gap"] <= 1e-10


def test_gap_different_profiles():
    ms = _modeset()
    q1, q2 = _profiles()
    out = reciprocity_gap(q1, q2, _tangential(ms, 2), _tangential(ms, 3), ms)
    assert abs(out["lhs"]) > 1.0  # both sides genuinely nonzero
    assert out["gap"] <= 1e-6


def _stacks(heights1, heights2):
    q1 = MediumProfile([Slab(h, {0: 1.5 + 0.1j, 1: 0.12, -1: 0.12}) for h in heights1])
    q2 = MediumProfile([Slab(h, {0: 1.5 + 0.1j, 1: 0.22, -1: 0.12}) for h in heights2])
    return q1, q2


@pytest.mark.parametrize("heights1, heights2", [
    ((0.1, 0.2), (0.3,)),  # slab totals one ulp apart
    ((0.35, 0.35), (0.7 + 0.5e-12,)),
    ((0.7 + 0.5e-12,), (0.35, 0.35)),
], ids=["one-ulp", "second-higher", "first-higher"])
def test_gap_accepts_heights_within_tolerance(heights1, heights2):
    # the volume segments end at the lower top, so no midpoint leaves a profile
    ms = _modeset(3)
    q1, q2 = _stacks(heights1, heights2)
    assert 0 < abs(q1.b - q2.b) <= 1e-12
    out = reciprocity_gap(q1, q2, _tangential(ms, 4), _tangential(ms, 5), ms)
    assert out["gap"] <= 1e-6


def test_gap_rejects_heights_beyond_tolerance():
    ms = _modeset(3)
    q1, q2 = _stacks((0.35, 0.35), (0.7 + 2e-12,))
    with pytest.raises(ValidationError, match="different layer heights"):
        reciprocity_gap(q1, q2, _tangential(ms, 4), _tangential(ms, 5), ms)


# three slabs whose total is one ulp below 1e4, where an ulp is 1.8e-12
_TALL = (5839.504529986082, 2973.3129963818674, 1187.1824736320493)


@pytest.mark.parametrize("top, accepted", [
    (1e4, True),                  # the slab totals one ulp apart
    (1e4 * (1 + 0.5e-12), True),
    (1e4 * (1 + 2e-12), False),
], ids=["one-ulp", "inside", "beyond"])
def test_gap_height_tolerance_is_relative_to_b(top, accepted):
    # an absolute 1e-12 refused even the one-ulp pair once b passed 8192
    ms = build_modeset(1e-3, Quasimomentum(2.3e-4, 1.1e-4), 0)
    q1 = MediumProfile([Slab(h, {0: 1.5 + 0.1j}) for h in _TALL])
    q2 = MediumProfile.from_coeffs({0: 1.7 + 0.1j}, top)
    assert q1.b < q2.b
    f, g = _tangential(ms, 4), _tangential(ms, 5)
    if accepted:
        assert reciprocity_gap(q1, q2, f, g, ms)["gap"] <= 1e-10
    else:
        with pytest.raises(ValidationError, match="different layer heights"):
            reciprocity_gap(q1, q2, f, g, ms)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_gap_boundary_data_cannot_be_non_finite(bad):
    # a NaN datum used to give a NaN trace and gap = nan with no error
    ms = _modeset(3)
    q1, q2 = _profiles()
    f, g = _tangential(ms, 4), _tangential(ms, 5)
    assert reciprocity_gap(q1, q2, f, g, ms)["gap"] <= 1e-6
    for make in (lambda: f * bad, lambda: g - f * bad):
        # 0 * inf in the zero third column is the caller's own invalid value
        with np.errstate(invalid="ignore"), pytest.raises(
                ValidationError, match=r"^rayleigh_dtn: non-finite coefficient"):
            reciprocity_gap(q1, q2, f, make(), ms)


def test_gap_evaluates_each_field_once_per_segment(monkeypatch):
    # slabs split at 0.3 and 0.45: three x3 segments, one batched call per
    # field and segment at all of its Gauss nodes, as many as the order rule
    # gives for the largest exponents of the two slabs there
    ms = _modeset(3)
    q1, q2 = _stacks((0.3, 0.4), (0.45, 0.25))
    calls = []
    evaluate = LayerField.mode_coefficients

    def counting(self, x3):
        calls.append(np.shape(x3))
        return evaluate(self, x3)

    monkeypatch.setattr(LayerField, "mode_coefficients", counting)
    out = reciprocity_gap(q1, q2, _tangential(ms, 4), _tangential(ms, 5), ms)
    g1 = [np.max(np.abs(solve_layer_modes(q1, j, ms).gamma)) for j in range(2)]
    g2 = [np.max(np.abs(solve_layer_modes(q2.conjugate(), j, ms).gamma)) for j in range(2)]
    orders = [_gauss_order((g1[j1] + g2[j2]) * 0.5 * (hi - lo))
              for lo, hi, j1, j2 in ((0.0, 0.3, 0, 0), (0.3, 0.45, 1, 0), (0.45, 0.7, 1, 1))]
    assert calls == [(n,) for n in orders for _ in range(2)]
    assert len(set(orders)) > 1
    assert out["gap"] <= 1e-6


def test_gap_recurses_amplitudes_of_the_two_evaluated_fields_only(monkeypatch):
    # three trace solves, but only E1 and E2 are evaluated: the T2 f solve
    # feeds the boundary side alone, so its amplitudes are never recursed
    ms = _modeset(3)
    q1, q2 = _stacks((0.3, 0.4), (0.45, 0.25))
    recursions = []
    recurse = _Stack.downward_amplitudes

    def counting(self, d):
        recursions.append(d.shape)
        return recurse(self, d)

    monkeypatch.setattr(_Stack, "downward_amplitudes", counting)
    for calls in (2, 4):
        assert reciprocity_gap(q1, q2, _tangential(ms, 4), _tangential(ms, 5), ms)["gap"] <= 1e-6
        assert len(recursions) == calls


def test_a_second_gap_on_the_same_pair_builds_no_stack(monkeypatch):
    # q1 and q2 hold their stacks, and q2 its conjugate, which holds its own
    ms = _modeset(3)
    q1, q2 = _stacks((0.3, 0.4), (0.45, 0.25))
    f, g = _tangential(ms, 4), _tangential(ms, 5)
    first = reciprocity_gap(q1, q2, f, g, ms)
    assert q2.conjugate() is q2.conjugate()
    builds = []
    monkeypatch.setattr(forward, "_Stack", lambda *args: builds.append(1) or _Stack(*args))
    assert reciprocity_gap(q1, q2, f, g, ms) == first
    assert builds == []
    reciprocity_gap(MediumProfile(q1.slabs), q2, f, g, ms)
    assert builds == [1]


def _remainder_bound(n, c):
    """K_n c^(2n) of the n-node Gauss-Legendre rule, in exact rational arithmetic."""
    K = Fraction(2 ** (2 * n + 1) * factorial(n) ** 4, (2 * n + 1) * factorial(2 * n) ** 3)
    return K * Fraction(c) ** (2 * n)


@pytest.mark.parametrize("c", [0.0, 1e-9, 0.1, 0.444, 1.0, 3.5, 4.03, 12.0, 24.0, 60.0])
def test_gauss_order_is_the_smallest_meeting_the_bound(c):
    n = _gauss_order(c)
    assert _remainder_bound(n, c) <= Fraction(1e-16)
    assert n == 1 or _remainder_bound(n - 1, c) > Fraction(1e-16)


def _evanescent(ms, height):
    """Boundary data with all weight on the mode of largest |alpha_n|."""
    c = np.zeros(ms.num_modes, dtype=complex)
    c[np.argmax(np.linalg.norm(ms.alpha_n[:, :2], axis=1))] = 1.0
    return TangentialField.from_components(ms, c, 0.5j * c, height)


def _corner_mode_gap():
    """reciprocity_gap on corner-mode data, (0.35, 0.35) / (0.4, 0.3) pair, N = 32."""
    ms = _modeset(32)
    q1, q2 = _stacks((0.35, 0.35), (0.4, 0.3))
    f = _evanescent(ms, B)
    return reciprocity_gap(q1, q2, f, f, ms)


def test_gap_round_off_is_bounded_by_the_cancelled_boundary_terms():
    # Corner-mode data on the (0.35, 0.35) / (0.4, 0.3) pair at N = 32: q2 - q1
    # has no mean, so lhs is 4e-6 while each boundary inner product is about
    # 1.1e3, and rhs = -<T2 f - T1 f, g> cancels 8.7 digits.  |lhs - rhs|
    # measured 17.1 u rhs_scale on one OpenBLAS thread and 0.96 on two to
    # four; the bound allows 32 on any thread count.
    out = _corner_mode_gap()
    u = np.finfo(float).eps / 2
    assert out["rhs_scale"] / abs(out["rhs"]) >= 1e8
    assert abs(out["lhs"] - out["rhs"]) <= 32 * u * out["rhs_scale"]


def test_gap_round_off_reads_1e_6_on_one_blas_thread():
    # The gap there is round-off, so its value depends on how BLAS splits its
    # sums: 1.064e-6 on one OpenBLAS thread, 6.0e-8 on two to four.  It is
    # pinned, to 10%, in a child process held to one thread.
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "from test_inverse import _corner_mode_gap; out = _corner_mode_gap(); "
            "print(json.dumps([out['gap'], abs(out['lhs'] - out['rhs']), out['rhs_scale']]))")
    src = os.path.dirname(os.path.dirname(gratescat.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    run = subprocess.run([sys.executable, "-c", code, os.path.dirname(__file__)],
                         capture_output=True, text=True, env=env, check=True, timeout=300)
    gap, err, rhs_scale = json.loads(run.stdout)
    assert err <= 32 * np.finfo(float).eps / 2 * rhs_scale
    assert gap == pytest.approx(1.064e-6, rel=0.1)


@pytest.mark.parametrize("N, heights1, heights2", [
    (8, (0.35, 0.35), (0.4, 0.3)),
    (8, (1.5, 1.0), (0.9, 1.6)),
    (24, (0.7,), (0.7,)),
], ids=["N8-b0.7", "N8-b2.5", "N24-b0.7"])
def test_gap_lhs_matches_a_160_node_reference(monkeypatch, N, heights1, heights2):
    # q2 - q1 has a mean, so the corner mode pairs with itself.  Without one,
    # lhs on the evanescent data at N = 24 falls 4e5 below the field scale,
    # and 48 to 320 fixed nodes scatter by 5e-12 of it from round-off alone.
    ms = _modeset(N)
    q1 = MediumProfile([Slab(h, {0: 1.5 + 0.1j, 1: 0.12, -1: 0.12}) for h in heights1])
    q2 = MediumProfile([Slab(h, {0: 1.55 + 0.12j, 1: 0.22, -1: 0.12}) for h in heights2])
    data = [(_tangential(ms, 10), _tangential(ms, 11)), (_evanescent(ms, q1.b),) * 2]
    outs = [reciprocity_gap(q1, q2, f, g, ms) for f, g in data]
    monkeypatch.setattr(inverse, "_gauss_order", lambda c: 160)
    for (f, g), out in zip(data, outs):
        ref = reciprocity_gap(q1, q2, f, g, ms)["lhs"]
        assert abs(out["lhs"] - ref) <= 1e-12 * max(abs(ref), out["floor"])
        assert out["gap"] <= 1e-6


_GRID_X, _GRID_W = np.polynomial.legendre.leggauss(48)


def _grid_quadrature_lhs(profile1, profile2, f, g, ms):
    """Volume side on an alias-free FFT grid in the horizontal plane (reference).

    Its x3 rule is a fixed 48 Gauss nodes per segment, independent of the
    order rule that ``reciprocity_gap`` uses.
    """
    sol1 = solve_qpbvp(profile1, f, ms)
    sol3 = solve_qpbvp(profile2.conjugate(), g, ms)
    bounds = np.unique(np.concatenate([profile1.slab_bounds(), profile2.slab_bounds()]))
    deg = max(s.coeffs.degree for s in profile1.slabs + profile2.slabs)
    G = 4 * ms.N + 2 * deg + 9
    x1 = 2.0 * np.pi * np.arange(G) / G

    def grid_values(c):
        spec = np.zeros((G, G, 3), dtype=complex)
        spec[ms.n1 % G, ms.n2 % G, :] = c
        return np.fft.ifft2(spec, axes=(0, 1)) * (G * G)

    lhs = 0.0 + 0.0j
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        nodes, weights = 0.5 * (hi - lo) * _GRID_X + 0.5 * (lo + hi), 0.5 * (hi - lo) * _GRID_W
        for x3, w in zip(nodes, weights):
            dq = oracles.q_at(profile2, x1, x3) - oracles.q_at(profile1, x1, x3)
            v1 = grid_values(sol1.field.mode_coefficients(x3))
            v2 = grid_values(sol3.field.mode_coefficients(x3))
            lhs += w * np.sum(dq[:, None] * np.sum(v1 * np.conj(v2), axis=2)) * (2.0 * np.pi / G) ** 2
    return K * K * lhs


@pytest.mark.parametrize("N", [0, 4])
def test_gap_lhs_matches_grid_quadrature(N):
    # one slab against two slabs split at 0.3: three x3 segments, a different
    # q difference on each
    ms = _modeset(N)
    one = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.12 + 0.03j, -1: 0.12 - 0.03j}, B)
    two = MediumProfile([Slab(0.3, {0: 1.6 + 0.12j, 2: 0.05, -2: 0.05}),
                         Slab(B - 0.3, {0: 1.45 + 0.08j, 1: 0.2j, -1: -0.2j})])
    for p1, p2, seed in ((one, two, 6), (two, one, 8)):
        f, g = _tangential(ms, seed), _tangential(ms, seed + 1)
        out = reciprocity_gap(p1, p2, f, g, ms)
        ref = _grid_quadrature_lhs(p1, p2, f, g, ms)
        assert abs(ref) > 1e3 * out["floor"]
        assert abs(out["lhs"] - ref) <= 1e-13 * abs(ref)
        assert out["gap"] <= 1e-6


def test_gap_linearity_in_f():
    ms = _modeset(4)
    q1, q2 = _profiles()
    f = _tangential(ms, 4)
    g = _tangential(ms, 5)
    out1 = reciprocity_gap(q1, q2, f, g, ms)
    out2 = reciprocity_gap(q1, q2, 2.0 * f, g, ms)
    np.testing.assert_allclose(out2["lhs"], 2.0 * out1["lhs"], rtol=1e-9)
    np.testing.assert_allclose(out2["rhs"], 2.0 * out1["rhs"], rtol=1e-9)


def test_gap_randomized_suite():
    ms = _modeset(4)
    rng = np.random.default_rng(99)
    for case in range(5):
        im0 = 0.08 + 0.04 * rng.random()
        def coeffs():
            return {0: 1.4 + 0.2 * rng.random() + 1j * im0,
                    1: 0.1 * rng.random(), -1: 0.1 * rng.random(),
                    2: 0.05 * rng.random(), -2: 0.05 * rng.random()}
        q1 = MediumProfile.from_coeffs(coeffs(), B)
        q2 = MediumProfile.from_coeffs(coeffs(), B)
        q1.validate()
        q2.validate()
        out = reciprocity_gap(q1, q2, _tangential(ms, 100 + case),
                              _tangential(ms, 200 + case), ms)
        assert out["gap"] <= 1e-6


def _planted(base, diff):
    q1c = dict(base)
    for j, c in diff.items():
        q1c[j] = q1c.get(j, 0) + c
    return (MediumProfile.from_coeffs(q1c, B), MediumProfile.from_coeffs(base, B))


def test_single_mode_moment():
    base = {0: 1.6 + 0.12j, 1: 0.15 + 0.03j, -1: 0.15 - 0.03j}
    q1, q2 = _planted(base, {-1: 0.2})
    tab = extract_moments(q1, q2, 1, SCHEDULE, k=K, alpha=ALPHA)
    # moment at l = 1 picks 2 pi * coefficient of e^{-i x1}
    assert abs(tab.estimates[1] - 0.4 * np.pi) <= 1e-3


def test_identical_profiles_zero_moments():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q = MediumProfile.from_coeffs(base, B)
    tab = extract_moments(q, q, 2, SCHEDULE, k=K, alpha=ALPHA)
    assert max(abs(v) for v in tab.estimates.values()) <= 1e-8


def test_real_difference_conjugate_moments():
    base = {0: 1.6 + 0.12j, 1: 0.15 + 0.03j, -1: 0.15 - 0.03j}
    q1, q2 = _planted(base, {0: 0.05, 1: 0.1, -1: 0.1, 2: 0.04, -2: 0.04})
    tab = extract_moments(q1, q2, 2, SCHEDULE, k=K, alpha=ALPHA)
    for l in (1, 2):
        assert abs(tab.estimates[l] - np.conj(tab.estimates[-l])) <= 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reconstruct_constant_difference():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    c = 0.17
    q1, q2 = _planted(base, {0: c})
    tab = extract_moments(q1, q2, 1, SCHEDULE, k=K, alpha=ALPHA)
    assert abs(tab.estimates[0] - 2 * np.pi * c) <= 2e-3
    rec = reconstruct_difference(tab)
    assert abs(rec.coeffs[0] - c) <= 1e-3
    assert abs(rec.coeffs[1]) <= 1e-3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_reconstruct_zero_and_insufficient_degree():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q = MediumProfile.from_coeffs(base, B)
    tab = extract_moments(q, q, 1, SCHEDULE, k=K, alpha=ALPHA)
    rec = reconstruct_difference(tab)
    assert max(abs(v) for v in rec.coeffs.values()) <= 1e-8
    vals = rec.coeffs(np.linspace(0, 2 * np.pi, 7))
    assert np.max(np.abs(vals)) <= 1e-7
    short = dataclasses.replace(tab, estimates={l: v for l, v in tab.estimates.items() if l != 1})
    with pytest.raises(InsufficientDegree, match="no moment estimate for l=1"):
        reconstruct_difference(short)


@pytest.mark.parametrize("missing", [None, -2, -1, 0, 1, 2])
def test_reconstruct_reads_exactly_the_degree_of_its_table(missing):
    # a hand-built L = 2 table: each estimate |l| <= 2 is read, and a missing one is refused
    ls = [l for l in range(-2, 3) if l != missing]
    tab = MomentTable(2, SCHEDULE, estimates={l: complex(l, 1.0) for l in ls},
                      fit_residuals={l: 0.5 for l in ls})
    if missing is not None:
        with pytest.raises(InsufficientDegree, match=f"no moment estimate for l={missing}$"):
            reconstruct_difference(tab)
        return
    rec = reconstruct_difference(tab)
    assert list(rec.coeffs) == [-2, -1, 0, 1, 2]
    assert all(rec.coeffs[j] == complex(-j, 1.0) / (2 * np.pi) for j in rec.coeffs)
    assert all(rec.errors[j] == 0.5 / (2 * np.pi) for j in rec.errors)


def test_moment_convergence_rate():
    # planted so the leading eigenfunction corrections do not cancel: the
    # overlap error follows the printed O(1/m) remainder
    k = 1.6
    alpha = Quasimomentum(0.3, 0.14)
    base = {0: 1.7 + 0.15j, 1: 0.3, -1: 0.3, 2: 0.15, -2: 0.15}
    diff = {0: 0.15, -1: 0.25, -2: 0.12, 1: 0.05, 2: 0.03}
    q1c = dict(base)
    for j, c in diff.items():
        q1c[j] = q1c.get(j, 0) + c
    q1 = MediumProfile.from_coeffs(q1c, B)
    q2 = MediumProfile.from_coeffs(base, B)
    tab = extract_moments(q1, q2, 2, SCHEDULE, k=k, alpha=alpha)
    for l in (0, 1, 2):
        exact = 2 * np.pi * diff.get(-l, 0.0)
        errs = np.array([abs(oracles.moment_entry(tab, l, m).A1 - exact) for m in SCHEDULE])
        slope = -np.polyfit(np.log(SCHEDULE), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3


def test_a2_floor_bookkeeping():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    tab = extract_moments(q1, q2, 1, (16, 24), k=K, alpha=ALPHA)
    assert all(e.a2_ok for e in tab.entries)
    assert all(e.a2_log10 > np.log10(inverse.A2_FLOOR) for e in tab.entries)


def test_a2_floor_threshold(monkeypatch):
    # fewer than two retained entries at some l raises; the binding l is the
    # one whose second-largest a2_log10 is lowest
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    schedule = (16, 24, 32)
    tab = extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA)
    top2 = {l: sorted(e.a2_log10 for e in tab.entries if e.l == l)[-2:] for l in (-1, 0, 1)}
    second, largest = min(top2.values())
    assert second + 1e-6 < largest
    monkeypatch.setattr(inverse, "A2_FLOOR", 10.0 ** (second + 1e-9))
    with pytest.raises(A2Floor):
        extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA)
    monkeypatch.setattr(inverse, "A2_FLOOR", 10.0 ** (second - 1e-9))
    kept = extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA)
    assert min(sum(e.a2_ok for e in kept.entries if e.l == l) for l in (-1, 0, 1)) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixed_fit_path_matches_per_l_fits(monkeypatch):
    # a floor just above the lowest |A2| drops that one entry: its l is fitted
    # on its own, and the l that keep every entry share one solve
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1, 1: 0.05, -1: 0.07})
    low = min(e.a2_log10 for e in extract_moments(q1, q2, 2, SCHEDULE, k=K, alpha=ALPHA).entries)
    monkeypatch.setattr(inverse, "A2_FLOOR", 10.0 ** (low + 1e-9))
    tab = extract_moments(q1, q2, 2, SCHEDULE, k=K, alpha=ALPHA)
    kept = {l: [e for e in tab.entries if e.l == l and e.a2_ok] for l in range(-2, 3)}
    assert sorted(len(v) for v in kept.values()) == [4, 5, 5, 5, 5]
    for l, entries in kept.items():
        inv_m = np.array([1.0 / e.m for e in entries])
        design = np.stack([np.ones_like(inv_m), inv_m], axis=1)
        a1 = np.array([e.A1 for e in entries])
        sol, *_ = np.linalg.lstsq(design, a1, rcond=None)
        rms = np.sqrt(np.mean(np.abs(a1 - design @ sol) ** 2))
        assert abs(tab.estimates[l] - sol[0]) <= 1e-13 * abs(sol[0])
        assert abs(tab.fit_residuals[l] - rms) <= 1e-13 * rms


@pytest.mark.parametrize("L", [-1, 1.5, "2"])
def test_degree_must_be_a_nonnegative_integer(L):
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    with pytest.raises(ValidationError, match="degree L must be an integer >= 0"):
        extract_moments(q1, q2, L, (16, 24), k=K, alpha=ALPHA)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_degree_zero_still_solves():
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    tab = extract_moments(q1, q2, 0, SCHEDULE, k=K, alpha=ALPHA)
    assert [(e.l, e.m) for e in tab.entries] == [(0, m) for m in SCHEDULE]
    rec = reconstruct_difference(tab)
    assert list(rec.coeffs) == [0] and abs(rec.coeffs[0] - 0.1) <= 1e-3


def test_schedule_start_threshold():
    # the lowest schedule entry must exceed L, so every branch m + l is >= 1
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    with pytest.raises(ValidationError, match="schedule too low"):
        extract_moments(q1, q2, 2, (2, 3), k=K, alpha=ALPHA)
    tab = extract_moments(q1, q2, 2, (3, 4), k=K, alpha=ALPHA)
    assert tab.m_schedule == (3, 4)
    assert len(tab.entries) == 5 * 2


@pytest.mark.parametrize("schedule", [(16, 16), (16, 24, 24)])
def test_schedule_repeated_entry_rejected(schedule):
    # a repeated m makes the a + b/m fit rank-deficient and its error bar false
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    with pytest.raises(ValidationError, match="none repeated"):
        extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA)


def test_moment_table_never_runs_the_dense_eigensolve(monkeypatch):
    # extract_moments asks solve_sl for the branches the table reads only, and
    # no eigensolve in sturm has the order 2M + 1 of the Galerkin matrix
    orders = []
    eig = sturm.scipy.linalg.eig

    def spy(a, *args, **kwargs):
        orders.append(len(a))
        return eig(a, *args, **kwargs)
    monkeypatch.setattr(sturm.scipy.linalg, "eig", spy)
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    tab = extract_moments(q1, q2, 2, (3, 4), k=K, alpha=ALPHA)
    assert len(tab.entries) == 5 * 2
    M = 2 * (4 + 2) + 8
    assert 2 * M + 1 not in orders


def test_multi_height_profile_rejected():
    stacked = MediumProfile([Slab(0.3, {0: 1.5 + 0.1j}), Slab(0.4, {0: 1.8 + 0.1j})])
    with pytest.raises(NotOneDirectional):
        extract_moments(stacked, stacked, 1, (16, 24), k=K, alpha=ALPHA)


def test_csv_writers(tmp_path):
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    tab = extract_moments(q1, q2, 1, (16, 24, 32), k=K, alpha=ALPHA)
    mpath = tmp_path / "moments.csv"
    write_moment_csv(tab, mpath)
    lines = mpath.read_text().splitlines()
    assert lines[0] == "l,m,re_A1,im_A1,log10_abs_A2,arg_A2,re_estimate,im_estimate"
    assert len(lines) == 1 + 3 * 3
    rec = reconstruct_difference(tab)
    rpath = tmp_path / "coeffs.csv"
    write_reconstruction_csv(rec, rpath)
    rlines = rpath.read_text().splitlines()
    assert rlines[0] == "j,re_coeff,im_coeff,error"
    assert len(rlines) == 4
