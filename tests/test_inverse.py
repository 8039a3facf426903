import json
import os
import subprocess
import sys
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import gratescat
from gratescat import (MediumProfile, Quasimomentum, TangentialField, build_modeset,
                       extract_moments, reciprocity_gap, reconstruct_difference)
from gratescat import inverse, sturm
from gratescat.errors import A2Floor, InsufficientDegree, NotOneDirectional, ValidationError
from gratescat.forward import LayerField, Slab, solve_layer_modes, solve_qpbvp
from gratescat.inverse import (_gauss_order, one_directional_coeffs, write_moment_csv,
                               write_reconstruction_csv)

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


def test_gap_evaluates_each_field_once_per_segment(monkeypatch):
    # slabs split at 0.3 and 0.45: three x3 segments, one batched call per
    # field and segment at all of its Gauss nodes, as many as the order rule
    # gives for the largest exponents of the two slabs there
    ms = _modeset(3)
    q1, q2 = _stacks((0.3, 0.4), (0.45, 0.25))
    calls = []
    evaluate = LayerField.mode_coefficients

    def counting(self, x3, derivatives=False):
        calls.append(np.shape(x3))
        return evaluate(self, x3, derivatives)

    monkeypatch.setattr(LayerField, "mode_coefficients", counting)
    out = reciprocity_gap(q1, q2, _tangential(ms, 4), _tangential(ms, 5), ms)
    g1 = [np.max(np.abs(solve_layer_modes(q1, j, ms).gamma)) for j in range(2)]
    g2 = [np.max(np.abs(solve_layer_modes(q2.conjugate(), j, ms).gamma)) for j in range(2)]
    orders = [_gauss_order((g1[j1] + g2[j2]) * 0.5 * (hi - lo))
              for lo, hi, j1, j2 in ((0.0, 0.3, 0, 0), (0.3, 0.45, 1, 0), (0.45, 0.7, 1, 1))]
    assert calls == [(n,) for n in orders for _ in range(2)]
    assert len(set(orders)) > 1
    assert out["gap"] <= 1e-6


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
            dq = profile2.q_at(x1, x3) - profile1.q_at(x1, x3)
            v1 = grid_values(sol1.field.mode_coefficients(x3)[0])
            v2 = grid_values(sol3.field.mode_coefficients(x3)[0])
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
    with pytest.raises(InsufficientDegree):
        reconstruct_difference(tab, L=3)


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
        errs = np.array([abs(tab.entry(l, m).A1 - exact) for m in SCHEDULE])
        slope = -np.polyfit(np.log(SCHEDULE), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3


def test_a2_floor_bookkeeping():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    tab = extract_moments(q1, q2, 1, (16, 24), k=K, alpha=ALPHA)
    assert all(e.a2_ok for e in tab.entries)
    assert all(e.a2_log10 > np.log10(tab.a2_floor) for e in tab.entries)


def test_a2_floor_threshold():
    # fewer than two retained entries at some l raises; the binding l is the
    # one whose second-largest a2_log10 is lowest
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    q1, q2 = _planted(base, {0: 0.1})
    schedule = (16, 24, 32)
    tab = extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA)
    top2 = {l: sorted(e.a2_log10 for e in tab.entries if e.l == l)[-2:] for l in (-1, 0, 1)}
    second, largest = min(top2.values())
    assert second + 1e-6 < largest
    with pytest.raises(A2Floor):
        extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA, a2_floor=10.0 ** (second + 1e-9))
    kept = extract_moments(q1, q2, 1, schedule, k=K, alpha=ALPHA,
                           a2_floor=10.0 ** (second - 1e-9))
    assert min(sum(e.a2_ok for e in kept.entries if e.l == l) for l in (-1, 0, 1)) == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mixed_fit_path_matches_per_l_fits():
    # a floor just above the lowest |A2| drops that one entry: its l is fitted
    # on its own, and the l that keep every entry share one solve
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1, 1: 0.05, -1: 0.07})
    low = min(e.a2_log10 for e in extract_moments(q1, q2, 2, SCHEDULE, k=K, alpha=ALPHA).entries)
    tab = extract_moments(q1, q2, 2, SCHEDULE, k=K, alpha=ALPHA, a2_floor=10.0 ** (low + 1e-9))
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
    with pytest.raises(ValidationError, match="degree L must be an integer >= 0"):
        reconstruct_difference(tab, L=-1)


def test_one_directional_coeffs_component_order():
    # (q, along, across): alpha's component along the profile's axis comes first
    coeffs = {0: 1.5 + 0.1j, 1: 1.0}
    for direction, along, across in (("x1", ALPHA.alpha1, ALPHA.alpha2),
                                     ("x2", ALPHA.alpha2, ALPHA.alpha1)):
        prof = MediumProfile.from_coeffs(coeffs, B, direction=direction)
        q, a, c = one_directional_coeffs(prof, ALPHA, "q")
        assert q == prof.slabs[0].coeffs
        assert (a, c) == (along, across)


def test_x2_pair_moments_equal_x1_pair_with_swapped_alpha():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    diff = {0: 0.06, 1: 0.11, -1: 0.09}
    q1c = {j: base.get(j, 0) + diff.get(j, 0) for j in {**base, **diff}}
    swapped = Quasimomentum(ALPHA.alpha2, ALPHA.alpha1)
    tabs = [extract_moments(MediumProfile.from_coeffs(q1c, B, direction=d),
                            MediumProfile.from_coeffs(base, B, direction=d),
                            1, SCHEDULE, k=K, alpha=alpha)
            for d, alpha in (("x2", ALPHA), ("x1", swapped))]
    assert [(e.l, e.m, e.A1, e.a2_log10, e.a2_arg) for e in tabs[0].entries] == \
        [(e.l, e.m, e.A1, e.a2_log10, e.a2_arg) for e in tabs[1].entries]
    assert tabs[0].estimates == tabs[1].estimates


def test_mixed_axis_pair_rejected():
    q1 = MediumProfile.from_coeffs({0: 1.6 + 0.12j, 1: 0.2, -1: 0.2}, B, direction="x1")
    q2 = MediumProfile.from_coeffs({0: 1.6 + 0.12j, 1: 0.1, -1: 0.1}, B, direction="x2")
    for a, b in ((q1, q2), (q2, q1)):
        with pytest.raises(NotOneDirectional) as err:
            extract_moments(a, b, 1, (16, 24), k=K, alpha=ALPHA)
        assert "depends on both directions" in str(err.value)
        assert "swap" not in str(err.value)


def test_swapped_moments_match_direct_quadrature():
    # profiles in x2 go straight into the pipeline; compare against direct
    # quadrature of the difference in its own variable
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    diff = {0: 0.06, 1: 0.11, -1: 0.09}
    q1c = dict(base)
    for j, c in diff.items():
        q1c[j] = q1c.get(j, 0) + c
    p1 = MediumProfile.from_coeffs(q1c, B, direction="x2")
    p2 = MediumProfile.from_coeffs(base, B, direction="x2")
    tab = extract_moments(p1, p2, 1, SCHEDULE, k=K, alpha=ALPHA)
    x2 = np.linspace(0, 2 * np.pi, 4097)[:-1]
    dq = sum(c * np.exp(1j * j * x2) for j, c in diff.items())
    for l in (-1, 0, 1):
        direct = np.sum(dq * np.exp(1j * l * x2)) * 2 * np.pi / x2.size
        assert abs(tab.estimates[l] - direct) <= 1e-3


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


def test_a2_floor_must_be_finite_and_positive():
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    for floor in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValidationError, match="a2_floor must be finite and > 0"):
            extract_moments(q1, q2, 1, (16, 24), k=K, alpha=ALPHA, a2_floor=floor)
    # the extreme admissible floors: every entry retained, or none
    tab = extract_moments(q1, q2, 1, (16, 24), k=K, alpha=ALPHA, a2_floor=5e-324)
    assert all(e.a2_ok for e in tab.entries)
    with pytest.raises(A2Floor):
        extract_moments(q1, q2, 1, (16, 24), k=K, alpha=ALPHA, a2_floor=np.finfo(float).max)


def test_moment_table_never_runs_the_dense_eigensolve(monkeypatch):
    # extract_moments asks solve_sl for the branches the table reads only
    def dense(problem):
        raise AssertionError("dense Sturm-Liouville eigensolve on the moment path")
    monkeypatch.setattr(sturm, "_dense_pairs", dense)
    q1, q2 = _planted({0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}, {0: 0.1})
    tab = extract_moments(q1, q2, 2, (3, 4), k=K, alpha=ALPHA)
    assert len(tab.entries) == 5 * 2


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
