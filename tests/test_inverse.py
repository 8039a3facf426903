import numpy as np
import pytest

from gratescat import (MediumProfile, Quasimomentum, TangentialField, build_modeset,
                       extract_moments, reciprocity_gap, reconstruct_difference,
                       swap_direction)
from gratescat.errors import A2Floor, InsufficientDegree, NotOneDirectional
from gratescat.inverse import write_moment_csv, write_reconstruction_csv

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
    assert abs(out["lhs"]) <= 1e-10 * out["floor"] * 1e10
    assert abs(out["rhs"]) == 0.0  # identical solves, exact cancellation
    assert out["gap"] <= 1e-10


def test_gap_different_profiles():
    ms = _modeset()
    q1, q2 = _profiles()
    out = reciprocity_gap(q1, q2, _tangential(ms, 2), _tangential(ms, 3), ms)
    assert abs(out["lhs"]) > 1.0  # both sides genuinely nonzero
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


def test_reconstruct_constant_difference():
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    c = 0.17
    q1, q2 = _planted(base, {0: c})
    tab = extract_moments(q1, q2, 1, SCHEDULE, k=K, alpha=ALPHA)
    assert abs(tab.estimates[0] - 2 * np.pi * c) <= 2e-3
    rec = reconstruct_difference(tab)
    assert abs(rec.coeffs[0] - c) <= 1e-3
    assert abs(rec.coeffs[1]) <= 1e-3


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


def test_swap_direction():
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 1.0}, B, direction="x2")
    swapped, alpha = swap_direction(prof, ALPHA)
    assert swapped.direction == "x1"
    assert swapped.slabs[0].coeffs == prof.slabs[0].coeffs
    assert (alpha.alpha1, alpha.alpha2) == (ALPHA.alpha2, ALPHA.alpha1)
    back = swap_direction(swapped)
    assert back.direction == "x2"
    assert back.slabs[0].coeffs == prof.slabs[0].coeffs


def test_swapped_moments_match_direct_quadrature():
    # profiles in x2: swap, run the x1 pipeline, compare against direct
    # quadrature of the difference in its original variable
    base = {0: 1.6 + 0.12j, 1: 0.15, -1: 0.15}
    diff = {0: 0.06, 1: 0.11, -1: 0.09}
    q1c = dict(base)
    for j, c in diff.items():
        q1c[j] = q1c.get(j, 0) + c
    p1 = MediumProfile.from_coeffs(q1c, B, direction="x2")
    p2 = MediumProfile.from_coeffs(base, B, direction="x2")
    s1, alpha = swap_direction(p1, ALPHA)
    s2 = swap_direction(p2)
    tab = extract_moments(s1, s2, 1, SCHEDULE, k=K, alpha=alpha)
    x2 = np.linspace(0, 2 * np.pi, 4097)[:-1]
    dq = sum(c * np.exp(1j * j * x2) for j, c in diff.items())
    for l in (-1, 0, 1):
        direct = np.sum(dq * np.exp(1j * l * x2)) * 2 * np.pi / x2.size
        assert abs(tab.estimates[l] - direct) <= 1e-3


def test_multi_height_profile_rejected():
    from gratescat.forward import Slab
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
    assert lines[0] == "l,m,re_A1,im_A1,re_A2,im_A2,re_estimate,im_estimate"
    assert len(lines) == 1 + 3 * 3
    rec = reconstruct_difference(tab)
    rpath = tmp_path / "coeffs.csv"
    write_reconstruction_csv(rec, rpath)
    rlines = rpath.read_text().splitlines()
    assert rlines[0] == "j,re_coeff,im_coeff,error"
    assert len(rlines) == 4
