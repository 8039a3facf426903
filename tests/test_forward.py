import numpy as np
import pytest
import scipy.linalg

from gratescat import (DipoleDensity, MediumProfile, PlaneWaveIncidence, Quasimomentum,
                       TangentialField, assemble_dtn, build_modeset, efficiencies,
                       solve_layer_modes, solve_qpbvp, solve_scattering)
from gratescat import forward
from gratescat.errors import (EigenFailure, IllConditionedBasis, SingularMatch,
                              TruncationMismatch, ValidationError)
from gratescat.forward import Slab, profile_from_mapping

K = 1.25
THETA1 = 1.05
THETA2 = 0.4
ALPHA = Quasimomentum.from_angles(K, THETA1, THETA2)
B = 0.8


def _modeset(N=6):
    return build_modeset(K, ALPHA, N)


def _tangential(ms, entries, height=B):
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    for (n1, n2), vec in entries.items():
        coeffs[ms.index_of(n1, n2), :2] = vec
    return TangentialField(ms, coeffs, height)


def _uniform_gamma(q0, ms):
    disc = K * K * q0 - np.sum(ms.alpha_n[:, :2] ** 2, axis=1)
    g = np.sqrt(disc.astype(complex))
    return np.where(g.imag < 0, -g, g)


def _impedance_oracle(q0, ms, j, et):
    """Hand-solved two-point system for one mode of a uniform conducting-backed slab.

    E_t(x3) = sin(gamma x3)/sin(gamma b) E_t(b) (zero trace at the plate), and
    the tangential curl follows from the first-order transverse system as
    T = (k/gamma) cot(gamma b) B E_t(b) with the per-mode 2x2 coupling B.
    """
    a1, a2 = ms.alpha_n[j, 0], ms.alpha_n[j, 1]
    gam = _uniform_gamma(q0, ms)[j]
    Bm = np.array([[-a1 * a2, a1 * a1 - K * K * q0],
                   [K * K * q0 - a2 * a2, a1 * a2]]) / K
    return (K / gam) * (np.cos(gam * B) / np.sin(gam * B)) * (Bm @ et)


def test_block_layout_maps_n2_to_block_axis():
    ms = _modeset(3)
    rng = np.random.default_rng(9)
    coeffs = rng.normal(size=(ms.num_modes, 3)) + 1j * rng.normal(size=(ms.num_modes, 3))
    blocks = forward._to_blocks(ms, coeffs)
    mb = ms.block_size
    assert blocks.shape == (2 * ms.N + 1, 2 * mb)
    for n1, n2 in ((-3, -3), (0, 0), (2, -1), (3, 3)):
        ib, j = n2 + ms.N, n1 + ms.N
        assert blocks[ib, j] == coeffs[ms.index_of(n1, n2), 0]
        assert blocks[ib, mb + j] == coeffs[ms.index_of(n1, n2), 1]
    back = forward._from_blocks(ms, blocks)
    assert np.array_equal(back[:, :2], coeffs[:, :2])
    assert np.all(back[:, 2] == 0)


def test_layer_modes_uniform_exponents():
    ms = _modeset(4)
    basis = solve_layer_modes(MediumProfile.uniform(1.0, B), 0, ms)
    got = np.sort_complex(basis.exponents())
    want = np.sort_complex(np.concatenate([ms.beta, ms.beta, -ms.beta, -ms.beta]))
    np.testing.assert_allclose(got, want, atol=1e-12)

    q0 = 1.7 + 0.3j
    basis2 = solve_layer_modes(MediumProfile.uniform(q0, B), 0, ms)
    got2 = np.sort_complex(basis2.exponents())
    g = _uniform_gamma(q0, ms)
    want2 = np.sort_complex(np.concatenate([g, g, -g, -g]))
    np.testing.assert_allclose(got2, want2, atol=1e-12)


def test_layer_modes_perturbation_rate():
    from scipy.optimize import linear_sum_assignment

    ms = _modeset(3)
    g0 = solve_layer_modes(MediumProfile.uniform(1.5, B), 0, ms).exponents()
    dist = {}
    for eps in (1e-2, 1e-3):
        prof = MediumProfile.from_coeffs({0: 1.5, 1: eps / 2, -1: eps / 2}, B)
        g = solve_layer_modes(prof, 0, ms).exponents()
        cost = np.abs(g0[:, None] - g[None, :])
        rows, cols = linear_sum_assignment(cost)
        dist[eps] = float(cost[rows, cols].max())
    # convergence at least first order in the perturbation size (the offset-1
    # coupling actually cancels at first order, so the observed rate is faster)
    assert dist[1e-2] <= 1e-2
    assert dist[1e-3] <= 1e-3
    assert dist[1e-2] / dist[1e-3] >= 5.0


def test_layer_modes_eigen_residual_and_condition():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    basis = solve_layer_modes(prof, 0, ms)
    assert basis.eigen_residual() <= 1e-10
    assert np.isfinite(basis.cond)


def test_basis_condition_guard_threshold(monkeypatch):
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.4, -1: 0.4}, B)
    basis = solve_layer_modes(prof, 0, ms)
    worst = basis.cond
    assert worst > 1.0
    ib = int(np.argmax(np.linalg.cond(basis.W)))
    # The guard reads COND_LIMIT when it runs, so patching the module
    # constant moves the threshold for every caller.
    monkeypatch.setattr(forward, "COND_LIMIT", worst * (1 - 1e-9))
    with pytest.raises(IllConditionedBasis) as err:
        solve_layer_modes(prof, 0, ms)
    msg = str(err.value)
    assert "forward.solve_layer_modes: eigenbasis" in msg
    assert f"slab 0, block {ib} (n2 = {ib - ms.N})" in msg
    # Through the full solve the basis guard fires before any match stage.
    with pytest.raises(IllConditionedBasis):
        solve_scattering(prof, PlaneWaveIncidence.from_angles(K, THETA1, THETA2), ms)
    monkeypatch.setattr(forward, "COND_LIMIT", worst * (1 + 1e-9))
    assert solve_layer_modes(prof, 0, ms).cond == worst


# Lossless, absorbing, and non-Hermitian q (an unpaired complex coefficient;
# Im q = 0.5 + Im(c1 e^{i x1}) stays positive, so the profile is admissible).
LIFT_SLABS = {
    "lossless": {0: 1.8, 1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1},
    "absorbing": {0: 1.5 + 0.2j, 1: 0.25, -1: 0.25},
    "non-hermitian": {0: 1.7 + 0.5j, 1: 0.2 + 0.1j},
}


def _dense_layer_modes(profile, slab_index, modeset):
    """Reference basis: one dense eigensolve of A B per n2 block."""
    slab = profile.slabs[slab_index]
    A, Bm = forward._block_operators(slab, modeset, slab_index)
    w2, W = scipy.linalg.eig(A @ Bm)
    gamma = forward._sqrt_up(w2)
    return forward.ModalBasis(modeset, slab_index, slab, W, (Bm @ W) / gamma[:, None, :],
                              gamma, float(np.max(np.linalg.cond(W))))


@pytest.mark.parametrize("kind", sorted(LIFT_SLABS))
def test_layer_modes_lift_matches_dense_block_spectrum(kind):
    from scipy.optimize import linear_sum_assignment

    ms = _modeset(4)
    mb = ms.block_size
    basis = solve_layer_modes(MediumProfile.from_coeffs(LIFT_SLABS[kind], B), 0, ms)
    A, Bm = forward._block_operators(basis.slab, ms, 0)
    want = np.linalg.eigvals(A @ Bm)
    for ib in range(2 * ms.N + 1):
        got = basis.gamma[ib] ** 2
        cost = np.abs(got[:, None] - want[ib][None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * np.max(np.abs(want[ib]))
    assert basis.eigen_residual() <= 1e-12
    np.testing.assert_allclose(np.linalg.norm(basis.W, axis=1), 1.0, atol=1e-13)
    # column order: TE modes (W = [0; e], no E1 part) first, then TM
    assert np.max(np.abs(basis.W[:, :mb, :mb])) == 0.0
    assert np.min(np.linalg.norm(basis.W[:, :mb, mb:], axis=1)) > 0.0


@pytest.mark.parametrize("heights", [(B,), (0.3, 0.25, B - 0.55)])
def test_lifted_basis_matches_dense_reference(monkeypatch, heights):
    ms = _modeset(6)
    kinds = sorted(LIFT_SLABS)
    prof = MediumProfile([Slab(h, LIFT_SLABS[kinds[i % 3]]) for i, h in enumerate(heights)])
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    dtn = assemble_dtn(prof, ms).matrix
    scat = solve_scattering(prof, inc, ms).scattered.coeffs
    monkeypatch.setattr(forward, "solve_layer_modes", _dense_layer_modes)
    dtn_ref = assemble_dtn(prof, ms).matrix
    scat_ref = solve_scattering(prof, inc, ms).scattered.coeffs
    assert np.max(np.abs(dtn - dtn_ref)) <= 1e-10 * np.max(np.abs(dtn_ref))
    assert np.max(np.abs(scat - scat_ref)) <= 1e-10 * np.max(np.abs(scat_ref))


@pytest.mark.parametrize("N", [4, 8])
def test_two_eigensolves_of_order_mb_per_nonuniform_slab(monkeypatch, N):
    ms = _modeset(N)
    orders = []

    def counting(eig):
        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            orders.extend([a.shape[-1]] * int(np.prod(a.shape[:-2], dtype=int)))
            return eig(a, *args, **kwargs)
        return wrapped

    for mod in (scipy.linalg, np.linalg):
        for name in ("eig", "eigvals"):
            monkeypatch.setattr(mod, name, counting(getattr(mod, name)))
    prof = MediumProfile([Slab(0.3, LIFT_SLABS["absorbing"]), Slab(0.2, {0: 1.9 + 0.1j}),
                          Slab(B - 0.5, LIFT_SLABS["lossless"])])
    solve_scattering(prof, PlaneWaveIncidence.from_angles(K, THETA1, THETA2), ms)
    assert orders == [ms.block_size] * 4


def test_singular_toeplitz_raises_eigen_failure():
    # q = cos x1: the 9x9 Toeplitz factor at N = 4 has an exact zero pivot
    prof = MediumProfile.from_coeffs({1: 0.5, -1: 0.5}, B)
    with pytest.raises(EigenFailure) as err:
        solve_layer_modes(prof, 0, _modeset(4))
    msg = str(err.value)
    assert msg.startswith("forward.solve_layer_modes: q Toeplitz factor singular at slab 0")


def test_qpbvp_condition_guard_threshold(monkeypatch):
    ms = _modeset(4)
    # A uniform bottom slab keeps every eigenbasis condition below the match
    # conditions, so a limit just under the reported value trips a match stage.
    prof = MediumProfile([Slab(0.3, {0: 1.5 + 0.1j}),
                          Slab(B - 0.3, {0: 1.9 + 0.2j, 1: 0.1, -1: 0.1})])
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    reported = solve_qpbvp(prof, f, ms).condition
    assert reported > 1.0
    assert max(solve_layer_modes(prof, j, ms).cond for j in range(2)) < reported * (1 - 1e-9)
    monkeypatch.setattr(forward, "COND_LIMIT", reported * (1 - 1e-9))
    with pytest.raises(SingularMatch) as err:
        solve_qpbvp(prof, f, ms)
    msg = str(err.value)
    assert msg.startswith("forward")
    assert "slab " in msg and "(n2 = " in msg
    monkeypatch.setattr(forward, "COND_LIMIT", reported * (1 + 1e-9))
    assert solve_qpbvp(prof, f, ms).condition == reported


def test_qpbvp_zero_data():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    f = _tangential(ms, {})
    sol = solve_qpbvp(prof, f, ms)
    assert np.max(np.abs(sol.trace.coeffs)) == 0.0
    E, H = sol.field.mode_coefficients(0.37)
    assert np.max(np.abs(E)) == 0.0


def test_qpbvp_uniform_impedance_oracle():
    ms = _modeset(6)
    q0 = 1.4 + 0.2j
    prof = MediumProfile.uniform(q0, B)
    # one propagating and one evanescent mode, arbitrary tangential data
    for (n1, n2), vec in (((0, 0), (0.7 - 0.2j, -0.3 + 0.4j)),
                          ((3, -2), (1.0 + 0.5j, 0.6j))):
        f = _tangential(ms, {(n1, n2): vec})
        sol = solve_qpbvp(prof, f, ms)
        j = ms.index_of(n1, n2)
        et = np.array([vec[1], -vec[0]])  # e3 x E = f  =>  E_t = (f2, -f1)
        oracle = _impedance_oracle(q0, ms, j, et)
        np.testing.assert_allclose(sol.trace.coeffs[j, :2], oracle, rtol=1e-10)
        others = np.delete(sol.trace.coeffs, j, axis=0)
        assert np.max(np.abs(others)) <= 1e-12 * np.max(np.abs(oracle))
        # interior profile is the sine ratio
        x3 = 0.29
        gam = _uniform_gamma(q0, ms)[j]
        E, _ = sol.field.mode_coefficients(x3)
        np.testing.assert_allclose(E[j, :2], np.sin(gam * x3) / np.sin(gam * B) * et,
                                   rtol=1e-10)


def test_qpbvp_linearity():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.12j, 1: 0.18, -1: 0.18}, B)
    rng = np.random.default_rng(17)
    f1 = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes), B)
    f2 = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes), B)
    t_sum = solve_qpbvp(prof, f1 + f2, ms).trace.coeffs
    t_split = solve_qpbvp(prof, f1, ms).trace.coeffs + solve_qpbvp(prof, f2, ms).trace.coeffs
    np.testing.assert_allclose(t_sum, t_split, atol=1e-11 * np.max(np.abs(t_sum)))


def test_qpbvp_residual_and_pec():
    # boundary data must be resolved by the truncation for the collocation
    # probe to see only the q-product aliasing tail
    ms = _modeset(8)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    rng = np.random.default_rng(23)
    f = _tangential(ms, {(n1, n2): (rng.normal() + 1j * rng.normal(),
                                    rng.normal() + 1j * rng.normal())
                         for n1 in range(-2, 3) for n2 in range(-2, 3)})
    sol = solve_qpbvp(prof, f, ms)
    pts = np.column_stack([rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0.05, B - 0.05, 50)])
    assert sol.field.residual_report(pts)["max_relative"] <= 1e-8
    assert sol.field.pec_residual() <= 1e-10


def test_multi_slab_consistency():
    ms = _modeset(4)
    coeffs = {0: 1.5 + 0.1j, 1: 0.12, -1: 0.12}
    one = MediumProfile([Slab(B, coeffs)])
    split = MediumProfile([Slab(0.3, coeffs), Slab(B - 0.3, coeffs)])
    rng = np.random.default_rng(4)
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes), B)
    s1 = solve_qpbvp(one, f, ms)
    s2 = solve_qpbvp(split, f, ms)
    scale = np.max(np.abs(s1.trace.coeffs))
    np.testing.assert_allclose(s2.trace.coeffs, s1.trace.coeffs, atol=1e-11 * scale)
    E1, H1 = s1.field.mode_coefficients(0.51)
    E2, H2 = s2.field.mode_coefficients(0.51)
    np.testing.assert_allclose(E2, E1, atol=1e-11 * np.max(np.abs(E1)))
    # tangential continuity across the internal interface of a layered stack
    layered = MediumProfile([Slab(0.3, coeffs), Slab(B - 0.3, {0: 1.9 + 0.2j, 1: 0.1, -1: 0.1})])
    s3 = solve_qpbvp(layered, f, ms)
    Eb, Hb = s3.field.mode_coefficients(0.3 - 1e-12)
    Ea, Ha = s3.field.mode_coefficients(0.3 + 1e-12)
    scale3 = np.max(np.abs(Eb))
    np.testing.assert_allclose(Ea[:, :2], Eb[:, :2], atol=1e-9 * scale3)
    np.testing.assert_allclose(Ha[:, :2], Hb[:, :2], atol=1e-9 * np.max(np.abs(Hb)))


def test_dtn_block_diagonal_and_deterministic():
    ms = _modeset(3)
    q0 = 1.6 + 0.25j
    prof = MediumProfile.uniform(q0, B)
    dtn = assemble_dtn(prof, ms)
    m = ms.num_modes
    # uniform medium: strictly one 2x2 block per mode
    for j in (ms.mode0, ms.index_of(2, -1)):
        et = np.array([0.4 - 0.1j, 0.9 + 0.3j])
        f1, f2 = -et[1], et[0]  # f = e3 x E
        vec = np.zeros(2 * m, dtype=complex)
        vec[j], vec[m + j] = f1, f2
        out = dtn.matrix @ vec
        oracle = _impedance_oracle(q0, ms, j, et)
        got = np.array([out[j], out[m + j]])
        np.testing.assert_allclose(got, oracle, rtol=1e-10)
        out[j] = out[m + j] = 0.0
        assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(oracle))
    dtn2 = assemble_dtn(prof, ms)
    assert np.array_equal(dtn.matrix, dtn2.matrix)
    assert dtn.profile_digest == dtn2.profile_digest


def test_dtn_apply_matches_qpbvp():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    dtn = assemble_dtn(prof, ms)
    rng = np.random.default_rng(5)
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes), B)
    direct = solve_qpbvp(prof, f, ms).trace.coeffs
    via_map = dtn.apply(f).coeffs
    np.testing.assert_allclose(via_map, direct, atol=1e-11 * np.max(np.abs(direct)))


def test_profile_validation():
    with pytest.raises(ValidationError):
        MediumProfile.from_coeffs({0: 0.2, 1: 0.3, -1: 0.3}, B).validate()  # Re q dips <= 0
    with pytest.raises(ValidationError):
        MediumProfile.from_coeffs({0: 1.0, 1: 0.2j, -1: 0.2j}, B).validate()  # Im changes sign
    with pytest.raises(ValidationError):
        MediumProfile.uniform(1.5, B).validate(require_absorbing=True)
    with pytest.raises(ValidationError):
        Slab(-0.1, {0: 1.0})
    MediumProfile.from_coeffs({0: 1.5 + 0.1j}, B).validate(require_absorbing=True)


def test_scattering_pec_mirror():
    ms = _modeset(6)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2, pol_seed=(0.3, 0.9, 0.2))
    res = solve_scattering(MediumProfile.uniform(1.0, B), inc, ms)
    scat = res.scattered.rebase(0.0)
    p = inc.p
    expected = np.array([-p[0], -p[1], p[2]])
    np.testing.assert_allclose(scat.coeffs[ms.mode0], expected, atol=1e-10)
    others = np.delete(scat.coeffs, ms.mode0, axis=0)
    assert np.max(np.abs(others)) <= 1e-12
    eff = efficiencies(res.scattered, inc)
    np.testing.assert_allclose(sum(eff.values()), 1.0, atol=1e-8)


def test_scattering_divergence_constraint():
    ms = _modeset(6)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    res = solve_scattering(prof, inc, ms)
    res.scattered.validate_divergence(1e-10)


def test_scattering_energy():
    ms = _modeset(6)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2, pol_seed=(0.1, 0.8, 0.4))
    lossless = MediumProfile.from_coeffs({0: 1.5, 1: 0.15, -1: 0.15}, B)
    res = solve_scattering(lossless, inc, ms)
    np.testing.assert_allclose(sum(efficiencies(res.scattered, inc).values()), 1.0,
                               atol=1e-8)
    absorbing = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    res2 = solve_scattering(absorbing, inc, ms)
    assert sum(efficiencies(res2.scattered, inc).values()) < 1.0 - 1e-3


def test_scattering_dipole_mirror():
    # a vacuum layer mirrors every mode of the dipole-sheet expansion,
    # evanescent ones included
    ms = _modeset(3)
    rng = np.random.default_rng(31)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
    dens = DipoleDensity(ms, 1.6, coeffs)
    res = solve_scattering(MediumProfile.uniform(1.0, B), dens, ms)
    scat = res.scattered.rebase(0.0)
    inc = res.incident
    mirror = np.column_stack([-inc.coeffs[:, 0], -inc.coeffs[:, 1], inc.coeffs[:, 2]])
    np.testing.assert_allclose(scat.coeffs, mirror, atol=1e-10 * np.max(np.abs(mirror)))


def test_scattering_interior_residual():
    ms = _modeset(8)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    res = solve_scattering(prof, inc, ms)
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0.05, B - 0.05, 50)])
    assert res.field.residual_report(pts)["max_relative"] <= 1e-8
    assert res.field.pec_residual() <= 1e-10


def test_truncation_convergence_small():
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    r8 = solve_scattering(prof, inc, build_modeset(K, ALPHA, 8))
    r10 = solve_scattering(prof, inc, build_modeset(K, ALPHA, 10))
    ms8, ms10 = r8.scattered.modeset, r10.scattered.modeset
    c8 = r8.scattered.rebase(0.0).coeffs
    c10 = r10.scattered.rebase(0.0).coeffs
    worst = max(
        float(np.max(np.abs(c8[j] - c10[ms10.index_of(int(ms8.n1[j]), int(ms8.n2[j]))])))
        for j in range(ms8.num_modes))
    assert worst <= 1e-8


def test_incidence_quasimomentum_mismatch():
    ms = _modeset(3)
    bad = PlaneWaveIncidence.from_angles(K, THETA1 + 0.2, THETA2)
    with pytest.raises(TruncationMismatch):
        solve_scattering(MediumProfile.uniform(1.0, B), bad, ms)


def test_x2_profile_rejected_by_solver():
    ms = _modeset(3)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.1, -1: 0.1}, B, direction="x2")
    f = _tangential(ms, {(0, 0): (1.0, 0.0)})
    with pytest.raises(ValidationError):
        solve_qpbvp(prof, f, ms)


def test_profile_from_mapping():
    prof = profile_from_mapping({
        "direction": "x1",
        "slabs": "0.3 0.5",
        "qcoef": "0 1.5 0.1\n1 0.15 0\n-1 0.15 0",
        "qcoef2": "0 1.9 0.2",
    })
    assert len(prof.slabs) == 2
    assert prof.b == pytest.approx(0.8)
    assert prof.slabs[0].coeffs[1] == 0.15
    assert prof.slabs[1].coeffs[0] == 1.9 + 0.2j
    with pytest.raises(ValidationError):
        profile_from_mapping({"slabs": "0.5", "qcoef": "0 1.5"})


def test_profile_from_mapping_falls_back_to_first_slab():
    prof = profile_from_mapping({
        "slabs": "0.2 0.3 0.4",
        "qcoef": "0 1.5 0.1\n1 0.15 0\n-1 0.15 0",
        "qcoef2": "0 1.9 0.2",
    })
    assert len(prof.slabs) == 3
    assert prof.slabs[1].coeffs == {0: 1.9 + 0.2j}
    assert prof.slabs[2].coeffs == prof.slabs[0].coeffs
