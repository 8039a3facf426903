import copy
import dataclasses
import hashlib
import math
import pickle
import re
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from gratescat import (DipoleDensity, MediumProfile, PlaneWaveIncidence, Quasimomentum,
                       SLProblem, TangentialField, apply_R, assemble_dtn, build_modeset,
                       efficiencies, solve_layer_modes, solve_qpbvp, solve_scattering, solve_sl)
from gratescat import forward, lattice
from gratescat.errors import (EigenFailure, IllConditionedBasis, SingularMatch,
                              TruncationMismatch, ValidationError, WoodAnomaly)
from gratescat.forward import Slab
from gratescat.lattice import TrigPoly

import oracles

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


def _uniform_gamma(q0, ms, k=K):
    disc = k * k * q0 - np.sum(ms.alpha_n[:, :2] ** 2, axis=1)
    g = np.sqrt(disc.astype(complex))
    return np.where(g.imag < 0, -g, g)


def _impedance_oracle(q0, ms, j, et, k=K):
    """Hand-solved two-point system for one mode of a uniform conducting-backed slab.

    E_t(x3) = sin(gamma x3)/sin(gamma b) E_t(b) (zero trace at the plate), and
    the tangential curl follows from the first-order transverse system as
    T = (k/gamma) cot(gamma b) B E_t(b) with the per-mode 2x2 coupling B.
    """
    a1, a2 = ms.alpha_n[j, 0], ms.alpha_n[j, 1]
    gam = _uniform_gamma(q0, ms, k)[j]
    Bm = np.array([[-a1 * a2, a1 * a1 - k * k * q0],
                   [k * k * q0 - a2 * a2, a1 * a2]]) / k
    return (k / gam) * (np.cos(gam * B) / np.sin(gam * B)) * (Bm @ et)


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
    basis = solve_layer_modes(MediumProfile.from_coeffs({0: 1.0}, B), 0, ms)
    got = np.sort_complex(oracles.exponents(basis))
    want = np.sort_complex(np.concatenate([ms.beta, ms.beta, -ms.beta, -ms.beta]))
    np.testing.assert_allclose(got, want, atol=1e-12)

    q0 = 1.7 + 0.3j
    basis2 = solve_layer_modes(MediumProfile.from_coeffs({0: q0}, B), 0, ms)
    got2 = np.sort_complex(oracles.exponents(basis2))
    g = _uniform_gamma(q0, ms)
    want2 = np.sort_complex(np.concatenate([g, g, -g, -g]))
    np.testing.assert_allclose(got2, want2, atol=1e-12)


def test_layer_modes_perturbation_rate():
    from scipy.optimize import linear_sum_assignment

    ms = _modeset(3)
    g0 = oracles.exponents(solve_layer_modes(MediumProfile.from_coeffs({0: 1.5}, B), 0, ms))
    dist = {}
    for eps in (1e-2, 1e-3):
        prof = MediumProfile.from_coeffs({0: 1.5, 1: eps / 2, -1: eps / 2}, B)
        g = oracles.exponents(solve_layer_modes(prof, 0, ms))
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
    assert oracles.eigen_residual(basis, prof, 0) <= 1e-10
    assert np.isfinite(basis.cond)


def _recording_lift_condition(monkeypatch) -> list:
    """Every per-block eigenbasis reading of ``forward._lift_condition`` from now on."""
    seen = []
    lift_condition = forward._lift_condition

    def recording(*args):
        out = lift_condition(*args)
        seen.append(out[0])
        return out

    monkeypatch.setattr(forward, "_lift_condition", recording)
    return seen


def test_basis_condition_guard_threshold(monkeypatch):
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.4, -1: 0.4}, B)
    seen = _recording_lift_condition(monkeypatch)
    basis = solve_layer_modes(prof, 0, ms)
    worst = basis.cond
    assert worst > 1.0
    ib = int(np.argmax(seen[0]))
    assert seen[0][ib] == worst
    # The guard reads COND_LIMIT when it runs, so patching the module
    # constant moves the threshold for every caller.
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    held = solve_scattering(prof, inc, ms).field.stack
    assert forward._stack(prof, ms) is held
    monkeypatch.setattr(forward, "COND_LIMIT", worst * (1 - 1e-9))
    with pytest.raises(IllConditionedBasis) as err:
        solve_layer_modes(prof, 0, ms)
    msg = str(err.value)
    assert "forward.solve_layer_modes: eigenbasis" in msg
    assert f"slab 0, block {ib} (n2 = {ib - ms.N})" in msg
    assert (err.value.stage, err.value.slab, err.value.block) == (
        "forward.solve_layer_modes: eigenbasis", 0, ib)
    assert err.value.value == worst and err.value.limit == worst * (1 - 1e-9)
    # Through the full solve the basis guard fires before any match stage,
    # also when the profile holds a stack built under the old limit.
    with pytest.raises(IllConditionedBasis) as err:
        solve_scattering(prof, inc, ms)
    assert str(err.value) == msg
    monkeypatch.setattr(forward, "COND_LIMIT", worst * (1 + 1e-9))
    assert solve_layer_modes(prof, 0, ms).cond == worst


# Lossless, absorbing, and non-Hermitian q (an unpaired complex coefficient;
# Im q = 0.5 + Im(c1 e^{i x1}) stays positive, so the profile is admissible).
LIFT_SLABS = {
    "lossless": {0: 1.8, 1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1},
    "absorbing": {0: 1.5 + 0.2j, 1: 0.25, -1: 0.25},
    "non-hermitian": {0: 1.7 + 0.5j, 1: 0.2 + 0.1j},
}


def _forward_sweep_draw(seed):
    """A 3-slab stack, N = 12 mode set and plane wave drawn as the forward-sweep benchmark draws them."""
    rng = np.random.default_rng(seed)

    def ripple(scale):
        return scale * (rng.random() + 1j * rng.random())

    slabs = []
    for _ in range(3):
        h = 0.2 + 0.2 * rng.random()
        q0 = complex(1.3 + 0.4 * rng.random(), 0.05 + 0.15 * rng.random())
        c1, c2 = ripple(0.1), ripple(0.06)
        slabs.append(Slab(h, {0: q0, 1: c1, -1: np.conj(c1), 2: c2, -2: np.conj(c2)}))
    theta1, theta2 = rng.uniform(0.5, 1.3), rng.uniform(0.0, 2.0 * np.pi)
    return (MediumProfile(slabs), build_modeset(K, Quasimomentum.from_angles(K, theta1, theta2), 12),
            PlaneWaveIncidence.from_angles(K, theta1, theta2))


@pytest.mark.parametrize("case", sorted(LIFT_SLABS) + ["forward-sweep"])
def test_eigenbasis_condition_is_exact_on_every_block(monkeypatch, case):
    # the reading from the lift's shared factors against a dense inverse of
    # every block; gecon's estimate may read lower, never this
    if case == "forward-sweep":
        prof, ms, _ = _forward_sweep_draw(19)
    else:
        prof, ms = MediumProfile.from_coeffs(LIFT_SLABS[case], B), _modeset(6)
    seen = _recording_lift_condition(monkeypatch)
    for j in range(len(prof.slabs)):
        basis = solve_layer_modes(prof, j, ms)
        exact = np.linalg.cond(basis.W, 1)
        assert seen[-1].shape == (2 * ms.N + 1,)
        assert np.max(np.abs(seen[-1] - exact) / exact) <= 1e-13
        assert basis.cond == max(1.0, np.max(seen[-1]))
    assert len(seen) == len(prof.slabs)


@pytest.mark.parametrize("singular", ["e", "x"])
def test_singular_lift_factor_raises_ill_conditioned_basis(singular):
    rng = np.random.default_rng(23)
    nb, mb = 5, 4

    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    factors = {"e": cplx(mb, mb), "x": cplx(mb, mb)}
    factors[singular][:, 1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IllConditionedBasis) as err:
            forward._lift_condition(factors["e"], factors["x"], cplx(mb, mb), cplx(mb),
                                    cplx(nb, 1), cplx(nb, mb), cplx(nb, mb), 2)
    assert str(err.value).startswith("forward.solve_layer_modes: eigenbasis singular at slab 2 ")
    assert (err.value.slab, err.value.block, err.value.value) == (2, None, np.inf)


def test_singular_tm_lift_raises_through_the_solver(monkeypatch):
    # an eigensolve that returns a zero TM eigenvector for the top slab makes
    # its X = Q^-1 h singular; slab 1 is uniform and solves no eigenproblem
    eig = scipy.linalg.eig
    calls = []

    def zero_tm_vector(a, *args, **kwargs):
        w, v = eig(a, *args, **kwargs)
        calls.append(a)
        if len(calls) == 4:
            v[:, 0] = 0.0
        return w, v

    monkeypatch.setattr(scipy.linalg, "eig", zero_tm_vector)
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(IllConditionedBasis,
                           match=r"^forward\.solve_layer_modes: eigenbasis singular at slab 2 "):
            solve_scattering(_three_slab_stack(), PlaneWaveIncidence.from_angles(K, THETA1, THETA2),
                             _modeset(4))
    assert len(calls) == 4


@pytest.mark.parametrize("k", [1e100, 1e150])
def test_huge_k_refused_before_the_tm_column_scale_overflows(k):
    # build_modeset takes any k with a finite square, but |kappa_TM^2|^2 in
    # the TM column scale overflows: the solver refuses with a typed error and
    # no numpy warning (the suite turns every warning into an error)
    profile = MediumProfile.from_coeffs({0: 1.5, 1: 0.2, -1: 0.2}, 0.5)
    modeset = build_modeset(k, Quasimomentum.from_angles(k, 1.0, 0.3), 1)
    with pytest.raises(IllConditionedBasis,
                       match=r"^forward\.solve_layer_modes: eigenbasis TM column scale "
                             r"overflows at slab 0 ") as err:
        solve_layer_modes(profile, 0, modeset)
    assert err.value.stage == "forward.solve_layer_modes: eigenbasis"
    assert (err.value.slab, err.value.block, err.value.value) == (0, None, np.inf)


@pytest.mark.parametrize("k, refused", [(1e68, False), (1e70, True)])
def test_huge_k_wrong_eigenbasis_refused(k, refused):
    # At k = 1e70 geev returns a TE/TM basis whose scaled residual reads
    # about 0.9 while its lift condition stays small, so no other guard saw it
    profile = MediumProfile.from_coeffs({0: 1.5, 1: 0.2, -1: 0.2}, 0.5)
    modeset = build_modeset(k, Quasimomentum.from_angles(k, 1.0, 0.3), 1)
    if not refused:
        assert oracles.eigen_residual(solve_layer_modes(profile, 0, modeset), profile, 0) <= 1e-14
        return
    with pytest.raises(EigenFailure, match=r"^forward\.solve_layer_modes: TE eigensolve "
                                           r"residual .* exceeds 1e-12 at slab 0$"):
        solve_layer_modes(profile, 0, modeset)


def test_eigen_residual_threshold(monkeypatch):
    # the slab is accepted with _EIG_TOL at its largest TE/TM defect and
    # refused one ulp below, naming the family that reads it
    profile = MediumProfile.from_coeffs(LIFT_SLABS["absorbing"], 0.5)
    modeset = _modeset(4)
    defects = []
    defect = forward._eigen_defect
    monkeypatch.setattr(forward, "_eigen_defect",
                        lambda *args: defects.append(defect(*args)) or defects[-1])
    solve_layer_modes(profile, 0, modeset)
    te, tm = defects
    worst = max(te, tm)
    assert 0 < worst <= 1e-14
    monkeypatch.setattr(forward, "_EIG_TOL", worst)
    solve_layer_modes(profile, 0, modeset)
    assert defects[2:] == [te, tm]
    monkeypatch.setattr(forward, "_EIG_TOL", float(np.nextafter(worst, 0.0)))
    family = "TE" if te == worst else "TM"
    with pytest.raises(EigenFailure, match=f"{family} eigensolve residual .* at slab 0$"):
        solve_layer_modes(profile, 0, modeset)


def _three_slab_stack():
    """Two non-uniform slabs around a uniform one: 3 guarded stacks per solve."""
    return MediumProfile([Slab(0.3, LIFT_SLABS["absorbing"]), Slab(0.2, {0: 1.9 + 0.1j}),
                          Slab(B - 0.5, LIFT_SLABS["lossless"])])


@dataclasses.dataclass(eq=False)
class _DenseBasis(forward.ModalBasis):
    """A basis that holds every block of W and V: both apply as dense products, W^-1 by a
    dense solve of every block."""

    blocks: tuple = ()    # (W, V), each (2N+1, 2mb, 2mb)

    def apply_W(self, rhs):
        return self.blocks[0] @ rhs

    def apply_V(self, rhs):
        return self.blocks[1] @ rhs

    def solve_W(self, rhs):
        return np.linalg.solve(self.blocks[0], rhs)

    def dense_W(self, scale=None):
        return self.blocks[0] * (1.0 if scale is None else scale[:, None, :])

    def dense_V(self, scale=None):
        return self.blocks[1] * (1.0 if scale is None else scale[:, None, :])


def _dense_layer_modes(profile, slab_index, modeset):
    """Reference basis: one dense eigensolve of A B per n2 block."""
    slab = profile.slabs[slab_index]
    A, Bm = oracles.block_operators(slab, modeset, slab_index)
    w2, W = scipy.linalg.eig(A @ Bm)
    gamma = forward._sqrt_up(w2)
    Qinv = forward._toeplitz_inverse(slab, slab.coeffs.toeplitz(modeset.block_size), slab_index)
    return _DenseBasis(modeset, gamma, Qinv, float(np.max(np.linalg.cond(W))), None,
                       blocks=(W, (Bm @ W) / gamma[:, None, :]))


@pytest.mark.parametrize("case", sorted(LIFT_SLABS) + ["uniform", "forward-sweep"])
def test_solve_w_matches_a_dense_solve_of_every_block(case):
    if case == "forward-sweep":
        prof, ms, _ = _forward_sweep_draw(20)
    elif case == "uniform":
        prof, ms = MediumProfile.from_coeffs({0: 1.6 + 0.05j}, B), _modeset(6)
    else:
        prof, ms = MediumProfile.from_coeffs(LIFT_SLABS[case], B), _modeset(6)
    rng = np.random.default_rng(41)
    shape = (2 * ms.N + 1, 2 * ms.block_size, 2 * ms.block_size)
    rhs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for j in range(len(prof.slabs)):
        basis = solve_layer_modes(prof, j, ms)
        want = np.linalg.solve(basis.W, rhs)
        got = basis.solve_W(rhs)
        assert got.shape == rhs.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("kind", sorted(LIFT_SLABS))
def test_layer_modes_lift_matches_dense_block_spectrum(kind):
    from scipy.optimize import linear_sum_assignment

    ms = _modeset(4)
    mb = ms.block_size
    prof = MediumProfile.from_coeffs(LIFT_SLABS[kind], B)
    basis = solve_layer_modes(prof, 0, ms)
    A, Bm = oracles.block_operators(prof.slabs[0], ms, 0)
    want = np.linalg.eigvals(A @ Bm)
    for ib in range(2 * ms.N + 1):
        got = basis.gamma[ib] ** 2
        cost = np.abs(got[:, None] - want[ib][None, :])
        rows, cols = linear_sum_assignment(cost)
        assert cost[rows, cols].max() <= 1e-10 * np.max(np.abs(want[ib]))
    assert oracles.eigen_residual(basis, prof, 0) <= 1e-12
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
    dtn = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    scat = solve_scattering(prof, inc, ms).scattered.coeffs
    monkeypatch.setattr(forward, "solve_layer_modes", _dense_layer_modes)
    prof = MediumProfile(prof.slabs)    # an equal profile that holds no lifted stack
    dtn_ref = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
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
    solve_scattering(_three_slab_stack(), PlaneWaveIncidence.from_angles(K, THETA1, THETA2), ms)
    assert orders == [ms.block_size] * 4


def test_singular_toeplitz_raises_eigen_failure():
    # q = cos x1: the 9x9 Toeplitz factor at N = 4 has an exact zero pivot
    prof = MediumProfile.from_coeffs({1: 0.5, -1: 0.5}, B)
    with pytest.raises(EigenFailure) as err:
        solve_layer_modes(prof, 0, _modeset(4))
    msg = str(err.value)
    assert msg.startswith("forward.solve_layer_modes: q Toeplitz factor singular at slab 0")


def _check_qpbvp_guard_threshold(monkeypatch, prof, ms, stage):
    """A limit just under the reported condition trips ``stage``, also with the stack held."""
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    reported = solve_qpbvp(prof, f, ms).condition
    assert reported > 1.0
    assert max(solve_layer_modes(prof, j, ms).cond
               for j in range(len(prof.slabs))) < reported * (1 - 1e-9)
    held = solve_qpbvp(prof, f, ms)          # served from the held stack
    assert held.condition == reported and held.field.stack is forward._stack(prof, ms)
    monkeypatch.setattr(forward, "COND_LIMIT", reported * (1 - 1e-9))
    with pytest.raises(SingularMatch) as err:
        solve_qpbvp(prof, f, ms)
    msg = str(err.value)
    assert msg.startswith(stage)
    assert "slab " in msg and "(n2 = " in msg
    assert msg.startswith(err.value.stage) and err.value.stage.startswith(stage)
    assert f"at slab {err.value.slab}, block {err.value.block} (n2 = " in msg
    assert err.value.value == reported and err.value.limit == reported * (1 - 1e-9)
    with pytest.raises(SingularMatch) as fresh:    # on an equal profile that holds nothing
        solve_qpbvp(MediumProfile(prof.slabs), f, ms)
    assert str(fresh.value) == msg
    monkeypatch.setattr(forward, "COND_LIMIT", reported * (1 + 1e-9))
    assert solve_qpbvp(prof, f, ms).condition == reported
    return reported


def test_qpbvp_condition_guard_threshold(monkeypatch):
    # A uniform bottom slab of low index under a high-index top slab: the
    # interface match (81.48 at N = 4) reads above the eigenbases (26.28)
    # and the trace match (26.29), so a limit just under the reported value
    # trips the interface match.
    prof = MediumProfile([Slab(0.3, {0: 1.2 + 0.02j}),
                          Slab(B - 0.3, {0: 2.5 + 0.05j, 1: 0.2, -1: 0.2})])
    _check_qpbvp_guard_threshold(monkeypatch, prof, _modeset(4), "forward: interface match")


def test_trace_match_guard_threshold_on_a_memo_hit(monkeypatch):
    # One uniform slab has no interface, so the worst stage is the trace
    # match, whose inverse the held stack keeps and assemble_dtn shares.
    prof = MediumProfile.from_coeffs({0: 1.6 + 0.05j}, B)
    ms = _modeset(4)
    reported = _check_qpbvp_guard_threshold(monkeypatch, prof, ms,
                                            "forward.solve_qpbvp: trace match")
    assert forward._stack(prof, ms).cond_limit == reported * (1 + 1e-9)
    monkeypatch.setattr(forward, "COND_LIMIT", reported * (1 - 1e-9))
    with pytest.raises(SingularMatch, match=r"^forward\.assemble_dtn: trace match"):
        assemble_dtn(prof, ms)


@pytest.mark.parametrize("bad", ["nan", "zero"])
def test_guard_raises_typed_error_on_non_finite_or_singular_block(bad):
    rng = np.random.default_rng(12)
    mats = rng.normal(size=(3, 6, 6)) + 1j * rng.normal(size=(3, 6, 6)) + 8 * np.eye(6)
    if bad == "nan":
        mats[1, 2, 4] = np.nan
    else:
        mats[1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatch) as err:
            forward._guard(mats, np.ones((3, 6)), "forward: probe", 2)
    msg = str(err.value)
    assert msg.startswith("forward: probe condition ")
    assert msg.endswith("at slab 2, block 1 (n2 = 0)")
    assert (err.value.stage, err.value.slab, err.value.block) == ("forward: probe", 2, 1)
    assert err.value.limit == forward.COND_LIMIT
    assert not err.value.value <= err.value.limit


def test_condition_estimate_brackets_exact_one_norm_condition(monkeypatch):
    ms = _modeset(8)
    guard = forward._guard
    seen = []

    def recording(mats, rhs, stage, *args, **kwargs):
        seen.append((stage, np.array(mats)))
        return guard(mats, rhs, stage, *args, **kwargs)

    monkeypatch.setattr(forward, "_guard", recording)
    prof = _three_slab_stack()
    res = solve_scattering(prof, PlaneWaveIncidence.from_angles(K, THETA1, THETA2), ms)
    # 2 interface matches, 1 boundary match; the eigenbases read their exact
    # condition from the lift (no guard), and no interface solves P'
    assert len(seen) == 3
    worst = max(solve_layer_modes(prof, j, ms).cond for j in range(len(prof.slabs)))
    for stage, mats in seen:
        assert len(mats) == 2 * ms.N + 1
        for a in mats:
            est = guard(a[None], a[None, :, 0], stage)[0]
            exact = np.linalg.cond(a, 1)
            assert exact / 3 <= est <= exact * (1 + 1e-12), stage
            worst = max(worst, est)
    assert res.condition == worst


def test_one_lu_per_guarded_block_and_no_svd_or_dense_solve(monkeypatch):
    ms = _modeset(8)
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for mod, names in ((np.linalg, ("svd", "cond", "solve")),
                       (scipy.linalg, ("svd", "solve", "lu_factor", "lu_solve"))):
        for name in names:
            monkeypatch.setattr(mod, name, counting(f"{mod.__name__}.{name}",
                                                    getattr(mod, name)))
    factored = []
    getrf = forward._getrf

    def recording_getrf(a, *args, **kwargs):
        factored.append(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest())
        return getrf(a, *args, **kwargs)

    monkeypatch.setattr(forward, "_getrf", recording_getrf)
    solve_scattering(_three_slab_stack(), PlaneWaveIncidence.from_angles(K, THETA1, THETA2), ms)
    assert calls == {}
    # 2 interface matches, 1 boundary match; the eigenbases' condition and
    # inverse come from the lift's shared factors, with no LU
    assert len(factored) == 3 * (2 * ms.N + 1)
    assert len(set(factored)) == len(factored)


def test_held_stack_requests_run_no_factorization_or_lu_solve(monkeypatch):
    # The stack holds solved operators: after the first trace solve, every
    # request is a product.  The build factors each guarded block once, and
    # solves it once, inside _guard.
    ms = _modeset(4)
    prof = _three_slab_stack()
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    calls = {"_getrf": 0, "_gecon": 0, "_getrs": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        monkeypatch.setattr(forward, name, counting(name, getattr(forward, name)))
    first = solve_qpbvp(prof, f, ms)
    # 2 interface matches and the trace match
    assert calls == dict.fromkeys(calls, 3 * (2 * ms.N + 1))
    calls.update(dict.fromkeys(calls, 0))
    again = solve_qpbvp(prof, f, ms)
    assemble_dtn(prof, ms)
    bounds = prof.slab_bounds()
    for field in (first.field, again.field):
        for j in range(len(prof.slabs)):
            field.mode_coefficients(np.linspace(bounds[j], bounds[j + 1], 3))
    assert calls == dict.fromkeys(calls, 0)
    assert again.field.stack is first.field.stack


def _counting_layer_modes(monkeypatch) -> list:
    """Slab index of every ``solve_layer_modes`` call from now on, i.e. of every stack build."""
    calls = []
    solve = forward.solve_layer_modes

    def counting(profile, slab_index, modeset):
        calls.append(slab_index)
        return solve(profile, slab_index, modeset)

    monkeypatch.setattr(forward, "solve_layer_modes", counting)
    return calls


def test_third_request_is_served_from_the_memo(monkeypatch):
    # The memo is the stack the profile holds: the first request builds it,
    # every later one on the same mode set is served from it.
    ms = _modeset(4)
    prof = _three_slab_stack()
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    builds = _counting_layer_modes(monkeypatch)
    results = []
    for want in ([0, 1, 2], [], []):    # built, served, served
        builds.clear()
        results.append(solve_qpbvp(prof, f, ms))
        assert builds == want
    for res in results[1:]:
        assert res.field.stack is results[0].field.stack
        assert np.array_equal(res.trace.coeffs, results[0].trace.coeffs)
        assert res.condition == results[0].condition
    # The held stack's trace-match inverse is shared with assemble_dtn: no guard runs.
    guarded = []
    guard = forward._guard
    monkeypatch.setattr(forward, "_guard",
                        lambda mats, rhs, stage, *args:
                        guarded.append(stage) or guard(mats, rhs, stage, *args))
    dtn = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    assert guarded == [] and builds == []
    # An equal but distinct profile shares nothing: a fresh build, with 2
    # interface matches and the trace match (the eigenbases are not guarded
    # by _guard).
    assert np.array_equal(dtn, oracles.dtn_matrix(assemble_dtn(MediumProfile(prof.slabs), ms), ms))
    assert builds == [0, 1, 2]
    assert len(guarded) == 3 and guarded[-1] == "forward.assemble_dtn: trace match"


def test_stack_request_hashes_the_profile_once(monkeypatch):
    # At most once per request; the held stack is found without hashing at
    # all, on the build as on the hits.
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    ms = _modeset(2)
    f = _tangential(ms, {(0, 0): (1.0, 0.5j)})
    builds = _counting_layer_modes(monkeypatch)
    calls = []
    digest = MediumProfile.digest
    monkeypatch.setattr(MediumProfile, "digest", lambda self: calls.append(1) or digest(self))
    for _ in range(3):  # built, served, served
        solve_qpbvp(prof, f, ms)
    assert builds == [0]
    assert calls == []


def test_a_one_off_profile_frees_its_stack_with_its_results():
    ms = _modeset(3)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    prof = MediumProfile([Slab(0.3, {0: 1.5 + 0.1j, 1: 0.1, -1: 0.1}),
                          Slab(B - 0.3, {0: 1.8 + 0.05j})])
    res = solve_scattering(prof, inc, ms)
    stack = weakref.ref(res.field.stack)
    del prof
    assert stack() is not None          # the result holds it
    del res
    assert stack() is None              # no cycle: freed without a collection


def test_an_equal_but_separate_mode_set_builds_its_own_stack(monkeypatch):
    ms, other = _modeset(3), _modeset(3)
    assert other.digest() == ms.digest()
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    builds = _counting_layer_modes(monkeypatch)
    # the profile holds its last stack only
    for modeset, want in ((ms, [0]), (ms, []), (other, [0]), (other, []), (ms, [0])):
        builds.clear()
        assemble_dtn(prof, modeset)
        assert builds == want


def test_a_changed_cond_limit_rebuilds_the_held_stack(monkeypatch):
    ms = _modeset(3)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    dtn = assemble_dtn(prof, ms)
    builds = _counting_layer_modes(monkeypatch)
    monkeypatch.setattr(forward, "COND_LIMIT", 1.0)     # below the rippled slab's eigenbasis
    with pytest.raises(IllConditionedBasis) as held:
        assemble_dtn(prof, ms)
    with pytest.raises(IllConditionedBasis) as first:
        assemble_dtn(MediumProfile(prof.slabs), ms)
    assert str(held.value) == str(first.value) and builds == [0, 0]
    monkeypatch.setattr(forward, "COND_LIMIT", 2e12)
    builds.clear()
    for _ in range(2):
        assert np.array_equal(assemble_dtn(prof, ms), dtn)
    assert builds == [0]


def test_changed_slab_coefficient_gives_a_fresh_stack():
    # A profile cannot be edited: a changed coefficient makes a new profile,
    # which builds its own stack and leaves the old one's alone.
    ms = _modeset(3)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    old = solve_qpbvp(prof, f, ms)
    with pytest.raises(TypeError, match="TrigPoly is immutable"):
        prof.slabs[0].coeffs[1] = 0.3 + 0j
    new = solve_qpbvp(MediumProfile([Slab(B, {**prof.slabs[0].coeffs, 1: 0.3})]), f, ms)
    assert new.field.stack is not old.field.stack
    want = solve_qpbvp(MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.3, -1: 0.2}, B), f, ms)
    assert np.array_equal(new.trace.coeffs, want.trace.coeffs)
    assert np.max(np.abs(new.trace.coeffs - old.trace.coeffs)) > 1e-3 * np.max(
        np.abs(old.trace.coeffs))
    assert np.array_equal(solve_qpbvp(prof, f, ms).trace.coeffs, old.trace.coeffs)


def test_condition_is_reported_per_call_on_a_shared_stack():
    ms = _modeset(4)
    prof = MediumProfile([Slab(0.3, {0: 1.5 + 0.1j}),
                          Slab(B - 0.3, {0: 1.9 + 0.2j, 1: 0.1, -1: 0.1})])
    f = _tangential(ms, {(0, 0): (1.0, 0.5j), (1, -1): (0.3, -0.2)})
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    lone = solve_qpbvp(MediumProfile(prof.slabs), f, ms).condition
    scattering = [solve_scattering(prof, inc, ms).condition for _ in range(2)]
    # The boundary match of the scattering solve is the worst stage here, so
    # a stack that kept it would report it from the trace solve as well.
    assert scattering[0] > lone
    assert solve_qpbvp(prof, f, ms).condition == lone
    assert solve_scattering(prof, inc, ms).condition == scattering[0] == scattering[1]


def test_qpbvp_zero_data():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}, B)
    f = _tangential(ms, {})
    sol = solve_qpbvp(prof, f, ms)
    assert np.max(np.abs(sol.trace.coeffs)) == 0.0
    E = sol.field.mode_coefficients(0.37)
    assert np.max(np.abs(E)) == 0.0


def test_qpbvp_uniform_impedance_oracle():
    ms = _modeset(6)
    q0 = 1.4 + 0.2j
    prof = MediumProfile.from_coeffs({0: q0}, B)
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
        E = sol.field.mode_coefficients(x3)
        np.testing.assert_allclose(E[j, :2], np.sin(gam * x3) / np.sin(gam * B) * et,
                                   rtol=1e-10)


def test_uniform_slab_keeps_identity_basis_where_te_and_tm_coincide():
    # k^2 q0 = (alpha1 + 1)^2: the TE/TM lift would give mode (1, 0) two equal
    # columns (condition ~30/eps^2 for a ripple eps), so uniform slabs keep W = I
    q0, k = 1.6, 1.21 / np.sqrt(1.6)
    ms = build_modeset(k, Quasimomentum(0.21, 0.13), 3)
    prof = MediumProfile.from_coeffs({0: q0}, B)
    assert solve_layer_modes(prof, 0, ms).cond == 1.0
    vec = (0.7 - 0.2j, -0.3 + 0.4j)
    sol = solve_qpbvp(prof, _tangential(ms, {(1, 0): vec}), ms)
    j = ms.index_of(1, 0)
    oracle = _impedance_oracle(q0, ms, j, np.array([vec[1], -vec[0]]), k)
    np.testing.assert_allclose(sol.trace.coeffs[j, :2], oracle, rtol=1e-12)


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
    assert oracles.layer_residual(sol.field, pts)["max_relative"] <= 1e-8
    assert oracles.pec_residual(sol.field) <= 1e-10


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
    E1 = s1.field.mode_coefficients(0.51)
    E2 = s2.field.mode_coefficients(0.51)
    np.testing.assert_allclose(E2, E1, atol=1e-11 * np.max(np.abs(E1)))
    # tangential continuity across the internal interface of a layered stack
    layered = MediumProfile([Slab(0.3, coeffs), Slab(B - 0.3, {0: 1.9 + 0.2j, 1: 0.1, -1: 0.1})])
    s3 = solve_qpbvp(layered, f, ms)
    Eb, Hb = oracles.layer_fields(s3.field, 0.3 - 1e-12)
    Ea, Ha = oracles.layer_fields(s3.field, 0.3 + 1e-12)
    scale3 = np.max(np.abs(Eb))
    np.testing.assert_allclose(Ea[:, :2], Eb[:, :2], atol=1e-9 * scale3)
    np.testing.assert_allclose(Ha[:, :2], Hb[:, :2], atol=1e-9 * np.max(np.abs(Hb)))


def _random_trace_solution(profile, ms, seed):
    rng = np.random.default_rng(seed)
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes), profile.b)
    return solve_qpbvp(profile, f, ms), rng


@pytest.mark.parametrize("slabs", [1, 3])
@pytest.mark.parametrize("derivatives", [False, True])
def test_mode_coefficients_array_matches_scalar(slabs, derivatives):
    # the oracle's H and x3-derivatives, which the Maxwell residual reads, batched
    # against one height at a time; mode_coefficients' E is checked against the oracle below
    ms = _modeset(4)
    prof = (MediumProfile.from_coeffs(LIFT_SLABS["absorbing"], B) if slabs == 1
            else _three_slab_stack())
    sol, rng = _random_trace_solution(prof, ms, 31)
    faces = prof.slab_bounds()[1:-1]
    heights = np.concatenate([rng.uniform(0, prof.b, 12), [0.0, prof.b], faces,
                              faces - 1e-12, faces + 1e-12])
    scalar = [oracles.layer_fields(sol.field, float(x3), derivatives) for x3 in heights]
    order = rng.permutation(len(heights))
    batched = oracles.layer_fields(sol.field, heights[order], derivatives)
    assert len(batched) == (4 if derivatives else 2)
    for i, arr in enumerate(batched):
        assert arr.shape == (ms.num_modes, 3, len(heights))
        ref = np.stack([scalar[p][i] for p in order], axis=-1)
        assert scalar[0][i].shape == (ms.num_modes, 3)
        assert np.max(np.abs(arr - ref)) <= 1e-14 * np.max(np.abs(ref))


# Largest |E - oracle E| / max|oracle E| that mode_coefficients may read.  The
# two form the propagation factors and E3 by different arithmetic (a cosine and
# sine of Re gamma against complex exponentials, the held E3 map against
# Q^-1 applied to H_t).  Measured with one and two BLAS threads: at most
# 1.3e-16 (E_t) and 7.1e-16 (E3) at N = 4, 8.9e-16 and 6.5e-15 at N = 12 on
# the three-slab stack; 8.5e-15 and 2.2e-14 on the 45 + 60 high stack of the
# evanescence test, whose phase arguments reach Re gamma H = 95, where the
# rounding of the argument itself is about 1e-14.
_FIELD_TOL = 5e-14


def _assert_matches_oracle_e(field, x3):
    E = field.mode_coefficients(x3)
    ref = oracles.layer_fields(field, x3)[0]
    assert E.shape == ref.shape == (field.modeset.num_modes, 3, *np.shape(x3))
    assert np.all(np.isfinite(E))
    assert np.max(np.abs(E - ref), initial=0.0) <= _FIELD_TOL * np.max(np.abs(ref), initial=0.0)


def test_mode_coefficients_matches_the_oracle_e():
    # sorted heights take one slice per slab, unsorted ones an index gather; both,
    # and empty and scalar heights, give the oracle's E, faces included
    prof = _three_slab_stack()
    for N in (4, 12):
        ms = _modeset(N)
        sol, rng = _random_trace_solution(prof, ms, 37)
        faces = prof.slab_bounds()
        near = np.concatenate([faces, faces[1:-1] - 1e-12, faces[1:-1] + 1e-12])
        heights = np.sort(np.concatenate([rng.uniform(0, prof.b, 9), near]))
        for x3 in (heights, heights[rng.permutation(len(heights))], near, np.sort(near),
                   heights[:1], np.array([]), *(float(h) for h in near)):
            _assert_matches_oracle_e(sol.field, x3)


def test_mode_coefficients_at_extreme_evanescence():
    # Im gamma H reaches about 1048 in the upper slab, past the ~745 where
    # e^{-Im gamma H} underflows to 0: every propagation factor is formed with
    # modulus <= 1 and none is divided by another, so nothing overflows, no 0/0
    ms = _modeset(12)
    prof = MediumProfile([Slab(45.0, LIFT_SLABS["absorbing"]),
                          Slab(60.0, LIFT_SLABS["non-hermitian"])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol, rng = _random_trace_solution(prof, ms, 41)
        bases = sol.field.stack.bases
        assert max(float(np.max(b.gamma.imag)) * s.height
                   for b, s in zip(bases, prof.slabs)) > 1000
        faces = prof.slab_bounds()
        heights = np.sort(np.concatenate([rng.uniform(0, prof.b, 20), faces,
                                          [45.0 - 1e-9, 45.0 + 1e-9]]))
        _assert_matches_oracle_e(sol.field, heights)
        _assert_matches_oracle_e(sol.field, heights[rng.permutation(len(heights))])


def test_e3_map_is_built_on_the_first_field_evaluation_and_held():
    # a stack that serves only assemble_dtn or solve_scattering holds no dense
    # E_t map W and no E3 map Z; a field evaluation builds both maps of each
    # slab it evaluates, once
    ms = _modeset(4)
    prof = _three_slab_stack()
    assemble_dtn(prof, ms)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    solve_scattering(prof, inc, ms)
    stack = forward._stack(prof, ms)
    assert all("Z" not in vars(b) and "W" not in vars(b) for b in stack.bases)
    sol, _ = _random_trace_solution(prof, ms, 43)
    assert sol.field.stack is stack
    assert all("Z" not in vars(b) and "W" not in vars(b) for b in stack.bases)
    faces = prof.slab_bounds()
    sol.field.mode_coefficients(np.array([0.1, 0.2, faces[-1]]))  # slabs 0 and 2
    held = [(vars(b).get("W"), vars(b).get("Z")) for b in stack.bases]
    assert held[1] == (None, None)
    mb = ms.block_size
    for w, z in (held[0], held[2]):
        assert w.shape == (2 * ms.N + 1, 2 * mb, 2 * mb)
        assert z.shape == (2 * ms.N + 1, mb, 2 * mb)
    again, _ = _random_trace_solution(prof, ms, 44)
    again.field.mode_coefficients(np.linspace(0, prof.b, 7))
    assert again.field.stack is stack
    for j in (0, 2):
        assert stack.bases[j].W is held[j][0] and stack.bases[j].Z is held[j][1]
    assert "W" in vars(stack.bases[1]) and "Z" in vars(stack.bases[1])


def _held_bytes(obj, seen=None) -> int:
    """Bytes of every array reachable from obj's attributes, lists and tuples, each buffer once."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        if id(obj) in seen:
            return 0
        seen.add(id(obj))
        return obj.nbytes
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, (list, tuple)):
        return sum(_held_bytes(o, seen) for o in obj)
    if hasattr(obj, "__dict__") and not isinstance(obj, type):
        return sum(_held_bytes(v, seen) for v in vars(obj).values())
    return 0


def test_a_solved_forward_sweep_stack_holds_at_most_6_mb():
    # Each slab holds its lift's mb x mb factors and (2N+1, mb) scales, not
    # 2N+1 dense W and V blocks: 5.57 MB here, and 11.33 MB with the blocks
    prof, ms, inc = _forward_sweep_draw(21)
    stack = solve_scattering(prof, inc, ms).field.stack
    assert all("W" not in vars(b) and "Z" not in vars(b) for b in stack.bases)
    assert _held_bytes(stack) <= 6.0e6


@pytest.mark.parametrize("case", ["rippled", "uniform"])
def test_factored_products_match_the_dense_blocks(case):
    # apply_W, apply_V and the column-scaled dense_W and dense_V against
    # products with each block of the dense maps W and dense_V()
    ms = _modeset(6)
    coeffs = LIFT_SLABS["non-hermitian"] if case == "rippled" else {0: 1.6 + 0.05j}
    basis = solve_layer_modes(MediumProfile.from_coeffs(coeffs, B), 0, ms)
    rng = np.random.default_rng(47)
    shape = (2 * ms.N + 1, 2 * ms.block_size, 2 * ms.block_size)
    R = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    scale = R[:, 0]
    W, V = basis.W, basis.dense_V()
    for got, want in ((basis.apply_W(R), W @ R), (basis.apply_V(R), V @ R),
                      (basis.dense_W(scale), W * scale[:, None, :]),
                      (basis.dense_V(scale), V * scale[:, None, :])):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_non_finite_or_outside_height_rejected():
    ms = _modeset(2)
    prof = _three_slab_stack()
    sol, _ = _random_trace_solution(prof, ms, 5)
    assert sol.field.mode_coefficients(np.array([0.0, prof.b])).shape == (ms.num_modes, 3, 2)
    for bad in (float("nan"), float("inf"), -float("inf"), np.nextafter(0.0, -1.0),
                np.nextafter(prof.b, 2.0)):
        for x3 in (bad, np.array([0.1, bad, 0.5])):
            with pytest.raises(ValidationError, match=r"outside \[0, "):
                prof.slab_of(x3)
            with pytest.raises(ValidationError, match=r"outside \[0, "):
                sol.field.mode_coefficients(x3)


def test_dtn_block_diagonal_and_deterministic():
    ms = _modeset(3)
    q0 = 1.6 + 0.25j
    prof = MediumProfile.from_coeffs({0: q0}, B)
    dtn = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    m = ms.num_modes
    # uniform medium: strictly one 2x2 block per mode
    for j in (ms.mode0, ms.index_of(2, -1)):
        et = np.array([0.4 - 0.1j, 0.9 + 0.3j])
        f1, f2 = -et[1], et[0]  # f = e3 x E
        vec = np.zeros(2 * m, dtype=complex)
        vec[j], vec[m + j] = f1, f2
        out = dtn @ vec
        oracle = _impedance_oracle(q0, ms, j, et)
        got = np.array([out[j], out[m + j]])
        np.testing.assert_allclose(got, oracle, rtol=1e-10)
        out[j] = out[m + j] = 0.0
        assert np.max(np.abs(out)) <= 1e-12 * np.max(np.abs(oracle))
    assert np.array_equal(dtn, oracles.dtn_matrix(assemble_dtn(prof, ms), ms))
    assert prof.digest() == MediumProfile.from_coeffs({0: q0}, B).digest()


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("coeffs", [{0: 1.5 + 0.1j, 1: 0.2, -1: 0.15, 2: 0.05j},
                                    {0: 2.0, 1: 0.3, -1: 0.3}], ids=["absorbing", "even-real"])
def test_dtn_block_at_alpha2_plus_n2_zero_matches_its_closed_form(N, coeffs):
    # One slab at alpha = (0.21, 0): the n2 = 0 block decouples into the TE
    # and TM scalar problems, whose DtN blocks have closed forms
    # (oracles.dtn_n2_zero_block).  Measured with one BLAS thread: at most
    # 3.9e-16 relative on T11 and 4.3e-14 on T22 (even-real, N = 8).
    k, height = 1.25, 0.8
    ms = build_modeset(k, Quasimomentum(0.21, 0.0), N)
    prof = MediumProfile.from_coeffs(coeffs, height)
    block, mb = assemble_dtn(prof, ms)[N], ms.block_size
    t11, t22 = oracles.dtn_n2_zero_block(prof.slabs[0].coeffs, height, k, 0.21, N)
    assert not np.any(block[:mb, mb:]) and not np.any(block[mb:, :mb])
    assert np.max(np.abs(block[:mb, :mb] - t11)) <= 1e-13 * np.max(np.abs(t11))
    assert np.max(np.abs(block[mb:, mb:] - t22)) <= 1e-13 * np.max(np.abs(t22))


@pytest.mark.parametrize("N, coeffs", [(8, {0: 1.5 + 0.1j, 1: 0.2, -1: 0.15, 2: 0.05j}),
                                       (8, {0: 2.0, 1: 0.3, -1: 0.3}),
                                       (12, {0: 1.5 + 0.1j, 1: 0.2, -1: 0.15, 2: 0.05j})],
                         ids=["absorbing-8", "even-real-8", "absorbing-12"])
def test_te_exponents_of_every_block_are_the_sturm_liouville_spectrum(N, coeffs):
    # At M = N the TE matrix k^2 Q - D1^2 is sturm's Galerkin matrix, so in
    # every n2 block gamma^2 + (alpha2 + n2)^2 over the TE columns is
    # solve_sl's eigenvalue set.  Measured with one BLAS thread and the
    # default count alike: at most 5.0e-15 relative to matrix_norm.  It cannot
    # see the sign of alpha1: A and A^T share one spectrum, and so does the
    # n1 mirror of the problem at -alpha1.
    k, alpha = 1.25, Quasimomentum(0.21, 0.13)
    ms = build_modeset(k, alpha, N)
    q = TrigPoly(coeffs)
    gamma = solve_layer_modes(MediumProfile.from_coeffs(q, 0.8), 0, ms).gamma
    spec = solve_sl(SLProblem(q, k, alpha.alpha1, N))
    lam = np.array([e.lam for e in spec.entries.values()])
    assert lam.size == ms.block_size
    a2 = alpha.alpha2 + np.arange(-N, N + 1)
    for g, a in zip(gamma[:, :ms.block_size], a2):
        dist = np.abs(lam[:, None] - (g * g + a * a)[None, :])
        rows, cols = scipy.optimize.linear_sum_assignment(dist)
        assert np.max(dist[rows, cols]) <= 1e-13 * spec.matrix_norm


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("stack", ["two-slab", "three-slab"])
def test_stacked_dtn_block_at_alpha2_plus_n2_zero_matches_a_transfer_recursion(stack, N):
    # The n2 = 0 block at alpha = (0.21, 0) of a rippled stack against an
    # independent transfer recursion (oracles.dtn_n2_zero_stack), the one
    # value check of the interface recursion.  Measured with one BLAS thread
    # and with the default count alike: at most 6.6e-16 relative on T11 and
    # 5.7e-15 on T22.
    k = 1.25
    slabs = [(h, TrigPoly(c)) for h, c in RECIPROCITY_CASES[stack]]
    block = assemble_dtn(MediumProfile([Slab(h, c) for h, c in slabs]),
                         build_modeset(k, Quasimomentum(0.21, 0.0), N))[N]
    mb = 2 * N + 1
    t11, t22 = oracles.dtn_n2_zero_stack(slabs, k, 0.21, N)
    assert not np.any(block[:mb, mb:]) and not np.any(block[mb:, :mb])
    assert np.max(np.abs(block[:mb, :mb] - t11)) <= 1e-13 * np.max(np.abs(t11))
    assert np.max(np.abs(block[mb:, mb:] - t22)) <= 1e-13 * np.max(np.abs(t22))
    # the recursion on one slab is the closed form
    one = oracles.dtn_n2_zero_stack(slabs[-1:], k, 0.21, N)
    for got, want in zip(one, oracles.dtn_n2_zero_block(slabs[-1][1], slabs[-1][0], k, 0.21, N)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dtn_apply_matches_qpbvp():
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    dtn = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    rng = np.random.default_rng(5)
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes), B)
    direct = solve_qpbvp(prof, f, ms).trace.coeffs
    out = dtn @ np.concatenate([f.coeffs[:, 0], f.coeffs[:, 1]])
    m = ms.num_modes
    via_map = TangentialField.from_components(ms, out[:m], out[m:], height=f.height).coeffs
    np.testing.assert_allclose(via_map, direct, atol=1e-11 * np.max(np.abs(direct)))


def test_profile_validation():
    with pytest.raises(ValidationError):
        MediumProfile.from_coeffs({0: 0.2, 1: 0.3, -1: 0.3}, B).validate()  # Re q dips <= 0
    with pytest.raises(ValidationError):
        MediumProfile.from_coeffs({0: 1.0, 1: 0.2j, -1: 0.2j}, B).validate()  # Im changes sign
    with pytest.raises(ValidationError):
        MediumProfile.from_coeffs({0: 1.5}, B).validate(require_absorbing=True)
    with pytest.raises(ValidationError):
        Slab(-0.1, {0: 1.0})
    MediumProfile.from_coeffs({0: 1.5 + 0.1j}, B).validate(require_absorbing=True)


def _two_slab(q_lower, q_upper):
    return MediumProfile([Slab(B / 2, {0: q_lower}), Slab(B / 2, {0: q_upper})])


@pytest.mark.parametrize("sign", [1, -1])
def test_profile_im_sign_tolerance_threshold(sign):
    # Im q may cross zero by up to 1e-12 max(1, q_inf), to the last bit; the
    # slab with |Im q| = 1e-6 alone sets q_inf, and q's samples at a constant
    # are the coefficient exactly
    big = 1.5 + sign * 1e-6j
    tol = 1e-12 * max(1.0, _two_slab(big, 1.5)._sample_bounds[1])
    _two_slab(big, 1.5 - sign * tol * 1j).validate()
    with pytest.raises(ValidationError, match="Im q changes sign"):
        _two_slab(big, 1.5 - sign * float(np.nextafter(tol, 1.0)) * 1j).validate()


def test_require_absorbing_threshold():
    # absorbing means max Im q > 1e-12 max(1, q_inf): Im q = tol is refused, one ulp more passes
    tol = 1e-12 * max(1.0, MediumProfile.from_coeffs({0: 1.5}, B)._sample_bounds[1])
    with pytest.raises(ValidationError, match="absorbing medium required"):
        MediumProfile.from_coeffs({0: 1.5 + tol * 1j}, B).validate(require_absorbing=True)
    up = float(np.nextafter(tol, 1.0))
    assert MediumProfile.from_coeffs({0: 1.5 + up * 1j}, B)._sample_bounds[1] == 1.5
    MediumProfile.from_coeffs({0: 1.5 + up * 1j}, B).validate(require_absorbing=True)


def test_validate_refuses_q_not_finite_on_its_grid():
    # q = c (1 + cos(x1) / 2) peaks at 1.5 c at x1 = 0: the largest c whose peak
    # is finite validates, and one float up sampling q used to warn "overflow"
    below = 1.1984620899082105e308
    above = float(np.nextafter(below, math.inf))
    MediumProfile.from_coeffs({0: below, 1: below / 4, -1: below / 4}, B).validate()
    for coeffs in ({0: above, 1: above / 4, -1: above / 4}, {0: 1e308, 1: 1e308}):
        with pytest.raises(ValidationError, match=r"^forward\.MediumProfile: q is not finite "
                                                  r"on the sampling grid \(max \|q\| = inf\)"):
            MediumProfile.from_coeffs(coeffs, 0.5).validate()


def test_stack_build_refuses_a_slab_whose_k_squared_q_overflows():
    # q = 1e300 + 1e299 (e^{ix1} + e^{-ix1}) over a plain slab: k^2 sum_j |q_j|
    # is finite up to k = below, where the stack reaches slab 1's eigensolve
    # (which refuses entries this large); one float up, and at k = 1e10, k^2 Q
    # used to warn "overflow" and is now refused first, naming the slab
    q = {0: 1e300, 1: 1e299, -1: 1e299}
    below = 12239.598083210341
    above = float(np.nextafter(below, math.inf))
    total = sum(abs(c) for c in q.values())
    assert math.isfinite(below * below * total) and not math.isfinite(above * above * total)
    prof = MediumProfile([Slab(0.3, {0: 1.5}), Slab(0.5, q)])
    with pytest.raises(EigenFailure, match=r"eigensolve residual .* at slab 1$"):
        assemble_dtn(prof, build_modeset(below, Quasimomentum(0.3 * below, 0.1 * below), 1))
    for k, where in ((above, prof), (1e10, prof), (1e10, MediumProfile.from_coeffs(q, 0.5))):
        slab = len(where.slabs) - 1
        with pytest.raises(ValidationError, match=rf"^forward\.solve_layer_modes: k\^2 sum_j "
                                                  rf"\|q_j\| is not finite at slab {slab} "):
            assemble_dtn(where, build_modeset(k, Quasimomentum(0.3 * k, 0.1 * k), 1))


def test_profile_samples_q_once_on_first_use(monkeypatch):
    calls = []
    sample = TrigPoly.__call__
    monkeypatch.setattr(TrigPoly, "__call__",
                        lambda self, x1: calls.append(len(x1)) or sample(self, x1))
    prof = MediumProfile([Slab(0.3, {0: 1.5 + 0.1j, 1: 0.2, -1: 0.2}), Slab(0.4, {0: 1.8 + 0.1j})])
    assert calls == []  # building a profile samples nothing
    prof.validate()
    prof.validate(require_absorbing=True)
    np.testing.assert_allclose(prof._sample_bounds[1], abs(1.9 + 0.1j), rtol=1e-12)
    assert calls == [forward._PROFILE_GRID] * 2  # one grid per slab, once


def test_validation_follows_a_changed_coefficient(monkeypatch):
    # A profile cannot be edited: a changed coefficient makes a new profile,
    # which is sampled and validated afresh.
    calls = []
    sample = TrigPoly.__call__
    monkeypatch.setattr(TrigPoly, "__call__",
                        lambda self, x1: calls.append(len(x1)) or sample(self, x1))
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j}, B)
    prof.validate()
    ms = _modeset(2)
    f = _tangential(ms, {(0, 0): (1.0, 0.5j)})
    for _ in range(3):              # a build, then served from the held stack
        solve_qpbvp(prof, f, ms)
    assert calls == [forward._PROFILE_GRID]  # unchanged coefficients are not resampled
    np.testing.assert_allclose(prof._sample_bounds[1], abs(1.5 + 0.1j), rtol=1e-12)
    with pytest.raises(TypeError, match="TrigPoly is immutable"):
        prof.slabs[0].coeffs[0] = -1.0 + 0j
    changed = MediumProfile.from_coeffs({0: -1.0 + 0j}, B)
    with pytest.raises(ValidationError, match="positive lower bound"):
        changed.validate()
    with pytest.raises(ValidationError, match="positive lower bound"):
        solve_qpbvp(changed, f, ms)
    np.testing.assert_allclose(changed._sample_bounds[1], 1.0, rtol=1e-12)
    assert calls == [forward._PROFILE_GRID] * 2
    solve_qpbvp(prof, f, ms)
    assert calls == [forward._PROFILE_GRID] * 2


def test_conjugate_is_built_once_and_held(monkeypatch):
    calls = []
    sample = TrigPoly.__call__
    monkeypatch.setattr(TrigPoly, "__call__",
                        lambda self, x1: calls.append(len(x1)) or sample(self, x1))
    slabs = [(0.3, {0: 1.5 + 0.1j, 1: 0.2 - 0.03j, -1: 0.15, 2: 0.04j}), (0.4, {0: 1.8 + 0.02j})]
    prof = MediumProfile([Slab(h, c) for h, c in slabs])
    conj = prof.conjugate()
    assert prof.conjugate() is conj
    assert calls == []              # building the conjugate samples nothing
    conj.validate()
    fresh = MediumProfile([Slab(h, TrigPoly(c).conj()) for h, c in slabs])
    assert conj.digest() == fresh.digest()
    assert conj._sample_bounds == fresh._sample_bounds
    # conj(q)'s samples are q's conjugated bit for bit
    re_min, q_inf, im_min, im_max = prof._sample_bounds
    assert conj._sample_bounds == (re_min, q_inf, -im_max, -im_min)
    assert calls == [forward._PROFILE_GRID] * 6


def test_slab_refuses_a_non_integer_fourier_index():
    # int() would truncate 0.9 to index 0, and 1.5 would overwrite its 0.2
    with pytest.raises(ValidationError, match=r"Fourier index 0\.9 is not an integer"):
        Slab(0.5, {0.9: 0.2, 0: 1.5})
    with pytest.raises(ValidationError, match=r"Fourier index 0\.5 is not an integer"):
        MediumProfile.from_coeffs({0: 1.5, 0.5: 0.1}, B)


def test_slab_and_profile_refuse_in_place_edits():
    slab = Slab(0.3, {0: 1.5 + 0.1j, 1: 0.2})
    prof = MediumProfile([slab, Slab(0.4, {0: 1.8})])
    digest = prof.digest()
    for obj, name in ((slab, "height"), (slab, "coeffs"), (slab, "extra"),
                      (prof, "slabs"), (prof, "b"), (prof, "extra")):
        with pytest.raises(AttributeError, match=r"is immutable: cannot change"):
            setattr(obj, name, 1.0)
        if name != "extra":
            with pytest.raises(AttributeError, match=r"is immutable: cannot change"):
                delattr(obj, name)
    assert isinstance(prof.slabs, tuple)
    with pytest.raises(TypeError):
        prof.slabs[0] = Slab(0.3, {0: 2.0})
    with pytest.raises(TypeError, match="TrigPoly is immutable"):
        slab.coeffs[1] = 0.3
    assert prof.digest() == digest and prof.b == 0.7 and slab.height == 0.3


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                     copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_profile_copies_keep_the_digest_and_the_coefficient_order(copy_of):
    ms = _modeset(2)
    prof = MediumProfile([Slab(0.3, {2: 0.04j, 0: 1.5 + 0.3j, -1: 0.15}),
                          Slab(0.4, {-1: 0.1, 0: 1.8, 1: 0.1})])
    dtn = assemble_dtn(prof, ms)        # the profile holds a stack and its bounds
    prof.conjugate()
    twin = copy_of(prof)
    assert twin is not prof and isinstance(twin.slabs, tuple)
    assert twin.digest() == prof.digest() and twin.b == prof.b
    for a, b in zip(prof.slabs, twin.slabs):
        assert b.height == a.height and type(b.coeffs) is TrigPoly
        assert list(b.coeffs.items()) == list(a.coeffs.items())
    assert set(vars(twin)) == {"slabs", "b"}   # no stack, conjugate or bounds come along
    assert np.array_equal(assemble_dtn(twin, ms), dtn)
    # a slab given no c_0 keeps it last
    assert list(copy_of(Slab(0.2, {1: 0.1, -1: 0.1})).coeffs) == [1, -1, 0]
    with pytest.raises(TypeError, match="TrigPoly is immutable"):
        twin.slabs[0].coeffs[0] = 1.0


def test_condition_includes_the_eigenbasis_guard():
    # one slab whose eigenbasis condition (138.54, exact; gecon's estimate
    # read 131.72) is above its trace match (131.02); a scattering solve's
    # boundary match reads above both here
    ms = _modeset(4)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.4, -1: 0.4}, 0.5)
    basis = solve_layer_modes(prof, 0, ms).cond
    P = forward._stack(prof, ms).top_P()
    trace_match, _ = forward._guard(P, P[..., 0], "probe")
    assert trace_match < basis
    f = _tangential(ms, {(0, 0): (1.0, 0.5j)}, height=0.5)
    assert solve_qpbvp(prof, f, ms).condition == basis
    assert solve_scattering(prof, PlaneWaveIncidence.from_angles(K, THETA1, THETA2),
                            ms).condition >= basis


@pytest.mark.parametrize("offset", [0.0, 1e-9, 1e-6])
def test_resonant_bottom_slab_is_not_refused(offset):
    # A lossless uniform slab on the plate whose height puts gamma h = pi for
    # the (0, 0) mode: its downgoing and upgoing waves cancel in E_t at its
    # top face, so the map P' from amplitudes to E_t there is singular on
    # that mode (gecon read 1.73e15 at offset 0 and 6.7e8 at 1e-9).  The
    # physics is regular, and the interface step never solves P'.
    ms = _modeset(6)
    a1, a2 = ms.alpha_n[ms.mode0, :2]
    gam = np.sqrt(K * K * 1.6 - a1 * a1 - a2 * a2)
    prof = MediumProfile([Slab(np.pi / gam * (1 + offset), {0: 1.6}),
                          Slab(0.4, {0: 1.9, 1: 0.1, -1: 0.1})])
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    res = solve_scattering(prof, inc, ms)
    assert res.condition <= 1e3
    assert abs(sum(efficiencies(res.scattered, inc).values()) - 1.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_resonant_line_of_a_lossless_bottom_slab_solves():
    # gamma h = n pi (1 + delta) for the (0, 0) mode of a lossless bottom slab,
    # n = 1, 2, 3, under the 0.4-high slab above: the plate step's P' is
    # singular on that mode at delta = 0.  Both bottom slabs solve at every
    # point, the refusal window is empty: |sum eff - 1| reads at most
    # 0.021 u max(condition, 1), with condition 287 (uniform) and 4.0e3
    # (rippled, the lift's condition)
    ms = _modeset(6)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    a1, a2 = ms.alpha_n[ms.mode0, :2]
    gamma = np.sqrt(K * K * 1.6 - a1 * a1 - a2 * a2)
    rippled = {0: 1.6, 1: 0.01, -1: 0.01}    # q = 1.6 + 0.02 cos x1
    block = solve_layer_modes(MediumProfile.from_coeffs(rippled, B), 0, ms).gamma[ms.N]
    nearest = block[np.argmin(np.abs(block - gamma))]
    assert nearest.imag == 0 and abs(nearest - gamma) <= 1e-3
    u = np.finfo(float).eps / 2
    for coeffs, g in (({0: 1.6}, gamma), (rippled, nearest.real)):
        for n in (1, 2, 3):
            for delta in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
                prof = MediumProfile([Slab(n * np.pi / g * (1 + delta), coeffs),
                                      Slab(0.4, {0: 1.9, 1: 0.1, -1: 0.1})])
                res = solve_scattering(prof, inc, ms)
                res.scattered.validate_divergence()
                total = sum(efficiencies(res.scattered, inc).values())
                assert abs(total - 1.0) <= u * max(res.condition, 1.0)


def _gamma_zero_case(q0_scale, *slabs_above):
    # k = 1.5 at normal incidence puts k^2 q0 = 4 = |alpha_n|^2 on the modes
    # with n1^2 + n2^2 = 4 of a uniform q0 = 16/9 slab, so their gamma is 0
    k = 1.5
    inc = PlaneWaveIncidence.from_angles(k, np.pi / 2, 0.0)
    ms = build_modeset(k, Quasimomentum.from_angles(k, np.pi / 2, 0.0), 3)
    prof = MediumProfile([Slab(0.4, {0: 16 / 9 * q0_scale}), *slabs_above])
    return prof, inc, ms


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniform_slab_refuses_a_vanishing_exponent_before_dividing():
    prof, inc, ms = _gamma_zero_case(1.0)
    with pytest.raises(EigenFailure, match=r"vanishing propagation exponent .* at slab 0, "
                                           r"block 1 \(n2 = -2\)"):
        solve_scattering(prof, inc, ms)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_uniform_slab_near_a_vanishing_exponent_still_solves():
    prof, inc, ms = _gamma_zero_case(1 + 1e-6, Slab(0.3, {0: 1.9, 1: 0.2, -1: 0.2}))
    res = solve_scattering(prof, inc, ms)
    assert res.condition <= 1e7  # reads 9.7e5: it grows as 1 / |q0 offset|
    assert abs(sum(efficiencies(res.scattered, inc).values()) - 1.0) <= 1e-12


def test_scattering_pec_mirror():
    ms = _modeset(6)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2, pol_seed=(0.3, 0.9, 0.2))
    res = solve_scattering(MediumProfile.from_coeffs({0: 1.0}, B), inc, ms)
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
    res.scattered.validate_divergence()


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
    res = solve_scattering(MediumProfile.from_coeffs({0: 1.0}, B), dens, ms)
    scat = res.scattered.rebase(0.0)
    inc = res.incident.rebase(0.0)   # referenced at b, like the scattered field
    mirror = np.column_stack([-inc.coeffs[:, 0], -inc.coeffs[:, 1], inc.coeffs[:, 2]])
    np.testing.assert_allclose(scat.coeffs, mirror, atol=1e-10 * np.max(np.abs(mirror)))


def test_efficiencies_refuse_a_dipole_sheet_incidence():
    # efficiencies are normalised to a plane wave's beta_inc |p|^2; a dipole
    # sheet has no p and is refused by type, not with an AttributeError
    ms = _modeset(3)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[ms.mode0, :2] = (1.0, 0.5j)
    dens = DipoleDensity(ms, 1.6, coeffs)
    res = solve_scattering(MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B),
                           dens, ms)
    with pytest.raises(ValidationError, match=r"plane wave, got a DipoleDensity incidence"):
        efficiencies(res.scattered, dens)


def test_scattering_interior_residual():
    ms = _modeset(8)
    inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    prof = MediumProfile.from_coeffs({0: 1.5 + 0.1j, 1: 0.15, -1: 0.15}, B)
    res = solve_scattering(prof, inc, ms)
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0, 2 * np.pi, 50),
                           rng.uniform(0.05, B - 0.05, 50)])
    assert oracles.layer_residual(res.field, pts)["max_relative"] <= 1e-8
    assert oracles.pec_residual(res.field) <= 1e-10


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
        solve_scattering(MediumProfile.from_coeffs({0: 1.0}, B), bad, ms)


def test_incidence_wavenumber_mismatch_threshold():
    # |k_inc - k| <= 1e-12 k is accepted; 2e-12 k is a different problem
    ms = _modeset(3)
    for rel in (0.5e-12, -0.5e-12):
        inc = PlaneWaveIncidence.from_angles(K * (1 + rel), THETA1, THETA2)
        assert forward.expand_incidence(inc, ms, 0.0).coeffs[ms.mode0] == pytest.approx(inc.p)
    with pytest.raises(TruncationMismatch, match="wavenumber mismatch"):
        forward.expand_incidence(PlaneWaveIncidence.from_angles(K * (1 + 2e-12), THETA1, THETA2),
                                 ms, 0.0)


@pytest.mark.parametrize("component, k", [(0, K), (1, K), (0, 1e6), (1, 1e6)],
                         ids=["0", "1", "k1e6-0", "k1e6-1"])
def test_incidence_direction_mismatch_threshold(component, k):
    # |k d_j - alpha_j| <= 1e-12 k is accepted; 2e-12 k is another
    # quasimomentum.  At k = 1e6 the rounding of k d alone exceeds 1e-10.
    inc = PlaneWaveIncidence.from_angles(k, THETA1, THETA2)
    for rel, accepted in ((0.5e-12, True), (-0.5e-12, True), (2e-12, False), (-2e-12, False)):
        alpha = [k * inc.d[0], k * inc.d[1]]
        alpha[component] += rel * k
        ms = build_modeset(k, Quasimomentum(*alpha), 3)
        if accepted:
            assert np.array_equal(forward.expand_incidence(inc, ms, 0.0).coeffs[ms.mode0], inc.p)
        else:
            with pytest.raises(TruncationMismatch, match="direction does not match"):
                forward.expand_incidence(inc, ms, 0.0)


def test_dipole_plane_must_lie_above_layer():
    ms = _modeset(3)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[ms.mode0, :2] = (1.0, 0.5j)
    prof = MediumProfile.from_coeffs({0: 1.0}, B)
    with pytest.raises(ValidationError, match="dipole plane"):
        solve_scattering(prof, DipoleDensity(ms, B, coeffs), ms)
    res = solve_scattering(prof, DipoleDensity(ms, B + 1e-9, coeffs), ms)
    assert np.all(np.isfinite(res.scattered.coeffs))


# Reciprocity of the boundary map: the bilinear Green identity for
# curl curl E - k^2 q E = 0 with the PEC plate pairs T(alpha) with T(-alpha),
# so in the dense layout of oracles.dtn_matrix T(alpha)^T = P T(-alpha) P,
# where P maps mode (n1, n2) to (-n1, -n2) in each tangential component.
# It holds for any scalar q, absorbing or not.  An even q (c_j = c_-j) makes
# T itself symmetric, so the layered stacks carry c_j != c_-j.
RECIPROCITY_CASES = {
    "uniform": [(0.8, {0: 1.5 + 0.1j})],
    "two-slab": [(0.35, {0: 1.5 + 0.1j, 1: 0.12, -1: 0.05}),
                 (0.45, {0: 1.4 + 0.1j, 1: 0.08, -1: 0.03, 2: 0.05, -2: 0.02})],
    "three-slab": [(0.25, {0: 1.6 + 0.2j, 1: 0.1 + 0.03j, -1: 0.07 - 0.02j, 2: 0.04j,
                           -2: 0.05}),
                   (0.3, {0: 1.3 + 0.15j, 1: 0.06, -1: 0.09 + 0.01j, 2: -0.03, -2: 0.02j}),
                   (0.2, {0: 1.8 + 0.25j, 1: -0.05j, -1: 0.11, 2: 0.06, -2: 0.03 - 0.01j})],
}


@pytest.mark.parametrize("alpha", [(0.21, 0.13), (0.37, -0.29)])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("stack", sorted(RECIPROCITY_CASES))
def test_dtn_reciprocity_transpose_equals_mirrored_minus_alpha(stack, N, alpha):
    prof = MediumProfile([Slab(h, c) for h, c in RECIPROCITY_CASES[stack]])
    prof.validate()
    ms = build_modeset(K, Quasimomentum(*alpha), N)
    ms_minus = build_modeset(K, Quasimomentum(-alpha[0], -alpha[1]), N)
    T = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    T_minus = oracles.dtn_matrix(assemble_dtn(prof, ms_minus), ms_minus)
    mirror = np.array([ms.index_of(-n1, -n2) for n1, n2 in zip(ms.n1, ms.n2)])
    P = np.concatenate([mirror, mirror + ms.num_modes])
    scale = np.linalg.norm(T)
    assert np.linalg.norm(T.T - T_minus[np.ix_(P, P)]) <= 1e-12 * scale
    if stack != "uniform":
        assert np.linalg.norm(T - T.T) >= 1e-3 * scale


@pytest.mark.parametrize("alpha", [(0.21, 0.13), (0.37, -0.29)])
@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("stack", sorted(RECIPROCITY_CASES))
def test_dtn_matches_the_eigen_free_transfer_oracle(stack, N, alpha):
    # Every n2 block against the slab propagators' product (oracles.dtn_transfer),
    # which shares no eigensolve, lift, recursion or trace match with the
    # solver.  Relations such as reciprocity hold for any valid layer; this
    # checks the values.  Measured: at most 1.8e-14 of max |T|, on one and on
    # two BLAS threads.
    prof = MediumProfile([Slab(h, c) for h, c in RECIPROCITY_CASES[stack]])
    ms = build_modeset(K, Quasimomentum(*alpha), N)
    T = assemble_dtn(prof, ms)
    assert np.max(np.abs(T - oracles.dtn_transfer(prof, ms))) <= 1e-13 * np.max(np.abs(T))


@pytest.mark.parametrize("alpha", [(0.21, 0.13), (0.37, -0.29)])
@pytest.mark.parametrize("N", [4, 6])
@pytest.mark.parametrize("stack", sorted(RECIPROCITY_CASES))
def test_field_matches_the_eigen_free_transfer_oracle(stack, N, alpha):
    # A solve_qpbvp field at the plate, inside every slab, at each face and at
    # the top, against the slab propagators (oracles.field_transfer), which
    # share no arithmetic with the solver's field synthesis.  Measured: at
    # most 2.0e-14 of max |E|, on one and on two BLAS threads.
    prof = MediumProfile([Slab(h, c) for h, c in RECIPROCITY_CASES[stack]])
    ms = build_modeset(K, Quasimomentum(*alpha), N)
    rng = np.random.default_rng(37)
    f = TangentialField.from_components(
        ms, rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes),
        rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes), prof.b)
    bounds = prof.slab_bounds()
    x3 = np.concatenate([bounds, 0.5 * (bounds[:-1] + bounds[1:])])
    E = solve_qpbvp(prof, f, ms).field.mode_coefficients(x3)
    assert np.max(np.abs(E - oracles.field_transfer(prof, ms, f, x3))) <= (
        1e-13 * np.max(np.abs(E)))


@pytest.mark.parametrize("alpha", [(0.21, 0.13), (0.37, -0.29)])
@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("stack", sorted(RECIPROCITY_CASES))
def test_dtn_x1_mirror_maps_q_to_its_reflection_at_minus_alpha1(stack, N, alpha):
    # Reflecting x1 -> -x1 maps q to q~ (q~_j = q_-j), alpha1 to -alpha1, mode
    # n1 to -n1 (P1) and flips the sign of the E1 and curl-1 components (S),
    # so T_q(alpha1, alpha2) = S P1 T_q~(-alpha1, alpha2) P1 S.  The defect
    # read at most 1.6e-14; S = I reads above 1.1.
    prof = MediumProfile([Slab(h, c) for h, c in RECIPROCITY_CASES[stack]])
    mirrored = MediumProfile([Slab(h, {-j: cj for j, cj in c.items()})
                              for h, c in RECIPROCITY_CASES[stack]])
    ms = build_modeset(K, Quasimomentum(*alpha), N)
    ms_mirror = build_modeset(K, Quasimomentum(-alpha[0], alpha[1]), N)
    T = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    T_mirror = oracles.dtn_matrix(assemble_dtn(mirrored, ms_mirror), ms_mirror)
    m = ms.num_modes
    flip = np.array([ms.index_of(-n1, n2) for n1, n2 in zip(ms.n1, ms.n2)])
    P1 = np.concatenate([flip, flip + m])
    S = np.concatenate([np.ones(m), -np.ones(m)])
    assert np.linalg.norm(T - S[:, None] * T_mirror[np.ix_(P1, P1)] * S) <= 1e-12 * np.linalg.norm(T)


def _eigensolve_fails(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(scipy.linalg, "eig", fail)
    solve_layer_modes(MediumProfile.from_coeffs({0: 1.5, 1: 0.15, -1: 0.15}, B), 0, _modeset(2))


@pytest.mark.parametrize("refuse, error, where", [
    (lambda mp: MediumProfile([]), ValidationError, "forward.MediumProfile:"),
    (_eigensolve_fails, EigenFailure, "forward.solve_layer_modes: eigensolve failed at slab 0"),
    (lambda mp: forward.expand_incidence(object(), _modeset(2), 0.0), ValidationError,
     "forward.expand_incidence:"),
], ids=["empty-profile", "eigensolve-failure", "unsupported-incidence"])
def test_refusal_names_its_guard(monkeypatch, refuse, error, where):
    with pytest.raises(error, match="^" + re.escape(where)):
        refuse(monkeypatch)


# A lossless 2-slab stack, bottom to top.
LOSSLESS_TWO_SLAB = [(0.3, {0: 1.5, 1: 0.1, -1: 0.1}), (0.5, {0: 1.8, 2: 0.05, -2: 0.05})]


def test_wood_approach_refused_exactly_at_the_guard(monkeypatch):
    # Walk theta1 = acos(alpha1 / k) onto the Wood anomaly of mode (-1, 0):
    # alpha1 = 1 - k sqrt(1 -+ e^2) gives |beta_(-1,0)| = e k, propagating on
    # the - side and evanescent on the + side.  At k = 1.25 the modes (1, +-1)
    # reach the same circle at alpha = (-1/4, 0), as 0.75^2 + 1 = 1.25^2, and
    # (1, -1) comes first in the mode order.  A point either solves, with a
    # divergence-free scattered field and |sum eff - 1| <= u max(condition, 1)
    # (C = 1; the walk reads at most 0.017), or build_modeset refuses it, and
    # it is refused exactly when the smallest |beta_n| is <= WOOD_TOL k.  Near
    # the circle alpha1 moves in steps of its ulp, which puts |beta| off e k,
    # so |beta| is read from a mode set built with the guard off.
    k, N = 1.25, 4
    prof = MediumProfile([Slab(h, c) for h, c in LOSSLESS_TWO_SLAB])
    u = np.finfo(float).eps / 2
    refused, closest = [], []
    for side in (-1, 1):
        for e in np.logspace(-2, -11, 30):
            theta1 = math.acos((1.0 - k * math.sqrt(1.0 + side * e * e)) / k)
            alpha = Quasimomentum.from_angles(k, theta1, 0.0)
            with monkeypatch.context() as mp:
                mp.setattr(lattice, "WOOD_TOL", -1.0)   # |beta| <= -k never holds
                beta = np.min(np.abs(build_modeset(k, alpha, N).beta))
            if beta <= lattice.WOOD_TOL * k:
                with pytest.raises(WoodAnomaly) as ex:
                    build_modeset(k, alpha, N)
                assert ex.value.mode in {(-1, 0), (1, -1), (1, 1)}
                refused.append(e)
                continue
            closest.append(beta)
            ms = build_modeset(k, alpha, N)
            inc = PlaneWaveIncidence.from_angles(k, theta1, 0.0, pol_seed=(0.3, 0.9, 0.2))
            res = solve_scattering(prof, inc, ms)
            res.scattered.validate_divergence()
            total = sum(efficiencies(res.scattered, inc).values())
            assert abs(total - 1.0) <= u * max(res.condition, 1.0)
    # the walk solves within 2x of the guard and is refused below it
    assert min(closest) <= 2 * lattice.WOOD_TOL * k
    assert len(refused) >= 20 and max(refused) < 2e-8


@pytest.mark.parametrize("N", [4, 8])
@pytest.mark.parametrize("stack", ["absorbing", "lossless"])
@pytest.mark.parametrize("source", ["plane-wave", "dipole-sheet"])
def test_scattering_meets_the_transparent_condition(source, stack, N):
    # At x3 = b the total field's rotated trace f = (-E2, E1) satisfies
    # T f = curl_t E_inc + R(f - f_inc): the layer's boundary map on one
    # side, the incident field plus an upgoing scattered field on the other.
    # Measured, with one BLAS thread and with the default count: at most
    # 9.4e-16 relative for the plane wave and 1.4e-13 for the dipole sheet.
    ms = _modeset(N)
    slabs = RECIPROCITY_CASES["two-slab"] if stack == "absorbing" else LOSSLESS_TWO_SLAB
    prof = MediumProfile([Slab(h, c) for h, c in slabs])
    if source == "plane-wave":
        inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2, pol_seed=(0.3, 0.9, 0.2))
    else:
        rng = np.random.default_rng(7)
        coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
        coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
        inc = DipoleDensity(ms, 1.6, coeffs)
    res = solve_scattering(prof, inc, ms)
    E = res.field.mode_coefficients(prof.b)
    C = res.incident.rebase(prof.b).coeffs
    a1, a2, beta = ms.alpha_n[:, 0], ms.alpha_n[:, 1], ms.beta
    curl_inc = 1j * np.concatenate([a2 * C[:, 2] + beta * C[:, 1], -beta * C[:, 0] - a1 * C[:, 2]])
    scattered = TangentialField.from_components(ms, C[:, 1] - E[:, 1], E[:, 0] - C[:, 0], prof.b)
    R = apply_R(scattered).coeffs
    T = oracles.dtn_matrix(assemble_dtn(prof, ms), ms)
    lhs = T @ np.concatenate([-E[:, 1], E[:, 0]])
    rhs = curl_inc + np.concatenate([R[:, 0], R[:, 1]])
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


# RECIPROCITY_CASES["two-slab"] stretched to b = 105: exp(|beta| b) overflows for
# the evanescent modes at N = 12, so no incidence may be expanded at 0 and moved to b
TALL_TWO_SLAB = [(50.0, RECIPROCITY_CASES["two-slab"][0][1]),
                 (55.0, RECIPROCITY_CASES["two-slab"][1][1])]


@pytest.mark.parametrize("source", ["plane-wave", "dipole-sheet"])
def test_scattering_on_a_tall_layer(source):
    # The incidence is expanded at b.  The dipole sheet lies 0.1 above b and
    # carries only propagating modes, so the scattered power over the incident
    # power is the sum of its efficiencies; the layer absorbs, so it is below 1.
    ms = _modeset(12)
    prof = MediumProfile([Slab(h, c) for h, c in TALL_TWO_SLAB])
    if source == "plane-wave":
        inc = PlaneWaveIncidence.from_angles(K, THETA1, THETA2)
    else:
        coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
        prop = ms.propagating
        coeffs[prop, :2] = np.random.default_rng(11).normal(size=(np.sum(prop), 2))
        inc = DipoleDensity(ms, prof.b + 0.1, coeffs)
    res = solve_scattering(prof, inc, ms)
    assert res.incident.height == res.scattered.height == prof.b
    res.scattered.validate_divergence()
    res.incident.validate_divergence()
    if source == "plane-wave":
        total = sum(efficiencies(res.scattered, inc).values())
    else:
        power = [np.sum(ms.beta.real[prop] * np.sum(np.abs(f.coeffs[prop]) ** 2, axis=1))
                 for f in (res.scattered, res.incident)]
        total = power[0] / power[1]
    assert 0.0 < total < 1.0


def test_dipole_expansion_reads_only_the_height_above_its_plane():
    # A sheet 0.1 above b = 105 gives, at b, the expansion of a sheet 0.1 above
    # b = 0.8: the evanescent modes too, which e^{i beta a} at 0 lost to underflow
    ms = _modeset(12)
    rng = np.random.default_rng(12)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
    tall = forward.expand_incidence(DipoleDensity(ms, 105.1, coeffs), ms, 105.0)
    low = forward.expand_incidence(DipoleDensity(ms, 0.9, coeffs), ms, 0.8)
    assert np.min(np.abs(tall.coeffs[:, :2])) > 1e-30
    np.testing.assert_allclose(tall.coeffs, low.coeffs, rtol=1e-11, atol=0)
