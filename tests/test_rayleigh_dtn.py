import re
import warnings

import numpy as np
import pytest

from gratescat import (PlaneWaveIncidence, Quasimomentum, RayleighField, TangentialField,
                       apply_R, build_modeset, efficiencies, energy_forms, inner, rayleigh_dtn)
from gratescat.errors import DivergenceViolation, TruncationMismatch, ValidationError
from gratescat.rayleigh_dtn import write_rayleigh_csv

K = 1.2
ALPHA = Quasimomentum(0.23, 0.11)


def _modeset(N=4):
    return build_modeset(K, ALPHA, N)


def _random_tangential(ms, seed=0):
    rng = np.random.default_rng(seed)
    c1 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    c2 = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    return TangentialField.from_components(ms, c1, c2)


def test_single_mode_formula():
    # n = 0 with alpha = 0, k = 1: beta = 1 and R(1,0,0) = (i,0,0)
    ms = build_modeset(1.0, Quasimomentum(0.0, 0.0), 0)
    f = TangentialField.from_components(ms, [1.0], [0.0])
    out = apply_R(f)
    np.testing.assert_allclose(out.coeffs[0], [1j, 0.0, 0.0], atol=1e-15)


def test_parallel_to_alpha_simplification():
    # coefficients parallel to alpha_n: the bracket collapses to beta_n^2 E_n,
    # so R gives i beta_n E_n
    ms = _modeset(3)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = ms.alpha_n[:, :2] * (0.3 - 0.7j)
    f = TangentialField(ms, coeffs)
    out = apply_R(f)
    expected = 1j * ms.beta[:, None] * coeffs
    np.testing.assert_allclose(out.coeffs, expected, atol=1e-13)


def test_zero_and_linearity():
    ms = _modeset()
    zero = TangentialField.from_components(ms, np.zeros(ms.num_modes), np.zeros(ms.num_modes))
    assert np.all(apply_R(zero).coeffs == 0)
    x = _random_tangential(ms, 1)
    y = _random_tangential(ms, 2)
    a, b = 1.3 - 0.2j, -0.4 + 0.9j
    lhs = apply_R(a * x + b * y).coeffs
    rhs = a * apply_R(x).coeffs + b * apply_R(y).coeffs
    np.testing.assert_allclose(lhs, rhs, atol=1e-12 * np.max(np.abs(rhs)))


def test_truncation_mismatch():
    ms = _modeset(3)
    other = _modeset(4)
    f = _random_tangential(ms)
    with pytest.raises(TruncationMismatch, match="^rayleigh_dtn.inner: operands built over"):
        inner(f, _random_tangential(other))


def test_energy_forms_single_mode():
    ms = build_modeset(1.0, Quasimomentum(0.0, 0.0), 0)
    f = TangentialField.from_components(ms, [1.0], [0.0])
    forms = energy_forms(f)
    np.testing.assert_allclose(forms["im_form"], 4 * np.pi ** 2, rtol=1e-14)
    assert forms["re_form"] == 0.0


def test_energy_forms_evanescent_only():
    ms = _modeset(3)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[~ms.propagating, 0] = 1.0 + 0.5j
    forms = energy_forms(TangentialField(ms, coeffs))
    assert forms["im_form"] == 0.0
    assert forms["re_form"] != 0.0


def test_imaginary_form_nonnegative_random():
    ms = _modeset(4)
    scale = 4 * np.pi ** 2 * ms.k ** 2
    for seed in range(1000):
        f = _random_tangential(ms, seed)
        forms = energy_forms(f)
        bound = scale * np.sum(np.abs(f.coeffs) ** 2)
        assert forms["im_form"] >= -1e-12 * bound


def test_mode_sum_matches_quadrature():
    # <R f, f> by cell quadrature equals re_form + i im_form from the sums
    ms = _modeset(4)
    f = _random_tangential(ms, 42)
    rf = apply_R(f)
    forms = energy_forms(f)
    g = 4 * ms.N + 3
    x = 2 * np.pi * np.arange(g) / g
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    pts = np.column_stack([X1.ravel(), X2.ravel()])
    quad = np.sum(np.sum(rf.values(pts) * np.conj(f.values(pts)), axis=1)) * (2 * np.pi / g) ** 2
    modal = inner(rf, f)
    assert abs(quad - modal) / abs(modal) <= 1e-10
    assert abs(modal - (forms["re_form"] + 1j * forms["im_form"])) / abs(modal) <= 1e-10


def test_tangential_field_rejects_vertical_component():
    ms = _modeset(2)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[0, 2] = 1.0
    with pytest.raises(ValidationError):
        TangentialField(ms, coeffs)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                                 complex(1.0, np.inf)])
@pytest.mark.parametrize("make", [
    lambda ms, c: TangentialField(ms, c),
    lambda ms, c: TangentialField.from_components(ms, c[:, 0], c[:, 1]),
    lambda ms, c: RayleighField(ms, c, direction="up"),
], ids=["tangential", "from-components", "rayleigh"])
def test_non_finite_coefficient_refused_naming_its_mode(make, bad):
    # the first non-finite mode is named; a later one does not mask it
    ms = _modeset(3)
    coeffs = np.ones((ms.num_modes, 3), dtype=complex)
    coeffs[:, 2] = 0.0
    make(ms, coeffs.copy())
    coeffs[ms.index_of(2, -1), 1] = bad
    coeffs[ms.index_of(-1, 3), 0] = np.nan
    with pytest.raises(ValidationError, match=r"^rayleigh_dtn: non-finite coefficient at mode \(2,-1\)"):
        make(ms, coeffs)


def _upgoing_field(ms, seed=0):
    rng = np.random.default_rng(seed)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[:, :2] = rng.normal(size=(ms.num_modes, 2)) + 1j * rng.normal(size=(ms.num_modes, 2))
    coeffs[:, 2] = -(ms.alpha_n[:, 0] * coeffs[:, 0] + ms.alpha_n[:, 1] * coeffs[:, 1]) / ms.beta
    return RayleighField(ms, coeffs, height=0.0, direction="up")


def test_efficiencies_zero_field():
    ms = _modeset(3)
    inc = PlaneWaveIncidence.from_angles(K, 1.05, 0.4)
    zero = RayleighField(ms, np.zeros((ms.num_modes, 3)), direction="up")
    eff = efficiencies(zero, inc)
    assert all(v == 0.0 for v in eff.values())
    assert len(eff) == int(np.sum(ms.propagating))


def test_efficiencies_divergence_guard():
    ms = _modeset(3)
    inc = PlaneWaveIncidence.from_angles(K, 1.05, 0.4)
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[ms.mode0] = (1.0, 0.0, 5.0)  # breaks the constraint
    bad = RayleighField(ms, coeffs, direction="up")
    with pytest.raises(DivergenceViolation):
        efficiencies(bad, inc)


@pytest.mark.parametrize("factor", [1 - 1e-12, 1 + 1e-12])
def test_divergence_tolerance_threshold(factor):
    # One nonzero mode whose E_t is orthogonal to alpha_n, so alpha_n . E_t is
    # exactly 0, and E3 = delta: its scaled residual is
    # |beta delta| / (|E| + 1e-3 max|c| + 1e-300), set to factor * the limit.
    ms = _modeset(3)
    j = ms.index_of(1, -1)
    a1, a2 = ms.alpha_n[j, :2]
    coeffs = np.zeros((ms.num_modes, 3), dtype=complex)
    coeffs[j, :2] = (a2, -a1)
    scale = np.hypot(a1, a2) + 1e-3 * max(abs(a1), abs(a2))
    coeffs[j, 2] = factor * rayleigh_dtn._DIVERGENCE_TOL * scale / abs(ms.beta[j])
    fld = RayleighField(ms, coeffs, direction="up")
    if factor < 1:
        fld.validate_divergence()
    else:
        with pytest.raises(DivergenceViolation,
                           match=r"constraint violated at mode \(1,-1\): 1\.000e-10 > 1e-10$"):
            fld.validate_divergence()


def test_divergence_guard_refuses_a_nan_coefficient():
    ms = _modeset(3)
    fld = _upgoing_field(ms, 4)
    fld.validate_divergence()
    fld.coeffs[ms.index_of(1, -1), 2] = np.nan
    with pytest.raises(DivergenceViolation, match=r"constraint violated at mode \(1,-1\): nan > 1e-10$"):
        fld.validate_divergence()


@pytest.mark.parametrize("s", [1e154, 1e-154])
def test_efficiencies_scale_free_in_the_polarization(s):
    # |s p|^2 and |s E_n|^2 overflow (or lose digits to underflow) unless
    # p and E_n are rescaled before squaring
    ms = _modeset(3)
    inc = PlaneWaveIncidence.from_angles(K, 1.05, 0.4, pol_seed=(0.3, 1.0, 0.2))
    fld = _upgoing_field(ms, 6)
    ref = efficiencies(fld, inc)
    scaled = PlaneWaveIncidence(s * inc.p, inc.d, inc.k)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        eff = efficiencies(RayleighField(ms, s * fld.coeffs, direction="up"), scaled)
    assert eff.keys() == ref.keys()
    assert max(ref.values()) > 0
    for key, e in ref.items():
        assert abs(eff[key] - e) <= 1e-12 * e


def test_rayleigh_values_and_rebase():
    ms = _modeset(3)
    fld = _upgoing_field(ms, 3)
    pt = np.array([0.3, 1.2, 0.9])
    v1 = fld.values(pt[None, :])[0]
    v2 = fld.rebase(0.5).values(pt[None, :])[0]
    np.testing.assert_allclose(v1, v2, rtol=1e-10)


def test_csv_roundtrip_and_determinism(tmp_path):
    ms = _modeset(2)
    fld = _upgoing_field(ms, 9)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_rayleigh_csv(fld, p1)
    write_rayleigh_csv(fld, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("n1,n2,re_E1")
    assert len(lines) == 1 + ms.num_modes
    row = lines[1 + ms.mode0].split(",")
    np.testing.assert_allclose(float(row[2]), fld.coeffs[ms.mode0, 0].real, rtol=1e-16)


def _plane_wave(p=None):
    inc = PlaneWaveIncidence.from_angles(K, 1.05, 0.4)
    return inc if p is None else PlaneWaveIncidence(p, inc.d, K)


def _field(direction):
    ms = _modeset(2)
    return RayleighField(ms, np.zeros((ms.num_modes, 3)), direction=direction)


@pytest.mark.parametrize("refuse, where", [
    (lambda: TangentialField(_modeset(2), np.zeros((3, 3))), "rayleigh_dtn:"),
    (lambda: _field("sideways"), "rayleigh_dtn.RayleighField:"),
    (lambda: efficiencies(_field("down"), _plane_wave()), "rayleigh_dtn.efficiencies:"),
    (lambda: efficiencies(_field("up"), _plane_wave(np.zeros(3))), "rayleigh_dtn.efficiencies:"),
], ids=["coefficient-shape", "direction", "downgoing-scattered", "zero-polarization"])
def test_refusal_names_its_guard(refuse, where):
    with pytest.raises(ValidationError, match="^" + re.escape(where)):
        refuse()
