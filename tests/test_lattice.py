import copy
import math
import pickle
import re
import sys

import numpy as np
import pytest

from gratescat import Quasimomentum, TrigPoly, build_modeset, lattice
from gratescat.errors import ValidationError, WoodAnomaly


def test_mode_law_trivial_cases(monkeypatch):
    ms = build_modeset(1.0, Quasimomentum(0.0, 0.0), 0)
    assert ms.beta[ms.mode0] == 1.0 + 0.0j
    assert ms.propagating[ms.mode0]

    monkeypatch.setattr(lattice, "WOOD_TOL", 1e-10)
    ms = build_modeset(1.0, Quasimomentum(0.3, 0.0), 1)
    j = ms.index_of(1, 0)
    # |alpha_n|^2 = 1.3^2 = 1.69, evanescent branch
    np.testing.assert_allclose(ms.beta[j], 1j * np.sqrt(0.69), rtol=1e-15)
    assert not ms.propagating[j]


def test_wood_anomaly_guard(monkeypatch):
    # k = 1, alpha = 0: mode (1,0) sits exactly on the circle |alpha_n| = k
    with pytest.raises(WoodAnomaly) as ex:
        build_modeset(1.0, Quasimomentum(0.0, 0.0), 1)
    assert ex.value.mode is not None

    # guard triggers exactly at |beta| <= WOOD_TOL * k; every mode except the
    # engineered (1,0) sits far from the resonance circle
    monkeypatch.setattr(lattice, "WOOD_TOL", 1e-3)
    k = 1.0
    tol = lattice.WOOD_TOL * k
    alpha2 = 0.6
    for t, should_raise in ((0.5 * tol, True), (2.0 * tol, False)):
        alpha1 = np.sqrt(k * k - t * t - alpha2 ** 2) - 1.0  # (1,0) gets beta = t
        try:
            build_modeset(k, Quasimomentum(alpha1, alpha2), 1)
            raised = False
        except WoodAnomaly:
            raised = True
        assert raised == should_raise


@pytest.mark.parametrize("wood_tol", [None, 1e-8])
@pytest.mark.parametrize("k", [np.nan, np.inf, 1e200])
def test_non_finite_k_or_k_squared_rejected(monkeypatch, k, wood_tol):
    # nan used to reach beta (or blame the tolerance), inf and 1e200 gave an
    # inf beta; k is refused before WOOD_TOL * k is formed, whatever WOOD_TOL
    if wood_tol is not None:
        monkeypatch.setattr(lattice, "WOOD_TOL", wood_tol)
    with pytest.raises(ValidationError, match=f"lattice.build_modeset: k must be finite.*{re.escape(repr(k))}"):
        build_modeset(k, Quasimomentum(0.1, 0.2), 2)


def test_modeset_digest_hashes_the_effective_wood_limit():
    # (k, alpha1, alpha2, N, WOOD_TOL * k): the value the dtn summary's
    # modeset_digest has read since the limit defaulted to 1e-8 k
    assert build_modeset(1.25, Quasimomentum(0.3, 0.1), 2).digest() == "bf3f25bc89a37699"


def test_k_squared_threshold():
    # the largest k whose square is finite builds; the next float up is refused
    k = math.sqrt(sys.float_info.max)
    ms = build_modeset(k, Quasimomentum(0.1, 0.2), 1)
    assert np.all(np.isfinite(ms.beta))
    with pytest.raises(ValidationError, match="finite square"):
        build_modeset(float(np.nextafter(k, math.inf)), Quasimomentum(0.1, 0.2), 1)


@pytest.mark.parametrize("below, above, N", [
    # alpha1^2 at the largest finite square, then one float up
    ((1.3407807929942596e154, 0.0), (1.3407807929942597e154, 0.0), 0),
    # each square finite, their sum at the largest finite value, then one float up
    ((9.480751908109176e153, -9.480751908109176e153),
     (9.480751908109177e153, -9.480751908109177e153), 1),
], ids=["alpha1-square", "sum-of-squares"])
def test_quasimomentum_with_overflowing_squared_wavenumbers_refused(below, above, N):
    # the largest |alpha_n|^2 is at (|alpha1| + N, |alpha2| + N); once it
    # overflows, k^2 - |alpha_n|^2 used to warn "overflow" and leave an inf in
    # beta, and now it is refused before anything is formed
    def largest(alpha):
        return sum((abs(a) + N) * (abs(a) + N) for a in alpha)
    assert math.isfinite(largest(below)) and not math.isfinite(largest(above))
    assert above[0] == np.nextafter(below[0], math.inf)
    ms = build_modeset(1.0, Quasimomentum(*below), N)
    assert np.all(np.isfinite(ms.beta)) and not np.any(ms.propagating)
    for alpha in (above, (1e160, 0.0)):
        with pytest.raises(ValidationError,
                           match=r"^lattice\.build_modeset: \|alpha \+ n\|\^2 overflows"):
            build_modeset(1.0, Quasimomentum(*alpha), N)


def test_mode_law_randomized(monkeypatch):
    monkeypatch.setattr(lattice, "WOOD_TOL", 1e-13)
    rng = np.random.default_rng(7)
    trials = 10_000
    k = rng.uniform(0.3, 3.0, trials)
    worst = 0.0
    for i in range(100):
        ki = k[i * 100]
        alpha = Quasimomentum(rng.uniform(-ki, ki) * 0.7, rng.uniform(-ki, ki) * 0.7)
        ms = build_modeset(ki, alpha, 9)
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


@pytest.mark.parametrize("theta1, theta2", [(1.05, math.inf), (1.05, -math.inf), (1.05, math.nan),
                                            (math.inf, 0.4), (math.nan, 0.4)])
def test_from_angles_refuses_a_non_finite_angle_by_value(theta1, theta2):
    # refused by value before math.cos can raise its bare "math domain error"
    with pytest.raises(ValidationError, match=re.escape(
            "lattice.Quasimomentum.from_angles: the angles theta1, theta2 must be finite, "
            f"got {theta1!r}, {theta2!r}")):
        Quasimomentum.from_angles(1.2, theta1, theta2)


@pytest.mark.parametrize("N", [2.5, 2.0, "2", None, -1])
def test_build_modeset_refuses_a_truncation_that_is_not_an_integer_ge_0(N):
    # a float N would build 2N+1 = 6.0 modes per block and fail later in numpy
    with pytest.raises(ValidationError, match=re.escape(
            f"lattice.build_modeset: N must be an integer >= 0, got {N!r}")):
        build_modeset(1.25, Quasimomentum(0.3, 0.1), N)


@pytest.mark.parametrize("N", [2, np.int64(2), 0])
def test_build_modeset_takes_any_integral_truncation(N):
    ms = build_modeset(1.25, Quasimomentum(0.3, 0.1), N)
    assert ms.block_size == 2 * N + 1 and ms.num_modes == (2 * N + 1) ** 2


def _cell_grid(g):
    x = 2.0 * np.pi * np.arange(g) / g
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    return x1, x2, np.column_stack([x1.ravel(), x2.ravel()])


def test_round_trip_random_trig_polynomial():
    # phases(x) = exp(i alpha_n . x): with the Bloch factor exp(i alpha . x)
    # divided out, grid samples are a trigonometric polynomial that the FFT
    # recovers mode by mode
    rng = np.random.default_rng(3)
    alpha = Quasimomentum(0.31, -0.17)
    ms = build_modeset(1.3, alpha, 2)
    coeffs = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    for g in (5, 8, 16):
        x1, x2, pts = _cell_grid(g)
        samples = (ms.phases(pts) @ coeffs).reshape(g, g)
        periodic = samples * np.exp(-1j * (alpha.alpha1 * x1 + alpha.alpha2 * x2))
        back = (np.fft.fft2(periodic) / g ** 2)[ms.n1 % g, ms.n2 % g]
        rel = np.max(np.abs(back - coeffs)) / np.max(np.abs(coeffs))
        assert rel <= 1e-12


def test_parseval_on_grid():
    rng = np.random.default_rng(11)
    ms = build_modeset(1.3, Quasimomentum(0.31, -0.17), 3)
    coeffs = rng.normal(size=ms.num_modes) + 1j * rng.normal(size=ms.num_modes)
    g = 11
    _, _, pts = _cell_grid(g)
    vals = ms.phases(pts) @ coeffs
    lhs = np.sum(np.abs(vals) ** 2) / g ** 2
    rhs = np.sum(np.abs(coeffs) ** 2)
    assert abs(lhs - rhs) / rhs <= 1e-12


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


def test_trigpoly_refuses_a_non_integer_index():
    # int() would truncate 1.2 and 1.7 to 1, and 0.5 would overwrite 0.3
    with pytest.raises(ValidationError, match=r"Fourier index 1\.2 is not an integer"):
        TrigPoly({1.2: 0.3, 1.7: 0.5, 0: 1.5})
    for key in (1.0, np.float64(2.0), "1", 1 + 0j):
        with pytest.raises(ValidationError, match=rf"Fourier index {re.escape(repr(key))} is not"):
            TrigPoly({0: 1.5, key: 0.3})


def test_trigpoly_overlap_matches_trapezoid_quadrature():
    # (1/2pi) int q a_p conj(b_p) dx1 per row p of a batch, trailing axes
    # summed; the quadrature grid resolves every product of degree <= 9 + 3 + 5
    # exactly
    rng = np.random.default_rng(17)
    P, Ma, Mb = 3, 3, 5
    a = rng.normal(size=(P, 2 * Ma + 1, 3, 2)) + 1j * rng.normal(size=(P, 2 * Ma + 1, 3, 2))
    b = rng.normal(size=(P, 2 * Mb + 1, 3, 2)) + 1j * rng.normal(size=(P, 2 * Mb + 1, 3, 2))
    q = TrigPoly({0: 1.3 + 0.2j, 2: 0.4 - 0.1j, -2: 0.3j, 4: -0.25, -7: 0.15 + 0.05j})
    far = TrigPoly({9: 0.7 - 0.3j, -9: 0.2})  # |j| > Ma + Mb: no index-matched term
    x = 2.0 * np.pi * np.arange(64) / 64

    def values(c):
        M = (c.shape[1] - 1) // 2
        return np.einsum("xi,pi...->px...", np.exp(1j * np.outer(x, np.arange(-M, M + 1))), c)

    va, vb = values(a), values(b)
    for poly in (q, far, q - far):
        ref = np.mean(poly(x)[None, :, None, None] * va * np.conj(vb), axis=1).sum(axis=(1, 2))
        for got in (poly.overlap(a, b), np.conj(poly.conj().overlap(b, a))):
            assert got.shape == (P,)
            for p in range(P):
                assert abs(got[p] - ref[p]) <= (1e-13 * np.abs(q(x)).max() * np.abs(va[p]).max()
                                                * np.abs(vb[p]).max())
    assert np.all(far.overlap(a, b) == 0)
    assert np.array_equal((q - far).overlap(a, b), q.overlap(a, b))
    # a batch of one is the row it holds
    np.testing.assert_allclose(q.overlap(a[1:2], b[1:2]), q.overlap(a, b)[1:2], rtol=1e-15)


def _ior(q):
    q |= {2: 1.0}


@pytest.mark.parametrize("edit", [
    lambda q: q.__setitem__(1, 0.5), lambda q: q.__delitem__(0), lambda q: q.update({2: 1.0}),
    lambda q: q.setdefault(3, 1.0), lambda q: q.pop(0), lambda q: q.popitem(),
    lambda q: q.clear(), _ior,
], ids=["setitem", "delitem", "update", "setdefault", "pop", "popitem", "clear", "ior"])
def test_trigpoly_refuses_in_place_change(edit):
    q = TrigPoly(TRIG)
    with pytest.raises(TypeError, match="lattice.TrigPoly is immutable"):
        edit(q)
    assert list(q.items()) == list(TRIG.items())


@pytest.mark.parametrize("copy_of", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy,
                                     copy.copy], ids=["pickle", "deepcopy", "copy"])
def test_trigpoly_copies_keep_the_coefficient_order(copy_of):
    q = copy_of(TRIG)
    assert type(q) is TrigPoly and q is not TRIG
    assert list(q.items()) == list(TRIG.items())
    with pytest.raises(TypeError, match="immutable"):
        q[0] = 1.0


@pytest.mark.parametrize("refuse, where", [
    (lambda: Quasimomentum(math.nan, 0.1), "lattice.Quasimomentum:"),
    (lambda: Quasimomentum(0.2, math.inf), "lattice.Quasimomentum:"),
    (lambda: Quasimomentum.from_angles(0.0, 1.0, 0.3), "lattice.Quasimomentum.from_angles:"),
    (lambda: build_modeset(1.2, Quasimomentum(0.23, 0.11), 2).index_of(3, 0), "lattice.ModeSet:"),
    (lambda: build_modeset(1.2, Quasimomentum(0.23, 0.11), 2).index_of(0, -3), "lattice.ModeSet:"),
    (lambda: build_modeset(-1.2, Quasimomentum(0.23, 0.11), 2), "lattice.build_modeset:"),
], ids=["alpha1-nan", "alpha2-inf", "from-angles-k-zero", "index-n1-outside",
        "index-n2-outside", "negative-k"])
def test_refusal_names_its_guard(refuse, where):
    with pytest.raises(ValidationError, match="^" + re.escape(where)):
        refuse()
