"""Tests for coefficient extraction, kernel operators, and averaging."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from schur_harmonics import gelfand as gf
from schur_harmonics import schatten as sc
from schur_harmonics.special_fn import legendre_all, spherical_u2


def ones(x):
    return np.ones(np.shape(x), dtype=complex)


# ---------------------------------------------------------------------------
# disc coefficients


def test_u2_constant_function():
    spec = gf.coefficients_u2(ones, 4)
    assert_allclose(spec.coeffs[(0, 0)], 1.0, atol=1e-10)
    rest = max(abs(c) for idx, c in spec.items() if idx != (0, 0))
    assert rest <= 1e-10


def test_u2_single_spherical_function():
    spec = gf.coefficients_u2(lambda z: spherical_u2(2, 1, z), 5)
    assert_allclose(spec.coeffs[(2, 1)], 0.25, atol=1e-10)
    rest = max(abs(c) for idx, c in spec.items() if idx != (2, 1))
    assert rest <= 1e-10
    # cross-check the normalization with an independent high-order rule
    z, w = gf.disc_quadrature(96, 193)
    h = spherical_u2(2, 1, z)
    assert_allclose(np.sum(w * h * np.conj(h)), 0.25, atol=1e-12)


def test_u2_coordinate_function():
    spec = gf.coefficients_u2(lambda z: np.asarray(z, dtype=complex), 3)
    assert_allclose(spec.coeffs[(1, 0)], 0.5, atol=1e-10)
    rest = max(abs(c) for idx, c in spec.items() if idx != (1, 0))
    assert rest <= 1e-10


def _u2_box(L: int) -> list:
    """Every (l, m) with max(l, m) <= L, in sorted order."""
    return [(l, m) for l in range(L + 1) for m in range(L + 1)]


def test_u2_orthogonality_validates_disc_density():
    L = 8
    z, w = gf.disc_quadrature(4 * L, 8 * L + 1)
    idxs = _u2_box(L)
    h = np.array([spherical_u2(l, m, z) for l, m in idxs])
    gram = (h * w) @ h.conj().T
    target = np.diag([1.0 / (l + m + 1) for l, m in idxs])
    assert np.abs(gram - target).max() <= 1e-8


@pytest.mark.parametrize("L", range(5))
def test_u2_index_set_is_max_degree_box(L):
    assert set(gf.coefficients_u2(ones, L).coeffs) == set(_u2_box(L))


def _coefficients_u2_oracle(phi0, L: int, n_radial: int, n_angular: int) -> dict:
    """<phi0, h_{l,m}> reduced index by index over the disc_quadrature nodes."""
    z, w = gf.disc_quadrature(n_radial, n_angular)
    wf = w * np.asarray(phi0(z), dtype=complex)
    return {(l, m): complex(np.sum(wf * np.conj(spherical_u2(l, m, z)))) for l, m in _u2_box(L)}


def _smooth_disc_function(z):
    # not a polynomial in (z, conj z): every coefficient is nonzero
    z = np.asarray(z, dtype=complex)
    return np.exp(0.7 * z - 0.4j * np.conj(z) ** 2) / (1.5 - 0.3j * z * np.conj(z))


@pytest.mark.parametrize(
    "L, orders",
    [(L, (None, None)) for L in (0, 1, 2, 5, 24)]
    + [(L, (L + 1, 2 * L + 1)) for L in (0, 1, 2, 5, 24)]
    + [(6, (9, 16))],
)
def test_u2_fft_coefficients_match_per_index_oracle(L, orders):
    n_radial = orders[0] or max(4 * L, 8)
    n_angular = orders[1] or max(8 * L + 1, 9)
    spec = gf.coefficients_u2(_smooth_disc_function, L, *orders)
    want = _coefficients_u2_oracle(_smooth_disc_function, L, n_radial, n_angular)
    assert list(spec.coeffs) == list(want)
    scale = max(abs(c) for c in want.values())
    worst = max(abs(spec.coeffs[idx] - c) for idx, c in want.items())
    assert worst <= 1e-14 * scale


def test_u2_under_resolution_error():
    with pytest.raises(gf.UnderResolvedError):
        gf.coefficients_u2(ones, 8, n_radial=4, n_angular=65)
    with pytest.raises(gf.UnderResolvedError):
        gf.coefficients_u2(ones, 8, n_radial=40, n_angular=9)


# ---------------------------------------------------------------------------
# Gauss-Legendre node cache


def test_gauss_legendre_nodes_are_leggauss_bit_for_bit():
    for n in range(1, 101):
        t, wt = gf._gauss_legendre(n)
        want_t, want_wt = np.polynomial.legendre.leggauss(n)
        assert t.tobytes() == want_t.tobytes() and wt.tobytes() == want_wt.tobytes()
        assert t.dtype == want_t.dtype and wt.dtype == want_wt.dtype


def test_gauss_legendre_nodes_shared_read_only():
    t, wt = gf._gauss_legendre(7)
    again = gf._gauss_legendre(7)
    assert again[0] is t and again[1] is wt
    for arr in (t, wt):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    assert np.array_equal(t, np.polynomial.legendre.leggauss(7)[0])


def test_gauss_legendre_computed_once_per_order(monkeypatch):
    leggauss, calls = np.polynomial.legendre.leggauss, []

    def counting(n):
        calls.append(n)
        return leggauss(n)

    gf._gauss_legendre.cache_clear()
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    try:
        for _ in range(2):
            gf.coefficients_u2(ones, 3)  # radial order 12
            gf.coefficients_su2(ones, 5)  # order 12 again
            gf.kernel_schatten_norm(ones, 2.0, 6, "u2", check=True)  # 6 and 12
            gf.kernel_schatten_norm(ones, 2.0, 5, "su2", check=True)  # 5 and 10
    finally:
        gf._gauss_legendre.cache_clear()
    assert calls == [12, 6, 5, 10]


# ---------------------------------------------------------------------------
# interval coefficients


def test_su2_constant_function():
    spec = gf.coefficients_su2(ones, 5)
    assert_allclose(spec.coeffs[0], 1.0, atol=1e-12)
    assert max(abs(c) for n, c in spec.items() if n != 0) <= 1e-12


def test_su2_single_legendre():
    spec = gf.coefficients_su2(lambda r: legendre_all(3, r)[3].astype(complex), 6)
    assert_allclose(spec.coeffs[3], 1.0 / 7.0, atol=1e-12)
    assert max(abs(c) for n, c in spec.items() if n != 3) <= 1e-12


def test_su2_square_function():
    spec = gf.coefficients_su2(lambda r: np.asarray(r, dtype=complex) ** 2, 4)
    assert_allclose(spec.coeffs[0], 1.0 / 3.0, atol=1e-12)
    assert_allclose(spec.coeffs[2], 2.0 / 15.0, atol=1e-12)
    assert abs(spec.coeffs[1]) <= 1e-12 and abs(spec.coeffs[3]) <= 1e-12


def test_su2_orthogonality():
    t, wt = np.polynomial.legendre.leggauss(64)
    vals = legendre_all(30, t)
    gram = 0.5 * (vals * wt) @ vals.T
    target = np.diag([1.0 / (2 * n + 1) for n in range(31)])
    assert np.abs(gram - target).max() <= 1e-10


# ---------------------------------------------------------------------------
# weighted coefficient bound and synthesis


def test_lp_lower_bound_examples():
    spec = gf.coefficients_u2(ones, 3)
    assert_allclose(gf.lp_lower_bound(spec, 3.0), 1.0, atol=1e-9)
    single = gf.CoefficientSpectrum("u2", {(2, 1): 0.25}, 3)
    assert_allclose(gf.lp_lower_bound(single, 4.0), 4.0 ** -0.75, rtol=1e-14)
    other = gf.CoefficientSpectrum("u2", {(3, 1): 0.5 + 0.5j}, 4)
    assert_allclose(
        gf.lp_lower_bound(other, 2.5), abs(0.5 + 0.5j) * 5 ** (1 / 2.5), rtol=1e-14
    )


def test_lp_lower_bound_rejects_inf():
    spec = gf.CoefficientSpectrum("su2", {0: 1.0}, 0)
    with pytest.raises(ValueError):
        gf.lp_lower_bound(spec, np.inf)


@pytest.mark.parametrize(
    "coeffs, p",
    [({0: 10.0, 1: 1.0}, 310.0), ({0: 1e-3}, 120.0), ({0: 1e-200, 2: 3e-201j}, 2.0), ({0: 0.0}, 3.0)],
    ids=["overflow", "underflow", "tiny-p2", "zero"],
)
def test_lp_lower_bound_scaled_against_mpmath(coeffs, p):
    spec = gf.CoefficientSpectrum("su2", coeffs, 2)
    with mpmath.workdps(50):
        total = sum(mpmath.mpf(abs(c)) ** p * (2 * n + 1) for n, c in coeffs.items())
        want = float(total ** (1 / mpmath.mpf(p)))
    assert abs(gf.lp_lower_bound(spec, p) - want) <= 4 * np.finfo(float).eps * want


def test_lp_lower_bound_monotone_in_modulus():
    small = gf.CoefficientSpectrum("su2", {1: 0.2, 3: 0.1}, 3)
    big = gf.CoefficientSpectrum("su2", {1: 0.3, 3: 0.4}, 3)
    assert gf.lp_lower_bound(small, 3.0) <= gf.lp_lower_bound(big, 3.0)


def test_synthesize_empty_and_constant():
    empty = gf.CoefficientSpectrum("su2", {}, 0)
    assert gf.synthesize(empty)(0.3) == 0.0
    const = gf.CoefficientSpectrum("su2", {0: 1.0}, 0)
    assert_allclose(gf.synthesize(const)(np.linspace(-1, 1, 5)), np.ones(5))


def test_roundtrip_u2():
    rng = np.random.default_rng(0)
    coeffs = {
        (l, m): complex(rng.standard_normal(), rng.standard_normal())
        for l in range(7)
        for m in range(7 - l)
    }
    spec = gf.CoefficientSpectrum("u2", coeffs, 6)
    back = gf.coefficients_u2(gf.synthesize(spec), 6)
    err = max(abs(back.coeffs[idx] - coeffs[idx]) for idx in coeffs)
    assert err <= 1e-9


def test_roundtrip_su2():
    rng = np.random.default_rng(1)
    coeffs = {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(7)}
    spec = gf.CoefficientSpectrum("su2", coeffs, 6)
    back = gf.coefficients_su2(gf.synthesize(spec), 6)
    err = max(abs(back.coeffs[n] - coeffs[n]) for n in coeffs)
    assert err <= 1e-9


def _u2_sum_oracle(spec: gf.CoefficientSpectrum, z) -> np.ndarray:
    """sum c dim h_{l,m}(z), one spherical_u2 call per index."""
    flat = np.atleast_1d(np.asarray(z, dtype=complex)).ravel()
    out = np.zeros(flat.size, dtype=complex)
    for (l, m), c in spec.items():
        out += c * (l + m + 1) * spherical_u2(l, m, flat)
    return out


@pytest.mark.parametrize("L", [0, 1, 2, 6, 24, 40])
def test_synthesize_u2_matches_spherical_sum(L):
    rng = np.random.default_rng(50 + L)
    coeffs = {idx: complex(*rng.standard_normal(2)) for idx in _u2_box(L)}
    spec = gf.CoefficientSpectrum("u2", coeffs, L)
    phi = gf.synthesize(spec)
    rad = np.sqrt(rng.uniform(0.0, 1.0, 300))
    rad[:3] = (0.0, 1.0, 1.0 + 1e-13)  # centre, the boundary circle and the absorbed slack
    z1 = rad * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 300))
    for z in (z1, z1[:240].reshape(12, 20)):
        got = phi(z)
        assert got.shape == z.shape
        want = _u2_sum_oracle(spec, z).reshape(z.shape)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    for z0 in (complex(z1[5]), complex(z1[1])):
        got = phi(z0)
        assert isinstance(got, complex)
        want = complex(_u2_sum_oracle(spec, z0)[0])
        assert abs(got - want) <= 1e-14 * max(abs(want), 1.0)


def test_synthesize_u2_rejects_points_outside_disc():
    phi = gf.synthesize(gf.CoefficientSpectrum("u2", {(1, 1): 1.0}, 1))
    with pytest.raises(ValueError, match="closed unit disc"):
        phi(1.5)
    with pytest.raises(ValueError, match="closed unit disc"):
        phi(np.array([0.2, 0.3j, 1.0 + 1e-11]))
    assert_allclose(phi(1.0 + 1e-13), 3.0, rtol=1e-11)


def test_synthesize_u2_rejects_index_beyond_truncation():
    with pytest.raises(ValueError, match="beyond truncation"):
        gf.synthesize(gf.CoefficientSpectrum("u2", {(3, 2): 1.0}, 2))


@pytest.mark.parametrize("pair, idx", [("su2", 5), ("su2", -1), ("u2", (1, -1))])
def test_synthesize_rejects_index_outside_truncation(pair, idx):
    # su2 indexed past the Legendre rows (IndexError) or wrapped round to the
    # last row; u2 wrapped (1, -1) round to a frequency-2 entry
    with pytest.raises(ValueError, match="below 0 or beyond truncation"):
        gf.synthesize(gf.CoefficientSpectrum(pair, {idx: 1.0}, 2))


def test_synthesize_u2_peak_memory():
    import tracemalloc

    L = 24
    rng = np.random.default_rng(24)
    coeffs = {idx: complex(*rng.standard_normal(2)) for idx in _u2_box(L)}
    z, _ = gf.disc_quadrature(96, 193)
    tracemalloc.start()
    try:
        gf.synthesize(gf.CoefficientSpectrum("u2", coeffs, L))(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


# ---------------------------------------------------------------------------
# kernel operator


def test_kernel_constant_is_projection():
    for pair, order in (("u2", 4), ("su2", 6)):
        assert_allclose(
            gf.kernel_schatten_norm(ones, 3.0, order, pair), 1.0, atol=1e-10
        )


def test_kernel_u2_spectral_identity():
    phi = gf.synthesize(gf.CoefficientSpectrum("u2", {(1, 0): 0.5}, 1))
    val = gf.kernel_schatten_norm(phi, 2.0, 3, "u2")
    assert_allclose(val, 1.0 / math.sqrt(2.0), rtol=1e-10)


def test_kernel_su2_spectral_identity():
    phi = gf.synthesize(gf.CoefficientSpectrum("su2", {1: 1.0 / 3.0}, 1))
    val = gf.kernel_schatten_norm(phi, 3.0, 4, "su2")
    assert_allclose(val, 3.0 ** (-2.0 / 3.0), rtol=1e-10)


def test_kernel_parseval_and_doubling():
    rng = np.random.default_rng(2)
    coeffs = {n: complex(rng.standard_normal(), rng.standard_normal()) * 0.3 for n in range(4)}
    spec = gf.CoefficientSpectrum("su2", coeffs, 3)
    phi = gf.synthesize(spec)
    want = gf.lp_lower_bound(spec, 2.0)
    coarse = gf.kernel_schatten_norm(phi, 2.0, 5, "su2")
    fine = gf.kernel_schatten_norm(phi, 2.0, 10, "su2")
    assert_allclose(coarse, want, rtol=1e-9)
    assert abs(fine - coarse) <= 1e-9 * max(1.0, want)


def test_kernel_check_flag_quiet_when_resolved():
    phi = gf.synthesize(gf.CoefficientSpectrum("su2", {2: 0.4}, 2))
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = gf.kernel_schatten_norm(phi, 4.0, 6, "su2", check=True)
    assert_allclose(val, gf.lp_lower_bound(
        gf.CoefficientSpectrum("su2", {2: 0.4}, 2), 4.0), rtol=1e-9)


def _sphere3_nodes(order: int):
    """Probability quadrature on the unit sphere of C^2: points
    (sqrt(u) e^{i t1}, sqrt(1-u) e^{i t2}), u Gauss-Legendre on [0, 1], both
    angles uniform on 2 order + 1 points; returns (n, 2) nodes and weights."""
    t, wt = np.polynomial.legendre.leggauss(order)
    u = (t + 1.0) / 2.0
    m = 2 * order + 1
    e = np.exp(2j * np.pi * np.arange(m) / m)
    x1 = np.sqrt(u)[:, None, None] * e[None, :, None] * np.ones(m)[None, None, :]
    x2 = np.sqrt(1.0 - u)[:, None, None] * np.ones(m)[None, :, None] * e[None, None, :]
    w = np.broadcast_to((wt / 2.0)[:, None, None] / (m * m), x1.shape)
    return np.column_stack([x1.ravel(), x2.ravel()]), w.ravel()


def _sphere2_nodes(order: int):
    """Probability quadrature on the 2-sphere (Gauss-Legendre x uniform)."""
    t, wt = np.polynomial.legendre.leggauss(order)
    m = 2 * order + 1
    phi = 2.0 * np.pi * np.arange(m) / m
    st = np.sqrt(1.0 - t**2)
    x = (st[:, None] * np.cos(phi)[None, :]).ravel()
    y = (st[:, None] * np.sin(phi)[None, :]).ravel()
    z = np.repeat(t[:, None], m, axis=1).ravel()
    w = np.repeat(wt[:, None] / (2.0 * m), m, axis=1).ravel()
    return np.column_stack([x, y, z]), w


def _dense_kernel(phi0, order: int, pair: str) -> np.ndarray:
    """The whole weighted kernel sqrt(w_i w_j) phi0(<x_i, x_j>) on the grid."""
    if pair == "u2":
        nodes, w = _sphere3_nodes(order)
        gram = nodes.conj() @ nodes.T
    else:
        nodes, w = _sphere2_nodes(order)
        gram = np.clip(nodes @ nodes.T, -1.0, 1.0)
    psi = np.asarray(phi0(gram.ravel()), dtype=complex).reshape(gram.shape)
    sw = np.sqrt(w)
    return psi * sw[:, None] * sw[None, :]


def _blocked_stack(monkeypatch, phi0, order: int, pair: str) -> np.ndarray:
    """The block stack kernel_schatten_norm hands to schatten_norm."""
    seen = []

    def capture(x, p):
        seen.append(np.array(x))
        return sc.schatten_norm(x, p)

    monkeypatch.setattr(gf, "schatten_norm", capture)
    gf.kernel_schatten_norm(phi0, 2.0, order, pair)
    monkeypatch.undo()
    (stack,) = seen
    return stack


@pytest.mark.parametrize(
    "pair, order",
    [("u2", o) for o in (2, 3, 4)] + [("su2", o) for o in range(3, 9)],
)
def test_blocked_kernel_matches_dense_oracle(monkeypatch, pair, order):
    rng = np.random.default_rng(1000 + order)
    if pair == "u2":
        # every (l, m) with max(l, m) <= 2, so l != m terms make the kernel
        # non-Hermitian
        idx = [(l, m) for l in range(3) for m in range(3)]
        deg, n_blocks = 2, (2 * order + 1) ** 2
    else:
        idx = list(range(5))
        deg, n_blocks = 4, 2 * order + 1
    coeffs = {i: complex(*rng.standard_normal(2)) for i in idx}
    phi = gf.synthesize(gf.CoefficientSpectrum(pair, coeffs, deg))
    dense = _dense_kernel(phi, order, pair)
    assert np.abs(dense - dense.conj().T).max() > 1e-3 * np.abs(dense).max()
    stack = _blocked_stack(monkeypatch, phi, order, pair)
    assert stack.shape == (n_blocks, order, order)
    s_dense = np.sort(np.linalg.svd(dense, compute_uv=False))
    s_block = np.sort(np.linalg.svd(stack, compute_uv=False).ravel())
    assert s_block.shape == s_dense.shape
    assert np.abs(s_block - s_dense).max() <= 1e-12 * s_dense[-1]
    for p in (1.0, 3.0):
        assert_allclose(
            gf.kernel_schatten_norm(phi, p, order, pair), sc.schatten_norm(dense, p), rtol=1e-12
        )


@pytest.mark.parametrize("pair, deg, order", [("u2", 3, 16), ("su2", 6, 40)])
def test_kernel_high_order_matches_coefficient_sum(pair, deg, order):
    # u2 at order 16 is a 17424-node grid: out of reach for a dense SVD.
    rng = np.random.default_rng(order)
    if pair == "u2":
        idx = [(l, m) for l in range(deg + 1) for m in range(deg + 1)]
    else:
        idx = list(range(deg + 1))
    spec = gf.CoefficientSpectrum(pair, {i: 0.4 * complex(*rng.standard_normal(2)) for i in idx}, deg)
    phi = gf.synthesize(spec)
    for p in (1.5, 3.0):
        assert_allclose(
            gf.kernel_schatten_norm(phi, p, order, pair), gf.lp_lower_bound(spec, p), rtol=1e-9
        )


# ---------------------------------------------------------------------------
# Haar sampling and averaging


def test_haar_u2_moments():
    rng = np.random.default_rng(3)
    us = gf.haar_u2(rng, 6000)
    unitarity = np.abs(
        np.einsum("nba,nbc->nac", us.conj(), us) - np.eye(2)
    ).max()
    assert unitarity <= 1e-12
    u11 = us[:, 0, 0]
    assert abs(u11.mean()) <= 0.05
    assert abs((np.abs(u11) ** 2).mean() - 0.5) <= 0.02
    assert abs((np.abs(u11) ** 4).mean() - 1.0 / 3.0) <= 0.02


def test_haar_u2_matches_per_sample_qr():
    z_rng, rng = np.random.default_rng(11), np.random.default_rng(11)
    size = 500
    z = z_rng.standard_normal((size, 2, 2)) + 1j * z_rng.standard_normal((size, 2, 2))
    want = np.empty_like(z)
    for i in range(size):
        q, r = np.linalg.qr(z[i])
        want[i] = q * (np.diag(r) / np.abs(np.diag(r)))
    assert np.array_equal(gf.haar_u2(rng, size), want)


def _k_average_oracle(phi, pts, n_samples, seed, subgroup):
    """k_average with one phi call per sample pair; also returns the
    conjugate symbol of every pair, in row-major pair order."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sampler = gf.subgroup_sampler(subgroup)
    ks, kps = sampler(rng, n_samples), sampler(rng, n_samples)
    avg = np.zeros((len(pts), len(pts)), dtype=complex)
    conjugates = []
    for r in range(n_samples):
        for s in range(n_samples):
            g = np.array([[ks[r] @ a.conj().T @ b @ kps[s] for b in pts] for a in pts])
            conjugates.append(np.asarray(phi(g), dtype=complex))
            avg += conjugates[-1]
    avg /= n_samples * n_samples
    return avg, conjugates


_K_AVERAGE_PHIS = {
    "u1": lambda g: 0.3 * g[..., 0, 0] + (0.2 - 0.5j) * g[..., 0, 0] ** 2 + np.abs(g[..., 1, 1]) ** 2,
    "so2": lambda g: (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0])
    + 0.4j * np.einsum("...ij,...ij->...", g, g),
    "u2": lambda g: np.abs(g[..., 0, 0]) ** 2 + 0.4 * g[..., 1, 0] * np.conj(g[..., 0, 1]),
}


@pytest.mark.parametrize("subgroup", sorted(_K_AVERAGE_PHIS))
def test_k_average_matches_per_pair_loop(subgroup):
    phi = _K_AVERAGE_PHIS[subgroup]
    pts = gf.haar_u2(np.random.default_rng(12), 5)
    res = gf.k_average(phi, pts, 7, seed=13, subgroup=subgroup)
    want, _ = _k_average_oracle(phi, pts, 7, 13, subgroup)
    assert np.abs(res.symbol.values - want).max() <= 1e-15 * np.abs(want).max()


@settings(max_examples=150, deadline=None)
@given(
    subgroup=hst.sampled_from(sorted(_K_AVERAGE_PHIS)),
    n_points=hst.integers(1, 6),
    n_samples=hst.integers(1, 6),
    seed=hst.integers(min_value=0),
)
def test_k_average_matches_per_pair_loop_on_random_draws(subgroup, n_points, n_samples, seed):
    phi = _K_AVERAGE_PHIS[subgroup]
    pts = gf.haar_u2(np.random.default_rng(seed), n_points)
    res = gf.k_average(phi, pts, n_samples, seed=seed, subgroup=subgroup)
    want, _ = _k_average_oracle(phi, pts, n_samples, seed, subgroup)
    # Unitary entries are <= 1 and each phi is a fixed quadratic in them, so
    # the per-pair values agree to a few eps; each of the two sums over the
    # n_samples^2 pairs may then round by up to one ulp of |phi| <= 2 per
    # term.  A fixed 1e-15 relative bound does not hold on random draws
    # (with 5-6 samples the sum rounding reaches 1.2e-15, with einsum too).
    tol = (8 + 2 * n_samples**2) * np.finfo(float).eps
    assert np.abs(res.symbol.values - want).max() <= tol


def test_k_average_rejects_empty_sample():
    pts = gf.haar_u2(np.random.default_rng(15), 2)
    with pytest.raises(ValueError, match="n_samples"):
        gf.k_average(lambda m: m[..., 0, 0], pts, 0, seed=1)


def test_k_average_fixed_point():
    pts = gf.haar_u2(np.random.default_rng(4), 4)

    def phi(m):  # U(1)-bi-invariant: depends on the corner entry only
        return m[..., 0, 0] ** 2

    res = gf.k_average(phi, pts, 16, seed=5, subgroup="u1")
    direct = np.einsum("iba,jbc->ijac", pts.conj(), pts)[..., 0, 0] ** 2
    assert np.abs(res.symbol.values - direct).max() <= 1e-12


def test_k_average_constant():
    pts = gf.haar_u2(np.random.default_rng(6), 3)
    res = gf.k_average(lambda m: np.ones(m.shape[:-2], dtype=complex), pts, 8, seed=7)
    assert np.abs(res.symbol.values - 1.0).max() == 0.0


def test_k_average_convexity_bound():
    pts = gf.haar_u2(np.random.default_rng(8), 4)

    def phi(m):
        return m[..., 0, 0] ** 2 + 0.4 * m[..., 1, 0] * np.conj(m[..., 0, 1])

    n_samples = 16
    res = gf.k_average(phi, pts, n_samples, seed=9, subgroup="u1")
    # by convexity the averaged symbol's multiplier norm never exceeds the
    # worst conjugate's; a seeded subsample of the conjugates stands in for all
    _, conjugates = _k_average_oracle(phi, pts, n_samples, 9, "u1")
    probes = np.random.default_rng(10).choice(len(conjugates), 12, replace=False)
    cfg = sc.SearchConfig(restarts=4, seed=1)
    worst = max(sc.ms_norm_lower(sc.MultiplierSymbol(conjugates[k]), 4.0, cfg).value for k in probes)
    avg_norm = sc.ms_norm_lower(res.symbol, 4.0, sc.SearchConfig(seed=2)).value
    mc_tol = 1.0 / math.sqrt(n_samples)
    assert avg_norm <= worst + 3.0 * mc_tol


def test_subgroup_samplers_land_in_subgroup():
    rng = np.random.default_rng(10)
    u1 = gf.subgroup_sampler("u1")(rng, 5)
    assert_allclose(u1[:, 0, 0], np.ones(5))
    assert_allclose(np.abs(u1[:, 1, 1]), np.ones(5))
    so2 = gf.subgroup_sampler("so2")(rng, 5)
    assert np.abs(so2.imag).max() == 0.0
    dets = so2[:, 0, 0] * so2[:, 1, 1] - so2[:, 0, 1] * so2[:, 1, 0]
    assert_allclose(dets.real, np.ones(5), rtol=1e-12)
    with pytest.raises(ValueError):
        gf.subgroup_sampler("sp4")


# ---------------------------------------------------------------------------
# serialization


def test_spectrum_json_roundtrip():
    rng = np.random.default_rng(11)
    coeffs = {
        (l, m): complex(rng.standard_normal(), rng.standard_normal())
        for l in range(3)
        for m in range(3 - l)
    }
    spec = gf.CoefficientSpectrum("u2", coeffs, 2)
    back = gf.spectrum_from_json(gf.spectrum_to_json(spec))
    assert back.pair == "u2" and back.truncation == 2
    for idx in coeffs:
        assert_allclose(back.coeffs[idx], coeffs[idx])


@pytest.mark.parametrize("re, im", [(float("nan"), 0.0), (0.0, float("inf"))])
def test_spectrum_from_json_rejects_non_finite(re, im):
    text = gf.spectrum_to_json(gf.CoefficientSpectrum("su2", {0: 1.0, 1: complex(re, im)}, 1))
    with pytest.raises(ValueError, match="not finite"):
        gf.spectrum_from_json(text)


def test_spectrum_csv(tmp_path):
    spec = gf.CoefficientSpectrum("su2", {0: 1.0, 2: 0.5j}, 2)
    path = tmp_path / "spec.csv"
    gf.spectrum_to_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "pair,l,m_or_n,degree,abs_c,dim"
    assert len(lines) == 3
