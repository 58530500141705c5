"""Tests for Schatten norms and the multiplier-norm search."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from schur_harmonics import schatten as sc
from schur_harmonics import symplectic as sp


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


# ---------------------------------------------------------------------------
# schatten_norm


@pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 2.0, 3.0, np.inf])
def test_identity_norm(p):
    n = 5
    expected = 1.0 if np.isinf(p) else n ** (1.0 / p)
    assert_allclose(sc.schatten_norm(np.eye(n), p), expected, rtol=1e-14)


def test_rank_one_norm():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    for p in (1.0, 2.7, np.inf):
        assert_allclose(sc.schatten_norm(np.outer(u, v.conj()), p), 1.0, rtol=1e-13)


def test_norm_matches_eigenvalue_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        x = random_complex(rng, 4)
        lam = np.clip(np.linalg.eigvalsh(x.conj().T @ x), 0.0, None)
        oracle = float(np.sum(lam ** 1.5) ** (1.0 / 3.0))
        assert abs(sc.schatten_norm(x, 3.0) - oracle) <= 1e-10


def test_hilbert_schmidt_identity():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = random_complex(rng, 6)
        assert_allclose(
            sc.schatten_norm(x, 2.0) ** 2, np.sum(np.abs(x) ** 2), rtol=1e-12
        )


def test_norm_monotone_in_p():
    rng = np.random.default_rng(3)
    x = random_complex(rng, 5)
    ps = [1.0, 1.5, 2.0, 3.0, 8.0, np.inf]
    vals = [sc.schatten_norm(x, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
    assert sc.schatten_norm(x, np.inf) <= vals[0] + 1e-12


def test_norm_rejects_bad_input():
    with pytest.raises(ValueError):
        sc.schatten_norm(np.array([[np.nan, 0], [0, 1]]), 2.0)
    with pytest.raises(ValueError):
        sc.schatten_norm(np.eye(3), 0.5)
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
        sc.schatten_norm(np.eye(2), math.nan)
    bad_stack = np.ones((2, 3, 3), dtype=complex)
    bad_stack[1, 2, 0] = np.inf
    for bad in (np.ones(3), np.ones((2, 2, 3, 3)), np.ones((2, 3)), np.ones((4, 2, 3)), bad_stack):
        with pytest.raises(ValueError):
            sc.schatten_norm(bad, 2.0)


def test_norm_without_overflow_or_underflow():
    assert_allclose(sc.schatten_norm(10.0 * np.eye(2), 400.0), 10.0 * 2.0 ** (1 / 400), rtol=1e-14)
    assert_allclose(sc.schatten_norm(1e-3 * np.eye(2), 120.0), 1e-3 * 2.0 ** (1 / 120), rtol=1e-14)
    # the all-tens symbol multiplies by 10, so its norm is 10 at every p
    est = sc.ms_norm_lower(sc.MultiplierSymbol(10.0 * np.ones((2, 2))), 400.0)
    assert_allclose(est.value, 10.0, rtol=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.5, np.inf])
def test_norm_of_stack_is_norm_of_block_diagonal(p):
    from scipy.linalg import block_diag

    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
    assert_allclose(sc.schatten_norm(stack, p), sc.schatten_norm(block_diag(*stack), p), rtol=1e-13)


# ---------------------------------------------------------------------------
# ms_norm_lower


def test_constant_symbol_any_p():
    c = 0.7 - 0.4j
    psi = np.full((4, 4), c)
    for p in (1.0, 1.7, 4.0, np.inf):
        est = sc.ms_norm_lower(psi, p, sc.SearchConfig(restarts=4, seed=1))
        assert_allclose(est.value, abs(c), rtol=1e-9)


def test_p2_matches_matrix_unit_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        psi = random_complex(rng, n)
        # oracle: the multiplier acts diagonally on matrix units, so the
        # norm is the best ratio over all of them
        oracle = 0.0
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                oracle = max(oracle, sc.schatten_norm(psi * e, 2.0))
        est = sc.ms_norm_lower(psi, 2.0)
        assert abs(est.value - oracle) <= 1e-12
        assert est.converged


def test_floor_and_duality_off_diagonal():
    rng = np.random.default_rng(8)
    psi = random_complex(rng, 3)
    psi[0, 2] = 4.0 + 1.0j
    floor = np.abs(psi).max()
    e4 = sc.ms_norm_lower(psi, 4.0, sc.SearchConfig(seed=11))
    eq = sc.ms_norm_lower(psi, 4.0 / 3.0, sc.SearchConfig(seed=12))
    assert e4.value >= floor - 1e-12
    assert abs(e4.value - eq.value) <= 0.02 * max(e4.value, eq.value)


def test_value_reproduces_witness_ratio():
    rng = np.random.default_rng(9)
    psi = random_complex(rng, 4)
    for p in (1.3, 3.0, np.inf):
        est = sc.ms_norm_lower(psi, p, sc.SearchConfig(restarts=6, seed=3))
        ratio = sc.schatten_norm(psi * est.witness, p) / sc.schatten_norm(
            est.witness, p
        )
        assert abs(est.value - ratio) <= 1e-10 * max(1.0, est.value)


def test_zero_symbol():
    est = sc.ms_norm_lower(np.zeros((3, 3)), 4.0)
    assert est.value == 0.0 and est.converged


def test_sub_symbol_monotone_with_warm_start():
    rng = np.random.default_rng(10)
    psi = random_complex(rng, 5)
    sub = sc.ms_norm_lower(psi[:3, :3], 4.0, sc.SearchConfig(seed=4))
    embedded = np.zeros((5, 5), dtype=complex)
    embedded[:3, :3] = sub.witness
    full = sc.ms_norm_lower(
        psi, 4.0, sc.SearchConfig(seed=4, warm_starts=(embedded,))
    )
    assert full.value >= sub.value - 1e-12


def test_monotone_in_p_with_shared_pool():
    rng = np.random.default_rng(11)
    for k in range(5):
        psi = random_complex(rng, 4)
        pool = ()
        prev = 0.0
        for p in (2.0, 3.0, 4.0, 6.0):
            est = sc.ms_norm_lower(
                psi, p, sc.SearchConfig(seed=20 + k, warm_starts=pool)
            )
            assert est.value >= prev - 1e-6
            pool = pool + (est.witness,)
            prev = est.value


def test_known_sign_symbol_values():
    # interpolation pins the norm of [[1,1],[1,-1]]: 2^(1/2 - 1/p) for p >= 2
    psi = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex)
    for p, expected in [(np.inf, math.sqrt(2)), (4.0, 2 ** 0.25), (6.0, 2 ** (1 / 3))]:
        est = sc.ms_norm_lower(psi, p, sc.SearchConfig(seed=5))
        assert_allclose(est.value, expected, rtol=1e-8)


def test_search_bit_identical_for_same_config():
    rng = np.random.default_rng(12)
    psi = random_complex(rng, 4)
    cfg = sc.SearchConfig(restarts=8, seed=6)
    for p in (4.0, np.inf):
        first = sc.ms_norm_lower(psi, p, cfg)
        again = sc.ms_norm_lower(psi, p, cfg)
        assert first.value == again.value
        assert first.witness.tobytes() == again.witness.tobytes()


def _reference_ascent(psi, p, x0, cfg):
    """The power-step ascent written out plainly: every iteration recomputes
    the gradient at X and rescales the power step by its own S^p norm."""
    q = sc._dual_exponent(p)
    rng = np.random.default_rng(0)
    x = x0 / sc.schatten_norm(x0, p)
    val = sc.schatten_norm(psi * x, p)
    history = [val]
    for _ in range(cfg.max_iter):
        _, y = sc._norm_and_gradient(psi * x, p, rng)
        _, x_pow = sc._norm_and_gradient(psi.conj() * y, q, rng)
        x_pow = x_pow / sc.schatten_norm(x_pow, p)
        val_pow = sc.schatten_norm(psi * x_pow, p)
        if val_pow < val:
            break
        x, val = x_pow, val_pow
        history.append(val)
        if len(history) > sc.GAIN_WINDOW:
            if val - history[-sc.GAIN_WINDOW - 1] < cfg.gain_tol * val:
                break
    return val


def test_ascent_matches_plain_reference():
    # The search reuses the gradient of the accepted point and skips the
    # normalising SVD of the power step; neither may change the values.
    rng = np.random.default_rng(15)
    cfg = sc.SearchConfig()
    for n, p in [(2, 4.0 / 3.0), (3, 3.0), (4, 4.0), (5, 1.5)]:
        psi = random_complex(rng, n)
        for _ in range(3):
            x0 = random_complex(rng, n)
            val, _, _, _ = sc._ascend(psi, p, x0, cfg, np.random.default_rng(0))
            assert_allclose(val, _reference_ascent(psi, p, x0, cfg), rtol=1e-12)


@st.composite
def complex_matrices(draw):
    n = draw(st.integers(1, 6))
    parts = draw(arrays(np.float64, (2, n, n), elements=st.floats(-10.0, 10.0)))
    return parts[0] + 1j * parts[1]


@given(
    psi=complex_matrices(),
    x0=complex_matrices(),
    p=st.one_of(st.just(1.0), st.floats(1.01, 50.0), st.just(np.inf)),
)
@settings(max_examples=100, deadline=None)
def test_ascent_never_lowers_the_start_value(psi, x0, p):
    # The power step cannot lower the convex objective, and a computed drop
    # ends the run on the current point: the value never falls below that of
    # the normalised start and always reproduces the witness ratio.  p stays
    # at 1.01 or above: closer to 1 the dual witness of a gradient with tied
    # singular values drifts off the unit sphere (see the xfail test below).
    n = min(psi.shape[0], x0.shape[0])
    psi, x0 = psi[:n, :n], x0[:n, :n]
    assume(np.abs(psi).max() >= 1e-3 and np.abs(x0).max() >= 1e-3)
    cfg = sc.SearchConfig(max_iter=50)
    x = x0 / sc.schatten_norm(x0, p)
    start, _ = sc._norm_and_gradient(psi * x, p, np.random.default_rng(0))
    val, witness, iters, _ = sc._ascend(psi, p, x0, cfg, np.random.default_rng(0))
    assert val >= start
    assert abs(val - sc._ratio(psi, witness, p)) <= 1e-12 * val
    assert iters <= cfg.max_iter


def test_ascent_value_is_witness_ratio_near_p_one():
    # At p = 1 + 1e-6 (q ~ 1e6) a dual witness weighted by (s/||s||_q)^(q-1)
    # left the unit sphere of S^p by ~4e-11, so the ascent's value was not the
    # ratio of the witness it returned; weights r^(q-1) (sum r^q)^((1-q)/q),
    # r = s/s_1, stay on it.
    p, psi = 1.0 + 1e-6, np.eye(4, dtype=complex)
    x0, rng = np.ones((4, 4)), np.random.default_rng(0)
    val, witness, _, _ = sc._ascend(psi, p, x0, sc.SearchConfig(), rng)
    assert abs(val - sc._ratio(psi, witness, p)) <= 1e-12 * val


@pytest.mark.parametrize("p", [1.0 + 1e-9, 1.5, 3.0, 1e6])
def test_dual_witness_keeps_zero_singular_values_at_weight_zero(p):
    # 0^(p-1) = 0 raises no RuntimeWarning (an error under pytest)
    y = np.diag([3.0, 3.0, 0.0, 0.0]).astype(complex)
    val, w = sc._norm_and_gradient(y, p, np.random.default_rng(0))
    assert val == pytest.approx(3.0 * 2.0 ** (1.0 / p), rel=1e-15)
    want = [2.0 ** (1.0 / p - 1.0)] * 2 + [0.0] * 2
    assert_allclose(np.linalg.svd(w, compute_uv=False), want, rtol=1e-15)


@given(
    g=complex_matrices(),
    p=st.one_of(st.just(1.0), st.floats(1.05, 1e3), st.just(np.inf)),
)
@settings(max_examples=200, deadline=None)
def test_dual_witness_has_unit_p_norm(g, p):
    # The ascent's power step relies on this: the S^q dual witness of the
    # gradient already lies on the unit sphere of S^p.  Entries are kept away
    # from 0 so that s**q neither underflows nor overflows at q <= 21.
    assume(np.abs(g).max() >= 1e-3)
    _, w = sc._norm_and_gradient(g, sc._dual_exponent(p), np.random.default_rng(0))
    assert abs(sc.schatten_norm(w, p) - 1.0) <= 1e-12


def test_p_below_one_rejected():
    with pytest.raises(ValueError):
        sc.ms_norm_lower(np.eye(2), 0.9)
    with pytest.raises(ValueError, match=r"p must lie in \[1, inf\]"):
        sc.ms_norm_lower(np.eye(2), math.nan)


# ---------------------------------------------------------------------------
# cb_lower_bound


def test_cb_m1_equals_base():
    rng = np.random.default_rng(13)
    psi = random_complex(rng, 3)
    cfg = sc.SearchConfig(restarts=6, seed=7)
    assert sc.cb_lower_bound(psi, 4.0, 1, cfg) == sc.ms_norm_lower(psi, 4.0, cfg).value


def test_cb_ones_symbol():
    cfg = sc.SearchConfig(restarts=4, seed=8)
    assert_allclose(sc.cb_lower_bound(np.ones((3, 3)), 4.0, 3, cfg), 1.0, rtol=1e-9)


def test_cb_amplification_monotone():
    rng = np.random.default_rng(14)
    psi = random_complex(rng, 3)
    cfg = sc.SearchConfig(restarts=6, seed=9)
    base = sc.ms_norm_lower(psi, 4.0, cfg).value
    assert sc.cb_lower_bound(psi, 4.0, 2, cfg) >= base - 1e-9


def test_cb_memory_guard(monkeypatch):
    with pytest.raises(ValueError):
        sc.cb_lower_bound(np.ones((8, 8)), 4.0, 100)
    # the guard fires before any search runs
    calls = []
    monkeypatch.setattr(sc, "ms_norm_lower", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="exceeds cap"):
        sc.cb_lower_bound(np.ones((8, 8)), 4.0, 100)
    assert calls == []


# ---------------------------------------------------------------------------
# two-point functions


def test_sample_symbol_bi_invariant_depends_on_kak_only():
    # points on the chamber axis: the two-point function of a bi-invariant
    # evaluator must depend only on the chamber part of x^-1 y
    ts = [0.0, 0.4, 0.8, 1.2, 1.6]
    pts = [sp.weyl_element(t, 0.0) for t in ts]

    def phi_check(x, y):
        res = sp.kak_decompose(np.linalg.inv(x) @ y)
        return math.exp(-(res.alpha1 + 0.5 * res.alpha2))

    for i in range(5):
        for j in range(5):
            expected = math.exp(-abs(ts[j] - ts[i]))
            assert_allclose(phi_check(pts[i], pts[j]), expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# serialization


def test_symbol_json_roundtrip():
    rng = np.random.default_rng(15)
    sym = sc.MultiplierSymbol(random_complex(rng, 3))
    back = sc.symbol_from_json(sc.symbol_to_json(sym))
    assert_allclose(back.values, sym.values)


def test_estimate_report_fields():
    est = sc.ms_norm_lower(np.ones((2, 2)), 4.0, sc.SearchConfig(restarts=2, seed=3))
    report = sc.estimate_report(est)
    assert set(report) == {"value", "iterations", "seed", "converged"}
    json.dumps(report)
    with_witness = sc.estimate_report(est, include_witness=True)
    assert with_witness["witness"]["n"] == 2
    json.dumps(with_witness)
