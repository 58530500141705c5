"""Tests for the sinh matching systems and their matrix cross-checks."""

import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from schur_harmonics import coset_geometry as cg
from schur_harmonics import symplectic as sp


def bisect_root(f, lo, hi, iters=200):
    """Plain bisection oracle, independent of the library solver."""
    for _ in range(iters):
        mid = (lo + hi) / 2.0
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# scalar helpers


def test_log_sinh_consistency():
    for x in (1e-8, 0.3, 5.0, 25.0, 400.0, 700.0):
        if x < 300:
            assert_allclose(cg.log_sinh(x), math.log(math.sinh(x)), rtol=1e-13)
        assert_allclose(cg.asinh_exp(cg.log_sinh(x)), x, rtol=1e-13)
    assert cg.log_sinh(0.0) == float("-inf")
    assert cg.asinh_exp(float("-inf")) == 0.0


def test_su2_label():
    assert cg.su2_label(1.0, 0.0, 0.0, 0.0) == 1.0
    assert_allclose(cg.su2_label(0.5, 0.5, 0.5, 0.5), 0.0)


def test_coset_params_constructors():
    p = cg.CosetParams.from_hyperbola(1.0, 0.3, 0.5)
    assert p.beta >= p.gamma >= 0.0
    assert (p.beta, p.gamma) == cg.solve_hyperbola(1.0, 0.3, 0.5)
    assert (p.s, p.t) == cg.solve_st(p.beta, p.gamma)
    q = cg.CosetParams.from_circle(0.8, 0.4)
    assert (q.beta, q.gamma) == cg.solve_circle(0.8, 0.4)
    assert q.r == 0.4 and q.a is None
    with pytest.raises(ValueError):
        cg.CosetParams(1.0, 0.5, 1.0, 0.3, 0.3)


# ---------------------------------------------------------------------------
# solve_hyperbola


def test_hyperbola_trivial_cases():
    assert_allclose(cg.solve_hyperbola(1.2, 0.0, 0.0), (1.2, 1.2), atol=1e-14)
    beta, gamma = cg.solve_hyperbola(1.0, 0.6, 0.8)
    assert gamma == 0.0
    assert_allclose(beta, math.asinh(math.sinh(2.0) * 0.6), rtol=1e-13)
    assert cg.solve_hyperbola(0.0, 0.3, 0.1) == (0.0, 0.0)


def test_hyperbola_satisfies_equations():
    rng = np.random.default_rng(0)
    for _ in range(50):
        alpha = rng.uniform(0, 3)
        theta = rng.uniform(0, 2 * np.pi)
        rad = math.sqrt(rng.uniform(0, 1))
        a, b = rad * math.cos(theta), rad * math.sin(theta)
        beta, gamma = cg.solve_hyperbola(alpha, a, b)
        assert beta >= gamma >= 0
        prod = math.sinh(beta) * math.sinh(gamma)
        assert_allclose(
            prod, math.sinh(alpha) ** 2 * (1 - a * a - b * b), atol=1e-10, rtol=1e-10
        )
        assert_allclose(
            math.sinh(beta) - math.sinh(gamma),
            math.sinh(2 * alpha) * abs(a),
            atol=1e-10,
            rtol=1e-10,
        )


def test_hyperbola_matches_kak():
    beta, gamma = cg.solve_hyperbola(1.0, 0.3, 0.5)
    g = sp.d_alpha(1.0) @ sp.su2_element(0.3, 0.5) @ sp.d_alpha(1.0)
    res = sp.kak_decompose(g)
    assert abs(res.alpha1 - beta) <= 1e-6
    assert abs(res.alpha2 - gamma) <= 1e-6


def test_hyperbola_rejects_bad_input():
    with pytest.raises(ValueError):
        cg.solve_hyperbola(1.0, 0.9, 0.9)
    with pytest.raises(ValueError):
        cg.solve_hyperbola(-0.1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# solve_circle


def test_circle_trivial_cases():
    beta, gamma = cg.solve_circle(0.8, 0.0)
    assert_allclose((beta, gamma), (1.6, 0.0), atol=1e-12)
    beta, gamma = cg.solve_circle(0.8, 1.0)
    expected = math.asinh(math.sinh(1.6) / math.sqrt(2.0))
    assert_allclose((beta, gamma), (expected, expected), rtol=1e-12)
    beta, gamma = cg.solve_circle(0.8, -1.0)
    assert_allclose((beta, gamma), (expected, expected), rtol=1e-12)


def test_circle_satisfies_equations():
    rng = np.random.default_rng(1)
    for _ in range(50):
        alpha = rng.uniform(0, 2.5)
        r = rng.uniform(-1, 1)
        beta, gamma = cg.solve_circle(alpha, r)
        assert beta >= gamma >= 0
        s2 = math.sinh(2 * alpha) ** 2
        assert_allclose(
            math.sinh(beta) ** 2 + math.sinh(gamma) ** 2, s2, rtol=1e-10
        )
        assert_allclose(
            math.sinh(beta) * math.sinh(gamma), 0.5 * s2 * abs(r), atol=1e-10 * (1 + s2)
        )


def test_circle_matches_kak():
    # any special unitary with label a^2-b^2+c^2-d^2 = 0.4
    a, b = math.sqrt(0.7), math.sqrt(0.3)
    assert_allclose(cg.su2_label(a, b, 0, 0), 0.4, rtol=1e-14)
    beta, gamma = cg.solve_circle(0.8, 0.4)
    u = sp.embed_u2(np.array([[a + 1j * b, 0], [0, a - 1j * b]]))
    g = sp.d_alpha_prime(0.8) @ u @ sp.v_element() @ sp.d_alpha_prime(0.8)
    res = sp.kak_decompose(g)
    assert abs(res.alpha1 - beta) <= 1e-6
    assert abs(res.alpha2 - gamma) <= 1e-6


# ---------------------------------------------------------------------------
# solve_st


def test_st_trivial_cases():
    assert cg.solve_st(0.0, 0.0) == (0.0, 0.0)
    for tau in (0.3, 0.9, 4.0, 20.0):
        s, t = cg.solve_st(2 * tau, tau)
        assert_allclose((s, t), (tau, tau), rtol=1e-10)


def test_st_against_bisection_oracle():
    beta, gamma = 2.0, 1.0
    rhs_s = math.sinh(beta) ** 2 + math.sinh(gamma) ** 2
    rhs_t = math.sinh(beta) * math.sinh(gamma)
    s_oracle = bisect_root(
        lambda s: math.sinh(2 * s) ** 2 + math.sinh(s) ** 2 - rhs_s, 0.0, beta
    )
    t_oracle = bisect_root(
        lambda t: math.sinh(2 * t) * math.sinh(t) - rhs_t, 0.0, beta
    )
    s, t = cg.solve_st(beta, gamma)
    assert_allclose(s, s_oracle, rtol=1e-11)
    assert_allclose(t, t_oracle, rtol=1e-11)
    assert s >= 0.5 and t >= 0.5


def test_st_inequalities_on_grid():
    for beta in np.linspace(0, 30, 40):
        for gamma in np.linspace(0, beta, 15):
            s, t = cg.solve_st(beta, gamma)
            assert s >= beta / 4.0 - 1e-9
            assert t >= gamma / 2.0 - 1e-9


def test_st_monotone_in_each_argument():
    betas = np.linspace(0.5, 12.0, 14)
    ss = [cg.solve_st(b, 0.4)[0] for b in betas]
    ts = [cg.solve_st(b, 0.4)[1] for b in betas]
    assert all(x <= y + 1e-12 for x, y in zip(ss, ss[1:]))
    assert all(x <= y + 1e-12 for x, y in zip(ts, ts[1:]))
    gammas = np.linspace(0.0, 8.0, 12)
    ss = [cg.solve_st(8.0, g)[0] for g in gammas]
    ts = [cg.solve_st(8.0, g)[1] for g in gammas]
    assert all(x <= y + 1e-12 for x, y in zip(ss, ss[1:]))
    assert all(x <= y + 1e-12 for x, y in zip(ts, ts[1:]))


def test_st_rejects_bad_order():
    with pytest.raises(ValueError):
        cg.solve_st(1.0, 2.0)


def test_st_raises_below_normal_range():
    # true solutions: t ~ 7e-311, s ~ 1.8e-308 and s ~ 4.5e-311, all subnormal
    for beta, gamma in ((1e-300, 1e-320), (4e-308, 0.0), (1e-310, 0.0)):
        with pytest.raises(ArithmeticError, match="normal double range"):
            cg.solve_st(beta, gamma)


@pytest.mark.parametrize(
    "beta, gamma",
    [
        (6.965393270318438e-15, 6.965393270318438e-15 * 0.016955272500192468),
        (3.374811239502465e-262, 5.740855859297162e-264),
        (1.4310071101957207e-159, 2.4307166969105325e-161),
        (5.281369658182901e-308, 0.0),
        (5.502424211273932e-308, 2.311413600089772e-308),
    ],
)
def test_st_tiny_roots_converge(beta, gamma):
    # regression inputs from the former bisection-plus-Newton solver, which
    # left these roots far below its midpoint, overshot towards 0 (or started
    # subnormal and overflowed the derivative) and stopped with relative
    # residuals up to 0.7
    res = cg.residuals("st", (beta, gamma), cg.solve_st(beta, gamma))
    assert all(abs(r) <= 1e-10 for r in res.values())


def _mp_root(log_lhs, log_rhs, lo, hi):
    """Root of log_lhs(x) = log_rhs in [lo, hi], to the working precision:
    bisection on log x, then the secant method from the bracket's middle."""
    f = lambda u: log_lhs(mpmath.exp(u)) - log_rhs
    lo, hi = mpmath.log(lo), mpmath.log(hi)
    for _ in range(40):
        mid = (lo + hi) / 2
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return mpmath.exp(mpmath.findroot(f, (lo + hi) / 2))


def _mp_st(beta, gamma):
    """50-digit (s, t) from the two equations themselves, on the exact values
    of the double inputs; the brackets follow from sinh(t) <= sinh(2t)/2."""
    sh = mpmath.sinh
    with mpmath.workdps(50):
        sb, sg = sh(mpmath.mpf(beta)), sh(mpmath.mpf(gamma))
        big_s, big_p = sb**2 + sg**2, sb * sg
        s = _mp_root(
            lambda x: mpmath.log(sh(2 * x) ** 2 + sh(x) ** 2), mpmath.log(big_s),
            mpmath.asinh(2 * mpmath.sqrt(big_s / 5)) / 2, mpmath.asinh(mpmath.sqrt(big_s)) / 2,
        )
        if big_p == 0:
            return s, mpmath.mpf(0)
        t = _mp_root(
            lambda x: mpmath.log(sh(2 * x) * sh(x)), mpmath.log(big_p),
            mpmath.asinh(mpmath.sqrt(2 * big_p)) / 2, mpmath.asinh(mpmath.sqrt(big_p / 2)),
        )
        return s, t


def _assert_st_matches_mp_roots(beta, gamma):
    s, t = cg.solve_st(beta, gamma)
    mp_s, mp_t = _mp_st(beta, gamma)
    assert abs(s - mp_s) <= 1e-12 * mp_s
    assert abs(t - mp_t) <= 1e-12 * mp_t
    return t


def test_st_matches_mpmath_roots_on_log_uniform_chamber():
    rng = np.random.default_rng(9)
    for _ in range(200):
        beta = 10.0 ** rng.uniform(-300.0, math.log10(700.0))
        gamma = beta * 10.0 ** rng.uniform(-20.0, 0.0)
        try:
            _assert_st_matches_mp_roots(beta, gamma)
        except ArithmeticError:
            # only where 2 t^2 <= sinh(beta) sinh(gamma) puts t below the normal range
            prod = mpmath.sinh(beta) * mpmath.sinh(gamma)
            assert mpmath.sqrt(prod / 2) < sys.float_info.min


def test_st_matches_mpmath_roots_across_cubic_branch_point():
    # with beta = gamma, P = sinh^2(beta) crosses 4/(3 sqrt 3), where t's
    # closed form switches from the cos to the cosh form of Viete's root
    b0 = math.asinh(math.sqrt(4.0 / (3.0 * math.sqrt(3.0))))
    for step, half_width in ((1e-14, 40), (1e-3, 10)):
        betas = [b0 * (1.0 + k * step) for k in range(-half_width, half_width + 1)]
        assert math.sinh(betas[0]) ** 2 < 4.0 / (3.0 * math.sqrt(3.0)) < math.sinh(betas[-1]) ** 2
        ts = [_assert_st_matches_mp_roots(b, b) for b in betas]
        assert all(x <= y for x, y in zip(ts, ts[1:]))
    # one ulp at a time through the switch
    b = b0
    for _ in range(200):
        b = math.nextafter(b, 0.0)
    ts = []
    for _ in range(400):
        ts.append(cg.solve_st(b, b)[1])
        b = math.nextafter(b, 1.0)
    assert all(x <= y for x, y in zip(ts, ts[1:]))


# ---------------------------------------------------------------------------
# solve_bg


def test_bg_trivial_cases():
    assert_allclose(cg.solve_bg(1.1, 1.1), (2.2, 1.1), rtol=1e-12)
    beta, gamma = cg.solve_bg(1.4, 0.0)
    assert gamma == 0.0
    sigma = math.sinh(2.8) ** 2 + math.sinh(1.4) ** 2
    assert_allclose(math.sinh(beta) ** 2, sigma, rtol=1e-12)
    assert cg.solve_bg(0.0, 0.0) == (0.0, 0.0)


def test_bg_raises_below_normal_range():
    # gamma ~ e^-1250 underflows; t = 0 still gives gamma = 0 exactly
    with pytest.raises(ArithmeticError, match="normal double range"):
        cg.solve_bg(1000.0, 250.0)
    assert cg.solve_bg(1000.0, 0.0) == (2000.0, 0.0)
    beta, gamma = cg.solve_bg(300.0, 100.0)
    assert sys.float_info.min < gamma < 1e-100


def test_bg_rejects_bad_order():
    with pytest.raises(ValueError):
        cg.solve_bg(1.0, 2.0)


def test_bg_strip_inequalities():
    for t in np.linspace(1.0, 20.0, 30):
        for s in np.linspace(t, 1.5 * t, 20):
            beta, gamma = cg.solve_bg(s, t)
            assert abs(beta - 2 * s) <= 1.0 + 1e-9
            assert abs(gamma + 2 * s - 3 * t) <= 1.0 + 1e-9


def test_roundtrip_st_of_bg():
    for t in np.linspace(0.0, 18.0, 25):
        for s in np.linspace(t, t + 6.0, 25):
            beta, gamma = cg.solve_bg(s, t)
            s2, t2 = cg.solve_st(beta, gamma)
            assert abs(s2 - s) <= 1e-9 * max(1.0, s)
            assert abs(t2 - t) <= 1e-9 * max(1.0, t)


def test_roundtrip_bg_of_st_where_ordered():
    # solve_st lands in the solve_bg domain s >= t exactly when beta >= 2 gamma
    for beta in np.linspace(0.2, 25.0, 20):
        for gamma in np.linspace(0.0, beta / 2.0, 12):
            s, t = cg.solve_st(beta, gamma)
            assert s >= t - 1e-9
            b2, g2 = cg.solve_bg(s, min(t, s))
            assert abs(b2 - beta) <= 1e-9 * max(1.0, beta)
            assert abs(g2 - gamma) <= 1e-9 * max(1.0, beta)


@pytest.mark.parametrize(
    "solver, bad",
    [
        (cg.solve_hyperbola, [(math.nan, 0.3, 0.5), (1.0, math.nan, 0.5), (1.0, 0.3, math.inf), (math.inf, 0.0, 0.0)]),
        (cg.solve_circle, [(math.nan, 0.4), (1.0, math.nan), (math.inf, 0.4), (1.0, -math.inf)]),
        (cg.solve_st, [(math.nan, math.nan), (2.0, math.nan), (math.inf, 1.0), (math.inf, math.inf)]),
        (cg.solve_bg, [(math.inf, 1.0), (math.nan, 1.0), (2.0, math.nan), (math.inf, math.inf)]),
    ],
    ids=["hyperbola", "circle", "st", "bg"],
)
def test_solvers_reject_non_finite(solver, bad):
    for args in bad:
        with pytest.raises(ValueError):
            solver(*args)


@pytest.mark.parametrize(
    "solver, args",
    [
        (cg.solve_hyperbola, (1e308, 0.3, 0.5)),
        (cg.solve_circle, (1e308, 0.4)),
        (cg.solve_st, (1e308, 1.0)),
        (cg.solve_bg, (1e308, 5e307)),
    ],
    ids=["hyperbola", "circle", "st", "bg"],
)
def test_solvers_raise_on_overflow(solver, args):
    # finite arguments whose doubles (2 alpha, 2 s, sinh^2) overflow
    with pytest.raises(ArithmeticError, match="double range"):
        solver(*args)


# ---------------------------------------------------------------------------
# equation residuals


def _mp_rel_gap(lhs, rhs):
    if lhs == rhs:
        return mpmath.mpf(0)
    if lhs == 0 or rhs == 0:
        return mpmath.inf
    return lhs / rhs - 1


def _mp_residuals(system, given, solution):
    """The residuals of ``cg.residuals`` written from the equations in 50
    digits, on the exact values of the double inputs."""
    sh = mpmath.sinh
    x, y = (mpmath.mpf(v) for v in solution)
    if system == "hyperbola":
        alpha, a, b = (mpmath.mpf(v) for v in given)
        return {"product_rel": _mp_rel_gap(sh(x) * sh(y), sh(alpha) ** 2 * (1 - a * a - b * b))}
    if system == "circle":
        alpha, r = (mpmath.mpf(v) for v in given)
        return {"product_rel": _mp_rel_gap(sh(x) * sh(y), sh(2 * alpha) ** 2 * abs(r) / 2)}
    u, v = (mpmath.mpf(w) for w in given)
    if system == "st":
        return {
            "s_equation_rel": _mp_rel_gap(sh(2 * x) ** 2 + sh(x) ** 2, sh(u) ** 2 + sh(v) ** 2),
            "t_equation_rel": _mp_rel_gap(sh(2 * y) * sh(y), sh(u) * sh(v)),
        }
    return {
        "sum_rel": _mp_rel_gap(sh(x) ** 2 + sh(y) ** 2, sh(2 * u) ** 2 + sh(u) ** 2),
        "product_rel": _mp_rel_gap(sh(x) * sh(y), sh(2 * v) * sh(v)),
    }


@pytest.mark.parametrize(
    "system, given",
    [
        ("hyperbola", (0.7, 0.3, 0.5)),
        ("hyperbola", (690.0, 0.4, 0.1)),
        ("circle", (0.8, 0.4)),
        ("circle", (350.0, -0.3)),
        ("st", (2.0, 1.0)),
        ("st", (0.3, 0.05)),
        ("st", (700.0, 300.0)),
        ("st", (700.0, 699.0)),
        ("st", (1.0, 1e-120)),
        ("bg", (1.4, 1.0)),
        ("bg", (0.2, 0.1)),
        ("bg", (350.0, 300.0)),
        ("bg", (700.0, 500.0)),
    ],
)
def test_residuals_match_mpmath_oracle(system, given):
    solver = getattr(cg, "solve_" + system)
    solution = solver(*given)
    with mpmath.workdps(50):
        for rel in (0.0, 1e-8, -1e-8):
            moved = tuple(v * (1.0 + rel) for v in solution)
            got = cg.residuals(system, given, moved)
            want = _mp_residuals(system, given, moved)
            assert got.keys() == want.keys()
            for key, res in got.items():
                if rel == 0.0:
                    assert abs(res) <= 1e-10
                    continue
                # each log side is rounded to a few ulps of its size (<= ~2800 here)
                assert abs(res) >= 1e-9
                assert abs(res - float(want[key])) <= 1e-11 * (1.0 + abs(res))


def test_residuals_of_zero_sides():
    assert cg.residuals("st", (0.0, 0.0), (0.0, 0.0)) == {
        "s_equation_rel": 0.0, "t_equation_rel": 0.0,
    }
    assert cg.residuals("st", (2.0, 0.0), (0.9, 0.0))["t_equation_rel"] == 0.0
    assert cg.residuals("st", (2.0, 0.0), (0.9, 0.1))["t_equation_rel"] == math.inf
    assert cg.residuals("circle", (0.8, 0.0), (2.0, 0.0)) == {"product_rel": 0.0}
    assert cg.residuals("hyperbola", (1.0, 0.6, 0.8), (1.5, 0.0)) == {"product_rel": 0.0}
    with pytest.raises(ValueError):
        cg.residuals("parabola", (1.0,), (1.0, 0.0))


@given(hst.floats(0.0, 700.0), hst.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_st_residuals_small_on_chamber(beta, frac):
    gamma = beta * frac
    try:
        solution = cg.solve_st(beta, gamma)
    except ArithmeticError:
        # allowed only where s or t is below the smallest normal double, by
        # 5 s^2 <= sinh^2(beta) + sinh^2(gamma) and 2 t^2 <= sinh(beta) sinh(gamma)
        sb, sg = mpmath.sinh(beta), mpmath.sinh(gamma)
        tiny = sys.float_info.min
        assert mpmath.sqrt((sb**2 + sg**2) / 5) < tiny or 0 < mpmath.sqrt(sb * sg / 2) < tiny
        return
    res = cg.residuals("st", (beta, gamma), solution)
    assert all(abs(r) <= 1e-10 for r in res.values())


def test_chamber_scan_csv(tmp_path):
    rows = cg.chamber_scan(10.0, 8)
    assert len(rows) == 64
    assert all(r[4] <= 1e-10 and r[5] >= -1e-9 for r in rows)
    path = tmp_path / "scan.csv"
    cg.scan_to_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "beta,gamma,s,t,residual,ineq_margin"
    assert len(lines) == 65


def test_overflow_regime():
    s, t = cg.solve_st(700.0, 300.0)
    assert s >= 175.0 and t >= 150.0
    b2, g2 = cg.solve_bg(s, t)
    assert_allclose((b2, g2), (700.0, 300.0), rtol=1e-11)
    beta, gamma = cg.solve_hyperbola(690.0, 0.4, 0.1)
    assert beta >= gamma > 0
    assert_allclose(
        cg.log_sinh(beta) + cg.log_sinh(gamma),
        2 * cg.log_sinh(690.0) + math.log(1 - 0.17),
        rtol=1e-12,
    )


# ---------------------------------------------------------------------------
# solver outputs against matrix KAK, randomized


def test_solvers_match_kak_randomized():
    rng = np.random.default_rng(2)
    for _ in range(50):
        alpha = rng.uniform(0, 2.5)
        theta = rng.uniform(0, 2 * np.pi)
        rad = math.sqrt(rng.uniform(0, 1))
        a, b = rad * math.cos(theta), rad * math.sin(theta)
        beta, gamma = cg.solve_hyperbola(alpha, a, b)
        g = sp.d_alpha(alpha) @ sp.su2_element(a, b) @ sp.d_alpha(alpha)
        res = sp.kak_decompose(g)
        assert max(abs(res.alpha1 - beta), abs(res.alpha2 - gamma)) <= 1e-6
    for _ in range(50):
        alpha = rng.uniform(0, 2.5)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        beta, gamma = cg.solve_circle(alpha, cg.su2_label(*v))
        u = sp.embed_u2(
            np.array(
                [[v[0] + 1j * v[1], -v[2] + 1j * v[3]],
                 [v[2] + 1j * v[3], v[0] - 1j * v[1]]]
            )
        )
        g = sp.d_alpha_prime(alpha) @ u @ sp.v_element() @ sp.d_alpha_prime(alpha)
        res = sp.kak_decompose(g)
        assert max(abs(res.alpha1 - beta), abs(res.alpha2 - gamma)) <= 1e-6


def test_solvers_match_kak_up_to_alpha_10():
    """Relative agreement 1e-9 over the chamber reached from alpha <= 10
    (a1 up to 20 on the hyperbola), not only alpha <= 2.5."""
    rng = np.random.default_rng(10)
    for _ in range(100):
        alpha = rng.uniform(0, 10)
        theta = rng.uniform(0, 2 * np.pi)
        rad = math.sqrt(rng.uniform(0, 1))
        a, b = rad * math.cos(theta), rad * math.sin(theta)
        want = cg.solve_hyperbola(alpha, a, b)
        res = sp.kak_decompose(sp.d_alpha(alpha) @ sp.su2_element(a, b) @ sp.d_alpha(alpha))
        assert_allclose(res.alpha, want, rtol=1e-9, atol=1e-9)
        v = rng.standard_normal(4)
        v /= np.linalg.norm(v)
        want = cg.solve_circle(alpha, cg.su2_label(*v))
        u = sp.embed_u2(
            np.array(
                [[v[0] + 1j * v[1], -v[2] + 1j * v[3]],
                 [v[2] + 1j * v[3], v[0] - 1j * v[1]]]
            )
        )
        g = sp.d_alpha_prime(alpha) @ u @ sp.v_element() @ sp.d_alpha_prime(alpha)
        assert_allclose(sp.kak_decompose(g).alpha, want, rtol=1e-9, atol=1e-9)
