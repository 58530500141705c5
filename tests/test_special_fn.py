"""Tests for polynomial recurrences and the two spherical families."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose
from scipy.special import binom

from schur_harmonics import gelfand as gf
from schur_harmonics import special_fn as sf


def jacobi_monomial(n, a, b, x):
    """Independent oracle: the explicit monomial-sum form of the polynomial."""
    x = np.asarray(x, dtype=float)
    total = np.zeros_like(x)
    for s in range(n + 1):
        total += (
            binom(n + a, n - s) * binom(n + b, s)
            * ((x - 1.0) / 2.0) ** s * ((x + 1.0) / 2.0) ** (n - s)
        )
    return total


def test_jacobi_degree_zero_and_one():
    xs = np.linspace(-1, 1, 7)
    assert_allclose(sf.jacobi_all(0, 1.3, 0.2, xs)[0], np.ones(7))
    assert_allclose(
        sf.jacobi_all(1, 1.3, 0.2, xs)[1], 2.3 + 3.5 * (xs - 1) / 2, rtol=1e-14
    )


def test_jacobi_at_one_is_binomial():
    for n in range(9):
        for a in (0.0, 1.0, 2.5):
            assert_allclose(
                sf.jacobi_all(n, a, 0.7, 1.0)[n, 0], binom(n + a, n), rtol=1e-12
            )


def test_central_legendre_value():
    assert_allclose(sf.legendre_all(10, 0.0)[10, 0], -63.0 / 256.0, atol=1e-15)


def test_recurrence_matches_monomial_expansion():
    rng = np.random.default_rng(0)
    xs = np.linspace(-1, 1, 41)
    for _ in range(20):
        n = int(rng.integers(0, 9))
        a = float(rng.uniform(0, 3))
        b = float(rng.uniform(0, 3))
        assert_allclose(
            sf.jacobi_all(n, a, b, xs)[n], jacobi_monomial(n, a, b, xs), atol=1e-10
        )


def test_jacobi_domain_is_strict():
    with pytest.raises(ValueError):
        sf.jacobi_all(3, 0, 0, 1.0 + 1e-9)
    with pytest.raises(ValueError):
        sf.jacobi_all(3, 0, 0, -1.1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda x: sf.jacobi_all(2, 0, 0, x),
        lambda x: gf.synthesize(gf.CoefficientSpectrum("su2", {0: 1.0, 2: 0.5j}, 2))(x),
        lambda x: gf.synthesize(gf.CoefficientSpectrum("u2", {(0, 0): 1.0, (2, 1): 0.5j}, 2))(x),
    ],
    ids=["jacobi", "synthesize-su2", "synthesize-u2"],
)
def test_nan_argument_is_rejected(evaluate):
    for x in ([np.nan], [0.3, np.nan, -0.2], np.nan):
        with pytest.raises(ValueError, match="outside"):
            evaluate(x)


def test_spherical_u2_examples():
    assert_allclose(sf.spherical_u2(3, 0, 0.5), 0.125, atol=1e-15)
    for l, m in [(0, 0), (2, 1), (5, 3), (1, 4)]:
        assert_allclose(sf.spherical_u2(l, m, 1.0), 1.0, atol=1e-12)


def test_spherical_u2_conjugate_symmetry():
    for r in (0.2, 0.55, 0.9):
        z = 1j * r
        assert_allclose(
            sf.spherical_u2(0, 2, z), np.conj(sf.spherical_u2(2, 0, z)), atol=1e-14
        )


def test_spherical_u2_bounded_on_disc():
    rng = np.random.default_rng(1)
    z = rng.uniform(0, 1, 300) ** 0.5 * np.exp(1j * rng.uniform(0, 2 * np.pi, 300))
    for l in range(11):
        for m in range(11 - l):
            assert np.abs(sf.spherical_u2(l, m, z)).max() <= 1.0 + 1e-12


def test_spherical_u2_boundary_collapse():
    theta = np.linspace(0, 2 * np.pi, 17, endpoint=False)
    z = np.exp(1j * theta)
    for l, m in [(4, 1), (2, 5), (3, 3)]:
        assert_allclose(
            sf.spherical_u2(l, m, z), np.exp(1j * (l - m) * theta), atol=1e-12
        )


def test_spherical_u2_domain():
    with pytest.raises(ValueError):
        sf.spherical_u2(1, 0, 1.0 + 1e-6)


def test_spherical_su2_examples():
    r = np.linspace(-1, 1, 9)
    assert_allclose(sf.legendre_all(1, r)[1], r, atol=1e-15)
    assert_allclose(sf.legendre_all(2, 0.4)[2, 0], -0.26, atol=1e-14)
    assert_allclose(sf.legendre_all(17, 1.0)[[0, 3, 17], 0], 1.0, atol=1e-12)


def test_legendre_sign_changes():
    # even point count keeps exact interior zeros (x = 0 for odd n) off grid
    xs = np.linspace(-1, 1, 2**14)
    vals = sf.legendre_all(50, xs)
    for n in range(1, 51):
        changes = int(np.sum(vals[n][:-1] * vals[n][1:] < 0))
        assert changes == n


def test_su2_scan_no_violations():
    report = sf.hoelder_bound_check("su2", 60, 301)
    assert report.violations == []
    assert all(row["violations"] == 0 for row in report.rows)
    assert report.empirical_c <= 4.0


def test_su2_scan_degree_ten_bound():
    # oracle (dense scan of the degree-10 polynomial): the max modulus on
    # [-1/2, 1/2] is 0.2517498 at x ~ +-0.2958, far below 4/sqrt(10)
    report = sf.hoelder_bound_check("su2", 10, 501)
    xs = np.linspace(-0.5, 0.5, 501)
    observed = np.abs(sf.legendre_all(10, xs)[10]).max()
    assert observed <= 4.0 / math.sqrt(10.0)
    assert_allclose(observed, 0.2517498, atol=1e-4)
    assert report.empirical_constants["uniform"] <= 4.0


def _scan_su2_all_pairs(max_degree, grid):
    """The su2 scan written over all grid pairs, one degree at a time."""
    xs = np.linspace(-0.5, 0.5, grid)
    vals = sf.legendre_all(max_degree, xs)
    dx = np.abs(xs[:, None] - xs[None, :])
    sqrt_dx = np.sqrt(dx)
    np.fill_diagonal(dx, 1.0)
    np.fill_diagonal(sqrt_dx, 1.0)
    rows, violations = [], []
    worst = {"uniform": 0.0, "lipschitz": 0.0, "holder_half": 0.0}
    for n in range(1, max_degree + 1):
        dp = np.abs(vals[n][:, None] - vals[n][None, :])
        rn = math.sqrt(n)
        per_n = {
            "uniform": dp.max() * rn,
            "lipschitz": (dp / dx).max() / rn,
            "holder_half": (dp / sqrt_dx).max(),
        }
        n_bad = 0
        if any(c > 4.0 + 1e-12 for c in per_n.values()):
            bad = dp > 4.0 * sqrt_dx + 1e-12
            bad |= dp > 4.0 * rn * dx + 1e-12
            bad |= dp > 4.0 / rn + 1e-12
            np.fill_diagonal(bad, False)
            n_bad = int(bad.sum())
            ii, jj = np.nonzero(bad)
            for i, j in zip(ii[:16], jj[:16]):
                violations.append({"n": n, "x": xs[i], "y": xs[j], "lhs": dp[i, j]})
        for kind, c in per_n.items():
            worst[kind] = max(worst[kind], c)
            rows.append(
                {"family": "su2", "l": "", "m_or_n": n, "bound_kind": kind,
                 "empirical_C": c, "violations": n_bad}
            )
    return rows, violations, worst


@pytest.mark.parametrize(
    "max_degree, grid",
    [(1, 100), (3, 137), (8, 101), (10, 501), (37, 777), (60, 301), (100, 1001)],
)
def test_su2_scan_matches_all_pairs_oracle_bitwise(max_degree, grid):
    report = sf.hoelder_bound_check("su2", max_degree, grid)
    rows, violations, worst = _scan_su2_all_pairs(max_degree, grid)
    assert report.rows == rows
    assert report.violations == violations == []
    assert report.empirical_constants == worst


def test_su2_scan_violation_listing_matches_oracle(monkeypatch):
    # ten times the Legendre family breaks the constant-4 bounds at low degree
    legendre = sf.legendre_all
    monkeypatch.setattr(sf, "legendre_all", lambda nmax, x: 10.0 * legendre(nmax, x))
    report = sf.hoelder_bound_check("su2", 12, 150)
    rows, violations, worst = _scan_su2_all_pairs(12, 150)
    assert violations and any(row["violations"] > 16 for row in rows)
    assert report.violations == violations
    assert [row["violations"] for row in report.rows] == [row["violations"] for row in rows]
    assert report.rows == rows
    assert report.empirical_constants == worst


_VALUES = st.floats(-1e3, 1e3)


@st.composite
def scan_rows(draw):
    """Finite rows standing in for P_1..P_n: the shapes the lag cut-off must
    get right at its edges.  Monotone rows peak at the widest lag, constant
    rows have spread 0 and spiky rows peak at one isolated point."""
    grid = draw(st.integers(100, 300))
    kinds = ("monotone", "constant", "spiky", "arbitrary")
    rows = [np.zeros(grid)]  # degree 0, which the scan skips
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6)):
        if kind == "monotone":
            steps = draw(arrays(np.float64, grid, elements=st.floats(0.0, 10.0)))
            rows.append(draw(_VALUES) + draw(st.sampled_from([1.0, -1.0])) * np.cumsum(steps))
        elif kind == "constant":
            rows.append(np.full(grid, draw(_VALUES)))
        elif kind == "spiky":
            row = np.full(grid, draw(_VALUES))
            spikes = st.tuples(st.integers(0, grid - 1), _VALUES)
            for i, v in draw(st.lists(spikes, min_size=1, max_size=4)):
                row[i] = v
            rows.append(row)
        else:
            rows.append(draw(arrays(np.float64, grid, elements=_VALUES)))
    return grid, np.array(rows)


@given(scan_rows())
@settings(max_examples=150, deadline=None)
def test_su2_scan_matches_all_pairs_oracle_on_arbitrary_rows(case):
    grid, rows = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sf, "legendre_all", lambda nmax, x: rows)
        report = sf.hoelder_bound_check("su2", len(rows) - 1, grid)
        oracle_rows, violations, worst = _scan_su2_all_pairs(len(rows) - 1, grid)
    assert report.rows == oracle_rows
    assert report.violations == violations
    assert report.empirical_constants == worst


def test_u2_scan_stable_under_grid_doubling():
    c1 = sf.hoelder_bound_check("u2", 12, 128).empirical_c
    c2 = sf.hoelder_bound_check("u2", 12, 256).empirical_c
    assert c1 > 0 and np.isfinite(c1)
    assert abs(c2 - c1) <= 0.1 * c1


def test_u2_scan_matches_naive_pair_scan():
    # The lag reduction must reproduce a direct scan over all grid pairs.
    grid, deg = 100, 5
    report = sf.hoelder_bound_check("u2", deg, grid)
    theta = 2 * np.pi * np.arange(grid) / grid
    z = np.exp(1j * theta) / math.sqrt(2.0)
    worst_lip = worst_unif = 0.0
    for l in range(deg + 1):
        for m in range(deg + 1 - l):
            h = sf.spherical_u2(l, m, z)
            dh = np.abs(h[:, None] - h[None, :])
            dth = np.abs(theta[:, None] - theta[None, :])
            np.fill_diagonal(dth, 1.0)
            dim = l + m + 1
            worst_lip = max(worst_lip, (dh / dth).max() / dim**0.75)
            worst_unif = max(worst_unif, dh.max() * dim**0.25 / 2.0)
    assert_allclose(report.empirical_constants["lipschitz"], worst_lip, rtol=1e-12)
    assert_allclose(report.empirical_constants["uniform"], worst_unif, rtol=1e-12)


def test_scan_validation():
    with pytest.raises(ValueError):
        sf.hoelder_bound_check("su2", 0, 200)
    with pytest.raises(ValueError):
        sf.hoelder_bound_check("su2", 10, 50)
    with pytest.raises(ValueError):
        sf.hoelder_bound_check("so3", 10, 200)


def test_scan_csv(tmp_path):
    report = sf.hoelder_bound_check("u2", 3, 128)
    path = tmp_path / "scan.csv"
    sf.scan_report_to_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "family,l,m_or_n,bound_kind,empirical_C,violations"
    assert len(lines) == 1 + len(report.rows)
