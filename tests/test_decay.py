"""Tests for the decay-constant chain and norm certificates."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import zeta

from schur_harmonics import cli, decay


def test_power_series_matches_zeta_oracle():
    for kappa in (-1.03, -1.5, -2.0, -3.125, -9.0):
        assert_allclose(
            decay.power_series_sum(kappa), zeta(-kappa), rtol=1e-12
        )


def test_power_series_guards():
    with pytest.raises(ValueError):
        decay.power_series_sum(-1.0)
    with pytest.raises(ValueError):
        decay.power_series_sum(-0.5)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_power_series_rejects_non_finite_exponent(kappa):
    with pytest.raises(ValueError, match="exponent < -1"):
        decay.power_series_sum(kappa)


# The exponents chain_constants sums are 0.5 - p/8 and -p/4.
_ENCLOSURE_PS = [12.001, 12.01] + [float(p) for p in np.linspace(12.5, 1000.0, 200)]


@pytest.mark.parametrize("n_terms", [decay.SERIES_TERMS, 4096])
def test_power_series_enclosure_contains_zeta(n_terms):
    with mpmath.workdps(50):
        for p in _ENCLOSURE_PS:
            for kappa in (0.5 - p / 8.0, -p / 4.0):
                got = decay.power_series_sum(kappa, n_terms)
                want = mpmath.zeta(-mpmath.mpf(kappa))
                assert got.lo <= want <= got.hi, (p, kappa, n_terms)
                assert got.lo <= got <= got.hi


_NAMES = ("c_tilde", "c_hat", "c3", "c4", "c5", "c5_prime", "c6", "c1", "c2")


def _chain_iv(p, c_u2):
    """The chain in 50-digit interval arithmetic, from 60-digit zeta values."""
    iv = mpmath.iv

    def imax(x, y):
        return iv.mpf([max(x.a, y.a), max(x.b, y.b)])

    with mpmath.workdps(60):
        q, tol = mpmath.mpf(p), mpmath.mpf(10) ** -55
        zetas = [mpmath.zeta(q / 8 - 0.5), mpmath.zeta(q / 4)]
    dps, iv.dps = iv.dps, 50
    try:
        zeta_u, zeta_s = (iv.mpf([z * (1 - tol), z * (1 + tol)]) for z in zetas)
        p, c_u2 = iv.mpf(p), iv.mpf(c_u2)
        one = iv.mpf(1)
        c_tilde = 2 ** (1 - (one / 8 - 3 / (2 * p))) * c_u2 * zeta_u ** (1 / p)
        c_hat = 4 * (3 ** (-p / 4) * zeta_s) ** (1 / p)
        c3 = imax(c_hat * 2 ** (one / 4 - 1 / p), 2 * iv.exp(one / 2))
        c4 = imax(c_tilde, 2 * iv.exp(one / 8))
        c5 = iv.exp(one / 16) * (c3 + c4)
        x = one / 4 - 3 / p
        c5_prime = c5 / (1 - iv.exp(-x / 8))
        c6 = imax(c5_prime, 2 * iv.exp(one * 5 / 32))
        c1 = imax(c3, c4) + c6
        c2 = x / (32 * iv.sqrt(2))
    finally:
        iv.dps = dps
    return dict(zip(_NAMES, (c_tilde, c_hat, c3, c4, c5, c5_prime, c6, c1, c2)))


@pytest.mark.parametrize("p", [12.001, 12.01, 12.5, 13.0, 17.3, 24.0, 48.0, 100.0, 1000.0, 1e6])
@pytest.mark.parametrize("c_u2", [1.0, 2.7])
def test_chain_enclosure_contains_interval_chain(p, c_u2):
    """The enclosures hold the exact chain and are under 1e-14 wide from
    p = 12.5 on; the printed values are within 4e-15 of it."""
    consts = decay.chain_constants(p, c_u2)
    for name, want in _chain_iv(p, c_u2).items():
        lo, hi = consts.enclosure[name]
        got = getattr(consts, name)
        assert lo <= want.a and want.b <= hi, (p, name)
        assert lo <= got <= hi
        assert abs(got - want.mid) <= 4e-15 * want.mid, (p, name)
        if p >= 12.5:
            assert hi - lo <= 1e-14 * lo, (p, name)


def test_certificate_below_50_digit_certificate():
    rng = np.random.default_rng(11)
    for p in (12.001, 12.5, 24.0, 1000.0):
        consts = decay.chain_constants(p, 1.0)
        exact = _chain_iv(p, 1.0)
        c1, c2 = (mpmath.mpf(exact[name].a) for name in ("c1", "c2"))
        for _ in range(50):
            a1 = float(rng.uniform(0.0, 10.0 ** rng.uniform(-2, 3)))
            sample = decay.DecaySample(
                a1, float(rng.uniform(0.0, a1)),
                complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)),
            )
            got = decay.norm_certificate([sample], consts)
            with mpmath.workdps(50):
                gap = mpmath.hypot(
                    mpmath.mpf(sample.value.real) - mpmath.mpf(sample.phi_inf.real),
                    mpmath.mpf(sample.value.imag) - mpmath.mpf(sample.phi_inf.imag),
                )
                radius = mpmath.hypot(sample.alpha1, sample.alpha2)
                want = gap * mpmath.exp(c2 * radius) / c1
            assert got <= want, (p, sample)
            assert got >= want * (1 - 1e-12 * max(1.0, float(c2 * radius)))


def test_default_head_matches_4096_terms():
    for p in (12.5, 24.0, 1000.0):
        a = decay.chain_constants(p, 1.0)
        b = decay.chain_constants(p, 1.0, series_terms=4096)
        for name in _NAMES:
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 1e-12 * vb, (p, name)


def test_c2_closed_form():
    consts = decay.chain_constants(24.0, 1.0)
    assert abs(consts.c2 - 0.125 / (32.0 * math.sqrt(2.0))) <= 1e-12
    assert_allclose(consts.c2, 2.7621e-3, rtol=1e-4)


def test_c2_monotone_toward_limit():
    ps = [12.1, 13.0, 20.0, 100.0, 1e6]
    vals = [decay.chain_constants(p, 1.0).c2 for p in ps]
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0
    assert vals[-1] < 0.25 / (32.0 * math.sqrt(2.0))


def test_geometric_ratio_closed_form():
    consts = decay.chain_constants(24.0, 1.0)
    assert_allclose(
        consts.c5_prime / consts.c5, 1.0 / (1.0 - math.exp(-1.0 / 64.0)), rtol=1e-13
    )


def test_chain_rejects_low_p():
    for p in (12.0, 11.0, 1.0):
        with pytest.raises(ValueError):
            decay.chain_constants(p, 1.0)


@pytest.mark.parametrize(
    "p, c_u2",
    [(math.inf, 1.0), (math.nan, 1.0), (24.0, math.nan), (24.0, math.inf), (24.0, 0.0)],
)
def test_chain_needs_finite_p_and_positive_c_u2(p, c_u2):
    # unchecked, p = inf yields c1 = c2 = NaN and c_u2 = NaN a certificate of 0.0
    with pytest.raises(ValueError):
        decay.chain_constants(p, c_u2)


def test_chain_rejects_overflowing_c_u2():
    # unchecked, c_u2 = 1e308 gives c1 = inf and a certificate of 0.0 (exit 0)
    for c_u2 in (1e307, 1e308, 1.7976931348623157e308):
        with pytest.raises(ValueError, match="overflows"):
            decay.chain_constants(24.0, c_u2)
    # up to the overflow every value and enclosure end stays finite
    for p in (12.5, 24.0, 1000.0):
        for c_u2 in np.geomspace(1e300, 1e308, 41):
            try:
                c = decay.chain_constants(p, float(c_u2))
            except ValueError:
                continue
            ends = [x for lo_hi in c.enclosure.values() for x in lo_hi]
            values = [getattr(c, name) for name in c.enclosure]
            assert all(map(math.isfinite, values + ends)), (p, c_u2)


def test_chain_positive_and_finite():
    for p in (12.5, 13.0, 16.0, 24.0, 48.0, 1000.0):
        c = decay.chain_constants(p, 1.0)
        for name in ("c_tilde", "c_hat", "c3", "c4", "c5", "c5_prime", "c6", "c1", "c2"):
            v = getattr(c, name)
            assert v > 0.0 and math.isfinite(v), (p, name)


def test_chain_reports_active_branches():
    c = decay.chain_constants(24.0, 1.0)
    assert set(c.branches) == {"c3", "c4", "c6", "c1"}
    assert c.c1 == max(c.c3, c.c4) + c.c6
    assert c.c5 == math.exp(1.0 / 16.0) * (c.c3 + c.c4)
    # floors from the small-argument regime of each comparison
    assert c.c3 >= 2.0 * math.exp(0.5)
    assert c.c4 >= 2.0 * math.exp(0.125)
    assert c.c6 >= 2.0 * math.exp(5.0 / 32.0)


def test_chain_continuity_in_p():
    for p in (12.6, 14.0, 30.0):
        a = decay.chain_constants(p, 1.0)
        b = decay.chain_constants(p + 1e-6, 1.0)
        for name in ("c_tilde", "c_hat", "c1", "c2"):
            va, vb = getattr(a, name), getattr(b, name)
            assert abs(va - vb) <= 1e-3 * abs(va)


def test_chain_stable_under_truncation_doubling():
    for p in (12.5, 24.0):
        a = decay.chain_constants(p, 1.0, series_terms=4096)
        b = decay.chain_constants(p, 1.0, series_terms=8192)
        assert abs(a.c_tilde - b.c_tilde) <= 1e-9 * a.c_tilde
        assert abs(a.c_hat - b.c_hat) <= 1e-9 * a.c_hat


def test_chain_scales_with_c_u2():
    a = decay.chain_constants(24.0, 1.0)
    b = decay.chain_constants(24.0, 2.0)
    assert_allclose(b.c_tilde, 2.0 * a.c_tilde, rtol=1e-13)
    assert b.c_hat == a.c_hat


def test_default_c_u2_uses_scan_with_safety_factor():
    from schur_harmonics.special_fn import empirical_u2_constant

    c = decay.chain_constants(24.0)
    assert_allclose(c.c_u2, 1.5 * empirical_u2_constant(), rtol=1e-13)


def test_certificate_trivial_cases():
    consts = decay.chain_constants(24.0, 1.0)
    zero = decay.norm_certificate(
        [decay.DecaySample(3.0, 1.0, 0.7 + 0.2j, 0.7 + 0.2j)], consts
    )
    assert zero == 0.0
    unit = decay.norm_certificate([decay.DecaySample(0.0, 0.0, 1.0, 0.0)], consts)
    assert_allclose(unit, 1.0 / consts.c1, rtol=1e-14)


def test_certificate_monotone_in_samples():
    consts = decay.chain_constants(24.0, 1.0)
    samples = [decay.DecaySample(float(k), 0.0, 1.0, 0.0) for k in range(5)]
    vals = [decay.norm_certificate(samples[: k + 1], consts) for k in range(5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_certificate_saturation_duality():
    consts = decay.chain_constants(24.0, 1.0)
    pts = [(0.0, 0.0), (3.0, 1.0), (10.0, 4.0), (25.0, 0.0)]
    samples = [
        decay.DecaySample(a1, a2, consts.c1 * math.exp(-consts.c2 * math.hypot(a1, a2)), 0.0)
        for a1, a2 in pts
    ]
    assert abs(decay.norm_certificate(samples, consts) - 1.0) <= 1e-12


def test_certificate_blowup_with_radius():
    consts = decay.chain_constants(24.0, 1.0)
    values = []
    for radius in (10.0, 50.0, 100.0):
        samples = [
            decay.DecaySample(radius, 0.0, 1.0, 0.0),
            decay.DecaySample(radius / 2.0, radius / 2.0, 1.0, 0.0),
        ]
        cert = decay.norm_certificate(samples, consts)
        assert_allclose(cert, math.exp(consts.c2 * radius) / consts.c1, rtol=1e-14)
        values.append(cert)
    assert values[0] < values[1] < values[2]


def test_certificate_needs_samples():
    consts = decay.chain_constants(24.0, 1.0)
    with pytest.raises(ValueError):
        decay.norm_certificate([], consts)


def test_sample_must_sit_in_chamber():
    with pytest.raises(ValueError):
        decay.DecaySample(1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        decay.DecaySample(1.0, -0.5, 0.0)


@pytest.mark.parametrize(
    "fields",
    [
        (math.nan, 0.0, 1.0),
        (1.0, math.nan, 1.0),
        (math.inf, 0.0, 1.0),
        (1.0, 0.0, complex(math.inf, 0.0)),
        (1.0, 0.0, complex(0.0, math.nan)),
        (1.0, 0.0, 1.0, math.nan),
    ],
)
def test_sample_must_be_finite(fields):
    with pytest.raises(ValueError, match="finite"):
        decay.DecaySample(*fields)


def test_constants_table_csv(tmp_path):
    path = tmp_path / "constants.csv"
    argv = ["constants", "--p-min", "12.5", "--p-max", "35.5", "--steps", "3", "--c-u2", "1.0"]
    assert cli.main([*argv, "-o", str(path)]) == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "p,C_tilde,C_hat,C3,C4,C5,C5p,C6,C1,C2"
    assert len(lines) == 4
    assert float(lines[2].split(",")[0]) == 24.0
