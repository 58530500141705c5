"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from schur_harmonics import coset_geometry as cg
from schur_harmonics import decay
from schur_harmonics import gelfand as gf
from schur_harmonics import schatten as sc
from schur_harmonics import special_fn as sf
from schur_harmonics import symplectic as sp


def _report(num, name, started, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail}, {time.perf_counter() - started:.1f}s)")


def _fail(num, name, started, detail):
    print(f"[criterion {num:02d}] {name}: FAIL ({detail}, {time.perf_counter() - started:.1f}s)")


def test_criterion_01_schatten_norm_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    ps = [1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, np.inf]
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lam = np.clip(np.linalg.eigvalsh(x.conj().T @ x), 0.0, None)
        for p in ps:
            if np.isinf(p):
                oracle = math.sqrt(lam[-1])
            else:
                oracle = float(np.sum(lam ** (p / 2.0)) ** (1.0 / p))
            worst = max(worst, abs(sc.schatten_norm(x, p) - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    (_report if ok else _fail)(
        1, "schatten norm vs eigenvalue oracle", t0,
        f"1000 matrices x 6 exponents, max |dev| {worst:.2e}",
    )
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_ms2_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        est = sc.ms_norm_lower(psi, 2.0)
        worst = max(worst, abs(est.value - np.abs(psi).max()))
    ok = worst <= 1e-6
    (_report if ok else _fail)(
        2, "exact multiplier norm at p = 2", t0,
        f"100 symbols, max |dev| {worst:.2e}",
    )
    assert worst <= 1e-6


def test_criterion_03_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    cfg_kwargs = dict(restarts=16, max_iter=1200)
    worst = 0.0
    for k in range(20):
        n = int(rng.integers(2, 7))
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for p, q in ((4.0, 4.0 / 3.0), (3.0, 1.5)):
            a = sc.ms_norm_lower(psi, p, sc.SearchConfig(seed=300 + k, **cfg_kwargs)).value
            b = sc.ms_norm_lower(psi, q, sc.SearchConfig(seed=600 + k, **cfg_kwargs)).value
            worst = max(worst, abs(a - b) / max(a, b))
    ok = worst <= 0.03
    (_report if ok else _fail)(
        3, "duality of search estimates", t0,
        f"20 symbols at (4, 4/3) and (3, 3/2), worst rel gap {worst:.2e}",
    )
    assert worst <= 0.03


def test_criterion_04_monotonicity_in_p():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_drop = 0.0
    for k in range(20):
        n = int(rng.integers(2, 7))
        psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        pool = ()
        prev = 0.0
        for p in (2.0, 3.0, 4.0, 6.0):
            est = sc.ms_norm_lower(
                psi, p,
                sc.SearchConfig(restarts=16, max_iter=1200, seed=400 + k, warm_starts=pool),
            )
            worst_drop = max(worst_drop, prev - est.value)
            pool = pool + (est.witness,)
            prev = est.value
    ok = worst_drop <= 1e-6
    (_report if ok else _fail)(
        4, "monotonicity of estimates in p", t0,
        f"20 symbols over p in {{2,3,4,6}}, worst drop {worst_drop:.2e}",
    )
    assert worst_drop <= 1e-6


def test_criterion_05_orthogonality():
    t0 = time.perf_counter()
    z, w = gf.disc_quadrature(40, 81)
    idxs = [(l, m) for l in range(11) for m in range(11)]
    h = np.array([sf.spherical_u2(l, m, z) for l, m in idxs])
    gram = (h * w) @ h.conj().T
    target = np.diag([1.0 / (l + m + 1) for l, m in idxs])
    dev_u2 = float(np.abs(gram - target).max())

    t, wt = np.polynomial.legendre.leggauss(64)
    vals = sf.legendre_all(30, t)
    gram_s = 0.5 * (vals * wt) @ vals.T
    target_s = np.diag([1.0 / (2 * n + 1) for n in range(31)])
    dev_su2 = float(np.abs(gram_s - target_s).max())

    elapsed = time.perf_counter() - t0
    ok = dev_u2 <= 1e-8 and dev_su2 <= 1e-8 and elapsed < 30.0
    (_report if ok else _fail)(
        5, "spherical orthogonality <h, h'> = delta/dim", t0,
        f"disc family dev {dev_u2:.2e} (deg 10), interval family dev {dev_su2:.2e} (deg 30)",
    )
    assert dev_u2 <= 1e-8
    assert dev_su2 <= 1e-8
    assert elapsed < 30.0


def test_criterion_06_kernel_spectral_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(106)
    worst = 0.0
    worst_drift = 0.0
    specs = []
    for _ in range(6):
        nmax = int(rng.integers(2, 6))
        coeffs = {
            n: 0.4 * complex(rng.standard_normal(), rng.standard_normal())
            for n in range(nmax + 1)
        }
        specs.append((gf.CoefficientSpectrum("su2", coeffs, nmax), nmax + 2, "su2"))
    for lmax in (1, 1, 2, 2):
        coeffs = {
            (l, m): 0.4 * complex(rng.standard_normal(), rng.standard_normal())
            for l in range(lmax + 1)
            for m in range(lmax + 1 - l)
        }
        specs.append((gf.CoefficientSpectrum("u2", coeffs, lmax), lmax + 2, "u2"))
    for spec, order, pair in specs:
        phi = gf.synthesize(spec)
        for p in (2.0, 3.0, 4.0):
            want = gf.lp_lower_bound(spec, p)
            coarse = gf.kernel_schatten_norm(phi, p, order, pair)
            fine = gf.kernel_schatten_norm(phi, p, 2 * order, pair)
            worst = max(worst, abs(coarse - want) / want, abs(fine - want) / want)
            worst_drift = max(worst_drift, abs(fine - coarse) / want)
    ok = worst <= 0.005 and worst_drift <= 0.005
    (_report if ok else _fail)(
        6, "discretized kernel matches coefficient sums", t0,
        f"10 spectra x p in {{2,3,4}}, worst rel dev {worst:.2e}, doubling drift {worst_drift:.2e}",
    )
    assert worst <= 0.005
    assert worst_drift <= 0.005


def test_criterion_07_legendre_hoelder_scan():
    t0 = time.perf_counter()
    report = sf.hoelder_bound_check("su2", 200, 2001)
    elapsed = time.perf_counter() - t0
    n_viol = len(report.violations)
    ok = n_viol == 0 and elapsed < 60.0
    (_report if ok else _fail)(
        7, "half-Hoelder bound with constant 4", t0,
        f"degrees 1..200 on a 2001-point grid, {n_viol} violations, "
        f"worst constant {report.empirical_constants['holder_half']:.4f}",
    )
    assert n_viol == 0
    assert elapsed < 60.0


def test_criterion_08_disc_family_scan_stability():
    t0 = time.perf_counter()
    rep1 = sf.hoelder_bound_check("u2", 40, 512)
    rep2 = sf.hoelder_bound_check("u2", 40, 1024)
    c1, c2 = rep1.empirical_c, rep2.empirical_c
    covers = all(row["empirical_C"] <= c1 + 1e-12 for row in rep1.rows)
    ok = c1 > 0 and np.isfinite(c1) and covers and abs(c2 - c1) <= 0.1 * c1
    (_report if ok else _fail)(
        8, "single empirical constant for both disc bounds", t0,
        f"C = {c1:.6f} at 512 points, {c2:.6f} at 1024",
    )
    assert c1 > 0 and np.isfinite(c1)
    assert covers
    assert abs(c2 - c1) <= 0.1 * c1


def test_criterion_09_kak_roundtrip():
    t0 = time.perf_counter()
    rng = np.random.default_rng(109)
    cases = []
    for _ in range(450):
        a1 = rng.uniform(0.0, 3.0)
        cases.append((a1, rng.uniform(0.0, a1)))
    for _ in range(25):
        a2 = rng.uniform(0.2, 2.0)
        cases.append((a2 + rng.uniform(0.0, 1e-8), a2))
    for _ in range(25):
        cases.append((rng.uniform(0.2, 3.0), rng.uniform(0.0, 1e-8)))
    worst_a = worst_r = 0.0
    for a1, a2 in cases:
        g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        worst_a = max(worst_a, abs(res.alpha1 - a1), abs(res.alpha2 - a2))
        worst_r = max(worst_r, res.residual)
    elapsed = time.perf_counter() - t0
    ok = worst_a <= 1e-8 and worst_r <= 1e-8 and elapsed < 20.0
    (_report if ok else _fail)(
        9, "KAK roundtrip incl. chamber-wall degeneracies", t0,
        f"500 cases, worst chamber dev {worst_a:.2e}, worst residual {worst_r:.2e}",
    )
    assert worst_a <= 1e-8
    assert worst_r <= 1e-8
    assert elapsed < 20.0


def test_criterion_10_solver_matrix_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(0.0, 2.5)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        rad = math.sqrt(rng.uniform(0.0, 1.0))
        a, b = rad * math.cos(theta), rad * math.sin(theta)
        beta, gamma = cg.solve_hyperbola(alpha, a, b)
        g = sp.d_alpha(alpha) @ sp.su2_element(a, b) @ sp.d_alpha(alpha)
        res = sp.kak_decompose(g)
        worst = max(worst, abs(res.alpha1 - beta), abs(res.alpha2 - gamma))
    for _ in range(200):
        alpha = rng.uniform(0.0, 2.5)
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
        worst = max(worst, abs(res.alpha1 - beta), abs(res.alpha2 - gamma))
    ok = worst <= 1e-6
    (_report if ok else _fail)(
        10, "sinh solvers vs matrix KAK", t0,
        f"200 + 200 instances, worst dev {worst:.2e}",
    )
    assert worst <= 1e-6


def test_criterion_11_inequalities_and_roundtrip():
    t0 = time.perf_counter()
    viol_st = 0
    for beta in np.linspace(0.0, 30.0, 300):
        for gamma in np.linspace(0.0, beta, 300):
            s, t = cg.solve_st(beta, gamma)
            if s < beta / 4.0 - 1e-9 or t < gamma / 2.0 - 1e-9:
                viol_st += 1
    viol_strip = 0
    worst_rt = 0.0
    for t in np.linspace(1.0, 20.0, 120):
        for s in np.linspace(t, 1.5 * t, 60):
            beta, gamma = cg.solve_bg(s, t)
            if abs(beta - 2 * s) > 1.0 or abs(gamma + 2 * s - 3 * t) > 1.0:
                viol_strip += 1
            s2, t2 = cg.solve_st(beta, gamma)
            worst_rt = max(
                worst_rt,
                abs(s2 - s) / max(1.0, s),
                abs(t2 - t) / max(1.0, t),
            )
    ok = viol_st == 0 and viol_strip == 0 and worst_rt <= 1e-9
    (_report if ok else _fail)(
        11, "chamber inequalities and solver roundtrip", t0,
        f"s>=beta/4,t>=gamma/2: {viol_st} violations on 300x300; "
        f"strip windows: {viol_strip} violations; roundtrip dev {worst_rt:.2e}",
    )
    assert viol_st == 0
    assert viol_strip == 0
    assert worst_rt <= 1e-9


def test_criterion_12_constant_chain():
    t0 = time.perf_counter()
    c24 = decay.chain_constants(24.0, 1.0)
    dev = abs(c24.c2 - 0.125 / (32.0 * math.sqrt(2.0)))
    all_fine = True
    for p in (12.5, 13.0, 16.0, 24.0, 48.0, 1000.0):
        c = decay.chain_constants(p, 1.0)
        for name in ("c_tilde", "c_hat", "c3", "c4", "c5", "c5_prime", "c6", "c1", "c2"):
            v = getattr(c, name)
            all_fine = all_fine and v > 0.0 and math.isfinite(v)
    with pytest.raises(ValueError):
        decay.chain_constants(12.0, 1.0)
    drift = 0.0
    for p in (12.5, 24.0):
        a = decay.chain_constants(p, 1.0, series_terms=4096)
        b = decay.chain_constants(p, 1.0, series_terms=8192)
        drift = max(
            drift,
            abs(a.c_tilde - b.c_tilde) / a.c_tilde,
            abs(a.c_hat - b.c_hat) / a.c_hat,
        )
    ok = dev <= 1e-12 and all_fine and drift <= 1e-9
    (_report if ok else _fail)(
        12, "decay constant chain", t0,
        f"C2(24) dev {dev:.1e}, all constants positive/finite, "
        f"p = 12 rejected, truncation-doubling drift {drift:.1e}",
    )
    assert dev <= 1e-12
    assert all_fine
    assert drift <= 1e-9


def test_criterion_13_certificate_blowup():
    t0 = time.perf_counter()
    consts = decay.chain_constants(24.0, 1.0)
    certs = []
    worst = 0.0
    for radius in (10.0, 50.0, 100.0):
        samples = [
            decay.DecaySample(radius, 0.0, 1.0, 0.0),
            decay.DecaySample(radius / 2.0, radius / 2.0, 1.0, 0.0),
            decay.DecaySample(radius / 2.0, 0.0, 1.0, 0.0),
        ]
        cert = decay.norm_certificate(samples, consts)
        expected = math.exp(consts.c2 * radius) / consts.c1
        worst = max(worst, abs(cert - expected) / expected)
        certs.append(cert)
    increasing = certs[0] < certs[1] < certs[2]
    ok = worst <= 1e-12 and increasing
    # The mechanism on display: a function pinned at 1 on a ball of radius R
    # with limit 0 must have multiplier norm >= exp(C2 R)/C1, which grows
    # without bound in R.  No uniformly bounded multiplier net can therefore
    # converge to the constant 1 along the chamber.
    (_report if ok else _fail)(
        13, "certificate blow-up on growing balls", t0,
        f"R in {{10, 50, 100}} -> certs {certs[0]:.3e} < {certs[1]:.3e} < {certs[2]:.3e}",
    )
    assert worst <= 1e-12
    assert increasing
