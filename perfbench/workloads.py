"""The four benchmark workloads: inputs from a seed, ops, and their checks.

Every workload is a closed loop with one client: the runner calls the ops of
a fixed batch (one "pass") one after another, each only after the previous
one returned.  An op is one call into a public function of the package,
looked up through its module attribute at call time so that the tracer's
wrappers see it.  Each op carries an independent check; a check returns
``None`` when the result is right and a reason string when it is wrong.

Inputs are made here, from the seed, with numpy alone; the package receives
only the generated numbers.  The one exception is ``norm-search``: its
symbols come from the recorded pool in ``norm_refs.json`` (made by
``make_norm_refs.py``), because each certificate is compared with the value
recorded for the same symbol, exponent and search seed.  The run seed
there sets the order of the pool.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from schur_harmonics import cli
from schur_harmonics import coset_geometry as cg
from schur_harmonics import decay, gelfand, schatten, special_fn, symplectic

HERE = Path(__file__).resolve().parent
NORM_REFS = HERE / "norm_refs.json"

# Relative slack on "at least the recorded reference": the reference is
# reproduced bit for bit at the commit that recorded it; later code may
# round differently in the last digits (ROADMAP item 2: equal within 1e-12).
REF_SLACK = 1e-12
WITNESS_TOL = 1e-10  # value vs witness ratio recomputed from eigvalsh
KERNEL_TOL = 0.005  # criterion 06
CHAMBER_TOL = 1e-6  # criterion 10
ROUNDTRIP_TOL = 1e-9  # criterion 11
SOLVER_TOL = 1e-9  # relative equation residual of the sinh solvers
EXTRACT_TOL = 1e-10  # re-extracted coefficients vs the originals
CHAIN_TOL = 1e-9  # decay constants vs the zeta-function oracle


@dataclass
class Op:
    kind: str
    call: object  # call(tracer) -> result
    check: object  # check(result, quality) -> None | reason


@dataclass
class Quality:
    """Accuracy figures the checks collect, one per workload family."""

    bound_vs_ref_min: float | None = None
    kernel_rel_dev_max: float | None = None
    chamber_err_max: float | None = None

    def ref_ratio(self, r):
        self.bound_vs_ref_min = r if self.bound_vs_ref_min is None else min(self.bound_vs_ref_min, r)

    def kernel_dev(self, d):
        self.kernel_rel_dev_max = d if self.kernel_rel_dev_max is None else max(self.kernel_rel_dev_max, d)

    def chamber_err(self, e):
        self.chamber_err_max = e if self.chamber_err_max is None else max(self.chamber_err_max, e)


@dataclass
class Workload:
    name: str
    ops: list
    warmup: list
    cleanup: object = None  # called once when the run is over

    def close(self):
        if self.cleanup is not None:
            self.cleanup()


# ---------------------------------------------------------------------------
# norm-search


def parse_p(raw: str) -> float:
    if raw == "inf":
        return math.inf
    num, _, den = raw.partition("/")
    return float(num) / float(den or 1)


def schatten_from_gram(y: np.ndarray, p: float) -> float:
    """Schatten norm from the eigenvalues of Y*Y (no SVD involved)."""
    lam = np.clip(np.linalg.eigvalsh(y.conj().T @ y), 0.0, None)
    s = np.sqrt(lam)
    if math.isinf(p):
        return float(s.max())
    return float(np.sum(s**p) ** (1.0 / p))


def load_norm_pool() -> list:
    with open(NORM_REFS) as fh:
        return json.load(fh)["entries"]


def norm_entry_call(entry):
    psi = np.asarray(entry["re"]) + 1j * np.asarray(entry["im"])
    p = parse_p(entry["p"])
    cfg = schatten.SearchConfig(
        restarts=entry["restarts"], max_iter=entry["max_iter"], seed=entry["cfg_seed"]
    )
    if entry["kind"] == "cb":
        m = entry["m"]
        return psi, p, lambda tr: schatten.cb_lower_bound(psi, p, m, cfg)
    return psi, p, lambda tr: schatten.ms_norm_lower(psi, p, cfg)


def _norm_op(entry) -> Op:
    psi, p, call = norm_entry_call(entry)
    ref = entry["value"]
    floor = float(np.abs(psi).max())

    def check(res, q: Quality):
        if entry["kind"] == "cb":
            value = float(res)
        else:
            value = res.value
            x = res.witness
            ratio = schatten_from_gram(psi * x, p) / schatten_from_gram(x, p)
            if abs(value - ratio) > WITNESS_TOL * value:
                return f"value {value!r} vs witness ratio {ratio!r}"
        q.ref_ratio(value / ref)
        if value < floor:
            return f"value {value!r} below max|psi| {floor!r}"
        if value < ref * (1.0 - REF_SLACK):
            return f"value {value!r} below reference {ref!r}"
        return None

    return Op("cb_lower_bound" if entry["kind"] == "cb" else "ms_norm_lower", call, check)


def build_norm_search(seed: int, size: str, root: Path) -> Workload:
    pool = load_norm_pool()
    if size == "tiny":
        pool = [e for e in pool if e["n"] <= 3][:4]
    order = np.random.default_rng(seed).permutation(len(pool))
    ops = [_norm_op(pool[i]) for i in order]
    small = min(range(len(pool)), key=lambda i: (pool[i]["n"], pool[i]["kind"] != "ms"))
    return Workload("norm-search", ops, [_norm_op(pool[small])])


# ---------------------------------------------------------------------------
# spectral-kernel


def _random_spectrum(rng, pair: str, deg: int) -> gelfand.CoefficientSpectrum:
    if pair == "u2":
        idx = [(l, m) for l in range(deg + 1) for m in range(deg + 1 - l)]
    else:
        idx = list(range(deg + 1))
    coeffs = {i: 0.4 * complex(rng.standard_normal(), rng.standard_normal()) for i in idx}
    return gelfand.CoefficientSpectrum(pair, coeffs, deg)


def _dim(pair, idx):
    return idx[0] + idx[1] + 1 if pair == "u2" else 2 * idx + 1


def _coeff_sum(coeffs: dict, pair: str, p: float) -> float:
    return math.fsum(abs(c) ** p * _dim(pair, i) for i, c in coeffs.items()) ** (1.0 / p)


def _spectrum_ops(spec: gelfand.CoefficientSpectrum) -> list:
    pair, deg = spec.pair, spec.truncation
    coeffs = dict(spec.coeffs)
    extract = "coefficients_u2" if pair == "u2" else "coefficients_su2"
    scale = max(abs(c) for c in coeffs.values())

    def call_extract(tr):
        phi = tr.evaluator(gelfand.synthesize(spec))
        return getattr(gelfand, extract)(phi, deg)

    def check_extract(res, q):
        if not set(coeffs) <= set(res.coeffs):
            return "re-extraction lost indices"
        worst = max(abs(c - coeffs.get(i, 0.0)) for i, c in res.coeffs.items())
        if worst > EXTRACT_TOL * scale:
            return f"re-extracted coefficients off by {worst:.3e}"
        return None

    ops = [Op(extract, call_extract, check_extract)]
    order = deg + 2
    for p in (2.0, 3.0, 4.0):
        want = _coeff_sum(coeffs, pair, p)

        def check_kernel(res, q, want=want, p=p):
            lp = gelfand.lp_lower_bound(spec, p)
            if abs(lp - want) > 1e-12 * want:
                return f"lp_lower_bound {lp!r} vs coefficient sum {want!r}"
            dev = abs(res - want) / want
            q.kernel_dev(dev)
            if dev > KERNEL_TOL:
                return f"kernel norm {res!r} vs coefficient sum {want!r}"
            return None

        for o in (order, 2 * order):

            def call_kernel(tr, p=p, o=o):
                phi = tr.evaluator(gelfand.synthesize(spec))
                return gelfand.kernel_schatten_norm(phi, p, o, pair)

            ops.append(Op("kernel_schatten_norm", call_kernel, check_kernel))
    return ops


def _builtin_u2_op(rng, L: int) -> Op:
    """coefficients_u2 of a z^k + b conj(z)^j + c, whose spectrum is known:
    z^k = h_{k,0} with <h_{k,0}, h_{k,0}> = 1/(k+1), so c_{k,0} = a/(k+1),
    c_{0,j} = b/(j+1), c_{0,0} = c and every other coefficient vanishes."""
    k, j = (int(x) for x in rng.integers(1, L + 1, size=2))
    a, b, c = (complex(*rng.standard_normal(2)) for _ in range(3))

    def phi(z):
        z = np.asarray(z, dtype=complex)
        return a * z**k + b * np.conj(z) ** j + c

    expect = {(0, 0): c}
    expect[(k, 0)] = expect.get((k, 0), 0) + a / (k + 1)
    expect[(0, j)] = expect.get((0, j), 0) + b / (j + 1)
    scale = abs(a) + abs(b) + abs(c)

    def call(tr):
        return gelfand.coefficients_u2(tr.evaluator(phi), L)

    def check(res, q):
        if not set(expect) <= set(res.coeffs):
            return "builtin spectrum lost indices"
        worst = max(abs(v - expect.get(i, 0.0)) for i, v in res.coeffs.items())
        if worst > EXTRACT_TOL * scale:
            return f"builtin coefficients off by {worst:.3e}"
        return None

    return Op("coefficients_u2", call, check)


def _legendre_constants(n: int, xs: np.ndarray) -> dict:
    """The su2 scan's per-degree constants from numpy's Legendre series."""
    vals = np.polynomial.legendre.legval(xs, np.eye(n + 1)[n])
    dp = np.abs(vals[:, None] - vals[None, :])
    dx = np.abs(xs[:, None] - xs[None, :])
    np.fill_diagonal(dx, 1.0)
    rn = math.sqrt(n)
    return {
        "uniform": dp.max() * rn,
        "lipschitz": (dp / dx).max() / rn,
        "holder_half": (dp / np.sqrt(dx)).max(),
    }


def _jacobi_at_zero(n: int, a: int, b: int) -> float:
    """P_n^(a,b)(0) from the explicit binomial sum."""
    return sum(
        math.comb(n + a, n - s) * math.comb(n + b, s) * (-1) ** s for s in range(n + 1)
    ) / 2**n


def _u2_scan_constants(l: int, m: int, grid: int) -> dict:
    k = abs(l - m)
    amp = 2.0 ** (-k / 2.0) * abs(_jacobi_at_zero(min(l, m), 0, k))
    d = np.arange(1, grid)
    dtheta = 2.0 * math.pi * d / grid
    dh = 2.0 * amp * np.abs(np.sin(k * dtheta / 2.0))
    dim = l + m + 1
    return {"lipschitz": (dh / dtheta).max() / dim**0.75, "uniform": dh.max() * dim**0.25 / 2.0}


def _hoelder_op(rng, family: str, max_degree: int, grid: int) -> Op:
    if family == "su2":
        picks = [int(n) for n in rng.integers(1, max_degree + 1, size=3)]
    else:
        picks = []
        for _ in range(3):
            l = int(rng.integers(0, max_degree + 1))
            picks.append((l, int(rng.integers(0, max_degree + 1 - l))))

    def call(tr):
        return special_fn.hoelder_bound_check(family, max_degree, grid)

    def check(res, q):
        rows = {}
        for r in res.rows:
            key = r["m_or_n"] if family == "su2" else (r["l"], r["m_or_n"])
            rows.setdefault(key, {})[r["bound_kind"]] = r["empirical_C"]
        if family == "su2":
            if res.violations or max(res.empirical_constants.values()) > 4.0:
                return "Legendre bound with constant 4 violated"
            xs = np.linspace(-0.5, 0.5, grid)
            want = {n: _legendre_constants(n, xs) for n in picks}
        else:
            want = {lm: _u2_scan_constants(*lm, grid) for lm in picks}
        for key, consts in want.items():
            for kind, v in consts.items():
                got = rows[key][kind]
                if abs(got - v) > 1e-9 * max(abs(v), 1.0):
                    return f"scan constant {kind} at {key} is {got!r}, oracle {v!r}"
        return None

    return Op("hoelder_bound_check", call, check)


def _haar_u2(rng, size: int) -> np.ndarray:
    z = rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2))
    out = np.empty_like(z)
    for i in range(size):
        q, r = np.linalg.qr(z[i])
        out[i] = q * (np.diag(r) / np.abs(np.diag(r)))
    return out


def _k_average_op(rng, subgroup: str, n_points: int, n_samples: int) -> Op:
    """k_average of a function already bi-invariant under the subgroup, so
    the average must return the function itself on the grid."""
    pts = _haar_u2(rng, n_points)
    a, b, c = (complex(*rng.standard_normal(2)) for _ in range(3))
    if subgroup == "u1":
        # (k g k')_00 = g_00 and |(k g k')_11| = |g_11| for k = diag(1, e^it)

        def phi(g):
            return a * g[..., 0, 0] + b * g[..., 0, 0] ** 2 + c * np.abs(g[..., 1, 1]) ** 2

    else:
        # det and tr(g g^T) are invariant under real rotations on both sides

        def phi(g):
            det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
            return a * det + b * np.einsum("...ij,...ij->...", g, g) + c

    sample_seed = int(rng.integers(0, 2**31))
    want = phi(np.einsum("iba,jbc->ijac", pts.conj(), pts))
    scale = abs(a) + abs(b) + abs(c)

    def call(tr):
        return gelfand.k_average(tr.evaluator(phi), pts, n_samples, sample_seed, subgroup)

    def check(res, q):
        err = float(np.abs(res.symbol.values - want).max())
        if err > 1e-11 * scale:
            return f"averaged invariant function moved by {err:.3e}"
        return None

    return Op("k_average", call, check)


def build_spectral_kernel(seed: int, size: str, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    if size == "tiny":
        u2_degs, su2_degs, n_builtin, L, holder, kavg = [0], [1], 1, 6, [("su2", 8, 101), ("u2", 4, 128)], ["u1"]
    else:
        u2_degs = [1, 0, 0, 0, 0, 0]
        su2_degs = [1, 2, 3, 4, 5, 5]
        n_builtin, L = 3, 24
        holder = [("su2", 100, 1001), ("u2", 40, 512)]
        kavg = ["u1", "so2", "u1", "so2"]
    ops = []
    for d in u2_degs:
        ops += _spectrum_ops(_random_spectrum(rng, "u2", d))
    for d in su2_degs:
        ops += _spectrum_ops(_random_spectrum(rng, "su2", d))
    ops += [_builtin_u2_op(rng, L) for _ in range(n_builtin)]
    ops += [_hoelder_op(rng, *h) for h in holder]
    ops += [_k_average_op(rng, g, 8, 24) for g in kavg]
    wrng = np.random.default_rng([seed, 1])
    warm = _spectrum_ops(_random_spectrum(wrng, "su2", 1))[:3] + [
        _builtin_u2_op(wrng, 4), _hoelder_op(wrng, "su2", 4, 101), _k_average_op(wrng, "u1", 2, 2)
    ]
    return Workload("spectral-kernel", ops, warm)


# ---------------------------------------------------------------------------
# chamber-geometry

_LOG2 = math.log(2.0)


def _ls(x: float) -> float:
    """log sinh x, written independently of the package's log_sinh."""
    if x == 0.0:
        return -math.inf
    return x - _LOG2 + math.log(-math.expm1(-2.0 * x))


def _lse(u: float, v: float) -> float:
    hi, lo = max(u, v), min(u, v)
    if lo == -math.inf:
        return hi
    return hi + math.log1p(math.exp(lo - hi))


def _rel(lhs: float, rhs: float) -> float:
    if lhs == rhs:
        return 0.0
    if math.isinf(lhs) or math.isinf(rhs):
        return math.inf
    return abs(math.expm1(lhs - rhs))


def _embed(u: np.ndarray) -> np.ndarray:
    a, b = u.real, u.imag
    return np.block([[a, -b], [b, a]])


def _haar_k(rng) -> np.ndarray:
    return _embed(_haar_u2(rng, 1)[0])


def _diag(a1: float, a2: float) -> np.ndarray:
    return np.diag([math.exp(a1), math.exp(a2), math.exp(-a1), math.exp(-a2)])


def _kak_op(g: np.ndarray, want) -> Op:
    """``want()`` gives the chamber pair to match: the solver's answer from
    the same instance, or the construction's own pair."""

    def call(tr):
        return symplectic.kak_decompose(g)

    def check(res, q):
        beta, gamma = want()
        err = max(abs(res.alpha1 - beta), abs(res.alpha2 - gamma))
        q.chamber_err(err)
        if err > CHAMBER_TOL:
            return f"KAK chamber ({res.alpha1!r}, {res.alpha2!r}) vs ({beta!r}, {gamma!r})"
        return None

    return Op("kak_decompose", call, check)


def _st_ops(beta: float, gamma: float) -> list:
    """solve_st with its equations checked, then the solve_bg roundtrip when
    gamma <= beta/2 (exactly where s >= t, the solve_bg domain)."""
    box = {}

    def call_st(tr):
        box["st"] = cg.solve_st(beta, gamma)
        return box["st"]

    def check_st(res, q):
        s, t = res
        r1 = _rel(_lse(2 * _ls(2 * s), 2 * _ls(s)), _lse(2 * _ls(beta), 2 * _ls(gamma)))
        r2 = _rel(_ls(2 * t) + _ls(t), _ls(beta) + _ls(gamma))
        if max(r1, r2) > SOLVER_TOL:
            return f"solve_st residuals {r1:.3e}, {r2:.3e} at ({beta!r}, {gamma!r})"
        if s < beta / 4 - 1e-9 or t < gamma / 2 - 1e-9:
            return "solve_st inequalities s >= beta/4, t >= gamma/2 violated"
        return None

    ops = [Op("solve_st", call_st, check_st)]
    if gamma <= beta / 2:

        def call_bg(tr):
            s, t = box.pop("st")
            return cg.solve_bg(s, min(t, s))

        def check_bg(res, q):
            tol = ROUNDTRIP_TOL * max(1.0, beta)
            if abs(res[0] - beta) > tol or abs(res[1] - gamma) > tol:
                return f"roundtrip ({res[0]!r}, {res[1]!r}) vs ({beta!r}, {gamma!r})"
            return None

        ops.append(Op("solve_bg", call_bg, check_bg))
    return ops


def _hyperbola_ops(rng) -> list:
    alpha = float(rng.uniform(0.0, 2.5))
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    rad = math.sqrt(float(rng.uniform(0.0, 1.0)))
    a, b = rad * math.cos(theta), rad * math.sin(theta)
    w = math.sqrt(max(0.0, 1.0 - a * a - b * b))
    u = _embed(np.array([[a + 1j * b, -w], [w, a - 1j * b]]))
    d = np.diag([math.exp(alpha), 1.0, math.exp(-alpha), 1.0])
    g = d @ u @ d
    box = {}

    def call(tr):
        box["bg"] = cg.solve_hyperbola(alpha, a, b)
        return box["bg"]

    def check(res, q):
        beta, gamma = res
        if not beta >= gamma >= 0:
            return "hyperbola solution outside the chamber"
        s2 = a * a + b * b
        want = 2 * _ls(alpha) + math.log(1 - s2) if s2 < 1 else -math.inf
        r1 = _rel(_ls(beta) + _ls(gamma), want)
        diff = math.sinh(beta) - math.sinh(gamma)
        r2 = abs(diff - math.sinh(2 * alpha) * abs(a)) / max(1.0, math.sinh(beta))
        if max(r1, r2) > SOLVER_TOL:
            return f"hyperbola residuals {r1:.3e}, {r2:.3e}"
        return None

    oracle = _hyperbola_oracle(alpha, a, b)
    ops = [Op("solve_hyperbola", call, check), _kak_op(g, lambda: box.get("bg", oracle))]
    return ops + _st_ops(*oracle)


def _hyperbola_oracle(alpha, a, b):
    """Chamber pair from the hyperbola equations, via the quadratic in sinh."""
    A = math.sinh(alpha) ** 2 * max(0.0, 1 - a * a - b * b)
    B = math.sinh(2 * alpha) * abs(a)
    sb = (B + math.sqrt(B * B + 4 * A)) / 2
    return math.asinh(sb), (math.asinh(A / sb) if sb > 0 else 0.0)


def _circle_ops(rng) -> list:
    alpha = float(rng.uniform(0.0, 2.5))
    v = rng.standard_normal(4)
    v /= np.linalg.norm(v)
    r = float(v[0] ** 2 - v[1] ** 2 + v[2] ** 2 - v[3] ** 2)
    u = _embed(np.array([[v[0] + 1j * v[1], -v[2] + 1j * v[3]], [v[2] + 1j * v[3], v[0] - 1j * v[1]]]))
    c = (1.0 + 1.0j) / math.sqrt(2.0)
    vk = _embed(np.diag([c, c]))
    e = math.exp(alpha)
    d = np.diag([e, e, 1 / e, 1 / e])
    g = d @ u @ vk @ d
    box = {}

    def call(tr):
        box["bg"] = cg.solve_circle(alpha, r)
        return box["bg"]

    def check(res, q):
        beta, gamma = res
        if not beta >= gamma >= 0:
            return "circle solution outside the chamber"
        s = 2 * _ls(2 * alpha) if alpha > 0 else -math.inf
        r1 = _rel(_lse(2 * _ls(beta), 2 * _ls(gamma)), s)
        want = s + math.log(abs(r) / 2) if r != 0 and alpha > 0 else -math.inf
        r2 = _rel(_ls(beta) + _ls(gamma), want)
        if max(r1, r2) > SOLVER_TOL:
            return f"circle residuals {r1:.3e}, {r2:.3e}"
        return None

    sq = math.sinh(2 * alpha) ** 2
    root = math.sqrt(max(0.0, 1 - r * r))
    oracle = (
        math.asinh(math.sqrt(sq / 2 * (1 + root))),
        math.asinh(math.sqrt(sq / 2 * r * r / (1 + root))),
    )
    ops = [Op("solve_circle", call, check), _kak_op(g, lambda: box.get("bg", oracle))]
    return ops + _st_ops(*oracle)


def _wide_ops(rng, a_max: float) -> list:
    a1 = float(rng.uniform(0.0, a_max))
    a2 = float(rng.uniform(0.0, a1))
    g = _haar_k(rng) @ _diag(a1, a2) @ _haar_k(rng)
    return [_kak_op(g, lambda: (a1, a2))]


def _chain_oracle(p: float, c_u2: float) -> dict:
    """The decay-constant chain, with both series from mpmath's zeta."""
    import mpmath

    eps_u = 0.125 - 1.5 / p
    kappa_u = 2.0 + p * eps_u - p / 4.0
    c_tilde = 2.0 ** (1.0 - eps_u) * c_u2 * float(mpmath.zeta(-kappa_u)) ** (1.0 / p)
    kappa_s = -p / 4.0
    c_hat = 4.0 * (3.0**kappa_s * float(mpmath.zeta(-kappa_s))) ** (1.0 / p)
    c3 = max(c_hat * 2.0 ** (0.25 - 1.0 / p), 2.0 * math.exp(0.5))
    c4 = max(c_tilde, 2.0 * math.exp(0.125))
    c5 = math.exp(1.0 / 16.0) * (c3 + c4)
    c6 = max(c5 / (1.0 - math.exp(-(0.25 - 3.0 / p) / 8.0)), 2.0 * math.exp(5.0 / 32.0))
    c1 = max(c3, c4) + c6
    c2 = (0.25 - 3.0 / p) / (32.0 * math.sqrt(2.0))
    return {"c_tilde": c_tilde, "c_hat": c_hat, "c1": c1, "c2": c2}


def _certificate_ops(rng, p: float, oracle: dict) -> list:
    pts = []
    for _ in range(3):
        a1 = float(rng.uniform(0.0, 60.0))
        pts.append((a1, float(rng.uniform(0.0, a1)), complex(*rng.standard_normal(2))))
    phi_inf = complex(*rng.standard_normal(2)) * 0.1
    box = {}

    def call_chain(tr):
        box["c"] = decay.chain_constants(p, 1.0)
        return box["c"]

    def check_chain(res, q):
        for k, v in oracle.items():
            got = getattr(res, k)
            if abs(got - v) > CHAIN_TOL * abs(v):
                return f"chain constant {k} = {got!r}, oracle {v!r}"
        return None

    def call_cert(tr):
        samples = [decay.DecaySample(a1, a2, v, phi_inf) for a1, a2, v in pts]
        return decay.norm_certificate(samples, box.pop("c"))

    want = max(
        abs(v - phi_inf) * math.exp(oracle["c2"] * math.hypot(a1, a2)) / oracle["c1"]
        for a1, a2, v in pts
    )

    def check_cert(res, q):
        if abs(res - want) > CHAIN_TOL * want:
            return f"certificate {res!r}, oracle {want!r}"
        return None

    return [Op("chain_constants", call_chain, check_chain), Op("norm_certificate", call_cert, check_cert)]


def build_chamber_geometry(seed: int, size: str, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    k = 1 if size == "tiny" else 16
    n_hyp, n_circ, n_wide, n_st, n_cert = 25 * k, 25 * k, 40 * k, 40 * k, 4 * k
    p_grid = np.linspace(12.5, 48.0, n_cert)
    oracles = {float(p): _chain_oracle(float(p), 1.0) for p in p_grid}
    instances = [_hyperbola_ops(rng) for _ in range(n_hyp)]
    instances += [_circle_ops(rng) for _ in range(n_circ)]
    instances += [_wide_ops(rng, 8.0) for _ in range(n_wide)]
    for i in range(n_st):
        # half of the pairs reach the advertised range (beta up to ~700),
        # half stay small; half are ordered (gamma <= beta/2) for the roundtrip
        beta = float(rng.uniform(0.0, 700.0 if i % 2 else 10.0))
        gamma = float(rng.uniform(0.0, beta / 2 if i % 4 < 2 else beta))
        instances.append(_st_ops(beta, gamma))
    instances += [_certificate_ops(rng, float(p), oracles[float(p)]) for p in p_grid]
    # Shuffle whole instances, not ops: an instance's solver op fills the
    # box that its KAK check and roundtrip op read.
    ops = [op for i in rng.permutation(len(instances)) for op in instances[i]]
    wrng = np.random.default_rng([seed, 1])
    warm = _hyperbola_ops(wrng) + _circle_ops(wrng) + _wide_ops(wrng, 1.0)
    warm += _certificate_ops(wrng, 24.0, _chain_oracle(24.0, 1.0))
    return Workload("chamber-geometry", ops, warm)


# ---------------------------------------------------------------------------
# cli-session


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def cli_inputs(rng, tmp: Path) -> dict:
    n = 3
    psi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a1 = float(rng.uniform(0.5, 2.0))
    g = _haar_k(rng) @ _diag(a1, float(rng.uniform(0.0, a1))) @ _haar_k(rng)
    spec_u2 = _random_spectrum(rng, "u2", 2)
    spec_su2 = _random_spectrum(rng, "su2", 4)
    samples = [
        {"alpha1": a, "alpha2": float(rng.uniform(0.0, a)), "re": float(rng.standard_normal()), "im": 0.0}
        for a in rng.uniform(5.0, 80.0, size=4).tolist()
    ]
    return {
        "psi": _write(tmp / "psi.json", {"n": n, "re": psi.real.tolist(), "im": psi.imag.tolist()}),
        "g": _write(tmp / "g.json", {"rows": g.tolist()}),
        "spec_u2": str(_text(tmp / "spec_u2.json", gelfand.spectrum_to_json(spec_u2))),
        "spec_su2": str(_text(tmp / "spec_su2.json", gelfand.spectrum_to_json(spec_su2))),
        "samples": _write(tmp / "samples.json", {"phi_inf": {"re": 0.0, "im": 0.0}, "samples": samples}),
        "alpha": float(rng.uniform(0.1, 2.0)),
        "a": float(rng.uniform(-0.6, 0.6)),
        "b": float(rng.uniform(-0.6, 0.6)),
        "r": float(rng.uniform(-1.0, 1.0)),
        "beta": float(rng.uniform(1.0, 600.0)),
        "gamma_frac": float(rng.uniform(0.0, 1.0)),
        "s": float(rng.uniform(1.0, 20.0)),
        "t_frac": float(rng.uniform(0.3, 1.0)),
        "seed": int(rng.integers(0, 10_000)),
    }


def _text(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def cli_argvs(inp: dict, tmp: Path) -> list:
    """(label, argv, output files) for every subcommand but xcheck."""
    o = lambda name: str(tmp / name)  # noqa: E731
    seed = str(inp["seed"])
    # --tol 0 runs every restart for exactly --max-iter steps, so the cost of
    # the norm subcommands does not depend on how fast a seed's symbol
    # converges; the few steps keep the search from drowning the CLI's own cost
    fast = ["--restarts", "1", "--max-iter", "3", "--tol", "0"]
    return [
        ("norm", ["norm", "--in", inp["psi"], "--p", "4", "--seed", seed, *fast, "-o", o("norm.json")], ["norm.json"]),
        ("norm-amplify", ["norm", "--in", inp["psi"], "--p", "3", "--seed", seed, "--amplify", "2", *fast, "-o", o("norm2.json")], ["norm2.json"]),
        ("kak", ["kak", "--in", inp["g"], "-o", o("kak.json")], ["kak.json"]),
        ("solve-hyperbola", ["solve", "hyperbola", "--alpha", repr(inp["alpha"]), "--a", repr(inp["a"]), "--b", repr(inp["b"]), "-o", o("hyp.json")], ["hyp.json"]),
        ("solve-circle", ["solve", "circle", "--alpha", repr(inp["alpha"]), "--r", repr(inp["r"]), "-o", o("circ.json")], ["circ.json"]),
        ("solve-st", ["solve", "st", "--beta", repr(inp["beta"]), "--gamma", repr(inp["beta"] * inp["gamma_frac"]), "-o", o("st.json")], ["st.json"]),
        ("solve-bg", ["solve", "bg", "--s", repr(inp["s"]), "--t", repr(inp["s"] * inp["t_frac"]), "-o", o("bg.json")], ["bg.json"]),
        ("coeffs-u2", ["coeffs", "--family", "u2", "-L", "4", "--spectrum", inp["spec_u2"], "--p", "4", "--csv", o("cu2.csv"), "-o", o("cu2.json")], ["cu2.json", "cu2.csv"]),
        ("coeffs-su2", ["coeffs", "--family", "su2", "-L", "6", "--spectrum", inp["spec_su2"], "--p", "3", "-o", o("csu2.json")], ["csu2.json"]),
        ("holder-u2", ["holder", "--family", "u2", "--max-degree", "12", "--grid", "128", "-o", o("holder.csv")], ["holder.csv"]),
        ("constants", ["constants", "--p-min", "12.5", "--p-max", "48", "--steps", "16", "--c-u2", "1.0", "-o", o("const.csv")], ["const.csv"]),
        ("certify", ["certify", "--samples", inp["samples"], "--p", "24", "--c-u2", "1.0", "-o", o("cert.json")], ["cert.json"]),
        ("certify-default-c", ["certify", "--samples", inp["samples"], "--p", "24", "-o", o("cert2.json")], ["cert2.json"]),
    ]


def xcheck_argv(seed: int, tmp: Path) -> tuple:
    return ("xcheck", ["xcheck", "--count", "8", "--seed", str(seed), "-o", str(tmp / "xcheck.csv")], ["xcheck.csv"])


def _cli_op(label: str, argv: list, outputs: list, tmp: Path, golden: dict) -> Op:
    paths = [tmp / f for f in outputs]

    def call(tr):
        for path in paths:
            if path.exists():
                path.unlink()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"{label}: exit code {code}")
        return (buf.getvalue(), tuple(path.read_bytes() for path in paths))

    key = tuple(argv)

    def check(res, q):
        if key not in golden:
            golden[key] = res
            return None
        if res != golden[key]:
            return f"{label}: output differs from the first run"
        return None

    return Op("cli." + label, call, check)


def build_cli_session(seed: int, size: str, root: Path) -> Workload:
    rng = np.random.default_rng(seed)
    scratch = root / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    inp = cli_inputs(rng, tmp)
    golden: dict = {}
    shared = [_cli_op(label, argv, outs, tmp, golden) for label, argv, outs in cli_argvs(inp, tmp)]
    rounds = 1 if size == "tiny" else 20
    # Each round runs xcheck on its own seed: a call exits 3 as soon as one
    # of its KAKs exceeds the absolute residual tolerance, which happens for
    # about one seed in ten, so a pass holds a share of failures rather than
    # all or none of them.
    xchecks = [_cli_op(*xcheck_argv(inp["seed"] + r, tmp), tmp, golden) for r in range(rounds)]
    ops = [op for r in range(rounds) for op in [*shared, xchecks[r]]]

    def cleanup():
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    # The warm-up calls each subcommand once.  One xcheck is enough: how long
    # an xcheck takes depends on its seed (it stops at the first failing
    # KAK), and twenty of them would make setup_s follow the seed.
    return Workload("cli-session", ops, shared + xchecks[:1], cleanup)


WORKLOADS = {
    "norm-search": build_norm_search,
    "spectral-kernel": build_spectral_kernel,
    "chamber-geometry": build_chamber_geometry,
    "cli-session": build_cli_session,
}


def trace_targets() -> list:
    """(span name, module, attribute) for every binding the tracer wraps."""
    import numpy.linalg

    t = [
        ("schatten.ms_norm_lower", schatten, "ms_norm_lower"),
        ("schatten.ms_norm_lower", gelfand, "ms_norm_lower"),
        ("schatten.cb_lower_bound", schatten, "cb_lower_bound"),
        ("schatten.schatten_norm", schatten, "schatten_norm"),
        ("schatten.schatten_norm", gelfand, "schatten_norm", kernel_observer),
        ("*.svd", numpy.linalg, "svd"),
        ("special_fn.jacobi_all", gelfand, "jacobi_all"),
        ("special_fn.jacobi_all", special_fn, "jacobi_all"),
        ("special_fn.hoelder_bound_check", special_fn, "hoelder_bound_check"),
        ("symplectic.kak_decompose", symplectic, "kak_decompose"),
        ("cli.main", cli, "main"),
        ("cli.build_parser", cli, "build_parser"),
    ]
    for fn in ("kernel_schatten_norm", "coefficients_u2", "coefficients_su2", "synthesize", "k_average"):
        t.append((f"gelfand.{fn}", gelfand, fn))
    for fn in ("solve_st", "solve_bg", "solve_hyperbola", "solve_circle"):
        t.append((f"coset_geometry.{fn}", cg, fn))
    for fn in ("chain_constants", "norm_certificate"):
        t.append((f"decay.{fn}", decay, fn))
    return t


def kernel_observer(tracer, args, kwargs):
    """Dense kernel size as gelfand hands it to schatten_norm."""
    a = args[0]
    n = int(np.shape(a)[0])
    tracer.counters["gelfand.kernel.dense_n_max"] = max(tracer.counters.get("gelfand.kernel.dense_n_max", 0), n)
    tracer.count("gelfand.kernel.bytes_computed", int(np.asarray(a).nbytes))
