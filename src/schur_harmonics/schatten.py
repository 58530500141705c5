"""Finite-dimensional Schatten classes and Schur multipliers on them.

A Schur multiplier acts entrywise, X -> [psi_ij * x_ij].  Its operator norm
on the p-th Schatten class is estimated from below by maximizing the ratio
||psi o X||_p / ||X||_p with projected gradient ascent over the unit sphere
of S^p, seeded with the best matrix unit and random restarts.  Every feasible
X certifies a lower bound, so the reported value is always a valid one, and
the matrix-unit seed guarantees the sup|psi| floor.  At p = 2 the multiplier
acts diagonally on the Hilbert-Schmidt basis of matrix units and the norm is
exactly max|psi_ij|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "SearchConfig",
    "NormEstimate",
    "MultiplierSymbol",
    "schatten_norm",
    "schur_apply",
    "ms_norm_lower",
    "cb_lower_bound",
    "sample_symbol",
    "symbol_to_json",
    "symbol_from_json",
    "estimate_report",
]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the nonconvex ratio search.

    Convergence is declared when the relative objective gain over
    ``gain_window`` consecutive iterations drops below ``gain_tol``.
    ``warm_starts`` are extra seed witnesses (on top of the matrix-unit seed
    and ``restarts`` random ones).
    """

    restarts: int = 32
    max_iter: int = 1500
    gain_tol: float = 1e-9
    gain_window: int = 20
    seed: int = 0
    step0: float = 0.5
    warm_starts: tuple = ()
    amplification_cap: int = 512


@dataclass
class NormEstimate:
    value: float
    witness: np.ndarray
    converged: bool
    iterations: int
    seed: int = 0


@dataclass
class MultiplierSymbol:
    """A complex symbol on a finite point grid.

    ``row_points``/``col_points`` carry opaque labels when the symbol was
    sampled from a two-point function on a group; they play no numeric role.
    """

    values: np.ndarray
    row_points: tuple | None = None
    col_points: tuple | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.ndim != 2 or self.values.shape[0] != self.values.shape[1]:
            raise ValueError("symbol must be a square matrix")
        if not np.all(np.isfinite(self.values.real) & np.isfinite(self.values.imag)):
            raise ValueError("symbol entries must be finite")

    @property
    def n(self) -> int:
        return self.values.shape[0]


def _as_matrix(x, stack: bool = False) -> np.ndarray:
    a = np.asarray(x, dtype=complex)
    if a.ndim not in ((2, 3) if stack else (2,)) or a.shape[-1] != a.shape[-2]:
        raise ValueError("expected a square matrix" + (" or a (k, n, n) stack" if stack else ""))
    if not np.all(np.isfinite(a.real) & np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm via singular values; p = inf gives the operator norm.

    ``x`` is a square (n, n) matrix or a (k, n, n) stack of them; a stack
    stands for the block-diagonal operator with those blocks, whose singular
    values are the union of the blocks' singular values.
    """
    a = _as_matrix(x, stack=True)
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    s = np.linalg.svd(a, compute_uv=False)
    top = s.max() if s.size else 0.0
    if np.isinf(p) or top == 0.0:
        return float(top)
    # scaled by the largest singular value so s**p neither overflows nor underflows
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def schur_apply(psi, x) -> np.ndarray:
    """Entrywise product of a symbol with a matrix (inputs unmodified)."""
    psi_v = psi.values if isinstance(psi, MultiplierSymbol) else _as_matrix(psi)
    a = _as_matrix(x)
    if psi_v.shape != a.shape:
        raise ValueError("symbol and matrix dimensions differ")
    return psi_v * a


def _norm_and_gradient(y: np.ndarray, p: float, rng: np.random.Generator):
    """Schatten norm of y and its dual (gradient) witness.

    For finite p > 1 the witness is U diag((s/||y||)^(p-1)) V^*, which has
    unit S^q norm (1/p + 1/q = 1) and pairs to exactly ||y||_p.  At p = inf
    it is the top singular dyad, with near-ties broken by a small random
    perturbation so the subgradient is well defined; at p = 1 it is U V^*.
    """
    u, s, vh = np.linalg.svd(y)
    if np.isinf(p):
        if s.size > 1 and s[0] > 0 and (s[0] - s[1]) <= 1e-12 * s[0]:
            bump = 1e-8 * s[0]
            y = y + bump * (
                rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
            )
            u, s, vh = np.linalg.svd(y)
        return float(s[0]), np.outer(u[:, 0], vh[0].conj())
    if p == 1.0:
        return float(np.sum(s)), u @ vh
    if s[0] == 0.0:
        return 0.0, np.zeros_like(y)
    val = float(s[0] * np.sum((s / s[0]) ** p) ** (1.0 / p))
    w = (s / val) ** (p - 1.0)
    return val, (u * w) @ vh


def _dual_exponent(p: float) -> float:
    if np.isinf(p):
        return 1.0
    if p == 1.0:
        return np.inf
    return p / (p - 1.0)


def _ratio(psi_v: np.ndarray, x: np.ndarray, p: float) -> float:
    nx = schatten_norm(x, p)
    if nx == 0.0:
        return 0.0
    return schatten_norm(psi_v * x, p) / nx


def _ascend(psi_v, p, x0, cfg: SearchConfig, rng):
    """One ascent run from x0; returns (value, witness, iters, converged).

    Each iteration replaces X by the S^p-unit maximizer of the linearized
    objective Re<conj(psi) o Y, X>, where Y is the gradient witness of
    ||psi o X||_p.  By Hoelder this never decreases the objective, and it is
    exactly a projected gradient step with optimally rescaled singular
    values.  A plain additive gradient step is used as fallback whenever the
    rescaled step stalls.  The maximizer is the S^q dual witness of the
    gradient, which has unit S^p norm by construction, and the witness Y of an
    accepted point is carried into the next iteration, so an accepted power
    step costs two SVDs.
    """
    q = _dual_exponent(p)
    x = np.array(x0, dtype=complex)
    nx = schatten_norm(x, p)
    if nx == 0.0:
        return 0.0, x, 0, True
    x /= nx
    val, y = _norm_and_gradient(psi_v * x, p, rng)
    best_val, best_x = val, x.copy()
    history = [val]
    step = cfg.step0
    for it in range(1, cfg.max_iter + 1):
        grad = psi_v.conj() * y
        gn = np.linalg.norm(grad)
        if gn == 0.0:
            return best_val, best_x, it, True
        _, x_pow = _norm_and_gradient(grad, q, rng)
        val_pow, y_pow = _norm_and_gradient(psi_v * x_pow, p, rng)
        if val_pow >= val:
            x, val, y = x_pow, val_pow, y_pow
        else:
            x_new = x + step * grad / gn
            x_new /= schatten_norm(x_new, p)
            val_new, y_new = _norm_and_gradient(psi_v * x_new, p, rng)
            if val_new >= val:
                x, val, y = x_new, val_new, y_new
                step = min(step * 1.25, 4.0)
            else:
                step *= 0.4
        if val > best_val:
            best_val, best_x = val, x.copy()
        history.append(val)
        if len(history) > cfg.gain_window:
            ref = history[-cfg.gain_window - 1]
            if val - ref < cfg.gain_tol * max(val, 1e-300):
                return best_val, best_x, it, True
    return best_val, best_x, cfg.max_iter, False


def ms_norm_lower(psi, p: float, cfg: SearchConfig | None = None) -> NormEstimate:
    """Certified lower bound on the Schur multiplier norm on S^p_n.

    The returned value is the best ratio ||psi o X||_p / ||X||_p found, which
    bounds the true norm from below for every p.  At p = 2 the exact value
    max|psi_ij| is returned directly with the achieving matrix unit as
    witness.
    """
    cfg = cfg or SearchConfig()
    sym = psi if isinstance(psi, MultiplierSymbol) else MultiplierSymbol(np.asarray(psi))
    psi_v = sym.values
    n = sym.n
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")

    mags = np.abs(psi_v)
    i0, j0 = np.unravel_index(int(np.argmax(mags)), mags.shape)
    unit = np.zeros((n, n), dtype=complex)
    unit[i0, j0] = 1.0
    if mags[i0, j0] == 0.0:
        return NormEstimate(0.0, unit, True, 0, cfg.seed)
    if p == 2.0:
        return NormEstimate(float(mags[i0, j0]), unit, True, 0, cfg.seed)

    # Matrix unit (the sup|psi| floor), the symbol itself and the flat matrix
    # (good at nonsmooth p), caller warm starts, then random restarts.
    seeds = [unit, psi_v.copy(), np.ones((n, n), dtype=complex)]
    seeds += [np.asarray(w, dtype=complex) for w in cfg.warm_starts]
    ss = np.random.SeedSequence(cfg.seed)
    children = ss.spawn(cfg.restarts + 1)
    for child in children[1 : cfg.restarts + 1]:
        r = np.random.default_rng(child)
        seeds.append(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))

    runs = []
    for idx, x0 in enumerate(seeds):
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7919, idx)))
        runs.append(_ascend(psi_v, p, x0, cfg, rng))
    # Best value wins; max keeps the first, so a tie goes to the lowest seed index.
    value, witness, iters, conv = max(runs, key=lambda r: r[0])
    value = _ratio(psi_v, witness, p)  # reported value reproduces the witness ratio
    floor = float(mags[i0, j0])
    if value < floor:
        value, witness = floor, unit
    return NormEstimate(value, witness, conv, iters, cfg.seed)


def cb_lower_bound(psi, p: float, m: int, cfg: SearchConfig | None = None) -> float:
    """Lower bound after amplification by the m x m all-ones block symbol.

    Runs the ratio search on psi (x) 1_m, warm-started with the embedded
    witness of the unamplified search, so the result never drops below it.
    """
    cfg = cfg or SearchConfig()
    sym = psi if isinstance(psi, MultiplierSymbol) else MultiplierSymbol(np.asarray(psi))
    if m < 1:
        raise ValueError("amplification must be >= 1")
    n = sym.n
    if m > 1 and n * m > cfg.amplification_cap:
        raise ValueError(
            f"amplified size {n * m} exceeds cap {cfg.amplification_cap}"
        )
    base = ms_norm_lower(sym, p, cfg)
    if m == 1:
        return base.value
    big = np.kron(sym.values, np.ones((m, m)))
    embedded = np.zeros((n * m, n * m), dtype=complex)
    embedded[::m, ::m] = base.witness
    amp_cfg = replace(cfg, warm_starts=cfg.warm_starts + (embedded,))
    est = ms_norm_lower(MultiplierSymbol(big), p, amp_cfg)
    return max(est.value, base.value)


def sample_symbol(phi_check, points) -> MultiplierSymbol:
    """Sample a two-point function on a finite point set into a symbol.

    ``phi_check(x, y)`` must be evaluable at every pair; the (i, j) entry of
    the result is phi_check(points[i], points[j]).
    """
    pts = list(points)
    n = len(pts)
    vals = np.empty((n, n), dtype=complex)
    for i, xi in enumerate(pts):
        for j, yj in enumerate(pts):
            vals[i, j] = phi_check(xi, yj)
    return MultiplierSymbol(vals, tuple(pts), tuple(pts))


def symbol_to_json(sym: MultiplierSymbol) -> str:
    return json.dumps(
        {"n": sym.n, "re": sym.values.real.tolist(), "im": sym.values.imag.tolist()}
    )


def symbol_from_json(text: str) -> MultiplierSymbol:
    obj = json.loads(text)
    vals = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    if vals.shape != (obj["n"], obj["n"]):
        raise ValueError("symbol JSON has inconsistent dimensions")
    return MultiplierSymbol(vals)


def estimate_report(est: NormEstimate, include_witness: bool = False) -> dict:
    """JSON-ready search report (value/iterations/seed plus convergence)."""
    report = {
        "value": est.value,
        "iterations": est.iterations,
        "seed": est.seed,
        "converged": est.converged,
    }
    if include_witness:
        w = est.witness
        report["witness"] = {
            "n": w.shape[0],
            "re": w.real.tolist(),
            "im": w.imag.tolist(),
        }
    return report
