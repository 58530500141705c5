"""Finite-dimensional Schatten classes and Schur multipliers on them.

A Schur multiplier acts entrywise, X -> [psi_ij * x_ij].  Its operator norm
on the p-th Schatten class is estimated from below by maximizing the ratio
||psi o X||_p / ||X||_p with the p-norm power method on the unit sphere of
S^p, seeded with the best matrix unit and random restarts.  Every feasible
X certifies a lower bound, so the reported value is always a valid one, and
the matrix-unit seed guarantees the sup|psi| floor.  At p = 2 the multiplier
acts diagonally on the Hilbert-Schmidt basis of matrix units and the norm is
exactly max|psi_ij|.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from ._json_fields import json_int, json_square

__all__ = [
    "SearchConfig",
    "NormEstimate",
    "MultiplierSymbol",
    "schatten_norm",
    "ms_norm_lower",
    "cb_lower_bound",
    "symbol_to_json",
    "symbol_from_json",
]


GAIN_WINDOW = 20  # iterations over which an ascent run's gain is measured
AMPLIFICATION_CAP = 512  # largest side of an amplified symbol in cb_lower_bound


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the nonconvex ratio search.

    An ascent run converges when its relative objective gain over
    ``GAIN_WINDOW`` consecutive iterations drops below ``gain_tol``.
    ``warm_starts`` are extra seed witnesses (on top of the matrix-unit seed
    and ``restarts`` random ones).  Amplified searches are capped at side
    ``AMPLIFICATION_CAP``.
    """

    restarts: int = 32
    max_iter: int = 1500
    gain_tol: float = 1e-9
    seed: int = 0
    warm_starts: tuple = ()

    def __post_init__(self):
        if not (self.restarts >= 0 and self.max_iter >= 0 and self.gain_tol >= 0):
            raise ValueError("restarts, max_iter and gain_tol must be >= 0")


@dataclass
class NormEstimate:
    value: float
    witness: np.ndarray
    converged: bool
    iterations: int
    seed: int = 0


@dataclass
class MultiplierSymbol:
    """A complex symbol on a finite point grid."""

    values: np.ndarray

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


def _norm_and_gradient(y: np.ndarray, p: float, rng: np.random.Generator):
    """Schatten norm of y and its dual (gradient) witness.

    For finite p > 1 the witness is U diag((s/||y||)^(p-1)) V^*, which has
    unit S^q norm (1/p + 1/q = 1) and pairs to exactly ||y||_p; its weights
    are r^(p-1) (sum r^p)^((1-p)/p), r = s/s_1, as a rounded s/||y|| raised
    to p - 1 >> 1 would leave that sphere (a tie with s_1 gives r = 1
    exactly).  At p = inf it is the top singular dyad, with near-ties broken
    by a small random perturbation so the subgradient is well defined (the
    returned norm is that of y itself); at p = 1 it is U V^*.
    """
    u, s, vh = np.linalg.svd(y)
    if np.isinf(p):
        if s.size > 1 and s[0] > 0 and (s[0] - s[1]) <= 1e-12 * s[0]:
            bump = 1e-8 * s[0]
            u, _, vh = np.linalg.svd(
                y + bump * (rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape))
            )
        return float(s[0]), np.outer(u[:, 0], vh[0].conj())
    if p == 1.0:
        return float(np.sum(s)), u @ vh
    if s[0] == 0.0:
        return 0.0, np.zeros_like(y)
    r = s / s[0]
    total = np.sum(r**p)
    w = r ** (p - 1.0) * total ** ((1.0 - p) / p)
    return float(s[0] * total ** (1.0 / p)), (u * w) @ vh


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

    Each iteration is the p-norm power step: X becomes the S^q dual witness
    X' of G = conj(psi) o Y, Y the dual witness of psi o X.  X' has unit S^p
    norm, and since f(X) = ||psi o X||_p is convex with Re<G, X> = f(X),
    f(X') >= Re<G, X'> = ||G||_q >= f(X).  So a computed drop is rounding at
    a fixed point (or the p = inf tie bump): it ends the run as converged on
    the current X, which is therefore the best iterate.  Y is carried into
    the next iteration, so a step costs two SVDs.
    """
    q = _dual_exponent(p)
    x = np.array(x0, dtype=complex)
    nx = schatten_norm(x, p)
    if nx == 0.0:
        return 0.0, x, 0, True
    x /= nx
    val, y = _norm_and_gradient(psi_v * x, p, rng)
    history = [val]
    for it in range(1, cfg.max_iter + 1):
        grad = psi_v.conj() * y
        if not grad.any():
            return val, x, it, True
        _, x_pow = _norm_and_gradient(grad, q, rng)
        val_pow, y_pow = _norm_and_gradient(psi_v * x_pow, p, rng)
        if val_pow < val:
            return val, x, it, True
        x, val, y = x_pow, val_pow, y_pow
        history.append(val)
        if len(history) > GAIN_WINDOW:
            if val - history[-GAIN_WINDOW - 1] < cfg.gain_tol * max(val, 1e-300):
                return val, x, it, True
    return val, x, cfg.max_iter, False


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
    if m > 1 and n * m > AMPLIFICATION_CAP:
        raise ValueError(f"amplified size {n * m} exceeds cap {AMPLIFICATION_CAP}")
    base = ms_norm_lower(sym, p, cfg)
    if m == 1:
        return base.value
    big = np.kron(sym.values, np.ones((m, m)))
    embedded = np.zeros((n * m, n * m), dtype=complex)
    embedded[::m, ::m] = base.witness
    amp_cfg = replace(cfg, warm_starts=cfg.warm_starts + (embedded,))
    est = ms_norm_lower(MultiplierSymbol(big), p, amp_cfg)
    return max(est.value, base.value)


def symbol_to_json(sym: MultiplierSymbol) -> str:
    return json.dumps(
        {"n": sym.n, "re": sym.values.real.tolist(), "im": sym.values.imag.tolist()}
    )


def symbol_from_json(text: str) -> MultiplierSymbol:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("symbol JSON must be an object with fields n, re and im")
    n = json_int(obj["n"], "symbol size")
    re, im = (np.array(json_square(obj[f], n, "symbol " + f)) for f in ("re", "im"))
    return MultiplierSymbol(re + 1j * im)
