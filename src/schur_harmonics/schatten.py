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
STACK_BYTES = 1 << 22  # largest stack of starts one ascent runs at once, in bytes


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


def _largest_part(a: np.ndarray) -> np.ndarray:
    """Largest |re| or |im| entry of each block of a (k, n, n) stack.

    Not the largest |entry|, which overflows from about 1.3e308.
    """
    return np.abs(np.ascontiguousarray(a).view(float)).max(axis=(1, 2), initial=0.0)


def schatten_norm(x, p: float) -> float:
    """Schatten p-norm via singular values; p = inf gives the operator norm.

    ``x`` is a square (n, n) matrix or a (k, n, n) stack of them; a stack
    stands for the block-diagonal operator with those blocks, whose singular
    values are the union of the blocks' singular values.

    A stack leaves out of its SVD every block whose largest |re| or |im|
    entry is at most n eps M, M the stack's largest such entry.  Such a
    block B has ||B||_2 <= ||B||_F <= sqrt(2) n^2 eps M: its singular values
    lie below the backward error of the float SVD of the stack, which is
    about n eps ||X||_2 with ||X||_2 >= M.  By the triangle inequality, the
    d blocks left out move the value by at most their joint S^p norm,
    sqrt(2) n^2 eps M (d n)^(1/p), and the value is at least M; at p = inf
    the largest singular value is never in a block left out.
    """
    a = _as_matrix(x, stack=True)
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    if a.ndim == 3:
        big = _largest_part(a)
        a = a[big > a.shape[-1] * np.finfo(float).eps * big.max(initial=0.0)]
    s = np.linalg.svd(a, compute_uv=False)
    top = s.max() if s.size else 0.0
    if np.isinf(p) or top == 0.0:
        return float(top)
    # scaled by the largest singular value so s**p neither overflows nor underflows
    return float(top * np.sum((s / top) ** p) ** (1.0 / p))


def _norm_and_gradient(y: np.ndarray, p: float, rng):
    """Schatten norms and dual (gradient) witnesses of a (k, n, n) stack y.

    Returns the k norms and the (k, n, n) witnesses, from one stacked SVD.
    For finite p > 1 a row's witness is U diag((s/||y||)^(p-1)) V^*, which
    has unit S^q norm (1/p + 1/q = 1) and pairs to exactly ||y||_p; its
    weights are r^(p-1) (sum r^p)^((1-p)/p), r = s/s_1, as a rounded s/||y||
    raised to p - 1 >> 1 would leave that sphere (a tie with s_1 gives r = 1
    exactly), and a zero row gets a zero witness.  At p = inf it is the top
    singular dyad, with near-ties broken by a small random perturbation so
    the subgradient is well defined (the returned norm is that of y itself);
    ``rng(i)`` is the Generator of row i, asked for only when that row is
    tied.  At p = 1 it is U V^*.
    """
    u, s, vh = np.linalg.svd(y)
    top = s[:, 0]
    if np.isinf(p):
        if y.shape[-1] > 1:
            tied = np.flatnonzero((top > 0) & (top - s[:, 1] <= 1e-12 * top))
            if tied.size:
                shape, noise = y.shape[1:], []
                for i in tied:
                    g = rng(i)
                    noise.append(g.standard_normal(shape) + 1j * g.standard_normal(shape))
                bump = 1e-8 * top[tied, None, None]
                u[tied], _, vh[tied] = np.linalg.svd(y[tied] + bump * np.array(noise))
        return top, u[:, :, :1] * vh[:, :1].conj()
    if p == 1.0:
        return s.sum(axis=1), u @ vh
    norms, r, total = _row_norms(s, p)
    scale = np.zeros(len(s))
    for i in np.flatnonzero(total):
        scale[i] = total[i] ** ((1.0 - p) / p)
    w = r ** (p - 1.0) * scale[:, None]
    return norms, (u * w[:, None, :]) @ vh


def _row_norms(s: np.ndarray, p: float):
    """S^p norms of the rows of a stack from their (k, n) singular values s.

    For finite p, by schatten_norm's formula bit for bit: its last power is
    a scalar one per row, as numpy's array pow can differ from libm's in the
    last ulp.  Also returns r = s/s_1 and the row sums of r^p (0 on a zero
    row, whose norm is 0).
    """
    top = s[:, 0]
    r = s / np.where(top > 0, top, 1.0)[:, None]
    total = (r**p).sum(axis=1)
    norms = np.zeros(len(s))
    for i in np.flatnonzero(total):
        norms[i] = top[i] * total[i] ** (1.0 / p)
    return norms, r, total


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


def _ascend(psi_v, p, x0, cfg: SearchConfig, first: int = 0) -> list:
    """Ascent runs from the (k, n, n) stack of starts x0, all at once.

    Returns (value, witness, iters, converged) per start, in order.  Each
    iteration is the p-norm power step: X becomes the S^q dual witness X' of
    G = conj(psi) o Y, Y the dual witness of psi o X.  X' has unit S^p norm,
    and since f(X) = ||psi o X||_p is convex with Re<G, X> = f(X),
    f(X') >= Re<G, X'> = ||G||_q >= f(X).  So a computed drop is rounding at
    a fixed point (or the p = inf tie bump): it ends the run as converged on
    the current X, which is therefore the best iterate.  Y is carried into
    the next iteration, so a step costs two stacked SVDs for all running
    starts.  A run also ends on a zero gradient, when its gain over
    ``GAIN_WINDOW`` iterations falls below ``cfg.gain_tol``, or after
    ``cfg.max_iter`` iterations, and then leaves the stack; rows never
    interact, so each start gets the result it would get alone.  Start i is
    start ``first + i`` of its search: its tie bumps draw from the Generator
    of ``SeedSequence((cfg.seed, 7919, first + i))``.
    """
    q = _dual_exponent(p)
    # psi as a (1, n, n) stack: a 1 x 1 matrix times a (1, 1, 1) stack runs
    # another numpy loop, which rounds otherwise, than two stacks or two matrices
    psi_v = psi_v[None]
    out = [None] * len(x0)
    rngs = {}

    def rng(i):  # the Generator of stack row i, built the first time it is asked for
        j = first + int(ids[i])
        if j not in rngs:
            rngs[j] = np.random.default_rng(np.random.SeedSequence((cfg.seed, 7919, j)))
        return rngs[j]

    def leave(stop, iters, converged):  # record the stopping rows; mask of the others
        for i in np.flatnonzero(stop):
            out[ids[i]] = (float(val[i]), x[i].copy(), iters, converged)
        return ~stop

    ids = np.arange(len(x0))
    x = np.array(x0, dtype=complex)
    # Each start is scaled by the power of two that puts its largest |re| or
    # |im| in [1/2, 1), exactly: a subnormal start's norm would have an
    # infinite reciprocal.  Where LAPACK does not scale the matrix itself
    # (largest entry within about 1e-138 .. 1e138), x / ||x||_p keeps its bits.
    _, e = np.frexp(_largest_part(x))
    np.ldexp(x.view(float), -e[:, None, None], out=x.view(float))
    s = np.linalg.svd(x, compute_uv=False)
    val = s[:, 0] if np.isinf(p) else _row_norms(s, p)[0]  # as schatten_norm(x[i], p)
    keep = leave(val == 0.0, 0, True)
    ids, x = ids[keep], x[keep] / val[keep, None, None]
    val, y = _norm_and_gradient(psi_v * x, p, rng)
    history = np.empty((len(ids), GAIN_WINDOW + 1))  # ring buffer of values
    history[:, 0] = val
    for it in range(1, cfg.max_iter + 1):
        if not ids.size:
            break
        grad = psi_v.conj() * y
        keep = leave(~grad.any(axis=(1, 2)), it, True)
        ids, x, val, grad, history = ids[keep], x[keep], val[keep], grad[keep], history[keep]
        _, x_pow = _norm_and_gradient(grad, q, rng)
        val_pow, y_pow = _norm_and_gradient(psi_v * x_pow, p, rng)
        keep = leave(val_pow < val, it, True)
        ids, history = ids[keep], history[keep]
        x, val, y = x_pow[keep], val_pow[keep], y_pow[keep]
        history[:, it % (GAIN_WINDOW + 1)] = val
        if it >= GAIN_WINDOW:
            gain = val - history[:, (it + 1) % (GAIN_WINDOW + 1)]  # since iteration it - GAIN_WINDOW
            keep = leave(gain < cfg.gain_tol * np.maximum(val, 1e-300), it, True)
            ids, x, val, y, history = ids[keep], x[keep], val[keep], y[keep], history[keep]
    leave(np.ones(len(ids), dtype=bool), cfg.max_iter, False)
    return out


def ms_norm_lower(psi, p: float, cfg: SearchConfig | None = None) -> NormEstimate:
    """Certified lower bound on the Schur multiplier norm on S^p_n.

    The returned value is the best ratio ||psi o X||_p / ||X||_p found, which
    bounds the true norm from below for every p.  The starts are the matrix
    unit at max|psi_ij| (the sup|psi| floor), psi itself and the flat matrix
    (good at nonsmooth p), ``cfg.warm_starts`` (each must be a finite n x n
    matrix) and ``cfg.restarts`` random matrices.  They ascend together, in
    stacks of at most ``STACK_BYTES`` bytes taken in seed order; the best
    value wins, a tie going to the lowest seed index, and the winner's ratio
    is recomputed from its witness.  At p = 2 the exact value max|psi_ij| is
    returned directly with the achieving matrix unit as witness.
    """
    cfg = cfg or SearchConfig()
    sym = psi if isinstance(psi, MultiplierSymbol) else MultiplierSymbol(np.asarray(psi))
    psi_v = sym.values
    n = sym.n
    if not p >= 1:
        raise ValueError("p must lie in [1, inf]")
    warm = [np.asarray(w, dtype=complex) for w in cfg.warm_starts]
    for i, w in enumerate(warm):
        if w.shape != (n, n) or not np.isfinite(w).all():
            raise ValueError(f"warm start {i} is not a finite {n} x {n} matrix")

    mags = np.abs(psi_v)
    i0, j0 = np.unravel_index(int(np.argmax(mags)), mags.shape)
    unit = np.zeros((n, n), dtype=complex)
    unit[i0, j0] = 1.0
    if mags[i0, j0] == 0.0:
        return NormEstimate(0.0, unit, True, 0, cfg.seed)
    if p == 2.0:
        return NormEstimate(float(mags[i0, j0]), unit, True, 0, cfg.seed)

    seeds = [unit, psi_v.copy(), np.ones((n, n), dtype=complex), *warm]
    ss = np.random.SeedSequence(cfg.seed)
    children = ss.spawn(cfg.restarts + 1)
    for child in children[1 : cfg.restarts + 1]:
        r = np.random.default_rng(child)
        seeds.append(r.standard_normal((n, n)) + 1j * r.standard_normal((n, n)))

    chunk = max(1, STACK_BYTES // unit.nbytes)
    runs = []
    for lo in range(0, len(seeds), chunk):
        runs += _ascend(psi_v, p, np.array(seeds[lo : lo + chunk]), cfg, lo)
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
    ``cfg.warm_starts`` seed only the unamplified search.
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
    amp_cfg = replace(cfg, warm_starts=(embedded,))
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
