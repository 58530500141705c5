"""Coefficient extraction and kernel operators for the two compact pairs.

A bi-invariant function phi on U(2) (under the embedded U(1)) descends to a
function phi0 on the closed unit disc, and expands as
phi0 = sum c_{l,m} (l+m+1) h_{l,m} against the zonal family of
``special_fn``; truncation at degree L keeps every (l, m) with
max(l, m) <= L.  The coefficient is the plain inner product
c_{l,m} = <phi0, h_{l,m}> under the uniform area measure dA/pi on the disc,
which is the pushforward of the uniform measure on the unit sphere of C^2
under the first coordinate.  That density is not taken on faith: the
orthogonality relations <h, h'> = delta / (l+m+1) are part of the test
suite and validate it numerically.

For SU(2) under SO(2) the same structure reads phi0 = sum c_n (2n+1) P_n on
[-1, 1] with c_n = (1/2) integral of phi0 P_n.

The weighted coefficient sums (sum |c|^p dim)^(1/p) bound the Schatten
multiplier norm of the associated two-point kernel from below, and the
discretized kernel operator converges to the same value, which gives the
dual route checked by the tests.
"""

from __future__ import annotations

import cmath
import csv
import functools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from ._json_fields import json_int, json_real
# ms_norm_lower is not called here; it stays bound because perfbench's
# tracer wraps gelfand.ms_norm_lower
from .schatten import MultiplierSymbol, ms_norm_lower, schatten_norm  # noqa: F401
from .special_fn import jacobi_all, legendre_all

__all__ = [
    "CoefficientSpectrum",
    "UnderResolvedError",
    "disc_quadrature",
    "coefficients_u2",
    "coefficients_su2",
    "lp_lower_bound",
    "synthesize",
    "kernel_schatten_norm",
    "haar_u2",
    "subgroup_sampler",
    "KAverageResult",
    "k_average",
    "spectrum_to_json",
    "spectrum_from_json",
    "spectrum_to_csv",
]


class UnderResolvedError(ValueError):
    """Quadrature order too low for the requested truncation."""


@dataclass
class CoefficientSpectrum:
    """Peter-Weyl coefficients of one pair up to a truncation degree.

    ``pair`` is "u2" (indices (l, m), dimension l+m+1) or "su2" (index n,
    dimension 2n+1).  Only indices within the truncation are stored.
    """

    pair: str
    coeffs: dict
    truncation: int

    def __post_init__(self):
        if self.pair not in ("u2", "su2"):
            raise ValueError("pair must be 'u2' or 'su2'")

    def dim(self, idx) -> int:
        if self.pair == "u2":
            return idx[0] + idx[1] + 1
        return 2 * idx + 1

    def items(self):
        return self.coeffs.items()


# ---------------------------------------------------------------------------
# quadrature grids


@functools.cache
def _gauss_legendre(n: int):
    """Gauss-Legendre nodes and weights of order n, shared read-only."""
    t, wt = np.polynomial.legendre.leggauss(n)
    t.setflags(write=False)
    wt.setflags(write=False)
    return t, wt


def disc_quadrature(n_radial: int, n_angular: int):
    """Nodes z and weights w with sum w f(z) ~ (1/pi) int_D f dA.

    Gauss-Legendre in |z|^2 tensored with a uniform angle grid; the rule is
    exact for integrands polynomial in (z, conj z) of degree <= n_radial in
    |z|^2 and angular frequency < n_angular.  The Gauss-Legendre nodes are
    computed once per order and shared read-only.
    """
    t, wt = _gauss_legendre(n_radial)
    u = (t + 1.0) / 2.0
    theta = 2.0 * np.pi * np.arange(n_angular) / n_angular
    z = np.sqrt(u)[:, None] * np.exp(1j * theta)[None, :]
    w = np.repeat((wt / 2.0)[:, None] / n_angular, n_angular, axis=1)
    return z.ravel(), w.ravel()


# ---------------------------------------------------------------------------
# coefficient extraction


def coefficients_u2(
    phi0, L: int = 24, n_radial: int | None = None, n_angular: int | None = None
) -> CoefficientSpectrum:
    """Coefficients c_{l,m} = <phi0, h_{l,m}> for all max(l, m) <= L.

    Parameters
    ----------
    phi0 : callable
        Evaluator on the closed unit disc, vectorized over complex arrays.
    L : int
        Truncation degree (default 24); the spectrum records it, so
        downstream bounds are reported as truncated (still valid) bounds.
    n_radial, n_angular : int, optional
        Quadrature orders; default 4L (and 8L+1 angles).  Orders below
        L+1 radial / 2L+1 angular cannot resolve the requested truncation
        and raise UnderResolvedError.

    phi0 is evaluated once on the ``disc_quadrature`` grid.  Since
    h_{m+k,m} = r^k e^{ik theta} P_m^(0,k)(2r^2 - 1) and h_{m,m+k} is its
    conjugate, one FFT over the uniform angles gives the angular
    frequencies +-k of phi0 on every radius, and each coefficient is then a
    radial Gauss sum of one frequency against r^k P_m^(0,k).  Frequencies
    up to L are free of aliasing because n_angular >= 2L+1.
    """
    if L < 0:
        raise ValueError("truncation must be >= 0")
    if n_radial is None:
        n_radial = max(4 * L, 8)
    if n_angular is None:
        n_angular = max(8 * L + 1, 9)
    if n_radial < L + 1 or n_angular < 2 * L + 1:
        raise UnderResolvedError(
            f"orders ({n_radial}, {n_angular}) cannot resolve degree {L}"
        )
    z, w = disc_quadrature(n_radial, n_angular)
    shape = (n_radial, n_angular)
    fz = np.broadcast_to(np.asarray(phi0(z), dtype=complex), z.shape).reshape(shape)
    # freq[:, k] = sum over angles of w f e^{-ik theta}; the weight depends on the radius only
    freq = np.fft.fft(fz, axis=1) * w.reshape(shape)[:, :1]
    r = z.reshape(shape)[:, 0].real  # the theta = 0 column holds the radii
    x = np.clip(2.0 * r * r - 1.0, -1.0, 1.0)
    coeffs = {}
    for k in range(L + 1):
        radial = r**k * jacobi_all(L - k, 0.0, float(k), x)
        plus, minus = radial @ freq[:, k], radial @ freq[:, -k]
        for m in range(L + 1 - k):
            coeffs[(m + k, m)] = complex(plus[m])
            if k > 0:
                coeffs[(m, m + k)] = complex(minus[m])
    return CoefficientSpectrum("u2", dict(sorted(coeffs.items())), L)


def coefficients_su2(phi0, N: int = 24, order: int | None = None) -> CoefficientSpectrum:
    """Legendre coefficients c_n = (1/2) int phi0 P_n on [-1, 1], n <= N."""
    if N < 0:
        raise ValueError("truncation must be >= 0")
    if order is None:
        order = max(2 * N + 2, 4)
    if order < N + 1:
        raise UnderResolvedError(f"order {order} cannot resolve degree {N}")
    t, wt = _gauss_legendre(order)
    vals = legendre_all(N, t)
    ft = np.asarray(phi0(t), dtype=complex)
    coeffs = {n: complex(0.5 * np.sum(wt * ft * vals[n])) for n in range(N + 1)}
    return CoefficientSpectrum("su2", coeffs, N)


def lp_lower_bound(spec: CoefficientSpectrum, p: float) -> float:
    """The weighted coefficient sum (sum |c|^p dim)^(1/p).

    This is a valid lower bound on the S^p multiplier norm of the
    bi-invariant two-point kernel with these coefficients.  Truncated
    spectra still give valid (smaller) bounds since all terms are
    nonnegative.  p = inf is out of contract and rejected.
    """
    if not np.isfinite(p) or p < 1:
        raise ValueError("p must lie in [1, inf)")
    mags = [(abs(c), spec.dim(idx)) for idx, c in spec.items()]
    top = max((m for m, _ in mags), default=0.0)
    if not 0.0 < top < np.inf:  # 0, inf and NaN come out as they are
        return float(top)
    # scaled by the largest |c| so |c|**p neither overflows nor underflows
    return float(top * sum((m / top) ** p * d for m, d in mags) ** (1.0 / p))


def synthesize(spec: CoefficientSpectrum):
    """Evaluator of the finite sum  sum c dim h  matching the pair tag."""
    L = spec.truncation
    items = sorted(spec.items())
    for idx, _ in items:
        ends = idx if spec.pair == "u2" else (idx,)
        if min(ends) < 0 or max(ends) > L:
            raise ValueError(f"index {idx} lies below 0 or beyond truncation {L}")
    if spec.pair == "su2":

        def phi0_su2(r):
            r = np.asarray(r, dtype=float)
            vals = legendre_all(L, np.atleast_1d(r))
            out = np.zeros(vals.shape[1], dtype=complex)
            for n, c in items:
                out += c * (2 * n + 1) * vals[n]
            return out if r.ndim else complex(out[0])

        return phi0_su2

    # By frequency, the transpose of coefficients_u2: row k holds c dim for
    # (m+k, m) in plus[k] and for (m, m+k) in minus[k], m = 0..L-k, so the sum
    # is z^k (plus[k] @ P^(0,k)) + conj(z)^k (minus[k] @ P^(0,k)) over k.
    plus = np.zeros((L + 1, L + 1), dtype=complex)
    minus = np.zeros((L + 1, L + 1), dtype=complex)
    for (l, m), c in items:
        if l >= m:
            plus[l - m, m] = c * (l + m + 1)
        else:
            minus[m - l, l] = c * (l + m + 1)

    def phi0_u2(z):
        z = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(z).ravel()
        r2 = (flat * flat.conj()).real
        if np.any(r2 > 1.0 + 1e-12):
            raise ValueError("point outside the closed unit disc")
        x = np.minimum(2.0 * r2 - 1.0, 1.0)  # r2 >= 0, so only the slack above 1 needs clipping
        out = plus[0] @ jacobi_all(L, 0.0, 0.0, x)
        for k in range(1, L + 1):
            zk = flat if k == 1 else zk * flat
            jac = jacobi_all(L - k, 0.0, float(k), x)
            out += zk * (plus[k, : L + 1 - k] @ jac) + zk.conj() * (minus[k, : L + 1 - k] @ jac)
        return out.reshape(np.atleast_1d(z).shape) if z.ndim else complex(out[0])

    return phi0_u2


# ---------------------------------------------------------------------------
# discretized kernel operator


def kernel_schatten_norm(
    phi0, p: float, order: int, pair: str = "u2", check: bool = False
) -> float:
    """Schatten p-norm of the discretized two-point kernel operator.

    The kernel psi(x, y) = phi0(<x, y>) is sampled on a quadrature grid of
    the homogeneous space (the unit sphere of C^2 for "u2", the 2-sphere
    for "su2") and scaled by sqrt(w_i w_j).  As the order grows its
    Schatten norm converges to (sum |c|^p dim)^(1/p) over the coefficients
    of phi0.

    The grid is Gauss-Legendre in one coordinate (nodes computed once per
    order and shared read-only) times m = 2 order + 1 uniform angles:
    (sqrt(u) e^{i t1}, sqrt(1-u) e^{i t2}) for "u2",
    (sqrt(1-t^2) e^{i phi}, t) for "su2".  The kernel depends on the angles
    only through their differences, so it is block-circulant, and a DFT over
    the angle differences splits it unitarily into one block of size
    ``order`` per torus (u2) or rotation (su2) character.  The cost is m^2
    (u2) or m (su2) SVDs of size ``order`` in one stacked call; the dense
    kernel of size order m^2 (or order m) is never formed.

    With ``check=True`` the value is recomputed at twice the order; a drift
    above 1% raises a resolution warning (warnings.warn) and the finer value
    is returned.
    """
    if not np.isfinite(p) or p < 1:
        raise ValueError("p must lie in [1, inf)")
    if pair not in ("u2", "su2"):
        raise ValueError("pair must be 'u2' or 'su2'")

    def value_at(q: int) -> float:
        t, wt = _gauss_legendre(q)
        m = 2 * q + 1
        e = np.exp(2j * np.pi * np.arange(m) / m)
        if pair == "u2":
            # <x, y> for x = (sqrt(u) e^{i t1}, sqrt(1-u) e^{i t2}) and
            # y = (sqrt(u') e^{i (t1+d1)}, sqrt(1-u') e^{i (t2+d2)}), on the
            # (d1, d2, u, u') grid; it lies in the closed disc up to rounding,
            # which the disc evaluators absorb.
            u = (t + 1.0) / 2.0
            gram = (
                e[:, None, None, None] * np.sqrt(np.outer(u, u))
                + e[None, :, None, None] * np.sqrt(np.outer(1.0 - u, 1.0 - u))
            )
            sw = np.sqrt(wt / 2.0) / m
        else:
            # <x, y> = sqrt((1-t^2)(1-t'^2)) cos(d) + t t' on the (d, t, t') grid
            st = np.sqrt(1.0 - t**2)
            gram = np.clip(e.real[:, None, None] * np.outer(st, st) + np.outer(t, t), -1.0, 1.0)
            sw = np.sqrt(wt / (2.0 * m))
        psi = np.asarray(phi0(gram.ravel()), dtype=complex).reshape(gram.shape) * np.outer(sw, sw)
        blocks = np.fft.fftn(psi, axes=tuple(range(psi.ndim - 2)))
        return schatten_norm(blocks.reshape(-1, q, q), p)

    val = value_at(order)
    if check:
        fine = value_at(2 * order)
        if abs(fine - val) > 0.01 * max(abs(fine), 1e-300):
            warnings.warn(
                f"kernel norm moved {val:.6g} -> {fine:.6g} under order doubling",
                RuntimeWarning,
                stacklevel=2,
            )
        return fine
    return val


# ---------------------------------------------------------------------------
# Haar sampling and bi-invariant averaging


def haar_u2(rng: np.random.Generator, size: int = 1) -> np.ndarray:
    """Haar-random 2x2 unitaries via phase-normalized QR of Gaussians."""
    z = rng.standard_normal((size, 2, 2)) + 1j * rng.standard_normal((size, 2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def subgroup_sampler(name: str):
    """Sampler of Haar elements of a compact subgroup of U(2) by name.

    "u1" is the circle embedded as diag(1, e^{i t}); "so2" the rotation
    matrices; "u2" the full group.
    """

    if name == "u1":

        def sample(rng, size):
            out = np.zeros((size, 2, 2), dtype=complex)
            out[:, 0, 0] = 1.0
            out[:, 1, 1] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
            return out

    elif name == "so2":

        def sample(rng, size):
            t = rng.uniform(0.0, 2.0 * np.pi, size)
            c, s = np.cos(t), np.sin(t)
            return np.stack([c, -s, s, c], axis=-1).reshape(size, 2, 2).astype(complex)

    elif name == "u2":
        sample = haar_u2
    else:
        raise ValueError(f"unknown subgroup {name!r}")
    return sample


def _matmul_2x2(a, b):
    """a @ b over broadcast 2x2 stacks by four entry formulas (9x faster than einsum)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


@dataclass
class KAverageResult:
    symbol: MultiplierSymbol


def k_average(phi, points, n_samples: int, seed: int, subgroup: str = "u1") -> KAverageResult:
    """Monte Carlo bi-invariant averaging of a function on U(2).

    Averages phi(k g k') over n_samples^2 Haar pairs (k, k') of the chosen
    subgroup and returns the averaged two-point symbol on the grid
    ``points`` (entries phi_avg(g_i^{-1} g_j)).  The Monte Carlo error is
    O(n_samples^{-1/2}).

    phi is called once, on the whole (n_samples, n_samples, n, n, 2, 2)
    stack of conjugates (formed as explicit 2x2 products), and must map the
    trailing 2x2 axes to one value each (entrywise numpy expressions do).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    pts = np.asarray(points, dtype=complex)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    sampler = subgroup_sampler(subgroup)
    ks, kps = sampler(rng, n_samples), sampler(rng, n_samples)
    # g_i^{-1} g_j for unitary grid points
    base = _matmul_2x2(pts.conj().swapaxes(-1, -2)[:, None], pts)
    # k_r (g_i^{-1} g_j) k'_s for every sample pair (r, s)
    conj_vals = _matmul_2x2(_matmul_2x2(ks[:, None, None], base)[:, None], kps[:, None, None])
    vals = np.broadcast_to(np.asarray(phi(conj_vals), dtype=complex), conj_vals.shape[:4])
    avg = vals.sum(axis=(0, 1)) / (n_samples * n_samples)
    return KAverageResult(MultiplierSymbol(avg))


# ---------------------------------------------------------------------------
# serialization


def spectrum_to_json(spec: CoefficientSpectrum) -> str:
    rows = []
    for idx, c in sorted(spec.items()):
        if spec.pair == "u2":
            rows.append(
                {"l": idx[0], "m": idx[1], "re": c.real, "im": c.imag, "dim": spec.dim(idx)}
            )
        else:
            rows.append({"n": idx, "re": c.real, "im": c.imag, "dim": spec.dim(idx)})
    return json.dumps({"pair": spec.pair, "truncation": spec.truncation, "coeffs": rows})


def spectrum_from_json(text: str) -> CoefficientSpectrum:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("spectrum must be an object")
    pair = obj["pair"]
    if not isinstance(obj["coeffs"], list):
        raise ValueError("coeffs must be a list")
    coeffs = {}
    for row in obj["coeffs"]:
        if not isinstance(row, dict):
            raise ValueError(f"coefficient row {row!r} is not an object")
        if pair == "u2":
            idx = (json_int(row["l"], "index"), json_int(row["m"], "index"))
        else:
            idx = json_int(row["n"], "index")
        coeffs[idx] = complex(json_real(row["re"], "re"), json_real(row["im"], "im"))
        if not cmath.isfinite(coeffs[idx]):
            raise ValueError(f"coefficient {idx} is not finite")
    return CoefficientSpectrum(pair, coeffs, json_int(obj["truncation"], "truncation"))


def spectrum_to_csv(spec: CoefficientSpectrum, path) -> None:
    """|c| against degree, for plotting."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["pair", "l", "m_or_n", "degree", "abs_c", "dim"])
        for idx, c in sorted(spec.items()):
            if spec.pair == "u2":
                writer.writerow(
                    [spec.pair, idx[0], idx[1], idx[0] + idx[1], f"{abs(c):.17g}", spec.dim(idx)]
                )
            else:
                writer.writerow([spec.pair, "", idx, idx, f"{abs(c):.17g}", spec.dim(idx)])
