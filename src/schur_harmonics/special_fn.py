"""Jacobi and Legendre polynomials and the two spherical-function families.

The two families are the zonal functions of the compact pairs (U(2), U(1))
and (SU(2), SO(2)).  The first lives on the closed unit disc (the double
coset space of U(1) in U(2)), the second on [-1, 1] (the double coset space
of SO(2) in SU(2), where it reduces to plain Legendre polynomials).

Everything is evaluated by forward three-term recurrence in double
precision, which is stable on [-1, 1] at the degrees used here (a few
hundred).  ``jacobi_all`` runs one recurrence for one weight b or for many
at once; either way each value takes the same float operations, so the
callers that batch the frequencies k = b of the U(2) family (the u2 scan,
``gelfand.coefficients_u2``) get the values of one recurrence per k.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "jacobi_all",
    "legendre_all",
    "spherical_u2",
    "HoelderScanReport",
    "hoelder_bound_check",
    "empirical_u2_constant",
]


def _check_interval(x, lo=-1.0, hi=1.0):
    x = np.asarray(x, dtype=float)
    if not (np.all(x >= lo) and np.all(x <= hi)):  # NaN fails both
        raise ValueError(f"argument outside [{lo}, {hi}]")
    return x


def _recurrence_coeffs(n, a, b):
    """The x-free coefficients of degree n of the Jacobi recurrence.

    Python floats for one (n, b), or arrays for many at once: each entry
    takes the same float operations either way.
    """
    s = 2.0 * n + a + b
    c1 = 2.0 * n * (n + a + b) * (s - 2.0)
    c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * s
    return c1, s - 1.0, s * (s - 2.0), c3


def jacobi_all(nmax: int, a: float, b, x) -> np.ndarray:
    """Evaluate Jacobi polynomials of all degrees 0..nmax at the points x.

    Parameters
    ----------
    nmax : int
        Highest degree to compute.
    a : float
        Weight exponent, >= 0.
    b : float or 1-D array_like of floats
        Weight exponent(s), all >= 0.  An array runs one recurrence for
        every b at once, its coefficients computed for all degrees before
        the loop.
    x : array_like
        Evaluation points in [-1, 1].

    Returns
    -------
    (nmax+1, len(x)) array with row n holding degree n; for an array b,
    (nmax+1, len(b), len(x)) with [n, j] holding degree n at b[j].  Each
    entry takes the same float operations whether b is a float or an array,
    so the rows of one b are bit-identical either way.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if not isinstance(b, (int, float)) and np.ndim(b) > 0:
        b = np.asarray(b, dtype=float)
        if b.ndim > 1:
            raise ValueError("b must be a float or a 1-D array")
        b_min, b = b.min(initial=0.0), b[:, None]  # one row per b, broadcast against x
        rows = (len(b),)
        steps = zip(*_recurrence_coeffs(np.arange(2.0, nmax + 1.0)[:, None, None], a, b))
    else:
        b_min = b = float(b)
        rows = ()
        steps = (_recurrence_coeffs(n, a, b) for n in range(2, nmax + 1))
    if not (a >= 0 and b_min >= 0):
        raise ValueError("weight exponents must be >= 0")
    x = _check_interval(np.atleast_1d(x))
    out = np.empty((nmax + 1, *rows, x.size))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    aa, bb = a * a, b * b
    for n, (c1, c2_lead, c2_x, c3) in enumerate(steps, start=2):
        c2 = c2_lead * (c2_x * x + aa - bb)
        out[n] = (c2 * out[n - 1] - c3 * out[n - 2]) / c1
    return out


def legendre_all(nmax: int, x) -> np.ndarray:
    """Legendre polynomials of all degrees 0..nmax (the a = b = 0 case)."""
    return jacobi_all(nmax, 0.0, 0.0, x)


def spherical_u2(l: int, m: int, z):
    """Zonal function of the pair (U(2), U(1)) at a point of the closed disc.

    For l >= m this is z**(l-m) * P_m^(0, l-m)(2|z|^2 - 1), and the complex
    conjugate pattern for l < m.  The index (l, m) labels a representation of
    dimension l + m + 1.

    Parameters
    ----------
    l, m : int
        Nonnegative integers.
    z : complex or array of complex
        Points with |z| <= 1 (a slack of 1e-12 is absorbed).
    """
    if l < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    scalar = np.isscalar(z)
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r2 = (z * z.conj()).real
    if np.any(r2 > 1.0 + 1e-12):
        raise ValueError("point outside the closed unit disc")
    x = np.clip(2.0 * r2 - 1.0, -1.0, 1.0)
    if l >= m:
        vals = z ** (l - m) * jacobi_all(m, 0.0, l - m, x)[m]
    else:
        vals = np.conj(z) ** (m - l) * jacobi_all(l, 0.0, m - l, x)[l]
    return complex(vals[0]) if scalar else vals


@dataclass
class HoelderScanReport:
    """Outcome of a Hoelder-bound scan over one spherical family.

    ``rows`` holds one record per (index, bound shape) with the smallest
    constant that makes that bound hold at that index.  ``violations`` is
    only populated by the SU(2) scan, where the bounds come with the
    explicit constant 4 and are expected to hold with none.
    """

    family: str
    max_degree: int
    grid: int
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def empirical_constants(self) -> dict:
        """Bound shape -> the smallest constant that makes it hold over the whole scan."""
        worst = {}
        for row in self.rows:
            kind = row["bound_kind"]
            worst[kind] = max(worst.get(kind, 0.0), row["empirical_C"])
        return worst

    @property
    def empirical_c(self) -> float:
        """Single constant covering every bound shape in the scan."""
        return max(self.empirical_constants.values())


# Legendre pair bounds on [-1/2, 1/2], all with the explicit constant 4:
#   |P_n(x)-P_n(y)| <= 4/sqrt(n)
#   |P_n(x)-P_n(y)| <= 4*sqrt(n)*|x-y|
#   |P_n(x)-P_n(y)| <= 4*|x-y|**(1/2)
_SU2_SLACK = 1e-12


def _scan_su2(max_degree: int, grid: int) -> HoelderScanReport:
    # Every row is the maximum over all grid pairs, taken without forming
    # the pairs.  The largest |P_n(x) - P_n(y)| is max - min (rounding is
    # monotone); the largest divided difference is an adjacent one (over
    # [x_i, x_j] it is a weighted mean of the adjacent ones); the Hoelder
    # ratio runs over the lags d and stops once no degree can still grow.
    # Rounding is monotone, so at lag d no computed ratio of degree n
    # exceeds spread[n] / min_i sqrt(x_{i+d} - x_i), and this bound never
    # grows with d because the computed gaps x_{i+d} - x_i never shrink.
    # A degree whose bound is at most its running maximum is therefore
    # final; each lag scans the prefix of degrees up to the last one that
    # is not, so the maximum is taken over the same computed ratios as the
    # scan over all pairs.
    xs = np.linspace(-0.5, 0.5, grid)
    vals = legendre_all(max_degree, xs)[1:]
    spread = vals.max(axis=1) - vals.min(axis=1)
    slope = (np.abs(np.diff(vals, axis=1)) / np.diff(xs)).max(axis=1)
    holder = np.zeros(max_degree)
    live = max_degree
    for d in range(1, grid):
        root_gap = np.sqrt(xs[d:] - xs[:-d])
        growing = (spread[:live] / root_gap.min() > holder[:live]).nonzero()[0]
        if growing.size == 0:
            break
        live = growing[-1] + 1
        ratio = vals[:live, d:] - vals[:live, :-d]
        np.abs(ratio, out=ratio)
        ratio /= root_gap
        np.maximum(holder[:live], ratio.max(axis=1), out=holder[:live])
    report = HoelderScanReport("su2", max_degree, grid)
    for n in range(1, max_degree + 1):
        rn = math.sqrt(n)
        # Smallest constant making each bound shape hold at this degree.
        per_n = {
            "uniform": spread[n - 1] * rn,
            "lipschitz": slope[n - 1] / rn,
            "holder_half": holder[n - 1],
        }
        n_bad = 0
        if any(c > 4.0 + _SU2_SLACK for c in per_n.values()):
            # list the offending pairs, as the full pair scan of this degree does
            dx = np.abs(xs[:, None] - xs[None, :])
            dp = np.abs(vals[n - 1][:, None] - vals[n - 1][None, :])
            bad = dp > 4.0 * np.sqrt(dx) + _SU2_SLACK
            bad |= dp > 4.0 * rn * dx + _SU2_SLACK
            bad |= dp > 4.0 / rn + _SU2_SLACK
            np.fill_diagonal(bad, False)
            n_bad = int(bad.sum())
            ii, jj = np.nonzero(bad)
            for i, j in zip(ii[:16], jj[:16]):
                report.violations.append(
                    {"n": n, "x": xs[i], "y": xs[j], "lhs": dp[i, j]}
                )
        for kind, c in per_n.items():
            report.rows.append(
                {"family": "su2", "l": "", "m_or_n": n, "bound_kind": kind,
                 "empirical_C": c, "violations": n_bad}
            )
    return report


def _scan_u2(max_degree: int, grid: int) -> HoelderScanReport:
    # On |z| = 1/sqrt(2) the Jacobi argument 2|z|^2 - 1 is frozen at 0, so
    # each h_{l,m} is a constant times the pure phase e^{i(l-m)theta}.  The
    # pairwise difference then depends only on the grid lag, which collapses
    # the O(grid^2) pair scan to one pass over lags per index, and every
    # index of one frequency k = l - m shares a sine row; one Jacobi
    # recurrence serves every frequency.  The amplitudes repeat
    # spherical_u2's operations, so the constants do not depend on how the
    # indices are batched.  Per index, dh = fl(2 amp * |sin|) over the lags.
    # Rounding is monotone and 2 amp >= 0, so max dh = fl(2 amp * max |sin|);
    # and fl(dh / dtheta) is within 2.3e-16 relative of 2 amp |sin| / dtheta,
    # so its maximum lies among the lags whose |sin| / dtheta is within 1e-14
    # of the largest.  Both maxima are thus those of the full rows, bit for bit.
    d = np.arange(1, grid)
    dtheta = 2.0 * math.pi * d / grid
    z = np.array([1.0 / math.sqrt(2.0)], dtype=complex)
    x = np.clip(2.0 * (z * z.conj()).real - 1.0, -1.0, 1.0)
    jac_all = jacobi_all(max_degree // 2, 0.0, np.arange(max_degree + 1.0), x)[:, :, 0]
    peaks = {}  # (l, m) -> (max dh / dtheta, max dh)
    for k in range(max_degree + 1):
        jac = jac_all[: (max_degree - k) // 2 + 1, k]
        for sign in (1, -1) if k else (1,):
            zk = (z if sign > 0 else np.conj(z)) ** k
            amp2 = 2.0 * np.array([abs(complex(h)) for h in zk * jac])
            sin_d = np.abs(np.sin(sign * k * dtheta / 2.0))
            slope = sin_d / dtheta
            near = slope >= (1.0 - 1e-14) * slope.max()
            lip = (amp2[:, None] * sin_d[near] / dtheta[near]).max(axis=1)
            for j, peak in enumerate(zip(lip, amp2 * sin_d.max())):
                peaks[(j + k, j) if sign > 0 else (j, j + k)] = peak
    report = HoelderScanReport("u2", max_degree, grid)
    for l in range(max_degree + 1):
        for m in range(max_degree + 1 - l):
            lip, unif = peaks[(l, m)]
            dim = l + m + 1
            c_lip = lip / dim ** 0.75
            c_unif = unif * dim ** 0.25 / 2.0
            report.rows.append(
                {"family": "u2", "l": l, "m_or_n": m, "bound_kind": "lipschitz",
                 "empirical_C": c_lip, "violations": 0}
            )
            report.rows.append(
                {"family": "u2", "l": l, "m_or_n": m, "bound_kind": "uniform",
                 "empirical_C": c_unif, "violations": 0}
            )
    return report


def hoelder_bound_check(family: str, max_degree: int, grid: int) -> HoelderScanReport:
    """Scan one spherical family against its two-sided Hoelder bounds.

    For "su2" the three Legendre inequalities carry the explicit constant 4
    and the report lists any violation (none are expected).  For "u2" the
    uniform constant is not pinned a priori; the scan evaluates the family on
    the circle |z| = 1/sqrt(2) and reports the smallest constant covering
    both bound shapes (a Lipschitz bound growing like dim^(3/4) and a
    uniform bound decaying like dim^(-1/4)).
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    if grid < 100:
        raise ValueError("grid must have at least 100 points")
    if family == "su2":
        return _scan_su2(max_degree, grid)
    if family == "u2":
        return _scan_u2(max_degree, grid)
    raise ValueError(f"unknown family {family!r}")


@functools.cache
def empirical_u2_constant(max_degree: int = 40, grid: int = 512) -> float:
    """Empirical uniform constant for the U(2) family bounds (cached)."""
    return hoelder_bound_check("u2", max_degree, grid).empirical_c
