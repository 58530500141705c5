"""Jacobi and Legendre polynomials and the two spherical-function families.

The two families are the zonal functions of the compact pairs (U(2), U(1))
and (SU(2), SO(2)).  The first lives on the closed unit disc (the double
coset space of U(1) in U(2)), the second on [-1, 1] (the double coset space
of SO(2) in SU(2), where it reduces to plain Legendre polynomials).

Everything is evaluated by forward three-term recurrence in double
precision, which is stable on [-1, 1] at the degrees used here (a few
hundred).
"""

from __future__ import annotations

import csv
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
    "scan_report_to_csv",
]


def _check_interval(x, lo=-1.0, hi=1.0):
    x = np.asarray(x, dtype=float)
    if not (np.all(x >= lo) and np.all(x <= hi)):  # NaN fails both
        raise ValueError(f"argument outside [{lo}, {hi}]")
    return x


def jacobi_all(nmax: int, a: float, b: float, x) -> np.ndarray:
    """Evaluate Jacobi polynomials of all degrees 0..nmax at the points x.

    Parameters
    ----------
    nmax : int
        Highest degree to compute.
    a, b : float
        Weight exponents, both >= 0.
    x : array_like
        Evaluation points in [-1, 1].

    Returns
    -------
    (nmax+1, len(x)) array with row n holding degree n.
    """
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    if a < 0 or b < 0:
        raise ValueError("weight exponents must be >= 0")
    x = _check_interval(np.atleast_1d(x))
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = (a + 1.0) + (a + b + 2.0) * (x - 1.0) / 2.0
    for n in range(2, nmax + 1):
        c1 = 2.0 * n * (n + a + b) * (2.0 * n + a + b - 2.0)
        c2 = (2.0 * n + a + b - 1.0) * (
            (2.0 * n + a + b) * (2.0 * n + a + b - 2.0) * x + a * a - b * b
        )
        c3 = 2.0 * (n + a - 1.0) * (n + b - 1.0) * (2.0 * n + a + b)
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

    ``empirical_constants`` maps a bound shape to the smallest constant that
    makes the bound hold over the whole scan.  ``rows`` holds one record per
    (index, bound shape) for CSV export.  ``violations`` is only populated by
    the SU(2) scan, where the bounds come with the explicit constant 4 and
    are expected to hold with none.
    """

    family: str
    max_degree: int
    grid: int
    empirical_constants: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    violations: list = field(default_factory=list)

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
    worst = {"uniform": 0.0, "lipschitz": 0.0, "holder_half": 0.0}
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
            worst[kind] = max(worst[kind], c)
            report.rows.append(
                {"family": "su2", "l": "", "m_or_n": n, "bound_kind": kind,
                 "empirical_C": c, "violations": n_bad}
            )
    report.empirical_constants = worst
    return report


def _scan_u2(max_degree: int, grid: int) -> HoelderScanReport:
    # On |z| = 1/sqrt(2) the Jacobi argument 2|z|^2 - 1 is frozen at 0, so
    # each h_{l,m} is a constant times the pure phase e^{i(l-m)theta}.  The
    # pairwise difference then depends only on the grid lag, which collapses
    # the O(grid^2) pair scan to one pass over lags per index, and every
    # index of one frequency k = l - m shares a Jacobi recurrence and a
    # sine row.  The amplitudes repeat spherical_u2's operations, so the
    # constants do not depend on how the indices are batched.
    d = np.arange(1, grid)
    dtheta = 2.0 * math.pi * d / grid
    z = np.array([1.0 / math.sqrt(2.0)], dtype=complex)
    x = np.clip(2.0 * (z * z.conj()).real - 1.0, -1.0, 1.0)
    peaks = {}  # (l, m) -> (max dh / dtheta, max dh)
    for k in range(max_degree + 1):
        jac = jacobi_all((max_degree - k) // 2, 0.0, float(k), x)[:, 0]
        for sign in (1, -1) if k else (1,):
            zk = (z if sign > 0 else np.conj(z)) ** k
            amp = np.array([abs(complex(h)) for h in zk * jac])
            dh = (2.0 * amp)[:, None] * np.abs(np.sin(sign * k * dtheta / 2.0))
            for j, peak in enumerate(zip((dh / dtheta).max(axis=1), dh.max(axis=1))):
                peaks[(j + k, j) if sign > 0 else (j, j + k)] = peak
    report = HoelderScanReport("u2", max_degree, grid)
    worst = {"lipschitz": 0.0, "uniform": 0.0}
    for l in range(max_degree + 1):
        for m in range(max_degree + 1 - l):
            lip, unif = peaks[(l, m)]
            dim = l + m + 1
            c_lip = lip / dim ** 0.75
            c_unif = unif * dim ** 0.25 / 2.0
            worst["lipschitz"] = max(worst["lipschitz"], c_lip)
            worst["uniform"] = max(worst["uniform"], c_unif)
            report.rows.append(
                {"family": "u2", "l": l, "m_or_n": m, "bound_kind": "lipschitz",
                 "empirical_C": c_lip, "violations": 0}
            )
            report.rows.append(
                {"family": "u2", "l": l, "m_or_n": m, "bound_kind": "uniform",
                 "empirical_C": c_unif, "violations": 0}
            )
    report.empirical_constants = worst
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


def scan_report_to_csv(report: HoelderScanReport, path) -> None:
    """Write a scan report as CSV with one row per (index, bound shape)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["family", "l", "m_or_n", "bound_kind", "empirical_C", "violations"])
        for row in report.rows:
            writer.writerow(
                [row["family"], row["l"], row["m_or_n"], row["bound_kind"],
                 f"{row['empirical_C']:.17g}", row["violations"]]
            )
