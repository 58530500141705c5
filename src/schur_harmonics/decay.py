"""The explicit decay-constant chain and norm certificates from non-decay.

For p > 12 a continuous bi-invariant Schur multiplier phi on Sp(2,R) decays
along the Weyl chamber: |phi(D(a1, a2)) - phi_inf| is at most
C1(p) * ||phi||_MS^p * exp(-C2(p) * sqrt(a1^2 + a2^2)).  Reading the
inequality backwards, samples of phi that fail to decay certify a lower
bound on the multiplier norm, which is what ``norm_certificate`` computes.

The chain starts from two coefficient-sum constants obtained by Hoelder
splitting against the spherical families:

* c_tilde = 2^(1-e) * C * (sum_{l,m} (l+m+1)^(1+pe-p/4))^(1/p) with
  e = 1/8 - 3/(2p) and C the uniform constant of the U(2) family bounds;
* c_hat = 4 * (sum_{n>=1} (3n)^(1+pe-p/2))^(1/p) with e = 1/4 - 1/p;

and proceeds through elementary max/sum/geometric-series steps.  The double
series collapses to a single one because l+m+1 = k occurs for exactly k
index pairs, so sum_{l,m} f(l+m+1) = sum_k k f(k); both series are zeta
values, zeta(p/8 - 1/2) and 3^(-p/4) zeta(p/4).  Each is summed as a
``SERIES_TERMS``-term head plus an Euler-Maclaurin tail up to B_16 whose
remainder is bounded by Johansson (Numer. Algorithms 2015, Theorem 1), so
it comes with a proven enclosure.  Every later step is monotone in the two
series, and the chain is evaluated once more at each end of that enclosure
with every rounded result moved outward by ``math.nextafter``: each
constant carries a (lo, hi) enclosure a few tens of ulp wide, and
``norm_certificate`` takes the ends that make it a true lower bound.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

__all__ = [
    "SERIES_TERMS",
    "DecayConstants",
    "DecaySample",
    "SeriesSum",
    "power_series_sum",
    "chain_constants",
    "norm_certificate",
]

# explicit terms summed before the Euler-Maclaurin tail
SERIES_TERMS = 32
_EPS = 2.0**-52
# B_2k / (2k)! for k = 1, ..., 8: the Euler-Maclaurin corrections to B_16
_EM_COEFFS = (
    1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
    -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
)
# Johansson's remainder after the B_16 term, 4 (s)_16 / (2 pi)^16
# A^-(s+15) / (s+15), is this times A^-s (s)_15 / A^15; rounded up
_EM_REMAINDER = 6.7793e-13
# libm's exp, expm1 and pow are within 1 ulp; two steps cover that even
# where the result and the exact value straddle a power of two
_LIBM_STEPS = 2


@dataclass(frozen=True)
class DecaySample:
    """One observed value of a bi-invariant function on the chamber."""

    alpha1: float
    alpha2: float
    value: complex
    phi_inf: complex = 0.0

    def __post_init__(self):
        if not all(map(cmath.isfinite, (self.alpha1, self.alpha2, self.value, self.phi_inf))):
            raise ValueError("sample alphas, value and phi_inf must be finite")
        if self.alpha1 < self.alpha2 - 1e-12 or self.alpha2 < -1e-12:
            raise ValueError("sample point must lie in the closed chamber")


@dataclass(frozen=True)
class DecayConstants:
    """The full chain for one exponent p > 12.

    The constant fields hold the values computed in round-to-nearest;
    ``enclosure`` maps each of their names to a (lo, hi) pair of floats
    that provably contains the exact constant.  ``branches`` records which
    side of each max{} is active so downstream checks can pin the regime.
    ``series_terms`` and ``c_u2`` make the values reproducible bit for bit.
    """

    p: float
    c_u2: float
    c_tilde: float
    c_hat: float
    c3: float
    c4: float
    c5: float
    c5_prime: float
    c6: float
    c1: float
    c2: float
    series_terms: int
    branches: dict = field(default_factory=dict)
    enclosure: dict = field(default_factory=dict)


class SeriesSum(float):
    """A computed value of sum_{k>=1} k^kappa with a proven bound on its
    error: the exact sum lies in [lo, hi]."""

    __slots__ = ("bound",)

    @property
    def lo(self) -> float:
        # the first term is 1 and the others are positive
        return max(1.0, _down(self - self.bound))

    @property
    def hi(self) -> float:
        return _up(self + self.bound)


def _up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


def _down(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    return x


def _nearest(x: float, steps: int = 1) -> float:
    return x


def power_series_sum(kappa: float, n_terms: int = SERIES_TERMS) -> SeriesSum:
    """sum_{k>=1} k^kappa = zeta(-kappa) for kappa < -1, with its error bound.

    The first ``n_terms`` terms are summed directly; the rest is the
    Euler-Maclaurin tail at A = n_terms + 1 up to the B_16 correction.
    The returned ``bound`` is Johansson's remainder for that tail plus a
    rounding allowance, which assumes each libm pow within 1 ulp and
    counts the rounding of every other operation.
    """
    if not kappa < -1.0:  # NaN fails this too
        raise ValueError("series converges only for exponent < -1")
    if n_terms < 8:
        raise ValueError("need at least 8 explicit terms")
    head = math.fsum(map(pow, range(1, n_terms + 1), itertools.repeat(kappa)))
    s = -kappa
    a = float(n_terms + 1)
    u = a**kappa
    tail = lead = corr_abs = rem = 0.0
    if u > 0.0:
        # else A^-s underflowed, and the whole tail, below A^-s (1 + A/(s-1)),
        # is far inside the rounding allowance of the head
        lead = a / (s - 1.0)
        # the B_2k correction is u * c_k * w with w = (s)_(2k-1) / A^(2k-1)
        w = s / a
        corr = 0.0
        for j, c in enumerate(_EM_COEFFS):
            if j:
                w *= (s + (2 * j - 1)) * (s + 2 * j) / (a * a)
            corr += c * w
            corr_abs += abs(c * w)
        tail = u * (corr + 0.5 + lead)
        rem = _EM_REMAINDER * u * w
    value = head + tail
    # Rounding allowance in units of eps: the head 1.5 (pow within 1 ulp,
    # fsum); A/(s-1) and 1/2, 3.5 (s - 1, the division, two adds, u and the
    # product); each correction 27 (19 for its recurrence, 4 for the sum of
    # eight, 4 as for the others); and 0.5 of each for the final add.  The
    # factors below round these counts up.
    total = SeriesSum(value)
    total.bound = rem + _EPS * (3.0 * head + 5.0 * u * (lead + 0.5) + 33.0 * u * corr_abs)
    return total


def _chain(p: float, c_u2: float, zeta_u: float, zeta_s: float, out, inn) -> tuple:
    """The chain from zeta(p/8 - 1/2) and zeta(p/4): (the nine constants,
    the active branches).

    ``out(x, steps)`` moves a rounded result that many ulp toward the end
    being evaluated and ``inn`` away from it.  Every step is monotone, so
    with both zeta values at one end of their enclosures this gives that
    end of each constant; with both hooks ``_nearest`` it gives the
    round-to-nearest values.
    """
    inv_p = out(1.0 / p)  # zeta >= 1 makes zeta^(1/p) increasing in 1/p
    # 1/4 - 3/p as (p - 12)/(4p): p - 12 is exact for p <= 24 (Sterbenz)
    x_out = out(out(p - 12.0) / (4.0 * p))
    x_in = inn(inn(p - 12.0) / (4.0 * p))
    # 2^(1 - eps_u) c_u2 zeta_u^(1/p), eps_u = 1/8 - 3/(2p)
    c_tilde = out(
        out(out(2.0 ** out(0.875 + out(1.5 / p)), _LIBM_STEPS) * c_u2)
        * out(zeta_u**inv_p, _LIBM_STEPS)
    )
    # 4 (3^(-p/4) zeta_s)^(1/p) = 4 3^(-1/4) zeta_s^(1/p)
    c_hat = out(4.0 * out(3.0**-0.25, _LIBM_STEPS) * out(zeta_s**inv_p, _LIBM_STEPS))
    c3_series = out(c_hat * out(2.0 ** out(0.25 - inn(1.0 / p)), _LIBM_STEPS))
    c3_floor = 2.0 * out(math.exp(0.5), _LIBM_STEPS)
    c3 = max(c3_series, c3_floor)
    c4_floor = 2.0 * out(math.exp(0.125), _LIBM_STEPS)
    c4 = max(c_tilde, c4_floor)
    c5 = out(out(math.exp(1.0 / 16.0), _LIBM_STEPS) * out(c3 + c4))
    # c5 / (1 - rho), rho = exp(-x/8), with 1 - rho = -expm1(-x/8)
    c5_prime = out(c5 / inn(-math.expm1(-x_in / 8.0), _LIBM_STEPS))
    c6_floor = 2.0 * out(math.exp(5.0 / 32.0), _LIBM_STEPS)
    c6 = max(c5_prime, c6_floor)
    c1 = out(max(c3, c4) + c6)
    c2 = out(x_out / (32.0 * inn(math.sqrt(2.0))))
    branches = {
        "c3": "series" if c3_series >= c3_floor else "floor",
        "c4": "series" if c_tilde >= c4_floor else "floor",
        "c6": "geometric" if c5_prime >= c6_floor else "floor",
        "c1": "c3" if c3 >= c4 else "c4",
    }
    return (c_tilde, c_hat, c3, c4, c5, c5_prime, c6, c1, c2), branches


_CONSTANT_NAMES = ("c_tilde", "c_hat", "c3", "c4", "c5", "c5_prime", "c6", "c1", "c2")


def chain_constants(
    p: float, c_u2: float | None = None, series_terms: int = SERIES_TERMS
) -> DecayConstants:
    """Evaluate the whole constant chain at exponent p, with enclosures.

    Only finite p > 12 admits a positive Hoelder split exponent for the
    U(2) series; other p raise.  ``c_u2``, finite and positive, is the
    uniform constant of the U(2) family bounds, which is not pinned
    analytically; when omitted it is the empirical scan estimate times 1.5.
    A c_u2 so large that a constant or an enclosure end overflows raises.
    """
    if not (p > 12.0 and math.isfinite(p)):
        raise ValueError("constant chain requires finite p > 12")
    if c_u2 is None:
        from .special_fn import empirical_u2_constant

        c_u2 = 1.5 * empirical_u2_constant()
    if not (c_u2 > 0 and math.isfinite(c_u2)):
        raise ValueError("c_u2 must be finite and positive")

    # the exponents 2 + p eps_u - p/4 and 1 + p eps_s - p/2 are 0.5 - p/8
    # and -p/4, both exact in floating point for p > 4
    zeta_u = power_series_sum(0.5 - p / 8.0, series_terms)
    zeta_s = power_series_sum(-p / 4.0, series_terms)
    near, branches = _chain(p, c_u2, zeta_u, zeta_s, _nearest, _nearest)
    lo, _ = _chain(p, c_u2, zeta_u.lo, zeta_s.lo, _down, _up)
    hi, _ = _chain(p, c_u2, zeta_u.hi, zeta_s.hi, _up, _down)
    if not all(map(math.isfinite, near + lo + hi)):
        raise ValueError(f"c_u2 = {c_u2!r} overflows the constant chain at p = {p!r}")
    return DecayConstants(
        p, c_u2, *near, series_terms, branches,
        dict(zip(_CONSTANT_NAMES, zip(lo, hi))),
    )


def norm_certificate(samples, consts: DecayConstants) -> float:
    """Largest multiplier-norm lower bound forced by the samples.

    A continuous bi-invariant function attaining value v at D(a1, a2) with
    limit phi_inf must have multiplier norm at least
    |v - phi_inf| exp(C2 ||alpha||) / C1; the certificate is the maximum
    over the samples.  It is taken with the upper end of C1's enclosure,
    the lower end of C2's, and every rounded step moved down, so it never
    exceeds the exact value for the given samples.  A net of functions
    converging to 1 on growing balls therefore forces certificates that
    blow up, which is the obstruction this toolkit quantifies.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    c1_hi = consts.enclosure["c1"][1]
    c2_lo = consts.enclosure["c2"][0]
    best = 0.0
    for s in samples:
        # two component subtractions, then hypot within 1 ulp
        gap = _down(abs(complex(s.value) - complex(s.phi_inf)), 3)
        radius = _down(math.hypot(s.alpha1, s.alpha2), 2)
        growth = _down(math.exp(_down(c2_lo * radius)), _LIBM_STEPS)
        best = max(best, _down(_down(gap * growth) / c1_hi))
    return best
