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
index pairs, so sum_{l,m} f(l+m+1) = sum_k k f(k).  Series are summed to a
finite truncation with an Euler-Maclaurin tail, so doubling the truncation
moves nothing above 1e-10 relative.
"""

from __future__ import annotations

import cmath
import csv
import itertools
import math
from dataclasses import dataclass, field

__all__ = [
    "DecayConstants",
    "DecaySample",
    "power_series_sum",
    "chain_constants",
    "decay_bound",
    "norm_certificate",
    "constants_table",
    "write_constants_csv",
]


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

    ``branches`` records which side of each max{} is active so downstream
    checks can pin the regime.  ``series_terms`` and ``c_u2`` make the
    values reproducible bit for bit.
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


def power_series_sum(kappa: float, n_terms: int = 4096) -> float:
    """sum_{k>=1} k^kappa for kappa < -1, truncated with an EM tail.

    The first ``n_terms`` terms are summed directly; the remainder is the
    integral plus Euler-Maclaurin corrections at a = n_terms + 1, leaving a
    truncation error far below 1e-10 relative at the default size.
    """
    if kappa >= -1.0:
        raise ValueError("series diverges for exponent >= -1")
    if n_terms < 8:
        raise ValueError("need at least 8 explicit terms")
    head = math.fsum(map(pow, range(1, n_terms + 1), itertools.repeat(kappa)))
    a = float(n_terms + 1)
    tail = a ** (kappa + 1.0) / (-kappa - 1.0)
    tail += 0.5 * a**kappa
    tail -= kappa * a ** (kappa - 1.0) / 12.0
    tail += kappa * (kappa - 1.0) * (kappa - 2.0) * a ** (kappa - 3.0) / 720.0
    return head + tail


def chain_constants(
    p: float, c_u2: float | None = None, series_terms: int = 4096
) -> DecayConstants:
    """Evaluate the whole constant chain at exponent p.

    Only p > 12 admits a positive Hoelder split exponent for the U(2)
    series; smaller p raises.  ``c_u2`` is the uniform constant of the U(2)
    family bounds, which is not pinned analytically; when omitted it
    defaults to the empirical scan estimate times a 1.5 safety factor.
    """
    if not p > 12.0:
        raise ValueError("constant chain requires p > 12")
    if c_u2 is None:
        from .special_fn import empirical_u2_constant

        c_u2 = 1.5 * empirical_u2_constant()
    if c_u2 <= 0:
        raise ValueError("c_u2 must be positive")

    eps_u = 0.125 - 1.5 / p
    eps_s = 0.25 - 1.0 / p
    # sum over l, m >= 0 of (l+m+1)^(1 + p eps_u - p/4), collapsed over k = l+m+1
    kappa_u = 2.0 + p * eps_u - p / 4.0
    series_u = power_series_sum(kappa_u, series_terms)
    c_tilde = 2.0 ** (1.0 - eps_u) * c_u2 * series_u ** (1.0 / p)
    kappa_s = 1.0 + p * eps_s - p / 2.0
    series_s = 3.0**kappa_s * power_series_sum(kappa_s, series_terms)
    c_hat = 4.0 * series_s ** (1.0 / p)

    branches = {}
    c3_series = c_hat * 2.0 ** (0.25 - 1.0 / p)
    c3_floor = 2.0 * math.exp(0.5)
    c3 = max(c3_series, c3_floor)
    branches["c3"] = "series" if c3_series >= c3_floor else "floor"
    c4_floor = 2.0 * math.exp(0.125)
    c4 = max(c_tilde, c4_floor)
    branches["c4"] = "series" if c_tilde >= c4_floor else "floor"
    c5 = math.exp(1.0 / 16.0) * (c3 + c4)
    rho = math.exp(-(0.25 - 3.0 / p) / 8.0)
    c5_prime = c5 / (1.0 - rho)
    c6_floor = 2.0 * math.exp(5.0 / 32.0)
    c6 = max(c5_prime, c6_floor)
    branches["c6"] = "geometric" if c5_prime >= c6_floor else "floor"
    c1 = max(c3 + c6, c4 + c6)
    branches["c1"] = "c3" if c3 >= c4 else "c4"
    c2 = (0.25 - 3.0 / p) / (32.0 * math.sqrt(2.0))
    return DecayConstants(
        p, c_u2, c_tilde, c_hat, c3, c4, c5, c5_prime, c6, c1, c2,
        series_terms, branches,
    )


def decay_bound(alpha1: float, alpha2: float, consts: DecayConstants) -> float:
    """Per-unit-norm decay ceiling C1 exp(-C2 ||alpha||_2) at a chamber point."""
    return consts.c1 * math.exp(-consts.c2 * math.hypot(alpha1, alpha2))


def norm_certificate(samples, consts: DecayConstants) -> float:
    """Largest multiplier-norm lower bound forced by the samples.

    A continuous bi-invariant function attaining value v at D(a1, a2) with
    limit phi_inf must have multiplier norm at least
    |v - phi_inf| exp(C2 ||alpha||) / C1; the certificate is the maximum
    over the samples.  A net of functions converging to 1 on growing balls
    therefore forces certificates that blow up, which is the obstruction
    this toolkit quantifies.
    """
    samples = list(samples)
    if not samples:
        raise ValueError("need at least one sample")
    best = 0.0
    for s in samples:
        gap = abs(complex(s.value) - complex(s.phi_inf))
        best = max(
            best,
            gap * math.exp(consts.c2 * math.hypot(s.alpha1, s.alpha2)) / consts.c1,
        )
    return best


def constants_table(p_values, c_u2: float, series_terms: int = 4096) -> list:
    """Chain constants on a p-grid as rows of plain floats."""
    rows = []
    for p in p_values:
        c = chain_constants(float(p), c_u2, series_terms)
        rows.append(
            [c.p, c.c_tilde, c.c_hat, c.c3, c.c4, c.c5, c.c5_prime, c.c6, c.c1, c.c2]
        )
    return rows


def write_constants_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["p", "C_tilde", "C_hat", "C3", "C4", "C5", "C5p", "C6", "C1", "C2"]
        )
        for row in rows:
            writer.writerow([f"{x:.17g}" for x in row])
