"""Solvers for the sinh systems tying Weyl parameters to coset coordinates.

Four scalar systems are covered, all monotone in the unknowns:

* ``solve_hyperbola``: sinh(b)sinh(c) = sinh^2(alpha)(1-a^2-b^2) and
  sinh(b)-sinh(c) = sinh(2 alpha)|a|, solved in closed form (quadratic in
  sinh).
* ``solve_circle``: sinh^2(b)+sinh^2(c) = sinh^2(2 alpha) and
  sinh(b)sinh(c) = sinh^2(2 alpha)|r|/2, closed form.
* ``solve_st``: sinh^2(2s)+sinh^2(s) and sinh(2t)sinh(t) matched to given
  (beta, gamma) data, closed form: a quadratic in sinh^2(s) and a cubic in
  cosh(t) solved by Viete's trigonometric or hyperbolic root.
* ``solve_bg``: the inverse of ``solve_st``, a quadratic in sinh^2.

All arithmetic runs on logarithms of sinh values, so the solvers stay
usable far beyond the double overflow point of sinh itself (beta ~ 700).
Closed forms use product identities instead of differences wherever a
difference would cancel catastrophically.
"""

from __future__ import annotations

import math
import sys

__all__ = [
    "log_sinh",
    "asinh_exp",
    "su2_label",
    "solve_hyperbola",
    "solve_circle",
    "solve_st",
    "solve_bg",
    "rel_gap",
    "residuals",
]

_LOG2 = math.log(2.0)
_NEG_INF = float("-inf")
_LOG_TINY = math.log(sys.float_info.min)  # log of the smallest normal double
_LOG_TINY2 = 2.0 * _LOG_TINY
_LOG_VIETE_X = math.log(0.75 * math.sqrt(3.0))  # X = (3 sqrt(3)/4) P in solve_st
_LOG_VIETE_C = math.log(2.0 / math.sqrt(3.0))


def log_sinh(x: float) -> float:
    """log(sinh(x)) for x >= 0, stable for every magnitude."""
    if x < 0:
        raise ValueError("log_sinh needs x >= 0")
    if x == 0.0:
        return _NEG_INF
    if x < 20.0:
        return math.log(math.sinh(x))
    # sinh(x) = e^x (1 - e^(-2x)) / 2
    return x - _LOG2 + math.log1p(-math.exp(-2.0 * x))


def asinh_exp(log_s: float) -> float:
    """Inverse of log_sinh: the x >= 0 with log(sinh(x)) = log_s."""
    if log_s == _NEG_INF:
        return 0.0
    if log_s < 30.0:
        return math.asinh(math.exp(log_s))
    # x = log_s + log(1 + sqrt(1 + e^(-2 log_s)))
    return log_s + math.log1p(math.sqrt(1.0 + math.exp(-2.0 * log_s)))


def _finite_pair(x: float, y: float) -> tuple:
    """The solver outputs (x, y), or ArithmeticError when either overflowed."""
    if not x + y < math.inf:  # false for inf and for nan
        raise ArithmeticError("solution beyond the double range")
    return (x, y)


def su2_label(a: float, b: float, c: float, d: float) -> float:
    """Double-coset label of a special unitary with rows (a+ib, -c+id)."""
    return a * a - b * b + c * c - d * d


def solve_hyperbola(alpha: float, a: float, b: float) -> tuple:
    """Chamber pair (beta, gamma) with sinh(beta)sinh(gamma) =
    sinh^2(alpha)(1-a^2-b^2) and sinh(beta)-sinh(gamma) = sinh(2 alpha)|a|.

    Closed form: sinh(beta) is the positive root of a quadratic; gamma comes
    from the product equation, which avoids the cancellation of the
    difference form.  Always beta >= gamma >= 0; ArithmeticError is raised
    when beta overflows (alpha from about 9e307).
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    s2 = a * a + b * b
    if not s2 <= 1.0 + 1e-12:
        raise ValueError("need finite a, b with a^2 + b^2 <= 1")
    s2 = min(s2, 1.0)
    if alpha == 0.0:
        return (0.0, 0.0)
    log_a = _log_hyperbola_rhs(alpha, s2)
    log_b = log_sinh(2.0 * alpha) + math.log(abs(a)) if a != 0.0 else _NEG_INF
    if log_b == _NEG_INF and log_a == _NEG_INF:
        return (0.0, 0.0)
    if log_b == _NEG_INF:
        log_sb = 0.5 * log_a
    elif log_a == _NEG_INF:
        log_sb = log_b
    elif log_b >= 0.5 * log_a:
        # sinh(beta) = B (1 + sqrt(1 + 4A/B^2)) / 2
        u = math.exp(log_a - 2.0 * log_b)
        log_sb = log_b + math.log((1.0 + math.sqrt(1.0 + 4.0 * u)) / 2.0)
    else:
        # sinh(beta) = sqrt(A) (h + sqrt(1 + h^2)), h = B / (2 sqrt(A))
        h = math.exp(log_b - 0.5 * log_a) / 2.0
        log_sb = 0.5 * log_a + math.asinh(h)
    beta = asinh_exp(log_sb)
    gamma = asinh_exp(log_a - log_sb) if log_a != _NEG_INF else 0.0
    return _finite_pair(beta, gamma)


def solve_circle(alpha: float, r: float) -> tuple:
    """Chamber pair (beta, gamma) with sinh^2(beta)+sinh^2(gamma) =
    sinh^2(2 alpha) and sinh(beta)sinh(gamma) = sinh^2(2 alpha)|r|/2.

    The discriminant is sinh^4(2 alpha)(1 - r^2) >= 0; tiny negative values
    from rounding are clamped.  ArithmeticError is raised when beta
    overflows (alpha from about 9e307).
    """
    if not 0.0 <= alpha < math.inf:
        raise ValueError("alpha must be finite and >= 0")
    if not abs(r) <= 1.0 + 1e-12:
        raise ValueError("need finite r with |r| <= 1")
    w = min(abs(r), 1.0)
    if alpha == 0.0:
        return (0.0, 0.0)
    log_s = 2.0 * log_sinh(2.0 * alpha)
    disc = max(0.0, 1.0 - w * w)
    root = math.sqrt(disc)
    # sinh^2(beta) = (S/2)(1 + root); sinh^2(gamma) = (S/2) w^2/(1 + root)
    log_sb2 = log_s - _LOG2 + math.log1p(root)
    beta = asinh_exp(0.5 * log_sb2)
    if w == 0.0:
        return _finite_pair(beta, 0.0)
    log_sg2 = log_s - _LOG2 + 2.0 * math.log(w) - math.log1p(root)
    return _finite_pair(beta, asinh_exp(0.5 * log_sg2))


def _log_sum_sq(x: float, y: float) -> float:
    """log(sinh^2(x) + sinh^2(y)) for x >= y >= 0: every sum side."""
    big, small = 2.0 * log_sinh(x), 2.0 * log_sinh(y)
    return big if small == _NEG_INF else big + math.log1p(math.exp(small - big))


def _log_prod(x: float, y: float) -> float:
    """log(sinh(x) sinh(y)) for x, y >= 0: every product side."""
    return log_sinh(x) + log_sinh(y)


def _log_hyperbola_rhs(alpha: float, s2: float) -> float:
    """log(sinh^2(alpha)(1 - s2)), the hyperbola's product side; s2 = a^2 + b^2."""
    return _log_prod(alpha, alpha) + math.log(1.0 - s2) if s2 < 1.0 else _NEG_INF


def solve_st(beta: float, gamma: float) -> tuple:
    """The unique (s, t) with sinh^2(2s)+sinh^2(s) = S = sinh^2(beta)+sinh^2(gamma)
    and sinh(2t)sinh(t) = P = sinh(beta)sinh(gamma), in closed form.

    v = sinh^2(s) solves 4v^2 + 5v = S, so v = 2S / (5 + sqrt(25 + 16S)).
    c = cosh(t) solves 2c^3 - 2c = P; Viete's root c >= 1 is (2/sqrt 3)
    cos(acos(X)/3) for X = (3 sqrt(3)/4) P < 1, else (2/sqrt 3)
    cosh(acosh(X)/3), and sinh^2(t) = P / (2c) has no c - 1 cancellation.
    Both run on log S and log P.  The outputs satisfy s >= beta/4 and
    t >= gamma/2.  ArithmeticError is raised when s or t would lie below
    the smallest normal double, or when s overflows.
    """
    if not 0.0 <= gamma <= beta < math.inf:
        raise ValueError("need finite beta >= gamma >= 0")
    if beta == 0.0:
        return (0.0, 0.0)
    log_sum = _log_sum_sq(beta, gamma)
    log_prod = _log_prod(beta, gamma)
    # 5 s^2 <= sinh^2(2s)+sinh^2(s) and 2 t^2 <= sinh(2t)sinh(t) bound the roots
    if log_sum < math.log(5.0) + _LOG_TINY2 or _NEG_INF < log_prod < _LOG2 + _LOG_TINY2:
        raise ArithmeticError("s or t lies below the normal double range")
    # v = 2S / (5 + sqrt(25 + 16S)) with e^m factored out of the denominator
    m = max(0.5 * log_sum, 0.0)
    e = math.exp(-m)
    root = math.sqrt(25.0 * e * e + 16.0 * math.exp(log_sum - 2.0 * m))
    s = asinh_exp(0.5 * (_LOG2 + log_sum - m - math.log(5.0 * e + root)))
    log_x = log_prod + _LOG_VIETE_X
    if log_x < 0.0:
        log_c = _LOG_VIETE_C + math.log(math.cos(math.acos(math.exp(log_x)) / 3.0))
    else:
        # y = acosh(X)/3 and log cosh(y) = y - log 2 + log(1 + e^(-2y)), on log X
        y = (log_x + math.log1p(math.sqrt(-math.expm1(-2.0 * log_x)))) / 3.0
        log_c = _LOG_VIETE_C + y - _LOG2 + math.log1p(math.exp(-2.0 * y))
    t = asinh_exp(0.5 * (log_prod - _LOG2 - log_c))
    if s < beta / 4.0 - 1e-9 or t < gamma / 2.0 - 1e-9:
        raise ArithmeticError("postcondition s >= beta/4, t >= gamma/2 failed")
    return _finite_pair(s, t)


def solve_bg(s: float, t: float) -> tuple:
    """Inverse of ``solve_st``: chamber pair (beta, gamma) with
    sinh^2(beta)+sinh^2(gamma) = sinh^2(2s)+sinh^2(s) and
    sinh(beta)sinh(gamma) = sinh(2t)sinh(t).

    sinh^2 of the outputs are the two roots of a quadratic; requires
    s >= t >= 0.  On the strip 1 <= t <= s <= 3t/2 the solution satisfies
    |beta - 2s| <= 1 and |gamma + 2s - 3t| <= 1, which is asserted.
    ArithmeticError is raised when gamma > 0 would lie below the smallest
    normal double or either output overflows.
    """
    if not (t >= 0.0 and t - 1e-12 <= s < math.inf):
        raise ValueError("need finite s >= t >= 0")
    t = min(t, s)
    if s == 0.0:
        return (0.0, 0.0)
    log_sig = _log_sum_sq(2.0 * s, s)
    log_pi = _log_prod(2.0 * t, t)
    if log_pi == _NEG_INF:
        return _finite_pair(asinh_exp(0.5 * log_sig), 0.0)
    w = math.exp(_LOG2 + log_pi - log_sig)
    if w > 1.0 + 1e-12:
        raise ArithmeticError("negative discriminant: inconsistent (s, t)")
    w = min(w, 1.0)
    root = math.sqrt(max(0.0, 1.0 - w * w))
    log_sb2 = log_sig - _LOG2 + math.log1p(root)
    beta = asinh_exp(0.5 * log_sb2)
    log_sg = 0.5 * (2.0 * log_pi - log_sb2)
    if log_sg < _LOG_TINY:
        raise ArithmeticError("gamma lies below the normal double range")
    gamma = asinh_exp(log_sg)
    if 1.0 <= t <= s <= 1.5 * t:
        if abs(beta - 2.0 * s) > 1.0 + 1e-9 or abs(gamma + 2.0 * s - 3.0 * t) > 1.0 + 1e-9:
            raise ArithmeticError("strip inequalities |beta-2s|<=1, |gamma+2s-3t|<=1 failed")
    return _finite_pair(beta, gamma)


def rel_gap(log_lhs: float, log_rhs: float) -> float:
    """Relative defect e^(log_lhs - log_rhs) - 1 of the equation lhs = rhs,
    from the logs of its sides, safe at any magnitude.

    It is 0 when both sides are zero (log -inf) and inf when exactly one is.
    """
    if log_lhs == log_rhs:  # covers the -inf == -inf case
        return 0.0
    if math.isinf(log_lhs) or math.isinf(log_rhs):
        return math.inf
    return math.expm1(log_lhs - log_rhs)


def residuals(system: str, given: tuple, solution: tuple) -> dict:
    """Relative residual of each equation of a sinh system at its solution.

    ``system`` is "hyperbola", "circle", "st" or "bg", ``given`` the
    arguments of that system's solver and ``solution`` the pair it returned.
    Each residual is ``rel_gap(solution side, given side)``.  The hyperbola
    and circle report their product equation (``product_rel``), st its two
    equations (``s_equation_rel``, ``t_equation_rel``) and bg its sum and
    product equations (``sum_rel``, ``product_rel``).
    """
    x, y = solution
    if system == "st":
        beta, gamma = given
        return {
            "s_equation_rel": rel_gap(_log_sum_sq(2.0 * x, x), _log_sum_sq(beta, gamma)),
            "t_equation_rel": rel_gap(_log_prod(2.0 * y, y), _log_prod(beta, gamma)),
        }
    if system == "bg":
        s, t = given
        return {
            "sum_rel": rel_gap(_log_sum_sq(x, y), _log_sum_sq(2.0 * s, s)),
            "product_rel": rel_gap(_log_prod(x, y), _log_prod(2.0 * t, t)),
        }
    if system == "hyperbola":
        alpha, a, b = given
        want = _log_hyperbola_rhs(alpha, a * a + b * b)
    elif system == "circle":
        alpha, r = given
        want = (
            _log_prod(2.0 * alpha, 2.0 * alpha) + math.log(abs(r) / 2.0)
            if r != 0.0 else _NEG_INF
        )
    else:
        raise ValueError(f"unknown sinh system {system!r}")
    return {"product_rel": rel_gap(_log_prod(x, y), want)}

