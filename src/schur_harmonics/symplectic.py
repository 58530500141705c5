"""The matrix group Sp(2,R) in GL(4,R): membership, U(2) embedding, KAK.

Elements satisfy g^T J g = J for the block form J = [[0, I2], [-I2, 0]].
The maximal compact subgroup K consists of the matrices [[A, -B], [B, A]]
with A + iB unitary, and the positive Weyl chamber is the set of diagonals
D(a1, a2) = diag(e^a1, e^a2, e^-a1, e^-a2) with a1 >= a2 >= 0.

The KAK decomposition takes one SVD of g.  Its singular values come in
reciprocal pairs e^(+-a1), e^(+-a2), but the orthogonal factors LAPACK
returns need not lie in K, so only the two large singular values and
their right singular vectors q1, q2 are read; the small singular values,
whose absolute error eps e^a1 would swamp e^-a1, are never touched.  Read
as C^2 columns (x0 + i x2, x1 + i x3), a real 4-vector x and its partner
-Jx are x and ix, so span(q1, J q1) is the complex line of q1 and each
compact factor is the embedding of a 2x2 unitary made by Gram-Schmidt on
complex scalars: k2 from (q1, q2), q2 the first later singular vector
with a part off that line (one complex projection), k1 from (g q1, g q2).
Gram-Schmidt keeps the first column's direction and leaves the rounding
error of g q2, about eps e^a1 along the first column, in the column D
scales by e^a2, so the relative residual ||k1 D k2 - g||_F / ||g||_F is a
backward error at eps level wherever a result is returned, walls included.  The domain is
bounded instead by alpha2, whose forward error from the float SVD is
about eps s1/s2: DecompositionError is raised where that exceeds
ALPHA2_TOL, that is for a1 - a2 > 22.2.  Tolerances are module constants
and scale with ||g||.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._json_fields import json_square
from .gelfand import haar_u2

__all__ = [
    "J4",
    "SymplecticError",
    "DecompositionError",
    "KakResult",
    "CheckResult",
    "embed_u2",
    "recover_u2",
    "weyl_element",
    "d_alpha",
    "d_alpha_prime",
    "su2_element",
    "v_element",
    "symplectic_check",
    "kak_decompose",
    "haar_k",
    "matrix_to_json",
    "matrix_from_json",
]

J4 = np.block(
    [[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]]
)


class SymplecticError(ValueError):
    """Raised for input that is not symplectic within tolerance."""


class DecompositionError(ArithmeticError):
    """Raised when a decomposition residual exceeds tolerance."""


# g^T J g - J relative to max(1, ||g||_F^2); see symplectic_check
SYMPLECTIC_TOL = 1e-9
# g^T g - I for elements of K (absolute: ||k||_F^2 = 4)
K_TOL = 1e-9
# ||k1 D k2 - g||_F / ||g||_F above this raises DecompositionError
RESIDUAL_TOL = 1e-8
# alpha2's forward error from the float SVD is about eps s1/s2, which the
# residual cannot see; above this DecompositionError is raised (a1 - a2 > 22.2)
ALPHA2_TOL = 1e-6
_EPS = float(np.finfo(float).eps)
# The float SVD of an element of Sp(2,R), rounding in g included, moves its
# singular values by at most eps (SV_TOL_REL s1 + SV_TOL_ABS): measured under
# 0.7 eps s1 for s1 > e^3 and under 4.3 eps near s1 = 1 (products of three
# elements of K)
SV_TOL_REL, SV_TOL_ABS = 2.0, 8.0
# a later singular vector with a part off the complex line of q1 shorter than
# this is passed over (only within rounding of the origin, where any serves)
SWEEP_MIN_NORM = 1e-3
# embed_u2 reads u as the floats (re u00, im u00, re u01, im u01, re u10, ...)
_EMBED_INDEX = np.array([[0, 2, 1, 3], [4, 6, 5, 7], [1, 3, 0, 2], [5, 7, 4, 6]])
_EMBED_SIGN = np.array([[1.0, 1.0, -1.0, -1.0]] * 2 + [[1.0] * 4] * 2)


@dataclass
class CheckResult:
    """Membership diagnostics; see ``symplectic_check``."""

    in_g: bool
    in_k: bool
    symplectic_defect: float
    orthogonal_defect: float
    u: np.ndarray | None


@dataclass
class KakResult:
    k1: np.ndarray
    k2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    alpha1: float
    alpha2: float
    residual: float

    @property
    def alpha(self) -> tuple:
        return (self.alpha1, self.alpha2)


def embed_u2(u) -> np.ndarray:
    """Embed a 2x2 unitary A + iB as the 4x4 block matrix [[A, -B], [B, A]]."""
    u = np.ascontiguousarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    # one gather and one sign flip: half the time of four block assignments
    return u.reshape(4).view(float)[_EMBED_INDEX] * _EMBED_SIGN


def recover_u2(k) -> np.ndarray:
    """Inverse of the embedding: average the blocks back into A + iB."""
    k = np.asarray(k, dtype=float)
    a = (k[:2, :2] + k[2:, 2:]) / 2.0
    b = (k[2:, :2] - k[:2, 2:]) / 2.0
    return a + 1j * b


def weyl_element(alpha1: float, alpha2: float) -> np.ndarray:
    """The chamber diagonal diag(e^a1, e^a2, e^-a1, e^-a2)."""
    return np.diag(
        [math.exp(alpha1), math.exp(alpha2), math.exp(-alpha1), math.exp(-alpha2)]
    )


def d_alpha(alpha: float) -> np.ndarray:
    """diag(e^a, 1, e^-a, 1); commutes with the embedded U(1)."""
    return np.diag([math.exp(alpha), 1.0, math.exp(-alpha), 1.0])


def d_alpha_prime(alpha: float) -> np.ndarray:
    """diag(e^a, e^a, e^-a, e^-a); commutes with the embedded SO(2)."""
    e = math.exp(alpha)
    return np.diag([e, e, 1.0 / e, 1.0 / e])


def su2_element(a: float, b: float) -> np.ndarray:
    """The embedded special unitary [[a+ib, -w], [w, a-ib]], w = sqrt(1-a^2-b^2)."""
    s = a * a + b * b
    if s > 1.0 + 1e-12:
        raise ValueError("need a^2 + b^2 <= 1")
    w = math.sqrt(max(0.0, 1.0 - s))
    u = np.array([[a + 1j * b, -w], [w, a - 1j * b]])
    return embed_u2(u)


def v_element() -> np.ndarray:
    """The central element of K given by (1+i)/sqrt(2) times the identity."""
    c = (1.0 + 1.0j) / math.sqrt(2.0)
    return embed_u2(np.diag([c, c]))


def _symplectic_defect(g: np.ndarray) -> tuple:
    """||g^T J g - J||_F, J g taken as a signed row swap, and whether it is
    at most SYMPLECTIC_TOL max(1, ||g||_F^2)."""
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 real matrix")
    r = g.T @ np.concatenate((g[2:], -g[:2]))
    r -= J4
    defect = math.sqrt(np.vdot(r, r))
    return defect, defect <= SYMPLECTIC_TOL * max(1.0, float(np.vdot(g, g)))


def _singular_values_pair(s) -> bool:
    """Whether singular values s1 >= s2 >= s3 >= s4 lie within
    d = eps (SV_TOL_REL s1 + SV_TOL_ABS) of a symplectic matrix's, which
    have s2 >= 1 and s2 s3 = 1.  By Weyl's inequality that needs
    s2 >= 1 - d and |s2 s3 - 1| <= d (s2 + s3) + 3 d^2; the second test is
    void where eps s1 s2 is large, as s3 is then lost to rounding."""
    s1, s2, s3 = float(s[0]), float(s[1]), float(s[2])
    d = _EPS * (SV_TOL_REL * s1 + SV_TOL_ABS)
    return s2 >= 1.0 - d and abs(s2 * s3 - 1.0) <= d * (s2 + s3) + 3.0 * d * d


def symplectic_check(g) -> CheckResult:
    """Frobenius defects from the group and from its maximal compact.

    ``in_g`` reads g as a float matrix within a small relative backward
    distance of Sp(2,R): g^T J g - J rounds to about eps ||g||^2, so the
    defect is bounded relatively, defect <= SYMPLECTIC_TOL max(1, ||g||_F^2);
    and the singular values must pair as those of an element moved by a
    float SVD (see ``_singular_values_pair``).  The defect alone passes
    every rank-deficient g with isotropic range and large norm, for which
    g^T J g = 0; the singular values reject them as far as double
    precision resolves them, about to ||g|| = 1e15 for rank 1.
    """
    g = np.asarray(g, dtype=float)
    d_sympl, in_g = _symplectic_defect(g)
    in_g = in_g and _singular_values_pair(np.linalg.svd(g, compute_uv=False))
    d_orth = float(np.linalg.norm(g.T @ g - np.eye(4)))
    in_k = in_g and d_orth <= K_TOL
    u = recover_u2(g) if in_k else None
    return CheckResult(in_g, in_k, d_sympl, d_orth, u)


def _unitary_gs(x, ys):
    """Unit columns (a, b), (c, d) of a unitary by Gram-Schmidt on real 4-vectors
    read as C^2 columns (v0 + i v2, v1 + i v3): x, then the first y in ys whose
    part off the complex line of x has norm >= SWEEP_MIN_NORM, projected twice
    (once leaves it off orthogonal by eps/norm, 2e-13 at SWEEP_MIN_NORM)."""
    x0, x1, x2, x3 = x
    n = math.hypot(x0, x1, x2, x3)
    a, b = complex(x0 / n, x2 / n), complex(x1 / n, x3 / n)
    ac, bc = a.conjugate(), b.conjugate()
    for y0, y1, y2, y3 in ys:
        c, d = complex(y0, y2), complex(y1, y3)
        p = ac * c + bc * d
        c, d = c - p * a, d - p * b
        if math.hypot(c.real, c.imag, d.real, d.imag) >= SWEEP_MIN_NORM:
            p = ac * c + bc * d
            c, d = c - p * a, d - p * b
            m = math.hypot(c.real, c.imag, d.real, d.imag)
            return a, b, c / m, d / m
    raise DecompositionError("failed to build a symplectic singular basis")


def kak_decompose(g) -> KakResult:
    """Decompose g = k1 D(a1, a2) k2 with k1, k2 in K and a1 >= a2 >= 0.

    From one SVD of g: a1 = log s1 and a2 = max(0, log s2).  k2^T is the
    embedding of the Gram-Schmidt unitary of (q1, q2) in C^2, q1 the top
    right singular vector and q2 the first later one with a part off the
    complex line of q1 (near the origin any such vector serves); k1 is that
    of (g q1, g q2), q1 and q2 as Gram-Schmidt returned them.
    SymplecticError is raised where g fails the membership test of
    ``symplectic_check``, with the singular values taken from the same SVD.
    DecompositionError is raised where alpha2's forward error eps s1/s2
    exceeds ALPHA2_TOL, and where the relative residual
    ||k1 D k2 - g||_F / ||g||_F, which is returned, exceeds RESIDUAL_TOL.
    """
    g = np.asarray(g, dtype=float)
    defect, in_g = _symplectic_defect(g)
    if not in_g:
        raise SymplecticError(f"input is not symplectic (defect {defect:.3e})")
    _, s, vt = np.linalg.svd(g)
    s = s.tolist()
    if not _singular_values_pair(s):
        raise SymplecticError(
            f"singular values {s[0]:.3e}, {s[1]:.3e}, {s[2]:.3e}, {s[3]:.3e} "
            "are not those of a symplectic matrix"
        )
    if _EPS * s[0] > ALPHA2_TOL * s[1]:
        raise DecompositionError(
            f"alpha2 is lost to rounding: eps s1/s2 exceeds {ALPHA2_TOL:.1e} "
            f"(s1 = {s[0]:.3e}, s2 = {s[1]:.3e}), which the relative "
            "decomposition residual cannot detect"
        )
    alpha1 = math.log(s[0])
    alpha2 = max(0.0, math.log(s[1]))
    q1, *later = vt.tolist()
    a, b, c, d = _unitary_gs(q1, later)
    u2 = np.array([[a.conjugate(), b.conjugate()], [c.conjugate(), d.conjugate()]])
    q = np.array([[a.real, b.real, a.imag, b.imag], [c.real, d.real, c.imag, d.imag]])
    gq1, gq2 = (q @ g.T).tolist()  # from one product; Gram-Schmidt drops their scales
    a, b, c, d = _unitary_gs(gq1, (gq2,))
    u1 = np.array([[a, c], [b, d]])
    k1, k2 = embed_u2(u1), embed_u2(u2)
    r = (k1 * [math.exp(alpha1), math.exp(alpha2), math.exp(-alpha1), math.exp(-alpha2)]) @ k2
    r -= g
    residual = math.sqrt(np.vdot(r, r)) / math.hypot(*s)
    if residual > RESIDUAL_TOL:
        raise DecompositionError(
            f"relative decomposition residual {residual:.3e} exceeds {RESIDUAL_TOL:.1e}"
        )
    return KakResult(k1, k2, u1, u2, alpha1, alpha2, residual)


def haar_k(rng: np.random.Generator) -> np.ndarray:
    """Haar-random element of K: the embedding of one ``haar_u2`` draw."""
    return embed_u2(haar_u2(rng)[0])


def matrix_to_json(m) -> str:
    return json.dumps({"rows": np.asarray(m, dtype=float).tolist()})


def matrix_from_json(text: str) -> np.ndarray:
    """A 4x4 matrix from {"rows": [...]} or a bare list of 4 rows of 4 JSON numbers."""
    obj = json.loads(text)
    rows = obj["rows"] if isinstance(obj, dict) else obj
    return np.array(json_square(rows, 4, "matrix rows"))
