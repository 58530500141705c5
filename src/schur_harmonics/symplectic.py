"""The matrix group Sp(2,R) in GL(4,R): membership, U(2) embedding, KAK.

Elements satisfy g^T J g = J for the block form J = [[0, I2], [-I2, 0]].
The maximal compact subgroup K consists of the matrices [[A, -B], [B, A]]
with A + iB unitary, and the positive Weyl chamber is the set of diagonals
D(a1, a2) = diag(e^a1, e^a2, e^-a1, e^-a2) with a1 >= a2 >= 0.

The KAK decomposition takes one SVD of g.  Its singular values come in
reciprocal pairs e^(+-a1), e^(+-a2), but the orthogonal factors LAPACK
returns need not lie in K, so only the two large singular values and
their right singular vectors are read: if v is a unit singular vector for
s, then -Jv is exactly the partner for 1/s.  Completing the two large
vectors with their -J partners keeps the compact factors in K, also where
singular values cluster at the chamber walls, and never touches the small
singular values, whose absolute error eps e^a1 would swamp e^-a1.  In
double precision the decomposition is tested for a1 <= 15; beyond that
the relative residual grows like eps e^(a1 - a2), at worst eps e^a1, until
DecompositionError is raised.  Tolerances are module constants and scale
with ||g||.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gelfand import haar_u2

__all__ = [
    "J4",
    "SymplecticError",
    "DecompositionError",
    "KakResult",
    "CheckResult",
    "embed_u2",
    "recover_u2",
    "project_to_k",
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
    "kak_to_json",
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
# a swept q2 candidate below this norm sits in span(q1, J q1) and the next
# singular vector is tried instead (only inside singular-value clusters,
# where any cluster vector is equally valid)
SWEEP_MIN_NORM = 1e-3


@dataclass
class CheckResult:
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
    u = np.asarray(u, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError("expected a 2x2 matrix")
    k = np.empty((4, 4))  # filled in place: np.block costs 3x as long at this size
    k[:2, :2] = k[2:, 2:] = u.real
    k[2:, :2] = u.imag
    k[:2, 2:] = -u.imag
    return k


def recover_u2(k) -> np.ndarray:
    """Inverse of the embedding: average the blocks back into A + iB."""
    k = np.asarray(k, dtype=float)
    a = (k[:2, :2] + k[2:, 2:]) / 2.0
    b = (k[2:, :2] - k[:2, 2:]) / 2.0
    return a + 1j * b


def project_to_k(m) -> tuple:
    """Nearest element of K: recover A + iB, unitarize by polar factor."""
    u = recover_u2(np.asarray(m, dtype=float))
    w, _, vh = np.linalg.svd(u)
    u_pol = w @ vh
    return embed_u2(u_pol), u_pol


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


def symplectic_check(g) -> CheckResult:
    """Frobenius defects from the group and from its maximal compact.

    g^T J g - J rounds to about eps ||g||^2, so membership in G is relative:
    defect <= SYMPLECTIC_TOL max(1, ||g||_F^2).
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 real matrix")
    d_sympl = float(np.linalg.norm(g.T @ J4 @ g - J4))
    d_orth = float(np.linalg.norm(g.T @ g - np.eye(4)))
    in_g = d_sympl <= SYMPLECTIC_TOL * max(1.0, float(np.linalg.norm(g)) ** 2)
    in_k = in_g and d_orth <= K_TOL
    u = None
    if in_k:
        u = recover_u2(g)
    return CheckResult(in_g, in_k, d_sympl, d_orth, u)


def _symplectic_sweep(q1: np.ndarray, cand: np.ndarray):
    """Remove the span(q1, J q1) component and renormalize; None if degenerate."""
    jq1 = J4 @ q1
    w = cand - (q1 @ cand) * q1 - (jq1 @ cand) * jq1
    nw = np.linalg.norm(w)
    if nw < SWEEP_MIN_NORM:
        return None
    return w / nw


def _with_j_partners(x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """The columns [x1, x2, -J x1, -J x2]; in K when x1, x2 are orthonormal
    and x2 is orthogonal to J x1."""
    return np.column_stack([x1, x2, -J4 @ x1, -J4 @ x2])


def kak_decompose(g) -> KakResult:
    """Decompose g = k1 D(a1, a2) k2 with k1, k2 in K and a1 >= a2 >= 0.

    From one SVD of g: a1 = log s1 and a2 = max(0, log s2).  k2^T has the
    columns [q1, q2, -J q1, -J q2], q1 the top right singular vector and q2
    the first later one with a unit part off span(q1, J q1) (inside a
    cluster at a chamber wall any such vector serves); k1 has the columns
    [g q1 e^-a1, g q2 e^-a2] completed the same way; both are projected to
    K.  The relative residual ||k1 D k2 - g||_F / ||g||_F is returned, or
    DecompositionError raised above RESIDUAL_TOL.
    """
    g = np.asarray(g, dtype=float)
    check = symplectic_check(g)
    if not check.in_g:
        raise SymplecticError(
            f"input is not symplectic (defect {check.symplectic_defect:.3e})"
        )
    _, s, vt = np.linalg.svd(g)
    alpha1 = math.log(s[0])
    alpha2 = max(0.0, math.log(s[1]))
    q1 = vt[0]
    q2 = next(
        (q for q in (_symplectic_sweep(q1, v) for v in vt[1:]) if q is not None),
        None,
    )
    if q2 is None:
        raise DecompositionError("failed to build a symplectic singular basis")
    k2, u2 = project_to_k(_with_j_partners(q1, q2).T)
    k1, u1 = project_to_k(
        _with_j_partners(g @ q1 / math.exp(alpha1), g @ q2 / math.exp(alpha2))
    )
    residual = float(
        np.linalg.norm(k1 @ weyl_element(alpha1, alpha2) @ k2 - g) / math.hypot(*s)
    )
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
    obj = json.loads(text)
    rows = obj["rows"] if isinstance(obj, dict) else obj
    m = np.asarray(rows, dtype=float)
    if m.shape != (4, 4):
        raise ValueError("expected a 4x4 matrix")
    return m


def kak_to_json(res: KakResult) -> str:
    return json.dumps(
        {
            "alpha1": res.alpha1,
            "alpha2": res.alpha2,
            "residual": res.residual,
            "k1": res.k1.tolist(),
            "k2": res.k2.tolist(),
        }
    )
