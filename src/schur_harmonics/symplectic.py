"""The matrix group Sp(2,R) in GL(4,R): membership, U(2) embedding, KAK.

Elements satisfy g^T J g = J for the block form J = [[0, I2], [-I2, 0]].
The maximal compact subgroup K consists of the matrices [[A, -B], [B, A]]
with A + iB unitary, and the positive Weyl chamber is the set of diagonals
D(a1, a2) = diag(e^a1, e^a2, e^-a1, e^-a2) with a1 >= a2 >= 0.

The KAK decomposition works on the eigendecomposition of g^T g.  Generic
SVD does not return orthogonal factors that are also symplectic, so the
essential step is re-pairing eigenvectors across reciprocal eigenvalues
with the symplectic form: if v is a unit eigenvector for lambda, then -Jv
is exactly the partner eigenvector for 1/lambda, and enforcing that pairing
keeps the compact factors in K even when eigenvalues cluster at the chamber
walls.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .gelfand import haar_u2

__all__ = [
    "J4",
    "KakTolerances",
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
    "special_element",
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


@dataclass(frozen=True)
class KakTolerances:
    """All numeric thresholds of this module in one place."""

    symplectic: float = 1e-9
    residual: float = 1e-8
    k_membership: float = 1e-9
    # a swept q2 candidate below this norm sits in span(q1, J q1) and the
    # next eigenvector is tried instead (only happens inside eigenvalue
    # clusters, where any cluster vector is equally valid)
    sweep_min_norm: float = 1e-3


DEFAULT_TOL = KakTolerances()


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
    a, b = u.real, u.imag
    return np.block([[a, -b], [b, a]])


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


def special_element(kind: str, **params) -> np.ndarray:
    """Dispatch for the distinguished elements by name.

    kind is one of "weyl" (alpha1, alpha2), "d" (alpha), "d_prime" (alpha),
    "u" (a, b), "v".
    """
    if kind == "weyl":
        return weyl_element(params["alpha1"], params["alpha2"])
    if kind == "d":
        return d_alpha(params["alpha"])
    if kind == "d_prime":
        return d_alpha_prime(params["alpha"])
    if kind == "u":
        return su2_element(params["a"], params["b"])
    if kind == "v":
        return v_element()
    raise ValueError(f"unknown element kind {kind!r}")


def symplectic_check(g, tol: KakTolerances = DEFAULT_TOL) -> CheckResult:
    """Frobenius defects from the group and from its maximal compact."""
    g = np.asarray(g, dtype=float)
    if g.shape != (4, 4):
        raise ValueError("expected a 4x4 real matrix")
    d_sympl = float(np.linalg.norm(g.T @ J4 @ g - J4))
    d_orth = float(np.linalg.norm(g.T @ g - np.eye(4)))
    in_g = d_sympl <= tol.symplectic
    in_k = in_g and d_orth <= tol.k_membership
    u = None
    if in_k:
        u = recover_u2(g)
    return CheckResult(in_g, in_k, d_sympl, d_orth, u)


def _symplectic_sweep(q1: np.ndarray, cand: np.ndarray, min_norm: float):
    """Remove the span(q1, J q1) component and renormalize; None if degenerate."""
    jq1 = J4 @ q1
    w = cand - (q1 @ cand) * q1 - (jq1 @ cand) * jq1
    nw = np.linalg.norm(w)
    if nw < min_norm:
        return None
    return w / nw


def kak_decompose(g, tol: KakTolerances = DEFAULT_TOL) -> KakResult:
    """Decompose g = k1 D(a1, a2) k2 with k1, k2 in K and a1 >= a2 >= 0.

    The chamber part is unique; it is read off the eigenvalues of g^T g,
    with reciprocal pairs averaged in log scale.  The diagonalizer is forced
    into K by pairing each eigenvector v with -Jv for the reciprocal
    eigenvalue, so it stays orthogonal-symplectic through eigenvalue
    clusters at the chamber walls.  A residual above tolerance raises; it is
    never silently returned.
    """
    g = np.asarray(g, dtype=float)
    check = symplectic_check(g, tol)
    if not check.in_g:
        raise SymplecticError(
            f"input is not symplectic (defect {check.symplectic_defect:.3e})"
        )
    s = g.T @ g
    s = (s + s.T) / 2.0
    lam, vecs = np.linalg.eigh(s)
    lam = np.clip(lam, 1e-300, None)
    alpha1 = 0.25 * (math.log(lam[3]) - math.log(lam[0]))
    alpha2 = max(0.0, 0.25 * (math.log(lam[2]) - math.log(lam[1])))

    q1 = vecs[:, 3]
    q2 = None
    for idx in (2, 1, 0):
        q2 = _symplectic_sweep(q1, vecs[:, idx], tol.sweep_min_norm)
        if q2 is not None:
            break
    if q2 is None:
        raise DecompositionError("failed to build a symplectic eigenbasis")
    q_mat = np.column_stack([q1, q2, -J4 @ q1, -J4 @ q2])

    k2, u2 = project_to_k(q_mat.T)
    a = weyl_element(alpha1, alpha2)
    a_inv = weyl_element(-alpha1, -alpha2)
    k1, u1 = project_to_k(g @ k2.T @ a_inv)
    residual = float(np.linalg.norm(k1 @ a @ k2 - g))
    if residual > tol.residual:
        raise DecompositionError(
            f"decomposition residual {residual:.3e} exceeds {tol.residual:.1e}"
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
