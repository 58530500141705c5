"""Tests for Sp(2,R) membership, embeddings, and the KAK decomposition."""

import contextlib
import io
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from schur_harmonics import cli
from schur_harmonics import symplectic as sp


def test_special_elements_are_symplectic():
    cases = [
        sp.weyl_element(1.0, 0.3),
        sp.d_alpha(0.7),
        sp.d_alpha_prime(1.2),
        sp.su2_element(0.3, 0.4),
        sp.v_element(),
    ]
    for g in cases:
        check = sp.symplectic_check(g)
        assert check.in_g
        assert check.symplectic_defect <= 1e-12


def test_u_element_trivial_cases():
    assert_allclose(sp.su2_element(1.0, 0.0), np.eye(4), atol=1e-15)
    assert_allclose(sp.d_alpha(0.0), np.eye(4), atol=1e-15)
    with pytest.raises(ValueError):
        sp.su2_element(0.9, 0.9)


def test_v_squared_is_central_i():
    vv = sp.v_element() @ sp.v_element()
    assert_allclose(vv, sp.embed_u2(1j * np.eye(2)), atol=1e-14)


def test_embedding_is_homomorphism():
    rng = np.random.default_rng(0)
    for _ in range(10):
        u1 = sp.recover_u2(sp.haar_k(rng))
        u2 = sp.recover_u2(sp.haar_k(rng))
        assert (
            np.linalg.norm(sp.embed_u2(u1 @ u2) - sp.embed_u2(u1) @ sp.embed_u2(u2))
            <= 1e-12
        )


def test_embed_recover_roundtrip():
    rng = np.random.default_rng(1)
    k = sp.haar_k(rng)
    check = sp.symplectic_check(k)
    assert check.in_k
    assert np.linalg.norm(sp.embed_u2(check.u) - k) <= 1e-12
    strided = np.repeat(check.u.ravel(), 2)[::2].reshape(2, 2)  # a view, no contiguous axis
    assert np.array_equal(sp.embed_u2(strided), sp.embed_u2(check.u))


def test_haar_k_matches_phase_normalized_qr():
    z_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(50):
        z = z_rng.standard_normal((2, 2)) + 1j * z_rng.standard_normal((2, 2))
        q, r = np.linalg.qr(z)
        want = sp.embed_u2(q * (np.diag(r) / np.abs(np.diag(r))))
        assert np.array_equal(sp.haar_k(rng), want)


def test_symplectic_check_diagnostics():
    check = sp.symplectic_check(np.eye(4))
    assert check.in_g and check.in_k
    assert check.symplectic_defect == 0.0
    check = sp.symplectic_check(sp.weyl_element(1.0, 0.5))
    assert check.in_g and not check.in_k


def test_commutation_relations():
    rng = np.random.default_rng(2)
    d = sp.d_alpha(0.9)
    for theta in rng.uniform(0, 2 * np.pi, 5):
        k1 = sp.embed_u2(np.diag([1.0, np.exp(1j * theta)]))
        assert np.linalg.norm(d @ k1 - k1 @ d) <= 1e-12
    dp = sp.d_alpha_prime(1.4)
    for theta in rng.uniform(0, 2 * np.pi, 5):
        rot = sp.embed_u2(
            np.array(
                [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
                dtype=complex,
            )
        )
        assert np.linalg.norm(dp @ rot - rot @ dp) <= 1e-12


def test_reciprocal_singular_values():
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = sp.haar_k(rng) @ sp.weyl_element(*sorted(rng.uniform(0, 3, 2))[::-1]) @ sp.haar_k(rng)
        s = np.linalg.svd(g, compute_uv=False)
        assert abs(s[0] * s[3] - 1.0) <= 1e-9
        assert abs(s[1] * s[2] - 1.0) <= 1e-9


# ---------------------------------------------------------------------------
# KAK


def test_kak_of_chamber_element():
    res = sp.kak_decompose(sp.weyl_element(1.3, 0.4))
    assert_allclose(res.alpha, (1.3, 0.4), atol=1e-12)
    assert res.residual <= 1e-12


def test_kak_of_compact_element():
    rng = np.random.default_rng(4)
    res = sp.kak_decompose(sp.haar_k(rng))
    assert_allclose(res.alpha, (0.0, 0.0), atol=1e-9)


def test_kak_roundtrip_random_and_degenerate():
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(100):
        a1 = rng.uniform(0, 3)
        cases.append((a1, rng.uniform(0, a1)))
    for _ in range(10):
        a2 = rng.uniform(0.3, 2.0)
        cases.append((a2 + rng.uniform(0, 1e-8), a2))
    for _ in range(10):
        cases.append((rng.uniform(0.3, 3.0), rng.uniform(0, 1e-8)))
    cases += [(0.0, 0.0), (1e-12, 0.0), (2.0, 2.0), (2.0, 0.0)]
    for a1, a2 in cases:
        g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        assert abs(res.alpha1 - a1) <= 1e-8
        assert abs(res.alpha2 - a2) <= 1e-8
        assert res.residual <= 1e-8
        for k, u in ((res.k1, res.u1), (res.k2, res.u2)):
            assert sp.symplectic_check(k).in_k
            assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-9
            assert np.linalg.norm(sp.embed_u2(u) - k) <= 1e-9


def _wide_chamber_cases(rng, a_max, n):
    """n chamber pairs with a1 <= a_max: generic, and every fourth on a wall
    (a1 = a2, a2 = 0, or the origin in turn)."""
    walls = [lambda a1: (a1, a1), lambda a1: (a1, 0.0), lambda a1: (0.0, 0.0)]
    cases = []
    for i in range(n):
        a1 = rng.uniform(0.0, a_max)
        if i % 4 == 3:
            cases.append(walls[(i // 4) % 3](a1))
        else:
            cases.append((a1, rng.uniform(0.0, a1)))
    return cases + [(a_max, a_max), (a_max, 0.0)]


@pytest.mark.parametrize("a_max", [3.0, 5.0, 8.0, 10.0, 15.0])
def test_kak_alphas_match_mpmath_singular_values(a_max):
    """alpha = log of the two large singular values of the same float g,
    computed to 50 digits; the float SVD's error is eps e^a1 absolute in
    each singular value, so the comparison is relative to max(1, a1)."""
    rng = np.random.default_rng(int(a_max))
    for a1, a2 in _wide_chamber_cases(rng, a_max, 24):
        g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        with mpmath.workdps(50):
            s = mpmath.svd_r(mpmath.matrix(g.tolist()), compute_uv=False)
            want1, want2 = float(mpmath.log(s[0])), max(0.0, float(mpmath.log(s[1])))
        tol = 1e-10 * max(1.0, a1)
        assert abs(res.alpha1 - want1) <= tol
        assert abs(res.alpha2 - want2) <= tol


def _assert_unitary_to_eps(res):
    for u in (res.u1, res.u2):
        assert np.linalg.norm(u.conj().T @ u - np.eye(2)) <= 1e-14


def _takes_later_candidate(g):
    """Whether the second right singular vector of g lies within
    SWEEP_MIN_NORM of the complex line of the first, so that KAK passes it
    over for the third; only at the origin, where the SVD may return J q1."""
    _, _, vt = np.linalg.svd(g)
    (x0, x1, x2, x3), (y0, y1, y2, y3) = vt[0], vt[1]
    a, b, c, d = complex(x0, x2), complex(x1, x3), complex(y0, y2), complex(y1, y3)
    p = a.conjugate() * c + b.conjugate() * d
    return math.hypot(abs(c - p * a), abs(d - p * b)) < sp.SWEEP_MIN_NORM


def _assert_kak_read_off_one_svd(g):
    res = sp.kak_decompose(g)
    _, s, _ = np.linalg.svd(g)
    assert res.alpha1 == math.log(s[0])
    assert res.alpha2 == max(0.0, math.log(s[1]))
    for k, u in ((res.k1, res.u1), (res.k2, res.u2)):
        assert np.array_equal(k, sp.embed_u2(u))
    _assert_unitary_to_eps(res)
    assert res.residual <= 1e-13
    return res


@given(
    hst.floats(0.0, 15.0),
    hst.floats(0.0, 1.0),
    hst.sampled_from(["interior", "a1 = a2", "a2 = 0", "origin"]),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_kak_wide_chamber_property(a1, frac, where, seed):
    a1, a2 = {
        "interior": (a1, a1 * frac), "a1 = a2": (a1, a1), "a2 = 0": (a1, 0.0), "origin": (0.0, 0.0)
    }[where]
    rng = np.random.default_rng(seed)
    g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
    res = _assert_kak_read_off_one_svd(g)
    assert res.residual == pytest.approx(
        np.linalg.norm(res.k1 @ sp.weyl_element(*res.alpha) @ res.k2 - g) / np.linalg.norm(g),
        rel=1e-12,
    )
    for k in (res.k1, res.k2):
        assert sp.symplectic_check(k).in_k


def test_kak_read_off_one_svd_fixed_cases():
    """At the origin every singular value is 1 and LAPACK may return J q1 as
    the second right singular vector (seeds 7 and 10 here), so that q2 is
    the third."""
    later = []
    for seed, (a1, a2) in [(7, (0.0, 0.0)), (10, (0.0, 0.0)), (0, (0.0, 0.0)), (1, (4.0, 4.0)),
                           (2, (15.0, 0.0)), (3, (6.0, 2.5))]:
        rng = np.random.default_rng(seed)
        g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
        _assert_kak_read_off_one_svd(g)
        later.append(_takes_later_candidate(g))
    assert any(later)


def test_kak_wide_chamber_raises_nowhere_to_a1_15():
    rng = np.random.default_rng(1)
    for a_max in (3.0, 5.0, 8.0, 10.0, 15.0):
        for a1, a2 in _wide_chamber_cases(rng, a_max, 200):
            g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
            assert sp.kak_decompose(g).residual <= 1e-9


def test_kak_beyond_double_precision_raises():
    """At a1 = 30 on the wall a2 = 0 the relative residual is about eps e^30;
    the decomposition raises instead of returning it."""
    rng = np.random.default_rng(30)
    for _ in range(5):
        g = sp.haar_k(rng) @ sp.weyl_element(30.0, 0.0) @ sp.haar_k(rng)
        assert sp.symplectic_check(g).in_g
        with pytest.raises(sp.DecompositionError, match="relative decomposition residual"):
            sp.kak_decompose(g)


@pytest.mark.parametrize("seed", [305, 524, 1660, 1975, 653, 672, 952, 1674])
def test_kak_wall_a2_zero_at_a1_15_residual_at_eps_level(seed):
    """Seeds where a polar factor for k1, which spreads the eps e^15 error of
    g q2 into the e^15 column, gives residuals of 4e-9 to 1.4e-8."""
    rng = np.random.default_rng(seed)
    g = sp.haar_k(rng) @ sp.weyl_element(15.0, 0.0) @ sp.haar_k(rng)
    assert sp.kak_decompose(g).residual <= 1e-13


def test_kak_wide_chamber_residual_at_eps_level_to_a1_15():
    rng = np.random.default_rng(15)
    for a_max in (3.0, 5.0, 8.0, 10.0, 15.0):
        for a1, a2 in _wide_chamber_cases(rng, a_max, 200):
            g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
            res = sp.kak_decompose(g)
            assert res.residual <= 1e-13
            _assert_unitary_to_eps(res)


@pytest.mark.parametrize("alpha", [(22.5, 0.0), (23.0, 0.0), (30.0, 7.0)])
def test_kak_raises_beyond_alpha2_forward_error_limit(alpha):
    """eps s1/s2 > ALPHA2_TOL from a1 - a2 > 22.2 on, walls or not."""
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = sp.haar_k(rng) @ sp.weyl_element(*alpha) @ sp.haar_k(rng)
        with pytest.raises(sp.DecompositionError, match="eps s1/s2"):
            sp.kak_decompose(g)


@pytest.mark.parametrize("a1", [18.0, 20.0, 22.0])
def test_kak_alphas_inside_alpha2_limit_match_mpmath(a1):
    """Below the limit the alphas are within a small multiple of their
    forward error eps e^(a1 - a2) of the 50-digit singular values of g."""
    rng = np.random.default_rng(int(a1))
    tol = 4.0 * np.finfo(float).eps * np.exp(a1)
    for _ in range(8):
        g = sp.haar_k(rng) @ sp.weyl_element(a1, 0.0) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        with mpmath.workdps(50):
            s = mpmath.svd_r(mpmath.matrix(g.tolist()), compute_uv=False)
            want1, want2 = float(mpmath.log(s[0])), max(0.0, float(mpmath.log(s[1])))
        assert abs(res.alpha1 - want1) <= tol
        assert abs(res.alpha2 - want2) <= tol
        _assert_unitary_to_eps(res)


def test_symplectic_check_scales_with_norm():
    rng = np.random.default_rng(9)
    g = sp.haar_k(rng) @ sp.weyl_element(9.0, 4.0) @ sp.haar_k(rng)
    check = sp.symplectic_check(g)
    assert check.symplectic_defect > 1e-9  # rounding in g^T J g is eps ||g||^2
    assert check.in_g and not check.in_k
    assert not sp.symplectic_check(g @ np.diag([2.0, 1.0, 1.0, 1.0])).in_g


def test_kak_chamber_part_unique():
    rng = np.random.default_rng(6)
    a = (1.7, 0.6)
    for _ in range(100):
        g = sp.haar_k(rng) @ sp.weyl_element(*a) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        assert_allclose(res.alpha, a, atol=1e-8)


def test_kak_rejects_non_symplectic():
    with pytest.raises(sp.SymplecticError):
        sp.kak_decompose(np.diag([2.0, 1.0, 1.0, 1.0]))


def test_kak_ordering_invariant():
    rng = np.random.default_rng(7)
    for _ in range(25):
        g = sp.haar_k(rng) @ sp.weyl_element(rng.uniform(0, 2), 0.0) @ sp.haar_k(rng)
        res = sp.kak_decompose(g)
        assert res.alpha1 >= res.alpha2 >= 0.0


def test_matrix_json_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    g = sp.haar_k(rng) @ sp.weyl_element(0.9, 0.2) @ sp.haar_k(rng)
    back = sp.matrix_from_json(sp.matrix_to_json(g))
    assert_allclose(back, g, atol=1e-15)
    src, out = tmp_path / "g.json", tmp_path / "kak.json"
    src.write_text(sp.matrix_to_json(g))
    assert cli.main(["kak", "--in", str(src), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"alpha1", "alpha2", "residual", "k1", "k2"}


_EPS = np.finfo(float).eps


@given(
    hst.integers(0, 2**32 - 1),
    hst.floats(0.0, 15.0),
    hst.floats(0.0, 1.0),
    hst.sampled_from([1, 2]),
)
@settings(max_examples=300, deadline=None)
def test_rank_deficient_isotropic_matrices_rejected(tmp_path_factory, seed, log_s1, frac, rank):
    """Rank 1 of norm 1 to 1e15, and rank 2 with isotropic range and
    eps s1 s2 <= 1e-3: g^T J g = 0, so the relative defect alone passes
    them once ||g|| exceeds about 4.5e4."""
    rng = np.random.default_rng(seed)
    s1 = 10.0**log_s1
    if rank == 1:
        v, w = rng.standard_normal((2, 4))
        g = s1 * np.outer(v / np.linalg.norm(v), w / np.linalg.norm(w))
    else:
        s2 = min(s1, 1e-3 / (_EPS * s1)) * 10.0 ** (-6.0 * frac)
        g = sp.haar_k(rng) @ np.diag([s1, s2, 0.0, 0.0]) @ sp.haar_k(rng)
    assert not sp.symplectic_check(g).in_g
    with pytest.raises(sp.SymplecticError):
        sp.kak_decompose(g)
    src = tmp_path_factory.mktemp("g") / "g.json"
    src.write_text(sp.matrix_to_json(g))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert cli.main(["kak", "--in", str(src)]) == 2
    assert json.loads(err.getvalue())["error"] == "SymplecticError"


@given(
    hst.floats(0.0, 20.0),
    hst.floats(0.0, 22.2),
    hst.sampled_from(["interior", "a2 = 0", "a1 = a2"]),
    hst.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_kak_accepts_whole_chamber_domain(a2, gap, where, seed):
    """Every haar_k D(a1, a2) haar_k with a1 - a2 <= 22.2 passes the
    membership test and decomposes."""
    a1, a2 = {"interior": (a2 + gap, a2), "a2 = 0": (gap, 0.0), "a1 = a2": (a2, a2)}[where]
    rng = np.random.default_rng(seed)
    g = sp.haar_k(rng) @ sp.weyl_element(a1, a2) @ sp.haar_k(rng)
    assert sp.symplectic_check(g).in_g
    assert sp.kak_decompose(g).residual <= 1e-9
