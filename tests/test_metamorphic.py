"""Metamorphic invariance: transformations the theory says leave (r, n_v) fixed.

Each seeded system is transformed by a reordering of quadrature pairs, by
an orthogonal symplectic change of coordinates (one 2x2 rotation per pair),
by non-orthogonal symplectic ones (Cayley transforms of Hamiltonian
matrices), under which S_tilde changes by the congruence T^-T S_tilde T^-1,
and by the scaling (alpha A, sqrt(alpha) B, sqrt(alpha) C). Each variant
must keep r and n_v, and synthesis of each must pass all six residuals.
The corpus holds generic systems (r = n), systems whose skew invariant
was set to a random skew matrix of smaller even rank, generic systems
whose B is ill-conditioned or nearly rank-deficient, and realizable
systems (r = 0) built from small integers and scaled by 1/10, whose
S_tilde is pure roundoff.
"""

import numpy as np
import pytest
from conftest import integer_realizable_system

from qrealize import LtiSystem, compute_s_tilde, synthesize_realization
from qrealize.linalg import apply_theta

SCALES = (1e-8, 1e-4, 1e4, 1e8)
CONDITIONS = (1e2, 1e6, 1e12)


def _skew_of_rank(rng, n, r):
    """V blockdiag(s_1 J, ..., s_{r/2} J, 0) V^T with V orthogonal and s_j in [0.5, 2]."""
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    core = np.zeros((n, n))
    for j, s in enumerate(rng.uniform(0.5, 2.0, r // 2)):
        core[2 * j, 2 * j + 1], core[2 * j + 1, 2 * j] = s, -s
    return v @ core @ v.T


def _system(seed):
    """A seeded system with n in {4, 8, 20}; for three seeds in four, r < n.

    Replacing A by A - Theta (S_tilde - K) / 2 turns the skew invariant
    into K, since S_tilde changes by -dA^T Theta - Theta dA.
    """
    rng = np.random.default_rng(seed)
    n, n_u = (4, 8, 20)[seed % 3], (2, 4)[seed % 2]
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n_u))
    c = rng.standard_normal((n_u, n))
    if seed % 4:
        r = 2 * int(rng.integers(1, n // 2))
        s_tilde = compute_s_tilde(LtiSystem(a, b, c)).S_tilde
        a = a - 0.5 * apply_theta(s_tilde - _skew_of_rank(rng, n, r), "left")
    return LtiSystem(a, b, c)


def _ill_conditioned_system(seed, kappa, deficient):
    """A generic (A, C) with B = Q1 diag(logspace(0, -log10 kappa)) Q2^T, n in {4, 8, 20}.

    Q1 has orthonormal columns and Q2 is orthogonal, so cond(B) = kappa.
    With ``deficient``, the last column of B becomes the first plus 1/kappa
    times itself, so B is nearly rank-deficient.
    """
    rng = np.random.default_rng(seed)
    n, n_u = (4, 8, 20)[seed % 3], (2, 4)[seed % 2]
    q1, _ = np.linalg.qr(rng.standard_normal((n, n_u)))
    q2, _ = np.linalg.qr(rng.standard_normal((n_u, n_u)))
    b = (q1 * np.logspace(0, -np.log10(kappa), n_u)) @ q2.T
    if deficient:
        b[:, -1] = b[:, 0] + b[:, -1] / kappa
    return LtiSystem(rng.standard_normal((n, n)), b, rng.standard_normal((n_u, n)))


def _pair_permutation(rng, k):
    """Permutation matrix that reorders the k/2 quadrature pairs of a k-vector."""
    order = rng.permutation(k // 2)
    index = np.stack([2 * order, 2 * order + 1], axis=1).ravel()
    return np.eye(k)[index]


def _pair_rotation(rng, k):
    """blockdiag(R(t_1), ..., R(t_{k/2})): orthogonal and symplectic."""
    t = np.zeros((k, k))
    for j, angle in enumerate(rng.uniform(0.0, 2.0 * np.pi, k // 2)):
        cos, sin = np.cos(angle), np.sin(angle)
        t[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[cos, -sin], [sin, cos]]
    return t


def _cayley_symplectic(rng, k, spread):
    """(I - M/2)^-1 (I + M/2) for M = Theta H, H symmetric with entries ~ spread / sqrt(k).

    M is Hamiltonian (M^T Theta + Theta M = 0), so T^T Theta T = Theta;
    T is not orthogonal, and its condition number grows with ``spread``.
    Returns T and T^-1 = (I + M/2)^-1 (I - M/2).
    """
    g = rng.standard_normal((k, k))
    m = apply_theta(0.5 * spread / np.sqrt(k) * (g + g.T), "left")
    eye = np.eye(k)
    return np.linalg.solve(eye - m / 2, eye + m / 2), np.linalg.solve(eye + m / 2, eye - m / 2)


def _variants(sys, seed):
    rng = np.random.default_rng(10_000 + seed)
    a, b, c = sys.A, sys.B, sys.C
    t = _pair_permutation(rng, sys.n)
    q = _pair_permutation(rng, sys.n_u)  # input pairs reordered with their outputs
    yield "reorder", (t @ a @ t.T, t @ b @ q.T, q @ c @ t.T)
    t = _pair_rotation(rng, sys.n)
    yield "rotate", (t @ a @ t.T, t @ b, c @ t.T)
    for spread in (0.3, 1.0):
        t, t_inv = _cayley_symplectic(rng, sys.n, spread)
        yield f"symplectic {spread:g}", (t @ a @ t_inv, t @ b, c @ t_inv)
    for alpha in SCALES:
        yield f"scale {alpha:g}", (alpha * a, np.sqrt(alpha) * b, np.sqrt(alpha) * c)


def _check_variants(sys, skew, seed):
    for name, matrices in _variants(sys, seed):
        variant = LtiSystem(*matrices)
        got = compute_s_tilde(variant)
        assert (got.rank_r, got.n_v) == (skew.rank_r, skew.n_v), name
        _, report = synthesize_realization(got)
        assert report.all_passed, name


@pytest.mark.parametrize("seed", range(24))
def test_counts_and_synthesis_survive_invariant_transformations(seed):
    sys = _system(seed)
    skew = compute_s_tilde(sys)
    if seed % 4:
        assert skew.rank_r < sys.n
    _check_variants(sys, skew, seed)


@pytest.mark.parametrize("deficient", [False, True])
@pytest.mark.parametrize("kappa", CONDITIONS)
@pytest.mark.parametrize("seed", range(6))
def test_ill_conditioned_b_keeps_full_count(seed, kappa, deficient):
    sys = _ill_conditioned_system(seed, kappa, deficient)
    skew = compute_s_tilde(sys)
    assert (skew.rank_r, skew.n_v) == (sys.n, sys.n_u + sys.n)
    _, report = synthesize_realization(skew)
    assert report.all_passed
    _check_variants(sys, skew, seed)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_realizable_integer_systems_keep_no_extra_noise(n):
    for seed in range(3):
        sys = integer_realizable_system(np.random.default_rng([n, seed]), n)
        skew = compute_s_tilde(sys)
        assert (skew.rank_r, skew.n_v) == (0, sys.n_u)
        _check_variants(sys, skew, seed)
