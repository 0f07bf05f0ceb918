"""Metamorphic invariance: transformations the theory says leave (r, n_v) fixed.

Each seeded system is transformed by a reordering of quadrature pairs, by
an orthogonal symplectic change of coordinates (one 2x2 rotation per pair)
and by the scaling (alpha A, sqrt(alpha) B, sqrt(alpha) C). Each variant
must keep r and n_v, and synthesis of each must pass all six residuals.
The corpus holds generic systems (r = n) and systems whose skew invariant
was set to a random skew matrix of smaller even rank.
"""

import numpy as np
import pytest

from qrealize import LtiSystem, compute_s_tilde, synthesize_realization
from qrealize.linalg import apply_theta

SCALES = (1e-8, 1e-4, 1e4, 1e8)


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
        s_tilde = compute_s_tilde(LtiSystem.from_matrices(a, b, c)).S_tilde
        a = a - 0.5 * apply_theta(s_tilde - _skew_of_rank(rng, n, r), "left")
    return LtiSystem.from_matrices(a, b, c)


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


def _variants(sys, seed):
    rng = np.random.default_rng(10_000 + seed)
    a, b, c = sys.A, sys.B, sys.C
    t = _pair_permutation(rng, sys.n)
    q = _pair_permutation(rng, sys.n_u)  # input pairs reordered with their outputs
    yield "reorder", (t @ a @ t.T, t @ b @ q.T, q @ c @ t.T)
    t = _pair_rotation(rng, sys.n)
    yield "rotate", (t @ a @ t.T, t @ b, c @ t.T)
    for alpha in SCALES:
        yield f"scale {alpha:g}", (alpha * a, np.sqrt(alpha) * b, np.sqrt(alpha) * c)


@pytest.mark.parametrize("seed", range(24))
def test_counts_and_synthesis_survive_invariant_transformations(seed):
    sys = _system(seed)
    skew = compute_s_tilde(sys)
    if seed % 4:
        assert skew.rank_r < sys.n
    for name, matrices in _variants(sys, seed):
        variant = LtiSystem.from_matrices(*matrices)
        got = compute_s_tilde(variant)
        assert (got.rank_r, got.n_v) == (skew.rank_r, skew.n_v), name
        _, report = synthesize_realization(got)
        assert report.all_passed, name
