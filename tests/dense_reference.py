"""Dense reference versions of the structured operators and realization checks.

The builders of the fixed matrices Theta, P, Gamma and Sigma form them as
dense matrices; the library applies them by index (``apply_theta`` and
slicing), and the tests check the index forms against these products.

The checks are the complex, fully formed versions of the checks in
``qrealize.realizability.check_physical_realizability`` and of the three
rebuild residuals in ``qrealize.synthesis.synthesize_realization``: Theta
and Gamma are built from their definitions with ``kron``, the commutation
identity is evaluated with the complex T_w, and every term that sets a
scale is formed as an n x n matrix. The library computes the same checks
in real arithmetic with closed-form scales; the tests compare the two.

eigenvalue_multiplicity_count applies the multiplicity cluster rule to the
eigenvalues of S themselves, the route compute_s_tilde took before it read
the same spectrum off the singular values of S_tilde.

real_arithmetic_xi1 forms Xi1 = U^dag |D| U from the real and imaginary
parts of F = |D|^(1/2) U, a second rounding of the same matrix that the
library's one complex product can be swapped for.

The seeded random-candidate reference checks the theorem behind the
minimality certificate, rank(Xi + (i/4) S_tilde) >= r/2 for every real
symmetric Xi: it ranks the two constructive candidates (Xi1 and 0) and any
number of random real symmetric ones by full SVD on two routes, the complex
matrix and its real embedding. The library ranks no candidate: its
certificate proves proven_r from the record's eigenpairs.
"""

import math

import numpy as np

from qrealize.errors import DimensionError
from qrealize.realizability import MULTIPLICITY_CLUSTER_REL, ResidualEntry, ResidualReport
from qrealize.synthesis import build_xi1

J_BLOCK = np.array([[0.0, 1.0], [-1.0, 0.0]])
M_BLOCK = 0.5 * np.array([[1.0, 1.0j], [1.0, -1.0j]])


def _require_even(value: int, what: str) -> int:
    value = int(value)
    if value < 0 or value % 2 != 0:
        raise DimensionError(f"{what} must be a nonnegative even integer, got {value}")
    return value


def build_theta(k: int) -> np.ndarray:
    """k x k block diagonal matrix with J = [[0, 1], [-1, 0]] blocks (k even, >= 2)."""
    k = int(k)
    if k < 2 or k % 2 != 0:
        raise DimensionError(f"theta requires an even size >= 2, got {k}")
    theta = np.zeros((k, k))
    even = np.arange(0, k, 2)
    theta[even, even + 1] = J_BLOCK[0, 1]
    theta[even + 1, even] = J_BLOCK[1, 0]
    return theta


def build_p(size: int) -> np.ndarray:
    """Interleaving permutation: maps (a1, a2, ..., a2m) to (a1, a3, ..., a2m-1, a2, a4, ..., a2m).

    Acts on column vectors; build_p(size) @ x gathers the odd-position entries
    of x first, then the even-position ones.
    """
    size = _require_even(size, "permutation size")
    p = np.zeros((size, size))
    source = np.concatenate([np.arange(0, size, 2), np.arange(1, size, 2)])
    p[np.arange(size), source] = 1.0
    return p


def build_gamma(size: int) -> np.ndarray:
    """Quadrature-to-ladder map: build_p(size) @ blockdiag(M, ..., M).

    Built by index assignment, not as the dense product: with
    M = (1/2)[[1, i], [1, -i]], row j < size/2 holds the first row of M in
    columns 2j, 2j+1 and row size/2 + j holds its second row there.
    """
    size = _require_even(size, "gamma size")
    half = size // 2
    rows = np.arange(half)
    gamma = np.zeros((size, size), dtype=complex)
    gamma[rows, 2 * rows] = M_BLOCK[0, 0]
    gamma[rows, 2 * rows + 1] = M_BLOCK[0, 1]
    gamma[half + rows, 2 * rows] = M_BLOCK[1, 0]
    gamma[half + rows, 2 * rows + 1] = M_BLOCK[1, 1]
    return gamma


def build_sigma(n_y: int, pairs: int) -> np.ndarray:
    """Row selector [I 0] of shape (n_y/2) x pairs picking the leading output pairs."""
    n_y = _require_even(n_y, "n_y")
    half = n_y // 2
    if pairs < half:
        raise DimensionError(f"selector needs at least {half} columns, got {pairs}")
    return np.hstack([np.eye(half), np.zeros((half, pairs - half))])


def dense_theta(k):
    """blockdiag(J, ..., J) of size k, by definition."""
    return np.kron(np.eye(k // 2), J_BLOCK)


def dense_gamma(k):
    """P blockdiag(M, ..., M) of size k, by definition."""
    return build_p(k) @ np.kron(np.eye(k // 2), M_BLOCK)


def dense_pair_norms(bb):
    """||b J b^T|| for each quadrature pair b = bb[:, k:k+2], each formed as a matrix."""
    return [
        float(np.linalg.norm(bb[:, k : k + 2] @ J_BLOCK @ bb[:, k : k + 2].T))
        for k in range(0, bb.shape[1], 2)
    ]


def dense_entry(name, delta, terms, tol):
    """Residual over the largest term norm; the rule of residual_entry."""
    absolute = float(np.linalg.norm(delta)) if np.size(delta) else 0.0
    scale = max((float(np.linalg.norm(t)) for t in terms), default=0.0)
    if scale > 0.0:
        relative = absolute / scale
    else:
        relative = 0.0 if absolute == 0.0 else math.inf
    return ResidualEntry(name, absolute, scale, relative, float(tol), relative <= tol)


def dense_check_physical_realizability(sys, b1, d1, policy):
    """The three realizability residuals with complex T_w and dense pair terms."""
    b1 = np.atleast_2d(np.asarray(b1, dtype=float))
    d1 = np.atleast_2d(np.asarray(d1, dtype=float))
    n_v = b1.shape[1]
    theta = dense_theta(sys.n)
    t_w = 1j * dense_theta(n_v + sys.n_u)
    bb = np.hstack([b1, sys.B])

    term_a = 1j * sys.A @ theta
    term_at = 1j * theta @ sys.A.T
    term_bb = bb @ t_w @ bb.T
    pair_terms = [
        bb[:, k : k + 2] @ J_BLOCK @ bb[:, k : k + 2].T for k in range(0, n_v + sys.n_u, 2)
    ]
    tol = policy.residual_tol
    commutation = dense_entry(
        "commutation", term_a + term_at + term_bb, [term_a, term_at] + pair_terms, tol
    )
    got = bb[:, : sys.n_y]
    target = theta @ sys.C.T @ dense_theta(sys.n_y)
    output_coupling = dense_entry("output_coupling", got - target, [got, target], tol)
    d_target = np.eye(sys.n_y, n_v)
    feedthrough = dense_entry("feedthrough", d1 - d_target, [d1, d_target], tol)
    return ResidualReport(entries=(commutation, output_coupling, feedthrough))


def dense_rebuild_residuals(realization):
    """state_rebuild, input_rebuild and output_rebuild in complex arithmetic."""
    skew = realization.skew
    sys, tol = skew.system, skew.policy.residual_tol
    lam, b1 = realization.Lambda, realization.B1
    blocks = (realization.Lambda_b0, realization.Lambda_b1, realization.Lambda_b2)
    theta = dense_theta(sys.n)

    gram_parts = [m.conj().T @ m for m in blocks]
    a_rebuilt = 2.0 * theta @ (realization.R + (lam.conj().T @ lam).imag)
    state = dense_entry(
        "state_rebuild",
        a_rebuilt - sys.A,
        [sys.A, 2.0 * theta @ realization.R] + [2.0 * theta @ g.imag for g in gram_parts],
        tol,
    )

    bb = np.hstack([b1, sys.B])
    gamma = dense_gamma(skew.n_v + sys.n_u)
    bb_rebuilt = 2j * theta @ np.hstack([-lam.conj().T, lam.T]) @ gamma
    fields = dense_entry("input_rebuild", bb_rebuilt - bb, [bb, bb_rebuilt], tol)

    sigma = build_sigma(sys.n_y, (skew.n_v + sys.n_u) // 2)
    zero = np.zeros_like(sigma)
    big_sigma = np.block([[sigma, zero], [zero, sigma]])
    stack = np.vstack([lam + lam.conj(), -1j * lam + 1j * lam.conj()])
    c_rebuilt = build_p(sys.n_y).T @ big_sigma @ stack
    output = dense_entry("output_rebuild", c_rebuilt - sys.C, [sys.C, c_rebuilt], tol)
    return ResidualReport(entries=(state, fields, output))


def eigenvalue_multiplicity_count(skew):
    """The multiplicity bound n_u + 2(n - n_lambda) from the record's eigenvalues w of S.

    n_lambda = #{w <= min w + gap}, gap = MULTIPLICITY_CLUSTER_REL *
    max(max |w|, T/4), T the record's term scale.
    """
    w = skew.eigenvalues
    gap = MULTIPLICITY_CLUSTER_REL * max(float(np.abs(w).max()), skew.term_scale / 4)
    n_lambda = int(np.count_nonzero(w <= w.min() + gap))
    return skew.system.n_u + 2 * (skew.system.n - n_lambda)


def real_arithmetic_xi1(skew):
    """Xi1 = Re(F^dag F), F = |D|^(1/2) U = P + iQ, as [P; Q]^T [P; Q], symmetrized.

    The imaginary part P^T Q - Q^T P vanishes in exact arithmetic and is
    not formed; build_xi1(skew) checks it.
    """
    f = np.sqrt(np.abs(skew.eigenvalues))[:, None] * skew.U
    pq = np.concatenate([f.real, f.imag])
    re = pq.T @ pq
    return 0.5 * (re + re.T)


def reference_candidates(skew, trials, seed):
    """Xi1, the zero matrix, then ``trials`` seeded random real symmetric candidates.

    Random candidate t is (s_t ||S_tilde|| / 2)(G_t + G_t^T), where G_t is
    the t-th n x n block of the standard normals drawn from
    np.random.default_rng(seed) and s_t cycles through 1e-2, 1 and 1e2.
    Returns the candidates as one stack.
    """
    n = skew.system.n
    candidates = [build_xi1(skew), np.zeros((n, n))]
    base = float(np.linalg.norm(skew.S_tilde)) or 1.0
    rng = np.random.default_rng(seed)
    for t in range(trials):
        g = rng.standard_normal((n, n))
        candidates.append((1e-2, 1.0, 1e2)[t % 3] * base * 0.5 * (g + g.T))
    return np.array(candidates)


def _stack_ranks(stack, skew, floors):
    """Rank of each matrix of a stack by one general SVD, under numerical_rank's rule.

    A singular value counts when it exceeds the record's rank_rel_tol times
    max(the matrix's largest one, its floor), one floor per matrix.
    """
    s = np.linalg.svd(stack, compute_uv=False)
    cutoff = skew.policy.rank_rel_tol * np.maximum(s[:, :1], floors[:, None])
    return np.count_nonzero(s > cutoff, axis=-1)


def reference_certificate(skew, trials=0, seed=0):
    """The certificate fields the candidates decide, ranked by full SVD on both routes.

    Each candidate Xi is ranked as Xi + (i/4) S_tilde and, halved, as its
    real embedding [[Xi, S_tilde/4], [-S_tilde/4, Xi]], both under the
    record's policy, by one general SVD of the whole stack per route,
    apart from the library's numerical_rank, which it checks. The floor is
    T/2 for the constructive Xi1, whose Xi1 + S is the Xi2 that build_xi2
    ranks, and T/4 for every other candidate, T the record's term scale.
    ``lower_bound_held`` here is the candidate half of the certificate's
    flag: no candidate ranks below r/2.
    """
    imag_part = 0.25 * skew.S_tilde
    xi = reference_candidates(skew, trials, seed)
    block = np.broadcast_to(imag_part, xi.shape)
    floors = np.full(len(xi), skew.term_scale / 4)
    floors[0] = skew.term_scale / 2
    direct = _stack_ranks(xi + 1j * imag_part, skew, floors)
    embedded = _stack_ranks(np.block([[xi, block], [-block, xi]]), skew, floors) // 2
    return dict(
        min_observed_rank=int(direct.min()),
        lower_bound_held=bool(direct.min() >= skew.rank_r // 2),
        embedding_agreed=np.array_equal(direct, embedded),
    )
