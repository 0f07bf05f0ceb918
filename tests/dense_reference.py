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

complex_product_xi1 forms Xi1 = U^dag |D| U as one complex product, keeps
its real part and symmetrizes it, a second rounding of the same matrix that
the library's real Gram product can be swapped for.

loop_skew_eigenpairs is linalg.skew_eigenpairs with the Ritz rows of each
block larger than a pair summed by a Python loop nest over its entries, one
term at a time, rather than by one einsum per block size: the reference the
library's rows match bit for bit. eigh_skew_eigenpairs is the route that
puts every block, lone pairs included, through the batched eigh: the
reference the closed-form pair rows match to a few ulps.

copying_ritz_blocks and copying_skew_eigenpairs are linalg._ritz_blocks
and linalg.skew_eigenpairs as they were before each matrix was written
once: M formed as a product times Sigma, the couplings read off an |M|
array, each index's reach off an n x n np.where of indices, and U a sorted
copy of rows written in block order. Every step rounds as the library's
does, so M, the blocks, U and d must match them bit for bit.

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
from qrealize.linalg import _pair_rows, _phased_rows, _ritz_blocks, skew_spectrum
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


def complex_product_xi1(skew):
    """Xi1 = Re(U^dag |D| U) from one complex product, its real part exactly symmetrized."""
    u = skew.U
    xi1 = (u.conj().T * np.abs(skew.eigenvalues)) @ u
    return 0.5 * (xi1.real + xi1.real.T)


def loop_skew_eigenpairs(u, s, vt, floor=0.0):
    """skew_eigenpairs(u, s, vt, floor) with row j of each larger block summed term by term.

    The blocks, the closed-form pair rows and the batched eigh of the larger
    blocks are the library's; row j of a larger block is conj(y_0j) v_0 +
    conj(y_1j) v_1 + ..., accumulated left to right from the first product,
    for the block's eigenvectors y and rows v of vt.
    """
    n = s.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex), skew_spectrum(s)
    m, starts, sizes = _ritz_blocks(u, s, vt, floor)
    rows = np.empty((n, n), dtype=complex)
    ritz = np.empty(n)
    first = starts[sizes == 2]
    plus, value = _pair_rows(m, vt, first)
    rows[first], rows[first + 1] = plus, plus.conj()
    ritz[first], ritz[first + 1] = value, -value
    for size in sorted(set(sizes[sizes > 2].tolist())):
        block = starts[sizes == size][:, None] + np.arange(size)
        blocks = m[block[:, :, None], block[:, None, :]]
        ritz[block], y = np.linalg.eigh(0.125j * (blocks - blocks.transpose(0, 2, 1)))
        y, basis = y.conj(), vt[block]
        for j in range(size):
            row = y[:, 0, j, None] * basis[:, 0]
            for i in range(1, size):
                row += y[:, i, j, None] * basis[:, i]
            rows[block[:, j]] = _phased_rows(row)
    return rows[np.argsort(-ritz, kind="stable")], skew_spectrum(s)


def copying_ritz_blocks(u, s, vt, floor=0.0):
    """(M, starts, sizes) of linalg._ritz_blocks, with |M| and the reach of each index formed as arrays."""
    n = s.shape[0]
    m = (vt @ u) * s
    coupled = np.abs(m) > 8 * n * np.finfo(float).eps * max(float(s[0]), floor)
    coupled |= coupled.T
    index = np.arange(n)
    reach = np.maximum.accumulate(np.where(coupled, index[:, None], index | 1).max(axis=0))
    ends = np.flatnonzero(reach == index) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return m, starts, ends - starts


def copying_skew_eigenpairs(u, s, vt, floor=0.0):
    """skew_eigenpairs(u, s, vt, floor) with the rows written in block order, then sorted by a copy."""
    n = s.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex), skew_spectrum(s)
    m, starts, sizes = copying_ritz_blocks(u, s, vt, floor)
    rows = np.empty((n, n), dtype=complex)
    ritz = np.empty(n)
    first = starts[sizes == 2]
    plus, value = _pair_rows(m, vt, first)
    rows[first], rows[first + 1] = plus, plus.conj()
    ritz[first], ritz[first + 1] = value, -value
    for size in sorted(set(sizes[sizes > 2].tolist())):
        block = starts[sizes == size][:, None] + np.arange(size)
        blocks = m[block[:, :, None], block[:, None, :]]
        ritz[block], y = np.linalg.eigh(0.125j * (blocks - blocks.transpose(0, 2, 1)))
        ritz_rows = np.einsum("bij,bin->bjn", y.conj(), vt[block])
        rows[block.ravel()] = _phased_rows(ritz_rows.reshape(-1, n))
    return rows[np.argsort(-ritz, kind="stable")], skew_spectrum(s)


def eigh_skew_eigenpairs(u, s, vt, floor=0.0):
    """skew_eigenpairs(u, s, vt, floor) with every block, pairs included, through batched eigh.

    The route the library took before it wrote a lone pair's Ritz rows in
    closed form: the blocks of each size go through one np.linalg.eigh of
    (i/8)(M - M^T), and the rows are V times its eigenvectors, phased and
    sorted by Ritz value as the library does.
    """
    n = s.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype=complex), skew_spectrum(s)
    m, starts, sizes = _ritz_blocks(u, s, vt, floor)
    rows = np.empty((n, n), dtype=complex)
    ritz = np.empty(n)
    for size in sorted(set(sizes.tolist())):
        block = starts[sizes == size][:, None] + np.arange(size)
        blocks = m[block[:, :, None], block[:, None, :]]
        ritz[block], y = np.linalg.eigh(0.125j * (blocks - blocks.transpose(0, 2, 1)))
        rows[block] = np.einsum("bij,bin->bjn", y.conj(), vt[block])
    return _phased_rows(rows[np.argsort(-ritz, kind="stable")]), skew_spectrum(s)


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
