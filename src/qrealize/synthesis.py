"""Constructive synthesis of minimal quantum-noise realizations.

Builds the Hamiltonian matrix R, the coupling matrix Lambda (stacked from
the output block, the extra-noise block, and the input block), and the
noise matrices (B1, D1) that realize a validated triple (A, B, C) with the
minimal number n_v = n_u + rank(S_tilde) of additional vacuum channels.
Every synthesized realization is re-verified numerically: the generator
reconstruction identities and the realizability conditions are measured
and attached as a residual report. A randomized certificate for the rank
lower bound (the reason fewer channels cannot work) is also provided.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DimensionError, NumericalError
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    apply_theta,
    numerical_rank,
    psd_low_rank_factor,
)
from .realizability import (
    LtiSystem,
    ResidualReport,
    SkewReport,
    as_real_matrix,
    check_physical_realizability,
    compute_s_tilde,
    residual_entry,
)

__all__ = [
    "Realization",
    "MinimalityCertificate",
    "build_r",
    "build_lambda_b0",
    "build_lambda_b2",
    "build_xi1",
    "build_xi2",
    "build_lambda_b1",
    "build_b1",
    "oscillator",
    "synthesize_realization",
    "minimality_certificate",
]

# Candidate spread for the randomized rank certificate, relative to the
# Frobenius norm of the skew invariant.
_CERTIFICATE_SCALES = (1e-2, 1.0, 1e2)

# Bytes of the real-embedding stack the certificate ranks per
# numerical_rank call (16 candidates at n = 32). Batching amortizes the
# per-call cost of eigvalsh; the fixed budget keeps peak memory flat as
# trials grow, where one stack of all 202 candidates at n = 32 adds about
# 9 MB.
_CERTIFICATE_BATCH_BYTES = 1 << 19


def build_r(sys: LtiSystem) -> np.ndarray:
    """Hamiltonian matrix R = -(1/4)(Theta A + (Theta A)^T), symmetric n x n.

    (Theta A)^T = A^T Theta^T, and Theta A is a signed row swap of A.
    Entries where Theta A and its transpose cancel are +0.0, not -0.0.
    """
    theta_a = apply_theta(sys.A, "left")
    out = -0.25 * (theta_a + theta_a.T)
    out += 0.0
    return out


def _complex_rows(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im as a new complex array whose zero parts are all +0.0."""
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    out += 0.0
    return out


def build_lambda_b0(sys: LtiSystem) -> np.ndarray:
    """Output coupling block, n_y/2 x n.

    Lambda_b0 = ((1/2) C^T P^T [I; iI])^T with the interleaving permutation
    P sized by n_y, which is (1/2)(C[0::2] + i C[1::2]): row k pairs the
    two output quadratures of pair k. Feeding the result back through the
    output reconstruction identity returns C exactly.
    """
    return _complex_rows(0.5 * sys.C[0::2], 0.5 * sys.C[1::2])


def build_lambda_b2(sys: LtiSystem) -> np.ndarray:
    """Input coupling block, n_u/2 x n.

    Lambda_b2 = -i [I 0] Gamma_nu B^T Theta, where the leading half of
    Gamma = P blockdiag(M, ..., M) holds the first row (1/2)[1, i] of M in
    each column pair; with Y = B^T Theta (a signed column swap), row k is
    (1/2)(Y[2k+1] - i Y[2k]). Its Gram matrix carries the imaginary part
    -(1/4) Theta B Theta_u B^T Theta of the generator.
    """
    b_theta = apply_theta(sys.B.T, "right")
    return _complex_rows(0.5 * b_theta[1::2], -0.5 * b_theta[0::2])


def build_xi1(skew: SkewReport) -> np.ndarray:
    """Real symmetric PSD part chosen to minimize the Gram rank.

    With S = U^dag D U from the record (``skew.U``, ``skew.eigenvalues``),
    returns Xi1 = U^dag |D| U, the positive square root of S^2. The product
    is real in exact arithmetic; an imaginary part above the record's
    symmetry_tol, relative to ||Xi1||, raises NumericalError, as eigenpairs
    that are not the record's do. Otherwise the imaginary part is dropped
    and the result exactly symmetrized.
    """
    u, tol = skew.U, skew.policy.symmetry_tol
    xi1 = (u.conj().T * np.abs(skew.eigenvalues)) @ u
    scale = float(np.linalg.norm(xi1))
    imag = float(np.linalg.norm(xi1.imag))
    if scale > 0 and imag > tol * scale:
        raise NumericalError(
            f"Xi1 came out complex: imaginary norm {imag:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    xi1 = xi1.real
    return 0.5 * (xi1 + xi1.T)


def build_xi2(skew: SkewReport, xi1: np.ndarray) -> np.ndarray:
    """Gram matrix Xi2 = Xi1 + (i/4) S_tilde of the extra-noise coupling.

    Must come out Hermitian PSD with numerical rank exactly r/2 under the
    record's policy; anything else means the construction went wrong and
    raises NumericalError. Both tests put their floor at rank_rel_tol
    times the largest |eigenvalue|, and both messages say so, since a
    rank_rel_tol below roundoff fails them.
    Its eigvalsh test is the only numerical PSD test of Xi2 itself:
    build_lambda_b1 factors Xi2 from the record's eigenvalues instead.
    Xi2 is Hermitian by construction, so its rank, here and in
    build_lambda_b1 and psd_low_rank_factor, is taken from |eigvalsh|.
    """
    policy = skew.policy
    xi2 = xi1 + 0.25j * skew.S_tilde
    w = np.linalg.eigvalsh(xi2)
    top = float(np.abs(w).max()) if w.size else 0.0
    cutoff = policy.rank_rel_tol * top
    floor = f"(floor: rank_rel_tol {policy.rank_rel_tol:.1e} times the largest |eigenvalue| {top:.3e})"
    if w.size and w[0] < -cutoff:
        raise NumericalError(f"Xi2 is not PSD: eigenvalue {w[0]:.3e} below -{cutoff:.3e} {floor}")
    rank = numerical_rank(xi2, policy, hermitian=True)
    if rank != skew.rank_r // 2:
        raise NumericalError(f"Xi2 has numerical rank {rank}, expected r/2 = {skew.rank_r // 2} {floor}")
    return xi2


def build_lambda_b1(skew: SkewReport, xi2: np.ndarray) -> np.ndarray:
    """Extra-noise coupling block: a factor with Lambda_b1^dag Lambda_b1 = Xi2.

    Read off the record rather than a second decomposition: with
    S = U^dag diag(d) U (``skew.U``, ``skew.eigenvalues``, d descending)
    and Xi1 = U^dag |D| U, Xi2 = Xi1 + S = U^dag diag(|d| + d) U, so
    row j of Lambda_b1 is sqrt(2 d_j) U_j for the k = r/2 positive d_j. k,
    the numerical rank of Xi2, fixes the row count, and
    psd_low_rank_factor checks that rank, that |d| + d is PSD and that the
    round trip returns xi2, all under the record's policy. The factor is
    canonical only up to a left unitary, so callers should compare Grams,
    not entries.
    """
    d = skew.eigenvalues
    k = numerical_rank(xi2, skew.policy, hermitian=True)
    return psd_low_rank_factor(xi2, skew.U, np.abs(d) + d, k, skew.policy)


def _field_inputs(lam: np.ndarray) -> np.ndarray:
    """2i Theta [-Lambda^dag Lambda^T] Gamma for coupling rows Lambda, in real arithmetic.

    Gamma = P blockdiag(M, ..., M) with M = (1/2)[[1, i], [1, -i]] pairs
    column k of -Lambda^dag with column k of Lambda^T, so quadrature pair k
    of [-Lambda^dag Lambda^T] Gamma is i (Im l_k, -Re l_k) for row l_k of
    Lambda, and pair k of the product is 2 Theta (-Im l_k, Re l_k): the
    product is real, with 2 * rows of Lambda columns.
    """
    quadratures = np.empty((lam.shape[1], 2 * lam.shape[0]))
    quadratures[:, 0::2] = -lam.imag.T
    quadratures[:, 1::2] = lam.real.T
    return 2.0 * apply_theta(quadratures, "left")


def _coupled_outputs(lam: np.ndarray, n_y: int) -> np.ndarray:
    """Output matrix rebuilt from coupling rows Lambda, in real arithmetic.

    P^T blockdiag(Sigma, Sigma) [Lambda + conj(Lambda); -i Lambda + i conj(Lambda)]:
    Sigma = [I 0] keeps the n_y/2 leading rows of Lambda (Lambda_b0) and
    P^T interleaves the two halves, so row pair k of the result is
    2 (Re l_k, Im l_k) for row l_k of Lambda.
    """
    lead = lam[: n_y // 2]
    out = np.empty((n_y, lam.shape[1]))
    out[0::2] = 2.0 * lead.real
    out[1::2] = 2.0 * lead.imag
    return out


def _gram_imag(lam: np.ndarray) -> np.ndarray:
    """Im(Lambda^dag Lambda) = P^T Q - Q^T P for Lambda = P + iQ, in real arithmetic."""
    pq = lam.real.T @ lam.imag
    return pq - pq.T


def oscillator(sys: LtiSystem, b1) -> tuple[np.ndarray, np.ndarray]:
    """(R, Lambda) of the oscillator a system and its noise input matrix B1 fix.

    R comes from A (build_r), Lambda_b0 from C and Lambda_b2 from B. The
    extra-noise block B_12 = B1[:, n_y:] is _field_inputs(Lambda_b1) undone:
    with Q = -Theta B_12 / 2, Re Lambda_b1 = Q[:, 1::2]^T and
    Im Lambda_b1 = -Q[:, 0::2]^T, both exact. synthesize_realization takes
    its R and Lambda from here, so there is one assembly; their zeros are +0.0.
    """
    b1 = as_real_matrix("B1", b1)
    if b1.ndim != 2 or b1.shape[0] != sys.n or b1.shape[1] < sys.n_y or b1.shape[1] % 2:
        raise DimensionError(
            f"B1 must be {sys.n} x (n_y + an even count) with n_y = {sys.n_y}, got shape {b1.shape}"
        )
    q = -0.5 * apply_theta(b1[:, sys.n_y :], "left")
    lam = [build_lambda_b0(sys), _complex_rows(q[:, 1::2].T, -q[:, 0::2].T), build_lambda_b2(sys)]
    return build_r(sys), np.vstack(lam)


def build_b1(sys: LtiSystem, lambda_b1: np.ndarray) -> np.ndarray:
    """Noise input matrix B1 = [B_11 | B_12], n x (n_y + 2 * rows of Lambda_b1).

    B_11 = Theta C^T diag(J) couples the output-carrying channels; both
    commutation matrices are applied as signed swaps (apply_theta).
    B_12 = 2i Theta [-Lambda_b1^dag Lambda_b1^T] Gamma couples the extra
    ones. B_12 is real by construction and computed in real arithmetic.
    """
    b11 = apply_theta(apply_theta(sys.C.T, "left"), "right")
    return np.hstack([b11, _field_inputs(lambda_b1)])


@dataclass(frozen=True, eq=False)
class Realization:
    """Synthesized quantum realization of an LTI triple.

    ``skew`` is the analysis record the realization was built from; it
    holds the system, the policy, r and n_v. R is the real symmetric
    Hamiltonian matrix (H = (1/2) x(0)^T R x(0)), Lambda the complex
    coupling matrix (L = Lambda x(0)) stacked as [Lambda_b0; Lambda_b1;
    Lambda_b2] with n_y/2, r/2 and n_u/2 rows, and (B1, D1) the noise input
    and feedthrough matrices for n_v additional channels. The intermediates
    are not kept: build_xi1(skew), then build_xi2(skew, xi1), rebuild them.
    """

    skew: SkewReport
    R: np.ndarray
    Lambda: np.ndarray
    B1: np.ndarray
    D1: np.ndarray

    @property
    def n_v(self) -> int:
        return self.skew.n_v

    @property
    def Lambda_b0(self) -> np.ndarray:
        return self.Lambda[: self.skew.system.n_y // 2]

    @property
    def Lambda_b1(self) -> np.ndarray:
        return self.Lambda[self.skew.system.n_y // 2 : self.n_v // 2]

    @property
    def Lambda_b2(self) -> np.ndarray:
        return self.Lambda[self.n_v // 2 :]


def synthesize_realization(
    sys: LtiSystem | SkewReport, policy: TolerancePolicy = DEFAULT_POLICY
):
    """Construct and verify a minimal realization of a validated system.

    Parameters
    ----------
    sys : LtiSystem or SkewReport
        The system, or the analysis record compute_s_tilde already returned
        for it. A system is analysed under ``policy``; a record is used as
        is, with the policy it holds, and ``policy`` is ignored.
    policy : TolerancePolicy

    Returns
    -------
    (Realization, ResidualReport)
        The realization, which carries the analysis record, together with
        six named residuals: the generator reconstructions "state_rebuild"
        (A from R and Lambda), "input_rebuild" ([B1 B] from Lambda),
        "output_rebuild" (C from Lambda), and the three realizability
        conditions from check_physical_realizability. Each is judged
        against residual_tol, and ``report.all_passed`` is the verdict:
        the pair is returned whether or not the residuals pass.
    """
    skew = sys if isinstance(sys, SkewReport) else compute_s_tilde(sys, policy)
    sys, policy, n_v = skew.system, skew.policy, skew.n_v

    xi2 = build_xi2(skew, build_xi1(skew))
    b1 = build_b1(sys, build_lambda_b1(skew, xi2))
    r_mat, lam = oscillator(sys, b1)
    d1 = np.eye(sys.n_y, n_v)

    tol = policy.residual_tol

    # A = 2 Theta (R + Im(Lambda^dag Lambda)); the Gram blocks cancel
    # against each other, so they set the scale, not the near-zero sum.
    # Theta is orthogonal, so the term 2 Theta X has the norm 2 ||X||.
    a_rebuilt = 2.0 * apply_theta(r_mat + _gram_imag(lam), "left")
    state = residual_entry(
        "state_rebuild",
        a_rebuilt - sys.A,
        [sys.A],
        tol,
        norms=[2.0 * np.linalg.norm(r_mat)]
        + [2.0 * np.linalg.norm(_gram_imag(m)) for m in np.split(lam, [sys.n_y // 2, n_v // 2])],
    )

    # [B1 B] = 2i Theta [-Lambda^dag Lambda^T] Gamma
    bb = np.hstack([b1, sys.B])
    bb_rebuilt = _field_inputs(lam)
    fields = residual_entry("input_rebuild", bb_rebuilt - bb, [bb, bb_rebuilt], tol)

    # C = P^T blockdiag(Sigma, Sigma) [Lambda + conj(Lambda); -i Lambda + i conj(Lambda)]
    c_rebuilt = _coupled_outputs(lam, sys.n_y)
    output = residual_entry("output_rebuild", c_rebuilt - sys.C, [sys.C, c_rebuilt], tol)

    check = check_physical_realizability(sys, b1, d1, policy)
    report = ResidualReport(entries=(state, fields, output) + check.entries)
    return Realization(skew=skew, R=r_mat, Lambda=lam, B1=b1, D1=d1), report


@dataclass(frozen=True)
class MinimalityCertificate:
    """Randomized evidence that fewer extra channels cannot exist.

    Every choice of the free real symmetric part Xi1 must leave the Gram
    candidate Xi1 + (i/4) S_tilde with rank at least r/2; the certificate
    records the minimum rank observed over all sampled candidates and
    whether the direct rank agreed with the real-embedding rank on every
    one of them. ``trials`` counts the candidates actually evaluated
    (the requested random draws plus the two special ones).
    """

    r: int
    trials: int
    min_observed_rank: int
    lower_bound_held: bool
    embedding_agreed: bool


def _certificate_batch(n: int) -> int:
    """Candidates per batch: their 2n x 2n float64 embeddings fill the budget."""
    return max(1, _CERTIFICATE_BATCH_BYTES // (8 * (2 * n) ** 2))


def minimality_certificate(
    skew: SkewReport, trials: int = 200, seed: int = 0
) -> MinimalityCertificate:
    """Probe the rank lower bound rank(Xi1 + (i/4) S_tilde) >= r/2.

    ``skew`` is the analysis record from compute_s_tilde; r, S_tilde and
    the tolerance policy all come from it. Samples ``trials`` random real
    symmetric candidates with entries at scales {1e-2, 1, 1e2} times
    ||S_tilde||, always prepending the constructive minimizer and the zero
    matrix. Random candidate t is (s_t ||S_tilde|| / 2)(G_t + G_t^T), where
    G_t is the t-th n x n block of the standard normals drawn from
    ``np.random.default_rng(seed)`` and s_t cycles through the three
    scales, so the seed alone fixes the candidates, whatever the batch
    size. Each candidate's rank is computed twice by the one rank kernel,
    numerical_rank with hermitian=True over a whole batch: once for the
    Hermitian matrix Xi + (i/4) S_tilde and once, halved, for its real
    symmetric embedding [[Xi, S_tilde/4], [-S_tilde/4, Xi]]; the two
    routes must agree, and the minimum over all candidates is compared
    against r/2.
    Candidates are ranked in batches held in buffers of fixed size (512 KiB
    for the embeddings), so memory does not grow with ``trials``. A
    violated bound is reported, not raised.
    """
    if trials < 1:
        raise ContractError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    policy = skew.policy
    n = skew.system.n
    imag_part = 0.25 * skew.S_tilde

    total = trials + 2
    batch = min(_certificate_batch(n), total)
    direct = np.empty((batch, n, n), dtype=complex)
    direct.imag[...] = imag_part
    embedded = np.empty((batch, 2 * n, 2 * n))
    embedded[:, :n, n:] = imag_part
    embedded[:, n:, :n] = -imag_part

    # the constructive minimizer and the zero matrix lead the first batch
    special = np.zeros((2, n, n))
    special[0] = build_xi1(skew)
    base = float(np.linalg.norm(skew.S_tilde)) or 1.0
    factors = np.array(_CERTIFICATE_SCALES) * base * 0.5
    rng = np.random.default_rng(seed)
    draws = np.empty((batch, n, n))
    min_rank = n
    agreed = True
    for start in range(0, total, batch):
        k = min(batch, total - start)
        lead = special[start : start + k]
        xi = direct.real[:k]
        xi[: len(lead)] = lead
        g = draws[: k - len(lead)]
        rng.standard_normal(out=g)
        drawn = xi[len(lead) :]
        np.add(g, g.transpose(0, 2, 1), out=drawn)
        t = np.arange(start + len(lead), start + k) - 2
        drawn *= factors[t % 3, None, None]
        embedded[:k, :n, :n] = xi
        embedded[:k, n:, n:] = xi
        ranks = numerical_rank(direct[:k], policy, hermitian=True)
        agreed = agreed and np.array_equal(
            numerical_rank(embedded[:k], policy, hermitian=True) // 2, ranks
        )
        min_rank = min(min_rank, int(ranks.min()))

    bound = skew.rank_r // 2
    return MinimalityCertificate(
        r=skew.rank_r,
        trials=total,
        min_observed_rank=min_rank,
        lower_bound_held=min_rank >= bound,
        embedding_agreed=agreed,
    )
