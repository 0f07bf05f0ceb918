"""Constructive synthesis of minimal quantum-noise realizations.

Builds the Hamiltonian matrix R, the noise matrices (B1, D1) and the
coupling matrix Lambda that realize a validated triple (A, B, C) with the
minimal number n_v = n_u + rank(S_tilde) of additional vacuum channels.
_field_inputs turns coupling rows into real input column pairs and its
inverse _coupling_rows turns them back, exactly for normal entries (halving
a subnormal rounds): Lambda is _coupling_rows of [B_11, B1[:, n_y:], B],
with B_11 = Theta C^T diag(J).
Every synthesized realization is re-verified numerically: the generator
reconstruction identities and the realizability conditions are measured
and attached as a residual report. A minimality certificate reads the
margin by which fewer channels fail off the spectrum, and from the
record's eigenpairs proves a lower bound on the rank of the computed S_tilde.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import apply_theta, frobenius_norm, numerical_rank, psd_low_rank_factor
from .realizability import (
    LtiSystem,
    ResidualEntry,
    ResidualReport,
    SkewReport,
    _analysed_system,
    _b11,
    _noise_inputs,
    _realizability_residuals,
    compute_s_tilde,
    residual_entry,
)

__all__ = [
    "Realization",
    "MinimalityCertificate",
    "build_r",
    "build_xi1",
    "build_xi2",
    "build_lambda_b1",
    "build_b1",
    "oscillator",
    "synthesize_realization",
    "minimality_certificate",
]

def build_r(sys: LtiSystem) -> np.ndarray:
    """Hamiltonian matrix R = -(1/4)(Theta A + (Theta A)^T), symmetric n x n.

    (Theta A)^T = A^T Theta^T, and Theta A is a signed row swap of A.
    Entries where Theta A and its transpose cancel are +0.0, not -0.0.
    """
    theta_a = apply_theta(sys.A, "left")
    out = -0.25 * (theta_a + theta_a.T)
    out += 0.0
    return out


def build_xi1(skew: SkewReport) -> np.ndarray:
    """Real symmetric PSD part chosen to minimize the Gram rank.

    With S = U^dag D U from the record (``skew.U``, ``skew.eigenvalues``),
    returns Xi1 = U^dag |D| U, the positive square root of S^2, as the real
    Gram product W^T W, W = [Re F; Im F] for F = |D|^(1/2) U, formed from
    the parts of U with no complex n x n temporary: numpy forms it as a
    symmetric rank-k update, so it is exactly symmetric. Eigenpairs
    that are not the record's are caught downstream, by the rank test of
    build_xi2 or the round trip of build_lambda_b1.
    """
    root, u = np.sqrt(np.abs(skew.eigenvalues))[:, None], skew.U
    w = np.concatenate([root * u.real, root * u.imag])
    return w.T @ w


def build_xi2(skew: SkewReport, xi1: np.ndarray) -> np.ndarray:
    """Gram matrix Xi2 = Xi1 + S, S = (i/4) S_tilde, of the extra-noise coupling.

    Xi1 and S_tilde/4 are written straight into the real and imaginary
    parts of one complex array. Xi2 must have numerical rank r/2 under the
    record's policy, or NumericalError names the floor, rank_rel_tol *
    max(largest |eigenvalue|, T/2), that a sub-roundoff rank_rel_tol fails;
    rank_rel_tol prints in shortest round-trip form, so no two values print
    alike. The rank test counts |eigenvalues| against that floor, so it
    also rules out an eigenvalue below minus the floor, unless one of the
    r/2 positive ones, each about sigma_j / 2, falls below it: the rule
    that set r on S_tilde excludes that beyond roundoff. build_lambda_b1's
    round trip is the last guard. The record's system is in the band of
    realizability._analysed_system, so Xi1 and S do not underflow.
    """
    policy, half_t, k = skew.policy, skew.term_scale / 2, skew.rank_r // 2
    xi2 = np.empty(xi1.shape, dtype=complex)
    xi2.real = xi1
    np.multiply(skew.S_tilde, 0.25, out=xi2.imag)
    rank, s = numerical_rank(xi2, policy, hermitian=True, floor=half_t)
    if rank != k:
        top = max(float(s[0]), half_t)
        raise NumericalError(
            f"Xi2 has numerical rank {rank}, expected r/2 = {k} (floor: rank_rel_tol "
            f"{policy.rank_rel_tol} times max(largest |eigenvalue|, T/2) {top:.3e})"
        )
    return xi2


def build_lambda_b1(skew: SkewReport, xi2: np.ndarray) -> np.ndarray:
    """Extra-noise coupling block: a factor with Lambda_b1^dag Lambda_b1 = Xi2.

    Read off the record rather than a second decomposition: with
    S = U^dag diag(d) U (``skew.U``, ``skew.eigenvalues``, d descending)
    and Xi1 = U^dag |D| U, Xi2 = Xi1 + S = U^dag diag(|d| + d) U, so
    row j of Lambda_b1 is sqrt(2 d_j) U_j for the k = r/2 positive d_j.
    k is the rank build_xi2 verified on xi2, read off the record, and
    psd_low_rank_factor checks that rank again and that the round trip
    returns xi2, under the record's policy and floor T/2. |d| + d >= 0
    holds exactly in floating point, so an xi2 that is not PSD, or
    eigenpairs that are not the record's, fail the round trip. The
    factor is canonical only up to a left unitary, so callers should
    compare Grams, not entries.
    """
    d = skew.eigenvalues
    return psd_low_rank_factor(
        xi2, skew.U, np.abs(d) + d, skew.rank_r // 2, skew.policy, skew.term_scale / 2
    )


def _field_inputs(lam: np.ndarray) -> np.ndarray:
    """2i Theta [-Lambda^dag Lambda^T] Gamma for coupling rows Lambda, in real arithmetic.

    Gamma = P blockdiag(M, ..., M) with M = (1/2)[[1, i], [1, -i]] pairs
    column k of -Lambda^dag with column k of Lambda^T, so quadrature pair k
    of [-Lambda^dag Lambda^T] Gamma is i (Im l_k, -Re l_k) for row l_k of
    Lambda, and pair k of the product is 2 Theta (-Im l_k, Re l_k): the
    product is real, with 2 * rows of Lambda columns; _coupling_rows undoes it.
    """
    quadratures = np.empty((lam.shape[1], 2 * lam.shape[0]))
    quadratures[:, 0::2] = -lam.imag.T
    quadratures[:, 1::2] = lam.real.T
    return 2.0 * apply_theta(quadratures, "left")


def _coupling_rows(cols: np.ndarray) -> np.ndarray:
    """The coupling rows Lambda with _field_inputs(Lambda) = cols.

    Theta^-1 = -Theta, so with Q = -Theta cols / 2, Re Lambda = Q[:, 1::2]^T
    and Im Lambda = -Q[:, 0::2]^T. Every entry is +-cols/2, so the round
    trip is exact for normal entries, but halving a subnormal rounds; zero
    parts are +0.0.
    """
    q = -0.5 * apply_theta(cols, "left")
    lam = np.empty((cols.shape[1] // 2, cols.shape[0]), dtype=complex)
    lam.real = q[:, 1::2].T
    lam.imag = -q[:, 0::2].T
    lam += 0.0
    return lam


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
    """Im(Lambda^dag Lambda) = P^T Q - Q^T P for Lambda = P + iQ, from contiguous real parts."""
    pq = np.ascontiguousarray(lam.real).T @ np.ascontiguousarray(lam.imag)
    return pq - pq.T


def oscillator(sys: LtiSystem, b1) -> tuple[np.ndarray, np.ndarray]:
    """(R, Lambda) of the oscillator a system and its noise input matrix B1 fix.

    R comes from A (build_r), and Lambda is _coupling_rows of
    [B_11, B1[:, n_y:], B] with B_11 = Theta C^T diag(J) (_b11): Lambda_b0
    comes from C, Lambda_b1 from the extra-noise columns and Lambda_b2
    from B, all exact, and B1[:, :n_y] is not read. B1 is validated here,
    and a non-finite or misshapen one raises; _assemble then makes the one
    assembly, which synthesize_realization shares with B1 validated and
    B_11 built once. Zeros of R and Lambda are +0.0.
    """
    return _assemble(sys, _noise_inputs(sys, b1), _b11(sys))


def _assemble(sys: LtiSystem, b1: np.ndarray, b11: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """oscillator's (R, Lambda) for a validated B1 and B_11 = _b11(sys)."""
    return build_r(sys), _coupling_rows(np.hstack([b11, b1[:, sys.n_y :], sys.B]))


def build_b1(sys: LtiSystem, lambda_b1: np.ndarray) -> np.ndarray:
    """Noise input matrix B1 = [B_11 | B_12], n x (n_y + 2 * rows of Lambda_b1).

    B_11 = Theta C^T diag(J) (_b11) couples the output-carrying
    channels, and B_12 = _field_inputs(Lambda_b1) =
    2i Theta [-Lambda_b1^dag Lambda_b1^T] Gamma, real by construction and
    computed in real arithmetic, couples the extra ones.
    """
    return np.hstack([_b11(sys), _field_inputs(lambda_b1)])


@dataclass(frozen=True, eq=False)
class Realization:
    """Synthesized quantum realization of an LTI triple.

    ``skew`` is the analysis record the realization was built from; it
    holds the system as given, the policy, r and n_v, and R, Lambda and B1
    realize that system: oscillator(skew.system, B1) is (R, Lambda) unless
    Theta A + (Theta A)^T overflows there. R is the real symmetric
    Hamiltonian matrix (H = (1/2) x(0)^T R x(0)), Lambda the complex
    coupling matrix (L = Lambda x(0)) stacked as [Lambda_b0; Lambda_b1;
    Lambda_b2] with n_y/2, r/2 and n_u/2 rows, and B1 the noise input
    matrix for n_v additional channels. The feedthrough D1 = [I 0],
    n_y x n_v, is read off the record. The intermediates are not kept:
    build_xi1(skew), then build_xi2(skew, xi1), rebuild them.
    """

    skew: SkewReport
    R: np.ndarray
    Lambda: np.ndarray
    B1: np.ndarray

    @property
    def D1(self) -> np.ndarray:
        return np.eye(self.skew.system.n_y, self.skew.n_v)

    @property
    def Lambda_b0(self) -> np.ndarray:
        return self.Lambda[: self.skew.system.n_y // 2]

    @property
    def Lambda_b1(self) -> np.ndarray:
        return self.Lambda[self.skew.system.n_y // 2 : self.skew.n_v // 2]

    @property
    def Lambda_b2(self) -> np.ndarray:
        return self.Lambda[self.skew.n_v // 2 :]


def synthesize_realization(sys: LtiSystem | SkewReport):
    """Construct and verify a minimal realization of a validated system.

    Parameters
    ----------
    sys : LtiSystem or SkewReport
        The system, analysed under the default policy, or the analysis
        record compute_s_tilde returned for it, synthesized under the policy
        it holds. Any other policy goes through compute_s_tilde(sys, policy).

    Returns
    -------
    (Realization, ResidualReport)
        The realization, which carries the analysis record, together with
        six named residuals: the generator reconstructions "state_rebuild"
        (A from R and Lambda), "input_rebuild" ([B1 B] from Lambda),
        "output_rebuild" (C from Lambda), and the three realizability
        conditions from check_physical_realizability. Each is judged
        against residual_tol, and ``report.all_passed`` is the verdict:
        the pair is returned whether or not the residuals pass. R, Lambda
        and B1 realize the system as given; the residuals measure the analysed one.

    Each stage frees its n x n intermediates once the next no longer needs
    them, so only the record, R, Lambda and B1 outlive their stage: Xi1
    and Xi2 live until Lambda_b1 exists, and the state, input and output
    rebuilds each drop theirs before the next starts. The B1 of build_b1 is
    validated once, here, and B_11 built once, for both the assembly
    oscillator makes (_assemble) and the output coupling condition, which
    with the other two takes the [B1 B] of the input rebuild
    (realizability._realizability_residuals, the core of
    check_physical_realizability). At n = 192 and n_u = 16 a synthesis from
    the system peaks at 3.4 MiB of memory traced by tracemalloc.
    """
    skew = sys if isinstance(sys, SkewReport) else compute_s_tilde(sys)
    k, sys = _analysed_system(skew.system)  # the system every residual measures
    n_y, tol = sys.n_y, skew.policy.residual_tol

    b11 = _b11(sys)
    # Xi1 and Xi2 are arguments only, freed once Lambda_b1 exists
    b1 = _noise_inputs(
        sys, build_b1(sys, build_lambda_b1(skew, build_xi2(skew, build_xi1(skew))))
    )
    r_mat, lam = _assemble(sys, b1, b11)

    state = _state_rebuild(sys.A, r_mat, np.split(lam, [n_y // 2, skew.n_v // 2]), tol)
    # [B1 B] = 2i Theta [-Lambda^dag Lambda^T] Gamma
    bb = np.hstack([b1, sys.B])
    fields = _rebuild_entry("input_rebuild", _field_inputs(lam), bb, tol)
    # C = P^T blockdiag(Sigma, Sigma) [Lambda + conj(Lambda); -i Lambda + i conj(Lambda)]
    output = _rebuild_entry("output_rebuild", _coupled_outputs(lam, n_y), sys.C, tol)
    check = _realizability_residuals(sys, bb, b11, np.eye(n_y, skew.n_v), tol)
    # the caller's 4^-k R, 2^-k Lambda and 2^-k B1, exact for normal entries; + 0.0
    # makes R's zeros +0.0, as build_r's, also those rounded from subnormals
    rz = Realization(skew, np.ldexp(r_mat, -2 * k) + 0.0, lam * 2.0**-k, np.ldexp(b1, -k))
    return rz, ResidualReport(entries=(state, fields, output) + check.entries)


def _state_rebuild(a: np.ndarray, r_mat: np.ndarray, blocks: list, tol: float) -> ResidualEntry:
    """The "state_rebuild" residual of A from R and Lambda's three row blocks; its n x n temporaries die with it.

    A = 2 Theta (R + Im(Lambda^dag Lambda)), and Lambda^dag Lambda is the
    sum of its three row blocks' Grams; they cancel against each other,
    so they set the scale, not the near-zero sum. Theta is orthogonal, so
    the term 2 Theta X has the norm 2 ||X||.
    """
    grams = [_gram_imag(m) for m in blocks]
    a_rebuilt = 2.0 * apply_theta(r_mat + (grams[0] + grams[1] + grams[2]), "left")
    return residual_entry(
        "state_rebuild",
        a_rebuilt - a,
        [a],
        tol,
        norms=[2.0 * frobenius_norm(m) for m in [r_mat] + grams],
    )


def _rebuild_entry(name: str, rebuilt: np.ndarray, target: np.ndarray, tol: float) -> ResidualEntry:
    """The residual of a matrix rebuilt from Lambda against its target, both setting the scale."""
    return residual_entry(name, rebuilt - target, [target, rebuilt], tol)


@dataclass(frozen=True)
class MinimalityCertificate:
    """Why fewer extra channels cannot exist: the spectral margin and two flags.

    The margin is read off the analysis record, which alone holds the r,
    n_v and n below (rank_r, n_v and system.n). The singular values
    sigma_1 >= ... >= sigma_n of S_tilde are 4 |eigenvalues of S|, in
    equal pairs since S_tilde is skew, and r of them lie above ``cutoff``,
    rank_rel_tol times max(sigma_1, ``term_scale``). ``sigma_r`` and
    ``sigma_next`` (sigma_{r+1}) flank the cutoff, and
    ``decades_above_cutoff`` = log10(sigma_r / cutoff) and
    ``decades_below_cutoff`` = log10(cutoff / sigma_next) say how far.
    ``stability_radius`` is sigma_r / sqrt(2): a change dA of A moves
    S_tilde by at most 2 ||dA||_F, and every skew matrix of rank r - 2 or
    less is at least sqrt(2) sigma_r from S_tilde (Eckart-Young), so no A'
    with ||A' - A||_F below the radius needs fewer than n_v channels.
    ``noise_profile`` extends it: entry j (j = 1 ... r/2) is
    (n_v - 2j, d_j), with d_j = sqrt(sum of the j smallest pair sigma^2 / 2)
    the least ||dA||_F that brings the count down to n_v - 2j; d_1 is the
    radius. The profile measures a change of A alone. Values that do not
    exist are None: sigma_r and the radius when r = 0, sigma_next when
    r = n, and a gap whose two ends are not both positive.

    ``proven_r`` is the rank the record proves (minimality_certificate): the
    computed S_tilde has at least proven_r singular values above ``cutoff``;
    ``eta`` bounds the error of the record's eigenpairs, in the units of S.
    ``lower_bound_held`` says that proven_r = r and that the spectrum puts
    exactly r values above the cutoff, cross-checking compute_s_tilde's SVD
    rank. ``embedding_agreed`` (named for the real-embedding ranks that once
    decided it) says that the proof applied and proven_r equals that count.
    """

    term_scale: float
    cutoff: float
    sigma_r: float | None
    sigma_next: float | None
    decades_above_cutoff: float | None
    decades_below_cutoff: float | None
    stability_radius: float | None
    noise_profile: tuple
    proven_r: int
    eta: float
    lower_bound_held: bool
    embedding_agreed: bool


def _decades(high: float | None, low: float | None) -> float | None:
    """log10(high / low) without forming the ratio; None unless both are positive."""
    if not (high and low):
        return None
    return math.log10(high) - math.log10(low)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = 2^-53 the unit roundoff of a double."""
    return k * 2.0**-53 / (1.0 - k * 2.0**-53)


def minimality_certificate(skew: SkewReport) -> MinimalityCertificate:
    """The minimality margin of an analysis record and the rank it proves, from the record alone.

    The margin fields are read off the record's eigenvalues d, and proven_r
    off its eigenpairs S ~ U^dag D U, S = (i/4) S_tilde, with no
    decomposition, by a residual bound (Parlett, The Symmetric Eigenvalue
    Problem, ch. 4 and 11). Let Q = U^dag, R = S Q - Q D, E = Q^dag Q - I
    and c = cutoff / 4; S is exactly Hermitian, since compute_s_tilde
    forms S_tilde exactly skew. If ||E||_2 < 1, Q is nonsingular and
    Q^dag (S - c I) Q = (D - c I) + F, F the Hermitian part of
    E (D - c I) + Q^dag R, ||F||_2 <= ||E|| (max|d| + c) + ||Q|| ||R||.
    By Sylvester's law of inertia and Weyl's inequality, S has at least
    #{d_j > c + ||F||} eigenvalues above c and #{d_j < -c - ||F||} below
    -c, so as many singular values above c, and S_tilde above cutoff. In
    Frobenius norms, proven_r = #{|d_j| > c + eta} with
    eta = (||E|| + rho_E)(max|d| + c) + ||Q|| (||R|| + rho_R),
    which is 0 when ||E|| + rho_E >= 1 fails the proof: then eta > max|d|.

    rho_E and rho_R bound the rounding of E and R (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3; no underflow). A part of an
    entry of an n x n complex product XY sums 2n real products, so in any
    order ||fl(XY) - XY|| <= sqrt(2) gamma_2n ||X|| ||Y||, and Q D errs by
    at most gamma_1 max|d| ||Q||: rho_E = g ||E|| + (1 + g) sqrt(2) gamma_2n
    ||Q||^2 and rho_R = g ||R|| + (1 + g)(sqrt(2) gamma_2n ||S|| + gamma_1
    max|d|) ||Q||. ||Q|| carries 1 + g too; g = gamma_(12n^2 + 64)
    covers the subtraction forming E or R, each computed norm (within
    1 + gamma_(4n^2 + 2) of its matrix's) and the < 30 roundings of eta, c + eta.
    """
    policy, t, n, r = skew.policy, skew.term_scale, skew.system.n, skew.rank_r
    d = skew.eigenvalues
    # the singular values of S_tilde, descending, and the r/2 pair values
    # above the cutoff (the second of each pair), smallest first
    sigma = np.sort(4.0 * np.abs(d))[::-1]
    cutoff = policy.rank_rel_tol * max(float(sigma[0]), t)
    pairs = sigma[1:r:2][::-1]
    distances = np.hypot.accumulate(pairs) / math.sqrt(2.0)
    sigma_r = float(sigma[r - 1]) if r else None
    sigma_next = float(sigma[r]) if r < n else None
    # the bound of the docstring, in Frobenius norms with their rho terms
    q, top, c = skew.U.conj().T, float(sigma[0]) / 4, cutoff / 4
    g, product = 1.0 + _gamma(12 * n * n + 64), math.sqrt(2.0) * _gamma(2 * n)
    q_norm, s_norm = g * frobenius_norm(q), frobenius_norm(skew.S_tilde) / 4
    e_bound = g * (frobenius_norm(skew.U @ q - np.eye(n)) + product * q_norm**2)
    residual = frobenius_norm(skew.S @ q - q * d)
    r_bound = g * (residual + (product * s_norm + _gamma(1) * top) * q_norm)
    eta = e_bound * (top + c) + q_norm * r_bound
    proven_r = int(np.count_nonzero(np.abs(d) > c + eta))
    spectral = int(np.count_nonzero(sigma > cutoff))
    return MinimalityCertificate(
        term_scale=float(t),
        cutoff=cutoff,
        sigma_r=sigma_r,
        sigma_next=sigma_next,
        decades_above_cutoff=_decades(sigma_r, cutoff),
        decades_below_cutoff=_decades(cutoff, sigma_next),
        stability_radius=float(distances[0]) if r else None,
        noise_profile=tuple((skew.n_v - 2 * j, float(x)) for j, x in enumerate(distances, 1)),
        proven_r=proven_r,
        eta=eta,
        lower_bound_held=spectral == r and proven_r == r,
        embedding_agreed=e_bound < 1 and proven_r == spectral,
    )
