"""Analysis layer for quantum realizability of LTI triples.

Given a real state-space triple (A, B, C) on quadrature-paired dimensions,
this module computes the skew-symmetric invariant S_tilde whose rank fixes
the minimal number of additional vacuum noise channels, the companion
Hermitian matrix S = (i/4) S_tilde, two noise counts (the exact rank-based
one and the coarser multiplicity-based bound), all held in one analysis
record per system whose eigenpairs of S are read off an SVD of S_tilde on
first read, and the residual check that decides whether a candidate
(B1, D1) completion is physically realizable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalError, ValidationError
from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    apply_theta,
    frobenius_norm,
    numerical_rank,
    skew_eigenpairs,
    skew_spectrum,
    wedge_norms,
)

__all__ = [
    "as_real_matrix",
    "LtiSystem",
    "SkewReport",
    "ResidualEntry",
    "ResidualReport",
    "MULTIPLICITY_CLUSTER_REL",
    "compute_s_tilde",
    "residual_entry",
    "check_physical_realizability",
]

# Relative gap under which eigenvalues count as one cluster when the
# multiplicity of the least eigenvalue is needed. Multiplicity is ill posed
# in floating point, so the cluster rule is explicit.
MULTIPLICITY_CLUSTER_REL = 1e-7


def as_real_matrix(name: str, x) -> np.ndarray:
    """np.atleast_2d(np.asarray(x, dtype=float)) for real input, copying no float64 input.

    Booleans, integers and floats convert. Anything else raises
    ValidationError naming the matrix: complex entries, whose imaginary part
    the conversion would drop, strings, other objects, ragged rows and
    non-finite entries, which no later arithmetic should meet.
    """
    try:
        m = np.asarray(x)
    except ValueError as exc:  # ragged rows
        raise ValidationError(f"{name} is not a rectangular array") from exc
    if m.dtype.kind not in "biuf":
        raise ValidationError(f"{name} must hold real numbers, got dtype {m.dtype}")
    m = np.atleast_2d(m.astype(float, copy=False))
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True, eq=False)
class LtiSystem:
    """Real triple (A, B, C) with even state/input/output dimensions, valid by construction.

    The dimensions pair into conjugate quadratures, so n, n_u, and n_y must
    all be even, and the theory handled here additionally requires as many
    outputs as inputs (n_y = n_u). Construction converts each matrix with
    as_real_matrix (real and finite) and raises ValidationError naming the
    first violated invariant. n, n_u and n_y are read off the shapes.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C"):
            object.__setattr__(self, name, as_real_matrix(name, getattr(self, name)))
        A, B, C = self.A, self.B, self.C
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"A must be square, got shape {A.shape}")
        n, n_u, n_y = self.n, self.n_u, self.n_y
        for name, count in (("n", n), ("n_u", n_u), ("n_y", n_y)):
            if count <= 0 or count % 2 != 0:
                raise ValidationError(
                    f"{name} must be a positive even integer (quadrature pairing), got {count}"
                )
        if n_y != n_u:
            raise ValidationError(f"outputs must match inputs (n_y = n_u), got n_y={n_y}, n_u={n_u}")
        if B.shape != (n, n_u):
            raise ValidationError(f"B must be {n}x{n_u}, got shape {B.shape}")
        if C.shape != (n_y, n):
            raise ValidationError(f"C must be {n_y}x{n}, got shape {C.shape}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C.shape[0]

    # bench/workloads.py calls it; it goes when the benchmark drops it (ROADMAP item 18)
    @classmethod
    def from_matrices(cls, A, B, C) -> "LtiSystem":
        """The system (A, B, C); the same as LtiSystem(A, B, C)."""
        return cls(A, B, C)


@dataclass(frozen=True, eq=False)
class SkewReport:
    """Analysis record of one system: everything derived from S_tilde.

    ``system`` and ``policy`` are what the record was computed from, the
    system as given; every number derived from S_tilde describes the system
    analysed in its place, (4^k A, 2^k B, 2^k C) with k = ``scale_exponent``.
    ``term_scale`` T, the largest Frobenius norm of the terms S_tilde sums
    (Theta B Theta_u B^T Theta, Theta A, C^T Theta_y C), sizes its
    roundoff: every cutoff or roundoff check on a matrix built from S_tilde
    is relative to at least T (S_tilde, the certificate), T/2 (Xi2) or T/4 (the spectrum of S).
    S = (i/4) S_tilde is Hermitian because S_tilde is real skew-symmetric;
    it is derived on access rather than stored, to keep the record small.
    ``rank_r`` is the (even) numerical rank of S_tilde and
    ``multiplicity_count`` the multiplicity-based bound n_u + 2(n - n_lambda),
    both read off the one SVD of S_tilde (compute_s_tilde). The exact
    minimal noise count ``n_v = n_u + rank_r`` is derived on access, so it
    cannot disagree with the rank.

    S = U^dag diag(eigenvalues) U, eigenvalues descending. Only synthesis,
    the certificate and the report read these eigenpairs, so they are not
    computed with the record: ``eigenpairs`` is a cached property, and the
    first read of it, of ``U`` or of ``eigenvalues`` makes one real SVD
    with vectors of S_tilde, whose singular triples give the eigenpairs
    (linalg.skew_eigenpairs), and later reads reuse them. S_tilde is
    exactly skew (compute_s_tilde), so S is exactly Hermitian. That SVD
    must count rank_r under the record's policy and floor T, or
    NumericalError is raised. The record's fields are the seven facts
    compute_s_tilde computes (system, policy, S_tilde, term_scale, rank_r,
    multiplicity_count, scale_exponent), so dataclasses.replace copies them
    alone and the copy computes its own eigenpairs; repr and
    dataclasses.asdict make no decomposition.
    """

    system: LtiSystem
    policy: TolerancePolicy
    S_tilde: np.ndarray
    term_scale: float
    rank_r: int
    multiplicity_count: int
    scale_exponent: int

    @property
    def S(self) -> np.ndarray:
        return 0.25j * self.S_tilde

    @cached_property
    def eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(U, eigenvalues) from one SVD of S_tilde with vectors, on first read."""
        rank, svd = numerical_rank(self.S_tilde, self.policy, floor=self.term_scale, compute_uv=True)
        if rank != self.rank_r:
            raise NumericalError(
                f"the SVD of the skew invariant with vectors has numerical rank {rank}, "
                f"not the record's r = {self.rank_r}; adjust rank_rel_tol away from the "
                "singular-value cluster"
            )
        return skew_eigenpairs(*svd, self.term_scale)

    @property
    def U(self) -> np.ndarray:
        return self.eigenpairs[0]

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eigenpairs[1]

    @property
    def n_v(self) -> int:
        return self.system.n_u + self.rank_r


def _analysed_system(sys: LtiSystem) -> tuple[int, LtiSystem]:
    """(k, (4^k A, 2^k B, 2^k C)): the system the pipeline analyses in place of (A, B, C).

    (alpha A, sqrt(alpha) B, sqrt(alpha) C) keeps r, and with alpha = 4^k
    every floating-point step scales exactly unless it underflows or
    overflows (Higham, ch. 2). k is 0, with sys itself, when m = max(max|A|,
    max|B|^2, max|C|^2) lies in [2^-300, 2^300] or is 0, and otherwise brings
    4^k m into [1, 4), exactly by np.ldexp. m is read off math.frexp of the
    largest entries, so nothing overflows.
    """
    peaks = []  # candidates for m, (e, g) for g 2^e with g in [1/2, 1)
    for m, power in ((sys.A, 1), (sys.B, 2), (sys.C, 2)):
        f, e = math.frexp(float(np.abs(m).max()))
        if f:
            g, x = math.frexp(f**power)
            peaks.append((power * e + x, g))
    e, g = max(peaks, default=(0, 0.5))  # a zero system reads as m = 1/2
    if -299 <= e <= 300 or (e, g) == (301, 0.5):  # g 2^e in [2^-300, 2^300]
        return 0, sys
    k = (2 - e) // 2  # e + 2k is 1 or 2
    return k, LtiSystem(np.ldexp(sys.A, 2 * k), np.ldexp(sys.B, k), np.ldexp(sys.C, k))


def compute_s_tilde(
    sys: LtiSystem, policy: TolerancePolicy = DEFAULT_POLICY
) -> SkewReport:
    """Analysis record of a system; it was validated when built, so no structural check runs here.

    The record keeps sys; the rest comes from the analysed system of
    _analysed_system, whose A, B and C are those below, so nothing overflows.
    Entries that span more than about 1e300 lose their smallest parts, as any product would.

    S_tilde = Theta B Theta_u B^T Theta - A^T Theta - Theta A - C^T Theta_y C,
    with the outer commutation matrices of size n and the middle one of
    size n_u. With Theta applied as a signed swap (apply_theta), each term
    is a product minus its transpose: Z - Z^T for Z = (Theta B)[:, 1::2]
    (Theta B)[:, 0::2]^T, (Theta A)^T - Theta A, and -(Q - Q^T) for
    Q = C[0::2]^T C[1::2]. So S_tilde = G - G^T with G = Z - Theta A - Q,
    exactly skew in floating point: round to nearest gives
    fl(x - y) = -fl(y - x) and a zero diagonal.

    r counts the singular values of S_tilde above rank_rel_tol times
    max(sigma_max, T), T the term scale (SkewReport), here the largest
    norm of Z - Z^T, Theta A and Q - Q^T, so a realizable system, whose
    S_tilde is roundoff, has r = 0. An odd rank raises NumericalError,
    since it means the cutoff sits inside a singular-value pair of the
    skew S_tilde.

    The one SVD that counts r also gives the multiplicity count, and no
    singular vectors are computed here (the record computes them when U or
    the eigenvalues are first read). S_tilde is real skew, so its singular
    values come in equal pairs sigma_1 = sigma_2 >= sigma_3 = sigma_4 ...
    and the eigenvalues of S = (i/4) S_tilde are +-sigma/4, one of each
    sign per pair: w = {sigma_1, sigma_3, ...}/4 and {-sigma_2, -sigma_4, ...}/4
    (linalg.skew_spectrum, which also gives the record its eigenvalues).
    n_lambda in the multiplicity count is the multiplicity of the least
    w, clustered with a gap of MULTIPLICITY_CLUSTER_REL times
    max(max |w|, T/4): n_lambda = #{w <= min w + gap}. Multiplicity does
    not change under positive scaling, so the spectrum of S is used
    directly.
    """
    k, analysed = _analysed_system(sys)
    theta_a = apply_theta(analysed.A, "left")
    theta_b = apply_theta(analysed.B, "left")
    z = theta_b[:, 1::2] @ theta_b[:, 0::2].T
    q = analysed.C[0::2].T @ analysed.C[1::2]
    g = z - theta_a - q
    s_tilde = g - g.T
    terms = max(frobenius_norm(t) for t in (z - z.T, theta_a, q - q.T))
    rank, sigma = numerical_rank(s_tilde, policy, floor=terms)
    if rank % 2 != 0:
        raise NumericalError(
            f"numerical rank {rank} of the skew invariant is odd; "
            "adjust rank_rel_tol away from the singular-value cluster"
        )
    w = skew_spectrum(sigma)
    gap = MULTIPLICITY_CLUSTER_REL * max(float(np.abs(w).max()), terms / 4)
    n_lambda = int(np.count_nonzero(w <= w.min() + gap))
    return SkewReport(
        system=sys,
        policy=policy,
        S_tilde=s_tilde,
        term_scale=terms,
        rank_r=rank,
        multiplicity_count=sys.n_u + 2 * (sys.n - n_lambda),
        scale_exponent=k,
    )


# bench/tracing.py TRACED names these two; they go when the benchmark drops them (ROADMAP item 18)
def minimal_noise_count(sys: LtiSystem, policy: TolerancePolicy = DEFAULT_POLICY):
    """Exact minimum (r, n_v) with r = rank(S_tilde) and n_v = n_u + r."""
    skew = compute_s_tilde(sys, policy)
    return skew.rank_r, skew.n_v


def multiplicity_noise_count(
    sys: LtiSystem, policy: TolerancePolicy = DEFAULT_POLICY
) -> int:
    """The record's multiplicity_count n_u + 2(n - n_lambda), never below n_v (compute_s_tilde)."""
    return compute_s_tilde(sys, policy).multiplicity_count


@dataclass(frozen=True)
class ResidualEntry:
    """One named identity check: norms, the relative residual, and verdict."""

    name: str
    absolute: float
    scale: float
    relative: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class ResidualReport:
    """Ordered collection of residual entries from one check run."""

    entries: tuple

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def __iter__(self):
        return iter(self.entries)


def residual_entry(name: str, delta, terms, tol: float, norms=()) -> ResidualEntry:
    """Measure a residual against the largest term that produced it.

    ``terms`` are the matrices whose (near-)cancellation the identity
    claims; ``norms`` are the Frobenius norms of further such terms, for
    callers that get a term's norm without forming the term (the
    closed-form pair norms of the commutation identity). The relative
    residual is ||delta|| over the largest of all these norms. A zero
    scale with a zero residual is a clean pass, a zero scale with a
    nonzero residual can never pass, and neither can a residual or scale
    that is not finite (a B1 far out of scale with its system): its
    relative residual is inf. The systems measured lie in the band of
    _analysed_system, which scales each norm by a power of 2, exactly.
    """
    absolute = frobenius_norm(delta)
    scale = max(
        max((frobenius_norm(t) for t in terms), default=0.0),
        float(np.max(norms, initial=0.0)),
    )
    if not (math.isfinite(absolute) and math.isfinite(scale)):
        relative = math.inf
    elif scale > 0.0:
        relative = absolute / scale
    else:
        relative = 0.0 if absolute == 0.0 else math.inf
    return ResidualEntry(
        name=name,
        absolute=absolute,
        scale=scale,
        relative=relative,
        tol=float(tol),
        passed=relative <= tol,
    )


def _b11(sys: LtiSystem) -> np.ndarray:
    """B_11 = Theta C^T diag(J), the noise inputs that carry the outputs, by signed swaps."""
    return apply_theta(apply_theta(sys.C.T, "left"), "right")


def _noise_inputs(sys: LtiSystem, b1) -> np.ndarray:
    """B1 as a real, finite matrix of shape n x (n_y + an even count); anything else raises."""
    b1 = as_real_matrix("B1", b1)
    if b1.ndim != 2 or b1.shape[0] != sys.n or b1.shape[1] < sys.n_y or b1.shape[1] % 2:
        raise DimensionError(
            f"B1 must be {sys.n} x (n_y + an even count) with n_y = {sys.n_y}, got shape {b1.shape}"
        )
    return b1


def check_physical_realizability(
    sys: LtiSystem, B1, D1, policy: TolerancePolicy = DEFAULT_POLICY
) -> ResidualReport:
    """Residuals of the three realizability conditions for a candidate (B1, D1).

    Parameters
    ----------
    sys : LtiSystem
        System supplying A, B, C, valid by construction; only B1 and D1 are checked here.
    B1 : array_like
        Real, finite n x n_v noise input matrix, n_v = n_y + an even count.
    D1 : array_like
        Real, finite n_y x n_v output feedthrough matrix.
    policy : TolerancePolicy

    Returns
    -------
    ResidualReport
        Entries named "commutation", "output_coupling" (first n_y columns
        of [B1 B] must equal B_11 = Theta C^T diag(J), which oscillator
        reads Lambda_b0 from: Lambda = _coupling_rows of [B_11, B1[:, n_y:], B])
        and "feedthrough" (D1 = [I 0]), each compared to residual_tol.

    The quantum commutation preservation identity
    i A Theta + i Theta A^T + [B1 B] T_w [B1 B]^T = 0, with
    T_w = i blockdiag(J, ..., J) the skew part of the vacuum Ito matrices
    of all n_v + n_u fields, is i times a real identity, and "commutation"
    measures the real one,
    A Theta + Theta A^T + sum_k (x_k y_k^T - y_k x_k^T) = 0,
    where x_k, y_k are the two columns of quadrature pair k of [B1 B];
    multiplying by i changes no norm. Its scale is the largest norm among
    A Theta, Theta A^T and the pair terms x_k y_k^T - y_k x_k^T, whose
    norms come in closed form from wedge_norms, so no pair term is formed.

    B1 and D1 are validated here, and as in compute_s_tilde the analysed
    system (_analysed_system) is measured, with 2^k B1. The residuals come from
    _realizability_residuals, given [B1 B] and B_11, with overflow and invalid
    values silenced (residual_entry fails them). synthesize_realization
    calls that core with the B1 it validated once and the [B1 B] of its
    input rebuild, so its last three entries are this function's on the
    realization's B1 and D1.
    """
    b1 = _noise_inputs(sys, B1)
    d1 = as_real_matrix("D1", D1)
    if d1.shape != (sys.n_y, b1.shape[1]):
        raise DimensionError(f"D1 must be {sys.n_y}x{b1.shape[1]}, got shape {d1.shape}")
    k, analysed = _analysed_system(sys)
    with np.errstate(over="ignore", invalid="ignore"):
        bb = np.hstack([np.ldexp(b1, k), analysed.B])
        return _realizability_residuals(analysed, bb, _b11(analysed), d1, policy.residual_tol)


def _realizability_residuals(
    sys: LtiSystem, bb: np.ndarray, b11: np.ndarray, d1: np.ndarray, tol: float
) -> ResidualReport:
    """check_physical_realizability's three residuals, from [B1 B], B_11 = _b11(sys) and D1.

    The caller has validated B1 and D1, so nothing is checked or copied here.
    """
    # A Theta + Theta A^T + X Y^T - Y X^T = G - G^T with G = X Y^T + A Theta,
    # since Theta A^T = -(A Theta)^T; Theta A^T has the norm of A Theta. The
    # pairs can cancel each other, so they set the scale individually, not
    # through their sum X Y^T - Y X^T.
    x, y = bb[:, 0::2], bb[:, 1::2]
    pairs = wedge_norms(x, y)
    a_theta = apply_theta(sys.A, "right")
    g = x @ y.T
    g += a_theta
    commutation = residual_entry("commutation", g - g.T, [a_theta], tol, norms=pairs)

    got = bb[:, : sys.n_y]
    output_coupling = residual_entry("output_coupling", got - b11, [got, b11], tol)

    d_target = np.eye(*d1.shape)
    feedthrough = residual_entry("feedthrough", d1 - d_target, [d1, d_target], tol)

    return ResidualReport(entries=(commutation, output_coupling, feedthrough))
