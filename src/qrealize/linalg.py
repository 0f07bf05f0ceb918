"""Numerical kernels shared by the analysis and synthesis layers.

TolerancePolicy, the one place that names the two user tolerances, sets
their defaults and checks them, for the library, system files and the
command line alike; ROUNDOFF_TOL, the fixed bound of the roundoff checks;
the block commutation matrix Theta = blockdiag(J, ..., J), J = [[0, 1],
[-1, 0]], applied as a signed swap of quadrature pairs rather than a
dense product; hermitian_eig, the one owner of the eigenpair order and
phase convention; numerical_rank, the one rank kernel, which counts the
singular values of one matrix above a relative cutoff, takes them as
|eigvalsh| when the caller promises Hermitian input, and returns them with
the count, so a caller that needs the spectrum makes no second
factorization; low-rank factorization
of a PSD matrix from eigenpairs the caller already holds (truncated and
verified, never recomputed), the real-embedding rank of a Hermitian
matrix, and the norms of the column-pair wedge products x y^T - y x^T.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

__all__ = [
    "ROUNDOFF_TOL",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "apply_theta",
    "hermitian_eig",
    "numerical_rank",
    "psd_low_rank_factor",
    "complex_rank_via_real_embedding",
    "wedge_norms",
]


# Relative roundoff allowed where an identity is exact in arithmetic (the
# skewness of S_tilde, the factor round trip), against the same
# floor as the rank cutoff of that quantity. Reports before 0.5.0 wrote it
# as the tolerance symmetry_tol.
ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class TolerancePolicy:
    """The two user tolerances of the pipeline.

    rank_rel_tol   : singular values at or below rank_rel_tol * max(sigma_max,
                     floor) count as zero (numerical_rank)
    residual_tol   : relative Frobenius threshold of the six reported residuals
                     (the synthesis identities and the realizability conditions);
                     it judges nothing else, so a report exists whatever its value

    Roundoff checks are not tunable: they use ROUNDOFF_TOL. Every
    tolerance is relative, so each must lie strictly between 0 and 1;
    anything else (including inf and nan) raises ValueError. A cutoff of 1
    or more would count every singular value as zero and pass any residual.
    A rank_rel_tol below unit roundoff (1.1e-16) is accepted, but then
    rounding, not the input, decides the rank test of Xi2.
    A system file's "tolerances" are these fields by name
    (io.parse_system_document builds the policy from them), and the command
    line flags are laid over that policy with dataclasses.replace.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        # The comparison is exact for integers of any size; one too long
        # to echo is shown by its leading digits and length.
        for field in fields(self):
            value = getattr(self, field.name)
            if not 0.0 < value < 1.0:
                shown = str(value)
                if len(shown) > 32:
                    shown = f"{shown[:8]}... ({len(shown)} digits)"
                raise ValueError(
                    f"{field.name} must be finite and in (0, 1), i.e. positive and below 1, got {shown}"
                )


DEFAULT_POLICY = TolerancePolicy()


def apply_theta(m, side: str) -> np.ndarray:
    """Theta M (``side="left"``) or M Theta (``side="right"``) for a real matrix M.

    Theta = blockdiag(J, ..., J) with J = [[0, 1], [-1, 0]] is applied as a
    signed swap of quadrature pairs, never formed: on the left, rows 2k and
    2k+1 become M[2k+1] and -M[2k]; on the right, columns 2k and 2k+1
    become -M[:, 2k+1] and M[:, 2k]. Every entry equals the dense
    product's. The result is a new C-contiguous array, as a product is, so
    norms, which numpy sums in memory order, match too; and its zeros are
    +0.0, where negating a zero entry of M would leave -0.0.
    """
    m = np.asarray(m, dtype=float)
    if side not in ("left", "right"):
        raise ContractError(f"side must be 'left' or 'right', got {side!r}")
    left = side == "left"
    if m.ndim != 2 or m.shape[0 if left else 1] % 2 != 0:
        raise DimensionError(
            f"Theta needs an even number of {'rows' if left else 'columns'}, got shape {m.shape}"
        )
    out = np.empty(m.shape)
    if left:
        out[0::2] = m[1::2]
        out[1::2] = -m[0::2]
    else:
        out[:, 0::2] = -m[:, 1::2]
        out[:, 1::2] = m[:, 0::2]
    out += 0.0
    return out


def hermitian_eig(h):
    """Eigendecomposition H = U^dag diag(d) U of a Hermitian matrix.

    Returns (U, d): d holds the real eigenvalues sorted descending, and the
    rows of U the conjugated eigenvectors in that order, each scaled so its
    largest-magnitude entry (the first on ties) is real and positive; a zero
    vector stays as it is. Reads only the lower triangle of ``h``
    (np.linalg.eigh): the caller vouches that it is Hermitian.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hermitian_eig requires a square matrix, got shape {h.shape}")
    d, v = np.linalg.eigh(h)
    order = np.argsort(-d, kind="stable")
    v = v[:, order]  # the one n x n copy: the phases and the conjugation act in place
    if v.size:
        lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
        mags = np.abs(lead)
        v /= np.where(mags > 0, lead / np.where(mags > 0, mags, 1.0), 1.0)
    np.conjugate(v, out=v)
    return v.T, d[order]


def numerical_rank(
    m, policy: TolerancePolicy = DEFAULT_POLICY, hermitian: bool = False, floor: float = 0.0
) -> tuple[int, np.ndarray]:
    """(rank, s): the singular values s of one matrix and how many exceed a relative cutoff.

    The cutoff is rank_rel_tol * max(s[0], floor). ``s`` holds all
    min(m.shape) singular values, descending; callers that need only the
    rank ignore it. ``floor`` is the input's term scale carried to ``m``
    (SkewReport), so a matrix that is all roundoff, as on a realizable
    system, has rank 0. An all-zero or empty matrix has rank 0; input that
    is not one matrix raises DimensionError. ``hermitian=True`` promises
    that ``m`` is Hermitian (real symmetric when real) and requires it
    square; np.linalg.svd then takes the singular values as the sorted
    |eigvalsh|, which reads only the lower triangle and costs a fraction of
    a complex SVD.
    """
    m = np.asarray(m)
    if m.ndim != 2 or (hermitian and m.shape[0] != m.shape[1]):
        kind = "a square matrix" if hermitian else "one matrix"
        raise DimensionError(f"numerical_rank requires {kind}, got shape {m.shape}")
    if m.size == 0:
        return 0, np.zeros(0)
    s = np.linalg.svd(m, compute_uv=False, hermitian=hermitian)
    return int(np.count_nonzero(s > policy.rank_rel_tol * max(s[0], floor))), s


def psd_low_rank_factor(
    xi2, u, d, k: int, policy: TolerancePolicy = DEFAULT_POLICY, floor: float = 0.0
) -> np.ndarray:
    """Factor a PSD matrix of numerical rank k as F^dag F with F of k rows.

    ``u`` and ``d`` are a decomposition xi2 = U^dag diag(d) U the caller
    already holds, laid out as hermitian_eig returns it; the kernel keeps
    the top-k pairs, F = sqrt(d_k) * U_k, and verifies them, never
    decomposing xi2 itself. d is clipped to >= 0 first, as the |d| + d
    that build_lambda_b1 passes already is, so neither the factor nor the
    allowance below counts a negative eigenvalue: the round trip misses by
    it, and so tests xi2 for PSD. ``floor`` is as in numerical_rank.
    Raises NumericalError when k is not the numerical rank
    of xi2 (|eigvalsh|, one triangle), or when F^dag F misses xi2 by more
    than ROUNDOFF_TOL * max(||xi2||, floor) plus ||d[k:]||, the exact miss
    of the dropped eigenvalues; other eigenpairs miss by more. The
    residuals residual_tol judges weigh the cut.
    """
    xi2 = np.asarray(xi2)
    u = np.asarray(u)
    d = np.clip(np.asarray(d, dtype=float), 0.0, None)
    k = int(k)
    got, _ = numerical_rank(xi2, policy, hermitian=True, floor=floor)
    if got != k:
        raise NumericalError(f"requested {k} rows but the numerical rank is {got}")
    factor = np.sqrt(d[:k])[:, None] * u[:k, :]
    residual = float(np.linalg.norm(factor.conj().T @ factor - xi2))
    scale = max(float(np.linalg.norm(xi2)), floor)
    dropped = float(np.linalg.norm(d[k:]))
    if residual > ROUNDOFF_TOL * scale + dropped:
        raise NumericalError(
            f"round-trip residual {residual:.3e} exceeds roundoff {ROUNDOFF_TOL:.1e}"
            f" * {scale:.3e} + {dropped:.3e} (norm of the dropped eigenvalues)"
        )
    return factor


def complex_rank_via_real_embedding(
    are, aim, policy: TolerancePolicy = DEFAULT_POLICY, floor: float = 0.0
) -> int:
    """Rank of the Hermitian are + i*aim, as half the rank of [[are, aim], [-aim, are]].

    An independent route to numerical_rank(are + 1j * aim, policy, True, floor)[0]
    that only tests call: the real symmetric embedding repeats every eigenvalue
    of the Hermitian matrix twice, and numerical_rank ranks it with
    hermitian=True, so the input must be Hermitian (are symmetric, aim skew).
    ``are`` and ``aim`` are one matrix each, of one shape, or DimensionError is raised.
    """
    are = np.asarray(are, dtype=float)
    aim = np.asarray(aim, dtype=float)
    if are.ndim != 2 or are.shape != aim.shape:
        raise DimensionError(f"parts of shapes {are.shape} and {aim.shape} are not one matrix")
    embedding = np.block([[are, aim], [-aim, are]])
    return numerical_rank(embedding, policy, hermitian=True, floor=floor)[0] // 2


def wedge_norms(x, y) -> np.ndarray:
    """Frobenius norms ||x_k y_k^T - y_k x_k^T|| for matching columns of x and y.

    Computed in O(n) per column pair, without the n x n wedge product, as
    sqrt(2) ||x_k|| ||y_k - (x_k.y_k / ||x_k||^2) x_k||. Projecting out x_k
    keeps the value when the pair is nearly parallel, where the equivalent
    sqrt(2 (||x||^2 ||y||^2 - (x.y)^2)) cancels to nothing. A zero x_k gives 0.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2:
        raise DimensionError(
            f"wedge_norms needs two matrices of one shape, got {x.shape} and {y.shape}"
        )
    xx = np.einsum("ij,ij->j", x, x)
    xy = np.einsum("ij,ij->j", x, y)
    coef = np.divide(xy, xx, out=np.zeros_like(xx), where=xx > 0.0)
    return np.sqrt(2.0 * xx) * np.linalg.norm(y - coef * x, axis=0)
