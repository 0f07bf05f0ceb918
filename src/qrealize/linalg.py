"""Numerical kernels shared by the analysis and synthesis layers.

TolerancePolicy, the one place that names the two user tolerances, sets
their defaults and checks them, for the library, system files and the
command line alike; ROUNDOFF_TOL, the fixed bound of the roundoff checks;
the block commutation matrix Theta = blockdiag(J, ..., J), J = [[0, 1],
[-1, 0]], applied as a signed swap of quadrature pairs rather than a
dense product; Hermitian eigendecomposition with a deterministic ordering;
numerical_rank, the one rank kernel, which counts singular values above a
relative cutoff for one matrix or a stack of them and takes them as
|eigvalsh| when the caller promises Hermitian input; low-rank
factorization of a PSD matrix from eigenpairs the caller already holds
(truncated and verified, never recomputed), the real-embedding rank of a
Hermitian matrix or stack, and the norms of the column-pair wedge products
x y^T - y x^T.
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
# skewness of S_tilde, Im Xi1, the factor round trip), against the same
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
    rounding, not the input, decides the rank and PSD tests of Xi2.
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


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Scale each column so its largest-magnitude entry is real and positive.

    Ties pick the first index, so the convention is deterministic.
    """
    if vectors.shape[1] == 0:
        return vectors
    lead_rows = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[lead_rows, np.arange(vectors.shape[1])]
    mags = np.abs(lead)
    phases = np.where(mags > 0, lead / np.where(mags > 0, mags, 1.0), 1.0)
    return vectors / phases


def hermitian_eig(h):
    """Eigendecomposition H = U^dag diag(d) U of a Hermitian matrix.

    Returns (U, d): the rows of U are the conjugated eigenvectors,
    phase-fixed for determinism, and d holds the real eigenvalues sorted
    descending. Reads only the lower triangle of ``h`` (np.linalg.eigh):
    the caller vouches that it is Hermitian.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hermitian_eig requires a square matrix, got shape {h.shape}")
    d, v = np.linalg.eigh(h)
    order = np.argsort(-d, kind="stable")
    d = d[order]
    v = _fix_phases(v[:, order])
    return v.conj().T, d


def numerical_rank(
    m, policy: TolerancePolicy = DEFAULT_POLICY, hermitian: bool = False, floor: float = 0.0
) -> int | np.ndarray:
    """Count of singular values above rank_rel_tol times max(the largest one, floor).

    ``floor`` is the input's term scale carried to ``m`` (SkewReport), so
    a matrix that is all roundoff, as on a realizable system, has rank 0.
    ``m`` is one matrix, which gives an int, or a stack of shape
    (..., k, l), which gives an int array of shape m.shape[:-2] with the
    rank of each matrix. An all-zero matrix has rank 0; an empty matrix
    or stack gives 0 or zeros. ``hermitian=True`` promises that every
    matrix is Hermitian (real symmetric when real) and requires them
    square; np.linalg.svd then takes the singular values as the sorted
    |eigvalsh|, which reads only the lower triangle and costs a fraction
    of a complex SVD.
    """
    m = np.asarray(m)
    if m.ndim < 2 or (hermitian and m.shape[-1] != m.shape[-2]):
        kind = "square " if hermitian else ""
        raise DimensionError(f"numerical_rank requires {kind}matrices, got shape {m.shape}")
    if m.size == 0:
        ranks = np.zeros(m.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(m, compute_uv=False, hermitian=hermitian)
        ranks = np.count_nonzero(s > policy.rank_rel_tol * np.maximum(s[..., :1], floor), axis=-1)
    return int(ranks) if m.ndim == 2 else ranks


def psd_low_rank_factor(
    xi2, u, d, k: int, policy: TolerancePolicy = DEFAULT_POLICY, floor: float = 0.0
) -> np.ndarray:
    """Factor a PSD matrix of numerical rank k as F^dag F with F of k rows.

    ``u`` and ``d`` are a decomposition xi2 = U^dag diag(d) U the caller
    already holds, laid out as hermitian_eig returns it; the kernel keeps
    the top-k pairs, F = sqrt(d_k) * U_k, and verifies them, never
    decomposing xi2 itself. ``floor`` is as in numerical_rank. Raises
    NumericalError when k is not the numerical rank of xi2 (|eigvalsh|, one
    triangle), when a negative d exceeds the rank cutoff, or when F^dag F
    misses xi2 by more than ROUNDOFF_TOL * max(||xi2||, floor) plus
    ||d[k:]||, the exact miss of the dropped eigenvalues; other eigenpairs
    miss by more. The residuals residual_tol judges weigh the cut.
    """
    xi2 = np.asarray(xi2)
    u = np.asarray(u)
    d = np.asarray(d, dtype=float)
    k = int(k)
    got = numerical_rank(xi2, policy, hermitian=True, floor=floor)
    if got != k:
        raise NumericalError(f"requested {k} rows but the numerical rank is {got}")
    if d.size:
        cutoff = policy.rank_rel_tol * max(float(np.abs(d).max()), floor)
        if d[-1] < -cutoff:
            raise NumericalError(f"matrix is not PSD: eigenvalue {d[-1]:.3e} below -{cutoff:.3e}")
    factor = np.sqrt(np.clip(d[:k], 0.0, None))[:, None] * u[:k, :]
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
) -> int | np.ndarray:
    """Rank of the Hermitian are + i*aim, as half the rank of [[are, aim], [-aim, are]].

    An independent route to numerical_rank(are + 1j * aim, policy, True, floor):
    the real symmetric embedding repeats every eigenvalue of the Hermitian
    matrix exactly twice, and numerical_rank ranks it with hermitian=True,
    so the input must be Hermitian (are symmetric, aim skew). ``are`` and
    ``aim`` are one matrix each or stacks that broadcast together; a stack
    gives an int array of the ranks, as numerical_rank does.
    """
    are = np.asarray(are, dtype=float)
    aim = np.asarray(aim, dtype=float)
    try:
        *stack, k, l = np.broadcast_shapes(are.shape, aim.shape)
    except ValueError:
        shapes = f"{are.shape} and {aim.shape}"
        raise DimensionError(f"parts of shapes {shapes} do not broadcast to matrices") from None
    embedding = np.empty((*stack, 2 * k, 2 * l))
    embedding[..., :k, :l] = embedding[..., k:, l:] = are
    embedding[..., :k, l:] = aim
    embedding[..., k:, :l] = -aim
    return numerical_rank(embedding, policy, hermitian=True, floor=floor) // 2


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
