"""Numerical kernels shared by the analysis and synthesis layers.

TolerancePolicy, the one place that names the tolerances, sets their
defaults and checks them, for the library, system files and the command
line alike; the block commutation matrix Theta = blockdiag(J, ..., J),
J = [[0, 1], [-1, 0]], applied as a signed swap of quadrature pairs rather
than a dense product; Hermitian eigendecomposition with a deterministic ordering;
numerical_rank, the one rank kernel, which counts singular values above a
relative cutoff for one matrix or a stack of them and takes them as
|eigvalsh| when the caller promises Hermitian input; low-rank
factorization of a PSD matrix from eigenpairs the caller already holds
(truncated and verified, never recomputed), the real-embedding rank of a
complex matrix, and the norms of the column-pair wedge products
x y^T - y x^T.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

__all__ = [
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "apply_theta",
    "hermitian_eig",
    "numerical_rank",
    "psd_low_rank_factor",
    "complex_rank_via_real_embedding",
    "wedge_norms",
]


@dataclass(frozen=True)
class TolerancePolicy:
    """Numeric cutoffs used throughout the pipeline.

    rank_rel_tol   : singular values below rank_rel_tol * sigma_max count as zero
    residual_tol   : relative Frobenius threshold of the six reported residuals
                     (the synthesis identities and the realizability conditions);
                     it judges nothing else, so a report exists whatever its value
    symmetry_tol   : relative threshold for quantities that vanish in exact
                     arithmetic: the skewness of S_tilde, the Hermiticity of
                     hermitian_eig's input, the imaginary part of Xi1 and the
                     roundoff in psd_low_rank_factor's round trip

    Every tolerance is relative, so each must lie strictly between 0 and 1;
    anything else (including inf and nan) raises ValueError. A cutoff of 1
    or more would count every singular value as zero and pass any residual.
    A system file's "tolerances" are these fields by name
    (io.parse_system_document builds the policy from them), and the command
    line flags are laid over that policy with dataclasses.replace.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8
    symmetry_tol: float = 1e-12

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


def _fro(a) -> float:
    return float(np.linalg.norm(a)) if np.size(a) else 0.0


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


def hermitian_eig(h, policy: TolerancePolicy = DEFAULT_POLICY):
    """Eigendecomposition H = U^dag diag(d) U of a Hermitian matrix.

    Parameters
    ----------
    h : array_like
        Square matrix, Hermitian within ``policy.symmetry_tol`` (relative).
    policy : TolerancePolicy

    Returns
    -------
    U : ndarray
        Matrix with H = U.conj().T @ diag(d) @ U; its rows are the
        conjugated eigenvectors, phase-fixed for determinism.
    d : ndarray
        Real eigenvalues, sorted descending.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hermitian_eig requires a square matrix, got shape {h.shape}")
    scale = _fro(h)
    if scale > 0 and _fro(h - h.conj().T) > policy.symmetry_tol * scale:
        raise ContractError("matrix is not Hermitian within the symmetry tolerance")
    d, v = np.linalg.eigh(h)
    order = np.argsort(-d, kind="stable")
    d = d[order]
    v = _fix_phases(v[:, order])
    return v.conj().T, d


def numerical_rank(
    m, policy: TolerancePolicy = DEFAULT_POLICY, hermitian: bool = False
) -> int | np.ndarray:
    """Count of singular values above rank_rel_tol times the largest one.

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
        ranks = np.count_nonzero(s > policy.rank_rel_tol * s[..., :1], axis=-1)
    return int(ranks) if m.ndim == 2 else ranks


def psd_low_rank_factor(
    xi2, u, d, k: int, policy: TolerancePolicy = DEFAULT_POLICY
) -> np.ndarray:
    """Factor a PSD matrix of numerical rank k as F^dag F with F of k rows.

    ``u`` and ``d`` are a decomposition xi2 = U^dag diag(d) U the caller
    already holds, laid out as hermitian_eig returns it: rows of U are the
    conjugated eigenvectors and d is sorted descending. The kernel does
    not decompose xi2 itself; it keeps the top-k pairs, F = sqrt(d_k) * U_k,
    and verifies the supplied decomposition. Raises NumericalError when
    k disagrees with the numerical rank of xi2, when a negative entry of d
    exceeds the rank cutoff, or when the round-trip F^dag F misses xi2 by
    more than symmetry_tol relative to ||xi2|| plus ||d[k:]||, the exact
    miss of the eigenvalues the rank cutoff dropped; eigenpairs of any
    other matrix miss by more. The truncation itself is left to the
    residuals that residual_tol judges. xi2 is PSD, so Hermitian: its rank
    comes from |eigvalsh|, which reads one triangle, while the round trip
    reads all of xi2.
    """
    xi2 = np.asarray(xi2)
    u = np.asarray(u)
    d = np.asarray(d, dtype=float)
    k = int(k)
    got = numerical_rank(xi2, policy, hermitian=True)
    if got != k:
        raise NumericalError(f"requested {k} rows but the numerical rank is {got}")
    if d.size:
        floor = policy.rank_rel_tol * float(np.abs(d).max())
        if d[-1] < -floor:
            raise NumericalError(f"matrix is not PSD: eigenvalue {d[-1]:.3e} below -{floor:.3e}")
    factor = np.sqrt(np.clip(d[:k], 0.0, None))[:, None] * u[:k, :]
    residual = _fro(factor.conj().T @ factor - xi2)
    scale = _fro(xi2)
    dropped = _fro(d[k:])
    if residual > policy.symmetry_tol * scale + dropped:
        raise NumericalError(
            f"round-trip residual {residual:.3e} exceeds symmetry_tol {policy.symmetry_tol:.1e}"
            f" * {scale:.3e} + {dropped:.3e} (norm of the dropped eigenvalues)"
        )
    return factor


def complex_rank_via_real_embedding(
    are, aim, policy: TolerancePolicy = DEFAULT_POLICY
) -> int:
    """Rank of (are + i*aim) computed as half the rank of [[are, aim], [-aim, are]].

    An independent route to numerical_rank(are + 1j * aim): the embedding
    repeats every singular value of the complex matrix exactly twice.
    """
    are = np.asarray(are, dtype=float)
    aim = np.asarray(aim, dtype=float)
    if are.shape != aim.shape:
        raise DimensionError(f"real and imaginary parts differ in shape: {are.shape} vs {aim.shape}")
    embedding = np.block([[are, aim], [-aim, are]])
    return numerical_rank(embedding, policy) // 2


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
