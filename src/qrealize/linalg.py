"""Numerical kernels shared by the analysis and synthesis layers.

TolerancePolicy, the one place that names the two user tolerances, sets
their defaults and checks them, for the library, system files and the
command line alike; ROUNDOFF_TOL, the fixed bound of the factor round trip;
the block commutation matrix Theta = blockdiag(J, ..., J), J = [[0, 1],
[-1, 0]], applied as a signed swap of quadrature pairs rather than a
dense product; numerical_rank, the one rank kernel, which counts the
singular values of one matrix above a relative cutoff, takes them as
|eigvalsh| when the caller promises Hermitian input, and returns them
(with the singular vectors on request) with the count, so a caller that
needs the spectrum makes no second factorization; the eigenpairs of
S = (i/4) K read off one real SVD of a real skew K (skew_spectrum,
skew_eigenpairs: a lone singular-value pair in closed form, a cluster by
Rayleigh-Ritz), in the order and phases _phased_rows owns;
low-rank factorization of a PSD matrix from eigenpairs the caller already
holds (truncated and verified by real Gram products, never recomputed);
frobenius_norm, the one Frobenius norm, np.linalg.norm's value without its
argument handling, and the norms of the column-pair wedge products
x y^T - y x^T, neither rescaled: the pipeline's systems lie in the band of
realizability._analysed_system.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import ContractError, DimensionError, NumericalError

__all__ = [
    "ROUNDOFF_TOL",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "apply_theta",
    "numerical_rank",
    "skew_spectrum",
    "skew_eigenpairs",
    "psd_low_rank_factor",
    "frobenius_norm",
    "wedge_norms",
]


# Relative roundoff allowed in the factor round trip (psd_low_rank_factor),
# an identity exact in arithmetic, against the same floor as the rank
# cutoff of the factored matrix. Reports before 0.5.0 wrote it as the
# tolerance symmetry_tol.
ROUNDOFF_TOL = 1e-12


@dataclass(frozen=True)
class TolerancePolicy:
    """The two user tolerances of the pipeline.

    rank_rel_tol   : singular values at or below rank_rel_tol * max(sigma_max,
                     floor) count as zero (numerical_rank)
    residual_tol   : relative Frobenius threshold of the six reported residuals
                     (the synthesis identities and the realizability conditions);
                     it judges nothing else, so a report exists whatever its value

    The factor round trip uses the fixed ROUNDOFF_TOL, not a tolerance.
    Every tolerance is relative, so each must be a real number strictly
    between 0 and 1; anything else (inf, nan, a string, None, a complex
    number, an array) raises ValueError naming the field. A cutoff of 1 or
    more would count every singular value as zero and pass any residual.
    A rank_rel_tol below unit roundoff (2^-53) is accepted, but then
    rounding, not the input, decides the rank test of Xi2; the command line
    warns of it on stderr.
    A system file's "tolerances" are these fields by name
    (io.parse_system_document builds the policy from them), and the command
    line flags are laid over that policy with dataclasses.replace.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        # Only a numbers.Real (NumPy's floats are one) is compared, exactly for
        # any integer, and kept as a float, so no NumPy scalar's precision reaches a
        # cutoff; a long one shows its leading digits and length, others their
        # repr, and one too long for str (int_max_str_digits) its size in bits.
        for field in fields(self):
            value = getattr(self, field.name)
            real = isinstance(value, numbers.Real)
            if not (real and 0.0 < value < 1.0 and 0.0 < float(value) < 1.0):
                try:
                    shown = str(value) if real else repr(value)
                except ValueError:
                    shown = f"an integer of {int(value).bit_length()} bits"
                if real and len(shown) > 32:
                    shown = f"{shown[:8]}... ({len(shown)} digits)"
                raise ValueError(
                    f"{field.name} must be finite and in (0, 1), i.e. positive and below 1, got {shown}"
                )
            object.__setattr__(self, field.name, float(value))


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
        np.negative(m[0::2], out=out[1::2])
    else:
        np.negative(m[:, 1::2], out=out[:, 0::2])
        out[:, 1::2] = m[:, 0::2]
    out += 0.0
    return out


def _phased_rows(rows) -> np.ndarray:
    """Rows of U, the conjugated eigenvectors, in the one phase convention, in place.

    Each row is scaled so its largest-magnitude entry (the first on ties)
    is real and positive; hermitian_eig and skew_eigenpairs both lay out
    their U this way.
    """
    if rows.size:  # argmax raises on a 0 x 0 input; unit rows have a nonzero lead
        lead = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
        rows /= (lead / np.abs(lead))[:, None]
    return rows


# bench/tracing.py TRACED names it; it goes when the benchmark drops it (ROADMAP item 18)
def hermitian_eig(h):
    """Eigendecomposition H = U^dag diag(d) U of a Hermitian matrix.

    Returns (U, d): d holds the real eigenvalues sorted descending, and the
    rows of U the conjugated eigenvectors in that order, in the phases of
    _phased_rows. Reads only the lower triangle of ``h``
    (np.linalg.eigh): the caller vouches that it is Hermitian. The pipeline
    reads its eigenpairs off skew_eigenpairs; only tests call this.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"hermitian_eig requires a square matrix, got shape {h.shape}")
    d, v = np.linalg.eigh(h)
    order = np.argsort(-d, kind="stable")
    return _phased_rows(v[:, order].conj().T), d[order]


def numerical_rank(
    m,
    policy: TolerancePolicy = DEFAULT_POLICY,
    hermitian: bool = False,
    floor: float = 0.0,
    compute_uv: bool = False,
) -> tuple:
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
    a complex SVD. ``compute_uv=True``, as in np.linalg.svd, returns
    (rank, (u, s, vt)) with m = u diag(s) vt from the same one SVD.
    """
    m = np.asarray(m)
    if m.ndim != 2 or (hermitian and m.shape[0] != m.shape[1]):
        kind = "a square matrix" if hermitian else "one matrix"
        raise DimensionError(f"numerical_rank requires {kind}, got shape {m.shape}")
    if m.size == 0:
        s = np.zeros(0)
        return 0, (np.eye(m.shape[0]), s, np.eye(m.shape[1])) if compute_uv else s
    svd = np.linalg.svd(m, compute_uv=compute_uv, hermitian=hermitian)
    s = svd[1] if compute_uv else svd
    return int(np.count_nonzero(s > policy.rank_rel_tol * max(s[0], floor))), svd


def skew_spectrum(s) -> np.ndarray:
    """Eigenvalues of S = (i/4) K, descending, from the singular values s of a real skew K.

    A real skew K has its singular values in equal pairs s_1 = s_2 >= s_3 =
    s_4 ..., and each pair gives S one eigenvalue of each sign:
    [s[0::2], -s[1::2][::-1]] / 4.
    """
    s = np.asarray(s, dtype=float)
    return 0.25 * np.concatenate([s[0::2], -s[1::2][::-1]])


def _ritz_blocks(u, s, vt, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(M, starts, sizes): M = (V^T U) Sigma and the runs of indices skew_eigenpairs diagonalizes.

    A run is cut where every coupling |M_ij| across the cut is at most
    8 n eps max(s[0], floor), eps = 2^-52; each run is at least a pair (2j, 2j + 1).
    """
    n = s.shape[0]
    m = vt @ u
    m *= s
    cut = 8 * n * np.finfo(float).eps * max(float(s[0]), floor)
    coupled = m > cut
    coupled |= m < -cut
    coupled |= coupled.T
    # the last index each index couples to (the last True of its row of the
    # symmetric coupled, which the diagonal keeps nonempty), at least its pair
    # partner; a run ends where nothing at or before its end reaches past it
    np.fill_diagonal(coupled, True)
    index = np.arange(n)
    last = n - 1 - np.argmax(coupled[:, ::-1], axis=1)
    reach = np.maximum.accumulate(np.maximum(last, index | 1))
    ends = np.flatnonzero(reach == index) + 1
    starts = np.concatenate(([0], ends[:-1]))
    return m, starts, ends - starts


def _pair_rows(m, vt, first) -> tuple[np.ndarray, np.ndarray]:
    """The + Ritz rows, phased, and their values |mu|/8 of the 2 x 2 blocks starting at ``first``.

    mu = M[2j, 2j+1] - M[2j+1, 2j], and the row is (v_2j + i sgn(mu) v_2j+1) / sqrt(2),
    with sgn(0) = 1 (skew_eigenpairs).
    """
    mu = m[first, first + 1] - m[first + 1, first]
    half = math.sqrt(0.5)
    plus = np.empty((first.size, vt.shape[1]), dtype=complex)
    np.multiply(vt[first], half, out=plus.real)
    np.multiply(vt[first + 1], np.where(mu < 0.0, -half, half)[:, None], out=plus.imag)
    return _phased_rows(plus), 0.125 * np.abs(mu)


def skew_eigenpairs(u, s, vt, floor: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """(U, d) with S = U^dag diag(d) U for S = (i/4) K, from an SVD K = u diag(s) vt of a real skew K.

    d is skew_spectrum(s). A singular triple gives S (v + iu) = (s/4)(v + iu),
    but the two triples of a pair give one eigenvector of each sign only in
    combination, so the vectors come by Rayleigh-Ritz on the diagonal blocks
    of M = V^T K V = (V^T U) Sigma, V = vt^T, U = u. M couples only equal
    singular values: its blocks are runs of consecutive indices, each at
    least a pair (2j, 2j + 1), cut where every coupling across the cut is at
    most 8 n eps max(s[0], floor) (eps = 2^-52). That is above the roundoff
    of M, the couplings the SVD's backward error leaves between pairs
    (measured at most 4.4 n eps max(s[0], floor) on the paper system and
    the test corpus, and 3.7 n eps on the benchmark's n = 32 inputs): a cut
    of n eps merged such pairs in 10 of those 101 systems, 13 of 80
    benchmark inputs and 27 of 203 seeded generic systems with n = 4 to
    400, and this cut in none. A coupling c left out puts about c/4 into
    the residual S U^dag - U^dag D, so one at the cut stays within the
    8 n u max(s[0], floor) (u = eps/2) the tests hold every eigenpair to. An
    equal-value cluster couples at the size of its values, so it stays one
    block: every oscillator-built cluster of the tests does.

    A 2 x 2 block, a lone pair, has its Ritz pair in closed form: with
    mu = M[2j, 2j+1] - M[2j+1, 2j], (i/8)(M - M^T) on the block has the
    values +-|mu|/8 and the rows (v_2j +- i sgn(mu) v_2j+1) / sqrt(2)
    (sgn(0) = 1). The + row is phased by _phased_rows, and the - row is its
    conjugate, in phase already: conjugation keeps the leading entry real
    and positive. The larger blocks of
    each size go through one batched np.linalg.eigh of (i/8)(M - M^T), and
    their Ritz rows are V times its eigenvectors, one np.einsum per block
    size, which without ``optimize`` uses no BLAS: apart from M, no product
    here sums in an order that the BLAS thread count can change. Sorted by
    Ritz value (stable) and paired with d in that order, the rows are laid
    out as hermitian_eig lays out its eigenpairs. K must be of even size,
    as every skew invariant here is, or DimensionError is raised.
    """
    u, s, vt = np.asarray(u), np.asarray(s, dtype=float), np.asarray(vt)
    n = s.shape[0]
    if n % 2 or u.shape != (n, n) or vt.shape != (n, n):
        raise DimensionError(
            f"skew_eigenpairs needs the SVD of an even square matrix, got shapes "
            f"{u.shape}, {s.shape}, {vt.shape}"
        )
    if n == 0:
        return np.zeros((0, 0), dtype=complex), skew_spectrum(s)
    m, starts, sizes = _ritz_blocks(u, s, vt, floor)
    ritz = np.empty(n)
    first = starts[sizes == 2]
    plus, value = _pair_rows(m, vt, first)
    ritz[first], ritz[first + 1] = value, -value
    larger = []
    for size in sorted(set(sizes[sizes > 2].tolist())):  # np.unique would import numpy.ma
        block = starts[sizes == size][:, None] + np.arange(size)
        blocks = m[block[:, :, None], block[:, None, :]]
        ritz[block], y = np.linalg.eigh(0.125j * (blocks - blocks.transpose(0, 2, 1)))
        larger.append((block, y))
    del m
    # every Ritz vector is written once, straight to its row of the sorted U
    at = np.empty(n, dtype=np.intp)
    at[np.argsort(-ritz, kind="stable")] = np.arange(n)
    rows = np.empty((n, n), dtype=complex)
    rows[at[first]] = plus
    rows[at[first + 1]] = np.conjugate(plus, out=plus)
    for block, y in larger:
        # row j of each block of U is the conjugate of V times eigenvector j
        ritz_rows = np.einsum("bij,bin->bjn", y.conj(), vt[block])
        rows[at[block.ravel()]] = _phased_rows(ritz_rows.reshape(-1, n))
    return rows, skew_spectrum(s)


def psd_low_rank_factor(
    xi2, u, d, k: int, policy: TolerancePolicy = DEFAULT_POLICY, floor: float = 0.0
) -> np.ndarray:
    """Factor a PSD matrix of numerical rank k as F^dag F with F of k rows.

    ``u`` and ``d`` are a decomposition xi2 = U^dag diag(d) U the caller
    already holds, laid out as SkewReport.eigenpairs lays it out (d
    descending, eigenvectors in the rows of U); the kernel keeps
    the top-k pairs, F = sqrt(d_k) * U_k, and verifies them, never
    decomposing xi2 itself. d is clipped to >= 0 first, as the |d| + d
    that build_lambda_b1 passes already is, so neither the factor nor the
    allowance below counts a negative eigenvalue: the round trip misses by
    it, and so tests xi2 for PSD. ``floor`` is as in numerical_rank.
    Raises NumericalError when k is not the numerical rank
    of xi2 (|eigvalsh|, one triangle), or when F^dag F, formed as the real
    Grams P^T P + Q^T Q and P^T Q - Q^T P of F = P + iQ with no complex
    n x n product, misses xi2 by more
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
    # F^dag F = (P^T P + Q^T Q) + i (P^T Q - Q^T P) for F = P + iQ, by real
    # Grams; each is freed once measured, so at most two n x n temporaries live
    w = np.concatenate([factor.real, factor.imag])
    gram_re = w.T @ w
    gram_re -= xi2.real
    miss_re = frobenius_norm(gram_re)
    del gram_re
    pq = w[:k].T @ w[k:]
    del w
    gram_im = pq - pq.T
    gram_im -= xi2.imag
    residual = math.hypot(miss_re, frobenius_norm(gram_im))
    scale = max(frobenius_norm(xi2), floor)
    dropped = frobenius_norm(d[k:])
    if residual > ROUNDOFF_TOL * scale + dropped:
        raise NumericalError(
            f"round-trip residual {residual:.3e} exceeds roundoff {ROUNDOFF_TOL:.1e}"
            f" * {scale:.3e} + {dropped:.3e} (norm of the dropped eigenvalues)"
        )
    return factor


# bench/tracing.py TRACED names it; it goes when the benchmark drops it (ROADMAP item 18)
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


def frobenius_norm(x) -> float:
    """The Frobenius norm of an array, as np.linalg.norm gives it.

    For double (or integer or boolean) input, as every array here is, the
    value is np.linalg.norm's, bit for bit, by its own steps: the entries
    raveled in memory order, one dot product per real part and a square
    root, without its argument handling. Entries below about 1e-162 square
    to 0 and above about 1e154 to inf, as there; the pipeline's systems lie
    in the band of realizability._analysed_system, where neither decides.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "fc":
        x = x.astype(float)
    flat = x.ravel(order="K")
    if flat.dtype.kind == "c":
        return math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
    return math.sqrt(flat.dot(flat))


def wedge_norms(x, y) -> np.ndarray:
    """Frobenius norms ||x_k y_k^T - y_k x_k^T|| for matching columns of x and y.

    Computed in O(n) per column pair, without the n x n wedge product, as
    sqrt(2) ||x_k|| ||y_k - (x_k.y_k / ||x_k||^2) x_k||. Projecting out x_k
    keeps the value when the pair is nearly parallel, where the equivalent
    sqrt(2 (||x||^2 ||y||^2 - (x.y)^2)) cancels to nothing. A zero x_k gives 0.
    Squared norms underflow and overflow as in frobenius_norm.
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
