"""Tests for system validation, the skew invariant, and the noise counts."""

import dataclasses
import json
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    integer_realizable_system,
    make_corpus,
    oscillator_built_system,
    overflow_matrices,
    paper_matrices,
    projected_system,
    realizable_projection,
    rotated_record,
    shifted_record,
    traced_peak,
    with_eigenpairs,
)
from dense_reference import (
    build_theta,
    dense_check_physical_realizability,
    eigenvalue_multiplicity_count,
)
from exact_reference import exact_gamma, exact_magnitude, exact_s_tilde
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    DimensionError,
    LtiSystem,
    NumericalError,
    SkewReport,
    ValidationError,
    check_physical_realizability,
    compute_s_tilde,
    minimality_certificate,
    synthesize_realization,
)
from qrealize.cli import EXAMPLE_S_TILDE
from qrealize.io import parse_system_document, serialize_system
from qrealize.linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    apply_theta,
    hermitian_eig,
    skew_spectrum,
)
from qrealize.realizability import residual_entry
from qrealize.synthesis import _gamma

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_system(seed, n=None, n_u=None):
    rng = np.random.default_rng(seed)
    n = n or 2 * int(rng.integers(1, 6))
    n_u = n_u or 2 * int(rng.integers(1, 3))
    return LtiSystem(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n_u)),
        rng.standard_normal((n_u, n)),
    )


class TestValidateSystem:
    def test_accepts_fixtures(self, fixture_systems):
        for sys in fixture_systems.values():
            assert (sys.n, sys.n) == sys.A.shape
            assert (sys.n, sys.n_u) == sys.B.shape
            assert (sys.n_y, sys.n) == sys.C.shape

    def test_construction_converts_and_validates(self):
        sys = LtiSystem([[0, 1], [-1, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
        for m in (sys.A, sys.B, sys.C):
            assert isinstance(m, np.ndarray) and m.dtype == np.float64
        assert (sys.n, sys.n_u, sys.n_y) == (2, 2, 2)
        assert np.array_equal(sys.A, [[0.0, 1.0], [-1.0, 0.0]])
        a = np.eye(2)
        assert LtiSystem(a, a, a).A is a  # float64 input is not copied
        assert LtiSystem(a > 0, a, a).A.dtype == np.float64  # booleans convert too
        with pytest.raises(ValidationError, match="finite"):
            LtiSystem([[0, float("inf")], [0, 0]], [[1, 0], [0, 1]], [[1, 0], [0, 1]])

    def test_rejects_odd_n(self):
        with pytest.raises(ValidationError, match="n must be"):
            LtiSystem(np.zeros((3, 3)), np.zeros((3, 2)), np.zeros((2, 3)))

    def test_rejects_output_input_mismatch(self):
        with pytest.raises(ValidationError, match="n_y = n_u"):
            LtiSystem(np.zeros((4, 4)), np.zeros((4, 4)), np.zeros((2, 4)))

    def test_rejects_odd_n_y(self):
        with pytest.raises(ValidationError):
            LtiSystem(np.zeros((4, 4)), np.zeros((4, 2)), np.zeros((3, 4)))

    def test_rejects_non_square_a(self):
        with pytest.raises(ValidationError, match="square"):
            LtiSystem(np.zeros((2, 4)), np.zeros((2, 2)), np.zeros((2, 2)))

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValidationError, match="B must be"):
            LtiSystem(A=np.zeros((4, 4)), B=np.zeros((2, 2)), C=np.zeros((2, 4)))

    def test_rejects_c_with_the_wrong_column_count(self):
        with pytest.raises(ValidationError, match=re.escape("C must be 2x4, got shape (2, 2)")):
            LtiSystem(A=np.zeros((4, 4)), B=np.zeros((4, 2)), C=np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "value, message",
        [
            ((1 + 1j) * np.eye(2), "must hold real numbers, got dtype complex128"),
            ([["0", "1"], ["-1", "0"]], "must hold real numbers, got dtype <U2"),
            ([[0, 1], [-1]], "is not a rectangular array"),
            ([[0, 10**400], [-1, 0]], "must hold real numbers, got dtype object"),
        ],
        ids=["complex", "strings", "ragged", "huge-int"],
    )
    def test_rejects_what_is_not_a_real_matrix(self, value, message):
        with pytest.raises(ValidationError, match=re.escape(f"A {message}")):
            LtiSystem(value, np.eye(2), np.eye(2))

    def test_rejects_non_finite(self):
        a = np.zeros((2, 2))
        a[0, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            LtiSystem(a, np.zeros((2, 2)), np.zeros((2, 2)))


class TestComputeSTilde:
    def test_paper_matches_reference(self, paper_system):
        skew = compute_s_tilde(paper_system)
        assert np.abs(skew.S_tilde - EXAMPLE_S_TILDE).max() <= 1e-4

    def test_trivial_is_exactly_zero(self, trivial_system):
        skew = compute_s_tilde(trivial_system)
        assert not skew.S_tilde.any()
        assert skew.rank_r == 0
        assert np.array_equal(skew.eigenvalues, np.zeros(2))

    def test_small_closed_form(self, small_system):
        skew = compute_s_tilde(small_system)
        assert np.array_equal(skew.S_tilde, np.array([[0.0, -2.0], [2.0, 0.0]]))
        assert skew.rank_r == 2
        assert np.allclose(skew.eigenvalues, [0.5, -0.5], atol=1e-14)

    def test_companion_matrix(self, paper_system):
        skew = compute_s_tilde(paper_system)
        assert np.array_equal(skew.S, 0.25j * skew.S_tilde)

    @pytest.mark.parametrize("n", range(2, 66, 2))
    def test_equals_dense_definition_exactly(self, n):
        # S_tilde = G - G^T, G = Z - Theta A - Q, with Z = (Theta B)[:, 1::2]
        # (Theta B)[:, 0::2]^T and Q = C[0::2]^T C[1::2]; a product by a dense
        # Theta is exact, so Theta applied by index gives the same floats
        sys = _random_system(n, n=n, n_u=(2, 4, 8)[n % 3])
        theta = build_theta(sys.n)
        theta_b = theta @ sys.B
        g = (
            theta_b[:, 1::2] @ theta_b[:, 0::2].T
            - theta @ sys.A
            - sys.C[0::2].T @ sys.C[1::2]
        )
        assert np.array_equal(compute_s_tilde(sys).S_tilde, g - g.T)

    @pytest.mark.parametrize("n", range(2, 66, 2))
    def test_agrees_with_the_textbook_order(self, n):
        # Both orders round the same terms, so each is within gamma_k M of the
        # exact S_tilde (Higham, ch. 3), M = |Theta B| |Theta_u| |Theta B|^T +
        # |Theta A| + |Theta A|^T + |C|^T |Theta_y| |C|; a product by a dense
        # Theta is exact. Left to right, the textbook order rounds dot products
        # of length n_u and three sums (k = n_u + 3); G - G^T rounds dot
        # products of length n_u/2, two differences and G - G^T (k = n_u/2 + 3).
        # M is summed from nonnegative terms, so its computed value is at least
        # (1 - gamma_(n_u + 3)) M; six more roundings form the check below.
        sys = _random_system(n, n=n, n_u=(2, 4, 8)[n % 3])
        theta, theta_u = build_theta(sys.n), build_theta(sys.n_u)
        textbook = (
            theta @ sys.B @ theta_u @ sys.B.T @ theta
            - sys.A.T @ theta
            - theta @ sys.A
            - sys.C.T @ theta_u @ sys.C
        )
        theta_b, theta_a = np.abs(theta @ sys.B), np.abs(theta @ sys.A)
        m = theta_b @ np.abs(theta_u) @ theta_b.T + theta_a + theta_a.T
        m += np.abs(sys.C.T) @ np.abs(theta_u) @ np.abs(sys.C)
        n_u = sys.n_u
        bound = (_gamma(n_u // 2 + 3) + _gamma(n_u + 3)) / (1.0 - _gamma(n_u + 9)) * m
        assert np.all(np.abs(compute_s_tilde(sys).S_tilde - textbook) <= bound)

    @pytest.mark.parametrize("n", [4, 8, 16])
    @pytest.mark.parametrize("kind", ["generic", "projected", "delta-1e-08", "delta-1e-12", "integer"])
    def test_is_within_its_rounding_bound_of_the_exact_value(self, kind, n):
        # Each entry of G - G^T sums terms whose magnitudes add up to M, with
        # n_u/2 + 3 roundings on any term's path: a dot product of length
        # n_u/2 (Z) or n_y/2 (Q), the differences Z - Theta A and - Q, then
        # G - G^T. So |fl(S_tilde) - S_tilde_exact| <= gamma_(n_u/2+3) M
        # entrywise (Higham, ch. 3, in any summation order and with FMA; no
        # underflow), compared here in exact arithmetic
        for seed in range(2):
            generic = _random_system([n, seed], n=n, n_u=(2, 4, 8)[(n + seed) % 3])
            sys = {
                "generic": generic,
                "projected": realizable_projection(generic),
                "delta-1e-08": projected_system(n, seed, 1e-8),
                "delta-1e-12": projected_system(n, seed, 1e-12),
                "integer": integer_realizable_system(np.random.default_rng([n, seed]), n),
            }[kind]
            computed, gamma = compute_s_tilde(sys).S_tilde, exact_gamma(sys.n_u // 2 + 3)
            for row, exact_row, m_row in zip(computed, exact_s_tilde(sys), exact_magnitude(sys)):
                for x, exact, m in zip(row.tolist(), exact_row, m_row):
                    assert abs(Fraction(x) - exact) <= gamma * m

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_structural_properties(self, seed):
        # S_tilde is exactly skew and S exactly Hermitian on a generic system,
        # its r = 0 projection and a system built from an oscillator
        sys = _random_system(seed)
        built = oscillator_built_system(np.random.default_rng(seed), sys.n, sys.n_u, 1)
        for system in (sys, realizable_projection(sys), built):
            skew = compute_s_tilde(system)
            assert np.array_equal(skew.S_tilde, -skew.S_tilde.T)
            assert np.array_equal(skew.S, skew.S.conj().T)
            assert skew.rank_r % 2 == 0
            # spectrum of S comes in +/- pairs
            w = skew.eigenvalues
            assert np.abs(w + w[::-1]).max() <= 1e-9 * max(np.abs(w).max(), 1.0)

    @pytest.mark.parametrize("name", ["entries", "norm", "terms"])
    def test_overflow_is_diagnosed_without_warning(self, name):
        # finite inputs whose S_tilde, its norm or the term scale overflows:
        # a vacuous skew check, a failed eigensolver or an infinite rank
        # cutoff would follow
        sys = LtiSystem(*overflow_matrices()[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows.*rescale"):
                compute_s_tilde(sys)

    @pytest.mark.parametrize("name, r", [("entries", 2), ("norm", 4), ("terms", 0)])
    def test_rescaling_as_advised_gives_one_count(self, name, r):
        # (alpha A, sqrt(alpha) B, sqrt(alpha) C) scales S_tilde and the term
        # scale by alpha. For "terms", S_tilde is 1e-160 of the term scale:
        # roundoff against it, so r = 0
        a, b, c = overflow_matrices()[name]
        for alpha in (1e-250, 1e-280, 1e-300):
            root = math.sqrt(alpha)
            skew = compute_s_tilde(LtiSystem(alpha * a, root * b, root * c))
            assert (skew.rank_r, skew.n_v) == (r, 2 + r)
        # the alpha the message names, applied to A as sqrt(alpha) twice
        with pytest.raises(NumericalError) as excinfo:
            compute_s_tilde(LtiSystem(a, b, c))
        advised = re.search(r"alpha = 1e-(\d+)", str(excinfo.value))
        k = int(advised.group(1))
        assert k == {"entries": 400, "norm": 161, "terms": 160}[name]
        root = 10.0 ** (-k / 2)
        skew = compute_s_tilde(LtiSystem(root * (root * a), root * b, root * c))
        assert (skew.rank_r, skew.n_v) == (r, 2 + r)

    def test_odd_rank_is_diagnosed(self, paper_system, monkeypatch):
        # a skew matrix has even rank, so an odd count is a cutoff inside a pair;
        # naturally it takes a rank_rel_tol where rounding decides
        import qrealize.realizability as realizability

        monkeypatch.setattr(realizability, "numerical_rank", lambda *args, **kwargs: (3, np.ones(4)))
        message = (
            "numerical rank 3 of the skew invariant is odd; "
            "adjust rank_rel_tol away from the singular-value cluster"
        )
        with pytest.raises(NumericalError, match=re.escape(message)):
            compute_s_tilde(paper_system)


class TestLazyEigenpairs:
    """The record's U and eigenvalues come from one SVD of S_tilde with vectors, made on first read."""

    @pytest.mark.parametrize("first", ["U", "eigenvalues"])
    def test_first_read_makes_the_one_svd(self, paper_system, lapack_calls, first):
        # one SVD with vectors, and no eigh: the paper system's two 2 x 2 blocks are lone pairs
        skew = compute_s_tilde(paper_system)
        assert lapack_calls.with_vectors() == []
        getattr(skew, first)
        assert lapack_calls.with_vectors() == ["svd"]
        u, d = skew.U, skew.eigenvalues
        assert skew.U is u and skew.eigenvalues is d
        assert lapack_calls.with_vectors() == ["svd"]

    def test_agrees_with_hermitian_eig_of_s(self, paper_system, corpus):
        # Two backward-stable routes to one eigendecomposition, so they agree
        # to roundoff, not bit for bit: each eigenvalue within 2 n u
        # max(sigma_1, T) (u = 2^-53; measured at most 0.3 n u of it), and each
        # row of U, once its unit phase is matched, within 8 n u max(sigma_1, T)
        # over its eigenvalue's gap (measured at most 1 n u of it). The phase
        # itself may differ: the phase rule picks the largest entry, and on the
        # paper system two entries of a row tie in magnitude, so roundoff picks.
        u_roundoff = 2.0**-53
        for sys in [paper_system] + corpus[:20]:
            skew = compute_s_tilde(sys)
            u, d = hermitian_eig(skew.S)
            bound = sys.n * u_roundoff * max(4.0 * float(np.abs(d).max()), skew.term_scale)
            assert np.all(np.abs(skew.eigenvalues - d) <= 2.0 * bound)
            padded = np.concatenate([[np.inf], d, [-np.inf]])
            gap = np.minimum(padded[:-2] - d, d - padded[2:])
            overlap = np.einsum("ij,ij->i", u.conj(), skew.U)
            aligned = (overlap / np.abs(overlap))[:, None] * u
            assert np.all(np.linalg.norm(skew.U - aligned, axis=1) * gap <= 8.0 * bound)

    def test_svd_with_vectors_must_count_rank_r(self, paper_system):
        # a record whose r its own SVD does not count has no eigenpairs
        skew = dataclasses.replace(compute_s_tilde(paper_system), rank_r=2)
        with pytest.raises(NumericalError, match=r"numerical rank 4, not the record's r = 2"):
            skew.eigenpairs

    def test_record_stays_frozen(self, paper_system):
        skew = compute_s_tilde(paper_system)
        for name in ("U", "eigenvalues", "eigenpairs"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(skew, name, np.zeros(4))

    def test_fields_are_the_six_facts(self):
        names = [f.name for f in dataclasses.fields(SkewReport)]
        assert names == ["system", "policy", "S_tilde", "term_scale", "rank_r", "multiplicity_count"]

    def test_replace_repr_and_fields_make_no_eigh(self, paper_system, lapack_calls):
        skew = compute_s_tilde(paper_system)
        copy = dataclasses.replace(skew, rank_r=skew.rank_r)
        repr(skew)
        dataclasses.fields(skew)
        dataclasses.asdict(skew)
        assert lapack_calls.with_vectors() == []
        # the copy computes its own eigenpairs, once, equal to the source's
        u, d = copy.U, copy.eigenvalues
        assert lapack_calls.with_vectors() == ["svd"]
        assert np.array_equal(u, skew.U) and np.array_equal(d, skew.eigenvalues)
        assert lapack_calls.with_vectors() == ["svd"] * 2

    def test_with_eigenpairs_holds_the_given_values(self, paper_system, lapack_calls):
        # the corrupted records the certificate tests build hold the values given
        skew = compute_s_tilde(paper_system)
        u, d = 2.0 * np.eye(4), np.arange(4.0)
        faked = with_eigenpairs(skew, u, d)
        assert faked.U is u and faked.eigenvalues is d
        assert faked.S_tilde is skew.S_tilde and faked.rank_r == skew.rank_r
        assert lapack_calls.with_vectors() == []
        rotated = rotated_record(skew, 0, 3, 0.3)
        assert rotated.eigenvalues is skew.eigenvalues
        assert not np.allclose(rotated.U, skew.U)
        shifted = shifted_record(skew, 0, 0.3)
        assert shifted.U is skew.U and shifted.eigenvalues[0] == skew.eigenvalues[0] + 0.3
        assert lapack_calls.with_vectors() == ["svd"]  # the source record's own, read by the fakes


def _direct_sum(*systems):
    """The uncoupled system whose A, B and C are block diagonal in the given ones."""

    def blocks(ms):
        out = np.zeros((sum(m.shape[0] for m in ms), sum(m.shape[1] for m in ms)))
        i = j = 0
        for m in ms:
            out[i : i + m.shape[0], j : j + m.shape[1]] = m
            i, j = i + m.shape[0], j + m.shape[1]
        return out

    return LtiSystem(*(blocks([s[k] for s in systems]) for k in range(3)))


def _scaled(matrices, alpha):
    """(alpha A, sqrt(alpha) B, sqrt(alpha) C): S_tilde and its singular values scale by alpha."""
    a, b, c = matrices
    return alpha * a, math.sqrt(alpha) * b, math.sqrt(alpha) * c


def _record_eigenpair_cases():
    """(id, system, rank_rel_tol): repeated and nearly repeated spectra, r = 0, a loose count."""
    paper = paper_matrices()
    cases = [(f"paper-x{k}", _direct_sum(*[paper] * k), 1e-9) for k in range(2, 6)]
    cases.append(("paper-tol-0.5", LtiSystem(*paper), 0.5))
    for eps in (1e-14, 1e-10, 1e-6):
        near = _scaled(paper, 1.0 + eps)
        cases.append((f"near-{eps:.0e}", _direct_sum(paper, near), 1e-9))
        cases.append((f"near3-{eps:.0e}", _direct_sum(paper, near, _scaled(paper, 1.0 - eps)), 1e-9))
    projections = [LtiSystem(*paper)] + make_corpus()[:6]
    cases += [
        (f"r0-{i}", LtiSystem(s.A - apply_theta(compute_s_tilde(s).S_tilde, "left") / 2, s.B, s.C), 1e-9)
        for i, s in enumerate(projections)
    ]
    return cases


RECORD_EIGENPAIR_CASES = _record_eigenpair_cases()


@pytest.mark.parametrize(
    "name, sys, tol", RECORD_EIGENPAIR_CASES, ids=[c[0] for c in RECORD_EIGENPAIR_CASES]
)
def test_record_eigenpairs_hold_to_roundoff(name, sys, tol):
    # With u = 2^-53 and scale = max(sigma_1, T): ||U U^dag - I||_F <= 8 n u and
    # ||S U^dag - U^dag D||_F <= 8 n u scale (measured at most 3.4 n u and
    # 3.0 n u scale on these and the corpus). d is the spectrum compute_s_tilde
    # reads off its own SVD, skew_spectrum(sigma), to within 4 n u scale
    # (measured 1.4): the two SVDs of S_tilde, with and without vectors, are
    # each backward stable.
    skew = compute_s_tilde(sys, TolerancePolicy(rank_rel_tol=tol))
    u, d = skew.eigenpairs
    n, u_roundoff = sys.n, 2.0**-53
    sigma = np.linalg.svd(skew.S_tilde, compute_uv=False)
    scale = max(float(sigma[0]), skew.term_scale)
    assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= 8.0 * n * u_roundoff
    q = u.conj().T
    assert np.linalg.norm(skew.S @ q - q * d) <= 8.0 * n * u_roundoff * scale
    assert np.all(np.diff(d) <= 0.0)
    assert np.all(np.abs(d - skew_spectrum(sigma)) <= 4.0 * n * u_roundoff * scale)
    # and the count the certificate proves from them is the record's own
    assert minimality_certificate(skew).proven_r == skew.rank_r


def test_record_eigenpairs_prove_r_on_the_corpus(corpus):
    for sys in corpus:
        skew = compute_s_tilde(sys)
        assert minimality_certificate(skew).proven_r == skew.rank_r


def _multiplicity_inputs():
    """The seeded corpus, its r = 0 projections, and direct sums with a repeated spectrum."""
    corpus = make_corpus()
    systems = corpus + [
        LtiSystem(s.A - apply_theta(compute_s_tilde(s).S_tilde, "left") / 2, s.B, s.C)
        for s in corpus
    ]
    paper = paper_matrices()
    rng = np.random.default_rng([20, 4, 0])
    seeded = (rng.standard_normal((20, 20)), rng.standard_normal((20, 4)), rng.standard_normal((4, 20)))
    systems += [_direct_sum(paper, paper), _direct_sum(paper, paper, paper), _direct_sum(seeded, seeded)]
    return systems


@pytest.mark.parametrize("tol", [1e-9, 1e-3, 0.5, 1e-14])
def test_multiplicity_from_singular_values_equals_the_eigenvalue_rule(tol):
    # compute_s_tilde reads the spectrum of S off the SVD of S_tilde as
    # +-sigma/4; the cluster rule applied to the record's own eigenvalues
    # must give the same bound, generic (n_lambda = 1) or not
    policy = TolerancePolicy(rank_rel_tol=tol)
    checked = repeated = 0
    for sys in _multiplicity_inputs():
        try:
            skew = compute_s_tilde(sys, policy)
        except NumericalError as exc:  # a cutoff inside a singular-value pair
            assert "is odd" in str(exc)
            continue
        assert skew.multiplicity_count == eigenvalue_multiplicity_count(skew), sys.n
        checked += 1
        repeated += skew.multiplicity_count != sys.n_u + 2 * (sys.n - 1)
    assert checked >= 200 and repeated >= 100


class TestNoiseCounts:
    def test_minimal_counts(self, fixture_systems):
        for name, counts in (("paper", (4, 6)), ("trivial", (0, 2)), ("small", (2, 4))):
            skew = compute_s_tilde(fixture_systems[name])
            assert (skew.rank_r, skew.n_v) == counts, name

    def test_multiplicity_counts(self, fixture_systems):
        # trivial: all eigenvalues zero, so the cluster is everything
        assert compute_s_tilde(fixture_systems["trivial"]).multiplicity_count == 2
        # small: spectrum of i*S_tilde is {+2, -2}, simple least eigenvalue
        assert compute_s_tilde(fixture_systems["small"]).multiplicity_count == 4
        assert compute_s_tilde(fixture_systems["paper"]).multiplicity_count == 8

    def test_multiplicity_never_beats_rank_count(self, corpus):
        for sys in corpus:
            skew = compute_s_tilde(sys)
            assert skew.multiplicity_count >= skew.n_v

    def test_both_counts_collapse_only_for_zero_invariant(self, corpus, trivial_system):
        skew = compute_s_tilde(trivial_system)
        assert skew.n_v == skew.multiplicity_count == trivial_system.n_u
        for sys in corpus:
            skew = compute_s_tilde(sys)
            if np.linalg.norm(skew.S_tilde) > 0:
                assert skew.n_v > sys.n_u
                assert skew.multiplicity_count > sys.n_u


class TestResidualEntry:
    def test_zero_scale_zero_delta_passes(self):
        e = residual_entry("x", np.zeros((2, 2)), [np.zeros((2, 2))], 1e-8)
        assert e.relative == 0.0 and e.passed

    def test_zero_scale_nonzero_delta_fails(self):
        e = residual_entry("x", np.eye(2), [np.zeros((2, 2))], 1e-8)
        assert math.isinf(e.relative) and not e.passed

    def test_relative_is_ratio_to_largest_term(self):
        e = residual_entry("x", np.eye(2) * 1e-6, [np.eye(2), 10.0 * np.eye(2)], 1e-8)
        assert e.scale == pytest.approx(np.linalg.norm(10.0 * np.eye(2)))
        assert e.relative == pytest.approx(e.absolute / e.scale)

    def test_precomputed_norms_count_as_terms(self):
        e = residual_entry("x", np.eye(2), [np.eye(2)], 1e-8, norms=np.array([3.0, 20.0]))
        assert e.scale == 20.0 and e.relative == pytest.approx(np.sqrt(2.0) / 20.0)
        only = residual_entry("x", np.zeros((2, 2)), [], 1e-8, norms=[0.5])
        assert only.scale == 0.5 and only.passed


class TestCheckPhysicalRealizability:
    def test_synthesized_passes(self, paper_system):
        rz, _ = synthesize_realization(paper_system)
        report = check_physical_realizability(paper_system, rz.B1, rz.D1)
        assert report.all_passed
        for e in report:
            assert e.relative <= 1e-8

    def test_zero_b1_fails_output_coupling(self, paper_system):
        report = check_physical_realizability(
            paper_system, np.zeros((4, 6)), np.eye(2, 6)
        )
        assert not {e.name: e for e in report}["output_coupling"].passed

    def test_trivial_zero_b1_passes(self, trivial_system):
        # A = J makes the commutation terms cancel exactly with B1 = B = 0
        report = check_physical_realizability(
            trivial_system, np.zeros((2, 2)), np.eye(2, 2)
        )
        assert report.all_passed

    def test_commutation_uses_vacuum_ito_skew_part(self, paper_system):
        # T_w = (1/2) blockdiag(F_v - F_v^T, F_u - F_u^T) with the vacuum
        # Ito matrices F = I + i*Theta of the n_v = 6 noise and n_u = 2 input fields
        sys = paper_system
        b1 = np.random.default_rng(5).standard_normal((4, 6))
        f_v, f_u = (np.eye(k) + 1j * build_theta(k) for k in (6, 2))
        t_w = 0.5 * np.block(
            [[f_v - f_v.T, np.zeros((6, 2))], [np.zeros((2, 6)), f_u - f_u.T]]
        )
        bb = np.hstack([b1, sys.B])
        theta = build_theta(4)
        delta = 1j * sys.A @ theta + 1j * theta @ sys.A.T + bb @ t_w @ bb.T
        entry = {e.name: e for e in check_physical_realizability(sys, b1, np.eye(2, 6))}["commutation"]
        assert entry.absolute == pytest.approx(np.linalg.norm(delta), rel=1e-14)
        assert not entry.passed

    def test_wrong_d1_fails_feedthrough(self, trivial_system):
        report = check_physical_realizability(
            trivial_system, np.zeros((2, 2)), np.zeros((2, 2))
        )
        assert not {e.name: e for e in report}["feedthrough"].passed

    @pytest.mark.parametrize("which", ["B1", "D1"])
    def test_complex_or_ragged_input_is_named(self, paper_system, which):
        b1, d1 = np.zeros((4, 6)), np.eye(2, 6)
        cases = ((1j * np.ones((4, 6)), "must hold real numbers"), ([[0.0], []], "rectangular"))
        for bad, message in cases:
            args = (bad, d1) if which == "B1" else (b1, bad)
            with pytest.raises(ValidationError, match=f"{which} .*{message}"):
                check_physical_realizability(paper_system, *args)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    @pytest.mark.parametrize("which", ["B1", "D1"])
    def test_non_finite_input_is_named(self, paper_system, which, value):
        # rejected before any arithmetic: no warning, no residual of nan
        b1, d1 = np.zeros((4, 6)), np.eye(2, 6)
        (b1 if which == "B1" else d1)[0, 0] = value
        with pytest.raises(ValidationError, match=f"{which} contains non-finite entries"):
            check_physical_realizability(paper_system, b1, d1)

    def test_shape_errors(self, paper_system):
        with pytest.raises(DimensionError):
            check_physical_realizability(paper_system, np.zeros((3, 6)), np.eye(2, 6))
        with pytest.raises(DimensionError):
            check_physical_realizability(paper_system, np.zeros((4, 5)), np.eye(2, 5))
        with pytest.raises(DimensionError):
            check_physical_realizability(paper_system, np.zeros((4, 6)), np.eye(2, 4))
        # B1 obeys the same shape rule as in oscillator, so a stack is refused too
        with pytest.raises(DimensionError, match="B1 must be 4 x"):
            check_physical_realizability(paper_system, np.zeros((4, 6, 1)), np.eye(2, 6))

    @given(seeds)
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_noise_block_rotation(self, seed):
        # rotating the non-output noise columns by a J-preserving orthogonal
        # map leaves the commutation residual intact and the output
        # coupling columns untouched
        sys = _random_system(seed)
        rz, _ = synthesize_realization(sys)
        extra = rz.skew.n_v - sys.n_y
        if extra == 0:
            return
        rng = np.random.default_rng(seed + 1)
        blocks = []
        for _ in range(extra // 2):
            t = rng.uniform(0, 2 * np.pi)
            blocks.append(
                np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
            )
        v = np.zeros((extra, extra))
        for i, blk in enumerate(blocks):
            v[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
        assert np.allclose(v @ build_theta(extra) @ v.T, build_theta(extra), atol=1e-14)

        b1_rot = np.hstack([rz.B1[:, : sys.n_y], rz.B1[:, sys.n_y :] @ v])
        before = {e.name: e for e in check_physical_realizability(sys, rz.B1, rz.D1)}
        after = {e.name: e for e in check_physical_realizability(sys, b1_rot, rz.D1)}
        assert after["commutation"].passed
        assert abs(
            after["commutation"].absolute - before["commutation"].absolute
        ) <= 1e-10 * max(before["commutation"].scale, 1.0)
        assert after["output_coupling"].absolute == before["output_coupling"].absolute


# the paper example, then seeded systems as (seed, n, n_u)
DENSE_CASES = ["paper"] + [
    (seed, n, n_u) for n in (4, 32, 64) for n_u in (2, 8) for seed in (0, 1)
]


class TestAgainstDenseReference:
    """The real, closed-form checks against the complex dense ones they replaced."""

    @pytest.mark.parametrize("case", DENSE_CASES, ids=str)
    def test_same_verdicts_scales_and_failures(self, case, paper_system):
        sys = paper_system if case == "paper" else _random_system(*case)
        rz, _ = synthesize_realization(sys)
        rng = np.random.default_rng(sys.n)
        candidates = [
            (rz.B1, True),
            (rz.B1 + 1e-6 * rng.standard_normal(rz.B1.shape), False),
            (rng.standard_normal(rz.B1.shape), False),
        ]
        for b1, realizable in candidates:
            got = check_physical_realizability(sys, b1, rz.D1)
            ref = dense_check_physical_realizability(sys, b1, rz.D1, DEFAULT_POLICY)
            assert {e.name: e for e in got}["commutation"].passed is realizable
            for g, r in zip(got, ref):
                assert g.name == r.name
                assert g.passed == r.passed
                assert g.scale == pytest.approx(r.scale, rel=1e-12, abs=0.0)
                if not r.passed:
                    assert g.relative == pytest.approx(r.relative, rel=1e-6)

    def test_check_keeps_no_pair_sized_temporaries(self):
        # n_v + n_u = 224 columns at n = 192: one dense 192 x 192 term per
        # quadrature pair, all live at once, took 35 MB
        sys = _random_system(19, 192, 16)
        rz, _ = synthesize_realization(sys)
        report, peak = traced_peak(check_physical_realizability, sys, rz.B1, rz.D1)
        assert report.all_passed
        assert peak < 8 * 2**20


def test_realizable_projection_counts_no_extra_noise():
    # S_tilde is roundoff here; measured against the term scale it has rank 0
    sys2 = projected_system(4, 3, 0.0)
    b1 = build_theta(4) @ sys2.C.T @ build_theta(2)
    assert check_physical_realizability(sys2, b1, np.eye(2)).all_passed
    skew = compute_s_tilde(sys2)
    assert (skew.rank_r, skew.n_v, skew.multiplicity_count) == (0, 2, 2)


NEARLY_REALIZABLE = [(n, seed) for n in (8, 16, 32) for seed in (0, 3, 5)]


@pytest.mark.parametrize("delta", [1e-6, 1e-4, 1e-3])
@pytest.mark.parametrize("n, seed", NEARLY_REALIZABLE)
def test_nearly_realizable_counts_full_rank(n, seed, delta):
    skew = compute_s_tilde(projected_system(n, seed, delta))
    assert (skew.rank_r, skew.n_v) == (n, n + 2)


@pytest.mark.parametrize("delta", [1e-6, 1e-4])
@pytest.mark.parametrize("n, seed", NEARLY_REALIZABLE)
def test_symmetry_tol_works_around_nearly_realizable_inputs(n, seed, delta):
    # the old workaround, a file symmetry_tol, is now an ignored key: the
    # file still parses, and the defaults give r = n with six passing residuals
    data = json.loads(serialize_system(projected_system(n, seed, delta)))
    data["tolerances"] = {"symmetry_tol": 1e-8}
    doc = parse_system_document(json.dumps(data))
    assert doc.policy == DEFAULT_POLICY
    skew = compute_s_tilde(doc.system, doc.policy)
    assert (skew.rank_r, skew.n_v) == (n, n + 2)
    _, report = synthesize_realization(skew)
    assert report.all_passed and len(report.entries) == 6


@pytest.mark.parametrize("n, seed", NEARLY_REALIZABLE)
def test_delta_sweep_flips_from_no_extra_noise_to_full_rank(n, seed):
    # delta = 0 is realizable and 1e-10 stays below the rank cutoff; by 1e-6
    # every singular pair of S_tilde clears it, and at 1e-8 the flip is
    # under way. Every step synthesizes cleanly, none aborts.
    deltas = (0.0, 1e-10, 1e-8, 1e-6, 1e-4)
    ranks = []
    for delta in deltas:
        skew = compute_s_tilde(projected_system(n, seed, delta))
        _, report = synthesize_realization(skew)
        assert report.all_passed, delta
        ranks.append(skew.rank_r)
    assert ranks[:2] == [0, 0] and ranks[3:] == [n, n]
    assert 0 < ranks[2] < n
    assert ranks == sorted(ranks)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_scaled_integer_realizable_system_needs_no_extra_noise(n):
    for seed in range(3):
        system = integer_realizable_system(np.random.default_rng([n, seed]), n)
        skew = compute_s_tilde(system)
        assert (skew.rank_r, skew.n_v) == (0, system.n_u)
        assert skew.multiplicity_count == system.n_u
        _, report = synthesize_realization(skew)
        assert report.all_passed and len(report.entries) == 6
