"""Tests for the constructive synthesis and the rank certificate."""

import dataclasses
import json

import numpy as np
import pytest
from conftest import (
    integer_realizable_system,
    near_overflow_matrices,
    oscillator_built_system,
    overflow_matrices,
    projected_system,
    realizable_projection,
    rescaled,
    rotated_record,
    shifted_record,
    traced_peak,
    underflow_matrices,
    with_eigenpairs,
)
from dense_reference import (
    build_p,
    build_theta,
    dense_gamma,
    dense_rebuild_residuals,
    dense_theta,
    reference_certificate,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qrealize import (
    DimensionError,
    LtiSystem,
    NumericalError,
    TolerancePolicy,
    ValidationError,
    check_physical_realizability,
    compute_s_tilde,
    minimality_certificate,
    oscillator,
    synthesize_realization,
)
from qrealize.cli import example_system
from qrealize.io import report_document, serialize_report
from qrealize.linalg import ROUNDOFF_TOL, apply_theta, numerical_rank
from qrealize.synthesis import build_b1, build_lambda_b1, build_r, build_xi1, build_xi2

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_system(seed, n=None, n_u=None):
    rng = np.random.default_rng(seed)
    n = n or 2 * int(rng.integers(1, 5))
    n_u = n_u or 2 * int(rng.integers(1, 3))
    return LtiSystem(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n_u)),
        rng.standard_normal((n_u, n)),
    )


def _rel(delta, *terms):
    scale = max(np.linalg.norm(t) for t in terms)
    if scale == 0.0:
        return 0.0 if np.linalg.norm(delta) == 0.0 else np.inf
    return np.linalg.norm(delta) / scale


class TestBuildR:
    def test_trivial(self, trivial_system):
        assert np.array_equal(build_r(trivial_system), 0.5 * np.eye(2))

    def test_zero_a(self, small_system):
        assert not build_r(small_system).any()

    def test_paper_symmetry(self, paper_system):
        r = build_r(paper_system)
        assert np.linalg.norm(r - r.T) < 1e-14 * np.linalg.norm(r)


def _lambda_b0(sys):
    return synthesize_realization(sys)[0].Lambda_b0


def _lambda_b2(sys):
    return synthesize_realization(sys)[0].Lambda_b2


class TestCouplingBlocks:
    """The output and input blocks of Lambda, which oscillator reads off C and B."""

    def test_lambda_b0_zero_output(self, trivial_system):
        assert not _lambda_b0(trivial_system).any()

    def test_lambda_b0_small(self, small_system):
        assert np.allclose(_lambda_b0(small_system), np.array([[0.5, 0.5j]]), atol=1e-15)

    def test_lambda_b0_rebuilds_c(self, paper_system):
        # the output reconstruction identity only sees the leading rows
        lb0 = _lambda_b0(paper_system)
        p = build_p(paper_system.n_y)
        rebuilt = p.T @ np.vstack([2.0 * lb0.real, 2.0 * lb0.imag])
        assert np.linalg.norm(rebuilt - paper_system.C) <= 1e-10

    def test_lambda_b2_zero_input(self, trivial_system):
        assert not _lambda_b2(trivial_system).any()

    def test_lambda_b2_small(self, small_system):
        assert np.allclose(_lambda_b2(small_system), np.array([[-0.5, -0.5j]]), atol=1e-15)

    def test_lambda_b2_gram_identity(self, paper_system):
        sys = paper_system
        lb2 = _lambda_b2(sys)
        theta = build_theta(sys.n)
        theta_u = build_theta(sys.n_u)
        target = -0.25 * theta @ sys.B @ theta_u @ sys.B.T @ theta
        assert np.linalg.norm((lb2.conj().T @ lb2).imag - target) <= 1e-10

    def test_lambda_b0_gram_identity(self, paper_system):
        sys = paper_system
        lb0 = _lambda_b0(sys)
        target = 0.25 * sys.C.T @ build_theta(sys.n_y) @ sys.C
        assert np.linalg.norm((lb0.conj().T @ lb0).imag - target) <= 1e-10


class TestXiConstruction:
    def test_xi1_zero(self, trivial_system):
        skew = compute_s_tilde(trivial_system)
        assert not build_xi1(skew).any()

    def test_xi1_small(self, small_system):
        skew = compute_s_tilde(small_system)
        assert np.allclose(build_xi1(skew), 0.5 * np.eye(2), atol=1e-12)

    def test_xi1_is_sqrt_of_s_squared(self, paper_system):
        # the real Gram product is a symmetric rank-k update: exactly symmetric
        for sys in (paper_system, _random_system(64, n=64, n_u=8)):
            skew = compute_s_tilde(sys)
            xi1 = build_xi1(skew)
            assert np.array_equal(xi1, xi1.T)
            assert np.linalg.eigvalsh(xi1).min() >= -1e-12
            s_sq = (skew.S @ skew.S).real
            assert np.linalg.norm(xi1 @ xi1 - s_sq) <= 1e-9 * np.linalg.norm(s_sq)

    def test_xi1_rejects_eigenpairs_of_another_matrix(self, paper_system):
        # a random unitary in place of U: Xi1 keeps only the real part of
        # U^dag |D| U, and the rank test of Xi2 rejects the result
        skew = compute_s_tilde(paper_system)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        unitary = np.linalg.qr(g)[0]
        with pytest.raises(NumericalError, match=r"^Xi2 has numerical rank 4, expected r/2 = 2 "):
            synthesize_realization(with_eigenpairs(skew, unitary, skew.eigenvalues))

    def test_xi2_rank_is_half_r(self, fixture_systems):
        expected = {"paper": 2, "trivial": 0, "small": 1}
        for name, sys in fixture_systems.items():
            skew = compute_s_tilde(sys)
            xi2 = build_xi2(skew, build_xi1(skew))
            assert numerical_rank(xi2)[0] == expected[name]

    def test_xi2_small_spectrum(self, small_system):
        skew = compute_s_tilde(small_system)
        xi2 = build_xi2(skew, build_xi1(skew))
        assert np.allclose(np.linalg.eigvalsh(xi2), [0.0, 1.0], atol=1e-12)

    def test_xi2_rejects_wrong_minimizer(self, small_system):
        # a generic PSD choice inflates the rank past r/2
        skew = compute_s_tilde(small_system)
        with pytest.raises(NumericalError, match="numerical rank"):
            build_xi2(skew, np.diag([5.0, 3.0]))

    def test_xi2_error_prints_rank_rel_tol_in_full(self, small_system):
        # shortest round-trip form, as the command line's warning prints it:
        # 1.1e-16 and 1.14e-16 no longer both read 1.1e-16
        messages = []
        for tol in (1.1e-16, 1.14e-16):
            skew = compute_s_tilde(small_system, TolerancePolicy(rank_rel_tol=tol))
            with pytest.raises(NumericalError) as caught:
                build_xi2(skew, np.diag([5.0, 3.0]))
            messages.append(str(caught.value))
        assert "rank_rel_tol 1.1e-16 times" in messages[0]
        assert "rank_rel_tol 1.14e-16 times" in messages[1]
        assert messages[0] != messages[1]

    def test_xi2_rejects_indefinite_result(self, small_system):
        # Xi1 = -I/2 gives Xi2 the eigenvalues {-1, 0}: rank 1 = r/2 passes
        # build_xi2, and the factor of |d| + d cannot rebuild it
        skew = compute_s_tilde(small_system)
        xi2 = build_xi2(skew, -0.5 * np.eye(2))
        assert np.allclose(np.linalg.eigvalsh(xi2), [-1.0, 0.0], atol=1e-12)
        with pytest.raises(NumericalError, match="round-trip residual"):
            build_lambda_b1(skew, xi2)

    @pytest.mark.parametrize("tol", [1e-9, 0.5, 1e-14, 1e-16])
    def test_xi2_that_passes_the_rank_test_is_psd(self, paper_system, corpus, tol):
        # the rank test counts |eigenvalues| against the cutoff, so whenever
        # build_xi2 returns, no eigenvalue lies below minus that cutoff
        systems = [paper_system] + corpus[:30]
        systems += [realizable_projection(sys) for sys in systems]
        systems += [
            oscillator_built_system(np.random.default_rng([n, n_u, k]), n, n_u, k)
            for n in (4, 8, 20, 32)
            for n_u in (2, 4)
            for k in sorted({0, 1, n // 4, n // 2})
        ]
        policy = TolerancePolicy(rank_rel_tol=tol)
        returned = 0
        for sys in systems:
            try:
                skew = compute_s_tilde(sys, policy)
                xi2 = build_xi2(skew, build_xi1(skew))
            except NumericalError:
                continue
            returned += 1
            w = np.linalg.eigvalsh(xi2)
            cutoff = tol * max(float(np.abs(w).max()), skew.term_scale / 2)
            assert w[0] >= -cutoff
        assert returned >= len(systems) // 3

    def test_xi1_and_the_factor_round_trip_are_the_complex_grams(self, paper_system, corpus):
        # Xi1 = Re(U^dag |D| U), and the factor F misses Xi2 by no more than the
        # round-trip bound, roundoff plus the norm of the dropped eigenvalues
        for sys in [paper_system] + corpus[:30] + [_random_system(64, n=64, n_u=8)]:
            skew = compute_s_tilde(sys)
            xi1 = build_xi1(skew)
            u = skew.U
            product = (u.conj().T * np.abs(skew.eigenvalues)) @ u
            assert np.linalg.norm(xi1 - product.real) <= 1e-14 * np.linalg.norm(product)
            xi2 = build_xi2(skew, xi1)
            factor = build_lambda_b1(skew, xi2)
            d = np.abs(skew.eigenvalues) + skew.eigenvalues
            bound = ROUNDOFF_TOL * max(np.linalg.norm(xi2), skew.term_scale / 2)
            bound += np.linalg.norm(d[len(factor) :])
            assert np.linalg.norm(factor.conj().T @ factor - xi2) <= bound

    def test_lambda_b1_rows_and_gram(self, paper_system):
        skew = compute_s_tilde(paper_system)
        xi2 = build_xi2(skew, build_xi1(skew))
        lb1 = build_lambda_b1(skew, xi2)
        assert lb1.shape == (2, 4)
        assert np.linalg.norm(lb1.conj().T @ lb1 - xi2) <= 1e-10 * np.linalg.norm(xi2)

    def test_lambda_b1_empty_when_rank_zero(self, trivial_system):
        skew = compute_s_tilde(trivial_system)
        xi2 = build_xi2(skew, build_xi1(skew))
        assert build_lambda_b1(skew, xi2).shape == (0, 2)


class TestBuildB1:
    def test_trivial_zero(self, trivial_system):
        skew = compute_s_tilde(trivial_system)
        lb1 = build_lambda_b1(skew, build_xi2(skew, build_xi1(skew)))
        b1 = build_b1(trivial_system, lb1)
        assert b1.shape == (2, 2)
        assert not b1.any()

    def test_small_closed_form(self, small_system):
        skew = compute_s_tilde(small_system)
        lb1 = build_lambda_b1(skew, build_xi2(skew, build_xi1(skew)))
        b1 = build_b1(small_system, lb1)
        root2 = np.sqrt(2.0)
        expected = np.array([[-1.0, 0.0, root2, 0.0], [0.0, -1.0, 0.0, -root2]])
        assert np.allclose(b1, expected, atol=1e-12)

    def test_paper_shape(self, paper_system):
        skew = compute_s_tilde(paper_system)
        lb1 = build_lambda_b1(skew, build_xi2(skew, build_xi1(skew)))
        assert build_b1(paper_system, lb1).shape == (4, 6)

    def test_matches_complex_definition(self, paper_system, corpus):
        # B_12 = 2i Theta [-Lambda_b1^dag Lambda_b1^T] Gamma, formed in complex
        # arithmetic, is real, and its real part is the real-arithmetic B_12 exactly
        for sys in [paper_system] + corpus[:30]:
            skew = compute_s_tilde(sys)
            lb1 = build_lambda_b1(skew, build_xi2(skew, build_xi1(skew)))
            theta = dense_theta(sys.n)
            b12 = 2j * theta @ np.hstack([-lb1.conj().T, lb1.T]) @ dense_gamma(2 * lb1.shape[0])
            b11 = theta @ sys.C.T @ dense_theta(sys.n_y)
            assert not b12.imag.any()
            assert np.array_equal(build_b1(sys, lb1), np.hstack([b11, b12.real]))


def _has_negative_zero(*arrays):
    return any(np.signbit(part[part == 0]).any() for m in arrays for part in (m.real, m.imag))


class TestOscillator:
    """oscillator(system, B1) rebuilds the R and Lambda a report leaves out."""

    def _assert_rebuilds(self, sys):
        # rz.R and rz.Lambda are oscillator's, so they are checked against what the residuals measured
        rz, report = synthesize_realization(sys)
        _assert_record_system_round_trips(rz, report)
        assert not _has_negative_zero(rz.R, rz.Lambda)

    def test_fixtures(self, fixture_systems):
        # on the paper system (Theta A)^T cancels Theta A in 12 entries of R, all
        # +0.0, and one real part of Lambda_b1 is zero, +0.0 too
        for sys in fixture_systems.values():
            self._assert_rebuilds(sys)

    @pytest.mark.parametrize("n_u", [2, 4, 8])
    @pytest.mark.parametrize("n", [4, 8, 20, 32, 64])
    def test_seeded_corpus(self, n, n_u):
        for seed in range(3):
            rng = np.random.default_rng([n, n_u, seed])
            self._assert_rebuilds(
                LtiSystem(
                    rng.standard_normal((n, n)),
                    rng.standard_normal((n, n_u)),
                    rng.standard_normal((n_u, n)),
                )
            )

    @pytest.mark.parametrize("shape", [(4,), (2, 6), (4, 1), (4, 5), (4, 2, 6)])
    def test_misfit_b1_is_a_dimension_error(self, paper_system, shape):
        # the paper system has n = 4 and n_y = 2
        with pytest.raises(DimensionError, match="B1 must be 4 x"):
            oscillator(paper_system, np.zeros(shape))

    def test_complex_b1_is_a_validation_error(self, paper_system):
        # a cast would drop the imaginary part with only a warning
        with pytest.raises(ValidationError, match="B1 must hold real numbers"):
            oscillator(paper_system, np.full((4, 6), 1e-3j))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_b1_is_a_validation_error(self, paper_system, value):
        b1 = np.zeros((4, 6))
        b1[0, -1] = value
        with pytest.raises(ValidationError, match="B1 contains non-finite entries"):
            oscillator(paper_system, b1)

    def test_b1_out_of_scale_with_its_system_stays_finite(self):
        # analysed at 4^537, the underflow system would take B1 to 2^537 1e200,
        # which overflows; Lambda is formed at the scale given, so each entry
        # is +-B1/2 and nothing warns
        sys = LtiSystem(*underflow_matrices())
        r_mat, lam = oscillator(sys, np.full((4, 4), 1e200))
        assert np.isfinite(r_mat).all() and np.array_equal(r_mat, r_mat.T)
        assert not lam[0].any() and not lam[2].any()
        assert np.array_equal(np.abs(lam[1].real), np.full(4, 5e199))
        assert np.array_equal(np.abs(lam[1].imag), np.full(4, 5e199))

    def test_realization_reads_r_and_lambda_through_one_call(self, paper_system, monkeypatch):
        import qrealize.synthesis as synthesis

        calls = []

        def counted(sys, b1):
            calls.append(sys)
            return oscillator(sys, b1)

        monkeypatch.setattr(synthesis, "oscillator", counted)
        rz, _ = synthesize_realization(paper_system)
        assert calls == []
        r_mat, lam = rz.R, rz.Lambda
        assert rz.R is r_mat and rz.Lambda is lam
        assert calls == [paper_system]
        # a copy with another B1 reads that B1's Lambda, not the first one's
        other = rz.B1.copy()
        other[:, paper_system.n_y :] *= 2.0
        moved = dataclasses.replace(rz, B1=other)
        assert np.array_equal(moved.R, r_mat)
        assert np.array_equal(moved.Lambda, oscillator(paper_system, other)[1])
        assert np.array_equal(moved.Lambda_b1, 2.0 * rz.Lambda_b1)
        assert len(calls) == 2

    def test_lambda_b0_comes_from_c_not_from_b1(self, fixture_systems):
        # the output columns B1[:, :n_y] are B_11, rebuilt from C; B1's own are not read
        for sys in fixture_systems.values():
            rz, _ = synthesize_realization(sys)
            b1 = rz.B1.copy()
            b1[:, : sys.n_y] = np.random.default_rng(sys.n).standard_normal((sys.n, sys.n_y))
            r_mat, lam = oscillator(sys, b1)
            assert np.array_equal(r_mat, rz.R) and np.array_equal(lam, rz.Lambda)
            assert not _has_negative_zero(r_mat, lam)


def _assert_same_rebuild_entries(report, reference):
    entries = {e.name: e for e in report}
    for ref in reference:
        got = entries[ref.name]
        assert got.passed == ref.passed
        assert got.scale == pytest.approx(ref.scale, rel=1e-12, abs=0.0)
        if not ref.passed:
            assert got.relative == pytest.approx(ref.relative, rel=1e-6)


def _assert_record_system_round_trips(rz, report):
    """The public check and oscillator, given the record's system, agree with the synthesis to the bit.

    R and Lambda are the 4^-k R and 2^-k Lambda of the analysed system the
    residuals measured, with the analysed B1 2^k B1.
    """
    check = check_physical_realizability(rz.skew.system, rz.B1, rz.D1, rz.skew.policy)
    assert report.entries[3:] == check.entries
    k, sys = rz.skew.scale_exponent, rz.skew.system
    r_mat, lam = oscillator(LtiSystem(*rescaled((sys.A, sys.B, sys.C), k)), np.ldexp(rz.B1, k))
    for got, public, measured in zip(
        (rz.R, rz.Lambda), oscillator(sys, rz.B1), (np.ldexp(r_mat, -2 * k), lam * 2.0**-k)
    ):
        assert np.array_equal(got, public) and np.array_equal(got, measured)
        for part in (np.real, np.imag):
            assert np.array_equal(np.signbit(part(got)), np.signbit(part(public)))


class TestSynthesizeRealization:
    def test_fixtures_pass(self, fixture_systems):
        expected_nv = {"paper": 6, "trivial": 2, "small": 4}
        for name, sys in fixture_systems.items():
            rz, report = synthesize_realization(sys)
            assert rz.skew.n_v == expected_nv[name]
            assert rz.B1.shape == (sys.n, expected_nv[name])
            assert np.array_equal(rz.D1, np.eye(sys.n_y, rz.skew.n_v))
            assert report.all_passed

    def test_block_slices(self, paper_system):
        rz, _ = synthesize_realization(paper_system)
        assert rz.Lambda_b0.shape == (1, 4)
        assert rz.Lambda_b1.shape == (2, 4)
        assert rz.Lambda_b2.shape == (1, 4)
        assert np.array_equal(
            np.vstack([rz.Lambda_b0, rz.Lambda_b1, rz.Lambda_b2]), rz.Lambda
        )

    def test_carries_and_accepts_the_analysis_record(self, paper_system):
        skew = compute_s_tilde(paper_system)
        rz, report = synthesize_realization(skew)
        assert rz.skew is skew and skew.n_v == 6
        again, _ = synthesize_realization(paper_system)
        assert again.skew.system is paper_system
        assert np.array_equal(again.Lambda, rz.Lambda) and np.array_equal(again.B1, rz.B1)

    def test_takes_no_policy_argument(self, paper_system):
        # a record's own policy would silently win over one, so a custom
        # policy goes through compute_s_tilde and nowhere else
        policy = TolerancePolicy(residual_tol=1e-20)
        for sys in (paper_system, compute_s_tilde(paper_system)):
            with pytest.raises(TypeError):
                synthesize_realization(sys, policy)
        rz, report = synthesize_realization(compute_s_tilde(paper_system, policy))
        assert rz.skew.policy is policy and not report.all_passed

    def test_one_svd_with_vectors_and_no_eigh(self, paper_system, lapack_calls):
        # Xi2 is factored from the record's eigenpairs, so the only SVD with
        # vectors is the record's own, made when synthesis first reads U, and
        # none after; the paper system's two lone pairs need no eigh
        skew = compute_s_tilde(paper_system)
        assert lapack_calls.with_vectors() == []
        synthesize_realization(skew)
        assert lapack_calls.with_vectors() == ["svd"]
        synthesize_realization(skew)
        minimality_certificate(skew)
        assert lapack_calls.with_vectors() == ["svd"]
        synthesize_realization(paper_system)
        assert lapack_calls.with_vectors() == ["svd"] * 2

    @pytest.mark.parametrize("n, n_u, seed", [(32, 8, 0), (32, 8, 1), (192, 16, 0)])
    def test_generic_synthesis_makes_four_svds_and_no_eigh(self, n, n_u, seed, lapack_calls):
        # the count's SVD, the record's SVD with vectors and the two rank tests
        # of Xi2; a generic system's pairs are all lone, in closed form
        _, report = synthesize_realization(_random_system([n, n_u, seed], n, n_u))
        assert report.all_passed
        assert lapack_calls.names() == ["svd"] * 4

    def test_xi2_psd_test_makes_no_eigvalsh_call(self, paper_system, corpus, monkeypatch):
        # Xi2 is judged PSD by its rank test and the factor round trip alone:
        # a synthesis makes no Cholesky and no eigvalsh call of its own
        skew = compute_s_tilde(paper_system)
        calls = []
        for name in ("cholesky", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, lambda *a, name=name, **k: calls.append(name))
        for record in [skew] + [compute_s_tilde(sys) for sys in corpus[:10]]:
            synthesize_realization(record)
        assert calls == []

    def test_xi2_ranks_take_the_hermitian_route(self, paper_system, corpus, lapack_calls):
        # two rank checks of Xi2 through |eigvalsh| (build_xi2's and
        # psd_low_rank_factor's), and two SVDs of S_tilde: the count's, without
        # vectors, and the record's, with vectors
        for sys in [paper_system] + corpus[:10]:
            lapack_calls.clear()
            rz, _ = synthesize_realization(sys)
            calls = [call for call in lapack_calls if call.name == "svd"]
            hermitian = [call.a for call in calls if call.hermitian]
            full = [(call.a, call.compute_uv) for call in calls if not call.hermitian]
            xi2 = build_xi2(rz.skew, build_xi1(rz.skew))
            assert len(hermitian) == 2
            assert all(np.array_equal(a, xi2) for a in hermitian)
            s_tilde = rz.skew.S_tilde
            assert [uv for _, uv in full] == [False, True]
            assert all(np.array_equal(a, s_tilde) for a, _ in full)

    def test_lambda_b1_rows_are_scaled_eigenvectors_of_s(self, paper_system, corpus):
        # Xi2 = U^dag diag(|d| + d) U, so row j is sqrt(2 d_j) U_j for j < r/2
        for sys in [paper_system] + corpus[:30]:
            skew = compute_s_tilde(sys)
            rz, _ = synthesize_realization(skew)
            k = skew.rank_r // 2
            expected = np.sqrt(2.0 * skew.eigenvalues[:k])[:, None] * skew.U[:k]
            np.testing.assert_allclose(rz.Lambda_b1, expected, rtol=1e-14, atol=0.0)

    def test_repeated_eigenvalues_of_s(self, paper_system):
        # two identical uncoupled copies double every eigenvalue of S, so the
        # eigenvectors within each pair are fixed only up to a rotation
        a, b, c = paper_system.A, paper_system.B, paper_system.C

        def twice(m):
            out = np.zeros((2 * m.shape[0], 2 * m.shape[1]))
            out[: m.shape[0], : m.shape[1]] = out[m.shape[0] :, m.shape[1] :] = m
            return out

        skew = compute_s_tilde(LtiSystem(twice(a), twice(b), twice(c)))
        d = skew.eigenvalues
        assert skew.rank_r == 8 and np.allclose(d[0::2], d[1::2], rtol=1e-12)
        rz, report = synthesize_realization(skew)
        assert report.all_passed and len(list(report)) == 6
        gram = rz.Lambda_b1.conj().T @ rz.Lambda_b1
        xi2 = build_xi2(skew, build_xi1(skew))
        assert np.linalg.norm(gram - xi2) <= 1e-10 * np.linalg.norm(xi2)

    def test_trivial_reconstructs_a_exactly(self, trivial_system):
        rz, _ = synthesize_realization(trivial_system)
        theta = build_theta(2)
        assert np.array_equal(2.0 * theta @ rz.R, trivial_system.A)
        assert not rz.Lambda.any()

    def test_b1_width_is_tight(self, corpus, corpus_realizations):
        for sys, (rz, _) in zip(corpus, corpus_realizations):
            skew = compute_s_tilde(sys)
            assert rz.B1.shape[1] == skew.n_v == sys.n_u + skew.rank_r

    def test_corpus_residuals(self, corpus_realizations):
        for _, report in corpus_realizations:
            assert report.all_passed
            for entry in report:
                assert entry.relative <= 1e-8

    @pytest.mark.parametrize("n", [4, 32, 64])
    def test_rebuild_residuals_match_dense_reference(self, n, paper_system, monkeypatch):
        rng = np.random.default_rng(n)
        systems = [paper_system] if n == 4 else []
        systems += [
            LtiSystem(
                rng.standard_normal((n, n)),
                rng.standard_normal((n, n_u)),
                rng.standard_normal((n_u, n)),
            )
            for n_u in (2, 8)
        ]
        for sys in systems:
            rz, report = synthesize_realization(sys)
            _assert_same_rebuild_entries(report, dense_rebuild_residuals(rz))

        # a B1 off by 1e-6 must fail input_rebuild exactly as the dense check does
        import qrealize.synthesis as synthesis

        exact_b1 = synthesis.build_b1

        def perturbed_b1(sys, lb1, b11=None):
            b1 = exact_b1(sys, lb1, b11)
            return b1 + 1e-6 * rng.standard_normal(b1.shape)

        monkeypatch.setattr(synthesis, "build_b1", perturbed_b1)
        for sys in systems:
            rz, report = synthesize_realization(sys)
            assert not report.all_passed
            assert not {e.name: e for e in report}["input_rebuild"].passed
            _assert_same_rebuild_entries(report, dense_rebuild_residuals(rz))

    def test_frees_each_intermediate_when_its_stage_ends(self):
        # with every n x n intermediate live until the return it peaked at 5.67
        # MiB, and at 3.40 MiB with each freed when its stage ends; written once
        # and in place, each dead one freed at once, it reads 2.43 MiB
        sys = _random_system([192, 16, 0], 192, 16)
        (_, report), peak = traced_peak(synthesize_realization, sys)
        assert report.all_passed
        assert peak < 3 * 2**20

    def test_builds_b11_once(self, paper_system, monkeypatch):
        # build_b1, the Lambda assembly and the output coupling check share one
        # B_11, built from C
        import qrealize.synthesis as synthesis

        calls = []
        b11 = synthesis._b11
        monkeypatch.setattr(synthesis, "_b11", lambda sys: calls.append(sys) or b11(sys))
        for sys in (paper_system, _random_system([32, 8, 0], 32, 8)):
            calls.clear()
            _, report = synthesize_realization(sys)
            assert report.all_passed
            assert len(calls) == 1

    @pytest.mark.parametrize("wrong_b1", [False, True])
    @pytest.mark.parametrize("n", [4, 32, 64])
    def test_matches_the_public_check_and_oscillator(self, n, wrong_b1, paper_system, monkeypatch):
        # synthesis validates B1 once and shares [B1 B] and B_11 between its
        # stages; the public entry points, which build them anew, agree to the bit
        rng = np.random.default_rng(n)
        systems = [paper_system] if n == 4 else []
        systems += [_random_system(rng.integers(2**31), n, n_u) for n_u in (2, 8)]
        if wrong_b1:
            import qrealize.synthesis as synthesis

            exact_b1 = synthesis.build_b1

            def perturbed_b1(sys, lb1, b11=None):
                b1 = exact_b1(sys, lb1, b11)
                return b1 + 1e-6 * rng.standard_normal(b1.shape)

            monkeypatch.setattr(synthesis, "build_b1", perturbed_b1)
        for sys in systems:
            rz, report = synthesize_realization(sys)
            assert rz.skew.system is sys
            _assert_record_system_round_trips(rz, report)
            assert report.all_passed is not wrong_b1

    @pytest.mark.parametrize("name", ["entries", "norm", "terms", "underflow", "near_overflow"])
    def test_out_of_band_record_holds_the_given_system(self, name):
        # analysed at 4^k with k = -664, -266, -265, 537 and -511, the record
        # still holds the matrices as given, which R, Lambda and B1 realize;
        # with A = diag(1e308, -1e308), R's 5e307 is finite, though
        # Theta A + (Theta A)^T is not
        matrices = {
            **overflow_matrices(),
            "underflow": underflow_matrices(),
            "near_overflow": near_overflow_matrices(),
        }[name]
        rz, report = synthesize_realization(LtiSystem(*matrices))
        assert rz.skew.scale_exponent != 0
        for got, want in zip((rz.skew.system.A, rz.skew.system.B, rz.skew.system.C), matrices):
            assert np.array_equal(got, want)
        assert report.all_passed
        _assert_record_system_round_trips(rz, report)

    def test_residual_names(self, small_system):
        _, report = synthesize_realization(small_system)
        assert [e.name for e in report] == [
            "state_rebuild",
            "input_rebuild",
            "output_rebuild",
            "commutation",
            "output_coupling",
            "feedthrough",
        ]

    def test_failure_carries_report(self, small_system, monkeypatch):
        import qrealize.synthesis as synthesis

        monkeypatch.setattr(
            synthesis,
            "build_b1",
            lambda sys, lb1, b11=None: np.zeros((sys.n, sys.n_u + 2 * lb1.shape[0])),
        )
        realization, report = synthesis.synthesize_realization(small_system)
        assert realization is not None
        assert report is not None
        assert not report.all_passed
        assert "output_coupling" in [e.name for e in report if not e.passed]

    def test_block_below_the_rank_cutoff_synthesizes(self, paper_system):
        # the paper system direct-summed with a copy whose S_tilde is scaled
        # by 1e-10: rank_rel_tol drops that block's eigenvalues of Xi2, the
        # factor round trip allows for them, and the residuals judge the rest
        p, eps = paper_system, 1e-10
        small = LtiSystem(
            np.block([[p.A, np.zeros_like(p.A)], [np.zeros_like(p.A), eps * p.A]]),
            np.block([[p.B, np.zeros_like(p.B)], [np.zeros_like(p.B), eps**0.5 * p.B]]),
            np.block([[p.C, np.zeros_like(p.C)], [np.zeros_like(p.C), eps**0.5 * p.C]]),
        )
        rz, report = synthesize_realization(small)
        assert rz.skew.rank_r == compute_s_tilde(paper_system).rank_r
        assert report.all_passed
        assert {e.name: e for e in report}["commutation"].relative > 1e-12

    @pytest.mark.parametrize("tol", [1e-20, 1e-17])
    def test_tiny_residual_tol_is_reported_not_raised(self, tol, paper_system):
        # residual_tol judges the six residuals only, so no construction
        # check aborts a synthesis however tight it is
        systems = [paper_system] + [_random_system(seed) for seed in range(6)]
        systems += [_random_system(seed, n=32, n_u=8) for seed in range(2)]
        for sys in systems:
            _, report = synthesize_realization(compute_s_tilde(sys, TolerancePolicy(residual_tol=tol)))
            assert [e.tol for e in report] == [tol] * 6
            assert report.all_passed == all(e.relative <= tol for e in report)
            # roundoff near 1e-16 fails both bars on the paper system
            assert sys is not paper_system or not report.all_passed

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_random_systems_synthesize_clean(self, seed):
        sys = _random_system(seed)
        rz, report = synthesize_realization(sys)
        assert report.all_passed
        assert rz.B1.shape == (sys.n, rz.skew.n_v)


class TestProofIdentities:
    def test_generator_imaginary_part(self, corpus, corpus_realizations):
        for sys, (rz, _) in zip(corpus, corpus_realizations):
            theta = build_theta(sys.n)
            lhs = (rz.Lambda.conj().T @ rz.Lambda).imag
            rhs = -0.25 * (theta @ sys.A + sys.A.T @ theta)
            assert _rel(lhs - rhs, lhs, rhs) <= 1e-9

    def test_extra_noise_gram_matches_s(self, corpus, corpus_realizations):
        for sys, (rz, _) in zip(corpus, corpus_realizations):
            skew = compute_s_tilde(sys)
            lhs = 1j * (rz.Lambda_b1.conj().T @ rz.Lambda_b1).imag
            assert _rel(lhs - skew.S, skew.S) <= 1e-9


def _sampler_fields(cert):
    """The certificate in the terms of dense_reference.reference_certificate's candidate ranking.

    Of the two constructive candidates, Xi2 has rank r/2 and S rank r, so
    the least rank the reference observes is half the proven count.
    """
    return dict(
        min_observed_rank=cert.proven_r // 2,
        lower_bound_held=cert.lower_bound_held,
        embedding_agreed=cert.embedding_agreed,
    )


def _system_n32():
    rng = np.random.default_rng(32)
    return LtiSystem(
        rng.standard_normal((32, 32)),
        rng.standard_normal((32, 8)),
        rng.standard_normal((8, 32)),
    )


def _loose_n8():
    """The n=8, n_u=2 system of default_rng([8, 2, 1]) at rank_rel_tol 0.5.

    Xi2's second eigenvalue, 2.106, lies between the cutoffs under floor
    T/4 (1.910) and under T/2 (2.166), the floor build_xi2 ranks it with.
    """
    return compute_s_tilde(_random_system([8, 2, 1], 8, 2), TolerancePolicy(rank_rel_tol=0.5))


class TestMinimalityCertificate:
    @pytest.mark.parametrize("name", ["trivial", "small", "paper", "n32", "n8-loose"])
    def test_matches_per_candidate_svd_loop(self, fixture_systems, name):
        if name == "n8-loose":
            skew = _loose_n8()
        else:
            skew = compute_s_tilde(_system_n32() if name == "n32" else fixture_systems[name])
        cert = minimality_certificate(skew)
        assert _sampler_fields(cert) == reference_certificate(skew)
        if name == "trivial":
            assert cert.proven_r == 0

    @pytest.mark.parametrize("scalar", [np.float16, np.float32])
    def test_numpy_scalar_tolerance_proves_as_its_float(self, paper_system, scalar):
        # kept as given, np.float16(1e-3) made eta 0.0 and np.float32 a report
        # json could not encode
        results = []
        for tol in (scalar(1e-3), float(scalar(1e-3))):
            skew = compute_s_tilde(paper_system, TolerancePolicy(rank_rel_tol=tol))
            rz, report = synthesize_realization(skew)
            cert = minimality_certificate(skew)
            results.append((cert, serialize_report(report_document(rz, report, cert))))
        assert results[0] == results[1]
        assert results[0][0].eta > 0.0

    def test_trivial_bound(self, trivial_system):
        skew = compute_s_tilde(trivial_system)
        cert = minimality_certificate(skew)
        assert skew.rank_r == 0
        assert cert.lower_bound_held
        assert cert.embedding_agreed
        ref = reference_certificate(skew, trials=10, seed=0)
        assert ref["lower_bound_held"] and ref["embedding_agreed"]

    def test_realizable_system_bound(self):
        # S_tilde is roundoff, so against the floor T/4 every candidate ranks 0
        skew = compute_s_tilde(integer_realizable_system(np.random.default_rng(8), 8))
        cert = minimality_certificate(skew)
        assert (skew.rank_r, cert.proven_r) == (0, 0)
        assert cert.lower_bound_held and cert.embedding_agreed
        ref = reference_certificate(skew, trials=40, seed=0)
        assert (ref["min_observed_rank"], ref["lower_bound_held"], ref["embedding_agreed"]) == (0, True, True)

    def test_small_and_paper_bounds(self, small_system, paper_system):
        for sys, bound in ((small_system, 1), (paper_system, 2)):
            skew = compute_s_tilde(sys)
            assert minimality_certificate(skew).proven_r == 2 * bound
            ref = reference_certificate(skew, trials=200, seed=0)
            assert ref["min_observed_rank"] >= bound
            assert ref["lower_bound_held"]
            assert ref["embedding_agreed"]

    def test_deterministic(self, paper_system):
        skew = compute_s_tilde(paper_system)
        assert minimality_certificate(skew) == minimality_certificate(skew)
        assert reference_certificate(skew, 50, seed=7) == reference_certificate(skew, 50, seed=7)

    def test_loose_tolerance_ranks_xi2_under_its_own_floor(self):
        skew = _loose_n8()
        rz, _ = synthesize_realization(skew)
        cert = minimality_certificate(skew)
        least = reference_certificate(skew)["min_observed_rank"]
        assert rz.Lambda_b1.shape[0] == least == cert.proven_r // 2 == skew.rank_r // 2 == 1
        assert cert.lower_bound_held and cert.embedding_agreed

    @pytest.mark.parametrize("size", [1e-8, 1e-4, 1e-2])
    @pytest.mark.parametrize("corruption", ["rotated", "shifted"])
    def test_a_corrupted_record_raises_eta(self, paper_system, corruption, size):
        # turning rows 0 and 3 of U (d = 0.645 and -0.645) by theta leaves
        # sin(theta) |d_0 - d_3| in R, and moving d_0 by delta leaves delta
        skew = compute_s_tilde(paper_system)
        d = skew.eigenvalues
        if corruption == "rotated":
            least, skew = np.sin(size) * (d[0] - d[3]), rotated_record(skew, 0, 3, size)
        else:
            least, skew = size, shifted_record(skew, 0, size)
        cert = minimality_certificate(skew)
        assert cert.eta >= least
        # eta stays below the smallest |d|, 0.0747, so the count is still proven
        assert cert.proven_r == 4 and cert.lower_bound_held and cert.embedding_agreed

    @pytest.mark.parametrize("corruption", ["rotated", "shifted"])
    def test_a_grossly_corrupted_record_fails_both_flags(self, paper_system, corruption):
        skew = compute_s_tilde(paper_system)
        if corruption == "rotated":
            skew = rotated_record(skew, 0, 3, 0.3)
        else:
            skew = shifted_record(skew, 0, 0.3)
        cert = minimality_certificate(skew)
        assert cert.proven_r < 4
        assert cert.lower_bound_held is False and cert.embedding_agreed is False

    @pytest.mark.parametrize("name", ["paper", "trivial"])
    def test_vectors_far_from_orthonormal_fail_the_proof(self, fixture_systems, name):
        # 2U gives E = 3I: no proof, so no count, and embedding_agreed fails even
        # where, at r = 0, the count of 0 matches the spectrum's
        skew = compute_s_tilde(fixture_systems[name])
        cert = minimality_certificate(with_eigenpairs(skew, 2.0 * skew.U, skew.eigenvalues))
        assert cert.proven_r == 0 and cert.eta > np.abs(skew.eigenvalues).max()
        assert cert.embedding_agreed is False
        assert cert.lower_bound_held is (skew.rank_r == 0)

    def test_makes_no_lapack_call(self, paper_system, lapack_calls, monkeypatch):
        # the proof reads the record's eigenpairs: no SVD, eigh, eigvalsh or Xi1
        # beyond the record's own SVD with vectors
        import qrealize.synthesis as synthesis

        skew = compute_s_tilde(paper_system)
        lapack_calls.clear()
        xi1_calls = []
        build_xi1 = synthesis.build_xi1
        monkeypatch.setattr(synthesis, "build_xi1", lambda *a: xi1_calls.append(a) or build_xi1(*a))
        assert minimality_certificate(skew).proven_r == 4
        # the record's own, on the first read of its eigenpairs: one SVD of S_tilde
        # with vectors; the paper system's two lone pairs need no eigh
        assert lapack_calls.names() == ["svd"] and xi1_calls == []
        lapack_calls.clear()
        assert minimality_certificate(skew).proven_r == 4
        assert lapack_calls.names() == [] and xi1_calls == []


def _margin_systems():
    """The paper example and seeded generic systems with n <= 32 (r = n)."""
    systems = [("paper", example_system())]
    for n, n_u in ((4, 2), (8, 2), (8, 4), (20, 4), (32, 8)):
        for i in range(2):
            systems.append((f"{n}-{n_u}-{i}", _random_system([n, n_u, i], n, n_u)))
    return systems


MARGIN_SYSTEMS = _margin_systems()


def _witness(sys, keep):
    """dA = -Theta T / 2, T the tail of S_tilde past its leading ``keep`` singular values.

    -A^T Theta - Theta A moves by -T, so A + dA has the skew invariant
    S_tilde - T, of rank ``keep``.
    """
    u, s, vt = np.linalg.svd(compute_s_tilde(sys).S_tilde)
    tail = (u[:, keep:] * s[keep:]) @ vt[keep:]
    return -0.5 * apply_theta(tail, "left")


def _shifted(sys, delta_a):
    return LtiSystem(sys.A + delta_a, sys.B, sys.C)


class TestMinimalityMargin:
    def test_paper_certificate_matches_the_reference_ranking(self, paper_system):
        cert = minimality_certificate(compute_s_tilde(paper_system))
        assert _sampler_fields(cert) == reference_certificate(compute_s_tilde(paper_system))
        assert cert.lower_bound_held and cert.embedding_agreed

    @pytest.mark.parametrize("name, sys", MARGIN_SYSTEMS, ids=[m[0] for m in MARGIN_SYSTEMS])
    def test_fields_match_the_svd_of_s_tilde(self, name, sys):
        skew = compute_s_tilde(sys)
        cert = minimality_certificate(skew)
        s = np.linalg.svd(skew.S_tilde, compute_uv=False)
        r, top = skew.rank_r, s[0]
        assert r == sys.n
        assert cert.term_scale == skew.term_scale
        assert cert.cutoff == pytest.approx(1e-9 * max(top, skew.term_scale), rel=1e-12)
        assert abs(cert.sigma_r - s[r - 1]) <= 1e-13 * top
        assert cert.sigma_next is None and cert.decades_below_cutoff is None
        assert cert.decades_above_cutoff == pytest.approx(np.log10(cert.sigma_r / cert.cutoff), abs=1e-12)
        assert cert.stability_radius == pytest.approx(cert.sigma_r / np.sqrt(2), rel=1e-15)
        # the profile climbs from the radius to ||S_tilde|| / 2, the distance to r = 0
        assert [m for m, _ in cert.noise_profile] == list(range(skew.n_v - 2, sys.n_u - 1, -2))
        assert cert.noise_profile[0][1] == cert.stability_radius
        distances = [d for _, d in cert.noise_profile]
        assert distances == sorted(distances)
        assert distances[-1] == pytest.approx(np.linalg.norm(skew.S_tilde) / 2, rel=1e-12)

    @pytest.mark.parametrize("name, sys", MARGIN_SYSTEMS, ids=[m[0] for m in MARGIN_SYSTEMS])
    def test_noise_profile_is_attained_and_tight(self, name, sys):
        skew = compute_s_tilde(sys)
        cert, r = minimality_certificate(skew), skew.rank_r
        for j, (n_v, distance) in enumerate(cert.noise_profile, 1):
            delta_a = _witness(sys, r - 2 * j)
            # the witness attains the distance and drops the count by exactly 2j
            assert np.linalg.norm(delta_a) == pytest.approx(distance, rel=1e-12)
            shifted = compute_s_tilde(_shifted(sys, delta_a))
            assert (shifted.rank_r, shifted.n_v) == (r - 2 * j, n_v)
            # just short of it, the count holds
            assert compute_s_tilde(_shifted(sys, 0.999 * delta_a)).rank_r == r

    def test_partial_rank_gap_on_both_sides(self, paper_system):
        # rank_rel_tol 0.5 cuts the paper spectrum between its two pairs
        skew = compute_s_tilde(paper_system, TolerancePolicy(rank_rel_tol=0.5))
        cert = minimality_certificate(skew)
        s = np.linalg.svd(skew.S_tilde, compute_uv=False)
        assert skew.rank_r == 2 and cert.lower_bound_held and cert.embedding_agreed
        assert abs(cert.sigma_r - s[1]) <= 1e-13 * s[0]
        assert abs(cert.sigma_next - s[2]) <= 1e-13 * s[0]
        assert cert.decades_above_cutoff > 0 and cert.decades_below_cutoff > 0
        assert cert.noise_profile == ((skew.system.n_u, cert.stability_radius),)

    @pytest.mark.parametrize("kind", ["trivial", "zero", "realizable"])
    def test_no_extra_noise_has_an_empty_profile(self, trivial_system, kind):
        sys = {
            "trivial": trivial_system,
            "zero": LtiSystem(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))),
            "realizable": integer_realizable_system(np.random.default_rng(8), 8),
        }[kind]
        rz, report = synthesize_realization(sys)
        cert = minimality_certificate(rz.skew)
        assert (rz.skew.rank_r, cert.noise_profile) == (0, ())
        assert cert.sigma_r is None and cert.stability_radius is None
        assert cert.decades_above_cutoff is None
        assert cert.lower_bound_held and cert.embedding_agreed
        if kind == "realizable":
            # roundoff below the cutoff: a finite gap
            assert cert.decades_below_cutoff > 0
        else:
            # S_tilde is exactly 0, and so is sigma_next: no gap to measure
            assert cert.sigma_next == 0.0 and cert.decades_below_cutoff is None
        # absent values are null, and the report holds no non-finite float
        text = serialize_report(report_document(rz, report, cert))
        doc = json.loads(text, parse_constant=lambda name: pytest.fail(f"report holds {name}"))
        assert doc["certificate"]["stability_radius"] is None
        assert doc["certificate"]["noise_profile"] == []

    def test_spectrum_disagreeing_with_r_fails_the_bound(self, paper_system):
        # a record whose r the spectrum does not back: the proof still gives
        # at least r, but exactly r values above the cutoff is required too
        # (the record's own SVD would refuse that r, so the fake keeps its eigenpairs)
        skew = compute_s_tilde(paper_system)
        faked = with_eigenpairs(dataclasses.replace(skew, rank_r=2), skew.U, skew.eigenvalues)
        cert = minimality_certificate(faked)
        assert cert.proven_r >= 2 and cert.embedding_agreed
        assert cert.lower_bound_held is False


SOUNDNESS_TOLERANCES = (1e-9, 1e-3, 0.5, 1e-14)
SOUNDNESS_SYSTEMS = (
    MARGIN_SYSTEMS
    + [("loose-8-2-1", _random_system([8, 2, 1], 8, 2))]
    + [
        (f"projected-{n}-{seed}-{delta:.0e}", projected_system(n, seed, delta))
        for n in (8, 16, 32)
        for seed in (0, 3)
        for delta in (1e-8, 1e-12)
    ]
)

PROVEN_SYSTEMS = MARGIN_SYSTEMS + [
    (f"{n}-{n_u}-0", _random_system([n, n_u, 0], n, n_u)) for n, n_u in ((64, 8), (192, 16))
]


def _assert_sound(skew):
    """proven_r is at most the SVD count of the record's own S_tilde above the certificate's cutoff."""
    cert = minimality_certificate(skew)
    s = np.linalg.svd(skew.S_tilde, compute_uv=False)
    assert cert.proven_r <= np.count_nonzero(s > cert.cutoff)
    return cert


class TestProvenRank:
    @pytest.mark.parametrize("tol", SOUNDNESS_TOLERANCES)
    @pytest.mark.parametrize("name, sys", SOUNDNESS_SYSTEMS, ids=[m[0] for m in SOUNDNESS_SYSTEMS])
    def test_never_exceeds_the_svd_count(self, name, sys, tol):
        _assert_sound(compute_s_tilde(sys, TolerancePolicy(rank_rel_tol=tol)))

    @given(
        seed=seeds,
        half_n=st.integers(1, 8),
        half_u=st.integers(1, 2),
        tol=st.sampled_from(SOUNDNESS_TOLERANCES),
        delta=st.sampled_from([None, 1e-8, 1e-12]),
    )
    @settings(max_examples=100, deadline=None)
    def test_search_finds_no_count_above_the_svd_count(self, seed, half_n, half_u, tol, delta):
        n = 2 * half_n
        if delta is None:
            sys = _random_system(seed, n, 2 * half_u)
        else:
            sys = projected_system(n, seed, delta)
        try:
            skew = compute_s_tilde(sys, TolerancePolicy(rank_rel_tol=tol))
        except NumericalError:  # an odd rank: the cutoff splits a singular pair
            assume(False)
        _assert_sound(skew)

    @pytest.mark.parametrize("name, sys", PROVEN_SYSTEMS, ids=[m[0] for m in PROVEN_SYSTEMS])
    def test_proves_r_at_the_default_tolerance(self, name, sys):
        skew = compute_s_tilde(sys)
        cert = _assert_sound(skew)
        assert cert.proven_r == skew.rank_r == sys.n
        assert 0 < cert.eta < cert.cutoff / 4
