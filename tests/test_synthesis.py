"""Tests for the constructive synthesis and the rank certificate."""

import dataclasses

import numpy as np
import pytest
from dense_reference import (
    build_p,
    build_theta,
    dense_gamma,
    dense_rebuild_residuals,
    dense_theta,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    ContractError,
    DimensionError,
    LtiSystem,
    NumericalError,
    TolerancePolicy,
    ValidationError,
    compute_s_tilde,
    minimal_noise_count,
    minimality_certificate,
    oscillator,
    synthesize_realization,
)
from qrealize.linalg import (
    complex_rank_via_real_embedding,
    numerical_rank,
)
from qrealize.synthesis import (
    MinimalityCertificate,
    _certificate_batch,
    build_b1,
    build_lambda_b0,
    build_lambda_b1,
    build_lambda_b2,
    build_r,
    build_xi1,
    build_xi2,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _random_system(seed, n=None, n_u=None):
    rng = np.random.default_rng(seed)
    n = n or 2 * int(rng.integers(1, 5))
    n_u = n_u or 2 * int(rng.integers(1, 3))
    return LtiSystem.from_matrices(
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


class TestCouplingBlocks:
    def test_lambda_b0_zero_output(self, trivial_system):
        assert not build_lambda_b0(trivial_system).any()

    def test_lambda_b0_small(self, small_system):
        assert np.allclose(
            build_lambda_b0(small_system), np.array([[0.5, 0.5j]]), atol=1e-15
        )

    def test_lambda_b0_rebuilds_c(self, paper_system):
        # the output reconstruction identity only sees the leading rows
        lb0 = build_lambda_b0(paper_system)
        p = build_p(paper_system.n_y)
        rebuilt = p.T @ np.vstack([2.0 * lb0.real, 2.0 * lb0.imag])
        assert np.linalg.norm(rebuilt - paper_system.C) <= 1e-10

    def test_lambda_b2_zero_input(self, trivial_system):
        assert not build_lambda_b2(trivial_system).any()

    def test_lambda_b2_small(self, small_system):
        assert np.allclose(
            build_lambda_b2(small_system), np.array([[-0.5, -0.5j]]), atol=1e-15
        )

    def test_lambda_b2_gram_identity(self, paper_system):
        sys = paper_system
        lb2 = build_lambda_b2(sys)
        theta = build_theta(sys.n)
        theta_u = build_theta(sys.n_u)
        target = -0.25 * theta @ sys.B @ theta_u @ sys.B.T @ theta
        assert np.linalg.norm((lb2.conj().T @ lb2).imag - target) <= 1e-10

    def test_lambda_b0_gram_identity(self, paper_system):
        sys = paper_system
        lb0 = build_lambda_b0(sys)
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
        skew = compute_s_tilde(paper_system)
        xi1 = build_xi1(skew)
        assert np.array_equal(xi1, xi1.T)
        assert np.linalg.eigvalsh(xi1).min() >= -1e-12
        s_sq = (skew.S @ skew.S).real
        assert np.linalg.norm(xi1 @ xi1 - s_sq) <= 1e-9 * np.linalg.norm(s_sq)

    def test_xi1_rejects_eigenpairs_of_another_matrix(self, paper_system):
        # a random unitary in place of U makes U^dag |D| U complex
        skew = compute_s_tilde(paper_system)
        rng = np.random.default_rng(7)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        unitary = np.linalg.qr(g)[0]
        with pytest.raises(NumericalError, match="Xi1 came out complex"):
            build_xi1(dataclasses.replace(skew, U=unitary))

    def test_xi2_rank_is_half_r(self, fixture_systems):
        expected = {"paper": 2, "trivial": 0, "small": 1}
        for name, sys in fixture_systems.items():
            skew = compute_s_tilde(sys)
            xi2 = build_xi2(skew, build_xi1(skew))
            assert numerical_rank(xi2) == expected[name]

    def test_xi2_small_spectrum(self, small_system):
        skew = compute_s_tilde(small_system)
        xi2 = build_xi2(skew, build_xi1(skew))
        assert np.allclose(np.linalg.eigvalsh(xi2), [0.0, 1.0], atol=1e-12)

    def test_xi2_rejects_wrong_minimizer(self, small_system):
        # a generic PSD choice inflates the rank past r/2
        skew = compute_s_tilde(small_system)
        with pytest.raises(NumericalError, match="numerical rank"):
            build_xi2(skew, np.diag([5.0, 3.0]))

    def test_xi2_rejects_indefinite_result(self, small_system):
        skew = compute_s_tilde(small_system)
        with pytest.raises(NumericalError, match="PSD"):
            build_xi2(skew, -0.5 * np.eye(2))

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
        rz, _ = synthesize_realization(sys)
        r_mat, lam = oscillator(sys, rz.B1)
        assert np.array_equal(r_mat, rz.R) and np.array_equal(lam, rz.Lambda)
        assert not _has_negative_zero(r_mat, lam, rz.R, rz.Lambda)

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


def _assert_same_rebuild_entries(report, reference):
    for ref in reference:
        got = report.entry(ref.name)
        assert got.passed == ref.passed
        assert got.scale == pytest.approx(ref.scale, rel=1e-12, abs=0.0)
        if not ref.passed:
            assert got.relative == pytest.approx(ref.relative, rel=1e-6)


class TestSynthesizeRealization:
    def test_fixtures_pass(self, fixture_systems):
        expected_nv = {"paper": 6, "trivial": 2, "small": 4}
        for name, sys in fixture_systems.items():
            rz, report = synthesize_realization(sys)
            assert rz.n_v == expected_nv[name]
            assert rz.B1.shape == (sys.n, expected_nv[name])
            assert np.array_equal(rz.D1, np.eye(sys.n_y, rz.n_v))
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
        assert rz.skew is skew and rz.n_v == skew.n_v == 6
        again, _ = synthesize_realization(paper_system)
        assert again.skew.system is paper_system
        assert np.array_equal(again.Lambda, rz.Lambda) and np.array_equal(again.B1, rz.B1)

    def test_one_hermitian_eigendecomposition(self, paper_system, monkeypatch):
        # Xi2 is factored from the record's eigenpairs, so the only eigh is
        # the one compute_s_tilde makes for the record
        skew = compute_s_tilde(paper_system)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        synthesize_realization(skew)
        assert len(calls) == 0
        synthesize_realization(paper_system)
        assert len(calls) == 1

    def test_xi2_ranks_take_the_hermitian_route(self, paper_system, corpus, monkeypatch):
        # three rank checks of Xi2 through |eigvalsh|, one full SVD of S_tilde
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append((np.array(a), kwargs.get("hermitian", False)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        for sys in [paper_system] + corpus[:10]:
            calls.clear()
            rz, _ = synthesize_realization(sys)
            hermitian = [a for a, flag in calls if flag]
            full = [a for a, flag in calls if not flag]
            xi2 = build_xi2(rz.skew, build_xi1(rz.skew))
            assert len(hermitian) == 3
            assert all(np.array_equal(a, xi2) for a in hermitian)
            assert len(full) == 1 and np.array_equal(full[0], rz.skew.S_tilde)

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

        skew = compute_s_tilde(LtiSystem.from_matrices(twice(a), twice(b), twice(c)))
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
            r, n_v = minimal_noise_count(sys)
            assert rz.B1.shape[1] == n_v == sys.n_u + r

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
            LtiSystem.from_matrices(
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

        def perturbed_b1(sys, lb1):
            b1 = exact_b1(sys, lb1)
            return b1 + 1e-6 * rng.standard_normal(b1.shape)

        monkeypatch.setattr(synthesis, "build_b1", perturbed_b1)
        for sys in systems:
            rz, report = synthesize_realization(sys)
            assert not report.all_passed
            assert not report.entry("input_rebuild").passed
            _assert_same_rebuild_entries(report, dense_rebuild_residuals(rz))

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
            lambda sys, lb1, policy=None: np.zeros((sys.n, sys.n_u + 2 * lb1.shape[0])),
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
        small = LtiSystem.from_matrices(
            np.block([[p.A, np.zeros_like(p.A)], [np.zeros_like(p.A), eps * p.A]]),
            np.block([[p.B, np.zeros_like(p.B)], [np.zeros_like(p.B), eps**0.5 * p.B]]),
            np.block([[p.C, np.zeros_like(p.C)], [np.zeros_like(p.C), eps**0.5 * p.C]]),
        )
        rz, report = synthesize_realization(small)
        assert rz.skew.rank_r == compute_s_tilde(paper_system).rank_r
        assert report.all_passed
        assert report.entry("commutation").relative > 1e-12

    @pytest.mark.parametrize("tol", [1e-20, 1e-17])
    def test_tiny_residual_tol_is_reported_not_raised(self, tol, paper_system):
        # residual_tol judges the six residuals only, so no construction
        # check aborts a synthesis however tight it is
        systems = [paper_system] + [_random_system(seed) for seed in range(6)]
        systems += [_random_system(seed, n=32, n_u=8) for seed in range(2)]
        for sys in systems:
            _, report = synthesize_realization(sys, TolerancePolicy(residual_tol=tol))
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
        assert rz.B1.shape == (sys.n, rz.n_v)


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


def _reference_candidates(skew, trials, seed):
    """The constructive minimizer, the zero matrix, then the seeded draws."""
    n = skew.system.n
    candidates = [build_xi1(skew), np.zeros((n, n))]
    base = float(np.linalg.norm(skew.S_tilde)) or 1.0
    rng = np.random.default_rng(seed)
    for t in range(trials):
        # candidate t is the t-th n x n block of one seeded stream
        g = rng.standard_normal((n, n))
        candidates.append((1e-2, 1.0, 1e2)[t % 3] * base * 0.5 * (g + g.T))
    return candidates


def _reference_certificate(sys, trials, seed):
    """The certificate ranked one candidate at a time, by SVD on both routes."""
    skew = compute_s_tilde(sys)
    imag_part = 0.25 * skew.S_tilde
    candidates = _reference_candidates(skew, trials, seed)
    direct = [numerical_rank(xi + 1j * imag_part) for xi in candidates]
    embedded = [complex_rank_via_real_embedding(xi, imag_part) for xi in candidates]
    return MinimalityCertificate(
        r=skew.rank_r,
        trials=len(candidates),
        min_observed_rank=min(direct),
        lower_bound_held=min(direct) >= skew.rank_r // 2,
        embedding_agreed=direct == embedded,
    )


def _system_n32():
    rng = np.random.default_rng(32)
    return LtiSystem.from_matrices(
        rng.standard_normal((32, 32)),
        rng.standard_normal((32, 8)),
        rng.standard_normal((8, 32)),
    )


class TestMinimalityCertificate:
    def test_rejects_bad_trials(self, small_system):
        with pytest.raises(ContractError):
            minimality_certificate(compute_s_tilde(small_system), trials=0)

    def test_rejects_negative_seed(self, small_system):
        with pytest.raises(ContractError, match="seed"):
            minimality_certificate(compute_s_tilde(small_system), seed=-1)

    @pytest.mark.parametrize("name", ["trivial", "small", "paper", "n32"])
    def test_matches_per_candidate_svd_loop(self, fixture_systems, name):
        sys = _system_n32() if name == "n32" else fixture_systems[name]
        skew = compute_s_tilde(sys)
        batch = _certificate_batch(sys.n)
        # trials + 2 candidates are ranked: batch - 2 fills one batch
        # exactly, the next three spill 1-3 candidates into a second
        for trials in sorted({1, batch - 2, batch - 1, batch, batch + 1, 200} - {0}):
            cert = minimality_certificate(skew, trials=trials, seed=trials)
            assert cert == _reference_certificate(sys, trials, seed=trials)
        if name == "trivial":
            assert cert.min_observed_rank == 0

    @pytest.mark.parametrize("name", ["paper", "n32"])
    def test_batch_size_changes_nothing(self, fixture_systems, name, monkeypatch):
        import qrealize.synthesis as synthesis

        sys = _system_n32() if name == "n32" else fixture_systems[name]
        skew = compute_s_tilde(sys)
        trials = 40
        # the direct-route stacks handed to numerical_rank, in order
        stacks = []

        def recording_rank(stack, policy, hermitian=False):
            if not np.isrealobj(stack):
                stacks.append(np.array(stack))
            return numerical_rank(stack, policy, hermitian)

        monkeypatch.setattr(synthesis, "numerical_rank", recording_rank)
        runs = []
        for batch_bytes in (1, 8 * (2 * sys.n) ** 2 * (trials + 2), 1 << 40):
            monkeypatch.setattr(synthesis, "_CERTIFICATE_BATCH_BYTES", batch_bytes)
            stacks.clear()
            cert = minimality_certificate(skew, trials=trials, seed=11)
            runs.append((cert, np.concatenate(stacks), len(stacks)))
        (one, one_stack, one_calls), (whole, whole_stack, whole_calls), (big, big_stack, _) = runs
        # B = 1, then B = trials + 2 exactly, then a budget far above it
        assert (one_calls, whole_calls) == (trials + 2, 1)
        assert one_stack.shape == (trials + 2, sys.n, sys.n)
        assert one == whole == big == _reference_certificate(sys, trials, seed=11)
        assert np.array_equal(one_stack, whole_stack) and np.array_equal(one_stack, big_stack)
        assert np.array_equal(one_stack.real, _reference_candidates(skew, trials, seed=11))
        assert np.array_equal(one_stack.imag, np.broadcast_to(0.25 * skew.S_tilde, one_stack.shape))

    def test_trivial_bound(self, trivial_system):
        cert = minimality_certificate(compute_s_tilde(trivial_system), trials=10, seed=0)
        assert cert.r == 0
        assert cert.lower_bound_held
        assert cert.embedding_agreed

    def test_small_and_paper_bounds(self, small_system, paper_system):
        for sys, bound in ((small_system, 1), (paper_system, 2)):
            cert = minimality_certificate(compute_s_tilde(sys), trials=200, seed=0)
            assert cert.min_observed_rank >= bound
            assert cert.lower_bound_held
            assert cert.embedding_agreed
            # requested draws plus the constructive and zero candidates
            assert cert.trials == 202

    def test_deterministic(self, paper_system):
        skew = compute_s_tilde(paper_system)
        a = minimality_certificate(skew, trials=50, seed=7)
        b = minimality_certificate(skew, trials=50, seed=7)
        assert a == b
