"""Tests for the structural constants and numerical kernels."""

from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from conftest import oscillator_built_system, realizable_projection
from dense_reference import (
    J_BLOCK,
    M_BLOCK,
    build_gamma,
    build_p,
    build_sigma,
    build_theta,
    dense_gamma,
    dense_pair_norms,
    dense_theta,
    eigh_skew_eigenpairs,
    loop_skew_eigenpairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from qrealize import (
    ContractError,
    DimensionError,
    LtiSystem,
    NumericalError,
    compute_s_tilde,
    oscillator,
)
from qrealize.linalg import (
    _ritz_blocks,
    DEFAULT_POLICY,
    ROUNDOFF_TOL,
    TolerancePolicy,
    apply_theta,
    complex_rank_via_real_embedding,
    frobenius_norm,
    hermitian_eig,
    numerical_rank,
    psd_low_rank_factor,
    skew_eigenpairs,
    skew_spectrum,
    wedge_norms,
)
from qrealize.synthesis import _coupled_outputs, _coupling_rows, _field_inputs, build_r

even_sizes = st.sampled_from([2, 4, 6, 8, 10])
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestTolerancePolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.rank_rel_tol == 1e-9
        assert DEFAULT_POLICY.residual_tol == 1e-8
        assert [field.name for field in fields(TolerancePolicy)] == ["rank_rel_tol", "residual_tol"]
        # the fixed roundoff bound keeps the old symmetry_tol default
        assert ROUNDOFF_TOL == 1e-12

    @pytest.mark.parametrize("field", ["rank_rel_tol", "residual_tol"])
    def test_rejects_nonpositive(self, field):
        # every tolerance is relative: it must be a real number strictly inside (0, 1);
        # an integer too long for str() (4300 digits) is named by its size in bits
        # a Fraction inside (0, 1) whose float rounds to 0 or 1 is refused too
        huge, tiny = 10**5000, Fraction(1, 10**400)
        for value in (
            0.0, -1e-9, np.inf, np.nan, 1.0, 2.0, huge, -huge, tiny, 1 - tiny,
            "0.1", None, 0.1 + 0j, np.array([0.1, 0.2]),
        ):
            with pytest.raises(ValueError, match=field):
                TolerancePolicy(**{field: value})
        assert getattr(TolerancePolicy(**{field: np.float32(0.5)}), field) == 0.5

    @pytest.mark.parametrize(
        "value",
        [np.float16(1e-3), np.float32(1e-3), np.float64(1e-3), Fraction(1, 1000)],
        ids=["float16", "float32", "float64", "Fraction"],
    )
    def test_fields_are_python_floats(self, value):
        # a NumPy scalar kept as given would carry its precision into every cutoff
        policy = TolerancePolicy(rank_rel_tol=value, residual_tol=value)
        for field in fields(TolerancePolicy):
            got = getattr(policy, field.name)
            assert type(got) is float and got == float(value)

    def test_symmetry_tol_is_not_a_field(self):
        # roundoff checks use ROUNDOFF_TOL; there is no knob to loosen them
        with pytest.raises(TypeError, match="symmetry_tol"):
            TolerancePolicy(symmetry_tol=1e-8)


class TestBuilders:
    def test_theta_blocks(self):
        theta = build_theta(6)
        assert theta.shape == (6, 6)
        for k in range(0, 6, 2):
            assert np.array_equal(theta[k : k + 2, k : k + 2], J_BLOCK)
        assert np.array_equal(theta[0:2, 2:4], np.zeros((2, 2)))

    @given(even_sizes)
    def test_theta_is_symplectic_form(self, size):
        theta = build_theta(size)
        assert np.array_equal(theta.T, -theta)
        assert np.array_equal(theta @ theta, -np.eye(size))

    @pytest.mark.parametrize("bad", [0, 1, 3, -2])
    def test_theta_rejects_bad_sizes(self, bad):
        with pytest.raises(DimensionError):
            build_theta(bad)

    def test_p_interleaves(self):
        p = build_p(6)
        x = np.arange(1.0, 7.0)
        assert np.array_equal(p @ x, [1.0, 3.0, 5.0, 2.0, 4.0, 6.0])

    @given(even_sizes)
    def test_p_is_a_permutation(self, size):
        p = build_p(size)
        assert np.array_equal(p @ p.T, np.eye(size))
        assert np.array_equal(p.sum(axis=0), np.ones(size))
        assert np.array_equal(p.sum(axis=1), np.ones(size))

    def test_p_rejects_odd(self):
        with pytest.raises(DimensionError):
            build_p(5)

    @given(even_sizes)
    def test_p_conjugates_split_form_to_paired_form(self, size):
        # P^T [[0, I], [-I, 0]] P equals the block-diagonal J form exactly
        half = size // 2
        k = np.block(
            [
                [np.zeros((half, half)), np.eye(half)],
                [-np.eye(half), np.zeros((half, half))],
            ]
        )
        p = build_p(size)
        assert np.array_equal(p.T @ k @ p, build_theta(size))

    def test_gamma_small(self):
        assert np.array_equal(build_gamma(2), M_BLOCK)

    @given(even_sizes)
    def test_gamma_is_scaled_coisometry(self, size):
        g = build_gamma(size)
        assert np.allclose(g @ g.conj().T, 0.5 * np.eye(size), atol=1e-15)

    def test_gamma_empty(self):
        assert build_gamma(0).shape == (0, 0)

    @pytest.mark.parametrize("size", range(0, 66, 2))
    def test_gamma_and_theta_match_their_definitions(self, size):
        assert np.array_equal(build_gamma(size), dense_gamma(size))
        assert build_gamma(size).dtype == complex
        if size:
            assert np.array_equal(build_theta(size), dense_theta(size))

    def test_sigma_selects_leading_pairs(self):
        s = build_sigma(4, 5)
        assert s.shape == (2, 5)
        assert np.array_equal(s, np.eye(2, 5))
        with pytest.raises(DimensionError):
            build_sigma(4, 1)
        with pytest.raises(DimensionError):
            build_sigma(3, 5)


def _signed_zeros(rng, shape):
    """Seeded normals with about a third of the entries +0.0 and a third -0.0."""
    m = rng.standard_normal(shape)
    u = rng.random(shape)
    m[u < 1 / 3] = 0.0
    m[(u >= 1 / 3) & (u < 2 / 3)] = -0.0
    return m


def _assert_index_form(got, want):
    """Equal to the dense product, C-contiguous, and no zero part is -0.0."""
    assert np.array_equal(got, want)
    assert got.flags.c_contiguous
    for part in (got.real, got.imag) if np.iscomplexobj(got) else (got,):
        assert not np.signbit(part[part == 0.0]).any()


class TestIndexOperators:
    """Theta, P, Gamma and Sigma applied by index, against the dense products."""

    @pytest.mark.parametrize("size", range(2, 66, 2))
    def test_apply_theta_matches_dense_product(self, size):
        rng = np.random.default_rng(size)
        theta = dense_theta(size)
        for width in (1, 3, size):
            tall = _signed_zeros(rng, (size, width))
            wide = _signed_zeros(rng, (width, size))
            _assert_index_form(apply_theta(tall, "left"), theta @ tall)
            _assert_index_form(apply_theta(wide, "right"), wide @ theta)
            # transposed views are Fortran-ordered; the result is still C-ordered
            _assert_index_form(apply_theta(wide.T, "left"), theta @ wide.T)
            _assert_index_form(apply_theta(tall.T, "right"), tall.T @ theta)

    @pytest.mark.parametrize("size", range(2, 66, 2))
    def test_p_gamma_sigma_slicings_match_dense_products(self, size):
        rng = np.random.default_rng(1000 + size)
        n, half = 6, size // 2
        sys = LtiSystem(
            *(_signed_zeros(rng, shape) for shape in ((n, n), (n, size), (size, n)))
        )
        p = build_p(size)
        ladder = np.vstack([np.eye(half), 1j * np.eye(half)])
        # Sigma keeps the n_y/2 leading rows of Lambda, however many follow
        lam = _signed_zeros(rng, (half + 3, n)) + 1j * _signed_zeros(rng, (half + 3, n))
        sigma = build_sigma(size, half + 3)
        zero = np.zeros_like(sigma)
        stack = np.vstack([lam + lam.conj(), -1j * lam + 1j * lam.conj()])
        c_dense = p.T @ np.block([[sigma, zero], [zero, sigma]]) @ stack
        assert not c_dense.imag.any()
        # C rebuilt feeds only a residual norm, so zero signs pass through
        c_rebuilt = _coupled_outputs(lam, size)
        assert np.array_equal(c_rebuilt, c_dense.real)
        assert c_rebuilt.flags.c_contiguous
        rows = _signed_zeros(rng, (half, n)) + 1j * _signed_zeros(rng, (half, n))
        b_dense = 2j * dense_theta(n) @ np.hstack([-rows.conj().T, rows.T]) @ dense_gamma(size)
        assert not b_dense.imag.any()
        _assert_index_form(_field_inputs(rows), b_dense.real)
        # _coupling_rows is the exact inverse of _field_inputs, from either side
        _assert_index_form(_coupling_rows(_field_inputs(rows)), rows)
        cols = _signed_zeros(rng, (n, size))
        _assert_index_form(_field_inputs(_coupling_rows(cols)), cols)
        # oscillator's output and input blocks, around one extra-noise row
        _, blocks = oscillator(sys, _signed_zeros(rng, (n, size + 2)))
        _assert_index_form(blocks[:half], (0.5 * sys.C.T @ p.T @ ladder).T)
        _assert_index_form(
            blocks[half + 1 :],
            -1j * np.eye(half, size) @ build_gamma(size) @ sys.B.T @ dense_theta(n),
        )

    def test_round_trip_rounds_halved_subnormals(self):
        # the round trip is exact for normal entries only: halving a subnormal
        # rounds (to even), so 5e-324 comes back 0 and 1.5e-323 comes back 2e-323
        cols = np.array([[5e-324, 1.5e-323], [3e-323, 0.0]])
        _assert_index_form(_field_inputs(_coupling_rows(cols)), np.array([[0.0, 2e-323], [3e-323, 0.0]]))

    @pytest.mark.parametrize("size", range(2, 66, 2))
    def test_r_matches_dense_product(self, size):
        rng = np.random.default_rng(2000 + size)
        a = _signed_zeros(rng, (size, size))
        sys = LtiSystem(a, np.zeros((size, 2)), np.zeros((2, size)))
        theta = dense_theta(size)
        want = -0.25 * (theta @ a + a.T @ theta.T)
        assert np.array_equal(build_r(sys), want)
        assert build_r(sys).flags.c_contiguous

    def test_apply_theta_rejects_bad_input(self):
        with pytest.raises(DimensionError):
            apply_theta(np.zeros((3, 2)), "left")
        with pytest.raises(DimensionError):
            apply_theta(np.zeros((2, 3)), "right")
        with pytest.raises(DimensionError):
            apply_theta(np.zeros(4), "left")
        with pytest.raises(ContractError):
            apply_theta(np.zeros((2, 2)), "top")


class TestHermitianEig:
    def test_zero_matrix_is_identity_basis(self):
        u, d = hermitian_eig(np.zeros((3, 3)))
        assert np.array_equal(u, np.eye(3))
        assert np.array_equal(d, np.zeros(3))

    def test_empty_matrix(self):
        u, d = hermitian_eig(np.zeros((0, 0)))
        assert u.shape == (0, 0)
        assert d.shape == (0,)

    @pytest.mark.parametrize("h", [[[-3.0]], [[0.0]], [[2.5 + 0j]]], ids=["negative", "zero", "complex"])
    def test_one_by_one_vector_is_exactly_one(self, h):
        # eigh's unit vector of a 1 x 1 matrix is +-1; the phase rule makes it 1
        u, d = hermitian_eig(np.array(h))
        assert np.array_equal(u, np.eye(1))
        assert np.array_equal(d, np.real(h)[0])

    def test_magnitude_tie_picks_the_first_entry(self):
        # both entries of each eigenvector of [[0, 1], [1, 0]] tie in magnitude;
        # the first is made real and positive, so the -1 row reads (+, -)
        u, d = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(d, [1.0, -1.0])
        assert np.array_equal(np.abs(u[:, 0]), np.abs(u[:, 1]))
        assert np.all(u[:, 0] > 0)
        assert u[1, 1] < 0

    def test_reads_the_lower_triangle_only(self):
        # the caller promises a Hermitian matrix; the upper triangle is not read
        h = np.array([[2.0, 1.0], [1.0, 2.0]])
        upper_changed = h.copy()
        upper_changed[0, 1] = 7.0
        assert all(map(np.array_equal, hermitian_eig(upper_changed), hermitian_eig(h)))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            hermitian_eig(np.zeros((2, 3)))

    @given(seeds, even_sizes)
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_and_order(self, seed, size):
        rng = np.random.default_rng(seed)
        h = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h = h + h.conj().T
        u, d = hermitian_eig(h)
        assert np.all(np.diff(d) <= 0)
        rebuilt = u.conj().T @ np.diag(d) @ u
        assert np.linalg.norm(rebuilt - h) <= 1e-12 * np.linalg.norm(h)
        assert np.allclose(u @ u.conj().T, np.eye(size), atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        h = rng.standard_normal((5, 5))
        h = h + h.T
        u1, d1 = hermitian_eig(h)
        u2, d2 = hermitian_eig(h.copy())
        assert np.array_equal(u1, u2)
        assert np.array_equal(d1, d2)

    def test_phase_convention(self):
        # each row's largest-magnitude entry comes out real and positive
        rng = np.random.default_rng(3)
        h = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        h = h + h.conj().T
        u, _ = hermitian_eig(h)
        for row in u:
            lead = row[np.argmax(np.abs(row))]
            assert abs(lead.imag) <= 1e-14 * abs(lead)
            assert lead.real > 0


class TestSkewEigenpairs:
    """Eigenpairs of S = (i/4) K read off one SVD of a real skew K."""

    @staticmethod
    def _skew(rng, pair_values):
        """Q blockdiag(a_1 J, a_2 J, ...) Q^T for a seeded orthogonal Q: singular values a_j, twice each."""
        n = 2 * len(pair_values)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        core = np.kron(np.diag(pair_values), np.array([[0.0, 1.0], [-1.0, 0.0]]))
        k = q @ core @ q.T
        return 0.5 * (k - k.T)

    @staticmethod
    def _assert_eigenpairs(k, u, d, factor=8.0):
        # orthonormal rows and S U^dag = U^dag D, each within factor * n u (times
        # max(sigma_1, 1) for the residual), u = 2^-53 the unit roundoff
        n = k.shape[0]
        s = (0.25j * k) @ u.conj().T - u.conj().T * d
        bound = factor * n * 2.0**-53
        assert np.linalg.norm(u @ u.conj().T - np.eye(n)) <= bound
        assert np.linalg.norm(s) <= bound * max(float(np.linalg.norm(k, 2)), 1.0)

    def test_spectrum_order(self):
        # one eigenvalue of each sign per pair, descending
        s = np.array([5.0, 5.0, 3.0, 3.0, 1e-17, 0.0])
        assert np.array_equal(skew_spectrum(s), [1.25, 0.75, 2.5e-18, -0.0, -0.75, -1.25])
        assert skew_spectrum(np.zeros(0)).shape == (0,)

    def test_empty(self):
        _, svd = numerical_rank(np.zeros((0, 0)), compute_uv=True)
        u, d = skew_eigenpairs(*svd)
        assert u.shape == (0, 0) and d.shape == (0,)

    @pytest.mark.parametrize("a", [1.0, 2.5, 0.0])
    def test_two_by_two(self, a):
        # S = (i/4) a J has eigenvalues +-a/4 with the vectors (1, -+i)/sqrt(2)
        k = a * np.array([[0.0, 1.0], [-1.0, 0.0]])
        u, d = skew_eigenpairs(*np.linalg.svd(k))
        assert np.array_equal(d, [a / 4, -a / 4])
        self._assert_eigenpairs(k, u, d)
        if a:
            assert np.allclose(np.abs(u), np.sqrt(0.5), rtol=0, atol=1e-15)

    def test_odd_or_misshapen_input_raises(self):
        with pytest.raises(DimensionError):
            skew_eigenpairs(*np.linalg.svd(np.zeros((3, 3))))
        u, s, vt = np.linalg.svd(np.zeros((4, 4)))
        with pytest.raises(DimensionError):
            skew_eigenpairs(u[:, :2], s, vt)

    def test_a_cluster_is_one_block(self, monkeypatch):
        # three equal pairs couple into one 6 x 6 block, the one eigh call; the
        # two lone pairs are 2 x 2 blocks, in closed form
        k = self._skew(np.random.default_rng(5), [3.0, 2.0, 2.0, 2.0, 0.5])
        shapes = []
        eigh = np.linalg.eigh

        def recording_eigh(h, *args, **kwargs):
            shapes.append(h.shape)
            return eigh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        u, d = skew_eigenpairs(*np.linalg.svd(k))
        assert shapes == [(1, 6, 6)]
        assert np.allclose(d, [0.75, 0.5, 0.5, 0.5, 0.125, -0.125, -0.5, -0.5, -0.5, -0.75], atol=1e-14)
        self._assert_eigenpairs(k, u, d)

    @pytest.mark.parametrize("eps", [1e-14, 1e-10, 1e-6, 1e-2])
    def test_near_clusters(self, eps):
        k = self._skew(np.random.default_rng(7), [1.0, 1.0 + eps, 1.0 - eps, 0.3])
        u, d = skew_eigenpairs(*np.linalg.svd(k))
        assert np.all(np.diff(d) <= 0)
        self._assert_eigenpairs(k, u, d)

    def test_roundoff_null_pairs(self):
        # a pair whose couplings fall under the cut (the 1e-15 one here) is still
        # one block, so S U^dag = U^dag D holds to roundoff there too
        k = self._skew(np.random.default_rng(9), [1.0, 1e-13, 1e-15, 0.0])
        u, d = skew_eigenpairs(*np.linalg.svd(k), floor=1.0)
        self._assert_eigenpairs(k, u, d)

    def test_phase_convention_and_determinism(self):
        k = self._skew(np.random.default_rng(3), [4.0, 2.0, 1.0])
        svd = np.linalg.svd(k)
        u, d = skew_eigenpairs(*svd)
        for row in u:
            lead = row[np.argmax(np.abs(row))]
            assert abs(lead.imag) <= 1e-14 * abs(lead) and lead.real > 0
        again = skew_eigenpairs(*(x.copy() for x in svd))
        assert np.array_equal(again[0], u) and np.array_equal(again[1], d)

    @pytest.mark.parametrize("family", ["paper and corpus", "projections", "clusters"])
    def test_rows_match_the_loop_nest_bit_for_bit(self, family, paper_system, corpus, monkeypatch):
        # the einsum sums each Ritz row in the loop nest's order, so U and d
        # keep every bit, signbits included; the clusters, oscillator-built
        # with orthonormal extra rows, put blocks larger than a pair through it
        systems = [paper_system] + corpus
        if family == "projections":
            systems = [realizable_projection(sys) for sys in systems]
        elif family == "clusters":
            systems = [
                oscillator_built_system(np.random.default_rng([n, k]), n, 2, k, "cluster")
                for n in (4, 8, 20, 32, 64)
                for k in sorted({2, n // 4, n // 2})
            ]
        sizes = set()
        eigh = np.linalg.eigh

        def recording_eigh(h, *args, **kwargs):
            sizes.add(h.shape[-1])
            return eigh(h, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for sys in systems:
            skew = compute_s_tilde(sys)
            u, d = loop_skew_eigenpairs(*np.linalg.svd(skew.S_tilde), skew.term_scale)
            assert skew.U.tobytes() == u.tobytes() and skew.eigenvalues.tobytes() == d.tobytes()
        assert family != "clusters" or max(sizes) > 2

    @given(seeds, even_sizes)
    @settings(max_examples=30, deadline=None)
    def test_random_skew_matrices(self, seed, size):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((size, size))
        k = k - k.T
        u, d = skew_eigenpairs(*np.linalg.svd(k))
        assert np.all(np.diff(d) <= 0)
        self._assert_eigenpairs(k, u, d)
        self._assert_matches_the_eigh_route(np.linalg.svd(k))

    @staticmethod
    def _assert_matches_the_eigh_route(svd, floor=0.0):
        # The closed-form rows of a lone pair are the batched eigh's to 4 ulps
        # of 1, 4 eps with eps = 2^-52 (measured at most 2.02 eps over the
        # paper system, the corpus, their projections and 2000 random skew
        # matrices). A lone pair with mu = 0, an exactly zero block of M, has
        # Ritz value 0 twice, and any orthonormal basis of its span is right:
        # the eigh route keeps v_2j and v_2j+1, the closed form (v_2j +- i
        # v_2j+1)/sqrt(2). Every other block has as many positive Ritz values
        # as negative ones, so the z such pairs fill the middle 2z rows of
        # the sorted U, and there the rows must span the same space.
        u, d = skew_eigenpairs(*svd, floor)
        ref, ref_d = eigh_skew_eigenpairs(*svd, floor)
        assert d.tobytes() == ref_d.tobytes()
        m, starts, sizes = _ritz_blocks(*svd, floor)
        first = starts[sizes == 2]
        half, z = len(d) // 2, np.count_nonzero(m[first, first + 1] == m[first + 1, first])
        null = np.zeros(len(d), dtype=bool)
        null[half - z : half + z] = True
        eps = np.finfo(float).eps
        assert np.all(np.abs(u[~null] - ref[~null]) <= 4 * eps)
        overlap = np.linalg.svd(u[null] @ ref[null].conj().T, compute_uv=False)
        assert np.all(np.abs(overlap - 1.0) <= 4 * eps)
        return z

    @pytest.mark.parametrize("family", ["paper and corpus", "projections"])
    def test_pair_rows_match_the_eigh_route(self, family, paper_system, corpus):
        systems = [paper_system] + corpus
        if family == "projections":
            systems = [realizable_projection(sys) for sys in systems]
        nulls = 0
        for sys in systems:
            skew = compute_s_tilde(sys)
            nulls += self._assert_matches_the_eigh_route(np.linalg.svd(skew.S_tilde), skew.term_scale)
        # only the projections, the r = 0 paper projection among them, hold pairs with mu = 0
        assert bool(nulls) is (family == "projections")


class TestNumericalRank:
    def test_zero_and_empty(self):
        assert numerical_rank(np.zeros((3, 3)))[0] == 0
        assert numerical_rank(np.zeros((0, 4)))[0] == 0
        assert numerical_rank(np.zeros((3, 3)), hermitian=True)[0] == 0
        assert numerical_rank(np.zeros((0, 0)), hermitian=True)[0] == 0
        with pytest.raises(DimensionError):
            numerical_rank(np.zeros((0, 4, 4)), hermitian=True)

    def test_relative_cutoff(self):
        assert numerical_rank(np.diag([1.0, 1e-15]))[0] == 1
        assert numerical_rank(np.diag([1.0, 1e-6]))[0] == 2
        assert numerical_rank(np.diag([1e-20, 1e-31]))[0] == 1

    def test_policy_override(self):
        loose = TolerancePolicy(rank_rel_tol=1e-3)
        assert numerical_rank(np.diag([1.0, 1e-6]), loose)[0] == 1

    def test_floor_raises_the_cutoff(self):
        # the cutoff is rank_rel_tol times max(sigma_max, floor)
        roundoff = np.diag([1e-16, 1e-17])
        assert numerical_rank(roundoff)[0] == 2
        assert numerical_rank(roundoff, floor=1.0)[0] == 0
        assert numerical_rank(np.diag([1.0, 1e-6]), floor=1e4)[0] == 1
        # a floor below sigma_max changes nothing
        assert numerical_rank(np.diag([1.0, 2e-9]), floor=0.5)[0] == 2
        assert numerical_rank(roundoff, hermitian=True, floor=1.0)[0] == 0
        assert numerical_rank(np.eye(2), hermitian=True, floor=1.0)[0] == 2

    def test_returns_the_singular_values_it_counted(self):
        # descending, all min(m.shape) of them, on both routes; empty for an empty matrix
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        h = m @ m.T - 2.0 * np.eye(5)
        for x, hermitian in ((m, False), (m.T, False), (h, True), (h, False)):
            rank, s = numerical_rank(x, hermitian=hermitian)
            np.testing.assert_allclose(s, np.linalg.svd(x, compute_uv=False), rtol=1e-12)
            assert np.all(np.diff(s) <= 0.0)
            assert rank == np.count_nonzero(s > 1e-9 * s[0])
        for empty in (np.zeros((0, 4)), np.zeros((0, 0))):
            rank, s = numerical_rank(empty)
            assert rank == 0 and s.shape == (0,)

    def test_compute_uv_returns_the_one_svd(self):
        # compute_uv=True, as in np.linalg.svd: (rank, (u, s, vt)) from the same
        # factorization, counted by the same cutoff
        rng = np.random.default_rng(4)
        m = rng.standard_normal((6, 6))
        m[:, 5] = m[:, 4]
        rank, (u, s, vt) = numerical_rank(m, compute_uv=True)
        assert rank == numerical_rank(m)[0] == 5
        assert np.linalg.norm((u * s) @ vt - m) <= 1e-14 * np.linalg.norm(m)
        rank, (u, s, vt) = numerical_rank(np.zeros((0, 0)), compute_uv=True)
        assert rank == 0 and u.shape == vt.shape == (0, 0) and s.shape == (0,)

    def test_rectangular(self):
        m = np.vstack([np.eye(2), np.zeros((3, 2))])
        assert numerical_rank(m)[0] == 2

    def test_stack_matches_each_matrix(self):
        # one matrix in, one int rank out; a stack is refused rather than ranked
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((2, 3, 5, 2))
        stack[0, 1] = 0.0
        stack[1, 2, :, 1] = 3.0 * stack[1, 2, :, 0]
        assert type(numerical_rank(stack[0, 0])[0]) is int
        assert numerical_rank(stack[0, 1])[0] == 0 and numerical_rank(stack[1, 2])[0] == 1
        assert numerical_rank(stack[1, 0])[0] == 2
        for bad in (stack, stack[0], np.zeros((3, 0, 4)), np.ones(3), np.float64(1.0)):
            with pytest.raises(DimensionError):
                numerical_rank(bad)
            with pytest.raises(DimensionError):
                numerical_rank(bad, hermitian=True)

    @pytest.mark.parametrize("seed", range(16))
    def test_hermitian_route_matches_svd(self, seed):
        # graded spectra from 1 down to 1e-4 ... 1e-8 with cutoffs between
        # neighbouring values, and exact-rank PSD Gram matrices
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 65))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        graded = np.geomspace(1.0, 10.0 ** -int(rng.integers(4, 9)), n)
        h = (q * (graded * rng.choice([-1.0, 1.0], n))) @ q.conj().T
        h = 0.5 * (h + h.conj().T)
        k = int(rng.integers(0, n + 1))
        f = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        gram = f.conj().T @ f
        cuts = np.sqrt(graded[1:] * graded[:-1])[:: max(1, n // 6)]
        policies = [DEFAULT_POLICY] + [TolerancePolicy(rank_rel_tol=float(c)) for c in cuts]
        for m in (h, h.real, gram, gram.real):
            for policy in policies:
                assert numerical_rank(m, policy, hermitian=True)[0] == numerical_rank(m, policy)[0]
        for j, cut in enumerate(cuts):
            policy = TolerancePolicy(rank_rel_tol=float(cut))
            assert numerical_rank(h, policy, hermitian=True)[0] == 1 + j * max(1, n // 6)
        assert numerical_rank(gram, hermitian=True)[0] == k


class TestPsdLowRankFactor:
    @given(seeds, st.integers(min_value=0, max_value=4))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, seed, k):
        rng = np.random.default_rng(seed)
        n = 6
        g = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        # generic g has full row rank k
        xi = g.conj().T @ g
        k_eff = numerical_rank(xi)[0]
        factor = psd_low_rank_factor(xi, *hermitian_eig(xi), k_eff)
        assert factor.shape == (k_eff, n)
        assert np.linalg.norm(factor.conj().T @ factor - xi) <= 1e-10 * max(
            np.linalg.norm(xi), 1.0
        )

    def test_zero_matrix(self):
        factor = psd_low_rank_factor(np.zeros((4, 4)), *hermitian_eig(np.zeros((4, 4))), 0)
        assert factor.shape == (0, 4)

    def test_rank_mismatch_raises(self):
        with pytest.raises(NumericalError, match="numerical rank"):
            psd_low_rank_factor(np.eye(3), *hermitian_eig(np.eye(3)), 1)

    def test_eigenpairs_of_another_matrix_fail_the_round_trip(self):
        # same size, rank and PSD spectrum: only the round trip can tell
        rng = np.random.default_rng(5)
        g, h = rng.standard_normal((2, 2, 6)) + 1j * rng.standard_normal((2, 2, 6))
        xi, other = g.conj().T @ g, h.conj().T @ h
        with pytest.raises(NumericalError, match="round-trip"):
            psd_low_rank_factor(xi, *hermitian_eig(other), 2)

    def test_eigenvalues_below_the_rank_cutoff_pass_the_round_trip(self):
        # rank_rel_tol counts 1e-10 as zero; the factor misses xi by exactly
        # that, far above ROUNDOFF_TOL, and it is not a fault
        xi = np.diag([1.0, 1e-10, 0.0])
        factor = psd_low_rank_factor(xi, *hermitian_eig(xi), 1)
        assert factor.shape == (1, 3)
        assert np.linalg.norm(factor.conj().T @ factor - xi) == pytest.approx(1e-10)

    def test_not_psd_raises(self):
        # the clipped negative eigenvalue is missed by the round trip
        with pytest.raises(NumericalError, match=r"round-trip residual 1\.000e\+00 exceeds"):
            psd_low_rank_factor(np.diag([1.0, -1.0]), *hermitian_eig(np.diag([1.0, -1.0])), 2)

    def test_negative_eigenvalue_past_the_top_k_is_not_allowed_for(self):
        # rank 2 counts |-1|, so k = 2 keeps (1, 0) and drops -1; the miss of
        # 1.0 is the negative eigenvalue, not a dropped one the allowance excuses
        xi = np.diag([1.0, 0.0, -1.0])
        miss = r"round-trip residual 1\.000e\+00 exceeds .* \+ 0\.000e\+00"
        with pytest.raises(NumericalError, match=miss):
            psd_low_rank_factor(xi, *hermitian_eig(xi), 2)


class TestRealEmbeddingRank:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_direct_rank(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        g = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
        m = g.conj().T @ g
        direct = numerical_rank(m)[0]
        embedded = complex_rank_via_real_embedding(m.real, m.imag)
        assert embedded == direct
        assert numerical_rank(m, hermitian=True)[0] == direct
        embedding = np.block([[m.real, m.imag], [-m.imag, m.real]])
        assert numerical_rank(embedding, hermitian=True)[0] == 2 * direct
        # -m: negative eigenvalues count by magnitude; m + I: full rank
        for x in (m, -m, np.zeros_like(m), m + np.eye(n)):
            expected = numerical_rank(x)[0]
            assert numerical_rank(x, hermitian=True)[0] == expected
            assert complex_rank_via_real_embedding(x.real, x.imag) == expected

    def test_pure_imaginary(self):
        # i*J has rank 2 while the parts individually have ranks 0 and 2
        assert complex_rank_via_real_embedding(np.zeros((2, 2)), J_BLOCK) == 2

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            complex_rank_via_real_embedding(np.eye(2), np.eye(3))
        with pytest.raises(DimensionError):
            numerical_rank(np.zeros((2, 3)), hermitian=True)
        # one pair of matrices in, one int out: stacks and parts that only
        # broadcast together are refused
        stack = np.zeros((2, 3, 3))
        for are, aim in ((stack, stack), (np.eye(3), stack), (np.eye(2), np.zeros((1, 2)))):
            with pytest.raises(DimensionError):
                complex_rank_via_real_embedding(are, aim)
        assert type(complex_rank_via_real_embedding(np.eye(3), np.zeros((3, 3)))) is int


def _exact_pair_norm(x, y):
    """||x y^T - y x^T||_F from the dense definition, in exact rational arithmetic."""
    xs, ys = [Fraction(v) for v in x], [Fraction(v) for v in y]
    total = sum((a * d - b * c) ** 2 for a, b in zip(xs, ys) for c, d in zip(xs, ys))
    with localcontext() as ctx:
        ctx.prec = 40
        return float((Decimal(total.numerator) / Decimal(total.denominator)).sqrt())


class TestFrobeniusNorm:
    @pytest.mark.parametrize("scale", [1.0, 1e-130, 1e150, 1e200])
    def test_is_numpys_norm_outside_the_underflow_range(self, scale):
        # bit for bit, an overflow to inf included, in every memory layout the
        # library passes: transposed and strided views, the parts of a complex array
        rng = np.random.default_rng(3)
        c = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        f = rng.standard_normal((5, 7))
        for x in (f, f.T, f[:, ::2], c, c.T, c.real, c.imag, c[1::2], rng.standard_normal(4) + 1j * rng.standard_normal(4)):
            with np.errstate(over="ignore"):
                assert frobenius_norm(scale * x) == float(np.linalg.norm(scale * x))
        for x in (np.arange(12).reshape(3, 4), [[1, 2], [3, 4]], np.float64(-3.0), [True, False]):
            assert frobenius_norm(x) == float(np.linalg.norm(x))

    def test_zero_arrays_have_norm_zero(self):
        for zero in (np.zeros((3, 3)), np.zeros(0), np.zeros((2, 0), dtype=complex)):
            assert frobenius_norm(zero) == 0.0


class TestWedgeNorms:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_pairs_match_dense(self, seed):
        rng = np.random.default_rng(seed)
        bb = rng.standard_normal((int(rng.integers(2, 40)), 2 * int(rng.integers(1, 12))))
        bb *= 10.0 ** rng.uniform(-3, 3, size=bb.shape[1])
        closed = wedge_norms(bb[:, 0::2], bb[:, 1::2])
        dense = np.array(dense_pair_norms(bb))
        assert np.allclose(closed, dense, rtol=1e-12, atol=0.0)

    def test_nearly_parallel_pairs(self):
        # At an angle of 1e-9 no float64 evaluation, the dense one included,
        # is better than about 1e-8 relative: rounding x_i y_j costs about
        # 1e-16 of ||x|| ||y||, and the value is only 1e-9 of it. So both
        # forms are held to 1e-12 of sqrt(2) ||x|| ||y||, the size of what
        # cancels, and the closed form to 1e-6 relative against the exact
        # value, where sqrt(2 (||x||^2 ||y||^2 - (x.y)^2)) keeps no digit.
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(16)
            z = rng.standard_normal(16)
            z -= (z @ x) / (x @ x) * x
            z *= np.linalg.norm(x) / np.linalg.norm(z)
            y = 3.0 * (np.cos(1e-9) * x + np.sin(1e-9) * z)
            bb = np.stack([x, y], axis=1)
            closed = wedge_norms(bb[:, :1], bb[:, 1:])[0]
            (dense,) = dense_pair_norms(bb)
            exact = _exact_pair_norm(x, y)
            size = np.sqrt(2.0) * np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(closed - dense) <= 1e-12 * size
            assert abs(closed - exact) <= 1e-6 * exact
            lagrange = 2.0 * ((x @ x) * (y @ y) - (x @ y) ** 2)
            assert abs(np.sqrt(max(lagrange, 0.0)) - exact) > 1e-2 * exact

    def test_zero_and_equal_columns(self):
        # the closed form gives the exact 0; the dense product can leave
        # roundoff where x_i y_j - y_i x_j is evaluated with a fused multiply-add
        rng = np.random.default_rng(4)
        x = rng.standard_normal(9)
        zero = np.zeros(9)
        bb = np.stack([zero, x, x, zero, x, x, -x, x, zero, zero], axis=1)
        closed = wedge_norms(bb[:, 0::2], bb[:, 1::2])
        assert np.array_equal(closed, np.zeros(5))
        dense = np.array(dense_pair_norms(bb))
        assert np.all(np.abs(closed - dense) <= 1e-12 * np.sqrt(2.0) * (x @ x))

    def test_tiny_pairs_keep_their_norms(self):
        # at 2^-300 the squares are 2^-600, normal doubles, so the tiny pairs
        # are measured unscaled to roundoff, and the pairs of ordinary size
        # keep their bits
        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((12, 4)), rng.standard_normal((12, 4))
        tiny = 2.0**-300
        assert np.allclose(wedge_norms(tiny * x, tiny * y), tiny**2 * wedge_norms(x, y), rtol=1e-14, atol=0.0)
        x[:, 1], x[:, 3], y[:, 3] = tiny * x[:, 1], tiny * x[:, 3], 0.0
        got = wedge_norms(x, y)
        assert got[[0, 2]].tolist() == wedge_norms(x[:, [0, 2]], y[:, [0, 2]]).tolist()
        assert got[1] == pytest.approx(tiny * wedge_norms(x[:, [1]] / tiny, y[:, [1]])[0], rel=1e-14)
        assert got[3] == 0.0

    def test_shapes(self):
        assert wedge_norms(np.zeros((3, 0)), np.zeros((3, 0))).shape == (0,)
        with pytest.raises(DimensionError):
            wedge_norms(np.zeros((3, 2)), np.zeros((3, 3)))
