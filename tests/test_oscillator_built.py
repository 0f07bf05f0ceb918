"""Minimality from the paper's side: systems built from known oscillators.

An oscillator with k extra channels, hidden from the system it defines,
needs at most 2k extra noise quadratures, and exactly 2k for generic
coupling rows (conftest.oscillator_built_system). So the count is checked
against a number known before the analysis runs, not only by synthesis.
"""

import numpy as np
import pytest
from conftest import oscillator_built_system

from qrealize import compute_s_tilde, minimality_certificate, oscillator, synthesize_realization
from qrealize.linalg import apply_theta


def _cases(ks):
    for n in (4, 8, 20, 32):
        for n_u in (2, 4):
            for k in sorted(ks(n)):
                yield n, n_u, k


def _synthesize_and_rebuild(system):
    """Synthesize, require all six residuals and the proven count, and rebuild A from oscillator(system, B1)."""
    skew = compute_s_tilde(system)
    rz, report = synthesize_realization(skew)
    assert report.all_passed and len(report.entries) == 6
    assert minimality_certificate(skew).proven_r == skew.rank_r
    r_mat, lam = oscillator(system, rz.B1)
    a = 2.0 * apply_theta(r_mat + (lam.conj().T @ lam).imag, "left")
    tol = skew.policy.residual_tol
    assert np.linalg.norm(a - system.A) <= tol * np.linalg.norm(system.A)
    return skew.rank_r


@pytest.mark.parametrize("n, n_u, k", _cases(lambda n: {0, 1, n // 4, n // 2}))
def test_generic_rows_need_two_quadratures_each(n, n_u, k):
    for seed in range(3):
        system = oscillator_built_system(np.random.default_rng([n, n_u, k, seed]), n, n_u, k)
        assert _synthesize_and_rebuild(system) == 2 * k


@pytest.mark.parametrize("degenerate", ["real", "proportional"])
@pytest.mark.parametrize("n, n_u, k", _cases(lambda n: {2, n // 2}))
def test_degenerate_rows_need_fewer(n, n_u, k, degenerate):
    # a real row adds nothing to Im Lambda^dag Lambda, and two proportional
    # rows add one rank-2 term between them
    for seed in range(3):
        rng = np.random.default_rng([n, n_u, k, seed])
        system = oscillator_built_system(rng, n, n_u, k, degenerate)
        assert _synthesize_and_rebuild(system) == 2 * k - 2 < 2 * k
