"""The public surface: one public name per fact.

A noise count is read off the analysis record compute_s_tilde returns, and
a system is built with the LtiSystem constructor. The few names that only
restate them stay callable for the benchmark, which names them, but are not
exported.
"""

import dataclasses

import numpy as np

import qrealize
from qrealize import LtiSystem, Realization, compute_s_tilde, linalg, realizability
from qrealize.realizability import ResidualReport

PUBLIC = [
    "__version__",
    "QRealizeError",
    "DimensionError",
    "ValidationError",
    "ParseError",
    "ContractError",
    "NumericalError",
    "LtiSystem",
    "TolerancePolicy",
    "SkewReport",
    "compute_s_tilde",
    "check_physical_realizability",
    "Realization",
    "synthesize_realization",
    "oscillator",
    "minimality_certificate",
]


def test_all_names_the_listed_names_and_each_resolves():
    assert qrealize.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(qrealize, name) is not None, name


def test_restating_names_are_gone_or_unexported():
    assert not hasattr(ResidualReport, "entry")
    assert not hasattr(Realization, "n_v")
    # D1 = [I 0] is read off the record, not stored
    assert [f.name for f in dataclasses.fields(Realization)] == ["skew", "R", "Lambda", "B1"]
    for name in ("minimal_noise_count", "multiplicity_noise_count"):
        assert name not in realizability.__all__
        assert not hasattr(qrealize, name)
    for name in ("complex_rank_via_real_embedding", "hermitian_eig"):
        assert name not in linalg.__all__


def test_names_the_benchmark_calls_stay_callable(paper_system):
    skew = compute_s_tilde(paper_system)
    assert realizability.minimal_noise_count(paper_system) == (skew.rank_r, skew.n_v) == (4, 6)
    assert realizability.multiplicity_noise_count(paper_system) == skew.multiplicity_count == 8
    assert linalg.complex_rank_via_real_embedding(skew.S.real, skew.S.imag) == skew.rank_r
    u, d = linalg.hermitian_eig(skew.S)
    assert np.allclose(d, skew.eigenvalues, rtol=0.0, atol=1e-14)
    assert np.allclose(u.conj().T @ np.diag(d) @ u, skew.S, rtol=0.0, atol=1e-14)
    built = LtiSystem.from_matrices(paper_system.A, paper_system.B, paper_system.C)
    assert type(built) is LtiSystem
    for name in ("A", "B", "C"):
        assert np.array_equal(getattr(built, name), getattr(paper_system, name))
