"""Shared fixtures: the three reference systems and a seeded random corpus."""

import numpy as np
import pytest

from qrealize import LtiSystem, synthesize_realization
from qrealize.cli import example_system

CORPUS_SEED = 20260814
CORPUS_SIZE = 100


def paper_matrices():
    sys = example_system()
    return sys.A, sys.B, sys.C


def make_corpus(count=CORPUS_SIZE, seed=CORPUS_SEED):
    """Deterministic random systems over n in {2,...,10}, n_u in {2,4}."""
    rng = np.random.default_rng(seed)
    dims = [(n, n_u) for n in (2, 4, 6, 8, 10) for n_u in (2, 4)]
    systems = []
    for i in range(count):
        n, n_u = dims[i % len(dims)]
        systems.append(
            LtiSystem.from_matrices(
                rng.standard_normal((n, n)),
                rng.standard_normal((n, n_u)),
                rng.standard_normal((n_u, n)),
            )
        )
    return systems


@pytest.fixture(scope="session")
def paper_system():
    return example_system()


@pytest.fixture(scope="session")
def trivial_system():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LtiSystem.from_matrices(j, np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.fixture(scope="session")
def small_system():
    return LtiSystem.from_matrices(np.zeros((2, 2)), np.eye(2), np.eye(2))


@pytest.fixture(scope="session")
def fixture_systems(paper_system, trivial_system, small_system):
    return {"paper": paper_system, "trivial": trivial_system, "small": small_system}


@pytest.fixture(scope="session")
def corpus():
    return make_corpus()


@pytest.fixture(scope="session")
def corpus_realizations(corpus):
    """Synthesized (Realization, ResidualReport) pairs, computed once."""
    return [synthesize_realization(sys) for sys in corpus]
