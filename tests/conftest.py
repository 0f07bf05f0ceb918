"""Shared fixtures: the three reference systems, a seeded random corpus and a LAPACK call recorder."""

import dataclasses
import inspect
import tracemalloc
from typing import NamedTuple

import numpy as np
import pytest

from qrealize import LtiSystem, compute_s_tilde, synthesize_realization
from qrealize.cli import example_system
from qrealize.linalg import apply_theta
from qrealize.synthesis import _coupled_outputs, _field_inputs

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
            LtiSystem(
                rng.standard_normal((n, n)),
                rng.standard_normal((n, n_u)),
                rng.standard_normal((n_u, n)),
            )
        )
    return systems


def oscillator_built_system(rng, n, n_u, k, degenerate=None, dyadic=False):
    """A system built from a random oscillator with k hidden extra channels.

    R is a random symmetric n x n matrix, and Lambda stacks n_u/2 output
    rows, k extra rows and n_u/2 input rows, each a random complex n-vector.
    A = 2 Theta (R + Im Lambda^dag Lambda), B is the input columns of
    _field_inputs(Lambda) and C = _coupled_outputs(Lambda, n_u); the extra
    channels are hidden, and S_tilde = 4 Im H^dag H for the k extra rows H.
    So r <= 2k, with equality for generic rows.
    ``degenerate="real"`` makes the first extra row real, whose Gram matrix
    then has no imaginary part, and ``"proportional"`` makes the second
    extra row a complex multiple of the first; each takes 2 off r.
    ``"cluster"`` makes extra row j o_2j + i o_2j+1 for the rows o of a
    random orthogonal matrix (2k <= n), so S_tilde keeps r = 2k with all 2k
    nonzero singular values equal, one cluster. ``dyadic=True`` draws
    quarter-integers in [-1, 1] instead of normals, and a real multiple
    in {1/2, 1, 3/2, 2} for "proportional", so A, B, C and S_tilde hold
    exactly in doubles.
    """
    draw = (lambda shape: rng.integers(-4, 5, shape) / 4) if dyadic else rng.standard_normal
    g = draw((n, n))
    lam = draw((n_u + k, n)) + 1j * draw((n_u + k, n))
    first = n_u // 2
    if degenerate == "real":
        lam[first] = lam[first].real
    elif degenerate == "proportional":
        factor = rng.integers(1, 5) / 2 if dyadic else complex(*rng.standard_normal(2))
        lam[first + 1] = factor * lam[first]
    elif degenerate == "cluster":
        o = np.linalg.qr(rng.standard_normal((n, n)))[0]
        lam[first : first + k] = o[0 : 2 * k : 2] + 1j * o[1 : 2 * k : 2]
    a = 2.0 * apply_theta(0.5 * (g + g.T) + (lam.conj().T @ lam).imag, "left")
    return LtiSystem(a, _field_inputs(lam)[:, -n_u:], _coupled_outputs(lam, n_u))


def integer_realizable_system(rng, n, n_u=2, scale=10.0):
    """A realizable system built from small integers, divided by ``scale`` as theory allows.

    B, C and M have integer entries in -3..3. With X = Theta B Theta_u B^T
    Theta and Z = C^T Theta_y C, both skew, A = -Theta((X - Z)/2 + M + M^T)
    makes S_tilde exactly 0 (r = 0, n_v = n_u). Unscaled, the float
    arithmetic is exact and S_tilde comes out exactly 0, which hides how
    roundoff is judged; (A/scale, B/sqrt(scale), C/sqrt(scale)) keeps
    r = 0 in exact arithmetic but leaves S_tilde pure roundoff.
    """
    b = rng.integers(-3, 4, (n, n_u)).astype(float)
    c = rng.integers(-3, 4, (n_u, n)).astype(float)
    m = rng.integers(-3, 4, (n, n)).astype(float)
    x = apply_theta(apply_theta(apply_theta(b, "left"), "right") @ b.T, "right")
    z = apply_theta(c.T, "right") @ c
    a = -apply_theta((x - z) / 2 + m + m.T, "left")
    root = np.sqrt(scale)
    return LtiSystem(a / scale, b / root, c / root)


def realizable_projection(sys):
    """(A0, B, C) with A0 = A - Theta S_tilde / 2, the r = 0 projection of a system.

    A0 makes S_tilde vanish, so (A0, B, C) is physically realizable with
    n_v = n_u noises and r = 0.
    """
    a0 = sys.A - apply_theta(compute_s_tilde(sys).S_tilde, "left") / 2
    return LtiSystem(a0, sys.B, sys.C)


def projected_system(n, seed, delta):
    """A0 + delta M for the realizable_projection (A0, B, C) of a seeded system, n_u = 2.

    Adding delta times a standard normal M makes the count r = n for delta > 0.
    """
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, 2))
    c = rng.standard_normal((2, n))
    a0 = realizable_projection(LtiSystem(a, b, c)).A
    return LtiSystem(a0 + delta * rng.standard_normal((n, n)), b, c)


def traced_peak(call, *args):
    """(call(*args), the peak in bytes of the memory tracemalloc traced while it ran)."""
    tracemalloc.start()
    try:
        result = call(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def with_eigenpairs(skew, u, d):
    """A copy of the analysis record whose eigenpairs are (u, d) instead of hermitian_eig(S).

    The copy shares the six facts of ``skew``; its cached ``eigenpairs``
    property is written directly, which a frozen record allows only
    through object.__setattr__.
    """
    copy = dataclasses.replace(skew)
    object.__setattr__(copy, "eigenpairs", (u, d))
    return copy


def rotated_record(skew, i, j, angle):
    """The analysis record with rows i and j of U turned by ``angle`` in their plane.

    The rows stay orthonormal but are no longer eigenvectors of S unless d_i = d_j.
    """
    u = skew.U.copy()
    cos, sin = np.cos(angle), np.sin(angle)
    u[i], u[j] = cos * skew.U[i] + sin * skew.U[j], cos * skew.U[j] - sin * skew.U[i]
    return with_eigenpairs(skew, u, skew.eigenvalues)


def shifted_record(skew, j, delta):
    """The analysis record with eigenvalue j moved by ``delta`` and U kept."""
    d = skew.eigenvalues.copy()
    d[j] += delta
    return with_eigenpairs(skew, skew.U, d)


def overflow_matrices():
    """Three finite triples (n=4, n_u=2, C = [I 0]) whose S_tilde or term scale overflows.

    "entries": A = 1e200 I and B = 1e200 [I; 0], so B B^T and with it
    S_tilde holds inf. "norm": A = 1e160 (I + 3 e_0 e_1^T) and B = [I; 0],
    so S_tilde is finite but its squared Frobenius norm is not. "terms":
    A = -1e160 Theta and B = [I; 0], so Theta A = 1e160 I is symmetric and
    cancels from S_tilde, which stays small, while the squared norm of
    Theta A, and with it the term scale, overflows.
    """
    c, b = np.eye(2, 4), np.eye(4, 2)
    a_norm = 1e160 * np.eye(4)
    a_norm[0, 1] = 3e160
    a_terms = -apply_theta(1e160 * np.eye(4), "left")
    return {
        "entries": (1e200 * np.eye(4), 1e200 * b, c),
        "norm": (a_norm, b, c),
        "terms": (a_terms, b, c),
    }


class LapackCall(NamedTuple):
    """One np.linalg svd, eigh or eigvalsh call: its name, input and flags.

    ``compute_uv`` is whether the call returns vectors (always for eigh,
    never for eigvalsh); ``hermitian`` whether it treats its input as
    Hermitian (always for eigh and eigvalsh).
    """

    name: str
    a: np.ndarray
    compute_uv: bool
    hermitian: bool


class LapackCalls(list):
    """The LapackCalls made while a test runs, in order."""

    def names(self):
        return [call.name for call in self]

    def with_vectors(self):
        """The names of the calls that return vectors."""
        return [call.name for call in self if call.compute_uv]


@pytest.fixture
def lapack_calls(monkeypatch):
    """Record every np.linalg svd, eigh and eigvalsh call the test makes, with its flags."""
    calls = LapackCalls()

    def recorded(name, kernel):
        signature = inspect.signature(kernel)

        def call(*args, **kwargs):
            flags = signature.bind(*args, **kwargs).arguments
            calls.append(
                LapackCall(
                    name,
                    np.array(flags["a"]),
                    flags.get("compute_uv", name != "eigvalsh"),
                    flags.get("hermitian", name != "svd"),
                )
            )
            return kernel(*args, **kwargs)

        return call

    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture(scope="session")
def paper_system():
    return example_system()


@pytest.fixture(scope="session")
def trivial_system():
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return LtiSystem(j, np.zeros((2, 2)), np.zeros((2, 2)))


@pytest.fixture(scope="session")
def small_system():
    return LtiSystem(np.zeros((2, 2)), np.eye(2), np.eye(2))


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
