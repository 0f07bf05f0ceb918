"""The three workloads: seeded inputs, the timed operation, its output check.

Inputs come from this file's own numpy code; the program under test sees
only the generated files and matrices. Timed calls go through the entry
points the README documents (``qrealize.cli.main`` argv,
``LtiSystem.from_matrices`` and ``synthesize_realization``), looked up on
their modules at call time so that a traced run sees its wrappers.

Every check runs outside the timed window and judges the output against
what the input is known to need, plus an independent evaluation of the
three physical-realizability conditions with this file's own formulas.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import qrealize
import qrealize.cli

J = np.array([[0.0, 1.0], [-1.0, 0.0]])

# Relative residual the independent realizability check allows; the
# program's own default residual tolerance.
CHECK_TOL = 1e-8

RESIDUAL_NAMES = ("commutation", "output_coupling", "feedthrough")


def theta(k: int) -> np.ndarray:
    return np.kron(np.eye(k // 2), J)


def s_tilde(a, b, c) -> np.ndarray:
    """Theta B Theta_u B^T Theta - A^T Theta - Theta A - C^T Theta_y C."""
    t, tu, ty = theta(a.shape[0]), theta(b.shape[1]), theta(c.shape[0])
    return t @ b @ tu @ b.T @ t - a.T @ t - t @ a - c.T @ ty @ c


def realizable_by_projection(a, b, c):
    """A2 = A - Theta S_tilde / 2 makes the skew invariant vanish, so r = 0."""
    return a - theta(a.shape[0]) @ s_tilde(a, b, c) / 2, b, c


def system_text(a, b, c) -> str:
    return json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}, sort_keys=True)


def realization_problems(a, b, c, b1, d1) -> list:
    """The three realizability conditions, evaluated independently of qrealize.

    With W = [B1 B]: A Theta + Theta A^T + W Theta_w W^T = 0, the first n_y
    columns of W equal Theta C^T Theta_y, and D1 = [I 0].
    """
    n, n_u = b.shape
    if b1.ndim != 2 or b1.shape[0] != n or b1.shape[1] % 2 or d1.shape != (n_u, b1.shape[1]):
        return [f"B1/D1 shapes {b1.shape}/{d1.shape} do not fit n={n}, n_u={n_u}"]
    t = theta(n)
    w = np.hstack([b1, b])
    quad = w @ theta(w.shape[1]) @ w.T
    lin = a @ t + t @ a.T
    scale = max(np.linalg.norm(lin), np.linalg.norm(w) ** 2)
    problems = []
    if np.linalg.norm(lin + quad) > CHECK_TOL * scale:
        problems.append("commutation condition fails")
    target = t @ c.T @ theta(n_u)
    if np.linalg.norm(w[:, :n_u] - target) > CHECK_TOL * np.linalg.norm(target):
        problems.append("output coupling condition fails")
    if not np.array_equal(d1, np.eye(n_u, b1.shape[1])):
        problems.append("D1 is not [I 0]")
    return problems


def report_problems(doc: dict, a, b, c, r: int) -> list:
    """Everything wrong with a ``synthesize`` report for an input of known r."""
    n_u = b.shape[1]
    try:
        analysis, cert = doc["analysis"], doc["certificate"]
        residuals = doc["residuals"]
        problems = []
        if analysis["r"] != r or analysis["n_v"] != n_u + r:
            problems.append(f"r={analysis['r']} n_v={analysis['n_v']}, expected r={r} n_v={n_u + r}")
        if len(residuals) != 6:
            problems.append(f"{len(residuals)} residuals, expected 6")
        for e in residuals:
            if e["passed"] is not True or not e["relative"] <= e["tol"]:
                problems.append(f"residual {e['name']} did not pass")
        if doc["all_passed"] is not True:
            problems.append("all_passed is not true")
        if cert["lower_bound_held"] is not True or cert["embedding_agreed"] is not True:
            problems.append("certificate did not hold")
        real = doc["realization"]
        b1, d1 = np.array(real["B1"], dtype=float), np.array(real["D1"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    return problems + realization_problems(a, b, c, b1, d1)


@dataclass(frozen=True)
class Case:
    """One input: matrices, the r it is built to have, and its system file."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    r: int
    path: str

    @property
    def n_v(self) -> int:
        return self.b.shape[1] + self.r


@dataclass
class Outcome:
    """What one timed call returned: an exit code and the captured output."""

    code: int
    out: str = ""
    err: str = ""
    value: object = None
    report_bytes: int = 0  # size of the report an op wrote, set by its check


def call_cli(argv) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = qrealize.cli.main(argv)
    return Outcome(code, out.getvalue(), err.getvalue())


class Workload:
    """Seeded inputs for one workload, the timed operation, and its check.

    ``count`` inputs are drawn in order from one generator, so a smaller
    count yields a prefix of a larger one. ``op`` is the timed call;
    ``reset`` and ``problems`` run outside the timed window.
    """

    name = ""
    seed_key = 0  # mixed into the seed so each workload draws its own inputs
    n = n_u = 0
    cases_per_run = 0
    # Highest of p90/p95/p99 that keeps ten or more samples beyond it in a
    # 30-second run at this workload's op rate; fixed so it cannot flip
    # between runs whose sample counts differ.
    tail_percentile = 90.0

    def __init__(self, workdir: str, seed: int, count: int | None = None):
        self.workdir = workdir
        self.seed = seed
        rng = np.random.default_rng([seed, self.seed_key])
        count = self.cases_per_run if count is None else count
        self.cases = [self._make_case(rng, i) for i in range(count)]

    def _make_case(self, rng, i: int, realizable: bool = False) -> Case:
        n, n_u = self.n, self.n_u
        a, b, c = (rng.standard_normal(shape) for shape in ((n, n), (n, n_u), (n_u, n)))
        r = self.n
        if realizable:
            a, b, c = realizable_by_projection(a, b, c)
            r = 0
        path = os.path.join(self.workdir, f"system-{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(system_text(a, b, c))
        return Case(a, b, c, r, path)

    def reset(self, i: int) -> None:
        """Clear what the previous op left behind, so a stale output never passes."""

    def op(self, i: int) -> Outcome:
        raise NotImplementedError

    def problems(self, i: int, outcome: Outcome) -> list:
        raise NotImplementedError


class SynthesizeCli(Workload):
    """``qrealize synthesize`` in process on generic inputs (r = n).

    Realizable inputs (r = 0) stay out of the timed mix, because the
    workloads must be ones on which no op fails and synthesis of such an
    input is a known defect. ``r0_probe`` runs one of them untimed instead,
    so the defect still shows in the benchmark's output.
    """

    name = "synthesize-cli"
    seed_key = 1
    n, n_u = 32, 8
    cases_per_run = 8

    def r0_probe(self) -> str:
        """Synthesize one seeded realizable input and describe what happened."""
        rng = np.random.default_rng([self.seed, self.seed_key, 0])
        self.cases.append(self._make_case(rng, len(self.cases), realizable=True))
        i = len(self.cases) - 1
        try:
            outcome = self.op(i)
            if outcome.code != 0:
                return f"exit {outcome.code}: {outcome.err.strip()[:160]}"
            problems = self.problems(i, outcome)
            return "; ".join(problems)[:160] if problems else "passed"
        except Exception as exc:  # the probe reports, it never stops the run
            return f"{type(exc).__name__}: {str(exc)[:160]}"
        finally:
            self.cases.pop()

    def _out(self, i: int) -> str:
        return os.path.join(self.workdir, f"report-{i}.json")

    def reset(self, i: int) -> None:
        if os.path.exists(self._out(i)):
            os.remove(self._out(i))

    def op(self, i: int) -> Outcome:
        return call_cli(["synthesize", self.cases[i].path, "-o", self._out(i)])

    def problems(self, i: int, outcome: Outcome) -> list:
        case = self.cases[i]
        with open(self._out(i), encoding="utf-8") as fh:
            text = fh.read()
        outcome.report_bytes = len(text.encode("utf-8"))
        return report_problems(json.loads(text), case.a, case.b, case.c, case.r)


class SynthesizeLarge(Workload):
    """Library synthesis at large n: dense kernels, no certificate, no I/O."""

    name = "synthesize-large"
    seed_key = 2
    n, n_u = 192, 16
    cases_per_run = 4

    def op(self, i: int) -> Outcome:
        case = self.cases[i]
        system = qrealize.LtiSystem.from_matrices(case.a, case.b, case.c)
        return Outcome(0, value=qrealize.synthesize_realization(system))

    def problems(self, i: int, outcome: Outcome) -> list:
        case = self.cases[i]
        realization, report = outcome.value
        b1, d1 = np.asarray(realization.B1), np.asarray(realization.D1)
        problems = [] if report.all_passed else ["residual report did not pass"]
        if b1.shape[-1] != case.n_v:
            problems.append(f"n_v={b1.shape[-1]}, expected {case.n_v}")
        return problems + realization_problems(case.a, case.b, case.c, b1, d1)


class VerifyCli(Workload):
    """``qrealize count`` then ``qrealize check`` on a report the program wrote."""

    name = "verify-cli"
    seed_key = 3
    n, n_u = 64, 8
    cases_per_run = 4
    tail_percentile = 95.0

    def _make_case(self, rng, i: int) -> Case:
        case = super()._make_case(rng, i)
        report = os.path.join(self.workdir, f"report-{i}.json")
        written = call_cli(["synthesize", case.path, "-o", report])
        with open(report, encoding="utf-8") as fh:
            problems = report_problems(json.load(fh), case.a, case.b, case.c, case.r)
        if written.code != 0 or problems:
            raise RuntimeError(f"report {i} for {self.name} is not valid: {written.err} {problems}")
        return case

    def op(self, i: int) -> Outcome:
        case = self.cases[i]
        count = call_cli(["count", case.path])
        if count.code != 0:
            return count
        check = call_cli(["check", case.path, os.path.join(self.workdir, f"report-{i}.json")])
        return Outcome(check.code, count.out + check.out, count.err + check.err)

    def problems(self, i: int, outcome: Outcome) -> list:
        case = self.cases[i]
        lines = outcome.out.splitlines()
        if len(lines) != 5:
            return [f"expected 5 output lines, got {len(lines)}"]
        problems = []
        if lines[0] != f"r={case.r} n_v={case.n_v}":
            problems.append(f"count printed {lines[0]!r}, expected r={case.r} n_v={case.n_v}")
        if not lines[1].startswith("multiplicity_bound="):
            problems.append(f"count printed {lines[1]!r}")
        for name, line in zip(RESIDUAL_NAMES, lines[2:]):
            if line.split()[0] != name or not line.endswith(" PASS"):
                problems.append(f"check printed {line!r}")
        return problems


WORKLOADS = {w.name: w for w in (SynthesizeCli, SynthesizeLarge, VerifyCli)}
