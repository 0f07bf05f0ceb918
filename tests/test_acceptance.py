"""Acceptance gate: the eight headline criteria at their stated tolerances.

Each test prints one ACCEPTANCE line (pass/fail) with capture suspended so
the verdicts stay visible in the terminal output of a normal pytest run.
"""

import json
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import CORPUS_SEED, paper_matrices
from dense_reference import build_theta, reference_certificate
from qrealize import (
    compute_s_tilde,
    minimality_certificate,
    synthesize_realization,
)
from qrealize.cli import EXAMPLE_S_TILDE, main
from qrealize.linalg import numerical_rank
from qrealize.synthesis import build_xi1, build_xi2


def _line(capsys, num, label, ok):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {label}: {verdict}", flush=True)


def _rel(delta, *terms):
    scale = max(float(np.linalg.norm(t)) for t in terms)
    if scale == 0.0:
        return 0.0 if float(np.linalg.norm(delta)) == 0.0 else np.inf
    return float(np.linalg.norm(delta)) / scale


def test_criterion_1_paper_example_reproduction(paper_system, capsys):
    ok = False
    detail = ""
    try:
        start = time.perf_counter()
        skew = compute_s_tilde(paper_system)
        r, n_v = skew.rank_r, skew.n_v
        elapsed = time.perf_counter() - start
        failures = []
        deviation = float(np.abs(skew.S_tilde - EXAMPLE_S_TILDE).max())
        if deviation > 1e-4:
            failures.append(f"S_tilde deviation {deviation:.2e} > 1e-4")
        if r != 4:
            failures.append(f"r={r} != 4")
        if n_v != 6:
            failures.append(f"n_v={n_v} != 6")
        if elapsed >= 1.0:
            failures.append(f"runtime {elapsed:.2f}s >= 1s")
        ok = not failures
        detail = "; ".join(failures)
    finally:
        _line(capsys, 1, "paper example reproduction", ok)
    assert ok, detail


def test_criterion_2_sufficiency(fixture_systems, capsys):
    ok = False
    detail = ""
    try:
        expected_nv = {"paper": 6, "trivial": 2, "small": 4}
        failures = []
        for name, sys_ in fixture_systems.items():
            rz, report = synthesize_realization(sys_)
            if rz.B1.shape[1] != expected_nv[name]:
                failures.append(f"{name}: B1 has {rz.B1.shape[1]} columns")
            for entry in report:
                if entry.relative > 1e-8:
                    failures.append(f"{name}: {entry.name} at {entry.relative:.2e}")
        ok = not failures
        detail = "; ".join(failures)
    finally:
        _line(capsys, 2, "sufficiency on the three fixtures", ok)
    assert ok, detail


def test_criterion_3_reconstruction_identities(fixture_systems, corpus, capsys):
    ok = False
    detail = ""
    try:
        rebuild_names = ("state_rebuild", "input_rebuild", "output_rebuild", "feedthrough")
        failures = []
        start = time.perf_counter()
        for sys_ in list(fixture_systems.values()) + corpus:
            _, report = synthesize_realization(sys_)
            for name in rebuild_names:
                entry = {e.name: e for e in report}[name]
                if entry.relative > 1e-8:
                    failures.append(f"{name} at {entry.relative:.2e}")
        elapsed = time.perf_counter() - start
        if elapsed >= 10.0:
            failures.append(f"runtime {elapsed:.2f}s >= 10s")
        ok = not failures
        detail = "; ".join(failures[:5])
    finally:
        _line(capsys, 3, "generator reconstruction on fixtures + corpus", ok)
    assert ok, detail


def test_criterion_4_proof_identity_suite(fixture_systems, corpus, corpus_realizations, capsys):
    ok = False
    detail = ""
    try:
        failures = []
        pairs = [(s, synthesize_realization(s)[0]) for s in fixture_systems.values()]
        pairs += [(s, rz) for s, (rz, _) in zip(corpus, corpus_realizations)]
        for sys_, rz in pairs:
            theta = build_theta(sys_.n)
            theta_u = build_theta(sys_.n_u)
            skew = compute_s_tilde(sys_)

            # The full-coupling gram is a sum of three block grams that can
            # cancel (A = 0 makes the target exactly zero), so the honest
            # scale includes the per-block contributions.
            blocks = [
                (blk.conj().T @ blk).imag
                for blk in (rz.Lambda_b0, rz.Lambda_b1, rz.Lambda_b2)
            ]
            lhs = (rz.Lambda.conj().T @ rz.Lambda).imag
            rhs = -0.25 * (theta @ sys_.A + sys_.A.T @ theta)
            if _rel(lhs - rhs, lhs, rhs, *blocks) > 1e-9:
                failures.append("generator")

            lhs = (rz.Lambda_b0.conj().T @ rz.Lambda_b0).imag
            rhs = 0.25 * sys_.C.T @ build_theta(sys_.n_y) @ sys_.C
            if _rel(lhs - rhs, lhs, rhs) > 1e-9:
                failures.append("output block")

            lhs = (rz.Lambda_b2.conj().T @ rz.Lambda_b2).imag
            rhs = -0.25 * theta @ sys_.B @ theta_u @ sys_.B.T @ theta
            if _rel(lhs - rhs, lhs, rhs) > 1e-9:
                failures.append("input block")

            lhs = 1j * (rz.Lambda_b1.conj().T @ rz.Lambda_b1).imag
            if _rel(lhs - skew.S, lhs, skew.S) > 1e-9:
                failures.append("extra-noise block")
        ok = not failures
        detail = "; ".join(sorted(set(failures)))
    finally:
        _line(capsys, 4, "proof identities on fixtures + corpus", ok)
    assert ok, detail


def test_criterion_5_structural_properties(corpus, corpus_realizations, capsys):
    ok = False
    detail = ""
    try:
        failures = []
        for sys_, (rz, _) in zip(corpus, corpus_realizations):
            skew = compute_s_tilde(sys_)
            scale = float(np.linalg.norm(skew.S_tilde))
            if scale > 0:
                if np.linalg.norm(skew.S_tilde + skew.S_tilde.T) > 1e-12 * scale:
                    failures.append("skewness")
            w = skew.eigenvalues
            if np.abs(w + w[::-1]).max() > 1e-9 * max(np.abs(w).max(), 1e-300):
                failures.append("eigenvalue pairing")
            if skew.rank_r % 2 != 0:
                failures.append("odd rank")
            xi1 = build_xi1(rz.skew)
            if numerical_rank(build_xi2(rz.skew, xi1))[0] != skew.rank_r // 2:
                failures.append("Xi2 rank")
            if np.iscomplexobj(xi1) or not np.array_equal(xi1, xi1.T):
                failures.append("Xi1 not real symmetric")
            eigs = np.linalg.eigvalsh(xi1)
            if eigs.size and eigs.min() < -1e-12 * max(np.abs(eigs).max(), 1e-300):
                failures.append("Xi1 not PSD")
            s_sq = (skew.S @ skew.S).real
            if _rel(xi1 @ xi1 - s_sq, s_sq) > 1e-9 and scale > 0:
                failures.append("Xi1 squared")
        ok = not failures
        detail = "; ".join(sorted(set(failures)))
    finally:
        _line(capsys, 5, "structural properties on the corpus", ok)
    assert ok, detail


def test_criterion_6_necessity_certificates(corpus, capsys):
    ok = False
    detail = ""
    try:
        failures = []
        start = time.perf_counter()
        for i, sys_ in enumerate(corpus):
            skew = compute_s_tilde(sys_)
            cert = minimality_certificate(skew)
            # the two constructive candidates and 200 seeded random ones
            ref = reference_certificate(skew, trials=200, seed=CORPUS_SEED + i)
            if not (cert.lower_bound_held and ref["lower_bound_held"]):
                failures.append(f"system {i}: bound violated")
            if not (cert.embedding_agreed and ref["embedding_agreed"]):
                failures.append(f"system {i}: rank routes disagree")
            if ref["min_observed_rank"] < skew.rank_r // 2:
                failures.append(f"system {i}: min rank {ref['min_observed_rank']}")
        elapsed = time.perf_counter() - start
        if elapsed >= 60.0:
            failures.append(f"runtime {elapsed:.1f}s >= 60s")
        ok = not failures
        detail = "; ".join(failures[:5])
    finally:
        _line(capsys, 6, "necessity rank bound over 200+ trials per system", ok)
    assert ok, detail


def test_criterion_7_count_consistency(corpus, trivial_system, capsys):
    ok = False
    detail = ""
    try:
        failures = []
        for sys_ in corpus + [trivial_system]:
            skew = compute_s_tilde(sys_)
            n_v, bound = skew.n_v, skew.multiplicity_count
            if bound < n_v:
                failures.append(f"bound {bound} < n_v {n_v}")
            input_scale = max(
                1.0,
                float(np.linalg.norm(sys_.A)),
                float(np.linalg.norm(sys_.B)) ** 2,
                float(np.linalg.norm(sys_.C)) ** 2,
            )
            is_zero = float(np.linalg.norm(skew.S_tilde)) <= 1e-12 * input_scale
            if (n_v == sys_.n_u) != is_zero or (bound == sys_.n_u) != is_zero:
                failures.append("collapse to n_u out of step with S_tilde = 0")
        ok = not failures
        detail = "; ".join(failures[:5])
    finally:
        _line(capsys, 7, "multiplicity bound vs rank count", ok)
    assert ok, detail


def test_criterion_8_cli_contract(tmp_path, capsys):
    ok = False
    detail = ""
    try:
        failures = []

        exe = shutil.which("qrealize")
        cmd = [exe, "paper-example"] if exe else [sys.executable, "-m", "qrealize.cli", "paper-example"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            failures.append(f"paper-example exit {proc.returncode}")
        if "r=4 n_v=6" not in proc.stdout:
            failures.append("paper-example did not print r=4 n_v=6")

        a, b, c = paper_matrices()
        system_file = tmp_path / "system.json"
        system_file.write_text(
            json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()})
        )
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        if main(["synthesize", str(system_file), "-o", str(first)]) != 0:
            failures.append("synthesize exit nonzero")
        main(["synthesize", str(system_file), "-o", str(second)])
        if first.read_bytes() != second.read_bytes():
            failures.append("reports differ across re-runs")

        doc = json.loads(first.read_text())
        doc["realization"]["B1"] = np.zeros((4, 6)).tolist()
        corrupted = tmp_path / "corrupted.json"
        corrupted.write_text(json.dumps(doc))
        import io as _io
        from contextlib import redirect_stdout

        buf = _io.StringIO()
        with redirect_stdout(buf):
            code = main(["check", str(system_file), str(corrupted)])
        out = buf.getvalue()
        if code == 0:
            failures.append("corrupted realization not rejected")
        if not any("output_coupling" in ln and "FAIL" in ln for ln in out.splitlines()):
            failures.append("failing condition not named")

        ok = not failures
        detail = "; ".join(failures)
    finally:
        _line(capsys, 8, "CLI contract", ok)
    assert ok, detail
