"""Tests for the command line interface."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qrealize
from conftest import (
    near_overflow_matrices,
    overflow_matrices,
    paper_matrices,
    rescaled,
    rotated_record,
    shifted_record,
    underflow_matrices,
)
from dense_reference import complex_product_xi1
from qrealize.cli import _build_parser, example_system, main
from qrealize.io import (
    _real_lists,
    parse_realization,
    parse_system_document,
    serialize_system,
)
from qrealize.linalg import apply_theta
from qrealize.realizability import compute_s_tilde
from qrealize.synthesis import minimality_certificate, synthesize_realization


@pytest.fixture
def paper_file(tmp_path):
    a, b, c = paper_matrices()
    path = tmp_path / "paper.json"
    path.write_text(json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}))
    return str(path)


@pytest.fixture
def trivial_file(tmp_path):
    doc = {"A": [[0, 1], [-1, 0]], "B": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]]}
    path = tmp_path / "trivial.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestCount:
    def test_paper(self, paper_file, capsys):
        assert main(["count", paper_file]) == 0
        out = capsys.readouterr().out
        assert "r=4 n_v=6" in out
        assert "multiplicity_bound=8" in out

    def test_trivial(self, trivial_file, capsys):
        assert main(["count", trivial_file]) == 0
        assert "r=0 n_v=2" in capsys.readouterr().out

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        assert main(["count", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_file_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[1, 2')
        assert main(["count", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "1.0", "2"])
    def test_out_of_range_rank_tol_is_rejected(self, paper_file, capsys, value):
        # a cutoff of 1 or more would count every singular value as zero: r=0
        assert main(["count", paper_file, "--rank-tol", value]) == 1
        captured = capsys.readouterr()
        assert "invalid tolerance override" in captured.err
        assert captured.out == ""

    def test_invalid_system_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"A": [[1.0]], "B": [[1.0]], "C": [[1.0]]}))
        assert main(["count", str(path)]) == 1


def _system_file(path, matrices):
    a, b, c = matrices
    path.write_text(json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}))
    return str(path)


def _synthesize_and_check(capsys, path, out):
    """synthesize then check of the written report, each exiting 0 with nothing on stderr; the report."""
    assert main(["synthesize", path, "-o", str(out)]) == 0
    assert main(["check", path, str(out)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 4 and lines[0].endswith("residuals pass)")
    assert all(line.endswith(" PASS") for line in lines[1:])
    doc = json.loads(out.read_text())
    assert doc["all_passed"] is True
    assert doc["certificate"]["lower_bound_held"] and doc["certificate"]["embedding_agreed"]
    return doc


@pytest.mark.parametrize("name", ["entries", "norm", "terms", "near_overflow"])
@pytest.mark.parametrize("command", ["count", "synthesize"])
def test_overflowing_system_is_one_error_line(tmp_path, capsys, name, command):
    # finite systems whose S_tilde or term scale overflows as given: every
    # command analyses them rescaled by a power of 4, so each counts, each
    # synthesizes with all residuals passing and a certificate that holds,
    # and nothing reaches stderr
    r = {"entries": 2, "norm": 4, "terms": 0, "near_overflow": 0}[name]
    matrices = {**overflow_matrices(), "near_overflow": near_overflow_matrices()}[name]
    path = _system_file(tmp_path / "big.json", matrices)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if command == "count":
            assert main(["count", path]) == 0
            captured = capsys.readouterr()
            assert (captured.out.splitlines()[0], captured.err) == (f"r={r} n_v={2 + r}", "")
        else:
            doc = _synthesize_and_check(capsys, path, tmp_path / "report.json")
            assert (doc["analysis"]["r"], doc["certificate"]["proven_r"]) == (r, r)
            assert doc["analysis"]["scale_exponent"] < 0


def test_underflowing_system_names_the_underflow_and_the_rescaling(tmp_path, capsys):
    # S_tilde holds +-1e-323, whose Xi1 and S = (i/4) S_tilde would round to 0;
    # analysed as (4^537 A, 2^537 B, 2^537 C), it synthesizes and checks, its
    # report is the rescaled system's but for B1, 2^-537 times that one's
    matrices = underflow_matrices()
    path = _system_file(tmp_path / "tiny.json", matrices)
    assert main(["count", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "r=2 n_v=4"
    doc = _synthesize_and_check(capsys, path, tmp_path / "report.json")
    assert (doc["analysis"]["r"], doc["analysis"]["scale_exponent"]) == (2, 537)
    assert all(entry["relative"] < 1e-15 for entry in doc["residuals"])
    scaled_path = _system_file(tmp_path / "scaled.json", rescaled(matrices, 537))
    scaled = _synthesize_and_check(capsys, scaled_path, tmp_path / "scaled-report.json")
    assert scaled["analysis"]["scale_exponent"] == 0
    assert doc["analysis"]["eigenvalues_of_S"] == scaled["analysis"]["eigenvalues_of_S"]
    assert np.array_equal(np.array(doc["realization"]["B1"]), np.ldexp(scaled["realization"]["B1"], -537))
    assert doc["residuals"] == scaled["residuals"] and doc["certificate"] == scaled["certificate"]


class TestSynthesize:
    def test_writes_passing_report(self, paper_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["analysis"]["n_v"] == 6
        assert len(doc["realization"]["B1"][0]) == 6
        assert "residuals pass" in capsys.readouterr().out
        # the report's certificate proves r = 4 with both flags, a positive
        # eigenpair error bound, a positive radius and r/2 profile entries
        certificate = doc["certificate"]
        assert certificate["proven_r"] == doc["analysis"]["r"] == 4
        assert certificate["lower_bound_held"] is True and certificate["embedding_agreed"] is True
        assert certificate["eta"] > 0 and certificate["stability_radius"] > 0
        assert len(certificate["noise_profile"]) == 2

    def test_reports_are_byte_identical(self, paper_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["synthesize", paper_file, "-o", str(first)]) == 0
        assert main(["synthesize", paper_file, "-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_xi1_rounding_decides_nothing(self, paper_system, corpus, tmp_path, monkeypatch):
        # Xi1 formed as one complex product rounds differently from the real
        # Gram product; at default tolerances every synthesized report keeps its bytes
        systems = [paper_system] + corpus[:30]
        paths = [tmp_path / f"system{i}.json" for i in range(len(systems))]
        for path, system in zip(paths, systems):
            path.write_text(serialize_system(system))

        def reports(tag):
            for i, path in enumerate(paths):
                assert main(["synthesize", str(path), "-o", str(tmp_path / f"{tag}{i}.json")]) == 0
            return [(tmp_path / f"{tag}{i}.json").read_bytes() for i in range(len(paths))]

        real_reports = reports("real")
        monkeypatch.setattr(qrealize.synthesis, "build_xi1", complex_product_xi1)
        assert reports("complex") == real_reports

    @pytest.mark.parametrize("seed", [7, -5, True])
    def test_seed_key_in_system_file_is_ignored(self, paper_file, tmp_path, seed):
        # system files for reports before 0.4.0 could set a certificate seed
        seeded = tmp_path / "seeded.json"
        seeded.write_text(json.dumps(dict(json.loads(Path(paper_file).read_text()), seed=seed)))
        plain, with_seed = tmp_path / "plain.json", tmp_path / "with_seed.json"
        assert main(["synthesize", paper_file, "-o", str(plain)]) == 0
        assert main(["synthesize", str(seeded), "-o", str(with_seed)]) == 0
        assert plain.read_bytes() == with_seed.read_bytes()

    @pytest.mark.parametrize("command", ["synthesize", "paper-example"])
    def test_seed_flag_is_a_usage_error(self, command, paper_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        argv = ["synthesize", paper_file, "-o", str(out)] if command == "synthesize" else [command]
        with pytest.raises(SystemExit) as info:
            main(argv + ["--seed", "0"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_trivial_zero_noise_matrix(self, trivial_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["synthesize", trivial_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["analysis"]["n_v"] == 2
        assert not np.array(doc["realization"]["B1"]).any()

    def test_unwritable_output_is_io_error(self, paper_file, tmp_path):
        assert main(["synthesize", paper_file, "-o", str(tmp_path / "no" / "x.json")]) == 2

    @pytest.mark.parametrize("fixture", ["paper_file", "trivial_file"])
    def test_report_schema_is_pinned(self, fixture, request, tmp_path):
        # the exact keys at each level: a field added or dropped is a version bump
        out = tmp_path / "report.json"
        assert main(["synthesize", request.getfixturevalue(fixture), "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {
            "version", "tolerances", "analysis",
            "residuals", "all_passed", "realization", "certificate",
        }
        assert doc["version"] == qrealize.__version__
        # report 0.5.0 dropped symmetry_tol, the fixed roundoff bound
        assert set(doc["tolerances"]) == {"rank_rel_tol", "residual_tol"}
        # report 0.6.0 dropped the sizes, realization.n_v, certificate.r and trials;
        # report 0.11.0 added the scale exponent, 0 for every system inside the band
        assert set(doc["analysis"]) == {
            "eigenvalues_of_S", "r", "n_v", "multiplicity_noise_count", "scale_exponent",
        }
        assert doc["analysis"]["scale_exponent"] == 0
        assert set(doc["realization"]) == {"B1", "D1"}
        # report 0.7.0 replaced min_observed_rank by proven_r and eta
        assert set(doc["certificate"]) == {
            "proven_r", "eta", "lower_bound_held", "embedding_agreed",
            "term_scale", "cutoff", "sigma_r", "sigma_next",
            "decades_above_cutoff", "decades_below_cutoff", "stability_radius", "noise_profile",
        }
        assert len(doc["residuals"]) == 6
        for entry in doc["residuals"]:
            assert set(entry) == {"name", "absolute", "scale", "relative", "tol", "passed"}


def _realizable_file(tmp_path, a, b, c):
    """System file of (A - Theta S_tilde / 2, B, C), S_tilde from qrealize: S_tilde = 0, so r = 0."""
    s_tilde = compute_s_tilde(qrealize.LtiSystem(a, b, c)).S_tilde
    path = tmp_path / "realizable.json"
    path.write_text(serialize_system(qrealize.LtiSystem(a - apply_theta(s_tilde, "left") / 2, b, c)))
    return str(path)


def _seeded_matrices(n, n_u=4):
    rng = np.random.default_rng([n, n_u])
    return rng.standard_normal((n, n)), rng.standard_normal((n, n_u)), rng.standard_normal((n_u, n))


class TestRealizableSystem:
    """A system that needs no extra noise: r = 0 through count, synthesize and check."""

    @pytest.mark.parametrize("n", ["paper", 8, 32, 64])
    def test_needs_no_extra_noise(self, n, tmp_path, capsys):
        a, b, c = paper_matrices() if n == "paper" else _seeded_matrices(n)
        path, n_u = _realizable_file(tmp_path, a, b, c), b.shape[1]
        assert main(["count", path]) == 0
        # the multiplicity bound degenerates to n_u exactly when S_tilde = 0
        assert capsys.readouterr().out == f"r=0 n_v={n_u}\nmultiplicity_bound={n_u}\n"
        out = tmp_path / "report.json"
        assert main(["synthesize", path, "-o", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} (n_v={n_u}, residuals pass)\n"
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True and len(doc["residuals"]) == 6
        assert (doc["analysis"]["r"], doc["analysis"]["n_v"]) == (0, n_u)
        assert np.array(doc["realization"]["B1"]).shape == (b.shape[0], n_u)
        certificate = doc["certificate"]
        assert certificate["proven_r"] == 0
        assert certificate["lower_bound_held"] is True
        assert certificate["embedding_agreed"] is True
        # no pair to remove: no radius and an empty profile
        assert (certificate["stability_radius"], certificate["noise_profile"]) == (None, [])
        assert main(["check", path, str(out)]) == 0
        assert capsys.readouterr().out.count(" PASS\n") == 3


@pytest.fixture
def analysis_calls(monkeypatch):
    """Count compute_s_tilde calls through every qrealize namespace binding it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compute_s_tilde(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qrealize" and vars(module).get("compute_s_tilde") is compute_s_tilde:
            monkeypatch.setattr(module, "compute_s_tilde", counted)
    return calls


class TestOneAnalysisPerCommand:
    @pytest.mark.parametrize("command", ["count", "synthesize", "paper-example"])
    def test_analysis_runs_once(self, command, paper_file, tmp_path, analysis_calls):
        argv = {
            "count": ["count", paper_file],
            "synthesize": ["synthesize", paper_file, "-o", str(tmp_path / "report.json")],
            "paper-example": ["paper-example"],
        }[command]
        assert main(argv) == 0
        assert len(analysis_calls) == 1


def _seeded_file(path, n, entropy, delta=None, n_u=8, tolerances=None):
    """Write A, B, C drawn from default_rng(entropy) and any tolerances to path; with delta, A0 + delta M for A.

    A0 = A - Theta S_tilde / 2 makes S_tilde vanish (r = 0); M is drawn next.
    At n = 128 and entropy [128, 8, 0], delta = 1e-8 leaves r = 0 with the
    largest singular value 0.10 decades below the cutoff, and delta = 1e-6
    gives r = 126 with sigma_r 0.07 decades above it: each verdict sits near its cutoff.
    """
    rng = np.random.default_rng(entropy)
    a, b, c = rng.standard_normal((n, n)), rng.standard_normal((n, n_u)), rng.standard_normal((n_u, n))
    if delta is not None:
        a = a - apply_theta(compute_s_tilde(qrealize.LtiSystem(a, b, c)).S_tilde, "left") / 2
        a = a + delta * rng.standard_normal((n, n))
    path.write_text(serialize_system(qrealize.LtiSystem(a, b, c), tolerances))
    return str(path)


class TestLapackCallsPerCommand:
    @pytest.mark.parametrize("which", ["paper", "seeded64"])
    def test_count_is_one_svd_and_no_eigh(self, which, paper_file, tmp_path, lapack_calls):
        path = paper_file if which == "paper" else _seeded_file(tmp_path / "seeded64.json", 64, [64, 8, 0])
        assert main(["count", path]) == 0
        assert lapack_calls.names() == ["svd"]

    def test_synthesize_makes_no_eigh(self, paper_file, tmp_path, lapack_calls):
        # the count's SVD, the record's SVD with vectors and the two rank tests
        # of Xi2; the paper system's two lone pairs need no eigh
        assert main(["synthesize", paper_file, "-o", str(tmp_path / "report.json")]) == 0
        assert lapack_calls.names() == ["svd"] * 4


class TestParserReuse:
    def test_flags_do_not_carry_over(self, paper_file, analysis_calls):
        # one parser serves every main() call of the process
        assert main(["count", paper_file, "--rank-tol", "1e-6"]) == 0
        assert main(["count", paper_file]) == 0
        assert [policy.rank_rel_tol for _, policy in analysis_calls] == [1e-6, 1e-9]
        assert _build_parser() is _build_parser()


class TestTolerancePrecedence:
    """A flag overrides the system file, which overrides the defaults."""

    def _with_tolerances(self, paper_file, tmp_path, **tolerances):
        doc = dict(json.loads(Path(paper_file).read_text()), tolerances=tolerances)
        path = tmp_path / "tolerances.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_rank_tol(self, paper_file, tmp_path, capsys):
        # a file cutoff above the smaller singular value pair lowers r
        path = self._with_tolerances(paper_file, tmp_path, rank_rel_tol=0.5)
        assert main(["count", path]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "r=2 n_v=4"
        assert main(["count", path, "--rank-tol", "1e-9"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "r=4 n_v=6"

    def test_residual_tol(self, paper_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report)]) == 0
        # residuals are ~1e-16, so a file bar of 1e-20 fails the check
        path = self._with_tolerances(paper_file, tmp_path, rank_rel_tol=0.5, residual_tol=1e-20)
        assert main(["check", path, str(report)]) == 1
        # each flag overrides its own key only
        assert main(["check", path, str(report), "--rank-tol", "1e-9"]) == 1
        assert main(["check", path, str(report), "--residual-tol", "1e-8"]) == 0

    def test_tiny_residual_tol_still_writes_the_report(self, paper_file, tmp_path, capsys):
        # residual_tol judges the six residuals only: the report is written
        # and names the ones that fail
        path = self._with_tolerances(paper_file, tmp_path, residual_tol=1e-20)
        report = tmp_path / "report.json"
        assert main(["synthesize", path, "-o", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (
            f"wrote {report} (n_v=6, residuals FAIL: state_rebuild, commutation)\n"
        )
        doc = json.loads(report.read_text())
        assert doc["all_passed"] is False
        assert [e["name"] for e in doc["residuals"] if not e["passed"]] == [
            "state_rebuild",
            "commutation",
        ]

    def test_rank_tol_that_drops_a_pair_writes_a_failing_report(
        self, paper_file, tmp_path, capsys
    ):
        # a cutoff of 0.5 drops the smaller eigenvalue of Xi2; the factor
        # cannot rebuild it, and the reported residuals say so, while the
        # certificate proves the r the cutoff leaves. So too on the n = 8
        # system of default_rng([8, 2, 1]), whose second Xi2 eigenvalue lies
        # between the cutoffs under T/4 and T/2
        rng = np.random.default_rng([8, 2, 1])
        loose8 = tmp_path / "loose8.json"
        loose8.write_text(serialize_system(
            qrealize.LtiSystem(*(rng.standard_normal(shape) for shape in ((8, 8), (8, 2), (2, 8)))),
            tolerances={"rank_rel_tol": 0.5},
        ))
        for path in (self._with_tolerances(paper_file, tmp_path, rank_rel_tol=0.5), str(loose8)):
            report = tmp_path / "report.json"
            assert main(["synthesize", path, "-o", str(report)]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out == (
                f"wrote {report} (n_v=4, residuals FAIL: state_rebuild, commutation)\n"
            )
            doc = json.loads(report.read_text())
            assert doc["all_passed"] is False
            assert doc["tolerances"]["rank_rel_tol"] == 0.5
            certificate = doc["certificate"]
            assert certificate["proven_r"] == doc["analysis"]["r"] == 2, path
            assert certificate["lower_bound_held"] is True and certificate["embedding_agreed"] is True

    def test_rank_tol_below_roundoff_names_the_tolerance(self, paper_file, tmp_path, capsys):
        # count accepts the cutoff; Xi2's rank test aborts synthesis and
        # names rank_rel_tol as the floor, after the sub-roundoff warning
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report), "--rank-tol", "1e-300"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        warning, line = captured.err.splitlines()
        assert warning.startswith("warning: rank_rel_tol 1e-300 is below unit roundoff")
        assert line.startswith("error: Xi2 ") and "rank_rel_tol" in line
        assert not report.exists()

    def test_rank_tol_1e_16_counts_and_then_fails_the_xi2_rank_test(
        self, paper_file, tmp_path, capsys
    ):
        # the README's example: count passes at a cutoff below roundoff, and
        # synthesis stops at Xi2's rank test, which counts a roundoff eigenvalue
        assert main(["count", paper_file, "--rank-tol", "1e-16"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "r=4 n_v=6"
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report), "--rank-tol", "1e-16"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        warning, line = captured.err.splitlines()
        assert warning == (
            "warning: rank_rel_tol 1e-16 is below unit roundoff 2^-53 = 1.1102230246251565e-16; "
            "rounding, not the input, decides the rank tests"
        )
        assert line == (
            "error: Xi2 has numerical rank 3, expected r/2 = 2 (floor: rank_rel_tol 1e-16 "
            "times max(largest |eigenvalue|, T/2) 1.290e+00)"
        )
        assert not report.exists()

    def test_final_policy_below_roundoff_warns_where_it_ranks(self, paper_file, tmp_path, capsys):
        # the warning reads the policy after the flags are laid over the file;
        # check ranks nothing, so it never warns, and stdout does not change
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report)]) == 0
        assert main(["count", paper_file]) == 0
        clean = capsys.readouterr().out.splitlines()[-2:]
        low = self._with_tolerances(paper_file, tmp_path, rank_rel_tol=1e-17)
        for argv, warns in (
            (["count", low], True),
            (["count", low, "--rank-tol", "1e-9"], False),
            (["count", paper_file, "--rank-tol", "2.2e-16"], False),
            (["count", paper_file, "--rank-tol", "1.1e-16"], True),
            (["count", paper_file, "--rank-tol", "1.11e-16"], True),
            (["paper-example", "--rank-tol", "1e-17"], True),
            (["check", low, str(report)], False),
        ):
            main(argv)
            captured = capsys.readouterr()
            assert captured.err.startswith("warning: rank_rel_tol") is warns, argv
            assert captured.err.count("warning:") == warns, argv
            # the tolerance and the roundoff never print alike
            printed = re.findall(r"rank_rel_tol (\S+) is below unit roundoff 2\^-53 = (\S+);", captured.err)
            assert [tol != roundoff for tol, roundoff in printed] == [True] * warns, argv
            if argv[0] == "count":
                assert captured.out.splitlines() == clean, argv


@pytest.mark.parametrize("which", ["system", "report"])
def test_non_utf8_file_is_one_error_line(paper_file, tmp_path, capsys, which):
    report = tmp_path / "report.json"
    assert main(["synthesize", paper_file, "-o", str(report)]) == 0
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe" + Path(paper_file).read_text().encode("utf-16-le"))
    capsys.readouterr()
    if which == "system":
        assert main(["count", str(bad)]) == 1
        argv = ["check", str(bad), str(report)]
    else:
        argv = ["check", paper_file, str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == (2 if which == "system" else 1)
    assert all(line.startswith(f"error: {bad} is not UTF-8") for line in captured.err.splitlines())


@pytest.mark.parametrize("which", ["system", "report"])
def test_deeply_nested_file_is_one_error_line(paper_file, tmp_path, capsys, which):
    # json.loads raises RecursionError, not JSONDecodeError, past the recursion limit
    report = tmp_path / "report.json"
    assert main(["synthesize", paper_file, "-o", str(report)]) == 0
    deep = tmp_path / "deep.json"
    deep.write_text('{"A": ' + "[" * 100_000 + "]" * 100_000 + "}")
    capsys.readouterr()
    if which == "system":
        assert main(["count", str(deep)]) == 1
        argv = ["check", str(deep), str(report)]
    else:
        argv = ["check", paper_file, str(deep)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == (2 if which == "system" else 1)
    assert all(
        line.startswith("error: invalid JSON: nested too deeply") for line in captured.err.splitlines()
    )


@pytest.mark.parametrize(
    "which, text, message",
    [
        (
            "system",
            '{"A": [[0, 1], []], "B": [[0, 0], [0, 0]], "C": [[0, 0], [0, 0]]}',
            "A row 1 must be a non-empty array",
        ),
        ("report", "[1, 2]", "top-level document must be a JSON object"),
        ("report", '{"realization": [1, 2]}', "realization must be a JSON object"),
    ],
    ids=["empty-row", "report-document", "report-realization"],
)
def test_misshapen_document_is_one_error_line(paper_file, tmp_path, capsys, which, text, message):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = ["count", str(bad)] if which == "system" else ["check", paper_file, str(bad)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _as_0_6_0(doc, system):
    """Edit a report in place to the 0.6.0 form: min_observed_rank in place of proven_r and eta."""
    doc["version"] = "0.6.0"
    certificate = doc["certificate"]
    del certificate["proven_r"], certificate["eta"]
    certificate["min_observed_rank"] = doc["analysis"]["r"] // 2


def _as_0_5_0(doc, system):
    """Edit a report in place to the 0.5.0 form: the sizes, realization.n_v, certificate.r and trials."""
    _as_0_6_0(doc, system)
    doc["version"] = "0.5.0"
    doc["system"] = {"n": system.n, "n_u": system.n_u, "n_y": system.n_y}
    doc["realization"]["n_v"] = doc["analysis"]["n_v"]
    doc["certificate"].update(r=doc["analysis"]["r"], trials=2)


class TestCheck:
    def test_synthesized_report_round_trips(self, paper_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["synthesize", paper_file, "-o", str(report)])
        assert main(["check", paper_file, str(report)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

    def _assert_check_reads_old_report(self, paper_file, tmp_path, capsys, make_old):
        """check passes on the report make_old edits to an older version, as on today's.

        It prints the same three PASS lines and reads the same B1 and D1 bits
        from the older layout: every version before 0.10.0 wrote its report
        indented, one value per line.
        """
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report)]) == 0
        capsys.readouterr()
        assert main(["check", paper_file, str(report)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3 and all(line.endswith(" PASS") for line in lines)
        doc = json.loads(report.read_text())
        make_old(doc, parse_system_document(Path(paper_file).read_text()).system)
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert main(["check", paper_file, str(old)]) == 0
        assert capsys.readouterr().out.splitlines() == lines
        for matrix, old_matrix in zip(parse_realization(report.read_text()), parse_realization(old.read_text())):
            assert np.array_equal(matrix, old_matrix)
            assert np.array_equal(np.signbit(matrix), np.signbit(old_matrix))

    def test_accepts_a_0_9_0_report(self, paper_file, tmp_path, capsys):
        # 0.9.0 reports hold the keys of 0.10.0; only their layout changed
        self._assert_check_reads_old_report(
            paper_file, tmp_path, capsys, lambda doc, system: doc.update(version="0.9.0")
        )

    def test_accepts_a_0_7_0_report(self, paper_file, tmp_path, capsys):
        # 0.7.0 reports hold the keys of 0.10.0; only how the eigenpairs, S_tilde and B1 were computed changed
        self._assert_check_reads_old_report(
            paper_file, tmp_path, capsys, lambda doc, system: doc.update(version="0.7.0")
        )

    def test_accepts_a_0_6_0_report(self, paper_file, tmp_path, capsys):
        # 0.6.0 certificates held min_observed_rank, the least real-embedding rank
        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, _as_0_6_0)

    def test_accepts_a_0_5_0_report(self, paper_file, tmp_path, capsys):
        # 0.5.0 reports also held the sizes, realization.n_v, certificate.r and trials
        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, _as_0_5_0)

    def test_accepts_a_0_1_0_report(self, paper_file, tmp_path, capsys):
        # 0.1.0 reports also held the seed, the input matrices and S_tilde
        def make_old(doc, system):
            _as_0_5_0(doc, system)
            doc.update(version="0.1.0", seed=0)
            doc["system"].update({key: _real_lists(getattr(system, key)) for key in "ABC"})
            doc["analysis"]["S_tilde"] = _real_lists(compute_s_tilde(system).S_tilde)

        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, make_old)

    def test_accepts_a_0_2_0_report(self, paper_file, tmp_path, capsys):
        # 0.2.0 reports also held the seed, R and Lambda, the latter as [re, im] pairs
        def make_old(doc, system):
            _as_0_5_0(doc, system)
            rz, _ = synthesize_realization(system)
            doc.update(version="0.2.0", seed=0)
            doc["realization"].update(
                R=_real_lists(rz.R), Lambda=np.stack((rz.Lambda.real, rz.Lambda.imag), -1).tolist()
            )

        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, make_old)

    def test_accepts_a_0_3_0_report(self, paper_file, tmp_path, capsys):
        # 0.3.0 reports also held the certificate seed
        def make_old(doc, system):
            _as_0_5_0(doc, system)
            doc.update(version="0.3.0", seed=0)

        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, make_old)

    def test_accepts_a_0_4_0_report(self, paper_file, tmp_path, capsys):
        # 0.4.0 reports also held symmetry_tol and the 202-candidate sampler
        # certificate, here as the 0.4.0 paper report wrote them
        def make_old(doc, system):
            _as_0_5_0(doc, system)
            doc.update(version="0.4.0")
            doc["tolerances"]["symmetry_tol"] = 1e-12
            doc["certificate"] = {
                "embedding_agreed": True,
                "lower_bound_held": True,
                "min_observed_rank": 2,
                "r": 4,
                "trials": 202,
            }

        self._assert_check_reads_old_report(paper_file, tmp_path, capsys, make_old)

    def test_zeroed_b1_fails_naming_output_coupling(self, paper_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["synthesize", paper_file, "-o", str(report)])
        doc = json.loads(report.read_text())
        doc["realization"]["B1"] = np.zeros((4, 6)).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["check", paper_file, str(bad)]) == 1
        out = capsys.readouterr().out
        assert any("output_coupling" in line and "FAIL" in line for line in out.splitlines())

    @pytest.mark.parametrize("alpha", [1.0, 1e-165, 1e-250])
    def test_doubled_noise_columns_fail_commutation_at_any_scale(self, tmp_path, capsys, alpha):
        # (alpha A, sqrt(alpha) B, sqrt(alpha) C) keeps r; at 1e-165 and 1e-250
        # every entry of the commutation terms would square to an underflow,
        # and check, like synthesize, measures the system and B1 rescaled by
        # a power of 4. B1[:, n_y:] (n_y = 2) doubled misses by the same 0.755
        a, b, c = paper_matrices()
        path = tmp_path / "scaled.json"
        path.write_text(serialize_system(qrealize.LtiSystem(alpha * a, np.sqrt(alpha) * b, np.sqrt(alpha) * c)))
        report = tmp_path / "report.json"
        assert main(["synthesize", str(path), "-o", str(report)]) == 0
        doc = json.loads(report.read_text())
        b1 = np.array(doc["realization"]["B1"])
        b1[:, 2:] *= 2.0
        doc["realization"]["B1"] = b1.tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", str(path), str(bad)]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line == "commutation      relative=7.550e-01 tol=1.0e-08 FAIL"

    def test_overflowing_b1_fails_without_nan_or_warning(self, paper_file, tmp_path, capsys):
        # B1 times 1e200 overflows the commutation products and the norms of
        # the output coupling: an infinite or invalid residual or scale is a
        # relative residual of inf, and nothing reaches stderr
        report = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(report)]) == 0
        realization = json.loads(report.read_text())["realization"]
        huge = tmp_path / "huge.json"
        huge.write_text(json.dumps({"B1": (1e200 * np.array(realization["B1"])).tolist(), "D1": realization["D1"]}))
        capsys.readouterr()
        assert main(["check", paper_file, str(huge)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "commutation      relative=inf tol=1.0e-08 FAIL",
            "output_coupling  relative=inf tol=1.0e-08 FAIL",
            "feedthrough      relative=0.000e+00 tol=1.0e-08 PASS",
        ]

    def test_wrong_d1_fails_feedthrough(self, paper_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {"B1": np.zeros((4, 6)).tolist(), "D1": np.zeros((2, 6)).tolist()}
            )
        )
        assert main(["check", paper_file, str(bad)]) == 1
        assert "feedthrough" in capsys.readouterr().out

    def test_shape_mismatch_is_domain_error(self, paper_file, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"B1": np.zeros((3, 6)).tolist(), "D1": np.eye(2, 6).tolist()})
        )
        assert main(["check", paper_file, str(bad)]) == 1

    def test_residual_tol_flag_tightens_check(self, paper_file, tmp_path):
        report = tmp_path / "report.json"
        main(["synthesize", paper_file, "-o", str(report)])
        # residuals are ~1e-16, so an absurdly tight bar flips the verdict
        assert main(["check", paper_file, str(report), "--residual-tol", "1e-20"]) == 1

    @pytest.mark.parametrize("value", ["inf", "1.0", "2"])
    def test_out_of_range_residual_tol_is_rejected(self, paper_file, tmp_path, capsys, value):
        # a B1 scaled by 1.5 fails commutation at relative ~0.6; a residual
        # tolerance of 1 or more would pass it
        report = tmp_path / "report.json"
        main(["synthesize", paper_file, "-o", str(report)])
        doc = json.loads(report.read_text())
        doc["realization"]["B1"] = (1.5 * np.array(doc["realization"]["B1"])).tolist()
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check", paper_file, str(bad), "--residual-tol", value]) == 1
        captured = capsys.readouterr()
        assert "invalid tolerance override" in captured.err
        assert captured.out == ""


class TestPaperExample:
    def test_runs_clean(self, capsys):
        assert main(["paper-example"]) == 0
        out = capsys.readouterr().out
        assert "r=4 n_v=6" in out
        assert "reference match" in out and "PASS" in out
        assert "certificate: stability_radius=2.112e-01 decades_above_cutoff=8.06 bound_held=PASS" in out
        assert "trials=" not in out
        assert "FAIL" not in out

    def test_embedded_system_matches_fixture(self, paper_system):
        sys = example_system()
        assert np.array_equal(sys.A, paper_system.A)
        assert np.array_equal(sys.B, paper_system.B)
        assert np.array_equal(sys.C, paper_system.C)

    def test_rank_tol_flag_is_plumbed(self, capsys):
        # a cutoff above the smallest singular value pair lowers r
        assert main(["paper-example", "--rank-tol", "0.5"]) == 1
        assert "r=2 n_v=4" in capsys.readouterr().out

    def test_tiny_residual_tol_prints_every_residual(self, capsys):
        assert main(["paper-example", "--residual-tol", "1e-20"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = [line for line in captured.out.splitlines() if " tol=1.0e-20 " in line]
        assert [line.split()[0] for line in lines] == [
            "state_rebuild",
            "input_rebuild",
            "output_rebuild",
            "commutation",
            "output_coupling",
            "feedthrough",
        ]
        assert "bound_held=PASS" in captured.out

    @pytest.mark.parametrize("corruption", ["rotated", "shifted"])
    def test_corrupted_record_fails_the_certificate(self, capsys, monkeypatch, corruption):
        # the certificate reads a record whose eigenpairs do not verify: two
        # rows of U turned by 0.3 between d = 0.645 and -0.645, or d_0 moved by 0.3
        def corrupt(skew):
            if corruption == "rotated":
                return rotated_record(skew, 0, skew.system.n - 1, 0.3)
            return shifted_record(skew, 0, 0.3)

        cert = minimality_certificate(corrupt(compute_s_tilde(example_system())))
        assert cert.proven_r < 4

        def certify_corrupted(skew):
            return minimality_certificate(corrupt(skew))

        monkeypatch.setattr(qrealize.cli, "minimality_certificate", certify_corrupted)
        assert main(["paper-example"]) == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("certificate: ")
        assert last.endswith(f" bound_held=FAIL embedding_agreed=FAIL proven_r={cert.proven_r}")


def _readme_blocks(language=r"\w*"):
    """The fenced code blocks of README.md in ``language``, dedented, each ending in a newline."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(rf"^( *)```{language}\n(.*?)^\1```", text, flags=re.M | re.S)
    return [re.sub(f"(?m)^{indent}", "", body) for indent, body in blocks]


def test_readme_quotes_count_and_check_verbatim(paper_file, tmp_path, capsys):
    # a roundoff change must update the README's quoted output with it
    blocks = _readme_blocks()
    assert main(["count", paper_file]) == 0
    assert capsys.readouterr().out in blocks
    report = tmp_path / "report.json"
    assert main(["synthesize", paper_file, "-o", str(report)]) == 0
    capsys.readouterr()
    assert main(["check", paper_file, str(report)]) == 0
    assert capsys.readouterr().out in blocks


def test_readme_quotes_the_paper_example_certificate_verbatim(capsys):
    assert main(["paper-example"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("certificate: ") and last + "\n" in _readme_blocks()


def test_readme_library_use_runs_as_documented():
    # the README's one python block, with its commented counts printed
    (code,) = _readme_blocks("python")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code + "print((r, n_v))\n"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert proc.stdout.splitlines()[-1] == "(2, 4)"


def test_readme_rebuilds_s_tilde_as_documented(paper_file):
    # reports no longer hold S_tilde; the README names the line that rebuilds it
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (line,) = re.findall(r"`(compute_s_tilde\(parse_system_document\(text\)[^`]*)`", text)
    namespace = {"compute_s_tilde": compute_s_tilde, "parse_system_document": parse_system_document}
    rebuilt = eval(line, namespace, {"text": Path(paper_file).read_text()})
    assert np.array_equal(rebuilt, compute_s_tilde(example_system()).S_tilde)


def test_readme_rebuilds_the_oscillator_as_documented(paper_file, tmp_path):
    # reports no longer hold R and Lambda; the README names the line that rebuilds them
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (line,) = re.findall(r"`(oscillator\(parse_system_document\(text\)[^`]*)`", text)
    report = tmp_path / "report.json"
    assert main(["synthesize", paper_file, "-o", str(report)]) == 0
    namespace = {
        "oscillator": qrealize.oscillator,
        "parse_system_document": parse_system_document,
        "parse_realization": parse_realization,
    }
    values = {"text": Path(paper_file).read_text(), "report": report.read_text()}
    r_mat, lam = eval(line, namespace, values)
    system = example_system()
    rz, _ = synthesize_realization(system)
    assert np.array_equal(r_mat, rz.R) and np.array_equal(lam, rz.Lambda)
    # they give back A = 2 Theta (R + Im(Lambda^dag Lambda)) to roundoff, and
    # C exactly from the leading n_y/2 rows, C = P^T [2 Re; 2 Im]
    a = 2.0 * apply_theta(r_mat + (lam.conj().T @ lam).imag, "left")
    assert np.linalg.norm(a - system.A) <= 1e-12 * np.linalg.norm(system.A)
    c = np.empty_like(system.C)
    c[0::2], c[1::2] = 2.0 * lam[: system.n_y // 2].real, 2.0 * lam[: system.n_y // 2].imag
    assert np.array_equal(c, system.C)


_THREAD_RUNNER = """\
import contextlib, io, json, pathlib, sys
from qrealize.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        return main([str(arg) for arg in argv]), out.getvalue(), err.getvalue()
root, out_dir = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
print(json.dumps({path.stem: [run("count", path), run("synthesize", path, "-o", out_dir / path.name)]
                  for path in root.glob("*.json")}))
"""


@pytest.fixture(scope="module")
def blas_thread_runs(tmp_path_factory):
    """[(OUT_DIR of the reports, {system: [count, synthesize]})] under 1, then 2 BLAS threads.

    OpenBLAS reads OPENBLAS_NUM_THREADS when numpy loads it, so one interpreter per
    thread count runs _THREAD_RUNNER: [exit, stdout, stderr] of each main() call.
    """
    root = tmp_path_factory.mktemp("blas_threads")
    (root / "paper.json").write_text(serialize_system(example_system()))
    for n, seed in [(32, 0), (32, 1), (64, 0), (64, 1)]:
        _seeded_file(root / f"{n}-{seed}.json", n, 1000 * n + seed)
    _seeded_file(root / "64-tight.json", 64, [64, 8, 0], tolerances={"rank_rel_tol": 1e-14})
    for n, seed, delta in [(128, 0, None), (128, 1, None), (192, 0, None), (128, 0, 1e-8), (128, 0, 1e-6)]:
        _seeded_file(root / f"{n}-{seed}-{delta}.json", n, [n, 8, seed], delta)
    runs = []
    for threads in ("1", "2"):
        (root / threads).mkdir()
        cmd = [sys.executable, "-c", _THREAD_RUNNER, str(root), str(root / threads)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append((root / threads, json.loads(proc.stdout)))
    return runs


@pytest.mark.parametrize("n", [32, 64, "64-tight", "paper"])
def test_report_bytes_do_not_depend_on_blas_threads(blas_thread_runs, n):
    """synthesize writes the same bytes under 1 and 2 OpenBLAS threads, and count agrees with them.

    Kept at n <= 64, where the bytes agree. At n = 128 a second thread
    changes the order in which BLAS sums the products behind the residuals
    and the certificate's eta, which move in their last digits (B1 and the
    eigenvalues do not), so the README promises identical bytes only per
    thread count there. "64-tight" sets rank_rel_tol 1e-14 in its system
    file, where the rank tests of Xi2 are tight and Xi1 comes from a BLAS
    symmetric rank-k update. count reads r, n_v and the multiplicity bound
    off one SVD of S_tilde, the report its analysis off the record's SVD
    with vectors: they agree, and the bound follows the README's cluster
    rule, gap = 1e-7 max(max|w|, T/4), on the report's eigenvalues_of_S.
    """
    names = {"paper": ["paper"], "64-tight": ["64-tight"]}.get(n, [f"{n}-0", f"{n}-1"])
    for name in names:
        synths = [results[name][1] for _, results in blas_thread_runs]
        assert [code for code, _, _ in synths] == [0, 0], synths
        one, two = [(out_dir / f"{name}.json").read_bytes() for out_dir, _ in blas_thread_runs]
        assert one == two, name
        doc = json.loads(one)
        analysis, w = doc["analysis"], doc["analysis"]["eigenvalues_of_S"]
        gap = 1e-7 * max(max(map(abs, w)), doc["certificate"]["term_scale"] / 4)
        n_lambda = sum(x <= min(w) + gap for x in w)
        bound = analysis["multiplicity_noise_count"]
        assert bound == analysis["n_v"] - analysis["r"] + 2 * (len(w) - n_lambda), name
        count = blas_thread_runs[0][1][name][0]
        assert count == [0, f"r={analysis['r']} n_v={analysis['n_v']}\nmultiplicity_bound={bound}\n", ""]


@pytest.mark.parametrize(
    ("n", "seed", "delta"),
    [
        pytest.param(128, 0, None, id="128"),
        pytest.param(128, 1, None, id="128-seed1"),
        pytest.param(192, 0, None, id="192"),
        pytest.param(128, 0, 1e-8, id="128-near-r0"),
        pytest.param(128, 0, 1e-6, id="128-near-r126"),
    ],
)
def test_counts_and_verdicts_do_not_depend_on_blas_threads(blas_thread_runs, n, seed, delta):
    """r, n_v, the multiplicity bound, every verdict and proven_r agree under 1 and 2 threads.

    The second half of the README's thread contract: above n = 64 the
    report bytes may differ between thread counts, the answers may not.
    Besides generic seeded systems (r = n), nearly realizable ones put the
    "is r = 0?" decision and a rank short of n near their cutoffs.
    """
    seen = []
    name = f"{n}-{seed}-{delta}"
    for out_dir, results in blas_thread_runs:
        (code, stdout, err), synth = results[name]
        assert code == 0, err
        doc = json.loads((out_dir / f"{name}.json").read_text())
        analysis, certificate = doc["analysis"], doc["certificate"]
        seen.append(dict(
            count=stdout, exit=synth[0], all_passed=doc["all_passed"],
            r=analysis["r"], n_v=analysis["n_v"], multiplicity=analysis["multiplicity_noise_count"],
            residuals=[(e["name"], e["passed"]) for e in doc["residuals"]],
            flags=(certificate["lower_bound_held"], certificate["embedding_agreed"]),
            proven_r=certificate["proven_r"],
        ))
    assert seen[0] == seen[1]
    r, bound = {None: (n, 8 + 2 * (n - 1)), 1e-8: (0, 8), 1e-6: (126, 92)}[delta]
    assert seen[0]["count"] == f"r={r} n_v={r + 8}\nmultiplicity_bound={bound}\n"
    assert seen[0]["exit"] == 0 and seen[0]["all_passed"] and seen[0]["proven_r"] == r
