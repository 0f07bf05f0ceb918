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

from conftest import overflow_matrices, paper_matrices
from qrealize.cli import _build_parser, example_system, main
from qrealize.realizability import compute_s_tilde


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


@pytest.mark.parametrize("name", ["entries", "norm"])
@pytest.mark.parametrize("command", ["count", "synthesize"])
def test_overflowing_system_is_one_error_line(tmp_path, capsys, name, command):
    a, b, c = overflow_matrices()[name]
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}))
    out = tmp_path / "report.json"
    argv = {"count": ["count", str(path)], "synthesize": ["synthesize", str(path), "-o", str(out)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv[command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: skew invariant overflows")
    assert "rescale" in captured.err
    assert not out.exists()


class TestSynthesize:
    def test_writes_passing_report(self, paper_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["synthesize", paper_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True
        assert doc["analysis"]["n_v"] == 6
        assert len(doc["realization"]["B1"][0]) == 6
        assert "residuals pass" in capsys.readouterr().out

    def test_reports_are_byte_identical(self, paper_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["synthesize", paper_file, "-o", str(first), "--seed", "5"]) == 0
        assert main(["synthesize", paper_file, "-o", str(second), "--seed", "5"]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_nothing_structural(self, paper_file, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        main(["synthesize", paper_file, "-o", str(out1), "--seed", "1"])
        main(["synthesize", paper_file, "-o", str(out2), "--seed", "2"])
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["realization"] == b["realization"]
        assert a["certificate"]["lower_bound_held"] and b["certificate"]["lower_bound_held"]

    def test_trivial_zero_noise_matrix(self, trivial_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["synthesize", trivial_file, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["analysis"]["n_v"] == 2
        assert not np.array(doc["realization"]["B1"]).any()

    def test_unwritable_output_is_io_error(self, paper_file, tmp_path):
        assert main(["synthesize", paper_file, "-o", str(tmp_path / "no" / "x.json")]) == 2


class TestNegativeSeed:
    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_synthesize_rejects(self, paper_file, tmp_path, capsys, where):
        out = tmp_path / "report.json"
        argv = ["synthesize", paper_file, "-o", str(out)]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            a, b, c = paper_matrices()
            seeded = tmp_path / "seeded.json"
            seeded.write_text(
                json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist(), "seed": -5})
            )
            argv[1] = str(seeded)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "seed" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_paper_example_rejects(self, capsys):
        assert main(["paper-example", "--seed", "-3"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "seed" in captured.err
        assert captured.out == ""


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


class TestParserReuse:
    def test_flags_do_not_carry_over(self, paper_file, analysis_calls):
        # one parser serves every main() call of the process
        assert main(["count", paper_file, "--rank-tol", "1e-6"]) == 0
        assert main(["count", paper_file]) == 0
        assert [policy.rank_rel_tol for _, policy in analysis_calls] == [1e-6, 1e-9]
        assert _build_parser() is _build_parser()


class TestCheck:
    def test_synthesized_report_round_trips(self, paper_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        main(["synthesize", paper_file, "-o", str(report)])
        assert main(["check", paper_file, str(report)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 3 and "FAIL" not in out

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
        assert "bound_held=PASS" in out
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


def _readme_blocks():
    """The fenced code blocks of README.md, dedented, each ending in a newline."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^( *)```\w*\n(.*?)^\1```", text, flags=re.M | re.S)
    return [re.sub(f"(?m)^{indent}", "", body) for indent, body in blocks]


def test_readme_quotes_count_and_check_verbatim(paper_file, tmp_path, capsys):
    # a roundoff change must update the README's quoted output with it
    blocks = _readme_blocks()
    assert main(["count", paper_file]) == 0
    assert capsys.readouterr().out in blocks
    report = tmp_path / "report.json"
    assert main(["synthesize", paper_file, "-o", str(report), "--seed", "0"]) == 0
    capsys.readouterr()
    assert main(["check", paper_file, str(report)]) == 0
    assert capsys.readouterr().out in blocks


@pytest.mark.parametrize("n", [32, 64])
def test_report_bytes_do_not_depend_on_blas_threads(tmp_path, n):
    """synthesize writes the same bytes under 1 and 2 OpenBLAS threads.

    Kept at n <= 64, where the bytes agree. At n = 128 a second thread
    changes the order in which BLAS sums the products behind
    realization.Lambda, B1 and two residuals, and their last digits move,
    so the README promises identical bytes only per thread count there.
    """
    for seed in range(2):
        rng = np.random.default_rng(1000 * n + seed)
        doc = {
            "A": rng.standard_normal((n, n)).tolist(),
            "B": rng.standard_normal((n, 8)).tolist(),
            "C": rng.standard_normal((8, n)).tolist(),
        }
        system = tmp_path / f"system{seed}.json"
        system.write_text(json.dumps(doc))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"report{seed}_{threads}.json"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            cmd = [sys.executable, "-m", "qrealize.cli", "synthesize", str(system), "-o", str(out)]
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], f"seed {seed}"
