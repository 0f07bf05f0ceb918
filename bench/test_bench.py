"""Tests of the benchmark itself: seeded inputs, output checks, tracing."""

import json
import os

import numpy as np
import pytest

import qrealize
import tracing
import worker
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _input_bytes(kind, tmp_path, seed, count):
    workdir = tmp_path / f"{kind.name}-{seed}-{len(list(tmp_path.iterdir()))}"
    workdir.mkdir()
    workload = kind(str(workdir), seed, count=count)
    return [open(case.path, "rb").read() for case in workload.cases]


@pytest.mark.parametrize(
    "kind, count",
    [(workloads.SynthesizeCli, 8), (workloads.SynthesizeLarge, 1), (workloads.VerifyCli, 1)],
)
def test_same_seed_gives_identical_inputs(kind, count, tmp_path):
    first = _input_bytes(kind, tmp_path, 7, count)
    assert first == _input_bytes(kind, tmp_path, 7, count)
    assert first != _input_bytes(kind, tmp_path, 8, count)


def test_timed_inputs_are_generic_and_projection_is_realizable(tmp_path):
    workload = workloads.SynthesizeCli(str(tmp_path), 3)
    assert [case.r for case in workload.cases] == [32] * 8
    case = workload.cases[0]
    a, b, c = workloads.realizable_by_projection(case.a, case.b, case.c)
    assert np.linalg.norm(workloads.s_tilde(a, b, c)) <= 1e-12 * np.linalg.norm(a)


def test_r0_probe_reports_without_raising(tmp_path):
    workload = workloads.SynthesizeCli(str(tmp_path), 3, count=1)
    assert isinstance(workload.r0_probe(), str)
    assert len(workload.cases) == 1


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    """A real synthesize report for a generic system with n=8, n_u=2 (r = 8)."""
    rng = np.random.default_rng(11)
    a, b, c = rng.standard_normal((8, 8)), rng.standard_normal((8, 2)), rng.standard_normal((2, 8))
    workdir = tmp_path_factory.mktemp("report")
    system, report = str(workdir / "system.json"), str(workdir / "report.json")
    with open(system, "w", encoding="utf-8") as fh:
        fh.write(workloads.system_text(a, b, c))
    assert workloads.call_cli(["synthesize", system, "-o", report]).code == 0
    with open(report, encoding="utf-8") as fh:
        return json.load(fh), (a, b, c)


def test_untampered_report_passes(small_report):
    doc, abc = small_report
    assert workloads.report_problems(doc, *abc, r=8) == []


def _r_off_by_two(doc):
    doc["analysis"]["r"] += 2


def _flip_one_residual(doc):
    doc["residuals"][3]["passed"] = False


def _embedding_disagreed(doc):
    doc["certificate"]["embedding_agreed"] = False


def _b1_scaled(doc):
    doc["realization"]["B1"] = [[1.01 * x for x in row] for row in doc["realization"]["B1"]]


def _certificate_missing(doc):
    del doc["certificate"]


@pytest.mark.parametrize(
    "tamper",
    [_r_off_by_two, _flip_one_residual, _embedding_disagreed, _b1_scaled, _certificate_missing],
)
def test_tampered_report_is_flagged(small_report, tamper):
    doc, abc = small_report
    doc = json.loads(json.dumps(doc))
    tamper(doc)
    assert workloads.report_problems(doc, *abc, r=8)


def test_verify_output_check_flags_a_failing_line(tmp_path):
    workload = workloads.VerifyCli(str(tmp_path), 5, count=1)
    outcome = workload.op(0)
    assert workload.problems(0, outcome) == []
    failing = outcome.out.rsplit("PASS", 1)[0] + "FAIL\n"
    assert workload.problems(0, workloads.Outcome(0, failing))
    wrong_count = outcome.out.replace("r=64", "r=62", 1)
    assert workload.problems(0, workloads.Outcome(0, wrong_count))


def test_tracer_counts_each_call_once_and_restores():
    rng = np.random.default_rng(2)
    system = qrealize.LtiSystem.from_matrices(
        rng.standard_normal((6, 6)), rng.standard_normal((6, 2)), rng.standard_normal((2, 6))
    )
    original = qrealize.synthesis.compute_s_tilde
    tracer = tracing.Tracer()
    tracer.install()
    try:
        root = tracer.begin_op()
        qrealize.synthesize_realization(system)
        tracer.end_op(root, True)
    finally:
        tracer.uninstall()
    assert qrealize.synthesis.compute_s_tilde is original
    calls, _, self_ms, _, ok = tracer.per_op()
    assert ok == 1 and tracer.absent == []
    assert calls["synthesis.synthesize_realization"] == 1
    assert calls["realizability.compute_s_tilde"] == 1
    assert calls["lapack.svd"] == calls["linalg.numerical_rank"] == 4
    assert all(value >= 0.0 for value in self_ms.values())


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "linalg", ("numerical_rank", "no_such_kernel"))
    monkeypatch.setitem(tracing.TRACED, "no_such_layer", ("f",))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["linalg.no_such_kernel", "no_such_layer.f"]


def test_benchmark_json_names_every_metric_printed():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    tally = worker.Tally()
    tally.latencies = tally.calibrated = [0.1] * 20
    tally.attempted, tally.timed, tally.timed_calibrated = 20, 2.0, 2.0
    printed = worker.end_to_end(tally, 1.0, 90.0)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: m["unit"] for name, m in printed.items()
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.per_layer_metrics()
    ]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
