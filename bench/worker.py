"""One workload in one fresh process: set up, measure, check, report.

Started by run.py with the BLAS thread count and PYTHONPATH already in the
environment; prints one JSON object as the last line of its output.

    python3 bench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --started MONOTONIC [--probe]

``--started`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so set-up time includes interpreter start-up.

Timings are calibrated against machine-speed drift. On a shared 2-vCPU
Xeon virtual machine the same pure-Python loop runs 12-17 ms from one
two-second window to the next, and raw medians of 10-second windows spread
by 20 % or more. So a fixed reference job (a Python loop, three 48x48
SVDs and a 160x160 eigh) is timed just before every op, and each op's wall
time is rescaled to the speed at which that job takes REFERENCE_MS:
``calibrated = wall * REFERENCE_MS / reference``. The same windows then
spread by 2-5 %. Raw wall times are reported alongside.
"""

from __future__ import annotations

import argparse
import time

_started_here = time.monotonic()

import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports qrealize and qrealize.cli)
from tracing import Tracer, per_layer_metrics  # noqa: E402

_imported = time.monotonic()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

# The tail latency needs at least this many samples beyond it; each
# workload fixes the percentile that leaves that many at its op rate.
TAIL_BEYOND = 10


# Nominal time of the reference job: about its median on a shared 2-vCPU
# Xeon virtual machine with one BLAS thread.
REFERENCE_MS = 7.0
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((48, 48))
_SYMMETRIC = _rng.standard_normal((160, 160))
_SYMMETRIC = _SYMMETRIC + _SYMMETRIC.T
# Bound before tracing, so the reference is never traced.
_svd, _eigh = np.linalg.svd, np.linalg.eigh


def reference_seconds() -> float:
    """Wall time of the fixed reference job.

    It mixes interpreter work with small and mid-sized LAPACK calls, as the
    workloads do; a 160x160 eigh tracks the n=192 workload's drift best.
    """
    start = time.perf_counter()
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(3):
        _svd(_SMALL, compute_uv=False)
    _eigh(_SYMMETRIC)
    return time.perf_counter() - start


class Tally:
    """Outcomes of the ops in one measuring window."""

    def __init__(self):
        self.latencies = []  # wall seconds, successful ops only
        self.calibrated = []  # calibrated seconds, successful ops only
        self.references = []  # reference job seconds, every op
        self.attempted = 0
        self.timed = 0.0  # wall seconds inside timed calls, all attempted ops
        self.timed_calibrated = 0.0
        self.loud = Counter()  # raised or nonzero exit: reason -> count
        self.wrong = Counter()  # exit 0 but failed the output check
        self.report_bytes = 0

    @property
    def failed(self) -> int:
        return sum(self.loud.values()) + sum(self.wrong.values())

    def goodput(self) -> float:
        """Successful ops per calibrated second of timed calls."""
        return len(self.latencies) / self.timed_calibrated if self.timed_calibrated else 0.0


def _gist(message: str) -> str:
    """A failure message with its numbers masked, so like failures group."""
    return re.sub(r"\d[\d.e+-]*", "#", message.strip())[:80]


def run_op(workload, i: int, tally: Tally, tracer: Tracer | None = None) -> None:
    """One timed call, after the reference job and before its output check."""
    workload.reset(i)
    reference = reference_seconds()
    root = tracer.begin_op() if tracer else None
    start = time.perf_counter()
    try:
        outcome = workload.op(i)
        reason = None if outcome.code == 0 else f"exit {outcome.code}: {_gist(outcome.err)}"
    except Exception as exc:  # an op that raises is counted, not fatal
        outcome, reason = None, f"{type(exc).__name__}: {_gist(str(exc))}"
    elapsed = time.perf_counter() - start
    calibrated = elapsed * REFERENCE_MS / (1e3 * reference)
    tally.attempted += 1
    tally.timed += elapsed
    tally.timed_calibrated += calibrated
    tally.references.append(reference)
    problems = []
    if reason is not None:
        tally.loud[reason] += 1
    else:
        try:
            problems = workload.problems(i, outcome)
        except (OSError, ValueError) as exc:
            problems = [f"output unreadable: {exc!r}"]
        if problems:
            tally.wrong["; ".join(problems)[:120]] += 1
        else:
            tally.latencies.append(elapsed)
            tally.calibrated.append(calibrated)
            tally.report_bytes += outcome.report_bytes
    if tracer:
        tracer.end_op(root, reason is None and not problems, REFERENCE_MS / (1e3 * reference))


def measure(workload, seconds: float, tracer: Tracer | None = None) -> Tally:
    tally = Tally()
    i = 0
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        run_op(workload, i % len(workload.cases), tally, tracer)
        i += 1
    return tally


def tail(latencies: list, percentile: float) -> tuple:
    """(value, samples beyond it) of the given percentile of the latencies."""
    ordered = sorted(latencies)
    k = max(math.ceil(len(ordered) * percentile / 100) - 1, 0)
    return ordered[k], len(ordered) - 1 - k


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, setup_s: float, percentile: float) -> dict:
    value, beyond = tail(tally.calibrated, percentile)
    return {
        "metrics": {
            "setup_s": metric(setup_s, "s"),
            "goodput_ops_per_s": metric(tally.goodput(), "1/s"),
            "latency_p50_ms": metric(1e3 * statistics.median(tally.calibrated), "ms"),
            "latency_tail_ms": metric(1e3 * value, "ms"),
            "success_share": metric(len(tally.latencies) / tally.attempted, "share"),
            "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "tail_enough": beyond >= TAIL_BEYOND,
        "raw": {
            "latency_p50_ms": 1e3 * statistics.median(tally.latencies),
            "latency_tail_ms": 1e3 * tail(tally.latencies, percentile)[0],
            "goodput_ops_per_s": len(tally.latencies) / tally.timed,
        },
    }


def per_layer(tracer: Tracer, traced: Tally, untraced: Tally) -> dict:
    calls, ms, self_ms, work, ok = tracer.per_op()
    values = {}
    for name, unit, _ in per_layer_metrics():
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_ms"):
            values[name] = self_ms.get(name[: -len(".self_ms")], 0.0)
        elif name.endswith(".ms"):
            values[name] = ms.get(name[: -len(".ms")], 0.0)
    values["lapack.work_n3"] = work
    values["io.report_bytes"] = traced.report_bytes / max(ok, 1)
    values["trace.goodput_untraced_ops_per_s"] = untraced.goodput()
    values["trace.goodput_traced_ops_per_s"] = traced.goodput()
    values["trace.overhead_share"] = (
        1.0 - traced.goodput() / untraced.goodput() if untraced.goodput() else 0.0
    )
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {"metrics": {name: metric(values[name], units[name]) for name in units}, "absent": tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, default=_started_here)
    parser.add_argument("--probe", action="store_true", help="set up, time set-up, and stop")
    args = parser.parse_args(argv)

    source = os.path.join(ROOT, "src", "qrealize")
    if os.path.dirname(os.path.abspath(workloads.qrealize.__file__)) != source:
        print(f"qrealize was imported from {workloads.qrealize.__file__}, not {source}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        kind = workloads.WORKLOADS[args.workload]
        prepare = time.perf_counter()
        workload = kind(workdir, args.seed, count=1 if args.probe else None)
        prepare = time.perf_counter() - prepare

        warm = Tally()
        run_op(workload, 0, warm)
        if warm.failed:
            print(f"warm-up op failed: {dict(warm.loud) or dict(warm.wrong)}", file=sys.stderr)
            return 1
        setup_raw = (_imported - args.started) + warm.timed
        reference = statistics.median(reference_seconds() for _ in range(5))
        result = {
            "setup_s": setup_raw * REFERENCE_MS / (1e3 * reference),
            "setup_raw_s": setup_raw,
            "prepare_s": prepare,
        }
        if args.probe:
            print(json.dumps(result))
            return 0

        if args.trace:
            untraced = measure(workload, args.seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                tally = measure(workload, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            result.update(per_layer(tracer, tally, untraced))
            trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json.gz")
            tracer.write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, ROOT)
        else:
            tally = measure(workload, args.seconds)
            if not tally.latencies:
                print("no op succeeded", file=sys.stderr)
                return 1
            result.update(end_to_end(tally, result["setup_s"], workload.tail_percentile))
            if hasattr(workload, "r0_probe"):
                result["r0_probe"] = workload.r0_probe()
        result.update(
            attempted=tally.attempted,
            failed=tally.failed,
            wrong=sum(tally.wrong.values()),
            failures=dict(tally.loud + tally.wrong),
            succeeded=len(tally.latencies),
            reference_ms=1e3 * statistics.median(tally.references),
            reference_nominal_ms=REFERENCE_MS,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
