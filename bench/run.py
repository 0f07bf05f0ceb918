"""Benchmark of qrealize: three closed-loop workloads, end to end or traced.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Workloads (one client, each op waits for the previous one):

  synthesize-cli    qrealize.cli.main(["synthesize", SYS, "-o", OUT]) at
                    n=32, n_u=8, on generic inputs (r = n); one realizable
                    input (r = 0) is synthesized untimed after the run and
                    its outcome printed, outside attempted/failed
  synthesize-large  synthesize_realization(LtiSystem.from_matrices(...))
                    at n=192, n_u=16; no certificate, no file I/O
  verify-cli        main(["count", SYS]) then main(["check", SYS, REPORT])
                    at n=64, n_u=8, on reports the program wrote untimed

Each workload runs in fresh processes started from here with one BLAS
thread and the repository's ``src/`` first on PYTHONPATH. With --trace 0 a
run prints the end-to-end metrics; set-up time is the median over several
processes. With --trace 1 it measures half the time untraced and half with
a span around every public layer function, and prints per-layer figures
per successful op plus the tracing overhead.

Timings are calibrated against the machine's speed drift: each op's wall
time is rescaled by a fixed reference job timed just before it (see
worker.py); raw wall times are printed beside the calibrated ones.

Every op's output is checked outside the timed window. An op that raises or
exits nonzero, or whose output fails the check, counts as failed. The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics; ``correct`` is false when an op exited 0 with a wrong output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synthesize-cli", "synthesize-large", "verify-cli")

# One BLAS thread: with two OpenBLAS threads on a two-core machine single
# calls swing by an order of magnitude from one call to the next.
BLAS_THREADS = "1"
# Extra processes that only set up, so set-up time is a median.
SETUP_PROBES = 6
# Every run must end within this many seconds.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_worker(args, deadline: float, probe: bool) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--seconds={args.seconds}",
        f"--trace={args.trace}",
    ]
    if probe:
        argv.append("--probe")
    started = time.monotonic()
    proc = subprocess.run(
        argv + [f"--started={started!r}"],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - started, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, deadline: float) -> dict:
    probes = []
    if not args.trace:
        probes = [run_worker(args, deadline, probe=True) for _ in range(SETUP_PROBES)]
    result = run_worker(args, deadline, probe=False)
    if probes:
        probes.append(result)
        result["metrics"]["setup_s"]["value"] = statistics.median(p["setup_s"] for p in probes)
        result["raw"]["setup_s"] = statistics.median(p["setup_raw_s"] for p in probes)
        result["setups"] = len(probes)
    return result


def print_result(args, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"workload {args.workload}  seed {args.seed}  {args.seconds:g} s  "
        f"{BLAS_THREADS} BLAS thread  trace {args.trace}"
    )
    print(
        f"  failed_share = {failed / attempted:.4f}  ({failed} of {attempted} ops failed, "
        f"{result['wrong']} of them with a wrong output)"
    )
    for reason, count in sorted(result["failures"].items()):
        print(f"    {count} x {reason}")
    print(
        f"  reference job: median {result['reference_ms']:.3f} ms; timings calibrated "
        f"to {result['reference_nominal_ms']:g} ms"
    )
    notes = {
        "setup_s": f"median of {result.get('setups', 0)} set-ups",
        "latency_p50_ms": f"{result['succeeded']} successful ops",
        "latency_tail_ms": (
            f"p{result.get('tail_percentile', 0):g}, {result.get('tail_beyond', 0)} samples "
            f"beyond it, {result['succeeded']} successful ops"
            + ("" if result.get("tail_enough", True) else "; TOO FEW beyond it")
        ),
    }
    raw = result.get("raw", {})
    for name, m in result["metrics"].items():
        note = f"  ({notes[name]})" if name in notes else ""
        if name in raw:
            note += f"  raw {raw[name]:.6g}"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{note}")
    if "r0_probe" in result:
        print(f"  r = 0 probe (untimed, not in attempted/failed): {result['r0_probe']}")
    if result.get("absent"):
        print(f"  absent at this commit: {', '.join(result['absent'])}")
    if result.get("trace_file"):
        print(f"  spans written to {result['trace_file']}")
    summary = {
        "correct": result["wrong"] == 0 and result["succeeded"] > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }
    print(json.dumps(summary), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qrealize", "__init__.py")):
        print(f"no qrealize sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    for name in names:
        args.workload = name
        try:
            result = run_workload(args, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_result(args, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
