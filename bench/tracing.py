"""Spans around the public functions of each qrealize layer, from outside.

Each traced function gets exactly one wrapper, bound in every qrealize
module namespace that holds the original, so a call is counted once
whichever module makes it. numpy.linalg's svd, eigh and eigvalsh are
wrapped too, as the ``lapack`` layer. Spans (name, parent, start, end)
stay in memory; per-layer figures are derived from them at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# Layer -> public functions timed at its boundary.
TRACED = {
    "cli": ("main",),
    "io": ("parse_system_document", "parse_realization", "report_document", "serialize_report"),
    "realizability": (
        "compute_s_tilde",
        "minimal_noise_count",
        "multiplicity_noise_count",
        "check_physical_realizability",
    ),
    "synthesis": (
        "synthesize_realization",
        "minimality_certificate",
        "build_xi1",
        "build_xi2",
        "build_lambda_b1",
    ),
    "linalg": (
        "hermitian_eig",
        "numerical_rank",
        "psd_low_rank_factor",
        "complex_rank_via_real_embedding",
    ),
}
LAPACK = ("svd", "eigh", "eigvalsh")

OP = "op"


def _work_n3(a) -> int:
    """Computed kernel work: m * n * min(m, n) per matrix, n^3 when square."""
    shape = np.shape(a)
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def per_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    names += [f"lapack.{fn}" for fn in LAPACK]
    metrics = []
    for name in names:
        metrics.append((f"{name}.calls", "count", "lower"))
        metrics.append((f"{name}.ms", "ms", "lower"))
    metrics += [(f"{layer}.self_ms", "ms", "lower") for layer in TRACED]
    metrics += [
        ("lapack.work_n3", "count", "lower"),
        ("io.report_bytes", "bytes", "lower"),
        ("trace.goodput_untraced_ops_per_s", "1/s", "higher"),
        ("trace.goodput_traced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_share", "share", "lower"),
    ]
    return metrics


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.work = []
        self.stack = []
        self.ops = []  # (index of the op's root span, succeeded, time scale)
        self.absent = []
        self._restore = []

    def _open(self, name: str, work: int = 0) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.work.append(work)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name, work(args[0]) if work and args else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def begin_op(self) -> int:
        return self._open(OP)

    def end_op(self, index: int, succeeded: bool, scale: float = 1.0) -> None:
        """Close an op's root span; its spans' times are multiplied by ``scale``."""
        self._close(index)
        self.ops.append((index, succeeded, scale))

    def install(self) -> None:
        """Bind one wrapper per traced function in every namespace holding it."""
        namespaces = [m for key, m in sys.modules.items() if key.split(".")[0] == "qrealize"]
        for layer, fns in TRACED.items():
            try:
                module = importlib.import_module(f"qrealize.{layer}")
            except ImportError:
                self.absent += [f"{layer}.{fn}" for fn in fns]
                continue
            for fn in fns:
                original = getattr(module, fn, None)
                if not callable(original):
                    self.absent.append(f"{layer}.{fn}")
                    continue
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._bind(ns, attr, wrapper)
        for fn in LAPACK:
            original = getattr(np.linalg, fn)
            self._bind(np.linalg, fn, self.wrap(f"lapack.{fn}", original, _work_n3))

    def _bind(self, ns, attr: str, value) -> None:
        self._restore.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._restore):
            setattr(ns, attr, value)
        self._restore.clear()

    def per_op(self) -> tuple:
        """Totals per successful op: calls and ms per span name, self ms per layer.

        A span's self time is its duration minus its direct children's.
        Spans of failed ops are left out; times are scaled per op.
        """
        calls, ms, self_ms, work, ok = Counter(), Counter(), Counter(), 0, 0
        ends = [root for root, _, _ in self.ops[1:]] + [len(self.names)]
        for (root, succeeded, scale), end in zip(self.ops, ends):
            if not succeeded:
                continue
            ok += 1
            spans = range(root + 1, end)
            duration = {i: 1e3 * scale * (self.ends[i] - self.starts[i]) for i in spans}
            children = Counter()
            for i in spans:
                children[self.parents[i]] += duration[i]
            for i in spans:
                name = self.names[i]
                calls[name] += 1
                ms[name] += duration[i]
                self_ms[name.split(".")[0]] += duration[i] - children[i]
                work += self.work[i]
        count = max(ok, 1)
        calls, ms, self_ms = ({k: v / count for k, v in d.items()} for d in (calls, ms, self_ms))
        return calls, ms, self_ms, work / count, ok

    def write(self, path: str) -> None:
        """Write every span, compactly, as gzip-compressed JSON."""
        table = sorted(set(self.names))
        ids = {name: i for i, name in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        doc = {
            "columns": ["name", "parent", "start_s", "end_s", "work_n3"],
            "names": table,
            "spans": [
                [ids[n], p, s - t0, e - t0, w]
                for n, p, s, e, w in zip(self.names, self.parents, self.starts, self.ends, self.work)
            ],
            "ops_columns": ["root_span", "succeeded", "time_scale"],
            "ops": self.ops,
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
