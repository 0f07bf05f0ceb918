"""JSON ingestion of systems and serialization of analysis reports.

One self-describing format covers both directions: matrices are nested
row-major arrays of finite doubles. A system file's optional tolerances
are the fields of TolerancePolicy, which alone names them, sets their
defaults and validates them. Report serialization is deterministic
(one line, sorted keys, trailing newline) so re-runs with the same input
and tolerances produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from itertools import chain

import numpy as np

from . import __version__
from .errors import ParseError
from .linalg import TolerancePolicy
from .realizability import LtiSystem

__all__ = [
    "SystemDocument",
    "parse_system_document",
    "parse_realization",
    "serialize_system",
    "report_document",
    "serialize_report",
]

# Exact types of the numbers json.loads returns; bool, an int subclass, is not one.
_NUMBER_TYPES = {int, float}


@dataclass(frozen=True)
class SystemDocument:
    """Parsed input file: the system and its tolerance policy.

    ``policy`` holds the file's tolerances over the TolerancePolicy
    defaults; command line flags, if any, are applied over it by the CLI.
    """

    system: LtiSystem
    policy: TolerancePolicy


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond the int_max_str_digits limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the recursion limit
        raise ParseError(f"invalid JSON: nested too deeply ({exc})") from exc


def _parse_matrix(name: str, node) -> np.ndarray:
    """Nested-list matrix with row/column context on every complaint.

    A well-formed matrix is validated in bulk: one scan of entry types, one
    conversion and one finiteness test. Only a matrix that fails them is
    walked entry by entry, to name its first fault.
    """
    if (
        isinstance(node, list)
        and node
        and all(isinstance(row, list) and row and len(row) == len(node[0]) for row in node)
        and set(map(type, chain.from_iterable(node))) <= _NUMBER_TYPES
    ):
        try:
            matrix = np.array(node, dtype=float)
        except OverflowError:  # an integer beyond the float range
            matrix = None
        if matrix is not None and np.isfinite(matrix).all():
            return matrix
    raise _matrix_fault(name, node)


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _matrix_fault(name: str, node) -> ParseError:
    """The ParseError for the first fault of a matrix that failed bulk validation."""
    if not isinstance(node, list) or not node:
        return ParseError(f"{name} must be a non-empty array of rows")
    width = None
    for i, row in enumerate(node):
        if not isinstance(row, list) or not row:
            return ParseError(f"{name} row {i} must be a non-empty array")
        if width is None:
            width = len(row)
        elif len(row) != width:
            return ParseError(f"{name} row {i} has {len(row)} entries, expected {width}")
        for j, entry in enumerate(row):
            if type(entry) not in _NUMBER_TYPES:
                return ParseError(f"{name} entry at row {i}, column {j} is not a number")
            if not _is_finite(entry):
                return ParseError(f"{name} entry at row {i}, column {j} is not finite")
    raise AssertionError(f"{name} failed bulk validation but has no faulty entry")


def parse_system_document(text: str) -> SystemDocument:
    """Parse and validate a system file into a SystemDocument.

    Other top-level keys, such as the "seed" that files for reports before
    0.4.0 could set, are ignored, and so is a "symmetry_tol" tolerance.
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    for key in ("A", "B", "C"):
        if key not in doc:
            raise ParseError(f"missing required matrix {key!r}")
    a = _parse_matrix("A", doc["A"])
    b = _parse_matrix("B", doc["B"])
    c = _parse_matrix("C", doc["C"])
    system = LtiSystem(a, b, c)

    tolerances = doc.get("tolerances", {})
    if isinstance(tolerances, dict):
        tolerances = {key: value for key, value in tolerances.items() if key != "symmetry_tol"}
    return SystemDocument(system=system, policy=_tolerance_policy(tolerances))


def _tolerance_policy(tolerances) -> TolerancePolicy:
    """The policy a "tolerances" object sets, or the ParseError of the parser and writer alike."""
    if not isinstance(tolerances, dict):
        raise ParseError("tolerances must be a JSON object")
    unknown = sorted(set(tolerances) - {field.name for field in fields(TolerancePolicy)})
    if unknown:
        raise ParseError(f"unknown tolerance keys: {', '.join(unknown)}")
    for key, value in tolerances.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ParseError(f"tolerance {key} must be a number")
    try:
        return TolerancePolicy(**tolerances)
    except ValueError as exc:
        raise ParseError(f"tolerance {exc}") from exc


def parse_realization(text: str):
    """Extract (B1, D1) from a realization file.

    Accepts either a bare object with "B1" and "D1" keys or a full report
    document as written by serialize_report (which nests them under
    "realization").
    """
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be a JSON object")
    node = doc.get("realization", doc)
    if not isinstance(node, dict):
        raise ParseError("realization must be a JSON object")
    for key in ("B1", "D1"):
        if key not in node:
            raise ParseError(f"missing required matrix {key!r}")
    return _parse_matrix("B1", node["B1"]), _parse_matrix("D1", node["D1"])


def _real_lists(m) -> list:
    return np.atleast_2d(np.asarray(m, dtype=float)).tolist()


def serialize_system(sys, tolerances=None) -> str:
    """Render a system (plus optional tolerance overrides) as one line of JSON with sorted keys.

    Tolerances the parser would refuse, or ignore ("symmetry_tol"), raise its
    ParseError; the others are written as the policy's floats.
    """
    doc = {"A": _real_lists(sys.A), "B": _real_lists(sys.B), "C": _real_lists(sys.C)}
    if tolerances:
        policy = _tolerance_policy(tolerances)
        doc["tolerances"] = {key: getattr(policy, key) for key in tolerances}
    return json.dumps(doc, sort_keys=True) + "\n"


def report_document(realization, residuals, certificate) -> dict:
    """Assemble the full report as plain JSON-ready data.

    The tolerances and the analysis (the spectrum of S, r, n_v, the
    multiplicity count and the scale exponent k) come from the analysis
    record the realization carries, and each appears once. B1 and D1 are the
    system's as given; every number derived from S_tilde or a residual describes
    the analysed system (4^k A, 2^k B, 2^k C). The tolerances (floats), each
    residual entry and the certificate are written field by field (_fields), so
    their dataclasses alone name the keys; a certificate value that does not
    exist is null. The report holds what the run adds to its input, not
    the input: A, B and C, and with them the sizes n, n_u and n_y, stay in
    the system file, S_tilde is rebuilt from it by compute_s_tilde, and R
    and Lambda from it and the report's B1 by synthesis.oscillator.
    Residual values go in exactly as computed (shortest round-trip float
    encoding), so nothing is lost to formatting.
    """
    skew = realization.skew
    return {
        "version": __version__,
        "tolerances": _fields(skew.policy),
        "analysis": {
            "eigenvalues_of_S": [float(x) for x in skew.eigenvalues],
            "r": int(skew.rank_r),
            "n_v": int(skew.n_v),
            "multiplicity_noise_count": int(skew.multiplicity_count),
            "scale_exponent": int(skew.scale_exponent),
        },
        "residuals": [_fields(e) for e in residuals],
        "all_passed": residuals.all_passed,
        "realization": {
            "B1": _real_lists(realization.B1),
            "D1": _real_lists(realization.D1),
        },
        "certificate": _fields(certificate),
    }


def _fields(obj) -> dict:
    """A dataclass's fields by name, values as they are (dataclasses.asdict deep-copies each)."""
    return {field.name: getattr(obj, field.name) for field in fields(obj)}


def serialize_report(doc: dict) -> str:
    """Deterministic text form of a report document: one line of JSON with sorted keys."""
    return json.dumps(doc, sort_keys=True) + "\n"
