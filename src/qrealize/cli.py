"""Command line front end.

Four subcommands: ``count`` prints the minimal additional-noise count for
a system file, ``synthesize`` writes a full verified realization report,
``check`` re-verifies a stored (B1, D1) pair against a system, and
``paper-example`` runs the built-in worked example end to end. Exit codes
are stable for scripting: 0 all checks pass, 1 domain or validation
failure, 2 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from .errors import ParseError, QRealizeError
from .io import parse_realization, parse_system_document, report_document, serialize_report
from .linalg import DEFAULT_POLICY, TolerancePolicy
from .realizability import LtiSystem, check_physical_realizability, compute_s_tilde
from .synthesis import minimality_certificate, synthesize_realization

# Reference values for the built-in example's skew invariant, quoted to
# the 4 decimal places the source prints.
EXAMPLE_S_TILDE = np.array(
    [
        [0.0, 2.3788, 0.0, 0.6472],
        [-2.3788, 0.0, -0.6472, 0.0],
        [0.0, 0.6472, 0.0, 0.5],
        [-0.6472, 0.0, -0.5, 0.0],
    ]
)


def example_system() -> LtiSystem:
    """The built-in two-mode-pair example system (n=4, n_u=n_y=2)."""
    i2 = np.eye(2)
    a = np.block([[-1.3894 * i2, -0.4472 * i2], [-0.2 * i2, -0.25 * i2]])
    b = np.vstack([-0.4472 * i2, np.zeros((2, 2))])
    c = np.hstack([-0.4472 * i2, np.zeros((2, 2))])
    return LtiSystem(a, b, c)


# The tolerance flags: the TolerancePolicy field each one overrides, the flag
# and its help, to which the field's default is appended.
_TOLERANCE_FLAGS = (
    ("rank_rel_tol", "--rank-tol", "relative singular value cutoff for numerical ranks"),
    ("residual_tol", "--residual-tol", "relative threshold for identity residuals"),
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc


def _with_flags(policy: TolerancePolicy, args) -> TolerancePolicy:
    """``policy`` with the tolerance flags the command line set laid over it."""
    changes = {
        field: getattr(args, field)
        for field, _, _ in _TOLERANCE_FLAGS
        if getattr(args, field) is not None
    }
    try:
        return dataclasses.replace(policy, **changes)
    except ValueError as exc:
        raise ParseError(f"invalid tolerance override: {exc}") from exc


def _load_system(path: str, args):
    """The system of a system file and its policy: flags over file over defaults."""
    doc = parse_system_document(_read_text(path))
    return doc.system, _with_flags(doc.policy, args)


def _analysis(system: LtiSystem, policy: TolerancePolicy):
    """compute_s_tilde(system, policy), warning on stderr when rank_rel_tol is below unit roundoff."""
    if policy.rank_rel_tol < 2.0**-53:
        print(
            f"warning: rank_rel_tol {policy.rank_rel_tol} is below unit roundoff 2^-53 = {2.0**-53}; "
            "rounding, not the input, decides the rank tests",
            file=sys.stderr,
        )
    return compute_s_tilde(system, policy)


def _print_residuals(report) -> None:
    for e in report:
        verdict = "PASS" if e.passed else "FAIL"
        print(f"{e.name:<16} relative={e.relative:.3e} tol={e.tol:.1e} {verdict}")


def _optional(value, spec: str) -> str:
    return "none" if value is None else format(value, spec)


def cmd_count(args) -> int:
    skew = _analysis(*_load_system(args.path, args))
    print(f"r={skew.rank_r} n_v={skew.n_v}")
    print(f"multiplicity_bound={skew.multiplicity_count}")
    return 0


def cmd_synthesize(args) -> int:
    skew = _analysis(*_load_system(args.path, args))
    realization, report = synthesize_realization(skew)

    out = report_document(realization, report, minimality_certificate(skew))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(serialize_report(out))
    failed = ", ".join(e.name for e in report if not e.passed)
    print(f"wrote {args.out} (n_v={skew.n_v}, residuals {f'FAIL: {failed}' if failed else 'pass'})")
    return 0 if report.all_passed else 1


def cmd_check(args) -> int:
    system, policy = _load_system(args.system_path, args)
    b1, d1 = parse_realization(_read_text(args.realization_path))
    report = check_physical_realizability(system, b1, d1, policy)
    _print_residuals(report)
    return 0 if report.all_passed else 1


def cmd_paper_example(args) -> int:
    skew = _analysis(example_system(), _with_flags(DEFAULT_POLICY, args))
    print("S_tilde =")
    for row in skew.S_tilde:
        print("  " + "  ".join(f"{x:8.4f}" for x in row))
    deviation = float(np.abs(skew.S_tilde - EXAMPLE_S_TILDE).max())
    match_ok = deviation <= 1e-4
    print(f"reference match: max deviation {deviation:.2e} {'PASS' if match_ok else 'FAIL'}")

    print(f"r={skew.rank_r} n_v={skew.n_v}")
    counts_ok = skew.rank_r == 4 and skew.n_v == 6
    print(f"multiplicity_bound={skew.multiplicity_count}")

    _, report = synthesize_realization(skew)
    _print_residuals(report)

    certificate = minimality_certificate(skew)
    cert_ok = certificate.lower_bound_held and certificate.embedding_agreed
    print(
        f"certificate: stability_radius={_optional(certificate.stability_radius, '.3e')} "
        f"decades_above_cutoff={_optional(certificate.decades_above_cutoff, '.2f')} "
        f"bound_held={'PASS' if certificate.lower_bound_held else 'FAIL'} "
        f"embedding_agreed={'PASS' if certificate.embedding_agreed else 'FAIL'} "
        f"proven_r={certificate.proven_r}"
    )
    return 0 if (match_ok and counts_ok and report.all_passed and cert_ok) else 1


def _add_tolerance_flags(parser) -> None:
    for field, flag, text in _TOLERANCE_FLAGS:
        default = np.format_float_scientific(getattr(DEFAULT_POLICY, field), trim="-", exp_digits=1)
        parser.add_argument(
            flag,
            type=float,
            dest=field,
            metavar=flag[2:].replace("-", "_").upper(),
            help=f"{text} (default {default})",
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args starts each parse from its defaults."""
    parser = argparse.ArgumentParser(
        prog="qrealize",
        description="Minimal quantum-noise realization of LTI systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="minimal additional noise channel count")
    count.add_argument("path", help="system JSON file")
    _add_tolerance_flags(count)
    count.set_defaults(func=cmd_count)

    synth = sub.add_parser("synthesize", help="construct and verify a realization")
    synth.add_argument("path", help="system JSON file")
    synth.add_argument("-o", "--out", required=True, help="report output file")
    _add_tolerance_flags(synth)
    synth.set_defaults(func=cmd_synthesize)

    check = sub.add_parser("check", help="verify a stored (B1, D1) pair")
    check.add_argument("system_path", help="system JSON file")
    check.add_argument("realization_path", help="realization or report JSON file")
    _add_tolerance_flags(check)
    check.set_defaults(func=cmd_check)

    example = sub.add_parser("paper-example", help="run the built-in worked example")
    _add_tolerance_flags(example)
    example.set_defaults(func=cmd_paper_example)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QRealizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
