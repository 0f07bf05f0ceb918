"""Tests for JSON parsing and report serialization."""

import importlib
import inspect
import json
import pkgutil
import re
import typing
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import qrealize
from conftest import paper_matrices
from qrealize import (
    LtiSystem,
    ParseError,
    ValidationError,
    compute_s_tilde,
    minimality_certificate,
    synthesize_realization,
)
from qrealize.io import (
    SystemDocument,
    _real_lists,
    parse_realization,
    parse_system_document,
    report_document,
    serialize_report,
    serialize_system,
)
from qrealize.cli import example_system
from qrealize.linalg import DEFAULT_POLICY, TolerancePolicy

HUGE = "1" + "0" * 400  # an integer literal beyond the float range
# arrays nested past any recursion limit: json.loads raises RecursionError
DEEP = "[" * 100_000 + "]" * 100_000


def _paper_text(**extra):
    a, b, c = paper_matrices()
    doc = {"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}
    doc.update(extra)
    return json.dumps(doc)


class TestParseSystem:
    def test_parses_paper_fixture(self):
        sys = parse_system_document(_paper_text()).system
        assert sys.n == 4 and sys.n_u == 2 and sys.n_y == 2

    def test_roundtrip_is_identity(self):
        # parse -> serialize -> parse preserves every entry bit for bit
        text = _paper_text(tolerances={"rank_rel_tol": 1e-7})
        text = text.replace("-0.4472", "-0.44720000000000104")
        doc = parse_system_document(text)
        doc2 = parse_system_document(serialize_system(doc.system, tolerances=asdict(doc.policy)))
        assert np.array_equal(doc.system.A, doc2.system.A)
        assert np.array_equal(doc.system.B, doc2.system.B)
        assert np.array_equal(doc.system.C, doc2.system.C)
        assert doc.policy == doc2.policy

    def test_roundtrip_awkward_values(self):
        a = [[0.1, 1.0 / 3.0], [-1e-300, 7.000000000000001]]
        text = json.dumps({"A": a, "B": [[1, 0], [0, 1]], "C": [[1, 0], [0, 1]]})
        doc = parse_system_document(text)
        doc2 = parse_system_document(serialize_system(doc.system))
        assert np.array_equal(doc.system.A, doc2.system.A)

    def test_malformed_json_names_position(self):
        with pytest.raises(ParseError, match=r"line 1, column"):
            parse_system_document("{not json").system

    def test_top_level_must_be_object(self):
        with pytest.raises(ParseError, match="object"):
            parse_system_document("[1, 2]").system

    def test_missing_matrix(self):
        with pytest.raises(ParseError, match="'C'"):
            parse_system_document(json.dumps({"A": [[0.0]], "B": [[0.0]]})).system

    def test_empty_matrix_rejected(self):
        with pytest.raises(ParseError, match="non-empty"):
            parse_system_document(json.dumps({"A": [], "B": [[0.0]], "C": [[0.0]]})).system

    @pytest.mark.parametrize("row", [[], 0.0], ids=["empty", "not-a-list"])
    def test_row_that_is_not_a_non_empty_array_is_named(self, row):
        bad = {"A": [[0.0, 1.0], row], "B": [[0.0], [0.0]], "C": [[0.0, 0.0]]}
        with pytest.raises(ParseError, match=r"^A row 1 must be a non-empty array$"):
            parse_system_document(json.dumps(bad)).system

    def test_ragged_rows_named(self):
        bad = {"A": [[0.0, 1.0], [2.0]], "B": [[0.0], [0.0]], "C": [[0.0, 0.0]]}
        with pytest.raises(ParseError, match="A row 1"):
            parse_system_document(json.dumps(bad)).system

    @pytest.mark.parametrize("entry", ['"x"', "true", "null"])
    def test_non_number_entry_has_row_col(self, entry):
        text = '{"A": [[0.0, %s], [0.0, 0.0]], "B": [[0],[0]], "C": [[0, 0]]}' % entry
        with pytest.raises(ParseError, match="row 0, column 1"):
            parse_system_document(text).system

    def test_non_finite_entry_rejected(self):
        # python's json accepts Infinity, the matrix contract does not
        text = '{"A": [[0.0, Infinity], [0.0, 0.0]], "B": [[0],[0]], "C": [[0, 0]]}'
        with pytest.raises(ParseError, match="not finite"):
            parse_system_document(text).system

    @pytest.mark.parametrize("where", ["A", "B1"])
    def test_huge_integer_entry_is_not_finite(self, where):
        # json.loads keeps it an int; converting it to a float overflows
        if where == "A":
            text = '{"A": [[0.0, %s], [0.0, 0.0]], "B": [[0],[0]], "C": [[0, 0]]}' % HUGE
            with pytest.raises(ParseError, match="A entry at row 0, column 1 is not finite"):
                parse_system_document(text).system
        else:
            text = '{"B1": [[1.0, 0.0], [0.0, %s]], "D1": [[1.0, 0.0]]}' % HUGE
            with pytest.raises(ParseError, match="B1 entry at row 1, column 1 is not finite"):
                parse_realization(text)

    def test_first_fault_is_named_in_row_major_order(self):
        # a finite-looking matrix with a later type fault and an earlier
        # overflow: the walk names the overflow, as the entry-by-entry check did
        text = '{"A": [[0.0, %s], ["x", 0.0]], "B": [[0],[0]], "C": [[0, 0]]}' % HUGE
        with pytest.raises(ParseError, match="row 0, column 1 is not finite"):
            parse_system_document(text).system
        text = '{"A": [[0.0, "x"], [0.0]], "B": [[0],[0]], "C": [[0, 0]]}'
        with pytest.raises(ParseError, match="row 0, column 1 is not a number"):
            parse_system_document(text).system

    def test_integer_beyond_digit_limit_is_parse_error(self):
        # json.loads raises a plain ValueError past int_max_str_digits (4300)
        text = '{"A": [[%s]], "B": [[0]], "C": [[0]]}' % ("1" * 5000)
        with pytest.raises(ParseError, match="invalid JSON"):
            parse_system_document(text).system

    @pytest.mark.parametrize(
        "text", ['{"A": %s, "B": [[0]], "C": [[0]]}' % DEEP, DEEP], ids=["matrix", "document"]
    )
    def test_deeply_nested_json_is_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid JSON: nested too deeply"):
            parse_system_document(text)

    def test_odd_output_dimension_rejected(self):
        doc = {
            "A": np.zeros((4, 4)).tolist(),
            "B": np.zeros((4, 2)).tolist(),
            "C": np.zeros((3, 4)).tolist(),
        }
        with pytest.raises(ValidationError):
            parse_system_document(json.dumps(doc)).system


class TestToleranceAndSeedHandling:
    def test_unknown_tolerance_key(self):
        with pytest.raises(ParseError, match="unknown tolerance"):
            parse_system_document(_paper_text(tolerances={"bogus": 1e-9}))

    def test_nonpositive_tolerance(self):
        with pytest.raises(ParseError, match="positive"):
            parse_system_document(_paper_text(tolerances={"residual_tol": 0.0}))

    def test_huge_integer_tolerance_names_key(self):
        text = _paper_text()[:-1] + ', "tolerances": {"rank_rel_tol": %s}}' % HUGE
        with pytest.raises(ParseError, match="tolerance rank_rel_tol must be finite"):
            parse_system_document(text)

    def test_huge_integer_tolerance_is_not_echoed(self):
        text = _paper_text()[:-1] + ', "tolerances": {"rank_rel_tol": %s}}' % HUGE
        with pytest.raises(ParseError, match="401 digits") as info:
            parse_system_document(text)
        assert len(str(info.value)) <= 120

    @pytest.mark.parametrize("value", ["1.0", "2.0", "1e400"])
    def test_tolerance_of_one_or_more_is_rejected(self, value):
        # the file rule is TolerancePolicy's, checked at parse time
        text = _paper_text()[:-1] + ', "tolerances": {"rank_rel_tol": %s}}' % value
        rule = r"tolerance rank_rel_tol must be finite and in \(0, 1\)"
        with pytest.raises(ParseError, match=rule):
            parse_system_document(text)

    def test_non_numeric_tolerance(self):
        with pytest.raises(ParseError, match="number"):
            parse_system_document(_paper_text(tolerances={"residual_tol": "small"}))

    @pytest.mark.parametrize(
        "tolerances", [{}, {"rank_rel_tol": 1e-6}, {"rank_rel_tol": 1e-6, "residual_tol": 1e-5}]
    )
    def test_policy_is_file_values_over_defaults(self, tolerances):
        # the command line flags go over this policy; see test_cli
        policy = parse_system_document(_paper_text(tolerances=tolerances)).policy
        assert policy == replace(DEFAULT_POLICY, **tolerances)
        assert all(type(value) is float for value in asdict(policy).values())

    @pytest.mark.parametrize("value", [1e-8, 2.0, "loose"])
    def test_symmetry_tol_key_is_ignored(self, value):
        # no longer a tolerance (linalg.ROUNDOFF_TOL): like "seed", the key is not read
        tolerances = {"symmetry_tol": value, "residual_tol": 1e-6}
        policy = parse_system_document(_paper_text(tolerances=tolerances)).policy
        assert policy == replace(DEFAULT_POLICY, residual_tol=1e-6)

    @pytest.mark.parametrize(
        "tolerances, message",
        [
            ({"foo": 1e-3}, "unknown tolerance keys: foo"),
            ({"symmetry_tol": 1e-8}, "unknown tolerance keys: symmetry_tol"),
            ({"rank_rel_tol": 0.0}, "tolerance rank_rel_tol must be finite and in"),
            ({"residual_tol": float("nan")}, "tolerance residual_tol must be finite and in"),
            ({"rank_rel_tol": True}, "tolerance rank_rel_tol must be a number"),
            ([("rank_rel_tol", 1e-6)], "tolerances must be a JSON object"),
        ],
        ids=["unknown", "legacy", "zero", "nan", "bool", "pairs"],
    )
    def test_writer_refuses_what_the_parser_refuses(self, tolerances, message):
        # the same rule, same message: a file the writer would write with
        # these tolerances (the legacy key aside) is one the parser rejects
        with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
            serialize_system(example_system(), tolerances=tolerances)
        if "symmetry_tol" not in tolerances:
            text = _paper_text()[:-1] + ', "tolerances": %s}' % json.dumps(tolerances)
            with pytest.raises(ParseError, match=f"^{re.escape(message)}"):
                parse_system_document(text)

    def test_writer_output_parses_to_its_tolerances(self):
        tolerances = {"rank_rel_tol": 1e-6, "residual_tol": 1e-5}
        doc = parse_system_document(serialize_system(example_system(), tolerances=tolerances))
        assert doc.policy == TolerancePolicy(**tolerances)


class TestParseRealization:
    def test_bare_object(self):
        b1, d1 = parse_realization(
            json.dumps({"B1": [[1.0, 0.0]], "D1": [[1.0, 0.0]]})
        )
        assert b1.shape == (1, 2) and d1.shape == (1, 2)

    def test_full_report_document(self, small_system):
        text = _report_text(small_system)
        b1, d1 = parse_realization(text)
        assert b1.shape == (2, 4)
        assert np.array_equal(d1, np.eye(2, 4))

    def test_missing_key(self):
        with pytest.raises(ParseError, match="'D1'"):
            parse_realization(json.dumps({"B1": [[0.0, 0.0]]}))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[1, 2]", "top-level document must be a JSON object"),
            ('{"realization": [1, 2]}', "realization must be a JSON object"),
        ],
        ids=["document", "realization"],
    )
    def test_node_that_is_not_an_object(self, text, message):
        with pytest.raises(ParseError, match=f"^{message}$"):
            parse_realization(text)

    @pytest.mark.parametrize(
        "text", ['{"B1": %s, "D1": [[1.0]]}' % DEEP, DEEP], ids=["matrix", "document"]
    )
    def test_deeply_nested_json_is_parse_error(self, text):
        with pytest.raises(ParseError, match="invalid JSON: nested too deeply"):
            parse_realization(text)


def _report(sys):
    """The realization of ``sys`` and its report document."""
    rz, report = synthesize_realization(sys)
    return rz, report_document(rz, report, minimality_certificate(rz.skew))


def _report_text(sys):
    return serialize_report(_report(sys)[1])


class TestReportDocument:
    def test_deterministic_bytes(self, paper_system):
        assert _report_text(paper_system) == _report_text(paper_system)

    def test_structure(self, paper_system):
        doc = json.loads(_report_text(paper_system))
        assert doc["version"]
        assert doc["analysis"]["r"] == 4
        assert doc["analysis"]["n_v"] == 6
        assert doc["analysis"]["multiplicity_noise_count"] == 8
        assert len(doc["analysis"]["eigenvalues_of_S"]) == 4
        assert doc["all_passed"] is True
        assert doc["certificate"]["lower_bound_held"] is True
        names = [e["name"] for e in doc["residuals"]]
        assert "commutation" in names and "output_coupling" in names
        # R and Lambda are rebuilt by oscillator, and n_v is the analysis's: none is stored
        real = doc["realization"]
        assert set(real) == {"B1", "D1"}
        assert np.array(real["B1"]).shape == (4, 6)

    def test_residuals_keep_full_precision(self, paper_system):
        _, report = synthesize_realization(paper_system)
        doc = json.loads(_report_text(paper_system))
        stored = {e["name"]: e["relative"] for e in doc["residuals"]}
        for entry in report:
            assert stored[entry.name] == entry.relative

    def test_report_without_certificate(self, small_system):
        # every report carries a certificate; a document without one is malformed
        rz, report = synthesize_realization(compute_s_tilde(small_system))
        with pytest.raises(TypeError):
            report_document(rz, report, None)


def test_pyproject_version_matches_package():
    # read by hand: tomllib is missing on Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    project = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, flags=re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, flags=re.M)
    assert version == qrealize.__version__


def test_type_hints_resolve_in_every_module():
    # every annotation names something its module can see, so
    # typing.get_type_hints works on each class and function qrealize defines
    modules = [qrealize] + [
        importlib.import_module(f"qrealize.{info.name}")
        for info in pkgutil.iter_modules(qrealize.__path__)
    ]
    defined = [
        obj
        for module in modules
        for obj in vars(module).values()
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ == module.__name__
    ]
    assert SystemDocument in defined
    unresolved = []
    for obj in defined:
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__module__}.{obj.__qualname__}: {exc}")
    assert not unresolved


def test_matrix_encoding_matches_elementwise_loops():
    # the per-element loop the array encoder replaced, kept as reference
    rng = np.random.default_rng(4)
    real = rng.standard_normal((32, 32))
    real[0, :4] = [-0.0, 1e-300, -1e300, 7.000000000000001]
    for m in (real, real[:1, :3], np.eye(2, 6), np.array([[-0.0]])):
        expected = [[float(x) for x in row] for row in np.atleast_2d(m)]
        assert json.dumps(_real_lists(m)) == json.dumps(expected)


def _listed(node):
    """The document as json.loads reads it back: tuples become lists."""
    if isinstance(node, dict):
        return {key: _listed(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_listed(item) for item in node]
    return node


def _assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _assert_one_line_of(text, doc):
    assert text.endswith("\n") and "\n" not in text[:-1]
    assert json.loads(text) == _listed(doc)


def _seeded_system(n, n_u, seed):
    rng = np.random.default_rng(seed)
    return LtiSystem(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, n_u)),
        rng.standard_normal((n_u, n)),
    )


def _assert_report_reads_back(rz, doc) -> str:
    """The text of ``doc``: one line that reads back to it and to the bits of rz's B1 and D1."""
    text = serialize_report(doc)
    _assert_one_line_of(text, doc)
    b1, d1 = parse_realization(text)
    _assert_same_bits(b1, rz.B1)
    _assert_same_bits(d1, rz.D1)
    return text


class TestEncoderMatchesJsonDumps:
    """Each writer is json.dumps with sorted keys: one line that reads back to its document."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_paper_report(self, paper_system, seed):
        # seed 0 reports the paper system itself, the others a seeded shift of its A
        shift = 1e-3 * seed * np.random.default_rng(seed).standard_normal(paper_system.A.shape)
        _assert_report_reads_back(*_report(LtiSystem(paper_system.A + shift, paper_system.B, paper_system.C)))

    @pytest.mark.parametrize("n", [4, 32, 64])
    def test_seeded_report(self, n):
        _assert_report_reads_back(*_report(_seeded_system(n, 8 if n > 4 else 2, n)))

    def test_trivial_report_with_empty_block(self, trivial_system):
        rz, doc = _report(trivial_system)
        assert rz.Lambda_b1.shape[0] == 0
        _assert_report_reads_back(rz, doc)

    def test_infinite_residual(self, small_system):
        rz, doc = _report(small_system)
        doc["residuals"][0]["relative"] = float("inf")
        doc["analysis"]["eigenvalues_of_S"][0] = float("-inf")
        text = _assert_report_reads_back(rz, doc)
        assert '"relative": Infinity' in text

    def test_serialize_system(self):
        sys = example_system()
        doc = {"A": _real_lists(sys.A), "B": _real_lists(sys.B), "C": _real_lists(sys.C)}
        for tolerances in ({}, {"rank_rel_tol": 1e-7}):
            text = serialize_system(sys, tolerances=tolerances)
            _assert_one_line_of(text, dict(doc, tolerances=tolerances) if tolerances else doc)
            parsed = parse_system_document(text)
            for key in "ABC":
                _assert_same_bits(getattr(parsed.system, key), getattr(sys, key))
            assert parsed.policy == replace(DEFAULT_POLICY, **tolerances)
