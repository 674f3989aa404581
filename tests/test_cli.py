import contextlib
import gc
import hashlib
import io
import json
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel.cli import (
    TRIALS_BOUND,
    TUPLE_BOUND,
    Flags,
    Task,
    _tuple_count,
    check_task_options,
    main,
    parse_problem,
    render_json,
    run,
    run_task,
)
from gradedkernel.errors import GradingMismatch, ProblemSyntaxError, UnknownNameError
from gradedkernel.expr import parse_series
from gradedkernel.graded_core import _REGISTRY, EXPONENT_BOUND
from gradedkernel.report import FAIL, INFO, PASS, Report, ReportEntry
from helpers import json_document, run_gk

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
CORPUS_FILES = sorted(p.stem for p in CORPUS.glob("*.gk"))


def best_parse_time(text, repeats):
    """The fastest of ``repeats`` parses of ``text``, with the cyclic garbage
    collector off, so that its passes over the live objects add no time that
    grows faster than the text."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            parse_problem(text)
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        gc.enable()


class TestParse:
    def test_minimal_file(self):
        problem = parse_problem(
            "manifold M\n  var x even 0\nend\n"
            "function f on M = x\n"
            "task bigrade f\n")
        assert "M" in problem.charts
        assert len(problem.tasks) == 1
        results, ok = run(problem, Flags())
        assert ok

    def test_declared_bigrade_mismatch(self):
        text = ("manifold M\n  var x even 0\n  var xi odd 0\nend\n"
                "function f on M parity even weight 0 = x + xi\n")
        with pytest.raises(GradingMismatch) as err:
            parse_problem(text)
        assert "line 5" in str(err.value)

    def test_unknown_name_with_line(self):
        with pytest.raises(UnknownNameError) as err:
            parse_problem("manifold M\n  var x even 0\nend\n"
                          "function f on M = x + zz\n")
        assert err.value.line == 4

    def test_syntax_error_with_line(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem("manifold M\n  var x even zero\nend\n")
        assert err.value.line == 2

    def test_missing_end(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("manifold M\n  var x even 0\n")

    def test_duplicate_name(self):
        with pytest.raises(ProblemSyntaxError):
            parse_problem("manifold M\n  var x even 0\nend\n"
                          "manifold M\n  var y even 0\nend\n")

    def test_corpus_files_parse(self):
        for stem in CORPUS_FILES:
            problem = parse_problem((CORPUS / f"{stem}.gk").read_text())
            assert problem.tasks

    @pytest.mark.parametrize("text", [
        lambda n: "manifold M\n  var x even 0\nend\n" + "".join(
            f"function f{i} on M parity even weight 0 = x\n" for i in range(n)),
        lambda n: "manifold M\n" + "".join(f"  var v{i} even 0\n" for i in range(n)) + "end\n",
    ], ids=["function-lines", "var-lines"])
    def test_many_declarations_parse_in_linear_time(self, text):
        # four times the lines take about 4 times as long to parse when each
        # name is checked against the earlier ones by lookup, and about 16
        # times as long when by a scan of them
        assert best_parse_time(text(8000), 3) / best_parse_time(text(2000), 5) < 8


class TestExitCodes:
    def test_passing_file_exits_zero(self):
        proc = run_gk(str(CORPUS / "lie2_eps0.gk"))
        assert proc.returncode == 0
        assert "summary:" in proc.stdout

    def test_failing_check_exits_one(self):
        proc = run_gk(str(CORPUS / "broken_jacobi.gk"))
        assert proc.returncode == 1
        assert "n=3" in proc.stdout

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.gk"
        bad.write_text("manifold M\n  var x even nope\nend\n")
        proc = run_gk(str(bad))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_readme_example_runs(self, tmp_path):
        section = README.read_text(encoding="utf-8").split(
            "### Problem file format (`.gk`)", 1)[1]
        example = section.split("```text\n", 1)[1].split("```", 1)[0]
        problem = tmp_path / "readme.gk"
        problem.write_text(example, encoding="utf-8")
        proc = run_gk(str(problem))
        assert "Traceback" not in proc.stderr + proc.stdout
        assert proc.returncode == 0, proc.stderr + proc.stdout

    def test_missing_file_exits_two(self):
        proc = run_gk("no_such_file.gk")
        assert proc.returncode == 2

    def test_a_file_that_is_not_utf8_exits_two(self, tmp_path):
        bad = tmp_path / "latin1.gk"
        bad.write_bytes(b"manifold M\n  var x even 0 \xff\nend\n")
        proc = run_gk(str(bad))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr + proc.stdout
        assert f"{bad} is not UTF-8 text" in proc.stderr

    def test_exponent_overflow_in_a_task_is_a_task_error(self, tmp_path):
        # the bracket {H, H} multiplies x^(bound - 1) by x^bound
        problem = tmp_path / "overflow.gk"
        problem.write_text("manifold M\n  var x even 0\nend\n"
                           "cotangent CT base M shift 1\n"
                           f"function H on CT = x^{EXPONENT_BOUND} * p_x\n"
                           "task check-master H\n", encoding="utf-8")
        proc = run_gk(str(problem))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr + proc.stdout
        assert f"ExponentOverflow: a product raises x to a power above {EXPONENT_BOUND}" \
            in proc.stdout


# a thick morphism with masters and a test function; a task appended is line 13
THICK_PROBLEM = (
    "manifold M1\n  var x even -1\nend\n"
    "manifold M2\n  var y even -1\nend\n"
    "cotangent CT1 base M1 shift -2\n"
    "cotangent CT2 base M2 shift -2\n"
    "function H1 on CT1 = p_x\n"
    "function H2 on CT2 = p_y\n"
    "function g on M2 = y^2\n"
    "thick Phi source M1 target M2 shift -2 kind even = x * q_y + 1/2 * q_y^2\n"
)
THICK_TASK_LINE = 13

# a bracket family and a function; a task appended is line 10
FAMILY_PROBLEM = (
    "manifold PiV\n  var xi1 odd 1\n  var xi2 odd 1\nend\n"
    "vectorfield Q on PiV parity odd weight 1\n  xi2 = xi1 * xi2\nend\n"
    "family F fromq Q eps 0 k 0\n"
    "function a on PiV = xi1\n"
)
FAMILY_TASK_LINE = 10

# an explicit family's opening line (5), to be followed by bracket lines and 'end'
EXPLICIT_PROBLEM = (
    "space V\n  basis e1 even 0\n  basis e2 even 0\nend\n"
    "family G explicit V eps 0 k 0\n"
)


def corpus_declarations(stem):
    """A corpus file without its task lines."""
    return "".join(line + "\n" for line in (CORPUS / f"{stem}.gk").read_text().splitlines()
                   if not line.startswith("task"))


def assert_usage_error(tmp_path, text, line, *flags, timeout=None):
    """Run gk on ``text``; it must exit 2 naming ``line``, without a traceback."""
    problem = tmp_path / "task.gk"
    problem.write_text(text, encoding="utf-8")
    proc = run_gk(str(problem), *flags, timeout=timeout)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"line {line}" in proc.stderr
    return proc.stderr


class TestTaskArguments:
    """Bad orders and missing arguments are parse errors with the task's line."""

    def run_task_line(self, tmp_path, task, *flags):
        return assert_usage_error(tmp_path, THICK_PROBLEM + task + "\n",
                                  THICK_TASK_LINE, *flags)

    def test_thick_problem_runs(self, tmp_path):
        problem = tmp_path / "task.gk"
        problem.write_text(THICK_PROBLEM + "task pullback Phi g order 2\n")
        assert run_gk(str(problem)).returncode == 0

    def test_negative_pullback_order(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task pullback Phi g order -1")
        assert "order must be nonnegative" in stderr

    def test_negative_hj_order(self, tmp_path):
        self.run_task_line(tmp_path, "task check-hj Phi H1 H2 order -1")

    def test_negative_intertwining_order(self, tmp_path):
        self.run_task_line(tmp_path, "task check-intertwining Phi H1 H2 g order -1")

    def test_negative_order_flag(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task pullback Phi g", "--order", "-1")
        assert "got -1" in stderr

    def test_an_order_past_the_exponent_bound(self, tmp_path):
        # y* is a series with a term at every degree, so this pullback would
        # run until killed; no key holds a degree past the bound
        text = ("manifold A\n  var a even 0\nend\nmanifold B\n  var b even 0\nend\n"
                "function g on B = b^2\n"
                "thick P source A target B shift 0 kind even = a * q_b + q_b^2\n")
        start = time.perf_counter()
        stderr = assert_usage_error(tmp_path, text + "task pullback P g order 100000000000\n",
                                    9, timeout=10)
        assert time.perf_counter() - start < 1
        assert f"order must be at most {EXPONENT_BOUND}, got 100000000000" in stderr
        stderr = assert_usage_error(tmp_path, text + "task pullback P g\n", 9,
                                    "--order", str(EXPONENT_BOUND + 1), timeout=10)
        assert f"got {EXPONENT_BOUND + 1}" in stderr
        # the bound itself is an order, on the task line or by the flag; the
        # options are checked without running the pullback
        at_bound = parse_problem(text + f"task pullback P g order {EXPONENT_BOUND}\n"
                                 "task pullback P g\n")
        check_task_options(at_bound, Flags(order=EXPONENT_BOUND))

    def test_a_terminating_pullback_at_a_high_order_ends_at_once(self, tmp_path):
        # y* = 2 + x and q* = 1 after two passes; the value reads only the
        # fiber degrees its series have, not every degree up to the order
        problem = tmp_path / "task.gk"
        problem.write_text(
            "manifold A\n  var x even 0\nend\nmanifold B\n  var y even 0\nend\n"
            "function g on B = y\n"
            "thick Phi source A target B shift 0 kind even = x * q_y + q_y^2\n"
            "task pullback Phi g order 1000000\n", encoding="utf-8")
        start = time.perf_counter()
        proc = run_gk(str(problem), timeout=10)
        assert time.perf_counter() - start < 1
        assert proc.returncode == 0, proc.stderr
        assert "pullback-iterations  (2)" in proc.stdout
        assert "f = 1 + x" in proc.stdout

    def test_a_tuple_count_past_the_bound(self, tmp_path):
        # check-jacobi would enumerate 5^0 + ... + 5^n tuples of master_sinf's
        # pool of 5 and keep an entry for each, until memory ran out
        text = corpus_declarations("master_sinf")
        line = text.count("\n") + 1
        start = time.perf_counter()
        stderr = assert_usage_error(
            tmp_path, text + "task check-jacobi FH arity 99999999999999999999\n", line,
            timeout=10)
        assert time.perf_counter() - start < 1
        assert (f"arity 99999999999999999999 on a pool of 5 makes more than {TUPLE_BOUND}"
                in stderr)
        stderr = assert_usage_error(tmp_path, text + "task check-weights FH\n", line,
                                    "--arity", "9", timeout=10)
        assert "arity 9 on a pool of 5" in stderr
        # arity 8 is 488,281 tuples: admitted, on the task line or by the flag
        at_bound = parse_problem(text + "task check-jacobi FH arity 8\n"
                                 "task check-weights FH\n")
        check_task_options(at_bound, Flags(arity=8))

    def test_a_high_arity_check_builds_only_the_supported_plan_terms(self, tmp_path):
        # support {2}: only n=3 has Jacobi terms, and every other arity's
        # plan is empty; building all 2^n unshuffles before dropping them
        # took 1.3 s at arity 16, about five times as long per arity past it
        problem = tmp_path / "task.gk"
        problem.write_text(
            "space V\n  basis e1 even 0\nend\n"
            "family G explicit V eps 1 k 0\n  bracket e1 e1 = e1\nend\n"
            "task check-jacobi G arity 40\n", encoding="utf-8")
        proc = run_gk(str(problem), timeout=10)
        assert proc.returncode == 1, proc.stderr
        assert "[FAIL] jacobi  n=3 (e1, e1, e1)  expected 0, got 3*e1" in proc.stdout
        assert "summary: 40 passed, 1 failed [FAIL]" in proc.stdout

    def test_a_bracket_listing_past_the_bound(self, tmp_path):
        # a master of fiber degree 12 has brackets to arity 12, and listing
        # them would bracket every one of the 5^0 + ... + 5^12 pool tuples
        text = ("manifold M\n  var x even 0\nend\ncotangent CT base M shift 0\n"
                "function H on CT = p_x^12\nfamily FH fromhamiltonian H\n"
                "task derive-brackets FH arity 12\n")
        start = time.perf_counter()
        stderr = assert_usage_error(tmp_path, text, 7, timeout=10)
        assert time.perf_counter() - start < 1
        assert f"arity 12 on a pool of 5 makes more than {TUPLE_BOUND}" in stderr
        # the listing stops at the family's arity bound, so any arity is
        # admitted on master_sinf, whose bound of 3 leaves 156 tuples
        problem = tmp_path / "listing.gk"
        problem.write_text(corpus_declarations("master_sinf")
                           + "task derive-brackets FH arity 99999999999999999999\n")
        proc = run_gk(str(problem), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert _tuple_count(5, 3) == 156

    def test_a_tuple_count_is_counted_one_arity_at_a_time(self):
        assert _tuple_count(5, 8) == 488_281
        assert _tuple_count(2, 0) == 1
        assert _tuple_count(1, 10) == 11
        assert _tuple_count(0, 10 ** 20) == 1
        # the count stops at its first partial sum past the bound
        assert _tuple_count(5, 10 ** 20) == 2_441_406
        assert _tuple_count(10 ** 30, 10 ** 20) == 1 + 10 ** 30

    @pytest.mark.parametrize("stem, task, line", [
        ("oracle_verify", "task oracle-verify a b", 12),
        ("master_sinf", "task check-leibniz FH", 17),
    ])
    def test_trials_past_the_bound(self, tmp_path, stem, task, line):
        text = (CORPUS / f"{stem}.gk").read_text()
        lines = text.splitlines()
        assert lines[line - 1].startswith(task + " trials ")
        lines[line - 1] = task + " trials 1000000000000"
        start = time.perf_counter()
        stderr = assert_usage_error(tmp_path, "\n".join(lines) + "\n", line, timeout=10)
        assert time.perf_counter() - start < 1
        assert f"trials must be at most {TRIALS_BOUND}, got 1000000000000" in stderr
        lines[line - 1] = f"{task} trials {TRIALS_BOUND}"
        check_task_options(parse_problem("\n".join(lines)), Flags())

    def test_hj_missing_arguments(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task check-hj Phi")
        assert "usage: task check-hj" in stderr

    def test_intertwining_missing_arguments(self, tmp_path):
        self.run_task_line(tmp_path, "task check-intertwining Phi H1 H2")


class TestUsageErrors:
    """Bad arities, missing arguments and bad declarations exit 2 at their line."""

    def run_task_line(self, tmp_path, task, *flags):
        return assert_usage_error(tmp_path, FAMILY_PROBLEM + task + "\n",
                                  FAMILY_TASK_LINE, *flags)

    def test_family_problem_runs(self, tmp_path):
        problem = tmp_path / "task.gk"
        problem.write_text(FAMILY_PROBLEM + "task check-jacobi F arity 2\n")
        assert run_gk(str(problem)).returncode == 0

    @pytest.mark.parametrize("command", ["check-jacobi", "check-weights",
                                         "derive-brackets"])
    def test_negative_arity(self, tmp_path, command):
        stderr = self.run_task_line(tmp_path, f"task {command} F arity -1")
        assert "arity must be nonnegative" in stderr

    def test_negative_arity_flag(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task check-jacobi F", "--arity", "-1")
        assert "got -1" in stderr

    @pytest.mark.parametrize("task", ["task check-jacobi", "task oracle-verify a",
                                      "task check-master", "task bigrade"])
    def test_missing_positional_argument(self, tmp_path, task):
        stderr = self.run_task_line(tmp_path, task)
        assert f"usage: task {task.split()[1]} <" in stderr

    def test_duplicate_basis_name(self, tmp_path):
        text = "space V\n  basis e1 even 0\n  basis e2 even 0\n  basis e1 odd 0\nend\n"
        stderr = assert_usage_error(tmp_path, text, 4)
        assert "duplicate basis name 'e1'" in stderr

    def test_epsilon_out_of_range(self, tmp_path):
        text = FAMILY_PROBLEM.replace("eps 0", "eps 2")
        stderr = assert_usage_error(tmp_path, text, 8)
        assert "eps must be 0 or 1" in stderr

    def test_unknown_task(self, tmp_path):
        self.run_task_line(tmp_path, "task check-everything F")

    def test_undeclared_function(self, tmp_path):
        stderr = assert_usage_error(tmp_path, THICK_PROBLEM + "task pullback Phi f\n",
                                    THICK_TASK_LINE)
        assert "unknown name 'f'" in stderr

    def test_master_on_a_base_function(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task check-master a")
        assert "'a' must be a vector field or a function on an (anti)cotangent chart" in stderr

    def test_hamiltonian_on_a_base_function(self, tmp_path):
        stderr = assert_usage_error(tmp_path, THICK_PROBLEM + "task check-hj Phi g H2\n",
                                    THICK_TASK_LINE)
        assert "'g' must be a function on an (anti)cotangent chart" in stderr

    def test_function_where_a_family_is_needed(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task check-jacobi a")
        assert "'a' must be a bracket family" in stderr

    def test_leibniz_on_a_fromq_family(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task check-leibniz F")
        assert "'F' must be a fromhamiltonian family" in stderr

    def test_an_oracle_check_needs_a_trial(self, tmp_path):
        stderr = self.run_task_line(tmp_path, "task oracle-verify a a trials 0")
        assert "trials must be at least 1, got 0" in stderr

    def test_a_leibniz_check_needs_a_trial(self, tmp_path):
        declarations = [line for line in (CORPUS / "master_sinf.gk").read_text().splitlines()
                        if not line.startswith("task")]
        text = "\n".join(declarations) + "\ntask check-leibniz FH trials 0\n"
        stderr = assert_usage_error(tmp_path, text, len(declarations) + 1)
        assert "trials must be at least 1, got 0" in stderr

    def test_negative_explicit_family_arity(self, tmp_path):
        text = ("space V\n  basis e1 even 0\nend\n"
                "family G explicit V eps 0 k 0 arity -1\n"
                "  bracket e1 e1 = e1\nend\n")
        stderr = assert_usage_error(tmp_path, text, 4)
        assert "arity must be nonnegative, got -1" in stderr

    @pytest.mark.parametrize("expression", ["{} * xi1", "xi1^{}"])
    def test_integer_literal_past_the_digit_limit(self, tmp_path, expression):
        # int() refuses strings of more than 4300 digits
        stderr = self.run_task_line(
            tmp_path, "function b on PiV = " + expression.format("7" * 5000))
        assert "malformed integer literal" in stderr

    # int() would read "1_0" as 10 and the Arabic-Indic digit "\u0663" as 3
    NOT_ASCII_INTEGERS = pytest.mark.parametrize(
        "value", ["1_0", "\u0663", "7" * 5000],
        ids=["underscore", "arabic-indic", "5000-digits"])

    @NOT_ASCII_INTEGERS
    def test_weight_that_is_not_an_ascii_integer(self, tmp_path, value):
        text = f"manifold M\n  var x even {value}\nend\n"
        stderr = assert_usage_error(tmp_path, text, 2)
        assert "expected an integer" in stderr and len(stderr) < 200

    @NOT_ASCII_INTEGERS
    def test_task_option_that_is_not_an_ascii_integer(self, tmp_path, value):
        stderr = self.run_task_line(tmp_path, f"task check-jacobi F arity {value}")
        assert "expected an integer" in stderr and len(stderr) < 200

    @pytest.mark.parametrize("flag", ["--arity", "--order"])
    @NOT_ASCII_INTEGERS
    def test_flag_that_is_not_an_ascii_integer(self, tmp_path, flag, value):
        problem = tmp_path / "task.gk"
        problem.write_text(FAMILY_PROBLEM, encoding="utf-8")
        proc = run_gk(str(problem), flag, value)
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        message = proc.stderr.splitlines()[-1]
        assert f"{flag}: expected an integer" in message and len(message) < 200

    @pytest.mark.parametrize("expression", [f"x^{EXPONENT_BOUND + 1}",
                                            f"x^{EXPONENT_BOUND} * x"])
    def test_exponent_past_the_bound(self, tmp_path, expression):
        stderr = assert_usage_error(
            tmp_path, THICK_PROBLEM + f"function h on M1 = {expression}\n", THICK_TASK_LINE)
        assert str(EXPONENT_BOUND) in stderr

    def test_momentum_named_like_a_base_variable(self, tmp_path):
        text = ("manifold M\n  var x even 0\n  var p_x odd 3\nend\n"
                "cotangent CT base M shift 0\n"
                "function H on CT = p_x\n")
        stderr = assert_usage_error(tmp_path, text, 5)
        assert "generated momentum 'p_x'" in stderr

    def test_momentum_named_like_a_source_variable(self, tmp_path):
        text = ("manifold M1\n  var x even 0\n  var q_y even 0\nend\n"
                "manifold M2\n  var y even 0\nend\n"
                "thick Phi source M1 target M2 shift 0 kind even = x * q_y\n")
        stderr = assert_usage_error(tmp_path, text, 8)
        assert "generated momentum 'q_y'" in stderr

    # a kernel error raised while a declaration is built names its line, or
    # the line of the block that is at fault

    def test_wrongly_graded_component_at_its_own_line(self, tmp_path):
        text = ("manifold M\n  var x even 0\nend\n"
                "vectorfield Q on M parity odd weight 1\n  x = x\nend\n")
        stderr = assert_usage_error(tmp_path, text, 5)
        assert stderr.rstrip().endswith(
            "component along x has bigrading (parity 0, weight 0), "
            "expected (parity 1, weight 1) at line 5")

    def test_fromq_family_over_a_field_that_is_not_homological(self, tmp_path):
        # Q = y d/dx + x y d/dy has Q^2(x) = x y
        text = ("manifold M\n  var x odd 1\n  var y even 2\nend\n"
                "vectorfield Q on M parity odd weight 1\n  x = y\n  y = x * y\nend\n"
                "family F fromq Q eps 0 k 0\n")
        stderr = assert_usage_error(tmp_path, text, 9)
        assert stderr.rstrip().endswith(
            "generating field must be odd with [Q,Q] = 0 at line 9")

    # a part of a declaration given twice is a usage error at the repeat's line

    def test_repeated_vectorfield_component(self, tmp_path):
        text = FAMILY_PROBLEM.replace("  xi2 = xi1 * xi2\n", "  xi2 = xi1 * xi2\n  xi2 = 0\n")
        stderr = assert_usage_error(tmp_path, text + "task check-master Q\n", 7)
        assert "duplicate component 'xi2'" in stderr

    def test_repeated_bracket_line(self, tmp_path):
        text = (EXPLICIT_PROBLEM + "  bracket e1 e2 = e2\n  bracket e1 e2 = e1\nend\n")
        stderr = assert_usage_error(tmp_path, text, 7)
        assert "duplicate bracket on (e1, e2)" in stderr

    def test_unknown_basis_vector_on_a_bracket_line(self, tmp_path):
        text = (EXPLICIT_PROBLEM + "  bracket e1 e2 = e2\n  bracket e1 e3 = e1\nend\n")
        stderr = assert_usage_error(tmp_path, text, 7)
        assert "unknown basis vector 'e3'" in stderr

    @pytest.mark.parametrize("value", ["e1 * e2", "1"])
    def test_bracket_value_that_is_not_a_vector(self, tmp_path, value):
        text = EXPLICIT_PROBLEM + f"  bracket e1 e2 = e2\n  bracket e2 e1 = {value}\nend\n"
        stderr = assert_usage_error(tmp_path, text, 7)
        assert stderr.rstrip().endswith(
            "bracket values must be linear combinations of basis vectors at line 7")

    def test_permuted_bracket_line_is_folded_and_warned(self):
        family = parse_problem(
            EXPLICIT_PROBLEM + "  bracket e1 e2 = e2\n  bracket e2 e1 = e1\nend\n"
        ).families["G"]
        assert family.load_warnings

    @pytest.mark.parametrize("text, line, key", [
        (FAMILY_PROBLEM + "function b on PiV parity odd parity even = xi1\n", 10, "parity"),
        (FAMILY_PROBLEM.replace("eps 0 k 0", "eps 0 k 0 eps 1"), 8, "eps"),
        (EXPLICIT_PROBLEM.replace("k 0", "k 0 eps 1") + "end\n", 5, "eps"),
        (FAMILY_PROBLEM + "task derive-brackets F arity 0 arity 1\n", 10, "arity"),
    ], ids=["function", "fromq-family", "explicit-family", "task"])
    def test_repeated_option(self, tmp_path, text, line, key):
        stderr = assert_usage_error(tmp_path, text, line)
        assert f"duplicate option {key!r}" in stderr

    def test_function_option_without_a_value(self, tmp_path):
        stderr = assert_usage_error(
            tmp_path, FAMILY_PROBLEM + "function b on PiV parity odd weight = xi1\n", 10)
        assert "expected key/value pairs" in stderr

    def test_repeated_var_at_its_line(self, tmp_path):
        text = "manifold M\n  var x even 0\n  var y odd 1\n  var x odd 0\nend\n"
        stderr = assert_usage_error(tmp_path, text, 4)
        assert "duplicate var name 'x'" in stderr


class TestDeterminism:
    def test_json_reports_are_byte_identical(self):
        for stem in CORPUS_FILES:
            path = str(CORPUS / f"{stem}.gk")
            first = run_gk(path, "--format", "json", "--oracle-seed", "42")
            second = run_gk(path, "--format", "json", "--oracle-seed", "42")
            assert first.stdout == second.stdout, stem

    def test_matches_committed_golden_files(self):
        for stem in CORPUS_FILES:
            golden = GOLDEN / f"{stem}.json"
            proc = run_gk(str(CORPUS / f"{stem}.gk"), "--format", "json")
            assert proc.stdout == golden.read_text(), stem

    def test_json_is_schema_versioned(self):
        proc = run_gk(str(CORPUS / "lie2_eps0.gk"), "--format", "json")
        document = json.loads(proc.stdout)
        assert document["schema"] == 1
        assert document["summary"]["status"] == "pass"


# SHA-256 of the JSON report of `check-jacobi` and `check-weights` on a corpus
# family at an arity above those the golden files reach, pinned from the
# Jacobi sums over uncut plans
HIGH_ARITY_REPORTS = [
    ("master_sinf", "FH", 5, "397c42f5cc5fc6eeaf91cfbb5a2f58ad18a9c8dee0b75949b2fe0ee123cb0dc3"),
    ("master_pinf", "FP", 5, "934868c28bc35f2fd9f06ade702df677790b107d5cdc8c73149362f8db8b5b35"),
    ("lie2_eps0", "F", 5, "f333498f954fdc2d6f8473ac06362eb9cc4ba66c9c8afb506a2adc5530269a54"),
    ("broken_jacobi", "G", 4, "51685b5902c2e99756cd2119dde40dcd26132dc6a0ea652ed9a2c6e83ab92852"),
]


@pytest.mark.parametrize("stem, family, arity, digest", HIGH_ARITY_REPORTS)
def test_reports_above_the_golden_arities_keep_their_bytes(stem, family, arity, digest):
    declarations = [line for line in (CORPUS / f"{stem}.gk").read_text().splitlines()
                    if not line.startswith("task")]
    problem = parse_problem("\n".join(declarations) +
                            f"\ntask check-jacobi {family} arity {arity}"
                            f"\ntask check-weights {family} arity {arity}\n")
    results, all_pass = run(problem, Flags())
    report = render_json(results, all_pass, Flags())
    assert hashlib.sha256(report.encode()).hexdigest() == digest


# text with quotes, backslashes, control characters, non-ASCII and astral
# characters, and often empty
REPORT_TEXT = st.one_of(st.just(""), st.text(alphabet=st.one_of(
    st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u00e9\u2028\ufeff\U0001d11e'),
    st.characters(codec="utf-8")), max_size=12))
BIG_INTEGERS = st.one_of(st.integers(-10, 10), st.integers(-10 ** 30, 10 ** 30))
REPORT_ENTRIES = st.builds(ReportEntry, REPORT_TEXT, st.sampled_from([PASS, FAIL, INFO]),
                           REPORT_TEXT, REPORT_TEXT, REPORT_TEXT, REPORT_TEXT, REPORT_TEXT)
REPORTS = st.builds(Report, REPORT_TEXT, st.lists(REPORT_ENTRIES, max_size=4))
TASKS = st.builds(Task, BIG_INTEGERS, REPORT_TEXT, st.lists(REPORT_TEXT, max_size=2))


@settings(max_examples=300, deadline=None)
@given(results=st.lists(st.tuples(TASKS, REPORTS), max_size=3), all_pass=st.booleans(),
       flags=st.builds(Flags, BIG_INTEGERS, BIG_INTEGERS, BIG_INTEGERS))
def test_the_json_report_is_what_json_dumps_writes(results, all_pass, flags):
    want = json.dumps(json_document(results, all_pass, flags), sort_keys=True, indent=2)
    assert render_json(results, all_pass, flags) == want + "\n"


def test_rerunning_the_corpus_registers_no_new_variable():
    # key fields are never freed, so repeated gk runs in one process must
    # reuse them rather than widen every key
    def run_corpus():
        for stem in CORPUS_FILES:
            run(parse_problem((CORPUS / f"{stem}.gk").read_text()), Flags())

    run_corpus()
    registered = len(_REGISTRY.slots)
    run_corpus()
    assert len(_REGISTRY.slots) == registered


class TestReportRoundTrip:
    def test_pullback_series_reparse(self):
        problem = parse_problem((CORPUS / "thick_quadratic.gk").read_text())
        results, ok = run(problem, Flags())
        assert ok
        phi = problem.thicks["Phi"]
        env = {v.name: v for v in phi.source.variables}
        for task, report in results:
            if task.command != "pullback":
                continue
            for entry in report.entries:
                if entry.check_id == "pullback-f":
                    text = entry.notes.removeprefix("f = ")
                    from gradedkernel.microformal import pullback
                    g = problem.functions["g"][0]
                    assert parse_series(text, env) == pullback(phi, g, 4).f

    def test_residual_strings_reparse(self):
        problem = parse_problem(
            "manifold M\n  var x even 0\nend\n"
            "cotangent CT base M shift 1\n"
            "function H on CT = p_x^2\n"
            "function Hbad on CT = 2 * p_x^2\n"
            "manifold N\n  var y even 0\nend\n"
            "cotangent CT2 base N shift 1\n"
            "function H2 on CT2 = p_y^2\n"
            "thick Phi source M target N shift 1 kind even = x * q_y\n"
            "task check-hj Phi H H2 order 3\n"
            "task check-hj Phi Hbad H2 order 3\n")
        results, ok = run(problem, Flags())
        assert not ok
        phi = problem.thicks["Phi"]
        env = {v.name: v for v in phi.source.variables}
        env.update({m.name: m for m in phi.momenta})
        parsed_any = False
        for task, report in results:
            for entry in report.failures():
                if entry.residual:
                    parsed = parse_series(entry.residual, env)
                    assert not parsed.is_zero
                    parsed_any = True
        assert parsed_any


class TestTasks:
    def test_task_error_becomes_failed_entry(self):
        problem = parse_problem(
            "manifold M\n  var x even 0\nend\n"
            "function f on M = x\n"
            "task check-jacobi nope\n")
        results, ok = run(problem, Flags())
        assert not ok
        assert results[0][1].entries[0].check_id == "task-error"

    def test_derive_brackets_lists_nonzero_values(self):
        problem = parse_problem((CORPUS / "lie2_eps0.gk").read_text())
        flags = Flags()
        for task in problem.tasks:
            if task.command == "derive-brackets":
                report = run_task(problem, task, flags)
                brackets = [e for e in report.entries if e.check_id == "bracket"]
                assert brackets
                assert all("weight shift" in e.notes for e in brackets)

    def test_mixed_grade_bracket_value_fails_the_weight_check(self, tmp_path):
        # e1 and e3 differ in weight, so [e1, e2] = e1 + e3 has no bigrading
        problem = tmp_path / "task.gk"
        problem.write_text(
            "space V\n  basis e1 even 0\n  basis e2 even 0\n  basis e3 even 1\nend\n"
            "family G explicit V eps 0 k 0\n  bracket e1 e2 = e1 + e3\nend\n"
            "task check-weights G arity 2\n")
        proc = run_gk(str(problem), "--format", "json")
        assert proc.returncode == 1, proc.stderr
        failed = [entry for task in json.loads(proc.stdout)["tasks"]
                  for entry in task["entries"] if entry["status"] == "fail"]
        assert failed
        for entry in failed:
            assert entry["actual"] == "inhomogeneous"
            assert entry["residual"] in ("e1 + e3", "-e1 - e3")

    def test_oracle_verify_uses_seed(self):
        problem = parse_problem(
            "manifold M\n  var xi1 odd 0\n  var xi2 odd 0\nend\n"
            "function a on M = xi1 * xi2\n"
            "function b on M = xi2 * xi1\n"
            "task oracle-verify a b trials 40\n")
        results, ok = run(problem, Flags(oracle_seed=9))
        assert not ok


CORPUS_TEXTS = [(CORPUS / f"{stem}.gk").read_text() for stem in CORPUS_FILES]
# the corpus's whitespace-separated tokens, without integers of three or more digits
CORPUS_TOKENS = sorted({token for text in CORPUS_TEXTS for token in text.split()
                        if not re.search(r"\d{3}", token)})


@st.composite
def mutated_corpus_files(draw):
    """A corpus file with lines dropped, duplicated or swapped, or a token
    replaced by another corpus token."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines) - 1))
        mutation = draw(st.sampled_from(["drop", "duplicate", "swap", "replace"]))
        if mutation == "drop" and len(lines) > 1:
            del lines[i]
        elif mutation == "duplicate":
            lines.insert(i, lines[i])
        elif mutation == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        else:
            words = lines[i].split() or [""]
            words[draw(st.integers(0, len(words) - 1))] = draw(st.sampled_from(CORPUS_TOKENS))
            lines[i] = " ".join(words)
    return "\n".join(lines)


TOKEN_SOUP = st.lists(st.lists(st.sampled_from(CORPUS_TOKENS), max_size=8), max_size=8).map(
    lambda rows: "\n".join(" ".join(row) for row in rows))


def lower_task_integers(text):
    """Every integer on a task line capped at 3, so that no mutation asks for a
    Jacobi check or a pullback large enough to dominate the run."""
    return "\n".join(
        re.sub(r"\b\d+\b", lambda m: str(min(int(m.group()), 3)), line)
        if line.split()[:1] == ["task"] else line
        for line in text.splitlines())


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_corpus_files(), TOKEN_SOUP))
def test_fuzzed_input_ends_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "fuzz.gk"
        problem.write_text(lower_task_integers(text))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main([str(problem), "--arity", "3", "--order", "3"])
    assert code in (0, 1, 2)
