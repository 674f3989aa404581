import contextlib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel.cli import Flags, main, parse_problem, run, run_task
from gradedkernel.errors import GradingMismatch, ProblemSyntaxError, UnknownNameError
from gradedkernel.expr import parse_series
from gradedkernel.graded_core import _REGISTRY, EXPONENT_BOUND

CORPUS = Path(__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"
CORPUS_FILES = sorted(p.stem for p in CORPUS.glob("*.gk"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gradedkernel.cli", *args],
        capture_output=True, text=True)


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


class TestExitCodes:
    def test_passing_file_exits_zero(self):
        proc = run_cli(str(CORPUS / "lie2_eps0.gk"))
        assert proc.returncode == 0
        assert "summary:" in proc.stdout

    def test_failing_check_exits_one(self):
        proc = run_cli(str(CORPUS / "broken_jacobi.gk"))
        assert proc.returncode == 1
        assert "n=3" in proc.stdout

    def test_parse_error_exits_two(self, tmp_path):
        bad = tmp_path / "bad.gk"
        bad.write_text("manifold M\n  var x even nope\nend\n")
        proc = run_cli(str(bad))
        assert proc.returncode == 2
        assert "line 2" in proc.stderr

    def test_missing_file_exits_two(self):
        proc = run_cli("no_such_file.gk")
        assert proc.returncode == 2

    def test_exponent_overflow_in_a_task_is_a_task_error(self, tmp_path):
        # the bracket {H, H} multiplies x^(bound - 1) by x^bound
        problem = tmp_path / "overflow.gk"
        problem.write_text("manifold M\n  var x even 0\nend\n"
                           "cotangent CT base M shift 1\n"
                           f"function H on CT = x^{EXPONENT_BOUND} * p_x\n"
                           "task check-master H\n", encoding="utf-8")
        proc = run_cli(str(problem))
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


def assert_usage_error(tmp_path, text, line, *flags):
    """Run gk on ``text``; it must exit 2 naming ``line``, without a traceback."""
    problem = tmp_path / "task.gk"
    problem.write_text(text, encoding="utf-8")
    proc = run_cli(str(problem), *flags)
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
        assert run_cli(str(problem)).returncode == 0

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
        assert run_cli(str(problem)).returncode == 0

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
        proc = run_cli(str(problem), flag, value)
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


class TestDeterminism:
    def test_json_reports_are_byte_identical(self):
        for stem in CORPUS_FILES:
            path = str(CORPUS / f"{stem}.gk")
            first = run_cli(path, "--format", "json", "--oracle-seed", "42")
            second = run_cli(path, "--format", "json", "--oracle-seed", "42")
            assert first.stdout == second.stdout, stem

    def test_matches_committed_golden_files(self):
        for stem in CORPUS_FILES:
            golden = GOLDEN / f"{stem}.json"
            proc = run_cli(str(CORPUS / f"{stem}.gk"), "--format", "json")
            assert proc.stdout == golden.read_text(), stem

    def test_json_is_schema_versioned(self):
        proc = run_cli(str(CORPUS / "lie2_eps0.gk"), "--format", "json")
        document = json.loads(proc.stdout)
        assert document["schema"] == 1
        assert document["summary"]["status"] == "pass"


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
