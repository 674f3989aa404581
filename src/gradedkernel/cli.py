"""Command-line front end: parse `.gk` problem files, run checks, emit reports.

The file format is described, with an example that runs, in the README
section "Problem file format (`.gk`)".

Exit codes: 0 all checks pass, 1 check failures, 2 parse or usage errors.
Machine output (`--format json`) is a schema-versioned document; identical
input, flags and seed give byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    GradedKernelError,
    GradingMismatch,
    NotHomological,
    ProblemSyntaxError,
    UnknownNameError,
)
from .expr import parse_series
from .geometry import (
    Chart,
    CotangentChart,
    VectorField,
    is_homological,
    shifted_anticotangent,
    shifted_cotangent,
)
from .graded_core import EXPONENT_BOUND, GradedVariable, Series, format_series
from .homotopy import (
    DEFAULT_ARITY,
    BracketFamily,
    ExplicitFamily,
    HamiltonianFamily,
    QFamily,
    ShiftSignature,
    SpaceBasis,
    check_higher_jacobi,
    check_leibniz,
    check_master,
    check_weights_parities,
    pool_tuples,
)
from .microformal import (
    DEFAULT_ORDER,
    ThickMorphism,
    check_hamilton_jacobi,
    check_intertwining,
    conjugate_momenta,
    pullback,
    validate_thick,
)
from .oracle import identity_check
from .report import Report, json_list

SCHEMA_VERSION = 1
DEFAULT_SEED = 20240801


@dataclass
class Task:
    line: int
    command: str
    args: List[str]

    def __str__(self) -> str:
        return " ".join([self.command] + self.args)


@dataclass
class ProblemFile:
    charts: Dict[str, Chart] = field(default_factory=dict)
    cotangents: Dict[str, CotangentChart] = field(default_factory=dict)
    functions: Dict[str, Tuple[Series, object]] = field(default_factory=dict)
    fields: Dict[str, VectorField] = field(default_factory=dict)
    spaces: Dict[str, SpaceBasis] = field(default_factory=dict)
    families: Dict[str, BracketFamily] = field(default_factory=dict)
    thicks: Dict[str, ThickMorphism] = field(default_factory=dict)
    tasks: List[Task] = field(default_factory=list)

    def declares(self, name: str) -> bool:
        return any(name in group for group in (
            self.charts, self.cotangents, self.functions,
            self.fields, self.spaces, self.families, self.thicks))

    def check_fresh(self, name: str, line: int) -> None:
        if self.declares(name):
            raise ProblemSyntaxError(f"name {name!r} already declared", line)


def _variable_env(variables: Sequence[GradedVariable], line: int) -> Dict[str, GradedVariable]:
    """Name -> variable.  A generated (anti)momentum that takes the name of a
    declared variable would hide it in every expression, so it is rejected."""
    env: Dict[str, GradedVariable] = {}
    for var in variables:
        _require(var.name not in env,
                 f"generated momentum {var.name!r} has the name of a declared variable", line)
        env[var.name] = var
    return env


def _integer(text: str) -> int:
    """An optional '-' and ASCII digits, within ``int()``'s digit limit."""
    digits = text[1:] if text.startswith("-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit for int()
            pass
    shown = repr(text) if len(text) <= 20 else f"a word of {len(text)} characters"
    raise argparse.ArgumentTypeError(f"expected an integer, got {shown}")


def _parse_int(value: str, line: int) -> int:
    try:
        return _integer(value)
    except argparse.ArgumentTypeError as exc:
        raise ProblemSyntaxError(str(exc), line) from None


def _parse_parity(word: str, line: int) -> int:
    if word == "even":
        return 0
    if word == "odd":
        return 1
    raise ProblemSyntaxError(f"expected 'even' or 'odd', got {word!r}", line)


def _keyword_args(words: Sequence[str], line: int, **defaults) -> Dict[str, int]:
    """Parse trailing `key value` pairs like `eps 0 k 1 arity 4`: a `parity`
    value is even or odd, every other value an integer, and no key repeats."""
    out = dict(defaults)
    if len(words) % 2:
        raise ProblemSyntaxError("expected key/value pairs", line)
    keys = words[::2]
    for key, value in zip(keys, words[1::2]):
        _require(key in out, f"unknown option {key!r}", line)
        _require(keys.count(key) == 1, f"duplicate option {key!r}", line)
        out[key] = _parse_parity(value, line) if key == "parity" else _parse_int(value, line)
    return out


def _lookup(name: str, line: int, what: str, *groups: Dict[str, object]):
    """The declaration ``name`` from the first of ``groups`` that holds it."""
    for group in groups:
        if name in group:
            return group[name]
    raise UnknownNameError(f"unknown {what} {name!r}", line)


def _assignment(content: str, usage: str, line: int) -> Tuple[str, str, int]:
    """``content`` split at its first '=': the text left of it, stripped, the
    expression right of it, and the expression's column."""
    _require("=" in content, usage, line)
    left, expression = content.split("=", 1)
    return left.strip(), expression, len(left) + 2


class _Lines:
    def __init__(self, text: str):
        self.raw = text.splitlines()
        self.pos = 0

    def next_content(self) -> Optional[Tuple[int, str]]:
        while self.pos < len(self.raw):
            number = self.pos + 1
            line = self.raw[self.pos]
            self.pos += 1
            stripped = line.split("#", 1)[0].strip()
            if stripped:
                return number, stripped
        return None

    def block(self, what: str, line: int) -> Iterator[Tuple[int, str, List[str]]]:
        """(number, content, words) of each line of the block ``what`` opened at
        ``line``, up to its closing 'end'."""
        while True:
            item = self.next_content()
            _require(item is not None, f"{what} is missing 'end'", line)
            words = item[1].split()
            if words[0] == "end":
                return
            yield item[0], item[1], words

    def graded_names(self, what: str, line: int, word: str) -> List[Tuple[str, int, int]]:
        """(name, parity, weight) of each `<word> <name> <even|odd> <weight>`
        line of the block ``what`` opened at ``line``."""
        specs: List[Tuple[str, int, int]] = []
        seen = set()
        for number, _, words in self.block(what, line):
            _require(len(words) == 4 and words[0] == word,
                     f"usage: {word} <name> <even|odd> <weight>", number)
            _require(words[1] not in seen, f"duplicate {word} name {words[1]!r}", number)
            seen.add(words[1])
            specs.append((words[1], _parse_parity(words[2], number),
                          _parse_int(words[3], number)))
        return specs


def parse_problem(text: str) -> ProblemFile:
    """Parse a problem file; raises ProblemSyntaxError, UnknownNameError or the
    kernel's own error, each with the line of the first offending declaration."""
    problem = ProblemFile()
    lines = _Lines(text)
    while True:
        item = lines.next_content()
        if item is None:
            break
        number, content = item
        words = content.split()
        head = words[0]
        try:
            handler = _DECLARATIONS[head]
        except KeyError:
            raise ProblemSyntaxError(f"unknown declaration {head!r}", number) from None
        with _at_line(number):
            handler(problem, lines, number, content, words)
    return problem


@contextmanager
def _at_line(number: int) -> Iterator[None]:
    """Give a kernel error raised inside, such as a wrongly graded component,
    the line ``number``, unless an inner ``_at_line`` already gave it one."""
    try:
        yield
    except ProblemSyntaxError:
        raise
    except GradedKernelError as exc:
        if getattr(exc, "line", None) is not None:
            raise
        error = type(exc)(f"{exc} at line {number}")
        error.line = number
        raise error from exc


def _require(condition: bool, message: str, line: int) -> None:
    if not condition:
        raise ProblemSyntaxError(message, line)


def _decl_manifold(problem: ProblemFile, lines: _Lines, number: int,
                   content: str, words: List[str]) -> None:
    _require(len(words) == 2, "usage: manifold <name>", number)
    name = words[1]
    problem.check_fresh(name, number)
    specs = lines.graded_names(f"manifold {name!r}", number, "var")
    problem.charts[name] = Chart.build(specs, name)


def _decl_cotangent(problem: ProblemFile, lines: _Lines, number: int,
                    content: str, words: List[str]) -> None:
    _require(len(words) == 6 and words[2] == "base" and words[4] == "shift",
             "usage: cotangent <name> base <manifold> shift <int>", number)
    name = words[1]
    problem.check_fresh(name, number)
    base = _lookup(words[3], number, "manifold", problem.charts)
    shift = _parse_int(words[5], number)
    builder = shifted_cotangent if words[0] == "cotangent" else shifted_anticotangent
    cotangent = builder(base, shift)
    _variable_env(cotangent.variables, number)
    problem.cotangents[name] = cotangent


_FUNCTION_USAGE = "usage: function <name> on <chart> [parity p weight w] = <expr>"


def _decl_function(problem: ProblemFile, lines: _Lines, number: int,
                   content: str, words: List[str]) -> None:
    header, expr_text, column = _assignment(content, _FUNCTION_USAGE, number)
    hwords = header.split()
    _require(len(hwords) >= 4 and hwords[2] == "on", _FUNCTION_USAGE, number)
    name = hwords[1]
    problem.check_fresh(name, number)
    chart = _lookup(hwords[3], number, "chart", problem.charts, problem.cotangents)
    declared = _keyword_args(hwords[4:], number, parity=None, weight=None)
    series = parse_series(expr_text, _variable_env(chart.variables, number), number, column)
    if declared != {"parity": None, "weight": None} and not series.is_homogeneous(**declared):
        raise GradingMismatch(
            f"function {name!r} does not match its declared "
            f"bigrading (parity {declared['parity']}, weight {declared['weight']})")
    problem.functions[name] = (series, chart)


def _decl_vectorfield(problem: ProblemFile, lines: _Lines, number: int,
                      content: str, words: List[str]) -> None:
    _require(len(words) == 8 and words[2] == "on" and words[4] == "parity"
             and words[6] == "weight",
             "usage: vectorfield <name> on <chart> parity <even|odd> weight <int>",
             number)
    name = words[1]
    problem.check_fresh(name, number)
    chart = _lookup(words[3], number, "chart", problem.charts, problem.cotangents)
    parity = _parse_parity(words[5], number)
    weight = _parse_int(words[7], number)
    env = _variable_env(chart.variables, number)
    components: Dict[GradedVariable, Series] = {}
    for cnum, cline, _ in lines.block(f"vectorfield {name!r}", number):
        var_name, expr_text, column = _assignment(cline, "usage: <var> = <expr>", cnum)
        var = _lookup(var_name, cnum, "component variable", env)
        _require(var not in components, f"duplicate component {var_name!r}", cnum)
        series = parse_series(expr_text, env, cnum, column)
        with _at_line(cnum):
            VectorField.check_component(var, series, parity, weight)
        components[var] = series
    problem.fields[name] = VectorField(chart, components, parity, weight)


def _decl_space(problem: ProblemFile, lines: _Lines, number: int,
                content: str, words: List[str]) -> None:
    _require(len(words) == 2, "usage: space <name>", number)
    name = words[1]
    problem.check_fresh(name, number)
    specs = lines.graded_names(f"space {name!r}", number, "basis")
    problem.spaces[name] = SpaceBasis.build(specs)


def _decl_family(problem: ProblemFile, lines: _Lines, number: int,
                 content: str, words: List[str]) -> None:
    _require(len(words) >= 3, "usage: family <name> <fromq|fromhamiltonian|explicit> ...",
             number)
    name, mode = words[1], words[2]
    problem.check_fresh(name, number)
    if mode == "fromq":
        _require(len(words) >= 4, "usage: family <name> fromq <field> eps <e> k <k>", number)
        q = _lookup(words[3], number, "vector field", problem.fields)
        options = _keyword_args(words[4:], number, eps=0, k=0)
        _require(options["eps"] in (0, 1), "eps must be 0 or 1", number)
        sig = ShiftSignature(options["eps"], options["k"])
        if not isinstance(q.chart, Chart):
            raise ProblemSyntaxError("fromq needs a field on a plain manifold", number)
        if not is_homological(q):
            raise NotHomological("generating field must be odd with [Q,Q] = 0")
        basis = SpaceBasis.from_chart(q.chart, sig)
        problem.families[name] = QFamily(q, basis, sig)
    elif mode == "fromhamiltonian":
        _require(len(words) == 4, "usage: family <name> fromhamiltonian <H>", number)
        series, chart = _lookup(words[3], number, "function", problem.functions)
        _require(isinstance(chart, CotangentChart),
                 "fromhamiltonian needs a function on an (anti)cotangent chart", number)
        problem.families[name] = HamiltonianFamily(series, chart)
    elif mode == "explicit":
        _require(len(words) >= 4, "usage: family <name> explicit <space> eps <e> k <k> [arity N]",
                 number)
        basis = _lookup(words[3], number, "space", problem.spaces)
        options = _keyword_args(words[4:], number, eps=0, k=0, arity=DEFAULT_ARITY)
        _require(options["eps"] in (0, 1), "eps must be 0 or 1", number)
        # arity is checked but not kept: every check takes its arity from the task
        _require(options["arity"] >= 0,
                 f"arity must be nonnegative, got {options['arity']}", number)
        env = {v.name: v for v in basis}
        usage = "usage: bracket <names...> = <combination>"
        entries: Dict[Tuple[int, ...], Series] = {}
        for bnum, bline, bwords in lines.block(f"family {name!r}", number):
            _require(bwords[0] == "bracket", usage, bnum)
            header, expr_text, column = _assignment(bline, usage, bnum)
            input_names = header.split()[1:]
            indices = tuple(_lookup(n, bnum, "basis vector", env).index
                            for n in input_names)
            _require(indices not in entries,
                     f"duplicate bracket on ({', '.join(input_names)})", bnum)
            series = parse_series(expr_text, env, bnum, column)
            with _at_line(bnum):
                basis.coordinates(series, "bracket values")
            entries[indices] = series
        problem.families[name] = ExplicitFamily(basis, options["eps"], options["k"], entries)
    else:
        raise ProblemSyntaxError(f"unknown family mode {mode!r}", number)


_THICK_USAGE = "usage: thick <name> source <m> target <m> shift <s> kind <even|odd> = <expr>"


def _decl_thick(problem: ProblemFile, lines: _Lines, number: int,
                content: str, words: List[str]) -> None:
    header, expr_text, column = _assignment(content, _THICK_USAGE, number)
    hwords = header.split()
    _require(len(hwords) == 10 and hwords[2] == "source" and hwords[4] == "target"
             and hwords[6] == "shift" and hwords[8] == "kind"
             and hwords[9] in ("even", "odd"), _THICK_USAGE, number)
    name = hwords[1]
    problem.check_fresh(name, number)
    source = _lookup(hwords[3], number, "manifold", problem.charts)
    target = _lookup(hwords[5], number, "manifold", problem.charts)
    shift = _parse_int(hwords[7], number)
    kind = hwords[9]
    env = _variable_env(source.variables + conjugate_momenta(target, shift, kind), number)
    series = parse_series(expr_text, env, number, column)
    problem.thicks[name] = ThickMorphism(source, target, shift, kind, series)


def _decl_task(problem: ProblemFile, lines: _Lines, number: int,
               content: str, words: List[str]) -> None:
    _require(len(words) >= 2, "usage: task <command> [args...]", number)
    _require(words[1] in _TASKS, f"unknown task {words[1]!r}", number)
    positional, options, _ = _TASKS[words[1]]
    usage = (" ".join([words[1]] + [label for label, _ in positional])
             + "".join(f" [{key} <n>]" for key in options))
    _require(len(words) - 2 >= len(positional), f"usage: task {usage}", number)
    problem.tasks.append(Task(number, words[1], words[2:]))


_DECLARATIONS = {
    "manifold": _decl_manifold,
    "cotangent": _decl_cotangent,
    "anticotangent": _decl_cotangent,
    "function": _decl_function,
    "vectorfield": _decl_vectorfield,
    "space": _decl_space,
    "family": _decl_family,
    "thick": _decl_thick,
    "task": _decl_task,
}


# ---------------------------------------------------------------------------
# task execution
# ---------------------------------------------------------------------------

@dataclass
class Flags:
    arity: int = DEFAULT_ARITY
    order: int = DEFAULT_ORDER
    oracle_seed: int = DEFAULT_SEED
    fmt: str = "text"
    quiet: bool = False


# each kind of task argument: the declarations it is looked up in, and what
# it must be; a "master" may also name a vector field
_ARGUMENT_KINDS = {
    "family": ("families", "a bracket family"),
    "fromhamiltonian": ("families", "a fromhamiltonian family"),
    "thick": ("thicks", "a thick morphism"),
    "function": ("functions", "a function"),
    "hamiltonian": ("functions", "a function on an (anti)cotangent chart"),
    "master": ("functions", "a vector field or a function on an (anti)cotangent chart"),
}


def _resolve(problem: ProblemFile, kind: str, name: str, line: int):
    """What a task argument names: a declaration, or a (series, chart) for a
    function; a master resolves to the arguments of check_master."""
    group, description = _ARGUMENT_KINDS[kind]
    if kind == "master" and name in problem.fields:
        return (problem.fields[name],)
    value = getattr(problem, group).get(name)
    if value is None and not problem.declares(name):
        raise UnknownNameError(f"unknown name {name!r}", line)
    if (value is None
            or kind == "fromhamiltonian" and not isinstance(value, HamiltonianFamily)
            or kind in ("hamiltonian", "master") and not isinstance(value[1], CotangentChart)):
        raise ProblemSyntaxError(f"{name!r} must be {description}", line)
    return value


# each task's positional arguments as (label, kind), its integer options with
# their defaults (None: the flag of that name), and its handler, called as
# handler(task, arguments, options, flags); a handler names the kernel
# functions it calls in its body, so they are looked up in this module's
# globals at call time and a wrapper installed there sees every call
_TASKS: Dict[str, Tuple[Tuple[Tuple[str, str], ...], Dict[str, Optional[int]],
                        Callable[..., Report]]] = {
    "check-master": ((("<Q|H>", "master"),), {},
                     lambda task, args, opts, flags: check_master(*args[0])),
    "check-jacobi": ((("<family>", "family"),), {"arity": None},
                     lambda task, args, opts, flags: check_higher_jacobi(
                         args[0], opts["arity"])),
    "check-weights": ((("<family>", "family"),), {"arity": None},
                      lambda task, args, opts, flags: check_weights_parities(
                          args[0], args[0].signature, opts["arity"])),
    "check-leibniz": ((("<family>", "fromhamiltonian"),), {"trials": 20},
                      lambda task, args, opts, flags: check_leibniz(
                          args[0], trials=opts["trials"], seed=flags.oracle_seed)),
    "derive-brackets": ((("<family>", "family"),), {"arity": None},
                        lambda task, args, opts, flags: derive_brackets_report(
                            args[0], opts["arity"])),
    "validate-thick": ((("<thick>", "thick"),), {},
                       lambda task, args, opts, flags: validate_thick(args[0])),
    "pullback": ((("<thick>", "thick"), ("<g>", "function")), {"order": None},
                 lambda task, args, opts, flags: _pullback_report(
                     task.args[0], args[0], args[1][0], opts["order"])),
    "check-hj": ((("<thick>", "thick"), ("<H1>", "hamiltonian"), ("<H2>", "hamiltonian")),
                 {"order": None},
                 lambda task, args, opts, flags: check_hamilton_jacobi(
                     args[0], *args[1], *args[2], opts["order"])),
    "check-intertwining": ((("<thick>", "thick"), ("<H1>", "hamiltonian"),
                            ("<H2>", "hamiltonian"), ("<g>", "function")), {"order": None},
                           lambda task, args, opts, flags: check_intertwining(
                               args[0], *args[1], *args[2], args[3][0], opts["order"])),
    "oracle-verify": ((("<f>", "function"), ("<g>", "function")), {"trials": 100},
                      lambda task, args, opts, flags: identity_check(
                          args[0][0], args[1][0], trials=opts["trials"],
                          seed=flags.oracle_seed)),
    "bigrade": ((("<g>", "function"),), {},
                lambda task, args, opts, flags: _bigrade_report(task.args[0], args[0][0])),
}


# the most pool tuples, over arities 0 to n, that a check-jacobi,
# check-weights or derive-brackets task may enumerate: arity 8 on a pool of 5
# is 488,281 of them
TUPLE_BOUND = 1_000_000
# the most trials that an oracle-verify or check-leibniz task may ask for
TRIALS_BOUND = 100_000


def _tuple_count(pool_size: int, arity: int) -> int:
    """The number of tuples of length 0 to ``arity`` from a pool of
    ``pool_size``, counted one arity at a time, or the first partial count
    past ``TUPLE_BOUND``."""
    total, tuples = 0, 1
    for _ in range(arity + 1):
        total += tuples
        tuples *= pool_size
        if total > TUPLE_BOUND or not tuples:
            break
    return total


def _task_arguments(problem: ProblemFile, task: Task,
                    flags: Flags) -> Tuple[List[object], Dict[str, int]]:
    """A task's positional arguments, resolved, and its integer options.

    An option is given on the task's line, else it takes its default or the
    flag of that name.
    """
    if task.command not in _TASKS:
        raise ProblemSyntaxError(f"unknown task {task.command!r}", task.line)
    positional, defaults, _ = _TASKS[task.command]
    defaults = {key: getattr(flags, key) if default is None else default
                for key, default in defaults.items()}
    options = _keyword_args(task.args[len(positional):], task.line, **defaults)
    for key, value in options.items():
        if value < 0:
            raise ProblemSyntaxError(f"{key} must be nonnegative, got {value}", task.line)
        if key == "trials" and value < 1:  # no trial run is no evidence
            raise ProblemSyntaxError(f"trials must be at least 1, got {value}", task.line)
        if key == "trials" and value > TRIALS_BOUND:
            raise ProblemSyntaxError(f"trials must be at most {TRIALS_BOUND}, got {value}",
                                     task.line)
        if key == "order" and value > EXPONENT_BOUND:  # no key holds a higher degree
            raise ProblemSyntaxError(f"order must be at most {EXPONENT_BOUND}, got {value}",
                                     task.line)
    values = [_resolve(problem, kind, name, task.line)
              for (_, kind), name in zip(positional, task.args)]
    if task.command in ("check-jacobi", "check-weights", "derive-brackets"):
        family = values[0]
        pool_size = len(family.pool())
        arity = options["arity"]
        if task.command == "derive-brackets":  # its listing stops at the arity bound
            arity = min(arity, family.arity_bound)
        if _tuple_count(pool_size, arity) > TUPLE_BOUND:
            raise ProblemSyntaxError(
                f"arity {options['arity']} on a pool of {pool_size} makes more than "
                f"{TUPLE_BOUND} tuples to check", task.line)
    return values, options


def check_task_options(problem: ProblemFile, flags: Flags) -> None:
    """Reject, at the task's line, a task with bad options, a negative one, no
    trials or more than ``TRIALS_BOUND``, an order past ``EXPONENT_BOUND``, a
    check or listing of more than ``TUPLE_BOUND`` pool tuples, or an argument
    that names nothing of the kind the task needs."""
    for task in problem.tasks:
        _task_arguments(problem, task, flags)


def run_task(problem: ProblemFile, task: Task, flags: Flags) -> Report:
    args, options = _task_arguments(problem, task, flags)
    return _TASKS[task.command][2](task, args, options, flags)


def _pullback_report(name: str, phi: ThickMorphism, g: Series, order: int) -> Report:
    result = pullback(phi, g, order)
    report = Report(f"pullback along {name} at order {result.order}")
    report.ok("pullback-f", notes=f"f = {format_series(result.f)}")
    for var, solution in sorted(result.y_solution.items(), key=lambda kv: kv[0].key):
        report.info("pullback-y", location=var.name, notes=str(solution))
    for var, solution in sorted(result.q_solution.items(), key=lambda kv: kv[0].key):
        report.info("pullback-q", location=var.name, notes=str(solution))
    report.info("pullback-iterations", notes=str(result.iterations))
    return report


def _bigrade_report(name: str, series: Series) -> Report:
    report = Report(f"bigrading of {name}")
    report.ok("bigrade", notes=str(series.bigrading()))
    return report


def derive_brackets_report(fam: BracketFamily, arity: int) -> Report:
    if arity < 0:
        raise ValueError("a bracket listing needs an arity of at least 0")
    report = Report(f"nonzero brackets to arity {arity}")
    pool = fam.pool()
    if isinstance(fam, HamiltonianFamily):
        for label, series, parity, weight in pool:
            report.info("pool", location=label,
                        notes=f"{series} (parity {parity}, weight {weight})")
    sig = fam.signature
    count = 0
    for picked, labels in pool_tuples(pool, min(arity, fam.arity_bound)):
        if fam.vanishes(len(picked)) or (
                value := fam.bracket([element for _, element, _, _ in picked])).is_zero:
            continue
        count += 1
        annotation = (f"weight shift {sig.bracket_weight(len(picked))}, "
                      f"parity shift {sig.bracket_parity(len(picked))}")
        report.info("bracket", location=f"[{labels}]",
                    notes=f"= {fam.format_value(value)} ({annotation})")
    report.ok("bracket-count", notes=f"{count} nonzero brackets")
    if isinstance(fam, ExplicitFamily):
        for warning in fam.load_warnings:
            report.info("load-warning", notes=warning)
    return report


def run(problem: ProblemFile, flags: Flags) -> Tuple[List[Tuple[Task, Report]], bool]:
    """Execute tasks in order; task errors become failed entries, not crashes."""
    results: List[Tuple[Task, Report]] = []
    all_pass = True
    for task in problem.tasks:
        try:
            report = run_task(problem, task, flags)
        except GradedKernelError as exc:
            report = Report(str(task))
            report.fail("task-error", notes=f"{type(exc).__name__}: {exc}")
        if not report.passed:
            all_pass = False
        results.append((task, report))
    return results, all_pass


def render_json(results, all_pass: bool, flags: Flags) -> str:
    """The JSON report: its envelope around `Report.to_json`'s task items."""
    passed = sum(r.counts["pass"] for _, r in results)
    failed = sum(r.counts["fail"] for _, r in results)
    tasks = json_list([report.to_json(str(task), task.line) for task, report in results], 2)
    return (f'{{\n  "flags": {{\n    "arity": {flags.arity:d},\n'
            f'    "oracle_seed": {flags.oracle_seed:d},\n    "order": {flags.order:d}\n  }},\n'
            f'  "schema": {SCHEMA_VERSION:d},\n'
            f'  "summary": {{\n    "failed_entries": {failed:d},\n'
            f'    "passed_entries": {passed:d},\n'
            f'    "status": "{"pass" if all_pass else "fail"}",\n'
            f'    "tasks": {len(results):d}\n  }},\n'
            f'  "tasks": {tasks}\n}}\n')


def render_text(results, all_pass: bool, quiet: bool) -> str:
    blocks = []
    for task, report in results:
        header = f"== task: {task}"
        blocks.append(header + "\n" + report.to_text(quiet=quiet))
    passed = sum(r.counts["pass"] for _, r in results)
    failed = sum(r.counts["fail"] for _, r in results)
    blocks.append(f"summary: {passed} passed, {failed} failed "
                  f"[{'PASS' if all_pass else 'FAIL'}]")
    return "\n".join(blocks) + "\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gk", description="graded homotopy-structure checker")
    parser.add_argument("problem", help="problem file (.gk)")
    parser.add_argument("--arity", type=_integer, default=DEFAULT_ARITY,
                        help="default arity bound for bracket checks")
    parser.add_argument("--order", type=_integer, default=DEFAULT_ORDER,
                        help="default truncation order for pullbacks")
    parser.add_argument("--oracle-seed", type=_integer, default=DEFAULT_SEED,
                        help="seed for oracle trials and sampled checks")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--quiet", action="store_true",
                        help="omit passing entries from text output")
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    flags = Flags(arity=options.arity, order=options.order,
                  oracle_seed=options.oracle_seed, fmt=options.format,
                  quiet=options.quiet)
    try:
        with open(options.problem, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: {options.problem} is not UTF-8 text: {exc.reason} at byte {exc.start}",
              file=sys.stderr)
        return 2
    try:
        problem = parse_problem(text)
        check_task_options(problem, flags)
    except GradedKernelError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    results, all_pass = run(problem, flags)
    if flags.fmt == "json":
        sys.stdout.write(render_json(results, all_pass, flags))
    else:
        sys.stdout.write(render_text(results, all_pass, flags.quiet))
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
