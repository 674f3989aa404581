"""The benchmark's workloads: seeded inputs, one unit of work, and known answers.

Each workload drives gradedkernel from outside through its public entry
points, always looked up on the module at call time (``cli.run``, not a
name bound at import) so that the traced run's wrappers see every call.

A workload has four steps:

* ``build(seed)`` makes the inputs; it is what ``setup_s`` times, after
  ``import gradedkernel``, in a fresh interpreter;
* ``prepare(inputs, k)`` readies unit ``k`` outside the timed section, for
  example by parsing a fresh problem so that no kernel state carries over
  from the previous unit, as with one ``gk`` call per problem;
* ``execute(job)`` is the timed unit of work, from its start to its verdict;
* ``verify(reference, k, output)`` compares the output with the known answer
  outside the timed section.

A timed run ends on a multiple of ``pass_units`` units, so that every run
covers the same inputs the same number of times.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from gradedkernel import cli, oracle
from gradedkernel.graded_core import GradedVariable, Series
from gradedkernel.homotopy import HamiltonianFamily
from gradedkernel.sampling import enumerate_monomials, random_homogeneous, small_rational

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CORPUS = ROOT / "tests" / "corpus"
GOLDEN = ROOT / "tests" / "golden"
PINS = HERE / "pins.json"

# the flags `gk --format json` runs with
FLAGS = cli.Flags(fmt="json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def run_problem(problem) -> Tuple[str, bool]:
    """What `gk --format json` does with a parsed problem: the report and pass/fail."""
    results, all_pass = cli.run(problem, FLAGS)
    return cli.render_json(results, all_pass, FLAGS), all_pass


# ---------------------------------------------------------------------------
# jacobi-hamiltonian
# ---------------------------------------------------------------------------

# master_sinf.gk's master Hamiltonian, checked to arity 4
JACOBI_TEXT = """\
manifold M
  var x even 0
  var xi odd -1
end

cotangent CT base M shift 0

function H on CT parity odd weight 1 = p_x * p_xi + p_x^2 * p_xi

family FH fromhamiltonian H

task check-jacobi FH arity 4
"""

# HamiltonianFamily pool seeds.  11 is the one `gk` uses.  The others were
# picked from seeds 0-299 for pools whose arity-4 check makes the same 33,215
# canonical brackets and within 2.5% of seed 11's monomial pairs, so the
# --seed argument changes the inputs but not the amount of work.
POOL_SEEDS = (11, 44, 200, 257, 151, 54)

JACOBI_ENTRIES = 781  # 5^0 + ... + 5^4 pool tuples, pool of 5


@dataclass(frozen=True)
class JacobiInputs:
    text: str
    pool_seed: int


class JacobiHamiltonian:
    name = "jacobi-hamiltonian"
    traced_units = 1
    pass_units = 1

    @staticmethod
    def pool_seed(seed: int) -> int:
        return POOL_SEEDS[seed % len(POOL_SEEDS)]

    def build(self, seed: int) -> JacobiInputs:
        inputs = JacobiInputs(JACOBI_TEXT, self.pool_seed(seed))
        self.prepare(inputs, 0)
        return inputs

    def reference(self, seed: int) -> str:
        return load_pins()[self.name][str(self.pool_seed(seed))]

    def prepare(self, inputs: JacobiInputs, k: int):
        problem = cli.parse_problem(inputs.text)
        master, chart = problem.functions["H"]
        problem.families["FH"] = HamiltonianFamily(master, chart,
                                                   pool_seed=inputs.pool_seed)
        return problem

    def execute(self, problem) -> Tuple[str, bool]:
        return run_problem(problem)

    def verify(self, reference: str, k: int, output: Tuple[str, bool]) -> bool:
        text, all_pass = output
        summary = json.loads(text)["summary"]
        return (all_pass and summary["passed_entries"] == JACOBI_ENTRIES
                and summary["failed_entries"] == 0 and digest(text) == reference)


# ---------------------------------------------------------------------------
# pullback-cubic
# ---------------------------------------------------------------------------

# coefficient draws (random.Random(draw) in pullback_text).  --seed picks one.
# Each of these makes the same 327,953-327,956 monomial pairs in its products;
# draw 4 is left out because its coefficients cancel terms and it makes 5%
# fewer, so the --seed argument changes the inputs but not the amount of work.
PULLBACK_DRAWS = (0, 1, 2, 3, 5, 6, 7)

# fixed monomial supports; the seed draws the coefficients
S_MONOMIALS = ("x1 * q_y1", "x2 * q_y2", "x3 * q_y3", "x1 * q_y2 * q_y3",
               "x2 * q_y1^2", "q_y1 * q_y2 * q_y3")
G_MONOMIALS = ("y1^3", "y1 * y2 * y3", "y2^2 * y3")

PULLBACK_TEMPLATE = """\
manifold M1
  var x1 even 0
  var x2 even 0
  var x3 even 0
end

manifold M2
  var y1 even 0
  var y2 even 0
  var y3 even 0
end

function g on M2 parity even weight 0 = {g}

thick Phi source M1 target M2 shift 0 kind even = {s}

task pullback Phi g order 3
"""


def _polynomial(rng: random.Random, monomials: Sequence[str]) -> str:
    text = ""
    for monomial in monomials:
        coeff = Fraction(rng.choice([n for n in range(-5, 6) if n]), rng.randint(1, 3))
        if not text:
            text = f"{coeff} * {monomial}"
        else:
            text += f" {'-' if coeff < 0 else '+'} {abs(coeff)} * {monomial}"
    return text


def pullback_text(draw: int) -> str:
    rng = random.Random(draw)
    g = _polynomial(rng, G_MONOMIALS)
    s = _polynomial(rng, S_MONOMIALS)
    return PULLBACK_TEMPLATE.format(g=g, s=s)


def pullback_answer(text: str) -> Tuple[str, int]:
    """(digest of the pulled-back f, fixed-point iterations) from a JSON report."""
    entries = json.loads(text)["tasks"][0]["entries"]
    notes = {entry["check"]: entry.get("notes", "") for entry in entries}
    return digest(notes["pullback-f"]), int(notes["pullback-iterations"])


class PullbackCubic:
    name = "pullback-cubic"
    traced_units = 2
    pass_units = 1

    @staticmethod
    def draw(seed: int) -> int:
        return PULLBACK_DRAWS[seed % len(PULLBACK_DRAWS)]

    def build(self, seed: int) -> str:
        text = pullback_text(self.draw(seed))
        cli.parse_problem(text)
        return text

    def reference(self, seed: int) -> Tuple[str, int]:
        return tuple(load_pins()[self.name][str(self.draw(seed))])

    def prepare(self, text: str, k: int):
        return cli.parse_problem(text)

    def execute(self, problem) -> Tuple[str, bool]:
        return run_problem(problem)

    def verify(self, reference: Tuple[str, int], k: int,
               output: Tuple[str, bool]) -> bool:
        text, all_pass = output
        return all_pass and pullback_answer(text) == reference


# ---------------------------------------------------------------------------
# oracle-ledger
# ---------------------------------------------------------------------------

LEDGER_SIZE = 72  # two cycles of the strata below
LEDGER_TRIALS = 100
LAWS = ("distributive", "associative", "commutative")
# draws the monomials of every identity, whatever the --seed argument
LEDGER_SHAPE_SEED = 0


@dataclass(frozen=True)
class Identity:
    law: str
    holds: bool
    lhs: Series
    rhs: Series
    trial_seed: int


def ledger(seed: int, size: int = LEDGER_SIZE) -> List[Identity]:
    """Series identities over 1-2 even and 0-5 odd variables, degree <= 3.

    True ones are distributivity, associativity and graded commutativity of
    the product; a false one adds a nonzero monomial to the right side, so
    every oracle trial sees the difference and the check stops after 5.
    Law, variable counts and truth cycle through fixed strata of 36
    identities, 7 of them false.  The monomials of every operand come from
    LEDGER_SHAPE_SEED and the seed draws only the coefficients and the
    oracle's trial seeds, so the oracle works on the same variables and
    monomials, with as many generators, whatever the seed.
    """
    shape = random.Random(LEDGER_SHAPE_SEED)
    rng = random.Random(seed)
    out = []
    for i in range(size):
        law, n_odd, n_even = LAWS[i % 3], (i // 3) % 6, 1 + (i // 18) % 2
        holds = i % 36 % 5 != 4
        variables = [GradedVariable(f"x{j}", 0, 0, 0, j) for j in range(n_even)]
        variables += [GradedVariable(f"xi{j}", 1, 0, 0, n_even + j) for j in range(n_odd)]

        def operand(degree: int) -> Series:
            support = random_homogeneous(variables, shape, max_degree=degree, max_terms=4)
            return Series({monomial: small_rational(rng) for monomial, _ in support.items()})

        if law == "distributive":
            a, b, c = operand(1), operand(2), operand(2)
            lhs, rhs = a * (b + c), a * b + a * c
        elif law == "associative":
            a, b, c = operand(1), operand(1), operand(1)
            lhs, rhs = (a * b) * c, a * (b * c)
        else:
            a, b = operand(2), operand(1)
            odd_pair = a.bigrading().parity and b.bigrading().parity
            lhs, rhs = a * b, (b * a) * (-1 if odd_pair else 1)
        if not holds:
            monomial = shape.choice(enumerate_monomials(variables, 3)[1:])
            rhs = rhs + Series({monomial: small_rational(rng)})
        out.append(Identity(law, holds, lhs, rhs, rng.getrandbits(32)))
    return out


class OracleLedger:
    name = "oracle-ledger"
    traced_units = LEDGER_SIZE
    pass_units = LEDGER_SIZE

    def build(self, seed: int) -> List[Identity]:
        return ledger(seed)

    def reference(self, seed: int) -> None:
        return None  # each identity carries its own known answer

    def prepare(self, identities: List[Identity], k: int) -> Identity:
        return identities[k % len(identities)]

    def execute(self, identity: Identity):
        return identity, oracle.identity_check(identity.lhs, identity.rhs,
                                               trials=LEDGER_TRIALS,
                                               seed=identity.trial_seed)

    def verify(self, reference: None, k: int, output) -> bool:
        identity, report = output
        return report.passed == identity.holds


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

# the one corpus file whose checks fail on purpose, so `gk` exits 1
FAILING_FILES = ("broken_jacobi",)


@dataclass(frozen=True)
class CorpusReference:
    golden: Dict[str, str]
    exit_codes: Dict[str, int]


class Corpus:
    name = "corpus"
    traced_units = 1
    pass_units = 1

    def __init__(self, corpus: Path = CORPUS, golden: Path = GOLDEN):
        self.corpus = corpus
        self.golden = golden

    def build(self, seed: int) -> Dict[str, str]:
        texts = {path.stem: path.read_text(encoding="utf-8")
                 for path in sorted(self.corpus.glob("*.gk"))}
        if not texts:
            raise FileNotFoundError(f"no .gk files in {self.corpus}")
        return texts

    def reference(self, seed: int) -> CorpusReference:
        stems = sorted(path.stem for path in self.corpus.glob("*.gk"))
        golden = {stem: (self.golden / f"{stem}.json").read_text(encoding="utf-8")
                  for stem in stems}
        return CorpusReference(golden, {stem: 1 if stem in FAILING_FILES else 0
                                        for stem in stems})

    def prepare(self, texts: Dict[str, str], k: int) -> Dict[str, str]:
        return texts

    def execute(self, texts: Dict[str, str]) -> Dict[str, Tuple[str, int]]:
        out = {}
        for stem, text in texts.items():
            report, all_pass = run_problem(cli.parse_problem(text))
            out[stem] = (report, 0 if all_pass else 1)
        return out

    def verify(self, reference: CorpusReference, k: int,
               output: Dict[str, Tuple[str, int]]) -> bool:
        return output == {stem: (reference.golden[stem], reference.exit_codes[stem])
                          for stem in reference.golden}


WORKLOADS = {w.name: w for w in (JacobiHamiltonian(), PullbackCubic(),
                                 OracleLedger(), Corpus())}
