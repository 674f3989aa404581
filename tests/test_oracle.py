import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel import oracle
from gradedkernel.errors import MissingBinding, ParityViolation
from gradedkernel.expr import parse_series
from gradedkernel.graded_core import GradedVariable, Series
from gradedkernel.oracle import (
    Assignment,
    GrassmannElement,
    _in_key_order,
    _odd_above,
    evaluate,
    identity_check,
    random_assignment,
    suggested_generator_count,
)
from gradedkernel.report import Report

XI1 = GradedVariable("xi1", 1, 0, 0, 0)
XI2 = GradedVariable("xi2", 1, 0, 0, 1)
X = GradedVariable("x", 0, 0, 0, 2)
XI3 = GradedVariable("xi3", 1, 0, 0, 3)
Y = GradedVariable("y", 0, 0, 0, 4)


def gen(n, i):
    return GrassmannElement.generator(n, i)


def test_evaluate_ordered_pair():
    asg = Assignment(2, {XI1: gen(2, 0), XI2: gen(2, 1)})
    s = Series.variable(XI1) * Series.variable(XI2)
    assert evaluate(s, asg) == gen(2, 0) * gen(2, 1)


def test_evaluate_swapped_assignment_flips_sign():
    asg = Assignment(2, {XI1: gen(2, 1), XI2: gen(2, 0)})
    s = Series.variable(XI1) * Series.variable(XI2)
    assert evaluate(s, asg) == (gen(2, 0) * gen(2, 1)).scaled(-1)


def test_evaluate_even_square_with_soul():
    value = GrassmannElement.scalar(2, 3) + gen(2, 0) * gen(2, 1)
    asg = Assignment(2, {X: value})
    out = evaluate(Series.variable(X) ** 2, asg)
    assert out == GrassmannElement.scalar(2, 9) + (gen(2, 0) * gen(2, 1)).scaled(6)


def test_parity_violation():
    with pytest.raises(ParityViolation):
        Assignment(2, {XI1: GrassmannElement.scalar(2, 1)})


def test_missing_binding():
    asg = Assignment(2, {XI1: gen(2, 0)})
    with pytest.raises(MissingBinding):
        evaluate(Series.variable(X), asg)


def test_grassmann_associativity():
    rng = random.Random(3)
    n = 4
    for _ in range(60):
        elements = []
        for _ in range(3):
            parts = {}
            for _ in range(rng.randint(1, 3)):
                size = rng.randint(0, 2)
                subset = frozenset(rng.sample(range(n), size))
                parts[subset] = Fraction(rng.randint(-4, 4))
            elements.append(GrassmannElement(n, parts))
        a, b, c = elements
        assert (a * b) * c == a * (b * c)


def test_evaluate_is_algebra_morphism(rng):
    from gradedkernel.sampling import random_homogeneous
    variables = [X, XI1, XI2]
    for _ in range(50):
        a = random_homogeneous(variables, rng, 2)
        b = random_homogeneous(variables, rng, 2)
        asg = random_assignment(variables, 4, rng)
        assert evaluate(a * b, asg) == evaluate(a, asg) * evaluate(b, asg)
        assert evaluate(a + b, asg) == evaluate(a, asg) + evaluate(b, asg)


def test_identity_check_trivial_agreement():
    s = Series.variable(XI1) * Series.variable(XI2)
    assert identity_check(s, s, trials=30, seed=1).passed


def test_identity_check_detects_sign_error():
    lhs = Series.variable(XI1) * Series.variable(XI2)
    rhs = Series.variable(XI2) * Series.variable(XI1)
    report = identity_check(lhs, rhs, trials=30, seed=1)
    assert not report.passed


def test_identity_check_jacobi_residual_of_lie_poisson():
    # Jacobi residual of the Lie-Poisson bracket {f,g} = x2(d1 f d2 g - ...)
    # computed symbolically, then re-confirmed against zero by the oracle
    from gradedkernel.geometry import Chart, shifted_anticotangent
    from gradedkernel.homotopy import HamiltonianFamily

    chart = Chart.build([("x1", 0, 0), ("x2", 0, 0)], "gstar")
    ct = shifted_anticotangent(chart, 1)
    x1, x2 = (Series.variable(v) for v in chart.variables)
    xs1, xs2 = (Series.variable(v) for v in ct.fiber)
    P = x2 * xs1 * xs2

    def br(f, g):
        return HamiltonianFamily(P, ct).bracket([f, g])

    f, g, h = x1 * x2, x1 ** 2, x2 + 3 * x1
    residual = br(f, br(g, h)) - br(br(f, g), h) - br(g, br(f, h))
    assert identity_check(residual, Series.zero(), trials=100, seed=5).passed


# ---------------------------------------------------------------------------
# reference evaluator: frozenset-keyed blades, Fraction coefficients, and the
# merge sign counted pair by pair
# ---------------------------------------------------------------------------

def inversions(left, right):
    """Pairs (i, j), i from ``left`` and j from ``right``, with i > j."""
    return sum(1 for i in left for j in right if i > j)


def reference_mul(a, b):
    out = {}
    for sa, ca in a.items():
        for sb, cb in b.items():
            if sa & sb:
                continue
            key = sa | sb
            out[key] = out.get(key, 0) + (-1) ** inversions(sa, sb) * ca * cb
    return out


def reference_evaluate(series, values, n):
    """``series`` at ``values``, which maps each variable to a frozenset-keyed dict."""
    total = {}
    for monomial, coeff in series.items():
        piece = {frozenset(): Fraction(coeff)}
        for var, exp in monomial:
            for _ in range(exp):
                piece = reference_mul(piece, values[var])
        for subset, c in piece.items():
            total[subset] = total.get(subset, 0) + c
    return GrassmannElement(n, total)


def blade(mask, n):
    """The generator indices of a bitmask blade."""
    return frozenset(i for i in range(n) if mask >> i & 1)


def as_subsets(element):
    """An element as the reference evaluator's frozenset-keyed dict."""
    return {blade(mask, element.generator_count): c for mask, c in element._parts.items()}


RATIONALS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
EVEN_VARS, ODD_VARS = (X, Y), (XI1, XI2, XI3)


@st.composite
def monomials(draw):
    """A monomial of total degree 0 to 7 with a small rational."""
    term = Series.constant(draw(RATIONALS))
    for var in EVEN_VARS:
        term = term * Series.variable(var) ** draw(st.integers(0, 2))
    for var in ODD_VARS:
        if draw(st.booleans()):
            term = term * Series.variable(var)
    return term


@st.composite
def series(draw):
    """A sum of up to five monomials of total degree 0 to 7 with small rationals."""
    return Series.sum(draw(st.lists(monomials(), max_size=5)))


@st.composite
def assignments(draw, n):
    """Odd variables to one generator each, possibly shared; even ones to a
    scalar plus, sometimes, a two-generator term."""
    values = {}
    for var in ODD_VARS:
        values[var] = {frozenset([draw(st.integers(0, n - 1))]): draw(RATIONALS)}
    for var in EVEN_VARS:
        parts = {frozenset(): draw(RATIONALS)}
        if draw(st.booleans()):
            pair = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            parts[frozenset(pair)] = draw(RATIONALS)
        values[var] = parts
    return values


class TestAgainstReference:
    """The integer evaluation agrees with the frozenset/Fraction algorithm."""

    @settings(max_examples=150, deadline=None)
    @given(s=series(), data=st.data(), n=st.integers(2, 4))
    def test_evaluate_matches_reference(self, s, data, n):
        values = data.draw(assignments(n))
        assignment = Assignment(n, {var: GrassmannElement(n, parts)
                                    for var, parts in values.items()})
        got = evaluate(s, assignment)
        assert got == reference_evaluate(s, values, n)
        assert all(isinstance(c, Fraction) for c in got._parts.values())

    @settings(max_examples=60, deadline=None)
    @given(a=series(), b=series(), c=series(), delta=series(),
           n=st.integers(2, 4), seed=st.integers(0, 2 ** 16))
    def test_identity_check_matches_reference(self, a, b, c, delta, n, seed):
        lhs, rhs = a * (b + c), a * b + a * c + delta
        trials = 6
        report = identity_check(lhs, rhs, trials=trials, generators=n, seed=seed)
        # the same assignments, drawn from the same seed, judged by the reference
        rng = random.Random(seed)
        variables = lhs.variables() | rhs.variables()
        expected = []
        for trial in range(trials):
            assignment = random_assignment(variables, n, rng)
            values = {var: as_subsets(assignment[var]) for var in variables}
            left = reference_evaluate(lhs, values, n)
            right = reference_evaluate(rhs, values, n)
            if left != right:
                expected.append((f"trial {trial}", str(right), str(left),
                                 assignment.describe()))
                if len(expected) == 5:
                    break
        assert report.passed == (not expected)
        assert [(e.location, e.expected, e.actual, e.notes)
                for e in report.failures()] == expected


def test_merge_sign_matches_inversion_count():
    """Every pair of disjoint blades on up to six generators."""
    n = 6
    for left, right in itertools.product(range(1 << n), repeat=2):
        if left & right:
            continue
        count = inversions(blade(left, n), blade(right, n))
        assert (right & _odd_above(left)).bit_count() % 2 == count % 2
        product = (GrassmannElement(n, {blade(left, n): 1})
                   * GrassmannElement(n, {blade(right, n): 1}))
        assert product == GrassmannElement(n, {blade(left | right, n): (-1) ** count})


def test_false_identity_report_text_is_pinned():
    """A false identity's report, entry for entry, as the Fraction-based oracle wrote it."""
    x, xi1, xi2 = (Series.variable(v) for v in (X, XI1, XI2))
    lhs = x ** 2 * xi1 * xi2 + Fraction(2, 3) * x * xi1 + Fraction(-3, 4)
    rhs = x ** 2 * xi2 * xi1 + Fraction(2, 3) * x * xi1 + Fraction(-3, 4)
    report = identity_check(lhs, rhs, trials=20, generators=4, seed=7)
    assert report.title == "oracle identity check (seed 7, 20 trials, 4 generators)"
    assert [(e.status, e.location, e.expected, e.actual, e.notes)
            for e in report.entries] == [
        ("fail", "trial 0",
         "-3/4 + -8/3 * th2 + -28/9 * th0 * th2",
         "-3/4 + -8/3 * th2 + 28/9 * th0 * th2",
         "x -> -1; xi1 -> 4 * th2; xi2 -> -7/9 * th0"),
        ("fail", "trial 1",
         "-3/4 + 2/3 * th1 + -5/2 * th0 * th1",
         "-3/4 + 2/3 * th1 + 5/2 * th0 * th1",
         "x -> -1; xi1 -> -th1; xi2 -> 5/2 * th0"),
        ("fail", "trial 2",
         "-3/4 + 2 * th0 + -48/7 * th0 * th2 + -5/3 * th0 * th1 * th3"
         " + -80/7 * th0 * th1 * th2 * th3",
         "-3/4 + 2 * th0 + 48/7 * th0 * th2 + -5/3 * th0 * th1 * th3"
         " + 80/7 * th0 * th1 * th2 * th3",
         "x -> -2 + 5/3 * th1 * th3; xi1 -> -3/2 * th0; xi2 -> -8/7 * th2"),
        ("fail", "trial 3",
         "-3/4 + -1/27 * th0 + 1/18 * th0 * th2",
         "-3/4 + -1/27 * th0 + -1/18 * th0 * th2",
         "x -> -1/2 + -2 * th0 * th2; xi1 -> 1/9 * th0; xi2 -> -2 * th2"),
        ("fail", "trial 4",
         "-3/4 + 6/7 * th3 + 9/28 * th2 * th3 + -6/7 * th1 * th2 * th3",
         "-3/4 + 6/7 * th3 + -9/28 * th2 * th3 + -6/7 * th1 * th2 * th3",
         "x -> 1 + -th1 * th2; xi1 -> 9/7 * th3; xi2 -> 1/4 * th2"),
        ("info", "", "", "", "further disagreements suppressed"),
    ]


# ---------------------------------------------------------------------------
# the integer draws: the same stream as drawing Fractions
# ---------------------------------------------------------------------------

def fraction_random_assignment(variables, generator_count, rng):
    """``random_assignment`` as written when it built a Fraction for every draw."""
    variables = sorted(set(variables), key=lambda v: v.key)
    odd_vars = [v for v in variables if v.parity]
    indices = list(range(generator_count))
    if len(odd_vars) <= generator_count:
        chosen = rng.sample(indices, len(odd_vars))
    else:
        chosen = [rng.choice(indices) for _ in odd_vars]
    values = {}
    for var, idx in zip(odd_vars, chosen):
        values[var] = GrassmannElement(generator_count, {(idx,): fraction_rational(rng)})
    for var in variables:
        if var.parity:
            continue
        parts = {(): fraction_rational(rng)}
        if generator_count >= 2 and rng.random() < 0.5:
            i, j = rng.sample(indices, 2)
            parts[(i, j)] = fraction_rational(rng)
        values[var] = GrassmannElement(generator_count, parts)
    return Assignment(generator_count, values)


def fraction_rational(rng):
    numerator = rng.choice(tuple(n for n in range(-9, 10) if n != 0))
    denominator = rng.randint(1, 9)
    return Fraction(numerator, denominator)


@st.composite
def graded_variables(draw):
    """0-8 odd and 0-3 even variables, their indices in any order."""
    n_odd, n_even = draw(st.integers(0, 8)), draw(st.integers(0, 3))
    indices = draw(st.permutations(range(n_odd + n_even)))
    parities = [1] * n_odd + [0] * n_even
    return [GradedVariable(f"{'xi' if parity else 'x'}{index}", parity, 0, 0, index)
            for parity, index in zip(parities, indices)]


def assert_draws_follow_the_fraction_stream(variables, generator_count, seed, draws=3):
    rng, fraction_rng = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        drawn = random_assignment(variables, generator_count, rng)
        expected = fraction_random_assignment(variables, generator_count, fraction_rng)
        assert drawn.describe() == expected.describe()
        for var in variables:
            assert drawn[var] == expected[var]
        assert rng.getstate() == fraction_rng.getstate()


# up to 21 generators, random.Random.sample swaps picks out of a pool; past 21
# it keeps a set of picks for few of them, and random_assignment calls it
@settings(max_examples=200, deadline=None)
@given(variables=graded_variables(), data=st.data(),
       generator_count=st.one_of(st.integers(1, 6), st.integers(19, 40)),
       seed=st.integers(0, 2 ** 32))
def test_integer_draws_follow_the_fraction_stream(variables, data, generator_count, seed):
    # an unsorted list, a set and a list with repeats, each also through the
    # key order built from it, which is built once and then passed as it is
    repeated = variables + (data.draw(st.lists(st.sampled_from(variables), max_size=4))
                            if variables else [])
    for given_as in (variables, set(variables), repeated):
        order = _in_key_order(given_as)
        assert _in_key_order(order) is order
        assert list(order) == sorted(set(variables), key=lambda v: v.key)
        assert [order[i] for i in order.odd] == [v for v in order if v.parity]
        assert [order[i] for i in order.even] == [v for v in order if not v.parity]
        assert_draws_follow_the_fraction_stream(given_as, generator_count, seed)
        assert_draws_follow_the_fraction_stream(order, generator_count, seed)


def odd_and_even(n_odd, n_even):
    return ([GradedVariable(f"xi{j}", 1, 0, 0, j) for j in range(n_odd)]
            + [GradedVariable(f"x{j}", 0, 0, 0, n_odd + j) for j in range(n_even)])


@pytest.mark.parametrize("n_odd, n_even, generator_count", [
    (3, 2, 22), (5, 1, 30), (7, 2, 30), (0, 3, 64),  # sample called, past 21
    (2, 2, 21), (6, 1, 21),                          # the last pool-swap count
    (5, 1, 2), (8, 0, 3), (4, 2, 1),                 # more odd variables: choice
    (1, 2, 1), (0, 3, 1),                            # a single generator
], ids=lambda value: str(value))
def test_every_draw_branch_follows_the_fraction_stream(n_odd, n_even, generator_count):
    for seed in range(25):
        assert_draws_follow_the_fraction_stream(odd_and_even(n_odd, n_even),
                                                generator_count, seed, draws=4)


# false identities, as (lhs, rhs, generators, seed, trials), over every draw
# branch: the suggested count, one generator, more odd variables than
# generators, and 24 and 30 generators
FALSE_IDENTITIES = [
    ("xi1 * xi2", "xi2 * xi1", None, 3, 20),
    ("x * y + xi1 + xi2", "y * x + xi2", 1, 8, 12),
    ("xi1 * xi2 + x * xi3", "xi2 * xi1 + xi3 * x", 2, 13, 30),
    ("x^2 * xi1 * xi3 + 2 * x * y * xi1 * xi3", "x^2 * xi1 * xi3 + x * y * xi1 * xi3", 24, 21, 10),
    ("x * xi1 * xi2 * xi3", "x * xi2 * xi1 * xi3", 30, 34, 6),
]


def test_failing_reports_keep_their_bytes():
    names = {var.name: var for var in (XI1, XI2, X, XI3, Y)}
    digest = hashlib.sha256()
    for lhs, rhs, generators, seed, trials in FALSE_IDENTITIES:
        report = identity_check(parse_series(lhs, names), parse_series(rhs, names),
                                trials=trials, generators=generators, seed=seed)
        assert len(report.failures()) == 5
        digest.update(report.to_text().encode())
    assert digest.hexdigest() == (
        "89f90577cd8fc7d73def593d83d3ad1fb8ba5f4fa86f979fd5409aa9d057125b")


def test_an_odd_variable_needs_a_generator():
    xi = Series.variable(XI2)
    with pytest.raises(ValueError, match="odd variable xi2 needs at least one generator"):
        identity_check(xi, xi, generators=0)
    with pytest.raises(ValueError, match="odd variable xi1"):
        random_assignment([X, XI2, XI1], 0, random.Random(1))
    for count in (-1, -4):
        for variables in ([X], [XI1], []):
            with pytest.raises(ValueError, match="generator count must be nonnegative"):
                random_assignment(variables, count, random.Random(1))
    # even variables alone take no generator
    x = Series.variable(X)
    assert identity_check(x * x, x ** 2, trials=5, generators=0).passed


@pytest.mark.parametrize("trials", [0, -1])
def test_an_identity_check_needs_a_trial(trials):
    # no trial run would report "no counterexample" for any pair of series
    x = Series.variable(X)
    with pytest.raises(ValueError, match="at least 1 trial"):
        identity_check(x, 2 * x, trials=trials)


def test_drawn_assignment_misses_an_unbound_variable():
    drawn = random_assignment([XI1, X], 3, random.Random(1))
    with pytest.raises(MissingBinding):
        drawn[XI2]
    with pytest.raises(MissingBinding):
        evaluate(Series.variable(XI1) * Series.variable(Y), drawn)


def test_hand_built_even_variable_rejects_an_odd_element():
    with pytest.raises(ParityViolation):
        Assignment(3, {X: GrassmannElement.scalar(3, 2) + gen(3, 1)})


# ---------------------------------------------------------------------------
# edge terms, against the reference evaluator
# ---------------------------------------------------------------------------

def reference_failures(lhs, rhs, trials, n, seed):
    """The failures ``identity_check`` must report, judged by the reference."""
    rng = random.Random(seed)
    variables = lhs.variables() | rhs.variables()
    failures = []
    for trial in range(trials):
        assignment = random_assignment(variables, n, rng)
        values = {var: as_subsets(assignment[var]) for var in variables}
        left = reference_evaluate(lhs, values, n)
        right = reference_evaluate(rhs, values, n)
        if left != right:
            failures.append((f"trial {trial}", str(right), str(left), assignment.describe()))
            if len(failures) == 5:
                break
    return failures


def assert_check_matches_reference(lhs, rhs, n, seed=11, trials=12):
    report = identity_check(lhs, rhs, trials=trials, generators=n, seed=seed)
    expected = reference_failures(lhs, rhs, trials, n, seed)
    assert report.passed == (not expected)
    assert [(e.location, e.expected, e.actual, e.notes)
            for e in report.failures()] == expected
    return report


def assert_evaluate_matches_reference(series, values, n):
    assignment = Assignment(n, {var: GrassmannElement(n, parts) for var, parts in values.items()})
    assert evaluate(series, assignment) == reference_evaluate(series, values, n)


x, y, xi1, xi2 = (Series.variable(v) for v in (X, Y, XI1, XI2))
SOULFUL_X = {X: {frozenset(): Fraction(2, 3), frozenset([0, 1]): Fraction(-5, 2)}}


class TestEdgeTerms:
    def test_constant_only_series(self):
        constant = Series.constant(Fraction(-7, 4))
        assert_evaluate_matches_reference(constant, {}, 2)
        assert_evaluate_matches_reference(constant, SOULFUL_X, 2)
        assert assert_check_matches_reference(constant, constant, 2).passed
        assert not assert_check_matches_reference(constant, Series.constant(2), 2).passed

    def test_zero_series(self):
        zero = Series.zero()
        assert evaluate(zero, Assignment(2, {})).is_zero
        assert_evaluate_matches_reference(zero, SOULFUL_X, 2)
        assert assert_check_matches_reference(zero, zero, 2).passed
        assert not assert_check_matches_reference(zero, x * xi1 + 1, 3).passed
        assert not assert_check_matches_reference(x * xi1 + 1, zero, 3).passed

    def test_even_variable_cubed_with_a_two_generator_term(self):
        cube = Fraction(3, 5) * x ** 3 - x
        assert_evaluate_matches_reference(cube, SOULFUL_X, 2)
        assert_evaluate_matches_reference(cube * y, {**SOULFUL_X, Y: {frozenset(): 3}}, 3)
        assert assert_check_matches_reference(x ** 3, x * x * x, 4).passed
        assert not assert_check_matches_reference(x ** 3, x ** 3 + x * y, 4).passed

    def test_odd_variables_sharing_one_generator_vanish_mid_term(self):
        shared = {XI1: {frozenset([1]): Fraction(4)}, XI2: {frozenset([1]): Fraction(-1, 3)},
                  X: {frozenset(): Fraction(2)}}
        s = Fraction(1, 2) * xi1 * xi2 * x ** 2 + x
        assert_evaluate_matches_reference(s, shared, 2)
        assert_evaluate_matches_reference(xi1 * xi2 * x, shared, 2)
        # one generator: the trials' products vanish before the last factor
        assert assert_check_matches_reference(xi1 * xi2 * x, Series.zero(), 1).passed

    def test_one_generator(self):
        assert not assert_check_matches_reference(xi1 * x, xi1 * y, 1).passed
        assert_check_matches_reference(x ** 2 + xi1, x * x + xi1, 1)
        assert_evaluate_matches_reference(x * xi1 + 1, {X: {frozenset(): Fraction(-2, 9)},
                                                        XI1: {frozenset([0]): Fraction(5)}}, 1)

    def test_variables_that_share_a_key(self):
        # the same name, index and fiber degree: one key, two variables
        even, odd = (Series.variable(GradedVariable("t", parity, 0, 0, 9)) for parity in (0, 1))
        s = even ** 2 * odd + Fraction(1, 3) * odd
        assert assert_check_matches_reference(s, odd * even * even + odd / 3, 3).passed
        assert not assert_check_matches_reference(s, odd * even + odd / 3, 3).passed


# ---------------------------------------------------------------------------
# the compiled difference against the two-sided loop
# ---------------------------------------------------------------------------

def two_sided_check(lhs, rhs, trials, generators, seed):
    """``identity_check`` as written when every trial evaluated both sides and
    compared them, here as exact rationals, so that it shares no compiled
    difference with the check."""
    if generators is None:
        generators = suggested_generator_count(lhs, rhs)
    rng = random.Random(seed)
    variables = _in_key_order(lhs.variables() | rhs.variables())
    report = Report(f"oracle identity check (seed {seed}, {trials} trials, "
                    f"{generators} generators)")
    failures = 0
    for trial in range(trials):
        assignment = random_assignment(variables, generators, rng)
        if evaluate(lhs, assignment) != evaluate(rhs, assignment):
            failures += 1
            report.fail("oracle-trial", location=f"trial {trial}",
                        expected=str(evaluate(rhs, assignment)),
                        actual=str(evaluate(lhs, assignment)),
                        notes=assignment.describe())
            if failures >= 5:
                report.info("oracle-trial", notes="further disagreements suppressed")
                break
    if failures == 0:
        report.ok("oracle-agreement",
                  notes=f"no counterexample in {trials} trials")
    return report


@st.composite
def odd_series(draw):
    """A sum of one to three monomials, each with one or three odd variables."""
    total = Series.zero()
    for _ in range(draw(st.integers(1, 3))):
        term = Series.constant(draw(RATIONALS)) * x ** draw(st.integers(0, 2))
        for var in draw(st.sampled_from([(XI1,), (XI2,), (XI3,), ODD_VARS])):
            term = term * Series.variable(var)
        total = total + term
    return total


@st.composite
def identity_pairs(draw):
    """Equal pairs, odd products commuted with either sign, pairs that differ
    by one monomial, and pairs with one zero side."""
    kind = draw(st.sampled_from(["equal", "commuted", "monomial", "zero"]))
    if kind == "commuted":
        u, v = draw(odd_series()), draw(odd_series())
        return u * v, v * u * draw(st.sampled_from([1, -1]))
    a, b, c = draw(series()), draw(series()), draw(series())
    if kind == "equal":
        return a * (b + c), a * b + a * c
    if kind == "monomial":
        return a * b, a * b + draw(monomials())
    return draw(st.permutations([a * b + c, Series.zero()]))


@settings(max_examples=200, deadline=None)
@given(pair=identity_pairs(), trials=st.integers(1, 40),
       generators=st.none() | st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_the_difference_reports_as_the_two_sided_loop(pair, trials, generators, seed):
    # one or two generators are too few for three odd variables to get one each
    lhs, rhs = pair
    got = identity_check(lhs, rhs, trials=trials, generators=generators, seed=seed)
    want = two_sided_check(lhs, rhs, trials, generators, seed)
    assert got.passed == want.passed
    assert got.title == want.title
    assert [e.to_json() for e in got.entries] == [e.to_json() for e in want.entries]
    assert [e.to_text() for e in got.entries] == [e.to_text() for e in want.entries]


def counting(monkeypatch, name):
    """Replace ``oracle.name`` by a wrapper that counts its calls."""
    original = getattr(oracle, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(oracle, name, wrapper)
    return calls


def test_a_true_identity_draws_every_trial_and_multiplies_nothing(monkeypatch):
    products = counting(monkeypatch, "_product")
    draws = counting(monkeypatch, "random_assignment")
    lhs = xi1 * xi2 * x ** 2 + Fraction(2, 3) * x * xi1
    rhs = -(xi2 * xi1) * x * x + xi1 * x * Fraction(2, 3)
    assert identity_check(lhs, rhs, trials=9, generators=3, seed=5).passed
    assert (len(products), len(draws)) == (0, 9)


# ---------------------------------------------------------------------------
# the key order: built once per check, and drawn from as any collection is
# ---------------------------------------------------------------------------

def test_a_check_puts_its_variables_in_key_order_once(monkeypatch):
    key_order = oracle._KEY_ORDER
    keys = []

    def counted(var):
        keys.append(var)
        return key_order(var)

    monkeypatch.setattr(oracle, "_KEY_ORDER", counted)
    lhs = xi1 * xi2 * x ** 2 + Fraction(2, 3) * x * xi1
    assert identity_check(lhs, -(xi2 * xi1) * x * x + xi1 * x * Fraction(2, 3),
                          trials=9, generators=3, seed=5).passed
    assert len(keys) == 3
    # a false one: its reports evaluate on the check's order, and sort nothing more
    keys.clear()
    report = identity_check(xi1 * xi2 * x, xi2 * xi1 * x, trials=9, generators=3, seed=5)
    assert len(report.failures()) == 5
    assert len(keys) == 3


def test_a_false_check_compiles_twice(monkeypatch):
    compiles = counting(monkeypatch, "_integer_terms")
    evaluations = counting(monkeypatch, "evaluate")
    report = identity_check(xi1 * xi2 * x, xi2 * xi1 * x, trials=9, generators=3, seed=5)
    assert len(report.failures()) == 5
    # each side once, for the difference and for all five reports; when the
    # difference was compiled jointly from both sides, this was (3, 10)
    assert (len(compiles), len(evaluations)) == (2, 10)


def test_a_hand_built_assignment_keeps_its_values_in_key_order():
    values = {X: GrassmannElement.scalar(3, 2), XI2: gen(3, 0), XI1: gen(3, 1).scaled(-1)}
    assignment = Assignment(3, values)
    assert list(assignment._variables) == [XI1, XI2, X]
    assert assignment._pairs == [{0b010: (-1, 1)}, {0b001: (1, 1)}, {0: (2, 1)}]
    s = xi1 * xi2 * x
    assert evaluate(s, assignment) == (gen(3, 0) * gen(3, 1)).scaled(2)
    assert evaluate(s, Assignment(3, dict(reversed(values.items())))) == evaluate(s, assignment)


@pytest.mark.parametrize("parts, message", [
    ({(5,): 1}, "generator index 5 out of range"),
    ({(-1,): 1}, "generator index -1 out of range"),
    ({(0, 2): 3}, "generator index 2 out of range"),
    ({(0, 0): 1}, "generator index 0 repeated"),
    ({(1, 0, 1): 0}, "generator index 1 repeated"),
])
def test_a_blade_off_the_generators_is_refused(parts, message):
    with pytest.raises(ValueError, match=message):
        GrassmannElement(2, parts)


def test_an_element_of_another_generator_count_is_refused():
    with pytest.raises(ValueError, match="variable xi1 assigned an element of 5 generators, not 2"):
        Assignment(2, {XI1: GrassmannElement(5, {(4,): 1})})
    with pytest.raises(ValueError, match="variable x assigned an element of 1 generators"):
        Assignment(2, {XI2: gen(2, 1), X: GrassmannElement.scalar(1, 3)})
