import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel.errors import MissingBinding, ParityViolation
from gradedkernel.graded_core import GradedVariable, Series
from gradedkernel.oracle import (
    Assignment,
    GrassmannElement,
    _odd_above,
    evaluate,
    identity_check,
    random_assignment,
)

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
def series(draw):
    """A sum of up to five monomials of total degree 0 to 7 with small rationals."""
    total = Series.zero()
    for _ in range(draw(st.integers(0, 5))):
        term = Series.constant(draw(RATIONALS))
        for var in EVEN_VARS:
            term = term * Series.variable(var) ** draw(st.integers(0, 2))
        for var in ODD_VARS:
            if draw(st.booleans()):
                term = term * Series.variable(var)
        total = total + term
    return total


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
    """0-5 odd and 0-3 even variables, their indices in any order."""
    n_odd, n_even = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    indices = draw(st.permutations(range(n_odd + n_even)))
    parities = [1] * n_odd + [0] * n_even
    return [GradedVariable(f"{'xi' if parity else 'x'}{index}", parity, 0, 0, index)
            for parity, index in zip(parities, indices)]


@settings(max_examples=200, deadline=None)
@given(variables=graded_variables(), generator_count=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32))
def test_integer_draws_follow_the_fraction_stream(variables, generator_count, seed):
    rng, fraction_rng = random.Random(seed), random.Random(seed)
    for _ in range(3):
        drawn = random_assignment(variables, generator_count, rng)
        expected = fraction_random_assignment(variables, generator_count, fraction_rng)
        assert drawn.describe() == expected.describe()
        for var in variables:
            assert drawn[var] == expected[var]
        assert rng.getstate() == fraction_rng.getstate()


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
