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
    from gradedkernel.homotopy import derived_bracket_H

    chart = Chart.build([("x1", 0, 0), ("x2", 0, 0)], "gstar")
    ct = shifted_anticotangent(chart, 1)
    x1, x2 = (Series.variable(v) for v in chart.variables)
    xs1, xs2 = (Series.variable(v) for v in ct.fiber)
    P = x2 * xs1 * xs2

    def br(f, g):
        return derived_bracket_H(P, [f, g], ct)

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
