import functools
import operator
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel.errors import ProblemSyntaxError, UnknownNameError
from gradedkernel.expr import parse_series
from gradedkernel.graded_core import GradedVariable, Series, format_series
from gradedkernel.sampling import random_homogeneous
from test_graded_core import normalize_product

X = GradedVariable("x", 0, 0, 0, 0)
XI1 = GradedVariable("xi1", 1, 1, 0, 1)
XI2 = GradedVariable("xi2", 1, 1, 0, 2)
P = GradedVariable("p_x", 0, 0, 1, 0)
ENV = {v.name: v for v in (X, XI1, XI2, P)}


def test_free_variable_order_normalizes():
    assert parse_series("xi2 * xi1", ENV) == -parse_series("xi1 * xi2", ENV)


def test_rational_coefficients():
    s = parse_series("-1/2 * x^2 * p_x + 3", ENV)
    assert s == Series.constant(3) - Series.variable(X) ** 2 * Series.variable(P) / 2


def test_literals():
    assert parse_series("0", ENV).is_zero
    assert parse_series("1", ENV) == Series.one()


def test_multiple_numeric_factors():
    assert parse_series("2 * 3 * x * 1/6", ENV) == Series.variable(X)


def test_odd_exponent_vanishes():
    assert parse_series("xi1^2", ENV).is_zero


def test_unknown_name_position():
    with pytest.raises(UnknownNameError) as err:
        parse_series("x + nope", ENV)
    assert err.value.line == 1 and err.value.column == 5


def test_syntax_error_position():
    with pytest.raises(ProblemSyntaxError):
        parse_series("x * * 2", ENV)
    with pytest.raises(ProblemSyntaxError):
        parse_series("1/0", ENV)
    # int() would read the Arabic-Indic digit as 3
    with pytest.raises(ProblemSyntaxError) as err:
        parse_series("x^\u0663", ENV)
    assert err.value.column == 3


def test_print_parse_round_trip():
    rng = random.Random(7)
    for _ in range(400):
        s = random_homogeneous(list(ENV.values()), rng, max_degree=3)
        assert parse_series(format_series(s), ENV) == s


def test_powers_of_an_odd_variable():
    assert parse_series("xi1^0", ENV) == Series.one()
    assert parse_series("xi1^1", ENV) == Series.variable(XI1)
    assert parse_series("xi1^2", ENV).is_zero
    assert parse_series("xi1^0 * xi1", ENV) == Series.variable(XI1)


@settings(max_examples=200, deadline=None)
@given(st.permutations([(v, e) for v in ENV.values() for e in range(4)]),
       st.integers(1, 16), st.integers(-3, 3))
def test_shuffled_factors_match_the_sort_reference(factors, count, coefficient):
    picked = factors[:count]
    text = " * ".join([str(coefficient)] + [f"{v.name}^{e}" for v, e in picked])
    term = normalize_product([v for v, e in picked for _ in range(e)])
    expected = Series({term.monomial: coefficient * term.coefficient})
    assert parse_series(text, ENV) == expected


def test_parse_cost_does_not_grow_with_exponents():
    env = dict(ENV, y=GradedVariable("y", 0, 0, 0, 3))
    start = time.perf_counter()
    s = parse_series("y^1000000 * x^1000000", env)
    assert time.perf_counter() - start < 1.0
    assert s == Series({((X, 10 ** 6), (env["y"], 10 ** 6)): 1})
    assert parse_series(format_series(s), env) == s


def test_long_sums_parse_in_linear_time():
    text = " + ".join(f"{k % 7 + 1}/{k % 5 + 1} * x^{k}" for k in range(20000))
    start = time.perf_counter()
    s = parse_series(text, ENV)
    assert time.perf_counter() - start < 1.0
    assert s.coefficient(((X, 19999),)) == Fraction(19999 % 7 + 1, 19999 % 5 + 1)
    assert len(s.items()) == 20000


def test_sum_equals_the_pairwise_sum():
    terms = ["1/2 * x", "- 1/3 * xi1 * xi2", "+ 1/6 * x", "+ xi2 * xi1", "- 1/3 * x",
             "+ 4/3 * xi1 * xi2", "+ 3/5 * p_x^2", "- 3/5 * p_x * p_x"]
    pairwise = functools.reduce(operator.add, (parse_series(t, ENV) for t in terms))
    assert parse_series(" ".join(terms), ENV) == pairwise
    assert pairwise == Series.variable(X) / 3
