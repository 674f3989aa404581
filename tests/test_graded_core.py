import ast
import functools
import itertools
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import gradedkernel
from gradedkernel import oracle
from gradedkernel.errors import ExponentOverflow, GradingMismatch, InhomogeneousSeries, ZeroSeries
from gradedkernel.graded_core import (
    _REGISTRY,
    EXPONENT_BOUND,
    Bigrading,
    GradedVariable,
    Series,
    format_series,
    monomial_bigrading,
)
from gradedkernel.sampling import (
    bucket_by_bigrading,
    enumerate_monomials,
    random_homogeneous,
    small_rational,
)

from helpers import normalize_product

X = GradedVariable("x", 0, 0, 0, 0)
XI1 = GradedVariable("xi1", 1, 1, 0, 1)
XI2 = GradedVariable("xi2", 1, 1, 0, 2)
Q = GradedVariable("q", 0, 0, 1, 0)
VARS = [X, XI1, XI2, Q]


def V(var):
    return Series.variable(var)


class TestNormalizeProduct:
    def test_sorted_pair(self):
        term = normalize_product([XI1, XI2])
        assert term.coefficient == 1
        assert term.monomial == ((XI1, 1), (XI2, 1))

    def test_one_swap(self):
        term = normalize_product([XI2, XI1])
        assert term.coefficient == -1
        assert term.monomial == ((XI1, 1), (XI2, 1))

    def test_odd_square_vanishes(self):
        assert normalize_product([XI1, XI1]).is_zero

    def test_even_factor_commutes_freely(self):
        term = normalize_product([X, XI2, XI1])
        assert term.coefficient == -1
        assert term.monomial == ((X, 1), (XI1, 1), (XI2, 1))

    def test_even_exponents_merge(self):
        term = normalize_product([X, X, X])
        assert term.coefficient == 1
        assert term.monomial == ((X, 3),)


class TestArithmetic:
    def test_add_cancels(self):
        assert (V(X) + V(XI1) * V(XI2)) + (-V(X)) == V(XI1) * V(XI2)

    def test_add_identity(self):
        s = V(X) * 3 + V(XI1)
        assert Series.zero() + s == s

    def test_add_halves(self):
        assert V(X) * Fraction(1, 2) + V(X) * Fraction(1, 2) == V(X)

    def test_supercommutativity_of_odd_pair(self):
        assert V(XI1) * V(XI2) == -(V(XI2) * V(XI1))

    def test_difference_of_squares_with_odd(self):
        # (x+xi)(x-xi) = x^2: cross terms cancel, xi^2 = 0
        assert (V(X) + V(XI1)) * (V(X) - V(XI1)) == V(X) ** 2

    def test_unit(self):
        s = V(X) * V(XI1) - Series.constant(2)
        assert Series.one() * s == s

    def test_scalar_division(self):
        assert (V(X) / 2) * 2 == V(X)

    def test_rational_minus_series(self):
        assert 3 - V(X) == Series.constant(3) - V(X)
        assert Fraction(1, 2) - V(X) == -(V(X) - Fraction(1, 2))

    def test_non_rational_minus_series_is_python_type_error(self):
        with pytest.raises(TypeError,
                           match=r"unsupported operand type\(s\) for -: 'str' and 'Series'"):
            "a" - V(X)

    def test_variable_powers(self):
        assert Series.variable(X, 3) == V(X) ** 3
        assert Series.variable(X, 0) == Series.one()
        assert Series.variable(XI1, 2).is_zero
        with pytest.raises(ValueError):
            Series.variable(X, -1)


class TestBigrade:
    def test_product_of_odds(self):
        assert (V(XI1) * V(XI2)).bigrading() == Bigrading(0, 2)

    def test_inhomogeneous_raises(self):
        with pytest.raises(InhomogeneousSeries):
            (V(X) + V(XI1)).bigrading()

    def test_zero_raises(self):
        with pytest.raises(ZeroSeries):
            Series.zero().bigrading()

    def test_fiber_weight_bookkeeping(self):
        # w(p) = -w + s forces w(p*x) = s
        w, s = 3, 1
        x = GradedVariable("x", 1, w, 0, 0)
        p = GradedVariable("p_x", 1, -w + s, 1, 0)
        assert (V(p) * V(x)).bigrading() == Bigrading(0, s)


class TestLeftDerivative:
    def test_leading_position(self):
        assert (V(XI1) * V(XI2)).left_derivative(XI1) == V(XI2)

    def test_past_one_odd_factor(self):
        assert (V(XI1) * V(XI2)).left_derivative(XI2) == -V(XI1)

    def test_even_power(self):
        assert (V(X) ** 2).left_derivative(X) == 2 * V(X)

    def test_missing_variable(self):
        assert (V(X) ** 2).left_derivative(XI1).is_zero


class TestSubstitute:
    def test_affine_in_even(self):
        c = GradedVariable("c", 0, 0, 0, 3)
        y = GradedVariable("y", 0, 0, 0, 4)
        s = V(c) * V(y)
        out = s.substitute({y: V(X) + V(c)})
        assert out == V(c) * V(X) + V(c) ** 2

    def test_odd_to_zero(self):
        assert (V(XI1) * V(X)).substitute({XI1: Series.zero()}).is_zero

    def test_grading_mismatch(self):
        with pytest.raises(GradingMismatch):
            V(X).substitute({X: V(XI1)})

    def test_truncated_binding_truncates_unbound_terms(self):
        # q stays unbound; the order cuts the binding and q^2 alike
        out = (V(Q) ** 2 + V(X)).substitute({X: V(X) + V(Q) + V(Q) ** 2}, 1)
        assert out == V(X) + V(Q)
        with pytest.raises(ValueError):
            V(X).substitute({}, -1)

    def test_simultaneous(self):
        # x -> xi1 would alias if applied sequentially; bindings are parallel
        a = GradedVariable("a", 0, 0, 0, 5)
        b = GradedVariable("b", 0, 0, 0, 6)
        s = V(a) * V(b)
        out = s.substitute({a: V(b), b: V(a)})
        assert out == V(a) * V(b)


class TestTruncate:
    def test_drops_high_fiber_degree(self):
        s = Series.one() + V(Q) + V(Q) * V(Q) * Fraction(1, 2)
        assert s.truncate(1) == Series.one() + V(Q)

    def test_noop_at_high_order(self):
        s = Series.one() + V(Q)
        assert s.truncate(10) is s

    def test_zero(self):
        assert Series.zero().truncate(3).is_zero

    def test_truncated_multiplication(self):
        # a truncated series is exact: it multiplies as the terms it kept
        s = (Series.one() + V(Q) + V(Q) ** 2).truncate(1)
        assert s * s == Series.one() + 2 * V(Q) + V(Q) ** 2

    def test_fiber_derivative_lowers_order(self):
        s = (V(Q) ** 2).truncate(2)
        assert s.left_derivative(Q) == 2 * V(Q)
        assert s.left_derivative(Q).fiber_degree() == 1

    def test_truncating_upward_keeps_the_lower_order(self):
        # q^3 is gone at order 2, and truncating at 5 does not bring it back
        s = (V(Q) + V(Q) ** 3).truncate(2).truncate(5)
        assert s == V(Q)
        assert s * s == V(Q) ** 2

    def test_a_cut_factor_keeps_the_degree_its_partner_lifts(self):
        assert V(Q) * (Series.one() + V(Q)).truncate(0) == V(Q)


@st.composite
def random_series(draw, variables=VARS, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        factors = draw(st.lists(st.sampled_from(variables), max_size=3))
        term = normalize_product(factors)
        if term.is_zero:
            continue
        coeff = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        terms[term.monomial] = terms.get(term.monomial, Fraction(0)) + coeff * term.coefficient
    return Series(terms)


@st.composite
def homogeneous_series(draw, variables=VARS):
    factors = draw(st.lists(st.sampled_from(variables), max_size=3))
    base = normalize_product(factors)
    if base.is_zero:
        return Series.zero(), Bigrading(0, 0)
    series = Series({base.monomial: base.coefficient * Fraction(draw(st.integers(1, 4)))})
    grade = series.bigrading()
    return series, grade


@settings(max_examples=120, deadline=None)
@given(homogeneous_series(), homogeneous_series())
def test_supercommutativity(ab, cd):
    a, ga = ab
    b, gb = cd
    sign = -1 if (ga.parity and gb.parity) else 1
    assert a * b == sign * (b * a)


@settings(max_examples=120, deadline=None)
@given(homogeneous_series(), random_series())
def test_graded_leibniz(ab, b):
    a, grade = ab
    for v in VARS:
        lhs = (a * b).left_derivative(v)
        sign = -1 if (v.parity and grade.parity) else 1
        rhs = a.left_derivative(v) * b + sign * (a * b.left_derivative(v))
        assert lhs == rhs


@settings(max_examples=120, deadline=None)
@given(random_series())
def test_odd_second_derivatives_anticommute(s):
    assert s.left_derivative(XI1).left_derivative(XI2) == \
        -(s.left_derivative(XI2).left_derivative(XI1))
    assert s.left_derivative(XI1).left_derivative(XI1).is_zero


@settings(max_examples=100, deadline=None)
@given(random_series(), random_series(), random_series())
def test_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100, deadline=None)
@given(random_series(), random_series())
def test_merge_matches_normalize(a, b):
    # the packed product of one-term series must agree with the generic sort
    for ma, ca in a.items():
        for mb, cb in b.items():
            product = Series({ma: 1}) * Series({mb: 1})
            flat = [v for v, e in ma for _ in range(e)] + \
                   [v for v, e in mb for _ in range(e)]
            term = normalize_product(flat)
            if product.is_zero:
                assert term.is_zero
            else:
                [(monomial, sign)] = product.items()
                assert term.coefficient == sign and term.monomial == monomial


def test_format_zero_and_one():
    assert format_series(Series.zero()) == "0"
    assert format_series(Series.one()) == "1"


@settings(max_examples=100, deadline=None)
@given(homogeneous_series(), homogeneous_series())
def test_bigrade_of_product_adds(ab, cd):
    a, ga = ab
    b, gb = cd
    product = a * b
    if not product.is_zero:
        assert product.bigrading() == Bigrading((ga.parity + gb.parity) % 2,
                                                ga.weight + gb.weight)


# -- the product and substitution against a naive reference --------------------

PI = GradedVariable("pi", 1, 0, 1, 1)
MIXED = [X, XI1, XI2, Q, PI]


def factors_of(monomial):
    return [var for var, exp in monomial for _ in range(exp)]


def monomial_fiber_degree(monomial):
    return sum(exp for var, exp in monomial if var.fiber_degree)


@st.composite
def monomials(draw, max_degree, variables=MIXED):
    """A canonical monomial: even exponents up to 3, odd ones up to 1."""
    exponents = [draw(st.integers(0, 1 if v.parity else 3)) for v in variables]
    factors = [v for v, e in zip(variables, exponents) for _ in range(e)][:max_degree]
    return normalize_product(factors).monomial


@st.composite
def mixed_series(draw, max_terms=3, max_degree=9, variables=MIXED):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[draw(monomials(max_degree, variables))] = coeff
    return Series(terms)


@st.composite
def binding_for(draw, var, variables=MIXED):
    """Zero, or a series homogeneous of ``var``'s bigrading."""
    products = (normalize_product(list(factors)) for n in range(3)
                for factors in itertools.combinations_with_replacement(variables, n))
    pool = [t.monomial for t in products
            if not t.is_zero and monomial_bigrading(t.monomial) == var.bigrading]
    chosen = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    terms = {m: Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2))) for m in chosen}
    return Series(terms)


@st.composite
def bindings(draw):
    """Bindings for a random subset of MIXED; the rest stay unbound."""
    bound = draw(st.lists(st.sampled_from(MIXED), unique=True))
    return {var: draw(binding_for(var)) for var in bound}


def naive_sum(products):
    """Sum ``coeff * factors`` over (coeff, factor list) pairs, by sorting each list."""
    out = {}
    for coeff, factors in products:
        term = normalize_product(factors)
        if term.is_zero:
            continue
        out[term.monomial] = out.get(term.monomial, Fraction(0)) + coeff * term.coefficient
    return Series(out)


def naive_left_derivative(series, var):
    """The left derivative term by term: each odd factor before ``var`` flips the sign."""
    out = {}
    for monomial, coeff in series.items():
        for position, (factor, exp) in enumerate(monomial):
            if factor == var:
                odd_before = sum(f.parity for f, _ in monomial[:position])
                sign = -1 if var.parity and odd_before % 2 else 1
                rest = monomial[:position] + ((var, exp - 1),) * (exp > 1) + monomial[position + 1:]
                out[rest] = coeff * exp * sign
    return Series(out)


def assert_invariants(series, order=None):
    for monomial, coeff in series.items():
        assert isinstance(coeff, Fraction) and coeff != 0
        assert order is None or monomial_fiber_degree(monomial) <= order


@settings(max_examples=300, deadline=None)
@given(mixed_series(), mixed_series())
def test_product_matches_naive(a, b):
    product = a * b
    expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                          for ma, ca in a.items() for mb, cb in b.items()))
    assert product == expected
    assert_invariants(product)


def naive_substitute(s, bound):
    """Expand every factor of every term into its binding's terms, or itself."""
    products = []
    for monomial, coeff in s.items():
        choices = [bound[var].items() if var in bound else [(((var, 1),), Fraction(1))]
                   for var in factors_of(monomial)]
        for picked in itertools.product(*choices):
            value = coeff
            factors = []
            for m, c in picked:
                value *= c
                factors += factors_of(m)
            products.append((value, factors))
    return naive_sum(products)


def assert_substitute_matches_naive(s, bound):
    result = s.substitute(bound)
    assert result == naive_substitute(s, bound)
    assert_invariants(result)


def assert_order_cuts_substitute(s, bound):
    """substitute's order is the whole substitution's truncation, for
    order None and 0..4."""
    exact = s.substitute(bound)
    for order in (None, 0, 1, 2, 3, 4):
        cut = s.substitute(bound, order)
        assert cut == (exact if order is None else exact.truncate(order))
        assert_invariants(cut, order)


@settings(max_examples=300, deadline=None)
@given(mixed_series(max_degree=4), bindings())
def test_substitute_matches_naive(s, bound):
    assert_substitute_matches_naive(s, bound)


@settings(max_examples=200, deadline=None)
@given(mixed_series(), mixed_series(), st.sampled_from(MIXED), st.integers(0, 3))
def test_results_keep_invariants(a, b, var, order):
    for result in (a + b, a - b, -a, a * Fraction(2, 3), a * 0,
                   a.left_derivative(var), a.fiber_slice(order), a.fiber_slice(0, order)):
        assert_invariants(result)
    assert_invariants(a.truncate(order), order)


@settings(max_examples=200, deadline=None)
@given(mixed_series(), st.integers(0, 4), st.one_of(st.none(), st.integers(0, 4)))
def test_fiber_slice_matches_filter(s, low, high):
    def kept(monomial):
        degree = sum(exp for var, exp in monomial if var.fiber_degree)
        return low <= degree and (high is None or degree <= high)
    sliced = s.fiber_slice(low, high)
    assert sliced.items() == [(m, c) for m, c in s.items() if kept(m)]


# names through which a module would read or build monomial tuples directly
MONOMIAL_INTERNALS = {"_terms", "_trusted", "merge_monomials", "monomial_fiber_degree",
                      "monomial_sort_key", "_REGISTRY", "_Registry", "_encode", "_decoded",
                      "_den", "_reduced", "_slots", "_flip_mask", "_sign_mask", "_rows",
                      "_product_rows"}


def test_monomials_stay_inside_graded_core():
    offences = []
    for path in sorted(Path(gradedkernel.__file__).parent.glob("*.py")):
        if path.name == "graded_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            else:
                continue
            offences += [f"{path.name}:{node.lineno} {name}" for name in names
                         if name in MONOMIAL_INTERNALS or name == "*"]
    assert not offences


def test_oracle_imports_only_the_series_interface():
    # the oracle must not share arithmetic with the kernel it cross-checks
    imported = set()
    for node in ast.walk(ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("graded_core"):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert not any("graded_core" in alias.name for alias in node.names)
    assert imported == {"GradedVariable", "Monomial", "Series"}


FIELDS = st.tuples(st.sampled_from(["a", "b"]), st.integers(0, 1), st.integers(-1, 1),
                   st.integers(0, 1), st.integers(0, 2))


@settings(max_examples=200, deadline=None)
@given(FIELDS, FIELDS)
def test_variables_compare_by_value(first, second):
    a = GradedVariable(*first)
    b = GradedVariable(*second)
    assert (a == b) == (first == second)
    assert (a != b) == (first != second)
    if first == second:
        assert a is not b and hash(a) == hash(b)
        assert len({a, b}) == 1 and {a: 1}[b] == 1
        assert a.key == b.key


def test_variables_differ_in_each_field():
    base = ("a", 1, 1, 1, 1)
    for position, other in enumerate(("b", 0, 2, 0, 2)):
        fields = list(base)
        fields[position] = other
        assert GradedVariable(*fields) != GradedVariable(*base)
    assert GradedVariable(*base) == GradedVariable(*base)


# -- the packed representation -------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(mixed_series())
def test_items_round_trip_in_canonical_order(s):
    items = s.items()
    rebuilt = Series(dict(items))
    assert rebuilt == s
    sort_keys = [tuple((var.key, exp) for var, exp in monomial) for monomial, _ in items]
    assert sort_keys == sorted(sort_keys)
    for monomial, _ in items:
        keys = [var.key for var, _ in monomial]
        assert keys == sorted(set(keys))


@settings(max_examples=200, deadline=None)
@given(mixed_series(), st.integers(1, 12), st.integers(1, 12))
def test_equal_series_through_different_denominators(s, p, q):
    scaled = (s * Fraction(p, q)) * Fraction(q, p)
    split = s * Fraction(1, q) + s * Fraction(q - 1, q)
    summed = Series.sum([s * Fraction(1, q)] * q)
    for other in (scaled, split, summed):
        assert other == s and hash(other) == hash(s)
        assert other._den == s._den


# odd variables that no other test uses, first used here out of canonical
# order (eta3, then eta1, then eta2) around an even one, so that their fields
# are not in canonical order
ETA = [GradedVariable(f"eta{i}", 1, 1, 0, 20 + i) for i in range(1, 4)]
ZETA = GradedVariable("zeta", 0, 0, 0, 20)
LATE = [X, XI1, ZETA, ETA[0], ETA[1], ETA[2], Q, PI]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_match_naive_when_registered_out_of_canonical_order(data):
    for var in (ETA[2], ZETA, ETA[0], ETA[1]):
        Series.variable(var)
    shifts = [_REGISTRY.slots[var].shift for var in ETA]
    assert shifts[2] < shifts[0] < shifts[1]
    a = data.draw(mixed_series(variables=LATE))
    b = data.draw(mixed_series(variables=LATE))
    expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                          for ma, ca in a.items() for mb, cb in b.items()))
    assert a * b == expected
    for var in LATE:
        assert a.left_derivative(var) == naive_left_derivative(a, var)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_monomial_tuples_keep_their_signs_when_registered_out_of_canonical_order(data):
    # a term with eta1 or eta2 and eta3 is stored in field order, with eta3
    # first, so reading and writing its tuple changes the sign
    for var in (ETA[2], ZETA, ETA[0], ETA[1]):
        Series.variable(var)
    s = data.draw(mixed_series(max_terms=6, variables=LATE))
    for monomial, coeff in s.items():
        assert s.coefficient(monomial) == coeff
        product = functools.reduce(operator.mul, map(V, factors_of(monomial)), Series.one())
        assert Series({monomial: coeff}) == coeff * product


# -- substitution grouped by bound part -----------------------------------------

# variables that no other test uses.  The odd ones are first used chi2, then
# chi1, then chi3, so their fields are out of canonical order.  W is even and
# weightless, so a constant can bind it.  NEVER is bound but occurs in no
# series, so it never gets a field.
CHI = [GradedVariable(f"chi{i}", 1, 1, 0, 30 + i) for i in range(1, 4)]
W = GradedVariable("w", 0, 0, 0, 30)
NEVER = GradedVariable("never", 0, 0, 0, 40)
GROUPED = [X, W, CHI[0], CHI[1], CHI[2], Q, PI]


def register_chi_out_of_order():
    for var in (CHI[1], W, CHI[0], CHI[2]):
        Series.variable(var)
    shifts = [_REGISTRY.slots[var].shift for var in CHI]
    assert shifts[1] < shifts[0] < shifts[2]


@st.composite
def grouped_bindings(draw, variables=GROUPED):
    """Each of ``variables`` and NEVER left free, or bound to zero, to a
    constant where its bigrading allows one, or to a series of its bigrading
    over ``variables``."""
    bound = {}
    for var in variables + [NEVER]:
        kinds = ["free", "zero", "series"]
        if var.bigrading == Bigrading(0, 0):
            kinds.append("constant")
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            bound[var] = Series.zero()
        elif kind == "constant":
            bound[var] = Series.constant(Fraction(draw(st.sampled_from([-2, -1, 1, 3])),
                                                  draw(st.integers(1, 3))))
        elif kind == "series":
            bound[var] = draw(binding_for(var, variables))
    return bound


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_grouped_substitute_matches_naive(data):
    # up to 8 terms, so that one bound part carries several unbound ones
    register_chi_out_of_order()
    s = data.draw(mixed_series(max_terms=8, max_degree=4, variables=GROUPED))
    assert_substitute_matches_naive(s, data.draw(grouped_bindings()))
    assert NEVER not in _REGISTRY.slots


@settings(max_examples=300, deadline=None)
@given(mixed_series(max_terms=6, max_degree=6), grouped_bindings(MIXED))
def test_substitute_at_an_order_is_the_truncated_substitution(s, bound):
    # odd, even and fiber variables, each free or bound to zero, a constant
    # (x and q, whose bigrading allows one) or a series; NEVER has no field
    assert_order_cuts_substitute(s, bound)
    assert NEVER not in _REGISTRY.slots


def grouped_example():
    """Eight terms; the bound part chi1 * chi3 carries four unbound ones,
    among them chi2, which sits canonically between chi1 and chi3."""
    register_chi_out_of_order()
    chi1, chi2, chi3 = CHI
    return Series({
        ((chi1, 1), (chi2, 1), (chi3, 1)): 1,
        ((X, 1), (chi1, 1), (chi2, 1), (chi3, 1)): -2,
        ((W, 1), (chi1, 1), (chi3, 1)): Fraction(1, 2),
        ((X, 1), (chi1, 1), (chi3, 1), (Q, 1)): 3,
        ((chi2, 1), (Q, 2)): Fraction(-1, 3),
        ((X, 2), (W, 1), (Q, 1), (PI, 1)): 5,
        ((W, 2),): 2,
        (): -1,
    })


GROUPED_CASES = {
    "odd bound around odd unbound": lambda: {
        CHI[0]: V(XI1) + V(X) * V(CHI[1]), CHI[2]: 2 * V(W) * V(XI2)},
    "constant": lambda: {W: Series.constant(3)},
    "fiber variable to one": lambda: {Q: Series.one()},
    "zero": lambda: {CHI[0]: Series.zero(), X: Series.zero()},
    "never registered": lambda: {NEVER: V(X) + 1},
    "never registered, truncated": lambda: {NEVER: Series.constant(2).truncate(1)},
    "empty": lambda: {},
    "truncated below the series": lambda: {X: (V(X) + V(Q) + V(Q) ** 2).truncate(1)},
}


@pytest.mark.parametrize("case", sorted(GROUPED_CASES))
def test_grouped_substitute_cases(case):
    s = grouped_example()
    bound = GROUPED_CASES[case]()
    assert_substitute_matches_naive(s, bound)
    assert_order_cuts_substitute(s, bound)
    assert NEVER not in _REGISTRY.slots
    if not bound:
        assert s.substitute(bound) == s


def test_substitute_makes_one_product_per_bound_part(monkeypatch):
    # 200 terms over the powers tau^0..tau^3 of a fiber variable bound to 1,
    # the shape of the pullback's last step
    tau = GradedVariable("tau", 0, 0, 1, 50)
    s = Series({tuple(pair for pair in ((X, a), (W, b), (tau, e)) if pair[1]):
                Fraction((-1) ** e * (a + 1), b + 2)
                for a in range(10) for b in range(5) for e in range(4)})
    assert len(s.items()) == 200
    products = []
    times_into = Series._times_into

    def counted(self, out, other, order, scale):
        products.append((self, other))
        return times_into(self, out, other, order, scale)

    monkeypatch.setattr(Series, "_times_into", counted)
    result = s.substitute({tau: Series.one()})
    monkeypatch.undo()
    # one product per bound part tau^1..tau^3 (tau^0 needs none), and two
    # that build tau's powers 1^2 and 1^3
    assert len(products) <= 3 + 2
    assert result == naive_substitute(s, {tau: Series.one()})


@settings(max_examples=200, deadline=None)
@given(mixed_series(), st.sampled_from(MIXED))
def test_left_derivative_matches_naive(s, var):
    assert s.left_derivative(var) == naive_left_derivative(s, var)


def test_exponent_bound():
    assert EXPONENT_BOUND >= 10 ** 6
    top = Series.variable(X, EXPONENT_BOUND)
    assert top * V(XI1) == Series({((X, EXPONENT_BOUND), (XI1, 1)): 1})
    with pytest.raises(ExponentOverflow, match="x to a power"):
        top * V(X)
    with pytest.raises(ExponentOverflow, match="fiber degree"):
        Series.variable(Q, EXPONENT_BOUND) * V(PI)
    with pytest.raises(ValueError):
        Series.variable(X, EXPONENT_BOUND + 1)


@pytest.mark.parametrize("monomial", [((XI2, 1), (XI1, 1)), ((Q, 1), (X, 1)), ((X, 1), (X, 1)),
                                      ((XI1, 2),), ((X, 0),), ((X, EXPONENT_BOUND + 1),)])
def test_constructor_rejects_non_canonical_monomials(monomial):
    with pytest.raises(ValueError):
        Series({monomial: 1})


# -- per-series product rows and bigrading ---------------------------------------

# odd variables that no other test uses: omega1 and omega3 occur in a series
# whose product rows are cached before omega2, canonically between them, is
# first used
OMEGA = [GradedVariable(f"omega{i}", 1, 1, 0, 60 + i) for i in range(1, 4)]


def test_product_rows_follow_a_later_odd_registration():
    omega1, omega2, omega3 = OMEGA
    assert omega2 not in _REGISTRY.slots
    b = Series({((omega1, 1), (omega3, 1)): 2, ((omega1, 1),): -1,
                ((X, 1), (omega3, 1)): Fraction(1, 3)})
    assert V(XI1) * b == naive_sum(((c, [XI1] + factors_of(m)) for m, c in b.items()))
    assert b * V(XI1) == naive_sum(((c, factors_of(m) + [XI1]) for m, c in b.items()))
    # omega2's field is above omega3's, but it sorts between omega1 and omega3
    a = V(omega2) + V(X) * V(omega2)
    assert _REGISTRY.slots[omega2].shift > _REGISTRY.slots[omega3].shift
    for left, right in ((a, b), (b, a)):
        expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                              for ma, ca in left.items() for mb, cb in right.items()))
        assert left * right == expected


def test_bigrading_is_cached_and_an_inhomogeneous_series_always_raises():
    mixed = V(X) + V(XI1)
    for _ in range(3):
        with pytest.raises(InhomogeneousSeries, match="mixes bigradings"):
            mixed.bigrading()
        assert not mixed.is_homogeneous()
    odd = V(X) * V(XI1) + V(XI2)
    assert odd.bigrading() == odd.bigrading() == Bigrading(1, 1)
    for _ in range(2):
        with pytest.raises(ZeroSeries):
            Series.zero().bigrading()


def test_constant_bindings_make_no_products(monkeypatch):
    s = grouped_example()
    bound = {W: Series.constant(Fraction(-3, 2)), Q: Series.one(), X: Series.zero()}
    expected = naive_substitute(s, bound)
    products = []
    times_into = Series._times_into

    def counted(self, out, other, order, scale):
        products.append((self, other))
        return times_into(self, out, other, order, scale)

    monkeypatch.setattr(Series, "_times_into", counted)
    result = s.substitute(bound)
    monkeypatch.undo()
    assert not products
    assert result == expected



# -- one substitution of several series ---------------------------------------------

@st.composite
def sharing_substitutions(draw):
    """Bindings over MIXED, as grouped_bindings draws them, and 1-4 series
    whose terms come from one pool of monomials, so that they share bound
    parts; the pool holds monomials over the bound variables alone, whose
    C_b is a constant."""
    bound = draw(grouped_bindings(MIXED))
    pool = draw(st.lists(monomials(4), min_size=1, max_size=3))
    bound_only = [var for var in MIXED if var in bound]
    if bound_only:
        pool += draw(st.lists(monomials(4, bound_only), min_size=1, max_size=3))
    series = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {m: Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
                 for m in draw(st.lists(st.sampled_from(pool), max_size=4))}
        series.append(Series(terms) + draw(mixed_series(max_terms=2, max_degree=4)))
    return series, bound


@settings(max_examples=300, deadline=None)
@given(sharing_substitutions(), st.one_of(st.none(), st.integers(0, 4)))
def test_substitute_all_is_each_series_substituted(case, order):
    # odd and even variables, each free or bound to zero, a constant or a
    # series, and bound parts that several series use with a constant C_b
    series, bound = case
    results = Series.substitute_all(series, bound, order)
    assert len(results) == len(series)
    for s, result in zip(series, results):
        expected = naive_substitute(s, bound)
        assert result == (expected if order is None else expected.truncate(order))
        assert_invariants(result, order)


Y = GradedVariable("y", 0, 0, 0, 70)
Z = GradedVariable("z", 0, 0, 0, 71)


def test_an_overflow_in_a_last_product_that_adds_into_the_result_raises():
    with pytest.raises(ExponentOverflow, match="z to a power"):
        (V(X) * V(Y)).substitute({X: Series.variable(Z, EXPONENT_BOUND), Y: V(Z)})


def test_an_overflow_raises_though_a_later_group_would_cancel_it():
    # x y and x w both become z^(EXPONENT_BOUND + 1), with opposite signs
    with pytest.raises(ExponentOverflow, match="z to a power"):
        (V(X) * V(Y) - V(X) * V(W)).substitute(
            {X: Series.variable(Z, EXPONENT_BOUND), Y: V(Z), W: V(Z)})


def test_a_q_half_pass_multiplies_a_shared_bound_monomial_once(monkeypatch):
    # q_1 = dg(y_0) of the pullback-cubic benchmark's draw 1, whose seeds
    # y_0 are the linear part of S: dg/dy1 and dg/dy2 both carry y2 y3
    rng = random.Random(1)

    def coefficient():
        return Fraction(rng.choice([n for n in range(-5, 6) if n]), rng.randint(1, 3))

    xs = [GradedVariable(f"x{i}", 0, 0, 0, i - 1) for i in (1, 2, 3)]
    ys = [GradedVariable(f"y{i}", 0, 0, 0, i - 1) for i in (1, 2, 3)]
    y1, y2, y3 = map(V, ys)
    g = Series.sum([coefficient() * y1 ** 3, coefficient() * y1 * y2 * y3,
                    coefficient() * y2 ** 2 * y3])
    seeds = {y: coefficient() * V(x) for y, x in zip(ys, xs)}
    dg = [g.left_derivative(y) for y in ys]
    products = []
    times_into = Series._times_into

    def counted(self, out, other, order, scale):
        products.append((self, other))
        return times_into(self, out, other, order, scale)

    monkeypatch.setattr(Series, "_times_into", counted)
    together = Series.substitute_all(dg, seeds, 3)
    made_together = len(products)
    apart = [s.substitute(seeds, 3) for s in dg]
    monkeypatch.undo()
    # y1^2, y2^2, y1 y3, y1 y2 and y2 y3 once, against y2 y3 once per call
    assert (made_together, len(products) - made_together) == (5, 6)
    assert together == apart


# -- squares ------------------------------------------------------------------------

# even terms of weight 0, 1 and 2 over MIXED: x^a q^b times one of these odd parts
EVEN_ODD_PARTS = {0: [[]], 1: [[XI1, PI], [XI2, PI]], 2: [[XI1, XI2]]}


@st.composite
def even_homogeneous_series(draw):
    """Up to 6 terms of one even bigrading; weights 1 and 2 carry odd bits."""
    odd_parts = EVEN_ODD_PARTS[draw(st.integers(0, 2))]
    products = [(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))),
                 [X] * draw(st.integers(0, 3)) + [Q] * draw(st.integers(0, 3))
                 + draw(st.sampled_from(odd_parts)))
                for _ in range(draw(st.integers(0, 6)))]
    return naive_sum(products)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_series(max_terms=6), even_homogeneous_series()),
       st.one_of(st.none(), st.integers(0, 3)))
def test_a_square_is_the_product_of_two_equal_copies(s, order):
    # mixed series are odd, inhomogeneous or zero as often as even: their
    # squares take the full walk and must not raise
    copy = Series(dict(s.items()))
    assert copy is not s and copy == s
    square = s._times(s, order)
    assert square == s._times(copy, order)
    expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                          for ma, ca in s.items() for mb, cb in s.items()))
    assert square == (expected if order is None else expected.truncate(order))
    assert_invariants(square, order)


class CountingDict(dict):
    """A product accumulator that counts the lookups of its keys."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)


def test_a_square_looks_up_each_unordered_pair_once():
    # n = 6 even terms with no odd bits; another series of m = 4 terms
    s = Series.sum([Fraction(a + 1, b + 1) * V(X) ** a * V(Q) ** b
                    for a in range(3) for b in range(2)])
    other = Series.sum([Fraction(1 - a, 2) * V(X) ** a for a in range(4) if a != 1])
    other += V(Q) ** 3
    n, m = len(s.items()), len(other.items())
    assert (n, m) == (6, 4)
    for right, lookups in ((s, n * (n + 1) // 2), (Series(dict(s.items())), n * n),
                           (other, n * m)):
        out = CountingDict()
        s._times_into(out, right, None, 1)
        assert out.lookups == lookups
        assert Series._reduced(dict(out), s._den * right._den) == s._times(right, None)


# -- setting a variable to one ---------------------------------------------------------

UNREGISTERED = GradedVariable("unregistered", 0, 0, 1, 80)


@settings(max_examples=300, deadline=None)
@given(mixed_series(max_terms=6), st.sampled_from([Q, X, W, UNREGISTERED]))
@example(V(Q) * V(X) - V(X) + V(PI), Q)
def test_at_one_is_a_substitution_of_one(s, var):
    # q is a fiber-degree variable, w occurs in no MIXED series, and
    # UNREGISTERED in no series at all
    result = s.at_one(var)
    assert result == s.substitute({var: Series.one()})
    assert_invariants(result)
    assert UNREGISTERED not in _REGISTRY.slots


@pytest.mark.parametrize("var", [PI, XI1, GradedVariable("weighted", 0, 2, 0, 81)])
def test_at_one_refuses_an_odd_or_weighted_variable(var):
    with pytest.raises(GradingMismatch) as refused:
        (V(X) + 1).at_one(var)
    with pytest.raises(GradingMismatch) as substituted:
        (V(X) + 1).substitute({var: Series.one()})
    assert str(refused.value) == str(substituted.value)


# -- formatting from numerators ----------------------------------------------------

def format_series_by_fractions(series):
    """The formatter as it was written over ``items()`` and ``Fraction``."""
    if series.is_zero:
        return "0"
    chunks = []
    for monomial, coeff in series.items():
        magnitude = abs(coeff)
        if not monomial:
            body = str(magnitude)
        elif magnitude == 1:
            body = " * ".join(var.name if exp == 1 else f"{var.name}^{exp}"
                              for var, exp in monomial)
        else:
            body = f"{magnitude} * " + " * ".join(var.name if exp == 1 else f"{var.name}^{exp}"
                                                  for var, exp in monomial)
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


@st.composite
def formatted_series(draw):
    """Up to 6 terms with coefficients n / d, |n| <= 40, d <= 12, often a constant."""
    terms = {}
    if draw(st.booleans()):
        terms[()] = Fraction(draw(st.integers(-40, 40)), draw(st.integers(1, 12)))
    for _ in range(draw(st.integers(0, 6))):
        terms[draw(monomials(5))] = Fraction(draw(st.integers(-40, 40)),
                                             draw(st.integers(1, 12)))
    return Series(terms)


@settings(max_examples=300, deadline=None)
@given(formatted_series(), st.sampled_from([1, -1, Fraction(1, 6), Fraction(-5, 4)]))
def test_format_matches_the_fraction_formatter(s, scale):
    s = s * scale
    assert format_series(s) == format_series_by_fractions(s)


@settings(max_examples=200, deadline=None)
@given(mixed_series(), st.sets(st.sampled_from(MIXED + [NEVER])))
def test_uses_only_matches_the_variable_set(s, allowed):
    # NEVER has no field, so allowing it or not changes nothing
    assert s.uses_only(allowed) == (s.variables() <= allowed)
    assert NEVER not in _REGISTRY.slots


def rebuilt_random_homogeneous(variables, rng, max_degree, parity, weight):
    """Reference: random_homogeneous with its buckets rebuilt on every call."""
    buckets = bucket_by_bigrading(enumerate_monomials(variables, max_degree))
    eligible = [(grade, monos) for grade, monos in sorted(
        buckets.items(), key=lambda kv: (kv[0].parity, kv[0].weight))
        if (parity is None or grade.parity == parity % 2)
        and (weight is None or grade.weight == weight)]
    if not eligible:
        return Series.zero()
    _, monomials = rng.choice(eligible)
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
    series = Series({m: small_rational(rng) for m in chosen})
    return series if not series.is_zero else Series({monomials[0]: Fraction(1)})


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(MIXED), min_size=1, max_size=5, unique=True),
       st.lists(st.tuples(st.integers(0, 3), st.one_of(st.none(), st.integers(0, 1)),
                          st.one_of(st.none(), st.integers(-1, 3))), min_size=1, max_size=4))
def test_random_homogeneous_draws_as_with_rebuilt_buckets(seed, variables, calls):
    cached, rebuilt = random.Random(seed), random.Random(seed)
    for max_degree, parity, weight in calls:
        got = random_homogeneous(variables, cached, max_degree, parity, weight)
        want = rebuilt_random_homogeneous(variables, rebuilt, max_degree, parity, weight)
        assert got.items() == want.items()
    assert cached.getstate() == rebuilt.getstate()
