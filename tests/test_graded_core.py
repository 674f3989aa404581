import ast
import itertools
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

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

X = GradedVariable("x", 0, 0, 0, 0)
XI1 = GradedVariable("xi1", 1, 1, 0, 1)
XI2 = GradedVariable("xi2", 1, 1, 0, 2)
Q = GradedVariable("q", 0, 0, 1, 0)
VARS = [X, XI1, XI2, Q]


def V(var):
    return Series.variable(var)


# -- a sort-based tuple reference for the kernel's product sign ----------------

class Term(NamedTuple):
    """A sign, or 0 for a vanishing product, with a canonical monomial."""

    coefficient: int
    monomial: tuple

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0


def normalize_product(factors):
    """Sort a factor sequence into canonical order with its Koszul sign.

    Every adjacent swap of two odd factors flips the sign; swapping an even
    factor past anything is free.  A repeated odd factor kills the term.  It
    shares no code with the kernel, whose product merges sorted monomials.
    """
    arr = list(factors)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1].key > arr[j].key:
            if arr[j - 1].parity and arr[j].parity:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    merged = []
    for var in arr:
        if merged and merged[-1][0] == var:
            if var.parity:
                return Term(0, ())
            merged[-1][1] += 1
        else:
            merged.append([var, 1])
    return Term(sign, tuple((v, e) for v, e in merged))


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
        # q stays unbound; the binding's order still truncates q^2 away
        out = (V(Q) ** 2 + V(X)).substitute({X: (V(X) + V(Q)).truncate(1)})
        assert out == V(X) + V(Q)
        assert out.truncation_order == 1

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
        assert s.truncate(1).truncation_order == 1

    def test_noop_at_high_order(self):
        s = Series.one() + V(Q)
        assert s.truncate(10) == s

    def test_zero(self):
        assert Series.zero().truncate(3).is_zero

    def test_truncated_multiplication(self):
        s = (Series.one() + V(Q)).truncate(1)
        assert s * s == (Series.one() + 2 * V(Q)).truncate(1)

    def test_fiber_derivative_lowers_order(self):
        s = (V(Q) ** 2).truncate(2)
        assert s.left_derivative(Q).truncation_order == 1


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


# -- the truncated product and substitution against a naive reference ----------

PI = GradedVariable("pi", 1, 0, 1, 1)
MIXED = [X, XI1, XI2, Q, PI]
TRUNCATIONS = st.one_of(st.none(), st.integers(0, 3))


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
def truncated_series(draw, max_terms=3, max_degree=9, variables=MIXED):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        coeff = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        terms[draw(monomials(max_degree, variables))] = coeff
    return Series(terms, draw(TRUNCATIONS))


@st.composite
def binding_for(draw, var):
    """Zero, or a series homogeneous of ``var``'s bigrading, maybe truncated."""
    products = (normalize_product(list(factors)) for n in range(3)
                for factors in itertools.combinations_with_replacement(MIXED, n))
    pool = [t.monomial for t in products
            if not t.is_zero and monomial_bigrading(t.monomial) == var.bigrading]
    chosen = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    terms = {m: Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2))) for m in chosen}
    return Series(terms, draw(TRUNCATIONS))


@st.composite
def bindings(draw):
    """Bindings for a random subset of MIXED; the rest stay unbound."""
    bound = draw(st.lists(st.sampled_from(MIXED), unique=True))
    return {var: draw(binding_for(var)) for var in bound}


def min_order(*orders):
    present = [o for o in orders if o is not None]
    return min(present) if present else None


def naive_sum(products, order):
    """Sum ``coeff * factors`` over (coeff, factor list) pairs, by sorting each list."""
    out = {}
    for coeff, factors in products:
        term = normalize_product(factors)
        if term.is_zero:
            continue
        if order is not None and monomial_fiber_degree(term.monomial) > order:
            continue
        out[term.monomial] = out.get(term.monomial, Fraction(0)) + coeff * term.coefficient
    return Series(out, order)


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


def assert_invariants(series):
    order = series.truncation_order
    for monomial, coeff in series.items():
        assert isinstance(coeff, Fraction) and coeff != 0
        assert order is None or monomial_fiber_degree(monomial) <= order


@settings(max_examples=300, deadline=None)
@given(truncated_series(), truncated_series())
def test_product_matches_naive(a, b):
    order = min_order(a.truncation_order, b.truncation_order)
    product = a * b
    expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                          for ma, ca in a.items() for mb, cb in b.items()), order)
    assert product == expected
    assert product.truncation_order == order
    assert_invariants(product)


@settings(max_examples=300, deadline=None)
@given(truncated_series(max_degree=4), bindings())
def test_substitute_matches_naive(s, bound):
    order = min_order(s.truncation_order, *(v.truncation_order for v in bound.values()))
    products = []
    for monomial, coeff in s.items():
        # each factor becomes the terms of its binding, or stays itself
        choices = [bound[var].items() if var in bound else [(((var, 1),), Fraction(1))]
                   for var in factors_of(monomial)]
        for picked in itertools.product(*choices):
            value = coeff
            factors = []
            for m, c in picked:
                value *= c
                factors += factors_of(m)
            products.append((value, factors))
    result = s.substitute(bound)
    assert result == naive_sum(products, order)
    assert result.truncation_order == order
    assert_invariants(result)


@settings(max_examples=200, deadline=None)
@given(truncated_series(), truncated_series(), st.sampled_from(MIXED), st.integers(0, 3))
def test_results_keep_invariants(a, b, var, order):
    for result in (a + b, a - b, -a, a * Fraction(2, 3), a * 0, a.truncate(order),
                   a.left_derivative(var), a.without_truncation(),
                   a.fiber_slice(order), a.fiber_slice(0, order)):
        assert_invariants(result)
    assert (a + b).truncation_order == min_order(a.truncation_order, b.truncation_order)


@settings(max_examples=200, deadline=None)
@given(truncated_series(), st.integers(0, 4), st.one_of(st.none(), st.integers(0, 4)))
def test_fiber_slice_matches_filter(s, low, high):
    def kept(monomial):
        degree = sum(exp for var, exp in monomial if var.fiber_degree)
        return low <= degree and (high is None or degree <= high)
    sliced = s.fiber_slice(low, high)
    assert sliced.items() == [(m, c) for m, c in s.items() if kept(m)]
    assert sliced.truncation_order == s.truncation_order


# names through which a module would read or build monomial tuples directly
MONOMIAL_INTERNALS = {"_terms", "_trusted", "merge_monomials", "monomial_fiber_degree",
                      "monomial_sort_key", "_REGISTRY", "_Registry", "_encode", "_decoded",
                      "_den", "_reduced", "_slots", "_flip_mask"}


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
@given(truncated_series())
def test_items_round_trip_in_canonical_order(s):
    items = s.items()
    rebuilt = Series(dict(items), s.truncation_order)
    assert rebuilt == s and rebuilt.truncation_order == s.truncation_order
    sort_keys = [tuple((var.key, exp) for var, exp in monomial) for monomial, _ in items]
    assert sort_keys == sorted(sort_keys)
    for monomial, _ in items:
        keys = [var.key for var, _ in monomial]
        assert keys == sorted(set(keys))


@settings(max_examples=200, deadline=None)
@given(truncated_series(), st.integers(1, 12), st.integers(1, 12))
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
    a = data.draw(truncated_series(variables=LATE))
    b = data.draw(truncated_series(variables=LATE))
    order = min_order(a.truncation_order, b.truncation_order)
    expected = naive_sum(((ca * cb, factors_of(ma) + factors_of(mb))
                          for ma, ca in a.items() for mb, cb in b.items()), order)
    assert a * b == expected
    for var in LATE:
        assert a.left_derivative(var) == naive_left_derivative(a, var)


@settings(max_examples=200, deadline=None)
@given(truncated_series(), st.sampled_from(MIXED))
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
