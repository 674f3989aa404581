import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel import microformal
from gradedkernel.cli import parse_problem
from gradedkernel.errors import ChartMismatch, GradingMismatch, NonConvergent
from gradedkernel.geometry import Chart, shifted_cotangent
from gradedkernel.graded_core import Bigrading, GradedVariable, Series, monomial_bigrading
from gradedkernel.microformal import (
    _INSERTION,
    ThickMorphism,
    check_hamilton_jacobi,
    check_intertwining,
    conjugate_momenta,
    pullback,
    pullback_expansion_oracle,
    support,
    validate_thick,
)
from gradedkernel.sampling import enumerate_monomials

from helpers import thick_corpus

V = Series.variable
HALF = Fraction(1, 2)


def line_pair(weight=0, shift=0):
    m1 = Chart.build([("x", 0, weight)], "M1")
    m2 = Chart.build([("y", 0, weight)], "M2")
    q, = conjugate_momenta(m2, shift, "even")
    return m1, m2, m1.variables[0], m2.variables[0], q


class TestValidation:
    def test_identity_is_valid(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        report = validate_thick(phi)
        assert report.passed
        assert support(phi)[y] == V(x)

    def test_wrong_weight_is_reported(self):
        m1 = Chart.build([("x", 0, 0)], "M1")
        m2 = Chart.build([("y", 0, 1)], "M2")
        q, = conjugate_momenta(m2, 0, "even")
        phi = ThickMorphism(m1, m2, 0, "even", V(q))
        report = validate_thick(phi)
        assert not report.passed
        assert any(e.check_id == "thick-weight" for e in report.failures())

    def test_odd_term_in_even_kind_is_reported(self):
        m1 = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M1")
        m2 = Chart.build([("y", 0, 0)], "M2")
        q, = conjugate_momenta(m2, 0, "even")
        xi = m1.variables[1]
        phi = ThickMorphism(m1, m2, 0, "even", V(xi) * V(q))
        report = validate_thick(phi)
        assert any(e.check_id == "thick-parity" and e.status == "fail"
                   for e in report.entries)

    def test_stray_variable_rejected(self):
        m1, m2, x, y, q = line_pair()
        with pytest.raises(ChartMismatch):
            ThickMorphism(m1, m2, 0, "even", V(y))

    def test_stray_variables_are_named_in_order(self):
        m1, m2, x, y, q = line_pair()
        z = GradedVariable("z", 0, 0, 0, 1)
        with pytest.raises(ChartMismatch,
                           match=r"^S uses variables outside \(x, q\): y, z$"):
            ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + V(z) * V(y) * V(q))


class TestSupport:
    def test_reads_off_coefficient(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) ** 3 + V(x) ** 2 * V(q))
        assert support(phi)[y] == V(x) ** 2

    def test_quadratic_part_ignored(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + HALF * V(q) ** 2)
        assert support(phi)[y] == V(x)

    def test_no_linear_term_means_constant_map(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", HALF * V(q) ** 2)
        assert support(phi)[y].is_zero


class TestPullback:
    def test_identity(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        g = V(y) ** 3 - 2 * V(y)
        result = pullback(phi, g, 4)
        assert result.f == V(x) ** 3 - 2 * V(x)

    def test_zero_input_returns_s0(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) ** 2 + V(x) * V(q))
        assert pullback(phi, Series.zero(), 4).f == V(x) ** 2

    def test_a_negative_order_is_refused(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + HALF * V(q) ** 2)
        for order in (-1, -3):
            with pytest.raises(ValueError, match="order must be nonnegative"):
                pullback(phi, V(y) ** 2, order)
        assert pullback(phi, V(y) ** 2, 0).f == V(x) ** 2

    def test_closed_form_quadratic(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + HALF * V(q) ** 2)
        c = Fraction(3, 2)
        result = pullback(phi, c * V(y), 4)
        assert result.f == c * V(x) + HALF * c * c
        assert result.q_solution[q] == Series.constant(c)
        assert result.y_solution[y] == V(x) + Series.constant(c)

    def test_geometric_series_truncation(self):
        # quadratic g against quadratic S: y = x + 2ty has no naive fixed
        # point; insertion grading truncates it to sum(2^j) x
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + HALF * V(q) ** 2)
        result = pullback(phi, V(y) ** 2, 4)
        assert result.y_solution[y] == 31 * V(x)
        assert result.f == 31 * V(x) ** 2
        assert pullback(phi, V(y) ** 2, 2).f == 7 * V(x) ** 2

    def test_wrong_parity_input_rejected(self):
        m1 = Chart.build([("x", 0, 0)], "M1")
        m2 = Chart.build([("y", 0, 0), ("eta", 1, 0)], "M2")
        momenta = conjugate_momenta(m2, 0, "even")
        phi = ThickMorphism(m1, m2, 0, "even",
                            V(m1.variables[0]) * V(momenta[0]))
        with pytest.raises(GradingMismatch):
            pullback(phi, V(m2.variables[1]), 2)

    def test_wrong_weight_input_rejected(self):
        m1, m2, x, y, q = line_pair(weight=1, shift=0)
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        with pytest.raises(GradingMismatch):
            pullback(phi, V(y), 2)  # w(g) = 1 but s = 0

    def test_input_off_the_target_chart_names_its_variables(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        for run in (lambda g: pullback(phi, g, 2), lambda g: pullback_expansion_oracle(phi, g)):
            with pytest.raises(ChartMismatch,
                               match=r"^g uses variables not on the target chart: p_y, x$"):
                run(V(x) * V(y) + V(shifted_cotangent(m2, 0).fiber[0]))


class TestOddPullback:
    def test_identity_on_functions(self):
        n1 = Chart.build([("xi", 1, 0)], "N1")
        n2 = Chart.build([("eta", 1, 0)], "N2")
        ys, = conjugate_momenta(n2, 0, "odd")
        xi, eta = n1.variables[0], n2.variables[0]
        assert ys.parity == 0
        phi = ThickMorphism(n1, n2, 0, "odd", V(xi) * V(ys))
        g = Fraction(5) * V(eta)
        result = pullback(phi, g, 4)
        assert result.f == Fraction(5) * V(xi)
        # the support map carries the parity twist
        assert result.y_solution[eta] == -V(xi)

    def test_zero_gives_odd_s0(self):
        n1 = Chart.build([("xi", 1, 0)], "N1")
        n2 = Chart.build([("eta", 1, 0)], "N2")
        ys, = conjugate_momenta(n2, 0, "odd")
        xi = n1.variables[0]
        phi = ThickMorphism(n1, n2, 0, "odd", V(xi) + V(xi) * V(ys))
        assert pullback(phi, Series.zero(), 3).f == V(xi)

    def test_quadratic_odd_closed_form(self):
        # S = xi ys + xi ys^2 against linear odd g
        n1 = Chart.build([("x", 0, 0), ("xi", 1, 0)], "N1")
        n2 = Chart.build([("eta", 1, 0)], "N2")
        ys, = conjugate_momenta(n2, 0, "odd")
        x, xi = n1.variables
        eta = n2.variables[0]
        phi = ThickMorphism(n1, n2, 0, "odd",
                            V(xi) * V(ys) + V(xi) * V(ys) ** 2)
        c = Fraction(2)
        result = pullback(phi, c * V(eta), 4)
        oracle = pullback_expansion_oracle(phi, c * V(eta))
        assert result.f == oracle


class TestExpansionOracle:
    def test_identity_reduces_to_composition(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        g = V(y) ** 2 + V(y)
        assert pullback_expansion_oracle(phi, g) == V(x) ** 2 + V(x)

    def test_displayed_coefficients(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + HALF * V(q) ** 2)
        c = Fraction(4)
        assert pullback_expansion_oracle(phi, c * V(y)) == c * V(x) + HALF * c * c

    def test_s0_contributes_additively(self):
        m1, m2, x, y, q = line_pair()
        s0 = 3 * V(x) ** 2
        phi = ThickMorphism(m1, m2, 0, "even", s0 + V(x) * V(q))
        assert pullback_expansion_oracle(phi, Series.zero()) == s0
        assert pullback_expansion_oracle(phi, V(y)) == s0 + V(x)

    def test_matches_iterative_pullback_at_insertion_order_one(self):
        m1, m2, x, y, q = line_pair()
        phi = ThickMorphism(m1, m2, 0, "even",
                            V(x) ** 2 + V(x) ** 2 * V(q) + HALF * V(q) ** 2)
        g = V(y) ** 2 - V(y)
        assert pullback(phi, g, 1).f == pullback_expansion_oracle(phi, g)


def quadratic_triple():
    """S = xq + q^2/2 with H = p on both sides; weights w(x) = -1, s = -2."""
    m1 = Chart.build([("x", 0, -1)], "M1")
    m2 = Chart.build([("y", 0, -1)], "M2")
    ct1 = shifted_cotangent(m1, -2)
    ct2 = shifted_cotangent(m2, -2)
    q, = conjugate_momenta(m2, -2, "even")
    x, y = m1.variables[0], m2.variables[0]
    phi = ThickMorphism(m1, m2, -2, "even", V(x) * V(q) + HALF * V(q) ** 2)
    return phi, V(ct1.fiber[0]), ct1, V(ct2.fiber[0]), ct2, V(y) ** 2


class TestHamiltonJacobi:
    def test_identity_passes_for_any_master(self):
        m1 = Chart.build([("x", 0, -1)], "M1")
        m2 = Chart.build([("y", 0, -1)], "M2")
        ct1 = shifted_cotangent(m1, 0)
        ct2 = shifted_cotangent(m2, 0)
        q, = conjugate_momenta(m2, 0, "even")
        phi = ThickMorphism(m1, m2, 0, "even", V(m1.variables[0]) * V(q))
        assert check_hamilton_jacobi(phi, V(ct1.fiber[0]), ct1,
                                     V(ct2.fiber[0]), ct2, 4).passed

    def test_zero_masters_pass(self):
        m1, m2, x, y, q = line_pair()
        ct1 = shifted_cotangent(m1, 0)
        ct2 = shifted_cotangent(m2, 0)
        phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q))
        assert check_hamilton_jacobi(phi, Series.zero(), ct1,
                                     Series.zero(), ct2, 4).passed

    def test_quadratic_triple_passes_and_perturbation_fails(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        assert check_hamilton_jacobi(phi, h1, ct1, h2, ct2, 4).passed
        report = check_hamilton_jacobi(phi, h1, ct1, 2 * h2, ct2, 4)
        assert not report.passed
        assert any(e.check_id == "hj-residual" for e in report.failures())

    def test_shift_gate(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        wrong = shifted_cotangent(ct2.base, 0)
        with pytest.raises(GradingMismatch):
            check_hamilton_jacobi(phi, h1, ct1, Series.zero(), wrong, 4)

    def test_master_weight_gate(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        with pytest.raises(GradingMismatch):
            check_hamilton_jacobi(phi, h1 * h1, ct1, h2, ct2, 4)


class TestIntertwining:
    def test_identity(self):
        m1 = Chart.build([("x", 0, -1)], "M1")
        m2 = Chart.build([("y", 0, -1)], "M2")
        ct1 = shifted_cotangent(m1, 0)
        ct2 = shifted_cotangent(m2, 0)
        q, = conjugate_momenta(m2, 0, "even")
        phi = ThickMorphism(m1, m2, 0, "even", V(m1.variables[0]) * V(q))
        g = Series.constant(7)
        assert check_intertwining(phi, V(ct1.fiber[0]), ct1,
                                  V(ct2.fiber[0]), ct2, g, 4).passed

    def test_quadratic_triple(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        assert check_intertwining(phi, h1, ct1, h2, ct2, g, 4).passed

    def test_perturbed_master_fails(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        report = check_intertwining(phi, h1, ct1, 2 * h2, ct2, g, 4)
        assert not report.passed

    def test_a_negative_order_is_refused(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        with pytest.raises(ValueError, match="order must be nonnegative"):
            check_intertwining(phi, h1, ct1, h2, ct2, g, -1)


@pytest.mark.parametrize("intertwining", [False, True],
                         ids=["hamilton-jacobi", "intertwining"])
def test_a_failed_residual_is_formatted_once(monkeypatch, intertwining):
    phi, h1, ct1, h2, ct2, g = quadratic_triple()
    formatted = []
    original = microformal.format_series
    monkeypatch.setattr(microformal, "format_series",
                        lambda s: formatted.append(s) or original(s))
    if intertwining:
        report = check_intertwining(phi, h1, ct1, 2 * h2, ct2, g, 4)
    else:
        report = check_hamilton_jacobi(phi, h1, ct1, 2 * h2, ct2, 4)
    failed, = report.failures()
    assert failed.actual == failed.residual == original(formatted[0]) != "0"
    assert len(formatted) == 1


class TestWeightTheorem:
    def test_pullback_output_bigrading(self):
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        result = pullback(phi, g, 4)
        grade = result.f.bigrading()
        assert grade.parity == 0 and grade.weight == phi.shift

    def test_odd_kind_output_bigrading(self):
        n1 = Chart.build([("xi", 1, -1)], "N1")
        n2 = Chart.build([("eta", 1, -1)], "N2")
        ys, = conjugate_momenta(n2, -1, "odd")
        phi = ThickMorphism(n1, n2, -1, "odd", V(n1.variables[0]) * V(ys))
        result = pullback(phi, 3 * V(n2.variables[0]), 3)
        grade = result.f.bigrading()
        assert grade.parity == 1 and grade.weight == -1


class TestLegendreConsistency:
    def test_df_dx_equals_ds_dx_at_solution(self):
        from gradedkernel.microformal import _pullback_graded, _INSERTION
        phi, h1, ct1, h2, ct2, g = quadratic_triple()
        order = 5
        f_t, y_t, q_t, _ = _pullback_graded(phi, g, order)
        x = phi.source.variables[0]
        lhs = f_t.left_derivative(x)
        linear = phi.S.fiber_slice(1, 1)
        tail = phi.S.fiber_slice(2)
        s_t = phi.S.fiber_slice(0, 0) + linear + Series.variable(_INSERTION) * tail
        rhs = s_t.left_derivative(x).substitute(q_t)
        assert lhs.truncate(order - 1) == rhs.truncate(order - 1)


def test_identity_pullback_idempotent():
    # pulling back along x*q twice with source = target equals pulling once
    m = Chart.build([("x", 0, 0)], "M")
    q, = conjugate_momenta(m, 0, "even")
    x = m.variables[0]
    phi = ThickMorphism(m, m, 0, "even", V(x) * V(q))
    g = V(x) ** 2 - 3 * V(x)
    once = pullback(phi, g, 4).f
    twice = pullback(phi, once, 4).f
    assert once == g and twice == once


# -- the pullback against a reference Picard loop -------------------------------

def term_by_term_substitute(series, bindings, order=None):
    """Substitution term by term over ``items()``: each term is the product of
    its factors' images, an unbound factor staying a one-term series.  With
    an ``order``, each product is truncated there as it is made, which is
    exact because fiber degrees are nonnegative and add."""
    def cut(piece):
        return piece if order is None else piece.truncate(order)

    pieces = [Series.zero()]
    for monomial, coeff in series.items():
        piece = Series.constant(coeff)
        for var, exp in monomial:
            image = bindings.get(var)
            piece = cut(piece * (Series({((var, exp),): 1}) if image is None else image ** exp))
        pieces.append(piece)
    return Series.sum(pieces)


def reference_pullback(phi, g, order):
    """The kernel's fixed-point loop, with ``term_by_term_substitute``."""
    t = Series.variable(_INSERTION)
    linear, tail = phi.S.fiber_slice(1, 1), phi.S.fiber_slice(2)
    targets = phi.target.variables
    seeds, y_map = {}, {}
    for y_var in targets:
        q_var = phi.momentum(y_var)
        sign = -1 if y_var.parity else 1
        seeds[y_var] = sign * linear.left_derivative(q_var)
        y_map[y_var] = seeds[y_var] + t * (sign * tail.left_derivative(q_var))
    dg = {y_var: g.left_derivative(y_var) for y_var in targets}
    y_cur, q_cur = dict(seeds), {}
    for iterations in range(1, order + 4):
        q_next = {phi.momentum(y_var): term_by_term_substitute(dg[y_var], y_cur, order)
                  for y_var in targets}
        y_next = {y_var: term_by_term_substitute(y_map[y_var], q_next, order)
                  for y_var in targets}
        if y_next == y_cur and q_next == q_cur:
            break
        y_cur, q_cur = y_next, q_next
    else:
        pytest.fail("the reference loop did not stabilize")
    s_t = phi.S.fiber_slice(0, 0) + linear + t * tail
    f = term_by_term_substitute(g, y_cur, order) + term_by_term_substitute(s_t, q_cur, order)
    for y_var in targets:
        f = f - y_cur[y_var] * q_cur[phi.momentum(y_var)]

    def drop(series):
        return term_by_term_substitute(series, {_INSERTION: Series.one()})

    return (drop(f.truncate(order)), {v: drop(s) for v, s in y_cur.items()},
            {v: drop(s) for v, s in q_cur.items()}, iterations)


CORPUS = Path(__file__).parent / "corpus"

# the pullback-cubic benchmark's coefficient draws and monomials
CUBIC_DRAWS = (0, 1, 2, 3, 5, 6, 7)


def cubic_draw(draw):
    """The benchmark's cubic g and S for one draw: the coefficients of g, then
    of S, each a nonzero integer from -5 to 5 over 1 to 3."""
    rng = random.Random(draw)
    m1 = Chart.build([(f"x{i}", 0, 0) for i in (1, 2, 3)], "M1")
    m2 = Chart.build([(f"y{i}", 0, 0) for i in (1, 2, 3)], "M2")
    x1, x2, x3 = (V(v) for v in m1.variables)
    y1, y2, y3 = (V(v) for v in m2.variables)
    q1, q2, q3 = (V(v) for v in conjugate_momenta(m2, 0, "even"))

    def polynomial(monomials):
        return Series.sum([Fraction(rng.choice([n for n in range(-5, 6) if n]),
                                    rng.randint(1, 3)) * m for m in monomials])

    g = polynomial([y1 ** 3, y1 * y2 * y3, y2 ** 2 * y3])
    s = polynomial([x1 * q1, x2 * q2, x3 * q3, x1 * q2 * q3, x2 * q1 ** 2, q1 * q2 * q3])
    return ThickMorphism(m1, m2, 0, "even", s), g


def pullback_cases():
    """{name: (phi, g)}: the acceptance corpus's thick morphisms, the pullback
    tasks of tests/corpus, and the benchmark's cubic draws."""
    cases = {name: (phi, g) for name, phi, g in thick_corpus()}
    for path in sorted(CORPUS.glob("*.gk")):
        problem = parse_problem(path.read_text(encoding="utf-8"))
        for task in problem.tasks:
            if task.command in ("pullback", "check-intertwining"):
                g_name = task.args[1 if task.command == "pullback" else 3]
                cases[f"{path.stem}:{task.line}"] = (problem.thicks[task.args[0]],
                                                     problem.functions[g_name][0])
    cases.update((f"cubic-draw-{draw}", cubic_draw(draw)) for draw in CUBIC_DRAWS)
    return cases


PULLBACK_CASES = pullback_cases()
# orders 0-5, and 0-4 for the cubic draws, whose reference loop is slow past that
REFERENCE_PAIRS = [(name, order) for name in PULLBACK_CASES
                   for order in range(5 if name.startswith("cubic") else 6)]


def test_reference_pairs_cover_both_stops():
    assert sum(name.startswith("cubic") for name in PULLBACK_CASES) == 7
    assert any(name.startswith("thick_odd") for name in PULLBACK_CASES)
    assert len(REFERENCE_PAIRS) == 125
    spans = {pullback(*PULLBACK_CASES[name], order).iterations - order
             for name, order in REFERENCE_PAIRS}
    # below the order, y* was proven by a pass that left y unchanged; at
    # order + 2, by the half-pass after pass ``order``, with q still moving
    assert min(spans) < 0 and max(spans) == 2


@pytest.mark.parametrize("name, order", REFERENCE_PAIRS,
                         ids=[f"{name}-order{order}" for name, order in REFERENCE_PAIRS])
def test_pullback_matches_reference_picard(name, order):
    phi, g = PULLBACK_CASES[name]
    result = pullback(phi, g, order)
    f, y_solution, q_solution, iterations = reference_pullback(phi, g, order)
    assert result.f == f
    assert result.y_solution == y_solution
    assert result.q_solution == q_solution
    assert result.iterations == iterations
    if name.startswith("cubic") and order == 3:
        # every draw is pinned at 5 iterations in the benchmark
        assert iterations == 5


def test_pullback_checks_the_valuation_on_every_pass(monkeypatch):
    # with an insertion counter of fiber degree 0, truncation no longer cuts
    # the iteration off: y = x + 4 t y moves below fiber degree 1 on pass 1
    m1 = Chart.build([("x", 0, 0)], "M1")
    m2 = Chart.build([("y", 0, 0)], "M2")
    x, = m1.variables
    y, = m2.variables
    q, = conjugate_momenta(m2, 0, "even")
    phi = ThickMorphism(m1, m2, 0, "even", V(x) * V(q) + V(q) ** 2)
    assert pullback(phi, V(y) ** 2, 3).iterations == 5
    flat = GradedVariable("_t", 0, 0, fiber_degree=0, index=10 ** 6)
    monkeypatch.setattr(microformal, "_INSERTION", flat)
    with pytest.raises(NonConvergent,
                       match="did not stabilize: pass 1 moved y below fiber degree 1;"):
        pullback(phi, V(y) ** 2, 3)


# -- the value read off the insertion rate ---------------------------------------

def stationary_value(phi, g, order, y_star, q_star):
    """g(y*) + S_t(q*) - sum_i y*_i q*_i at the order: the pullback's value as
    defined, with every product multiplied out."""
    t = V(_INSERTION)
    s_t = phi.S.fiber_slice(0, 0) + phi.S.fiber_slice(1, 1) + t * phi.S.fiber_slice(2)
    return Series.sum([g.substitute(y_star), s_t.substitute(q_star)]
                      + [-(y_star[y_var] * q_star[phi.momentum(y_var)])
                         for y_var in phi.target.variables]).truncate(order)


def assert_value_is_stationary(phi, g, order):
    f, y_star, q_star, _ = microformal._pullback_graded(phi, g, order)
    want = stationary_value(phi, g, order, y_star, q_star)
    assert f == want and str(f) == str(want)
    return f, y_star, q_star


COEFFICIENTS = (1, -1, 2, -3, HALF, Fraction(-2, 3))


@st.composite
def thick_draws(draw):
    """A thick morphism of either kind between charts of 1 to 3 coordinates
    of any parity, the odd kind's target with an odd one, and an admissible
    g.  Weights and the shift are 0 in half the draws, where every monomial
    of the kind's parity fits.  S has up to two terms of fiber degree 0, a
    linear one per momentum and one to three of degree 2 or 3, and g one to
    three nonconstant ones, all of the kind's parity and weight s, where any
    fit."""
    kind = draw(st.sampled_from(["even", "odd"]))
    weighted = draw(st.booleans())

    def weight():
        return draw(st.integers(-1, 1)) if weighted else 0

    def chart(prefix, name, first_parity):
        return Chart.build([(f"{prefix}0", first_parity, weight())]
                           + [(f"{prefix}{i}", draw(st.integers(0, 1)), weight())
                              for i in range(1, draw(st.integers(1, 3)))], name)

    shift = weight()
    # an odd g needs an odd target coordinate
    source = chart("x", "M1", draw(st.integers(0, 1)))
    target = chart("y", "M2", 1 if kind == "odd" else draw(st.integers(0, 1)))
    momenta = conjugate_momenta(target, shift, kind)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    grade = Bigrading(0 if kind == "even" else 1, shift)

    def terms(variables, fits, fewest, most):
        fitting = [m for m in enumerate_monomials(variables, 3)
                   if monomial_bigrading(m) == grade and fits(dict(m))]
        chosen = rng.sample(fitting, min(len(fitting), rng.randint(fewest, most)))
        return [Series({m: rng.choice(COEFFICIENTS)}) for m in chosen]

    def fiber(m):
        return sum(e for v, e in m.items() if v.fiber_degree)

    pairs = source.variables + momenta
    s = Series.sum(terms(pairs, lambda m: not fiber(m), 0, 2)
                   + [term for q in momenta
                      for term in terms(pairs, lambda m: fiber(m) == m.get(q) == 1, 1, 1)]
                   + terms(pairs, lambda m: fiber(m) >= 2, 1, 3))
    g = Series.sum(terms(target.variables, bool, 1, 3))
    return ThickMorphism(source, target, shift, kind, s), g


@settings(max_examples=200, deadline=None)
@given(case=thick_draws(), order=st.integers(0, 5),
       s_order=st.none() | st.integers(0, 4), g_order=st.none() | st.integers(0, 4))
def test_the_value_is_the_stationary_value(case, order, s_order, g_order):
    # a truncated S or g is a shorter exact input, for which the value is
    # still the formula's
    phi, g = case
    if s_order is not None:
        phi = ThickMorphism(phi.source, phi.target, phi.shift, phi.kind, phi.S.truncate(s_order))
    assert_value_is_stationary(phi, g if g_order is None else g.truncate(g_order), order)


def odd_kind_case(target_coordinates):
    """An odd-kind morphism from (x, xi) with S0, linear terms and a tail."""
    n1 = Chart.build([("x", 0, 0), ("xi", 1, 0)], "N1")
    n2 = Chart.build(target_coordinates, "N2")
    x, xi = (V(v) for v in n1.variables)
    ys = [V(v) for v in conjugate_momenta(n2, 0, "odd")]
    if len(ys) == 1:
        # eta odd, ys_eta even: g = 5 eta, so q* = 5 and only t^0 has a c_i term
        eta, = (V(v) for v in n2.variables)
        s = x * xi + xi * ys[0] + x * xi * ys[0] ** 2
        return ThickMorphism(n1, n2, 0, "odd", s), 5 * eta
    # y even with ys_y odd, eta odd with ys_eta even: q*_eta = y* moves with t
    y, eta = (V(v) for v in n2.variables)
    s = (x * xi + x * ys[0] + xi * ys[1] + ys[0] * ys[1] + xi * ys[1] ** 2
         - HALF * x * ys[0] * ys[1] ** 2)
    return ThickMorphism(n1, n2, 0, "odd", s), y * eta + 2 * y ** 2 * eta - 3 * eta


@pytest.mark.parametrize("order", range(6))
def test_an_odd_target_coordinate_of_the_odd_kind_has_c_minus_2(order):
    phi, g = odd_kind_case([("eta", 1, 0)])
    f, _, _ = assert_value_is_stationary(phi, g, order)
    x, xi = (V(v) for v in phi.source.variables)
    # f_0 = S0 + g(phi) - 2 q*_0 phi = x xi - 5 xi + 10 xi; f_1 = t tail(5)
    assert microformal._drop_insertions(f) == x * xi + 5 * xi + (25 * x * xi if order else 0)


@pytest.mark.parametrize("order", range(6))
def test_an_even_target_coordinate_of_the_odd_kind_has_c_0(order):
    phi, g = odd_kind_case([("y", 0, 0), ("eta", 1, 0)])
    f, _, q_star = assert_value_is_stationary(phi, g, order)
    y, eta = phi.target.variables
    assert y.parity == 0 and phi.momentum(y).parity == 1
    if order:
        # so the rate's term c_eta (E q*_eta) y*_eta is not zero
        assert q_star[phi.momentum(eta)].fiber_degree() > 0
    assert microformal._drop_insertions(f) == reference_pullback(phi, g, order)[0]


# The monomial pairs of the products of one order-3 pullback of the benchmark's
# draw 1: |a| |b| per product, those inside substitute included, |a| (|a| + 1) / 2
# per square of an even homogeneous series, and |a| per scaling by a rational.
# Every product runs through _times_into.  The passes made 84,093 of them.
# With f computed as g(y*) + S_t(q*) - y*_i q*_i the value made 85,864 more;
# read off the insertion rate it made 25,676, for 109,769 in all.  A
# half-pass that substitutes every target in one call, and multiplies a bound
# monomial that two targets share once, made 97,543, counting a square as
# |a|^2 pairs; a square that walks each unordered pair once makes 82,284
PULLBACK_PAIRS = 82_284


def test_an_order_3_pullback_makes_a_fixed_number_of_monomial_pairs(monkeypatch):
    phi, g = cubic_draw(1)
    pairs = []
    mul, times_into = Series.__mul__, Series._times_into

    def scaled(a, b):
        out = mul(a, b)
        if out is not NotImplemented and not isinstance(b, Series):
            pairs.append(len(a._terms))
        return out

    def multiplied(a, out, b, order, scale):
        n = len(a._terms)
        square = b is a and a.is_homogeneous(0)
        pairs.append(n * (n + 1) // 2 if square else n * len(b._terms))
        return times_into(a, out, b, order, scale)

    monkeypatch.setattr(Series, "__mul__", scaled)
    monkeypatch.setattr(Series, "_times_into", multiplied)
    assert pullback(phi, g, 3).iterations == 5
    assert sum(pairs) <= PULLBACK_PAIRS
