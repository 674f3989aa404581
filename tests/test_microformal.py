from fractions import Fraction

import pytest

from gradedkernel.errors import ChartMismatch, GradingMismatch
from gradedkernel.geometry import Chart, shifted_cotangent
from gradedkernel.graded_core import Series
from gradedkernel.microformal import (
    ThickMorphism,
    check_hamilton_jacobi,
    check_intertwining,
    conjugate_momenta,
    pullback,
    pullback_expansion_oracle,
    support,
    validate_thick,
)

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
        linear = phi.s_part(1)
        tail = phi.s_tail(2)
        s_t = phi.s_part(0) + linear + Series.variable(_INSERTION) * tail
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
