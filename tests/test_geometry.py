import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel.errors import ChartMismatch, GradingMismatch
from gradedkernel.geometry import (
    Chart,
    VectorField,
    canonical_bracket,
    commutator,
    is_homological,
    shifted_anticotangent,
    shifted_cotangent,
)
from gradedkernel.graded_core import Bigrading, Series
from gradedkernel.sampling import random_homogeneous

from helpers import full_stencil_bracket

V = Series.variable


class TestShiftedCharts:
    def test_even_fiber_at_zero_shift(self):
        base = Chart.build([("x", 0, 0)], "M")
        ct = shifted_cotangent(base, 0)
        p, = ct.fiber
        assert (p.name, p.parity, p.weight, p.fiber_degree) == ("p_x", 0, 0, 1)

    def test_even_fiber_weight_formula(self):
        base = Chart.build([("x", 0, 2)], "M")
        ct = shifted_cotangent(base, 1)
        assert ct.fiber[0].weight == -1

    def test_even_fiber_odd_coordinate(self):
        base = Chart.build([("xi", 1, 1)], "M")
        ct = shifted_cotangent(base, 0)  # s = 1 - k with k = 1
        p, = ct.fiber
        assert p.parity == 1 and p.weight == -1

    def test_odd_fiber_parity_reversed(self):
        base = Chart.build([("x", 0, 0)], "M")
        ct = shifted_anticotangent(base, 0)
        xs, = ct.fiber
        assert (xs.name, xs.parity, xs.weight) == ("xs_x", 1, 0)

    def test_odd_fiber_flip_and_shift(self):
        base = Chart.build([("xi", 1, 1)], "M")
        ct = shifted_anticotangent(base, 2)
        xs, = ct.fiber
        assert xs.parity == 0 and xs.weight == 1

    def test_order_preserved(self):
        base = Chart.build([("a", 0, 0), ("b", 1, 1)], "M")
        ct = shifted_anticotangent(base, 0)
        assert [v.name for v in ct.fiber] == ["xs_a", "xs_b"]
        assert [v.index for v in ct.fiber] == [0, 1]


class TestCommutator:
    def test_classical(self):
        chart = Chart.build([("x", 0, 0)], "M")
        x, = chart.variables
        X = VectorField(chart, {x: Series.one()}, 0, 0)
        Y = VectorField(chart, {x: V(x)}, 0, 0)
        assert commutator(X, Y) == X

    def test_odd_field_squares_to_zero(self):
        chart = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        x, xi = chart.variables
        X = VectorField(chart, {x: V(xi)}, 1, 0)
        assert commutator(X, X).is_zero

    def test_chart_mismatch(self):
        c1 = Chart.build([("x", 0, 0)], "A")
        c2 = Chart.build([("y", 0, 0)], "B")
        X = VectorField(c1, {c1.variables[0]: Series.one()}, 0, 0)
        Y = VectorField(c2, {c2.variables[0]: Series.one()}, 0, 0)
        with pytest.raises(ChartMismatch):
            commutator(X, Y)

    def test_graded_antisymmetry_and_jacobi(self, rng):
        chart = Chart.build([("x", 0, 0), ("xi", 1, 1), ("eta", 1, -1)], "M")
        fields = []
        attempts = 0
        while len(fields) < 3 and attempts < 200:
            attempts += 1
            parity = rng.randint(0, 1)
            weight = rng.randint(-1, 1)
            components = {}
            for var in chart.variables:
                comp = random_homogeneous(
                    chart.variables, rng, 2,
                    parity=(var.parity + parity) % 2,
                    weight=var.weight + weight)
                if not comp.is_zero:
                    components[var] = comp
            if components:
                fields.append(VectorField(chart, components, parity, weight))
        for X in fields:
            for Y in fields:
                sign = -1 if (X.parity and Y.parity) else 1
                assert commutator(X, Y) == commutator(Y, X).scaled(-sign)
                for Z in fields:
                    sx = -1 if (X.parity and Y.parity) else 1
                    lhs = commutator(X, commutator(Y, Z))
                    rhs = commutator(commutator(X, Y), Z) + commutator(Y, commutator(X, Z)).scaled(sx)
                    assert lhs == rhs


class TestHomological:
    def test_lie_algebra_field(self):
        chart = Chart.build([("xi1", 1, 0), ("xi2", 1, 0)], "PiV")
        xi1, xi2 = chart.variables
        q = VectorField(chart, {xi2: V(xi1) * V(xi2)}, 1, 0)
        assert is_homological(q)

    def test_rejects_nonsquare_zero(self):
        chart = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        x, xi = chart.variables
        q = VectorField(chart, {xi: V(x), x: V(xi)}, 1, 0)
        assert not is_homological(q)
        residual = commutator(q, q)
        assert residual.component(x) == 2 * V(x) or not residual.is_zero

    def test_even_field_gate(self):
        chart = Chart.build([("xi1", 1, 0), ("xi2", 1, 0)], "PiV")
        xi1, xi2 = chart.variables
        even = VectorField(chart, {xi2: V(xi2)}, 0, 0)
        assert not is_homological(even)


class TestCanonicalBracket:
    def test_darboux_normalization(self):
        base = Chart.build([("x", 0, 0)], "M")
        ct = shifted_cotangent(base, 0)
        x, = base.variables
        p, = ct.fiber
        value = canonical_bracket(V(p), V(x), ct)
        assert value == Series.one() or value == -Series.one()

    def test_constant_brackets_vanish(self):
        base = Chart.build([("x", 0, 0)], "M")
        ct = shifted_cotangent(base, 0)
        p, = ct.fiber
        assert canonical_bracket(V(p), V(p), ct).is_zero

    def test_weight_law(self, rng):
        base = Chart.build([("x", 0, 0), ("y", 0, 2), ("xi", 1, 1), ("eta", 1, -1)], "M")
        for s in (-1, 0, 1, 2):
            for builder in (shifted_cotangent, shifted_anticotangent):
                ct = builder(base, s)
                for _ in range(8):
                    f = random_homogeneous(ct.variables, rng, 2)
                    g = random_homogeneous(ct.variables, rng, 2)
                    if f.is_zero or g.is_zero:
                        continue
                    value = canonical_bracket(f, g, ct)
                    if value.is_zero:
                        continue
                    assert value.bigrading().weight == \
                        f.bigrading().weight + g.bigrading().weight - s

    def test_fiber_degree_drops_by_one(self, rng):
        base = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        ct = shifted_cotangent(base, 0)
        for _ in range(20):
            f = random_homogeneous(ct.variables, rng, 3)
            g = random_homogeneous(ct.variables, rng, 3)
            if f.is_zero or g.is_zero:
                continue
            value = canonical_bracket(f, g, ct)
            if value.is_zero:
                continue
            assert value.fiber_degree() <= f.fiber_degree() + g.fiber_degree() - 1

    def test_argument_off_the_chart_rejected(self):
        base = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        ct = shifted_cotangent(base, 0)
        other = Chart.build([("u", 0, 0), ("w", 1, 0)], "N")
        u, w = other.variables
        f = V(base.variables[0]) * V(u) + V(w) * V(ct.fiber[0])
        with pytest.raises(ChartMismatch) as caught:
            canonical_bracket(V(ct.fiber[0]), f, ct)
        assert str(caught.value) == "bracket argument uses variables not on the chart: u, w"

    def test_inhomogeneous_rejected(self):
        base = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        ct = shifted_cotangent(base, 0)
        x, xi = base.variables
        with pytest.raises(GradingMismatch):
            canonical_bracket(V(x) + V(xi), V(x), ct)


def test_restrict_to_base():
    # restriction to the base sets every fiber variable to zero
    base = Chart.build([("x", 0, 0)], "M")
    ct = shifted_cotangent(base, 0)
    x, = base.variables
    p, = ct.fiber
    assert (V(x) + V(x) * V(p)).fiber_slice(0, 0) == V(x)
    assert (V(p) ** 2).fiber_slice(0, 0).is_zero
    s0 = V(x) ** 2
    assert (s0 + V(x) * V(p)).fiber_slice(0, 0) == s0
    truncated = (s0 + V(x) * V(p)).truncate(1)
    assert truncated.fiber_slice(0, 0).truncation_order == 1


def test_bracket_refuses_a_truncated_argument():
    base = Chart.build([("x", 0, 0)], "M")
    ct = shifted_cotangent(base, 0)
    x, = base.variables
    p, = ct.fiber
    g = V(x) * V(p) + V(p) ** 2
    # the exact bracket of x^2 and x + p_x is -2*x; its argument cut at
    # fiber degree 0 does not determine it
    assert canonical_bracket(V(x) ** 2, V(x) + V(p), ct) == -2 * V(x)
    for cut in ((V(x) + V(p)).truncate(0), (V(x) ** 2 + V(p) ** 3).truncate(2),
                Series.zero(2), Series.zero(0), g.truncate(5)):
        for f, h in ((cut, g), (g, cut), (V(x) ** 2, cut), (cut, cut)):
            with pytest.raises(GradingMismatch, match="exact series"):
                canonical_bracket(f, h, ct)
    zero = canonical_bracket(Series.zero(), g, ct)
    assert zero.is_zero and zero.truncation_order is None


@settings(max_examples=200, deadline=None)
@given(builder=st.sampled_from([shifted_cotangent, shifted_anticotangent]),
       shift=st.integers(-1, 2), seed=st.integers(0, 2 ** 32 - 1),
       on_base=st.tuples(st.booleans(), st.booleans()))
def test_bracket_equals_the_full_stencil(builder, shift, seed, on_base):
    # 0, 1 or 2 base-function arguments
    base = Chart.build([("x", 0, 0), ("y", 0, 1), ("xi", 1, -1)], "M")
    ct = builder(base, shift)
    rng = random.Random(seed)
    f, g = (random_homogeneous(base.variables if base_only else ct.variables, rng, 3)
            for base_only in on_base)
    got, want = canonical_bracket(f, g, ct), full_stencil_bracket(f, g, ct)
    assert got == want and str(got) == str(want)
    assert got.truncation_order is want.truncation_order is None


def test_restriction_preserves_bigrading(rng):
    base = Chart.build([("x", 0, 1), ("xi", 1, -1)], "M")
    for _ in range(30):
        f = random_homogeneous(base.variables, rng, 2)
        if f.is_zero:
            continue
        # base functions included into the bundle and restricted back keep
        # their bigrading
        assert f.fiber_slice(0, 0) == f
        assert f.fiber_slice(0, 0).bigrading() == f.bigrading()
