"""Thick (microformal) morphisms between graded charts.

A thick morphism M1 => M2 is framed by a generating function S(x, q) where
x are coordinates on M1 and q are momenta conjugate to the coordinates y on
M2 (antimomenta ys for the odd kind).  S must be even (odd kind: odd) and
homogeneous of weight s under the shifted fiber weights w(q_i) = -w(y^i)+s.

The nonlinear pullback solves

    y^i = (-1)^{yt_i} dS/dq_i (x, q),      q_i = dg/dy^i (y)

by fixed-point iteration graded by an insertion counter: every term of S of
fiber degree >= 2 is tagged with one power of an auxiliary even variable t,
which makes the iteration contract t-adically and terminate exactly at any
requested order.

Write y_0 for the seeds (the linear part of S) and let pass j compute
q_j = dg(y_{j-1}) and y_j = Y(q_j), everything truncated at the order.  As
y -> seeds + t G(y) is a t-adic contraction, y_j - y* has t-valuation at
least j + 1, so y_order = y*, and y_j = y_{j-1} exactly when y_{j-1} = y*.
The loop therefore stops at the first pass with y_j = y_{j-1}, or after
pass ``order`` with only the half-pass q_{order+1} = dg(y_order); it never
computes y* twice more.  Every pass also checks that y_j - y_{j-1} vanishes
below fiber degree j, and raises ``NonConvergent`` if it does not.  The
reported iteration count is still that of the loop that stops when neither
y nor q moves: if k is the first index with y_k = y*, that loop stops at
pass k + 1 when q_{k+1} = q_k and at pass k + 2 otherwise, and both cases
are read off the passes already run.  The result is

    f(x) = g(y) + S(x, q) - y^i q_i

with t set to 1 at the end; intermediate t-graded data is kept for the
intertwining check, whose residual is only meaningful up to the computed
insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from .errors import ChartMismatch, GradingMismatch, NonConvergent
from .geometry import Chart, CotangentChart, KIND_EVEN, check_uses_only, conjugate_variables
from .graded_core import (
    GradedVariable,
    Series,
    format_series,
)
from .homotopy import check_master
from .report import Report

DEFAULT_ORDER = 4

# insertion counter: even, weightless, fiber degree 1 so series truncation
# counts insertions once the momenta have been substituted away
_INSERTION = GradedVariable("_t", 0, 0, fiber_degree=1, index=10 ** 6)


def conjugate_momenta(target: Chart, shift: int, kind: str) -> Tuple[GradedVariable, ...]:
    """The momentum variables q_<y> (even kind) or ys_<y> (odd kind) of T*M2[s].

    Exposed so generating functions can be written before the morphism is
    built; the constructor recreates value-identical variables.
    """
    return conjugate_variables(target, shift, kind, "q_" if kind == KIND_EVEN else "ys_")


class ThickMorphism:
    """A generating function S framing a formal canonical relation M1 => M2."""

    __slots__ = ("source", "target", "shift", "kind", "S", "momenta")

    def __init__(self, source: Chart, target: Chart, shift: int, kind: str,
                 S: Series):
        self.source = source
        self.target = target
        self.shift = shift
        self.kind = kind
        self.momenta = conjugate_momenta(target, shift, kind)
        check_uses_only(S, source.variables + self.momenta, "S uses variables outside (x, q)")
        self.S = S

    @property
    def expected_parity(self) -> int:
        return 0 if self.kind == KIND_EVEN else 1

    def momentum(self, target_var: GradedVariable) -> GradedVariable:
        return self.momenta[target_var.index]

    def is_valid(self) -> bool:
        return self.S.is_zero or self.S.is_homogeneous(self.expected_parity, self.shift)

    def __str__(self) -> str:
        arrow = "=>" if self.kind == KIND_EVEN else "=o>"
        return (f"{self.source.name or 'M1'} {arrow} {self.target.name or 'M2'} "
                f"[shift {self.shift}]: S = {self.S}")


@dataclass
class PullbackResult:
    f: Series
    y_solution: Dict[GradedVariable, Series]
    q_solution: Dict[GradedVariable, Series]
    order: int
    iterations: int


def support(phi: ThickMorphism) -> Dict[GradedVariable, Series]:
    """The components phi^i(x): the coefficient of q_i in the linear part of S."""
    parts: Dict[GradedVariable, list] = {var: [] for var in phi.target.variables}
    for monomial, coeff in phi.S.fiber_slice(1, 1).items():
        base_part = tuple((v, e) for v, e in monomial if not v.fiber_degree)
        fiber_part = [(v, e) for v, e in monomial if v.fiber_degree]
        (q_var, _), = fiber_part
        parts[phi.target.variables[q_var.index]].append(Series({base_part: coeff}))
    return {var: Series.sum(terms) for var, terms in parts.items()}


def validate_thick(phi: ThickMorphism) -> Report:
    """Parity, weight homogeneity, S^0/support extraction, derivative weights."""
    report = Report(f"thick morphism validation: {phi}")
    s = phi.S
    if s.is_zero:
        report.ok("thick-parity", notes="S = 0")
        return report
    parity_ok = s.is_homogeneous(parity=phi.expected_parity)
    report.record(parity_ok, "thick-parity",
                  expected="even" if phi.kind == KIND_EVEN else "odd",
                  actual="mixed or wrong" if not parity_ok else
                  ("even" if phi.expected_parity == 0 else "odd"))
    weight_ok = s.is_homogeneous(weight=phi.shift)
    actual_weight = ""
    if s.is_homogeneous():
        actual_weight = str(s.bigrading().weight)
    report.record(weight_ok, "thick-weight", expected=str(phi.shift),
                  actual=actual_weight or "inhomogeneous")
    report.info("thick-s0", notes=f"S0 = {phi.S.fiber_slice(0, 0)}")
    for var, component in support(phi).items():
        report.info("thick-support", location=var.name, notes=f"phi = {component}")
    if parity_ok and weight_ok:
        # (check, variable, the weight dS/d(variable) must have)
        derivatives = (
            [("wrelat-base", x_var, phi.shift - x_var.weight)
             for x_var in phi.source.variables]
            + [("wrelat-fiber", phi.momentum(y_var), y_var.weight)
               for y_var in phi.target.variables])
        for check, var, weight in derivatives:
            derivative = s.left_derivative(var)
            if derivative.is_zero:
                continue
            actual = derivative.bigrading().weight
            report.record(actual == weight, check, location=f"dS/d{var.name}",
                          expected=f"weight {weight}", actual=f"weight {actual}")
    return report


def _require_valid(phi: ThickMorphism) -> None:
    if not phi.is_valid():
        raise GradingMismatch(
            "generating function must be homogeneous of the kind parity "
            f"({phi.expected_parity}) and of weight {phi.shift}")


def _check_admissible(phi: ThickMorphism, g: Series) -> None:
    check_uses_only(g, phi.target.variables, "g uses variables not on the target chart")
    expected = phi.expected_parity
    if not g.is_zero and not g.is_homogeneous(expected, phi.shift):
        raise GradingMismatch(
            f"pullback input must be homogeneous of parity {expected} and "
            f"weight {phi.shift}")


def _pullback_graded(phi: ThickMorphism, g: Series, order: int):
    """Solve the coupled equations with the insertion grading kept explicit."""
    if order < 0:
        raise ValueError("pullback order must be nonnegative")
    _require_valid(phi)
    _check_admissible(phi, g)
    t = Series.variable(_INSERTION)
    linear = phi.S.fiber_slice(1, 1)
    tail = phi.S.fiber_slice(2)
    y_map: Dict[GradedVariable, Series] = {}
    seeds: Dict[GradedVariable, Series] = {}
    for y_var in phi.target.variables:
        q_var = phi.momentum(y_var)
        sign = -1 if y_var.parity else 1
        seeds[y_var] = sign * linear.left_derivative(q_var)
        y_map[y_var] = seeds[y_var] + (t * (sign * tail.left_derivative(q_var)))
    dg = {y_var: g.left_derivative(y_var) for y_var in phi.target.variables}

    # pass j computes q_j = dg(y_{j-1}) and y_j = Y(q_j), from y_0 = seeds;
    # it stops once y_{j-1} = y* is proven (see the module docstring)
    y_cur = dict(seeds)
    q_prev: Dict[GradedVariable, Series] = {}
    for passes in range(1, order + 2):
        q_cur = {
            phi.momentum(y_var): dg[y_var].substitute(y_cur).truncate(order)
            for y_var in phi.target.variables}
        if passes > order:
            break  # y_cur is y_order, which is y*
        y_next = {
            y_var: y_map[y_var].substitute(q_cur).truncate(order)
            for y_var in phi.target.variables}
        # y_j - y_{j-1} has t-valuation at least j
        below = passes - 1
        if any(y_next[y_var].fiber_slice(0, below) != y_cur[y_var].fiber_slice(0, below)
               for y_var in phi.target.variables):
            raise NonConvergent(
                f"pullback did not stabilize: pass {passes} moved y below fiber "
                f"degree {passes}; S lacks the structure of a formal generating function")
        if y_next == y_cur:
            break  # y_cur is a fixed point, so it is y*
        y_cur, q_prev = y_next, q_cur
    # q_cur = dg(y*) = q*.  A loop that stops when neither y nor q moves
    # would stop after this pass if q_prev = q* already, else one pass later
    iterations = passes if q_cur == q_prev else passes + 1

    s_t = phi.S.fiber_slice(0, 0) + linear + t * tail
    f = Series.sum([g.substitute(y_cur), s_t.substitute(q_cur)]
                   + [-(y_cur[y_var] * q_cur[phi.momentum(y_var)])
                      for y_var in phi.target.variables]).truncate(order)
    return f, y_cur, q_cur, iterations


def _drop_insertions(series: Series) -> Series:
    return series.substitute({_INSERTION: Series.one()}).without_truncation()


def pullback(phi: ThickMorphism, g: Series, order: int = DEFAULT_ORDER) -> PullbackResult:
    """The nonlinear pullback f = g(y) + S(x,q) - y^i q_i at the fixed point."""
    f_t, y_t, q_t, iterations = _pullback_graded(phi, g, order)
    return PullbackResult(
        f=_drop_insertions(f_t),
        y_solution={v: _drop_insertions(s) for v, s in y_t.items()},
        q_solution={v: _drop_insertions(s) for v, s in q_t.items()},
        order=order,
        iterations=iterations)


def pullback_expansion_oracle(phi: ThickMorphism, g: Series) -> Series:
    """The explicit expansion S0 + g(phi) + 1/2 S^{ij} d_j g(phi) d_i g(phi).

    Computed by direct substitution, with no fixed-point iteration, as an
    independent cross-check of `pullback` through the quadratic term.
    """
    _require_valid(phi)
    _check_admissible(phi, g)
    support_map = support(phi)
    q_values = {
        phi.momentum(y_var): g.left_derivative(y_var).substitute(support_map)
        for y_var in phi.target.variables}
    return (phi.S.fiber_slice(0, 0) + g.substitute(support_map)
            + phi.S.fiber_slice(2, 2).substitute(q_values))


def _master_sides(phi: ThickMorphism, h1: Series, ct1: CotangentChart,
                  h2: Series, ct2: CotangentChart, generator: Series,
                  y_values: Mapping[GradedVariable, Series],
                  q_values: Mapping[GradedVariable, Series]) -> Tuple[Series, Series]:
    """H1(x, d(generator)/dx) and H2(y, q): H1's momenta bound to the
    generator's x-derivatives, and each target coordinate y of H2 bound to
    ``y_values[y]`` and its momentum to ``q_values`` at ``phi.momentum(y)``."""
    lhs = h1.substitute({ct1.conjugate(x_var): generator.left_derivative(x_var)
                         for x_var in phi.source.variables})
    target_bindings: Dict[GradedVariable, Series] = {}
    for y_var in phi.target.variables:
        target_bindings[y_var] = y_values[y_var]
        target_bindings[ct2.conjugate(y_var)] = q_values[phi.momentum(y_var)]
    return lhs, h2.substitute(target_bindings)


def _hj_sides(phi: ThickMorphism, h1: Series, ct1: CotangentChart,
              h2: Series, ct2: CotangentChart) -> Tuple[Series, Series]:
    y_values = {y_var: (-1 if y_var.parity else 1) * phi.S.left_derivative(phi.momentum(y_var))
                for y_var in phi.target.variables}
    q_values = {q_var: Series.variable(q_var) for q_var in map(phi.momentum, phi.target.variables)}
    return _master_sides(phi, h1, ct1, h2, ct2, phi.S, y_values, q_values)


def _check_hj_setup(phi: ThickMorphism, h1: Series, ct1: CotangentChart,
                    h2: Series, ct2: CotangentChart) -> int:
    if ct1.base.variables != phi.source.variables:
        raise ChartMismatch("H1 must live on the (anti)cotangent bundle of the source")
    if ct2.base.variables != phi.target.variables:
        raise ChartMismatch("H2 must live on the (anti)cotangent bundle of the target")
    if ct1.kind != phi.kind or ct2.kind != phi.kind:
        raise ChartMismatch("bundle kinds must match the kind of the thick morphism")
    if ct1.shift != phi.shift or ct2.shift != phi.shift:
        raise GradingMismatch(
            f"bracket shift 1-k must equal the morphism shift s = {phi.shift}")
    _require_valid(phi)
    k = 1 - phi.shift
    for name, h in (("H1", h1), ("H2", h2)):
        if h.is_zero:
            continue
        grade = h.bigrading()
        if grade.weight != 2 - k:
            raise GradingMismatch(
                f"{name} has weight {grade.weight}, master weight must be {2 - k}")
    return k


def check_hamilton_jacobi(phi: ThickMorphism, h1: Series, ct1: CotangentChart,
                          h2: Series, ct2: CotangentChart,
                          order: int = DEFAULT_ORDER) -> Report:
    """H1(x, dS/dx) - H2((-1)^i dS/dq, q), truncated at fiber degree ``order``."""
    k = _check_hj_setup(phi, h1, ct1, h2, ct2)
    report = Report(f"Hamilton-Jacobi compatibility (s = {phi.shift}, k = {k})")
    for name, h, ct in (("H1", h1, ct1), ("H2", h2, ct2)):
        master = check_master(h, ct)
        report.record(master.passed, "hj-master", location=name,
                      notes="; ".join(e.to_text() for e in master.failures()) or
                      "master equation and weight hold")
    lhs, rhs = _hj_sides(phi, h1, ct1, h2, ct2)
    residual = (lhs - rhs).truncate(order)
    shown = format_series(residual)
    report.record(residual.is_zero, "hj-residual",
                  location=f"order {order}",
                  expected="0", actual=shown, residual=shown)
    return report


def check_intertwining(phi: ThickMorphism, h1: Series, ct1: CotangentChart,
                       h2: Series, ct2: CotangentChart, g: Series,
                       order: int = DEFAULT_ORDER) -> Report:
    """H1(x, d(pullback g)/dx) - H2(y(x), dg/dy(y(x))) per test function g.

    This is the generating-function form of the statement that the pullback
    intertwines the two master flows; the residual is reported up to the
    insertion order ``order - 1``.
    """
    k = _check_hj_setup(phi, h1, ct1, h2, ct2)
    residual_order = max(order - 1, 0)
    f_t, y_t, q_t, iterations = _pullback_graded(phi, g, order)
    lhs, rhs = _master_sides(phi, h1, ct1, h2, ct2, f_t, y_t, q_t)
    residual = (lhs - rhs).truncate(residual_order)
    report = Report(f"intertwining residual (s = {phi.shift}, k = {k}, "
                    f"insertion order {residual_order})")
    report.info("intertwining-pullback",
                notes=f"f = {_drop_insertions(f_t)} ({iterations} iterations)")
    shown = format_series(_drop_insertions(residual))
    report.record(residual.is_zero, "intertwining-residual",
                  location=f"order {residual_order}",
                  expected="0", actual=shown, residual=shown)
    return report
