"""Graded charts, vector fields, and the canonical brackets on shifted
(anti)cotangent bundles.

A chart fixes the declaration order of its variables, which in turn fixes
the canonical monomial order for every series over it.  Shifted cotangent
charts extend a base chart with one conjugate fiber variable per base
coordinate: ``p_<x>`` with the same parity for the even kind (T*M[s]) and
``xs_<x>`` with flipped parity for the odd kind (Pi T*M[s]); in both cases
the fiber weight is ``-w(x) + s``.

The canonical bracket convention is fixed once, below.  Writing ``zt`` for
the parity of the base coordinate ``z^a`` and ``Ft`` for the parity of the
first argument, with left derivatives throughout:

    kind = even (Poisson, momenta p_a, parity of p_a = zt):
        (F, G) = sum_a (-1)^{zt Ft} [ dF/dp_a dG/dz^a
                                      - (-1)^{zt} dF/dz^a dG/dp_a ]

    kind = odd (Schouten, antimomenta xs_a, parity of xs_a = zt + 1):
        (F, G) = sum_a (-1)^{(zt+1) Ft} dF/dxs_a dG/dz^a
                       + (-1)^{zt Ft} dF/dz^a dG/dxs_a

These stencils pass the graded antisymmetry (with the kappa-shift for the
odd kind), Jacobi, and Leibniz suites exactly, which is what pins them; any
self-consistent variant differs only by global sign conventions.  Both
brackets have weight ``-s`` and drop fiber degree by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple, Union

from .errors import ChartMismatch, GradingMismatch
from .graded_core import (
    Bigrading,
    GradedVariable,
    Series,
)

KIND_EVEN = "even"
KIND_ODD = "odd"


@dataclass(frozen=True)
class Chart:
    """An ordered list of base variables (all fiber degree 0)."""

    variables: Tuple[GradedVariable, ...]
    name: str = ""

    def __post_init__(self):
        seen = set()
        for i, var in enumerate(self.variables):
            if var.fiber_degree != 0:
                raise ValueError(f"chart variable {var.name} must have fiber degree 0")
            if var.index != i:
                raise ValueError(f"chart variable {var.name} has index {var.index}, expected {i}")
            if var.name in seen:
                raise ValueError(f"duplicate variable name {var.name}")
            seen.add(var.name)

    @classmethod
    def build(cls, specs: Sequence[Tuple[str, int, int]], name: str = "") -> "Chart":
        """Create a chart from (name, parity, weight) triples in declaration order."""
        variables = tuple(
            GradedVariable(vname, parity, weight, fiber_degree=0, index=i)
            for i, (vname, parity, weight) in enumerate(specs))
        return cls(variables, name)

    def __iter__(self):
        return iter(self.variables)


@dataclass(frozen=True)
class CotangentChart:
    """A base chart extended with conjugate (anti)momentum variables.

    kind=even is the shifted cotangent bundle T*M[s]; kind=odd is the
    shifted anticotangent bundle Pi T*M[s].
    """

    base: Chart
    fiber: Tuple[GradedVariable, ...]
    shift: int
    kind: str

    def __post_init__(self):
        if self.kind not in (KIND_EVEN, KIND_ODD):
            raise ValueError(f"kind must be 'even' or 'odd', got {self.kind!r}")
        if len(self.fiber) != len(self.base.variables):
            raise ValueError("one fiber variable per base variable")
        flip = 0 if self.kind == KIND_EVEN else 1
        for base_var, fiber_var in zip(self.base.variables, self.fiber):
            if fiber_var.fiber_degree != 1:
                raise ValueError(f"{fiber_var.name} must have fiber degree 1")
            if fiber_var.parity != (base_var.parity + flip) % 2:
                raise ValueError(f"{fiber_var.name} has the wrong parity")
            if fiber_var.weight != -base_var.weight + self.shift:
                raise ValueError(f"{fiber_var.name} has the wrong weight")

    @property
    def variables(self) -> Tuple[GradedVariable, ...]:
        return self.base.variables + self.fiber

    @property
    def name(self) -> str:
        prefix = "T*" if self.kind == KIND_EVEN else "PiT*"
        return f"{prefix}{self.base.name}[{self.shift}]"

    def conjugate(self, base_var: GradedVariable) -> GradedVariable:
        return self.fiber[base_var.index]

    def __iter__(self):
        return iter(self.variables)


AnyChart = Union[Chart, CotangentChart]


def conjugate_variables(base: Chart, shift: int, kind: str,
                        prefix: str) -> Tuple[GradedVariable, ...]:
    """The fiber variable ``<prefix><x>`` conjugate to each base coordinate x
    of T*M[shift] (even kind) or Pi T*M[shift] (odd kind).

    It has the parity of x, flipped for the odd kind, weight
    ``-w(x) + shift``, fiber degree 1 and x's index.
    """
    if kind not in (KIND_EVEN, KIND_ODD):
        raise ValueError("kind must be 'even' or 'odd'")
    flip = 0 if kind == KIND_EVEN else 1
    return tuple(
        GradedVariable(prefix + var.name, (var.parity + flip) % 2, -var.weight + shift,
                       fiber_degree=1, index=var.index)
        for var in base.variables)


def shifted_cotangent(base: Chart, s: int) -> CotangentChart:
    """T*M[s]: fiber variable p_<x> with the parity of x and weight -w(x)+s."""
    return CotangentChart(base, conjugate_variables(base, s, KIND_EVEN, "p_"), s, KIND_EVEN)


def shifted_anticotangent(base: Chart, s: int) -> CotangentChart:
    """Pi T*M[s]: fiber variable xs_<x> with flipped parity and weight -w(x)+s."""
    return CotangentChart(base, conjugate_variables(base, s, KIND_ODD, "xs_"), s, KIND_ODD)


def check_uses_only(series: Series, variables: Sequence[GradedVariable], what: str) -> None:
    """Raise ``ChartMismatch("<what>: <stray names>")`` unless every variable
    of ``series`` is one of ``variables``."""
    if not series.uses_only(variables):
        names = ", ".join(sorted(v.name for v in series.variables() - set(variables)))
        raise ChartMismatch(f"{what}: {names}")


class VectorField:
    """A homogeneous vector field X = sum_a X^a d/dx^a with left derivatives.

    Each component must be zero or homogeneous of bigrading
    (variable parity + field parity, variable weight + field weight).
    """

    __slots__ = ("chart", "components", "parity", "weight")

    def __init__(self, chart: AnyChart,
                 components: Mapping[GradedVariable, Series],
                 parity: int, weight: int):
        if parity not in (0, 1):
            raise ValueError("parity must be 0 or 1")
        variables = chart.variables
        clean: Dict[GradedVariable, Series] = {}
        for var, series in components.items():
            if var not in variables:
                raise ChartMismatch(f"component variable {var.name} is not on the chart")
            if series.is_zero:
                continue
            check_uses_only(series, variables,
                            f"component along {var.name} uses variables not on the chart")
            VectorField.check_component(var, series, parity, weight)
            clean[var] = series
        self.chart = chart
        self.components = clean
        self.parity = parity
        self.weight = weight

    @staticmethod
    def check_component(var: GradedVariable, series: Series, parity: int, weight: int) -> None:
        """Raise GradingMismatch unless ``series`` is zero or graded as a
        component along ``var`` of a field of ``parity`` and ``weight``."""
        expected = Bigrading((var.parity + parity) % 2, var.weight + weight)
        if not series.is_zero and series.bigrading() != expected:
            raise GradingMismatch(
                f"component along {var.name} has bigrading {series.bigrading()}, "
                f"expected {expected}")

    @property
    def is_zero(self) -> bool:
        return not self.components

    def component(self, var: GradedVariable) -> Series:
        return self.components.get(var, Series.zero())

    def apply(self, series: Series) -> Series:
        """X(f) = sum_a X^a * dF/dx^a (components on the left)."""
        return Series.sum([comp * series.left_derivative(var)
                           for var, comp in self.components.items()])

    def constant_part(self) -> Dict[GradedVariable, Fraction]:
        """Coefficients of the coordinate-independent component ("value at 0")."""
        out: Dict[GradedVariable, Fraction] = {}
        for var, comp in self.components.items():
            c = comp.coefficient(())
            if c:
                out[var] = c
        return out

    def __add__(self, other: "VectorField") -> "VectorField":
        if self.chart is not other.chart and self.chart.variables != other.chart.variables:
            raise ChartMismatch("cannot add vector fields on different charts")
        if (self.parity, self.weight) != (other.parity, other.weight) and not (self.is_zero or other.is_zero):
            raise GradingMismatch("cannot add vector fields of different bigradings")
        merged = dict(self.components)
        for var, comp in other.components.items():
            merged[var] = merged.get(var, Series.zero()) + comp
        parity = other.parity if self.is_zero else self.parity
        weight = other.weight if self.is_zero else self.weight
        return VectorField(self.chart, merged, parity, weight)

    def __neg__(self) -> "VectorField":
        return VectorField(self.chart, {v: -c for v, c in self.components.items()},
                           self.parity, self.weight)

    def scaled(self, value) -> "VectorField":
        return VectorField(self.chart, {v: c * Fraction(value) for v, c in self.components.items()},
                           self.parity, self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return (dict(self.components) == dict(other.components)
                and self.chart.variables == other.chart.variables)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        pieces = []
        for var in self.chart.variables:
            comp = self.components.get(var)
            if comp is not None:
                pieces.append(f"({comp}) d/d{var.name}")
        return " + ".join(pieces)

    __repr__ = __str__


def commutator(x: VectorField, y: VectorField) -> VectorField:
    """[X, Y] = X Y - (-1)^{Xt Yt} Y X, computed on coordinate functions."""
    if x.chart.variables != y.chart.variables:
        raise ChartMismatch("commutator requires vector fields on one chart")
    both_odd = x.parity and y.parity
    components: Dict[GradedVariable, Series] = {}
    for var in x.chart.variables:
        xy, yx = x.apply(y.component(var)), y.apply(x.component(var))
        comp = xy + yx if both_odd else xy - yx
        if not comp.is_zero:
            components[var] = comp
    return VectorField(x.chart, components, (x.parity + y.parity) % 2,
                       x.weight + y.weight)


def is_homological(q: VectorField) -> bool:
    """True iff Q is odd and [Q, Q] = 0."""
    if q.parity != 1:
        return False
    return commutator(q, q).is_zero


def canonical_bracket(f: Series, g: Series, ct: CotangentChart) -> Series:
    """The canonical Poisson (kind=even) or Schouten (kind=odd) bracket.

    Requires homogeneous arguments; the result has weight
    w(F)+w(G)-s and parity Ft+Gt (plus 1 for the odd kind).

    An argument of fiber degree 0, such as a base function, has no fiber
    derivative, so the products that take one of it are skipped.
    """
    for argument in (f, g):
        check_uses_only(argument, ct.variables, "bracket argument uses variables not on the chart")
    if f.is_zero or g.is_zero:
        return Series.zero()
    f_parity = f.bigrading().parity
    g.bigrading()
    f_in_fiber, g_in_fiber = f.fiber_degree() > 0, g.fiber_degree() > 0
    terms = []
    for base_var in ct.base.variables:
        fiber_var = ct.conjugate(base_var)
        zt = base_var.parity
        if ct.kind == KIND_EVEN:
            s1 = (zt * f_parity) % 2
            s2 = (1 + zt + zt * f_parity) % 2
        else:
            s1 = ((zt + 1) * f_parity) % 2
            s2 = (zt * f_parity) % 2
        if f_in_fiber:
            t1 = f.left_derivative(fiber_var) * g.left_derivative(base_var)
            terms.append(-t1 if s1 else t1)
        if g_in_fiber:
            t2 = f.left_derivative(base_var) * g.left_derivative(fiber_var)
            terms.append(-t2 if s2 else t2)
    return Series.sum(terms)
