"""Brute-force evaluation backend over a finite Grassmann algebra.

Graded expressions are evaluated by sending every variable to a concrete
multivector with rational coefficients: even variables to even multivectors,
odd variables to odd ones.  The arithmetic here is deliberately independent
of the symbolic kernel (bitmask-keyed multivectors, merge signs computed from
generator indices), so agreement between the two paths is evidence of
correctness rather than of shared code.

Evaluation runs on Python integers: the assignment is scaled by the lcm of
its denominators and each monomial by a matching power, so a whole series is
evaluated times one known nonzero integer, and one division at the end gives
the exact rational value.

``identity_check`` never proves an identity; it reports "no counterexample
in N trials" with the seed that produced the trials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import MissingBinding, ParityViolation
from .graded_core import GradedVariable, Monomial, Series
from .report import Report

# A multivector maps a blade, the bitmask of its generator indices (bit i is
# generator th_i), to a nonzero coefficient: a Fraction, or an int inside an
# integer evaluation.


class GrassmannElement:
    """An element of the Grassmann algebra on ``generator_count`` generators."""

    __slots__ = ("generator_count", "_parts")

    def __init__(self, generator_count: int,
                 parts: Optional[Mapping[Iterable[int], Fraction]] = None):
        """``parts`` maps collections of generator indices, such as frozensets,
        to coefficients."""
        self.generator_count = generator_count
        clean: Dict[int, Fraction] = {}
        for subset, coeff in (parts or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[sum(1 << i for i in set(subset))] = coeff
        self._parts = clean

    @classmethod
    def _of(cls, generator_count: int, parts: Dict[int, object]) -> "GrassmannElement":
        """Trusted constructor: ``parts`` is bitmask-keyed, has no zero, and is not copied."""
        element = object.__new__(cls)
        element.generator_count = generator_count
        element._parts = parts
        return element

    @classmethod
    def scalar(cls, generator_count: int, value) -> "GrassmannElement":
        value = Fraction(value)
        return cls._of(generator_count, {0: value} if value else {})

    @classmethod
    def generator(cls, generator_count: int, index: int) -> "GrassmannElement":
        if not 0 <= index < generator_count:
            raise ValueError(f"generator index {index} out of range")
        return cls._of(generator_count, {1 << index: Fraction(1)})

    @property
    def is_zero(self) -> bool:
        return not self._parts

    def parity(self) -> Optional[int]:
        """0 or 1 if homogeneous in multivector-degree parity, else None."""
        if not self._parts:
            return None
        parities = {mask.bit_count() % 2 for mask in self._parts}
        return parities.pop() if len(parities) == 1 else None

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        parts = dict(self._parts)
        for mask, coeff in other._parts.items():
            total = parts.get(mask, 0) + coeff
            if total:
                parts[mask] = total
            else:
                del parts[mask]
        return GrassmannElement._of(self.generator_count, parts)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement._of(self.generator_count,
                                    {m: -c for m, c in self._parts.items()})

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def scaled(self, value) -> "GrassmannElement":
        value = Fraction(value)
        if not value:
            return GrassmannElement._of(self.generator_count, {})
        return GrassmannElement._of(self.generator_count,
                                    {m: c * value for m, c in self._parts.items()})

    def __mul__(self, other: "GrassmannElement") -> "GrassmannElement":
        parts: Dict[int, object] = {}
        right = other._parts.items()
        for ma, ca in self._parts.items():
            odd_above = _odd_above(ma)
            for mb, cb in right:
                if ma & mb:
                    continue
                key = ma | mb
                if (mb & odd_above).bit_count() & 1:
                    parts[key] = parts.get(key, 0) - ca * cb
                else:
                    parts[key] = parts.get(key, 0) + ca * cb
        return GrassmannElement._of(self.generator_count,
                                    {m: c for m, c in parts.items() if c})

    def __eq__(self, other) -> bool:
        return isinstance(other, GrassmannElement) and self._parts == other._parts

    def __hash__(self):
        return hash(frozenset(self._parts.items()))

    def __str__(self) -> str:
        if not self._parts:
            return "0"
        chunks = []
        for mask in sorted(self._parts, key=lambda m: (m.bit_count(), _indices(m))):
            coeff = self._parts[mask]
            body = " * ".join(f"th{i}" for i in _indices(mask)) or "1"
            if body == "1":
                chunks.append(str(coeff))
            elif coeff == 1:
                chunks.append(body)
            elif coeff == -1:
                chunks.append(f"-{body}")
            else:
                chunks.append(f"{coeff} * {body}")
        return " + ".join(chunks)

    __repr__ = __str__


def _indices(mask: int) -> List[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _odd_above(mask: int) -> int:
    """Bitmask of the generators that have an odd number of ``mask``'s generators above them.

    Merging a disjoint blade ``b`` into ``mask`` passes each generator of
    ``b`` over the generators of ``mask`` above it, so the merge sign is
    ``(-1) ** popcount(b & _odd_above(mask))``.
    """
    out = 0
    while mask:
        top = mask.bit_length() - 1
        out ^= (1 << top) - 1
        mask ^= 1 << top
    return out


class Assignment:
    """A parity-respecting map from graded variables to Grassmann elements."""

    def __init__(self, generator_count: int,
                 values: Mapping[GradedVariable, GrassmannElement]):
        self.generator_count = generator_count
        self.values = dict(values)
        for var, element in self.values.items():
            parity = element.parity()
            if not element.is_zero and parity != var.parity:
                raise ParityViolation(
                    f"variable {var.name} (parity {var.parity}) assigned an "
                    f"element of parity {parity}")

    def __getitem__(self, var: GradedVariable) -> GrassmannElement:
        try:
            return self.values[var]
        except KeyError:
            raise MissingBinding(f"no assignment for variable {var.name}") from None

    def describe(self) -> str:
        pieces = sorted(f"{v.name} -> {e}" for v, e in self.values.items())
        return "; ".join(pieces)


# A series over one common denominator: the term p/q * m of total degree d
# becomes (p * scale / q, top - d, m), where scale is the lcm of the
# coefficient denominators and top the highest total degree.
_IntegerTerms = List[Tuple[int, int, Monomial]]


def _integer_terms(*series: Series) -> Tuple[int, int, List[_IntegerTerms]]:
    """``scale``, ``top`` and each series' integer terms, over all the series at once."""
    items = [s.items() for s in series]
    scale, top = 1, 0
    for terms in items:
        for monomial, coeff in terms:
            scale = lcm(scale, coeff.denominator)
            top = max(top, sum(exp for _, exp in monomial))
    return scale, top, [[(coeff.numerator * (scale // coeff.denominator),
                          top - sum(exp for _, exp in monomial), monomial)
                         for monomial, coeff in terms] for terms in items]


class _IntegerAssignment:
    """An assignment times the lcm ``factor`` of its denominators: integer values."""

    __slots__ = ("assignment", "factor", "_values")

    def __init__(self, assignment: Assignment):
        factor = 1
        for element in assignment.values.values():
            for coeff in element._parts.values():
                factor = lcm(factor, coeff.denominator)
        self.assignment = assignment
        self.factor = factor
        self._values: Dict[GradedVariable, GrassmannElement] = {}

    def __getitem__(self, var: GradedVariable) -> GrassmannElement:
        value = self._values.get(var)
        if value is None:
            element = self.assignment[var]
            value = self._values[var] = GrassmannElement._of(
                element.generator_count,
                {m: c.numerator * (self.factor // c.denominator)
                 for m, c in element._parts.items()})
        return value

    def value(self, terms: _IntegerTerms) -> GrassmannElement:
        """``scale * factor ** top`` times the value of the series ``terms`` came from.

        A term ``(start, pad, m)`` contributes ``start * factor ** pad`` times
        the product of the scaled values of ``m``'s variables, each of which
        carries one more factor.
        """
        n = self.assignment.generator_count
        total: Dict[int, int] = {}
        for start, pad, monomial in terms:
            piece = GrassmannElement._of(n, {0: start * self.factor ** pad})
            for var, exp in monomial:
                value = self[var]
                for _ in range(exp):
                    piece = piece * value
                if piece.is_zero:
                    break
            for mask, c in piece._parts.items():
                total[mask] = total.get(mask, 0) + c
        return GrassmannElement._of(n, {m: c for m, c in total.items() if c})


def evaluate(series: Series, assignment: Assignment) -> GrassmannElement:
    """Substitute and multiply in the Grassmann algebra."""
    scale, top, (terms,) = _integer_terms(series)
    integral = _IntegerAssignment(assignment)
    whole = scale * integral.factor ** top
    return GrassmannElement._of(assignment.generator_count,
                                {m: Fraction(c, whole)
                                 for m, c in integral.value(terms)._parts.items()})


def random_assignment(variables: Iterable[GradedVariable], generator_count: int,
                      rng: random.Random) -> Assignment:
    """Draw a random parity-respecting assignment with small rational entries.

    Odd variables go to single generators scaled by rationals; when there are
    enough generators each odd variable gets its own, which is what makes
    sign errors visible.  Even variables get a scalar plus, sometimes, a
    two-generator term.
    """
    variables = sorted(set(variables), key=lambda v: v.key)
    odd_vars = [v for v in variables if v.parity]
    indices = list(range(generator_count))
    if len(odd_vars) <= generator_count:
        chosen = rng.sample(indices, len(odd_vars))
    else:
        chosen = [rng.choice(indices) for _ in odd_vars]
    values: Dict[GradedVariable, GrassmannElement] = {}
    for var, idx in zip(odd_vars, chosen):
        values[var] = GrassmannElement._of(generator_count,
                                           {1 << idx: _random_rational(rng)})
    for var in variables:
        if var.parity:
            continue
        parts = {0: _random_rational(rng)}
        if generator_count >= 2 and rng.random() < 0.5:
            i, j = rng.sample(indices, 2)
            parts[1 << i | 1 << j] = _random_rational(rng)
        values[var] = GrassmannElement._of(generator_count, parts)
    return Assignment(generator_count, values)


_NUMERATORS = tuple(n for n in range(-9, 10) if n != 0)


def _random_rational(rng: random.Random) -> Fraction:
    numerator = rng.choice(_NUMERATORS)
    denominator = rng.randint(1, 9)
    return Fraction(numerator, denominator)


def suggested_generator_count(*series: Series) -> int:
    variables = set()
    max_fiber = 0
    for s in series:
        variables |= s.variables()
        max_fiber = max(max_fiber, s.fiber_degree())
    odd = sum(1 for v in variables if v.parity)
    return max(odd + max_fiber, 2)


def identity_check(lhs: Series, rhs: Series, trials: int = 100,
                   generators: Optional[int] = None,
                   seed: int = 0) -> Report:
    """Compare two series at random assignments; disagreements become failures.

    Both sides are compared on integers, scaled by the same nonzero integer;
    only a disagreement is evaluated rationally, for the report.
    """
    if generators is None:
        generators = suggested_generator_count(lhs, rhs)
    rng = random.Random(seed)
    variables = lhs.variables() | rhs.variables()
    _, _, (left, right) = _integer_terms(lhs, rhs)
    report = Report(f"oracle identity check (seed {seed}, {trials} trials, "
                    f"{generators} generators)")
    failures = 0
    for trial in range(trials):
        assignment = random_assignment(variables, generators, rng)
        integral = _IntegerAssignment(assignment)
        if integral.value(left) != integral.value(right):
            failures += 1
            report.fail("oracle-trial", location=f"trial {trial}",
                        expected=str(evaluate(rhs, assignment)),
                        actual=str(evaluate(lhs, assignment)),
                        notes=assignment.describe())
            if failures >= 5:
                report.info("oracle-trial", notes="further disagreements suppressed")
                break
    if failures == 0:
        report.ok("oracle-agreement",
                  notes=f"no counterexample in {trials} trials")
    return report
