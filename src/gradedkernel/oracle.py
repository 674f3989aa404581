"""Brute-force evaluation backend over a finite Grassmann algebra.

Graded expressions are evaluated by sending every variable to a concrete
multivector with rational coefficients: even variables to even multivectors,
odd variables to odd ones.  The arithmetic here is deliberately independent
of the symbolic kernel (bitmask-keyed multivectors, merge signs computed from
generator indices), so agreement between the two paths is evidence of
correctness rather than of shared code.

``identity_check`` compiles each side of an identity once.  A term ``p/q m``
becomes an integer start, a pad and the positions of ``m``'s factors among
the check's variables in ``key`` order, each position repeated by its
exponent.  ``random_assignment`` draws every rational as an integer
(numerator, denominator) pair and keeps the pairs.  A trial scales them by
the lcm of their denominators and evaluates both sides on integer blade
dicts, read from a list by position, so each side is its value times one
known nonzero integer, the same for both.  An assignment builds its
``Fraction`` values only when they are read, which in a check happens only
for a failure's report.  ``evaluate`` compiles its series in the same way
but multiplies ``GrassmannElement``s of integers, and divides once at the
end.  The trials and ``GrassmannElement.__mul__`` share one product of blade
dicts.

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
_Blades = Dict[int, object]


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
    def _of(cls, generator_count: int, parts: _Blades) -> "GrassmannElement":
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
        return GrassmannElement._of(self.generator_count, _product(self._parts, other._parts))

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


def _product(left: _Blades, right: _Blades) -> _Blades:
    """The product of two multivectors, without zero coefficients."""
    parts: _Blades = {}
    right = right.items()
    for ma, ca in left.items():
        odd_above = _odd_above(ma)
        for mb, cb in right:
            if ma & mb:
                continue
            key = ma | mb
            if (mb & odd_above).bit_count() & 1:
                parts[key] = parts.get(key, 0) - ca * cb
            else:
                parts[key] = parts.get(key, 0) + ca * cb
    return {m: c for m, c in parts.items() if c}


# A rational as an integer pair (numerator, denominator), not necessarily reduced.
_Pair = Tuple[int, int]


class Assignment:
    """A parity-respecting map from graded variables to Grassmann elements.

    It keeps its variables in a list and each value as a blade dict of
    integer pairs.  One made by ``random_assignment`` builds its elements
    only when they are first read.
    """

    __slots__ = ("generator_count", "_variables", "_pairs", "_values")

    def __init__(self, generator_count: int,
                 values: Mapping[GradedVariable, GrassmannElement]):
        self.generator_count = generator_count
        self._values = dict(values)
        for var, element in self._values.items():
            parity = element.parity()
            if not element.is_zero and parity != var.parity:
                raise ParityViolation(
                    f"variable {var.name} (parity {var.parity}) assigned an "
                    f"element of parity {parity}")
        self._variables = list(self._values)
        self._pairs = [{m: (c.numerator, c.denominator) for m, c in element._parts.items()}
                       for element in self._values.values()]

    @classmethod
    def _drawn(cls, generator_count: int, variables: List[GradedVariable],
               pairs: List[Dict[int, _Pair]]) -> "Assignment":
        """Trusted constructor: ``pairs[i]`` is the parity-respecting value of ``variables[i]``."""
        assignment = object.__new__(cls)
        assignment.generator_count = generator_count
        assignment._variables = variables
        assignment._pairs = pairs
        assignment._values = None
        return assignment

    @property
    def values(self) -> Dict[GradedVariable, GrassmannElement]:
        if self._values is None:
            n = self.generator_count
            self._values = {var: GrassmannElement._of(n, {m: Fraction(p, q)
                                                          for m, (p, q) in parts.items()})
                            for var, parts in zip(self._variables, self._pairs)}
        return self._values

    def __getitem__(self, var: GradedVariable) -> GrassmannElement:
        try:
            return self.values[var]
        except KeyError:
            raise MissingBinding(f"no assignment for variable {var.name}") from None

    def describe(self) -> str:
        pieces = sorted(f"{v.name} -> {e}" for v, e in self.values.items())
        return "; ".join(pieces)

    def _integer_values(self) -> Tuple[int, List[Dict[int, int]]]:
        """``factor``, the lcm of the denominators, and each variable's value
        times ``factor``, in the order of ``_variables``."""
        factor = lcm(*[q for parts in self._pairs for _, q in parts.values()])
        return factor, [{m: p * (factor // q) for m, (p, q) in parts.items()}
                        for parts in self._pairs]


def _in_key_order(variables: Iterable[GradedVariable]) -> List[GradedVariable]:
    """Distinct variables by ``key``; parity and weight order those that share one."""
    return sorted(set(variables), key=lambda v: (v.key, v.parity, v.weight))


# A series compiled against a list of variables: the term p/q * m of total degree d becomes
# (p * scale / q, top - d, positions), where scale is the lcm of the
# coefficient denominators, top the highest total degree, and positions
# index m's variables in a list of variables, each repeated by its exponent.
_IntegerTerms = List[Tuple[int, int, Tuple[int, ...]]]


def _integer_terms(variables: List[GradedVariable],
                   *series: Series) -> Tuple[int, int, List[_IntegerTerms]]:
    """``scale``, ``top`` and each series' integer terms, over all the series at once.

    A variable of a series that is not in ``variables`` raises MissingBinding.
    """
    position = {var: i for i, var in enumerate(variables)}
    items = [s.items() for s in series]
    scale, top = 1, 0
    for terms in items:
        for monomial, coeff in terms:
            scale = lcm(scale, coeff.denominator)
            top = max(top, _degree(monomial))
            for var, _ in monomial:
                if var not in position:
                    raise MissingBinding(f"no assignment for variable {var.name}")
    return scale, top, [[(coeff.numerator * (scale // coeff.denominator),
                          top - _degree(monomial),
                          tuple([position[var] for var, exp in monomial for _ in range(exp)]))
                         for monomial, coeff in terms] for terms in items]


def _degree(monomial: Monomial) -> int:
    return sum(exp for _, exp in monomial)


_UNIT = {0: 1}


def _integer_value(terms: _IntegerTerms, values: List[Dict[int, int]],
                   factor: int) -> Dict[int, int]:
    """``scale * factor ** top`` times the value of the series ``terms`` came from.

    ``values`` are the variables' values times ``factor``.  A term
    ``(start, pad, positions)`` is the product of its factors' values, each
    of which carries one ``factor``, times ``start * factor ** pad``.
    """
    total: Dict[int, int] = {}
    for start, pad, positions in terms:
        if positions:
            piece = values[positions[0]]
            for position in positions[1:]:
                piece = _product(piece, values[position])
                if not piece:
                    break
        else:
            piece = _UNIT
        scale = start * factor ** pad
        for mask, c in piece.items():
            total[mask] = total.get(mask, 0) + scale * c
    return {m: c for m, c in total.items() if c}


def evaluate(series: Series, assignment: Assignment) -> GrassmannElement:
    """Substitute and multiply in the Grassmann algebra.

    The series is compiled against the assignment's variables and its terms
    are multiplied out as ``GrassmannElement``s of integers, scaled as in a
    trial; one division at the end gives the exact value.
    """
    scale, top, (terms,) = _integer_terms(assignment._variables, series)
    factor, values = assignment._integer_values()
    n = assignment.generator_count
    elements = [GrassmannElement._of(n, value) for value in values]
    total: Dict[int, int] = {}
    for start, pad, positions in terms:
        piece = elements[positions[0]] if positions else GrassmannElement._of(n, _UNIT)
        for position in positions[1:]:
            piece = piece * elements[position]
        scale_term = start * factor ** pad
        for mask, c in piece._parts.items():
            total[mask] = total.get(mask, 0) + scale_term * c
    whole = scale * factor ** top
    return GrassmannElement._of(n, {m: Fraction(c, whole) for m, c in total.items() if c})


def random_assignment(variables: Iterable[GradedVariable], generator_count: int,
                      rng: random.Random) -> Assignment:
    """Draw a random parity-respecting assignment with small rational entries.

    Odd variables go to single generators scaled by rationals; when there are
    enough generators each odd variable gets its own, which is what makes
    sign errors visible.  Even variables get a scalar plus, sometimes, a
    two-generator term.
    """
    variables = _in_key_order(variables)
    odd = [i for i, var in enumerate(variables) if var.parity]
    if generator_count < 0:
        raise ValueError("generator count must be nonnegative")
    if odd and not generator_count:
        raise ValueError(f"odd variable {variables[odd[0]].name} needs at least one generator")
    indices = list(range(generator_count))
    if len(odd) <= generator_count:
        chosen = rng.sample(indices, len(odd))
    else:
        chosen = [rng.choice(indices) for _ in odd]
    pairs: List[Dict[int, _Pair]] = [{} for _ in variables]
    for position, idx in zip(odd, chosen):
        pairs[position][1 << idx] = _random_rational(rng)
    for position, var in enumerate(variables):
        if var.parity:
            continue
        parts = pairs[position]
        parts[0] = _random_rational(rng)
        if generator_count >= 2 and rng.random() < 0.5:
            i, j = rng.sample(indices, 2)
            parts[1 << i | 1 << j] = _random_rational(rng)
    return Assignment._drawn(generator_count, variables, pairs)


_NUMERATORS = tuple(n for n in range(-9, 10) if n != 0)


def _random_rational(rng: random.Random) -> _Pair:
    numerator = rng.choice(_NUMERATORS)
    return numerator, rng.randint(1, 9)


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

    Both sides are compiled once and compared on integers, scaled by the same
    nonzero integer; only a disagreement is evaluated rationally, for the
    report.
    """
    if generators is None:
        generators = suggested_generator_count(lhs, rhs)
    rng = random.Random(seed)
    variables = _in_key_order(lhs.variables() | rhs.variables())
    _, _, (left, right) = _integer_terms(variables, lhs, rhs)
    report = Report(f"oracle identity check (seed {seed}, {trials} trials, "
                    f"{generators} generators)")
    failures = 0
    for trial in range(trials):
        assignment = random_assignment(variables, generators, rng)
        factor, values = assignment._integer_values()
        if _integer_value(left, values, factor) != _integer_value(right, values, factor):
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
