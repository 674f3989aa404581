"""Brute-force evaluation backend over a finite Grassmann algebra.

Graded expressions are evaluated by sending every variable to a concrete
multivector with rational coefficients: even variables to even multivectors,
odd variables to odd ones.  The arithmetic here is deliberately independent
of the symbolic kernel (bitmask-keyed multivectors, merge signs computed from
generator indices), so agreement between the two paths is evidence of
correctness rather than of shared code.

A series is compiled once per key order (``_KeyOrder.compile``): a term
``p/q m`` becomes an integer start, a pad and the positions of ``m``'s
factors among the check's variables in ``key`` order, each position repeated
by its exponent.  ``identity_check`` compiles each side once and assembles
``lhs - rhs`` from the two, never from the kernel's ``Series`` subtraction:
it brings both to one scale and one top, so terms at equal positions
subtract start from start, and a zero start drops.
``random_assignment`` draws every rational as an integer (numerator,
denominator) pair and keeps the pairs.  It reads its integers straight from
``rng.getrandbits`` words, in the order in which ``random.Random``'s
``choice``, ``randint`` and ``sample`` read them, so a seed gives the same
assignments, and leaves the generator in the same state, as those calls;
the tests compare ``getstate()`` after every draw.  A check builds its key
order once, a ``_KeyOrder`` that also holds the positions of its odd and of
its even variables, and passes it to every trial's draw, so no draw sorts or
scans its variables.  There is one evaluator, ``_integer_value``: it scales
the pairs by the lcm of their denominators and multiplies integer
``GrassmannElement``s read from a list by position, so it gets a value times
one known nonzero integer.  A trial runs it on the difference.  Every trial
draws its assignment, but one whose difference has no term, as for an
identity that the kernel already writes as two equal series, evaluates
nothing.  An assignment builds its ``Fraction`` values only when they are
read, which in a check happens only for a failure's report.  There
``evaluate`` runs the same evaluator on each side's compilation and divides
once, so a false check compiles twice, once per side.

``identity_check`` never proves an identity; it reports "no counterexample
in N trials" with the seed that produced the trials.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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
        """``parts`` maps collections of distinct generator indices, such as
        frozensets, to coefficients."""
        self.generator_count = generator_count
        clean: Dict[int, Fraction] = {}
        for subset, coeff in (parts or {}).items():
            mask = 0
            for index in subset:
                if not 0 <= index < generator_count:
                    raise ValueError(f"generator index {index} out of range")
                if mask >> index & 1:
                    raise ValueError(f"generator index {index} repeated in a blade")
                mask |= 1 << index
            coeff = Fraction(coeff)
            if coeff:
                clean[mask] = coeff
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

    It keeps its variables in key order, as a ``_KeyOrder``, and each value
    as a blade dict of integer pairs in that order.  One made by
    ``random_assignment`` builds its elements only when they are first read.
    """

    __slots__ = ("generator_count", "_variables", "_pairs", "_values")

    def __init__(self, generator_count: int,
                 values: Mapping[GradedVariable, GrassmannElement]):
        self.generator_count = generator_count
        self._values = dict(values)
        for var, element in self._values.items():
            if element.generator_count != generator_count:
                raise ValueError(
                    f"variable {var.name} assigned an element of "
                    f"{element.generator_count} generators, not {generator_count}")
            parity = element.parity()
            if not element.is_zero and parity != var.parity:
                raise ParityViolation(
                    f"variable {var.name} (parity {var.parity}) assigned an "
                    f"element of parity {parity}")
        self._variables = _in_key_order(self._values)
        self._pairs = [{m: (c.numerator, c.denominator)
                        for m, c in self._values[var]._parts.items()}
                       for var in self._variables]

    @classmethod
    def _drawn(cls, generator_count: int, variables: "_KeyOrder",
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

    def _integer_values(self) -> Tuple[int, List[GrassmannElement]]:
        """``factor``, the lcm of the denominators, and each variable's value
        times ``factor``, an integer element, in the order of ``_variables``."""
        factor = lcm(*[q for parts in self._pairs for _, q in parts.values()])
        return factor, [GrassmannElement._of(self.generator_count,
                                             {m: p * (factor // q) for m, (p, q) in parts.items()})
                        for parts in self._pairs]


_KEY_ORDER = attrgetter("key", "parity", "weight")


class _KeyOrder(tuple):
    """Distinct variables by ``key``, with the positions of the odd ones
    (``odd``) and of the even ones (``even``), and each series compiled
    against them so far (``compiled``)."""

    def __new__(cls, variables: Iterable[GradedVariable]) -> "_KeyOrder":
        order = super().__new__(cls, sorted(set(variables), key=_KEY_ORDER))
        order.odd = tuple([i for i, var in enumerate(order) if var.parity])
        order.even = tuple([i for i, var in enumerate(order) if not var.parity])
        order.compiled = {}
        return order

    def compile(self, series: Series) -> Tuple[int, int, "_IntegerTerms"]:
        """``series``' scale, top and integer terms, compiled on first use."""
        compiled = self.compiled.get(series)
        if compiled is None:
            compiled = self.compiled[series] = _integer_terms(self, series)
        return compiled


def _in_key_order(variables: Iterable[GradedVariable]) -> _KeyOrder:
    """Distinct variables by ``key``; parity and weight order those that share one.

    A ``_KeyOrder`` comes back as it is, so a check that builds one passes it
    to every draw and evaluation, and sorts its variables once.
    """
    if isinstance(variables, _KeyOrder):
        return variables
    return _KeyOrder(variables)


# A series compiled against a list of variables: the term p/q * m of total degree d becomes
# (p * scale / q, top - d, positions), where scale is the lcm of the
# coefficient denominators, top the highest total degree, and positions
# index m's variables in a list of variables, each repeated by its exponent.
_IntegerTerms = List[Tuple[int, int, Tuple[int, ...]]]


def _integer_terms(variables: Sequence[GradedVariable],
                   series: Series) -> Tuple[int, int, _IntegerTerms]:
    """``series``' scale, top and integer terms.

    A variable of ``series`` that is not in ``variables`` raises MissingBinding.
    """
    position = {var: i for i, var in enumerate(variables)}
    terms = series.items()
    scale, top = 1, 0
    for monomial, coeff in terms:
        scale = lcm(scale, coeff.denominator)
        top = max(top, _degree(monomial))
        for var, _ in monomial:
            if var not in position:
                raise MissingBinding(f"no assignment for variable {var.name}")
    return scale, top, [(coeff.numerator * (scale // coeff.denominator),
                         top - _degree(monomial),
                         tuple([position[var] for var, exp in monomial for _ in range(exp)]))
                        for monomial, coeff in terms]


def _degree(monomial: Monomial) -> int:
    return sum(exp for _, exp in monomial)


_UNIT = {0: 1}


def _integer_value(terms: _IntegerTerms, values: List[GrassmannElement],
                   factor: int) -> Dict[int, int]:
    """``scale * factor ** top`` times the value of the series ``terms`` came from.

    ``values`` are the variables' integer elements, their values times
    ``factor``.  A term ``(start, pad, positions)`` is the product of its
    factors' values, each carrying one ``factor``, times ``start * factor ** pad``.
    """
    total: Dict[int, int] = {}
    for start, pad, positions in terms:
        if positions:
            piece = values[positions[0]]
            for position in positions[1:]:
                piece = piece * values[position]
            parts = piece._parts
        else:
            parts = _UNIT
        scale = start * factor ** pad
        for mask, c in parts.items():
            total[mask] = total.get(mask, 0) + scale * c
    return {m: c for m, c in total.items() if c}


def evaluate(series: Series, assignment: Assignment) -> GrassmannElement:
    """Substitute and multiply in the Grassmann algebra.

    The series is compiled once per key order and evaluated on integers as
    in a trial (`_integer_value`); one division gives the exact value.
    """
    scale, top, terms = assignment._variables.compile(series)
    factor, values = assignment._integer_values()
    whole = scale * factor ** top
    return GrassmannElement._of(assignment.generator_count,
                                {m: Fraction(c, whole)
                                 for m, c in _integer_value(terms, values, factor).items()})


def random_assignment(variables: Iterable[GradedVariable], generator_count: int,
                      rng: random.Random) -> Assignment:
    """Draw a random parity-respecting assignment with small rational entries.

    Odd variables go to single generators scaled by rationals; when there are
    enough generators each odd variable gets its own, which is what makes
    sign errors visible.  Even variables get a scalar plus, sometimes, a
    two-generator term.

    The integers are read from ``rng.getrandbits`` words in the order in
    which ``random.Random``'s ``choice``, ``randint`` and ``sample`` read
    them: a word of ``n``'s bit length, redrawn while it is ``n`` or more,
    picks below ``n``.  So the assignment, and ``rng``'s state after it, are
    those of the ``random.Random`` calls, as the tests check with
    ``getstate()``.  Past ``_POOL_SAMPLE_MAX`` generators ``sample`` changes
    its method, so it is called there.

    ``variables`` is put in key order by ``_in_key_order``, which returns a
    ``_KeyOrder`` unchanged: a check builds its order once and passes it to
    every draw, which reads the odd and even positions off it.
    """
    order = _in_key_order(variables)
    odd = order.odd
    if generator_count < 0:
        raise ValueError("generator count must be nonnegative")
    if odd and not generator_count:
        raise ValueError(f"odd variable {order[odd[0]].name} needs at least one generator")
    getrandbits = rng.getrandbits
    if len(odd) > generator_count:
        chosen = [_below(getrandbits, generator_count) for _ in odd]
    else:
        chosen = _sample(rng, generator_count, len(odd))
    pairs: list = [None] * len(order)  # every position is set below
    for position, idx in zip(odd, chosen):
        pairs[position] = {1 << idx: _random_rational(getrandbits)}
    pairable, uniform = generator_count >= 2, rng.random
    for position in order.even:
        parts = pairs[position] = {0: _random_rational(getrandbits)}
        if pairable and uniform() < 0.5:
            i, j = _sample(rng, generator_count, 2)
            parts[1 << i | 1 << j] = _random_rational(getrandbits)
    return Assignment._drawn(generator_count, order, pairs)


# random.Random.sample swaps picks out of a pool of the population when it has
# at most this many members; past it, it may keep a set of picks instead
_POOL_SAMPLE_MAX = 21


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """``rng.choice(range(n))``, for ``n >= 1``."""
    width = n.bit_length()
    pick = getrandbits(width)
    while pick >= n:
        pick = getrandbits(width)
    return pick


def _sample(rng: random.Random, n: int, k: int) -> List[int]:
    """``rng.sample(range(n), k)``.  Up to ``_POOL_SAMPLE_MAX`` each pick
    takes a pool slot, and the pool's last unpicked member fills it."""
    if n > _POOL_SAMPLE_MAX:
        return rng.sample(range(n), k)
    getrandbits = rng.getrandbits
    pool = list(range(n))
    picks = []
    for left in range(n, n - k, -1):
        slot = _below(getrandbits, left)
        picks.append(pool[slot])
        pool[slot] = pool[left - 1]
    return picks


_NUMERATORS = tuple(n for n in range(-9, 10) if n != 0)


def _random_rational(getrandbits: Callable[[int], int]) -> _Pair:
    """``(rng.choice(_NUMERATORS), rng.randint(1, 9))``: a 5-bit word below 18
    and a 4-bit word below 9."""
    index = getrandbits(5)
    while index >= 18:
        index = getrandbits(5)
    denominator = getrandbits(4)
    while denominator >= 9:
        denominator = getrandbits(4)
    return _NUMERATORS[index], denominator + 1


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

    Each side is compiled once, and ``lhs - rhs`` is assembled from the two;
    a trial evaluates it on integers, and only a nonzero value is evaluated
    rationally, side by side, from the same compilations, for the report.
    A difference with no term is zero at every assignment, so its trials only draw.
    """
    if trials < 1:
        raise ValueError("an identity check needs at least 1 trial")
    if generators is None:
        generators = suggested_generator_count(lhs, rhs)
    rng = random.Random(seed)
    variables = _in_key_order(lhs.variables() | rhs.variables())
    (scale_l, top_l, left), (scale_r, top_r, right) = map(variables.compile, (lhs, rhs))
    # each side's starts are brought to the common scale, and its pads to the common top
    scale, top = lcm(scale_l, scale_r), max(top_l, top_r)
    starts: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for multiplier, shift, terms in ((scale // scale_l, top - top_l, left),
                                     (-(scale // scale_r), top - top_r, right)):
        for start, pad, positions in terms:
            key = pad + shift, positions
            starts[key] = starts.get(key, 0) + multiplier * start
    difference = [(start, pad, positions) for (pad, positions), start in starts.items() if start]
    report = Report(f"oracle identity check (seed {seed}, {trials} trials, "
                    f"{generators} generators)")
    failures = 0
    for trial in range(trials):
        # an empty difference still draws: trial k's assignment is the seed's k-th
        assignment = random_assignment(variables, generators, rng)
        if not difference:
            continue
        factor, values = assignment._integer_values()
        if _integer_value(difference, values, factor):
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
