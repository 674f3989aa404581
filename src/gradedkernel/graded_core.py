"""Exact arithmetic over Z2 x Z-graded supercommuting variables.

Conventions, fixed once and used everywhere:

* parity (0 = even, 1 = odd) drives every sign; weight is a bookkeeping
  integer and never produces a sign;
* all derivatives are left derivatives and all coordinates are left
  coordinates;
* monomial tuples list their variables in the canonical order given by the
  key ``(fiber_degree, declaration index, name)``, so base variables always
  precede momenta and antimomenta;
* coefficients are exact rationals; there is no floating point anywhere.

Monomials are private to this module.  Other modules reach them only through
``Series.items``, ``Series(...)``, ``Series.coefficient`` and formatting, and
slice by fiber degree with ``Series.fiber_slice``.  At that boundary a
monomial is a tuple of ``(variable, exponent)`` pairs in canonical order; a
tuple out of that order, with a repeated variable, or with an exponent below
one, above one for an odd variable or above ``EXPONENT_BOUND`` is a
``ValueError``, never silently re-signed.

Inside a ``Series`` a monomial is one ``int`` key:

* the lowest ``_WIDTH`` bits hold the total fiber degree;
* the first time a series uses a variable, ``_REGISTRY`` gives it a field
  for its exponent above every field given before, and the field is its own
  for the life of the process.  Variables are compared by value, so parsing
  the same text again uses the same fields.  An even variable's field is
  ``_WIDTH`` bits wide, an odd variable's is one bit, since an odd variable
  squares to zero;
* the top bit of the fiber field and of every even field is a guard bit,
  zero in every stored key.

A key's numerator is the coefficient of its factors multiplied in field
order, which is registration order, not canonical order.  The product of two
monomials is then the sum of their keys.  It is zero when the keys share an
odd bit.  An exponent or fiber degree above ``EXPONENT_BOUND`` (at least
10^6) sets a guard bit, and the product raises ``ExponentOverflow``; it never
carries into the next field.  The Koszul sign of ``a * b`` is the parity of
``popcount(b & _sign_mask(a))``: the pairs of an odd factor of ``a`` in a
field above an odd factor of ``b``.  Every odd field below one of ``a``'s
was registered before it, so the mask depends on ``a``'s key alone.
``Series.__mul__`` holds this one sign rule of products, and the parser
builds each term as a product of its factors.  Canonical order is used only
where monomial tuples cross the boundary, in ``_encode`` and ``_decoded``,
with the sign of one inversion count over a term's odd factors.

A series is immutable, so it builds the rows a product walks, ``(fiber
degree, key, numerator, odd part, sign mask)`` in ascending fiber degree,
once, on its first product, and computes its bigrading once.  Every product
runs one loop, ``_times_into``, which adds into the caller's dict.

Substitution splits each key with one mask into a bound part, the fields of
the bound variables plus their share of the fiber degree, and an unbound
part, and the key is the product of the two under the same rule.  The
unbound parts of all terms with one bound part ride along as a single
coefficient series, so a substitution costs one product chain per distinct
bound monomial, not one product per factor of every term, and the chain's
last product adds into the result.  A binding whose value is a constant
joins the chain as a rational scale, with no product.  ``substitute_all``
substitutes several series in one call, and multiplies a bound monomial
that two of them share with a constant coefficient once.

Coefficients are integer numerators over one positive denominator ``_den``
per series, reduced after every operation so that ``gcd(_den, every
numerator) == 1``.  That form is canonical, so equal series have equal term
dicts and equal denominators.  The public constructor also drops zero
coefficients.  ``Series._trusted``
skips all checks; it is only called on dicts built inside this module that
already satisfy them, and the dict is never mutated afterwards, so series
may share it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import ExponentOverflow, GradingMismatch, InhomogeneousSeries, ZeroSeries

EVEN = 0
ODD = 1

Rational = Union[int, Fraction]


def _frac(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class Bigrading:
    """A (parity, weight) pair."""

    parity: int
    weight: int

    def __str__(self) -> str:
        return f"(parity {self.parity}, weight {self.weight})"


@dataclass(frozen=True, eq=False)
class GradedVariable:
    """A named symbol with parity, weight and an auxiliary fiber degree.

    ``fiber_degree`` is 0 for base coordinates and 1 for momenta and
    antimomenta; together with the declaration ``index`` it fixes the
    canonical monomial order.  ``key`` and the hash are computed once;
    equality compares all five fields, so separately built variables with
    the same fields are the same variable.
    """

    name: str
    parity: int
    weight: int = 0
    fiber_degree: int = 0
    index: int = 0

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity}")
        if self.fiber_degree not in (0, 1):
            raise ValueError(f"fiber_degree must be 0 or 1, got {self.fiber_degree}")
        identity = (self.name, self.parity, self.weight, self.fiber_degree, self.index)
        object.__setattr__(self, "key", (self.fiber_degree, self.index, self.name))
        object.__setattr__(self, "_identity", identity)
        object.__setattr__(self, "_hash", hash(identity))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._identity == other._identity

    def __hash__(self) -> int:
        return self._hash

    @property
    def bigrading(self) -> Bigrading:
        return Bigrading(self.parity, self.weight)

    def __repr__(self) -> str:
        return self.name


# A monomial is a tuple of (variable, exponent) pairs in canonical order.
Monomial = Tuple[Tuple[GradedVariable, int], ...]


def monomial_bigrading(monomial: Monomial) -> Bigrading:
    parity = 0
    weight = 0
    for var, exp in monomial:
        parity += var.parity * exp
        weight += var.weight * exp
    return Bigrading(parity % 2, weight)


# -- packed monomial keys -------------------------------------------------------

_WIDTH = 21
EXPONENT_BOUND = (1 << (_WIDTH - 1)) - 1  # 1,048,575: the guard bit stays clear
_FIELD = (1 << _WIDTH) - 1
_GUARD = 1 << (_WIDTH - 1)
_FIBER = _FIELD  # the fiber degree field is the lowest one


class _Slot:
    """A variable's field in every key: ``exponent << shift``."""

    __slots__ = ("var", "shift", "mask", "rank")

    def __init__(self, var: GradedVariable, shift: int, mask: int):
        self.var = var
        self.shift = shift
        self.mask = mask
        # canonical order; the identity breaks ties between distinct
        # variables that share a key
        self.rank = (var.key, var._identity)


class _Registry:
    """The key field of every variable a series has used, assigned on first
    use above every field assigned before."""

    def __init__(self):
        self.slots: Dict[GradedVariable, _Slot] = {}  # in field order
        self.odd_bits = 0
        self.guards = _GUARD
        self.width = _WIDTH

    def slot(self, var: GradedVariable) -> _Slot:
        slot = self.slots.get(var)
        if slot is not None:
            return slot
        if var.parity:
            slot = _Slot(var, self.width, 1)
            self.odd_bits |= 1 << self.width
            self.width += 1
        else:
            slot = _Slot(var, self.width, _FIELD)
            self.guards |= _GUARD << self.width
            self.width += _WIDTH
        self.slots[var] = slot
        return slot


_REGISTRY = _Registry()


def _encode(monomial: Monomial, register: bool = True) -> Optional[Tuple[int, int]]:
    """The key of a canonical monomial tuple, and the parity of the
    permutation that takes its odd factors to field order: ``c * monomial``
    is the numerator ``(-1) ** parity * c`` under the key.

    Without ``register``, a variable that has no field yet gives None: no
    stored key can contain it.
    """
    key = fiber = flips = seen = 0
    rank = None
    for var, exp in monomial:
        slot = _REGISTRY.slots.get(var)
        if slot is None:
            if not register:
                return None
            slot = _REGISTRY.slot(var)
        if rank is not None and slot.rank <= rank:
            raise ValueError(f"monomial {monomial!r} is not in canonical order")
        rank = slot.rank
        if not 0 < exp <= (1 if var.parity else EXPONENT_BOUND):
            raise ValueError(f"monomial {monomial!r} has exponent {exp} on {var.name}; "
                             f"exponents run from 1 to {1 if var.parity else EXPONENT_BOUND}")
        if var.parity:
            # the odd factors before var whose fields are above var's
            flips += (seen >> slot.shift).bit_count()
            seen |= 1 << slot.shift
        key += exp << slot.shift
        fiber += exp * var.fiber_degree
    if fiber > EXPONENT_BOUND:
        raise ValueError(f"monomial {monomial!r} has fiber degree above {EXPONENT_BOUND}")
    return key + fiber, flips & 1


def _sign_mask(key: int) -> int:
    """The odd bits below an odd number of ``key``'s odd bits, so that
    ``popcount(b & _sign_mask(a))`` is odd when ``a * b`` is ``-1`` times its
    key in field order."""
    odd = _REGISTRY.odd_bits
    rest = key & odd
    mask = 0
    while rest:
        low = rest & -rest
        mask ^= low - 1
        rest ^= low
    return mask & odd


def _overflow(key: int) -> ExponentOverflow:
    for slot in _REGISTRY.slots.values():
        if (key >> slot.shift) & slot.mask > EXPONENT_BOUND:
            return ExponentOverflow(f"a product raises {slot.var.name} to a power "
                                    f"above {EXPONENT_BOUND}")
    return ExponentOverflow(f"a product has fiber degree above {EXPONENT_BOUND}")


class Series:
    """A finite sum of exact-rational terms over canonical monomials.

    Every series is exact: it has the terms it lists and no others.
    Instances are immutable.
    """

    __slots__ = ("_terms", "_den", "_hash", "_rows", "_grade")

    def __init__(self, terms: Optional[Mapping[Monomial, Rational]] = None):
        kept = []
        for monomial, coeff in (terms or {}).items():
            coeff = _frac(coeff)
            if coeff == 0:
                continue
            key, flip = _encode(monomial)
            kept.append((key, -coeff if flip else coeff))
        # each coefficient is in lowest terms, so over the lcm of the
        # denominators the numerators have no common factor with it
        den = lcm(*[coeff.denominator for _, coeff in kept])
        self._terms = {key: coeff.numerator * (den // coeff.denominator)
                       for key, coeff in kept}
        self._den = den
        self._hash = self._rows = self._grade = None

    @classmethod
    def _trusted(cls, terms: dict, den: int) -> "Series":
        """Wrap a dict that already meets the invariants in the module docstring."""
        series = cls.__new__(cls)
        series._terms = terms
        series._den = den
        series._hash = series._rows = series._grade = None
        return series

    @classmethod
    def _reduced(cls, terms: dict, den: int) -> "Series":
        """``_trusted`` after dividing out the common factor of ``den`` and ``terms``."""
        if den != 1:
            common = gcd(den, *terms.values())
            if common != 1:
                den //= common
                terms = {k: n // common for k, n in terms.items()}
        return cls._trusted(terms, den)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls) -> "Series":
        return cls._trusted({}, 1)

    @classmethod
    def constant(cls, value: Rational) -> "Series":
        value = _frac(value)
        return cls._trusted({0: value.numerator} if value else {}, value.denominator)

    @classmethod
    def one(cls) -> "Series":
        return cls.constant(1)

    @classmethod
    def variable(cls, var: GradedVariable, exponent: int = 1) -> "Series":
        """``var^exponent``: one for exponent 0, zero for an odd variable past 1."""
        if not 0 <= exponent <= EXPONENT_BOUND:
            raise ValueError(f"variable powers take an exponent from 0 to {EXPONENT_BOUND}")
        if exponent == 0:
            return cls.one()
        if var.parity and exponent > 1:
            return cls.zero()
        return cls._trusted({_encode(((var, exponent),))[0]: 1}, 1)

    @classmethod
    def sum(cls, terms: Sequence["Series"]) -> "Series":
        """The sum of ``terms``, accumulated in one dict over a common denominator."""
        den = lcm(*[t._den for t in terms])
        out: dict = {}
        for term in terms:
            part, scale = term._terms, den // term._den
            if out:
                _add_into(out, part, scale)
            else:
                out = dict(part) if scale == 1 else {k: n * scale for k, n in part.items()}
        return cls._reduced(out, den)

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Terms in canonical order (deterministic)."""
        den = self._den
        return [(monomial, Fraction(n, den)) for monomial, n in self._decoded()]

    def coefficient(self, monomial: Monomial) -> Fraction:
        key, flip = _encode(monomial, register=False) or (None, 0)
        n = self._terms.get(key, 0)
        return Fraction(-n if flip else n, self._den)

    def _slots(self) -> List[_Slot]:
        """The slots of the variables that occur in some term, in canonical
        order.  Fields are assigned upward, so the scan stops at the top bit."""
        union = 0
        for key in self._terms:
            union |= key
        top = union.bit_length()
        found = []
        for slot in _REGISTRY.slots.values():
            if slot.shift >= top:
                break
            if (union >> slot.shift) & slot.mask:
                found.append(slot)
        found.sort(key=attrgetter("rank"))
        return found

    def _decoded(self) -> List[Tuple[Monomial, int]]:
        """``(monomial tuple, numerator)`` for every term, in canonical order.

        Rows sort by ``(position, exponent)`` over the series' variables in
        canonical order, which sorts as the monomials' ``(var.key, exp)``
        pairs do.  A numerator changes sign with the parity of the
        permutation that takes its odd factors from field to canonical order.
        """
        fields = [(position, slot.shift, slot.mask, slot.var)
                  for position, slot in enumerate(self._slots())]
        rows = []
        for key, n in self._terms.items():
            order = []
            monomial = []
            flips = seen = 0
            for position, shift, mask, var in fields:
                exp = (key >> shift) & mask
                if exp:
                    order += (position, exp)
                    monomial.append((var, exp))
                    if var.parity:
                        flips += (seen >> shift).bit_count()
                        seen |= 1 << shift
            rows.append((order, tuple(monomial), -n if flips & 1 else n))
        rows.sort(key=itemgetter(0))
        return [(monomial, n) for _, monomial, n in rows]

    def variables(self) -> set:
        return {slot.var for slot in self._slots()}

    def uses_only(self, variables: Iterable[GradedVariable]) -> bool:
        """Whether every variable that occurs in some term is one of ``variables``.

        Read from key bits: the union of the keys must lie in the fiber
        degree field and the fields of ``variables``.  A variable that no
        series has used has no field, and occurs in no key.
        """
        allowed = _FIBER
        slots = _REGISTRY.slots
        for var in variables:
            slot = slots.get(var)
            if slot is not None:
                allowed |= slot.mask << slot.shift
        union = 0
        for key in self._terms:
            union |= key
        return not union & ~allowed

    def fiber_degree(self) -> int:
        return max((k & _FIBER for k in self._terms), default=0)

    def fiber_degrees(self) -> FrozenSet[int]:
        """The fiber degrees of the terms."""
        return frozenset([k & _FIBER for k in self._terms])

    def bigrading(self) -> Bigrading:
        """The terms' common bigrading, computed once: a stored key's odd bits
        and fields never change."""
        grade = self._grade
        if grade is None:
            if not self._terms:
                raise ZeroSeries("the zero series has no bigrading")
            odd = _REGISTRY.odd_bits
            weighted = [(slot.shift, slot.mask, slot.var.weight)
                        for slot in self._slots() if slot.var.weight]
            grades = {((k & odd).bit_count() & 1,
                       sum(w * ((k >> shift) & mask) for shift, mask, w in weighted)
                       if weighted else 0)
                      for k in self._terms}
            if len(grades) > 1:
                listed = ", ".join(sorted(str(Bigrading(*g)) for g in grades))
                grade = f"series mixes bigradings {listed}"
            else:
                grade = Bigrading(*grades.pop())
            self._grade = grade
        if isinstance(grade, str):
            raise InhomogeneousSeries(grade)
        return grade

    def is_homogeneous(self, parity: Optional[int] = None,
                       weight: Optional[int] = None) -> bool:
        if not self._terms:
            return True
        try:
            grade = self.bigrading()
        except InhomogeneousSeries:
            return False
        if parity is not None and grade.parity != parity % 2:
            return False
        if weight is not None and grade.weight != weight:
            return False
        return True

    # -- arithmetic --------------------------------------------------------

    def _product_rows(self) -> list:
        """``(fiber degree, key, numerator, odd part, sign mask)`` for every
        term, in ascending fiber degree, built on first use."""
        if self._rows is None:
            odd = _REGISTRY.odd_bits
            rows = [(k & _FIBER, k, n, (odd_part := k & odd), _sign_mask(k) if odd_part else 0)
                    for k, n in self._terms.items()]
            rows.sort(key=itemgetter(0))
            self._rows = rows
        return self._rows

    def __add__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Series.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series._trusted({k: -n for k, n in self._terms.items()}, self._den)

    def __sub__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return Series.zero()
            if c == 1:
                return self
            return Series._reduced({k: n * c.numerator for k, n in self._terms.items()},
                                   self._den * c.denominator)
        if not isinstance(other, Series):
            return NotImplemented
        return self._times(other, None)

    def _times(self, other: "Series", order: Optional[int]) -> "Series":
        """``(self * other).truncate(order)``, or the whole product if ``order``
        is None, building no term past ``order``."""
        out: dict = {}
        self._times_into(out, other, order, 1)
        return Series._reduced(out, self._den * other._den)

    def _times_into(self, out: dict, other: "Series", order: Optional[int],
                    scale: int) -> None:
        """Add ``scale`` times the numerators of ``self * other``, over
        ``self._den * other._den`` and cut at ``order``, into ``out``."""
        # a product's fiber degree is the sum of its factors' degrees, so with
        # both sides in ascending degree each row stops at the first pair past
        # the order, before that pair is merged; with no order, no two stored
        # degrees reach the budget
        budget = 2 * EXPONENT_BOUND if order is None else order
        right = other._product_rows()
        get = out.get
        for degree_a, ka, na, odd_a, flip in self._product_rows():
            room = budget - degree_a
            if room < 0:
                break
            na *= scale
            for degree_b, kb, nb, odd_b, _ in right:
                if degree_b > room:
                    break
                if odd_a & odd_b:
                    continue
                value = na * nb
                if flip and (kb & flip).bit_count() & 1:
                    value = -value
                key = ka + kb
                previous = get(key)
                if previous is None:
                    out[key] = value
                else:
                    value += previous
                    if value:
                        out[key] = value
                    else:
                        del out[key]
        # an exponent past the bound sets its field's guard bit without
        # carrying, so one check of the surviving keys finds it; a key that
        # an earlier call left in ``out`` has none
        guards = _REGISTRY.guards
        for key in out:
            if key & guards:
                raise _overflow(key)

    def __rmul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __truediv__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _frac(other))
        return NotImplemented

    def __pow__(self, exponent: int) -> "Series":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers take a nonnegative integer exponent")
        result = Series.one()
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other)
        if not isinstance(other, Series):
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        # computed once: bracket families key their caches on series
        if self._hash is None:
            self._hash = hash((frozenset(self._terms.items()), self._den))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def left_derivative(self, var: GradedVariable) -> "Series":
        slot = _REGISTRY.slots.get(var)
        if slot is None:
            return Series.zero()
        shift, mask = slot.shift, slot.mask
        step = (1 << shift) + var.fiber_degree
        # the odd factors in fields below var's, each passed with a sign
        before = _REGISTRY.odd_bits & ((1 << shift) - 1) if var.parity else 0
        out: dict = {}
        for key, n in self._terms.items():
            exp = (key >> shift) & mask
            if exp:
                if before and (key & before).bit_count() & 1:
                    n = -n
                out[key - step] = n * exp
        return Series._reduced(out, self._den)

    def substitute(self, bindings: Mapping[GradedVariable, "Series"],
                   order: Optional[int] = None) -> "Series":
        """Every bound variable replaced by its value, all at once, and cut at
        ``order`` if one is given: ``substitute_all`` of one series."""
        return Series.substitute_all([self], bindings, order)[0]

    @staticmethod
    def substitute_all(series: Sequence["Series"],
                       bindings: Mapping[GradedVariable, "Series"],
                       order: Optional[int] = None) -> List["Series"]:
        """``s.substitute(bindings, order)`` for each ``s`` of ``series``, with
        the bindings checked and cut once.

        The terms are grouped by bound part ``b``: with ``key = sign * u * b``,
        the coefficient series ``C_b`` collects ``sign * n * u``, and the result
        is the sum of ``C_b`` times the values' powers over ``b``'s factors in
        field order, the last product of that chain added into the result.
        Fiber degrees are nonnegative and add in a product, so no term past
        ``order`` contributes to one below it: the values are cut at
        ``order``, an unbound part past it is skipped, and every product
        builds nothing past it.  ``C_b`` goes first in the chain: it carries
        the unbound part's fiber degree, so every later product already
        prunes what that degree pushes past the order.  A constant ``C_b``,
        and the power of every binding that is a constant, are folded in as a
        rational scale, with no product, and a ``b`` whose ``C_b`` is constant
        in two or more groups is multiplied out once.  A variable that no
        series has used occurs in no key, so its binding is never read.
        """
        normalized = {}
        for var, value in bindings.items():
            value = _coerce_strict(value)
            if not value.is_zero and not value.is_homogeneous(var.parity, var.weight):
                raise GradingMismatch(
                    f"binding for {var.name} must be zero or homogeneous of "
                    f"{var.bigrading}")
            normalized[var] = value
        if order is not None:
            if order < 0:
                raise ValueError("substitution order must be nonnegative")
            normalized = {var: value.truncate(order) for var, value in normalized.items()}
        # bound variable -> (numerator, denominator) of a constant binding
        constants = {var: (value._terms.get(0, 0), value._den)
                     for var, value in normalized.items() if value._terms.keys() <= {0}}
        bound_slots = sorted((slot.shift, slot.mask, slot.var)
                             for slot in map(_REGISTRY.slots.get, normalized) if slot)
        bound = sum(mask << shift for shift, mask, _ in bound_slots)  # disjoint fields
        odd = _REGISTRY.odd_bits
        # per series: bound part -> (its factors in field order, their share
        # of the fiber degree, the sign mask, {unbound key: numerator})
        grouped = []
        for s in series:
            groups: dict = {}
            for key, n in s._terms.items():
                part = key & bound
                group = groups.get(part)
                if group is None:
                    factors = [(var, (part >> shift) & mask) for shift, mask, var in bound_slots
                               if (part >> shift) & mask]
                    fiber = sum(exp for var, exp in factors if var.fiber_degree)
                    # rest * part = (-1) ** (|rest| |part|) part * rest
                    flip = _sign_mask(part) ^ (odd if (part & odd).bit_count() & 1 else 0)
                    group = groups[part] = (factors, fiber, flip, {})
                factors, fiber, flip, coefficients = group
                rest = key - part - fiber
                if order is not None and rest & _FIBER > order:
                    continue
                # key = sign * rest * part, with the sign of that product
                if flip and (rest & flip).bit_count() & 1:
                    n = -n
                coefficients[rest] = n
            grouped.append(groups)
        # bound part -> the number of groups whose C_b is constant
        uses = Counter(part for groups in grouped
                       for part, group in groups.items() if group[3].keys() == {0})
        # bound variable -> [value, value^2, ...], each power the one below
        # times the binding
        powers: dict = {}
        # bound part -> the product of its values, once two groups with a
        # constant C_b use it
        shared: dict = {}
        results = []
        for s, groups in zip(series, grouped):
            # out holds numerators over den, the lcm of the pieces' denominators
            out: dict = {}
            den = 1
            for part, (factors, _, _, coefficients) in groups.items():
                if not coefficients:
                    continue
                # the group is n / d times the product of values
                n, d, values = 1, 1, []
                for var, exp in factors:
                    if var in constants:
                        n *= constants[var][0] ** exp
                        d *= constants[var][1] ** exp
                    elif n:
                        cached = powers.setdefault(var, [normalized[var]])
                        while len(cached) < exp:
                            cached.append(cached[-1]._times(normalized[var], order))
                        values.append(cached[exp - 1])
                if not n:
                    continue
                if len(coefficients) > 1 or 0 not in coefficients:
                    values = [Series._trusted(coefficients, 1)] + values
                else:
                    n *= coefficients[0]
                    if len(values) > 1 and uses[part] > 1:
                        if part not in shared:
                            product = values[0]
                            for value in values[1:]:
                                product = product._times(value, order)
                            shared[part] = product
                        values = [shared[part]]
                # every value but the last is multiplied out, and the last
                # product adds into out
                piece = values[0] if values else Series.one()
                for value in values[1:-1]:
                    piece = piece._times(value, order)
                last = values[-1] if len(values) > 1 else None
                d *= piece._den * (last._den if last else 1)
                if den % d:
                    common = lcm(den, d)
                    out = {k: v * (common // den) for k, v in out.items()}
                    den = common
                if last is None:
                    _add_into(out, piece._terms, n * (den // d))
                else:
                    piece._times_into(out, last, order, n * (den // d))
            results.append(Series._reduced(out, s._den * den))
        return results

    def _kept(self, keep) -> "Series":
        """The terms whose fiber degree passes ``keep``; ``self`` if that is all."""
        terms = {k: n for k, n in self._terms.items() if keep(k & _FIBER)}
        if len(terms) == len(self._terms):
            return self
        return Series._reduced(terms, self._den)

    def truncate(self, order: int) -> "Series":
        """The terms up to fiber degree ``order``; ``self`` if that is all."""
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if self.fiber_degree() <= order:
            return self
        return self._kept(lambda degree: degree <= order)

    def fiber_slice(self, low: int, high: Optional[int] = None) -> "Series":
        """The terms of fiber degree ``low`` to ``high``, or from ``low`` up if
        ``high`` is None."""
        top = float("inf") if high is None else high
        return self._kept(lambda degree: low <= degree <= top)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"Series({format_series(self)})"


def _add_into(out: dict, terms: Mapping[int, int], scale: int) -> None:
    """Add ``scale`` times ``terms`` into ``out``, dropping what cancels."""
    get = out.get
    for key, n in terms.items():
        total = get(key, 0) + n * scale
        if total:
            out[key] = total
        else:
            del out[key]


def _coerce(value) -> "Series":
    if isinstance(value, Series):
        return value
    if isinstance(value, (int, Fraction)):
        return Series.constant(value)
    return NotImplemented


def _coerce_strict(value) -> "Series":
    coerced = _coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"expected a Series or rational, got {value!r}")
    return coerced


def format_monomial(monomial: Monomial) -> str:
    if not monomial:
        return "1"
    parts = []
    for var, exp in monomial:
        parts.append(var.name if exp == 1 else f"{var.name}^{exp}")
    return " * ".join(parts)


def format_series(series: Series) -> str:
    """Render in the interchange grammar; output re-parses to an equal series."""
    if series.is_zero:
        return "0"
    den = series._den
    chunks = []
    for monomial, n in series._decoded():
        # |n| / den in lowest terms, written as str(Fraction) writes it
        common = gcd(n, den)
        top, bottom = abs(n) // common, den // common
        magnitude = str(top) if bottom == 1 else f"{top}/{bottom}"
        if not monomial:
            body = magnitude
        elif top == bottom == 1:
            body = format_monomial(monomial)
        else:
            body = f"{magnitude} * {format_monomial(monomial)}"
        if not chunks:
            chunks.append(body if n > 0 else f"-{body}")
        else:
            chunks.append(("+ " if n > 0 else "- ") + body)
    return " ".join(chunks)
