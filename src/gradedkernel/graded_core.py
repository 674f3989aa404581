"""Exact arithmetic over Z2 x Z-graded supercommuting variables.

Conventions, fixed once and used everywhere:

* parity (0 = even, 1 = odd) drives every sign; weight is a bookkeeping
  integer and never produces a sign;
* all derivatives are left derivatives and all coordinates are left
  coordinates;
* monomials are kept in the canonical order given by the key
  ``(fiber_degree, declaration index, name)``, so base variables always
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

The product of two monomials is then the sum of their keys.  It is zero when
the keys share an odd bit.  An exponent or fiber degree above
``EXPONENT_BOUND`` (at least 10^6) sets a guard bit, and the product raises
``ExponentOverflow``; it never carries into the next field.  The Koszul sign
of ``a * b`` is ``(-1) ** n``, where ``n`` counts the pairs of an odd factor
of ``a`` canonically after an odd factor of ``b``: the parity of
``popcount(a & _flip_mask(b))``.  ``Series.__mul__`` holds this one sign rule
of products, and the parser builds each term as a product of its factors.

Coefficients are integer numerators over one positive denominator ``_den``
per series, reduced after every operation so that ``gcd(_den, every
numerator) == 1``.  That form is canonical, so equal series have equal term
dicts and equal denominators.  The public constructor also drops zero
coefficients and terms above the truncation order.  ``Series._trusted``
skips all checks; it is only called on dicts built inside this module that
already satisfy them, and the dict is never mutated afterwards, so series
may share it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, itemgetter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

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
    """The key field of every variable a series has used, assigned on first use.

    Fields are assigned in registration order, which need not be canonical
    order, so each odd field keeps the mask of the odd fields canonically
    after it, updated as later fields register.
    """

    def __init__(self):
        self.slots: Dict[GradedVariable, _Slot] = {}  # in registration order
        self.canonical: List[_Slot] = []
        self.above: Dict[int, int] = {}  # odd bit -> odd bits canonically after it
        self.odd_bits = 0
        self.guards = _GUARD
        self.width = _WIDTH

    def slot(self, var: GradedVariable) -> _Slot:
        slot = self.slots.get(var)
        if slot is not None:
            return slot
        if var.parity:
            slot = _Slot(var, self.width, 1)
            bit = 1 << self.width
            above = 0
            for other in self.slots.values():
                if other.mask == 1:
                    other_bit = 1 << other.shift
                    if other.rank > slot.rank:
                        above |= other_bit
                    else:
                        self.above[other_bit] |= bit
            self.above[bit] = above
            self.odd_bits |= bit
            self.width += 1
        else:
            slot = _Slot(var, self.width, _FIELD)
            self.guards |= _GUARD << self.width
            self.width += _WIDTH
        self.slots[var] = slot
        insort(self.canonical, slot, key=attrgetter("rank"))
        return slot


_REGISTRY = _Registry()


def _encode(monomial: Monomial, register: bool = True) -> Optional[int]:
    """The key of a canonical monomial tuple.

    Without ``register``, a variable that has no field yet gives None: no
    stored key can contain it.
    """
    key = fiber = 0
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
        key += exp << slot.shift
        fiber += exp * var.fiber_degree
    if fiber > EXPONENT_BOUND:
        raise ValueError(f"monomial {monomial!r} has fiber degree above {EXPONENT_BOUND}")
    return key + fiber


def _flip_mask(key: int) -> int:
    """The odd bits whose presence in ``a`` flips the sign of ``a * key``.

    By linearity over Z2 this is the xor of the "after me" masks of ``key``'s
    odd variables.
    """
    rest = key & _REGISTRY.odd_bits
    flip = 0
    while rest:
        low = rest & -rest
        flip ^= _REGISTRY.above[low]
        rest ^= low
    return flip


def _overflow(key: int) -> ExponentOverflow:
    for slot in _REGISTRY.canonical:
        if (key >> slot.shift) & slot.mask > EXPONENT_BOUND:
            return ExponentOverflow(f"a product raises {slot.var.name} to a power "
                                    f"above {EXPONENT_BOUND}")
    return ExponentOverflow(f"a product has fiber degree above {EXPONENT_BOUND}")


def _by_fiber_degree(terms: dict, trunc: Optional[int]) -> list:
    """``(fiber degree, key, numerator)`` in ascending fiber degree.

    Without a truncation order nothing is pruned, and every degree reads 0.
    """
    if trunc is None:
        return [(0, k, n) for k, n in terms.items()]
    return sorted(((k & _FIBER, k, n) for k, n in terms.items()), key=itemgetter(0))


def _min_trunc(*orders: Optional[int]) -> Optional[int]:
    present = [o for o in orders if o is not None]
    return min(present) if present else None


class Series:
    """A finite sum of exact-rational terms over canonical monomials.

    ``truncation_order`` is the maximal total fiber degree retained; ``None``
    means the series is exact.  Instances are immutable.
    """

    __slots__ = ("_terms", "_den", "_trunc", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Rational]] = None,
                 truncation_order: Optional[int] = None):
        kept = []
        for monomial, coeff in (terms or {}).items():
            coeff = _frac(coeff)
            if coeff == 0:
                continue
            key = _encode(monomial)
            if truncation_order is not None and key & _FIBER > truncation_order:
                continue
            kept.append((key, coeff))
        # each coefficient is in lowest terms, so over the lcm of the
        # denominators the numerators have no common factor with it
        den = lcm(*(coeff.denominator for _, coeff in kept))
        self._terms = {key: coeff.numerator * (den // coeff.denominator)
                       for key, coeff in kept}
        self._den = den
        self._trunc = truncation_order
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict, den: int, truncation_order: Optional[int]) -> "Series":
        """Wrap a dict that already meets the invariants in the module docstring."""
        series = cls.__new__(cls)
        series._terms = terms
        series._den = den
        series._trunc = truncation_order
        series._hash = None
        return series

    @classmethod
    def _reduced(cls, terms: dict, den: int, truncation_order: Optional[int]) -> "Series":
        """``_trusted`` after dividing out the common factor of ``den`` and ``terms``."""
        if den != 1:
            common = gcd(den, *terms.values())
            if common != 1:
                den //= common
                terms = {k: n // common for k, n in terms.items()}
        return cls._trusted(terms, den, truncation_order)

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, truncation_order: Optional[int] = None) -> "Series":
        return cls._trusted({}, 1, truncation_order)

    @classmethod
    def constant(cls, value: Rational) -> "Series":
        value = _frac(value)
        return cls._trusted({0: value.numerator} if value else {}, value.denominator, None)

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
        return cls._trusted({_encode(((var, exponent),)): 1}, 1, None)

    @classmethod
    def sum(cls, terms: Sequence["Series"]) -> "Series":
        """The sum of ``terms``, accumulated in one dict over a common denominator."""
        trunc = _min_trunc(*[t._trunc for t in terms])
        den = lcm(*[t._den for t in terms])
        out: Optional[dict] = None
        for term in terms:
            part = term._terms
            if trunc is not None and term._trunc != trunc:
                part = {k: n for k, n in part.items() if k & _FIBER <= trunc}
            scale = den // term._den
            if out is None:
                out = dict(part) if scale == 1 else {k: n * scale for k, n in part.items()}
                continue
            get = out.get
            for key, n in part.items():
                total = get(key, 0) + n * scale
                if total:
                    out[key] = total
                else:
                    del out[key]
        return cls._reduced(out or {}, den, trunc)

    # -- inspection --------------------------------------------------------

    @property
    def truncation_order(self) -> Optional[int]:
        return self._trunc

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Terms in canonical order (deterministic)."""
        den = self._den
        rows = self._decoded()
        rows.sort(key=itemgetter(0))
        return [(monomial, Fraction(n, den)) for _, monomial, n in rows]

    def coefficient(self, monomial: Monomial) -> Fraction:
        n = self._terms.get(_encode(monomial, register=False))
        return Fraction(0) if n is None else Fraction(n, self._den)

    def _slots(self) -> List[_Slot]:
        """The slots of the variables that occur in some term, in canonical order."""
        union = 0
        for key in self._terms:
            union |= key
        return [slot for slot in _REGISTRY.canonical if (union >> slot.shift) & slot.mask]

    def _decoded(self) -> List[Tuple[list, Monomial, int]]:
        """``(sort key, monomial tuple, numerator)`` for every term.

        The sort key lists ``(position, exponent)`` over the series' variables
        in canonical order, so it sorts as the monomial's ``(var.key, exp)``
        pairs do.
        """
        fields = [(position, slot.shift, slot.mask, slot.var)
                  for position, slot in enumerate(self._slots())]
        rows = []
        for key, n in self._terms.items():
            order = []
            monomial = []
            for position, shift, mask, var in fields:
                exp = (key >> shift) & mask
                if exp:
                    order += (position, exp)
                    monomial.append((var, exp))
            rows.append((order, tuple(monomial), n))
        return rows

    def variables(self) -> set:
        return {slot.var for slot in self._slots()}

    def fiber_degree(self) -> int:
        return max((k & _FIBER for k in self._terms), default=0)

    def bigrading(self) -> Bigrading:
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
            raise InhomogeneousSeries(f"series mixes bigradings {listed}")
        return Bigrading(*grades.pop())

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

    def __add__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Series.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series._trusted({k: -n for k, n in self._terms.items()}, self._den,
                               self._trunc)

    def __sub__(self, other) -> "Series":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Series":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                return Series.zero(self._trunc)
            if c == 1:
                return self
            return Series._reduced({k: n * c.numerator for k, n in self._terms.items()},
                                   self._den * c.denominator, self._trunc)
        if not isinstance(other, Series):
            return NotImplemented
        trunc = _min_trunc(self._trunc, other._trunc)
        # a product's fiber degree is the sum of its factors' degrees, so with
        # both sides in ascending degree each row stops at the first pair past
        # the order, before that pair is merged
        budget = 0 if trunc is None else trunc
        odd = _REGISTRY.odd_bits
        right = [(degree, k, n, _flip_mask(k))
                 for degree, k, n in _by_fiber_degree(other._terms, trunc)]
        out: dict = {}
        get = out.get
        for degree_a, ka, na in _by_fiber_degree(self._terms, trunc):
            room = budget - degree_a
            if room < 0:
                break
            for degree_b, kb, nb, flip in right:
                if degree_b > room:
                    break
                if ka & kb & odd:
                    continue
                value = na * nb
                if flip and (ka & flip).bit_count() & 1:
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
        # carrying, so one check of the surviving keys finds it
        guards = _REGISTRY.guards
        for key in out:
            if key & guards:
                raise _overflow(key)
        return Series._reduced(out, self._den * other._den, trunc)

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
        trunc = self._trunc
        if trunc is not None and var.fiber_degree:
            trunc = max(trunc - 1, 0)
        slot = _REGISTRY.slots.get(var)
        if slot is None:
            return Series.zero(trunc)
        shift, mask = slot.shift, slot.mask
        step = (1 << shift) + var.fiber_degree
        # the odd factors canonically before var, each passed with a sign
        before = 0
        if var.parity:
            before = _REGISTRY.odd_bits & ~(_REGISTRY.above[1 << shift] | 1 << shift)
        out: dict = {}
        for key, n in self._terms.items():
            exp = (key >> shift) & mask
            if exp:
                if before and (key & before).bit_count() & 1:
                    n = -n
                out[key - step] = n * exp
        return Series._reduced(out, self._den, trunc)

    def substitute(self, bindings: Mapping[GradedVariable, "Series"]) -> "Series":
        normalized = {}
        for var, value in bindings.items():
            value = _coerce_strict(value)
            if not value.is_zero and not value.is_homogeneous(var.parity, var.weight):
                raise GradingMismatch(
                    f"binding for {var.name} must be zero or homogeneous of "
                    f"{var.bigrading}")
            normalized[var] = value
        trunc = _min_trunc(self._trunc, *(v._trunc for v in normalized.values()))
        if trunc is not None:
            normalized = {var: value.truncate(trunc) for var, value in normalized.items()}
        # bound variable -> [value, value^2, ...], each power the one below
        # times the binding; built by a loop, because a closure that called
        # itself would be a reference cycle keeping the powers alive until
        # the cyclic collector runs
        powers: dict = {}

        def power(var: GradedVariable, exp: int) -> "Series":
            value = normalized.get(var)
            if value is None:
                fits = trunc is None or var.fiber_degree * exp <= trunc
                return Series._trusted({_encode(((var, exp),)): 1} if fits else {}, 1, trunc)
            cached = powers.setdefault(var, [value])
            while len(cached) < exp:
                cached.append(cached[-1] * value)
            return cached[exp - 1]

        # out holds numerators over den, the lcm of the pieces' denominators
        out: dict = {}
        den = 1
        for _, monomial, n in self._decoded():
            piece = None
            for var, exp in monomial:
                factor = power(var, exp)
                piece = factor if piece is None else piece * factor
                if piece.is_zero:
                    break
            if piece is None:
                piece = Series.one()
            if den % piece._den:
                common = lcm(den, piece._den)
                out = {k: v * (common // den) for k, v in out.items()}
                den = common
            scale = n * (den // piece._den)
            get = out.get
            for k, v in piece._terms.items():
                total = get(k, 0) + v * scale
                if total:
                    out[k] = total
                else:
                    del out[k]
        return Series._reduced(out, self._den * den, trunc)

    def _kept(self, keep, truncation_order: Optional[int]) -> "Series":
        """The terms whose fiber degree passes ``keep``, at ``truncation_order``."""
        terms = {k: n for k, n in self._terms.items() if keep(k & _FIBER)}
        if len(terms) == len(self._terms):
            return Series._trusted(self._terms, self._den, truncation_order)
        return Series._reduced(terms, self._den, truncation_order)

    def truncate(self, order: int) -> "Series":
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        if self._trunc is not None and self._trunc <= order:
            return Series._trusted(self._terms, self._den, order)
        return self._kept(lambda degree: degree <= order, order)

    def without_truncation(self) -> "Series":
        return Series._trusted(self._terms, self._den, None)

    def fiber_slice(self, low: int, high: Optional[int] = None) -> "Series":
        """The terms of fiber degree ``low`` to ``high``, or from ``low`` up if
        ``high`` is None; the truncation order is kept."""
        top = float("inf") if high is None else high
        return self._kept(lambda degree: low <= degree <= top, self._trunc)

    # -- formatting ----------------------------------------------------------

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"Series({format_series(self)})"


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
    chunks = []
    for monomial, coeff in series.items():
        magnitude = abs(coeff)
        if not monomial:
            body = str(magnitude)
        elif magnitude == 1:
            body = format_monomial(monomial)
        else:
            body = f"{magnitude} * {format_monomial(monomial)}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)
