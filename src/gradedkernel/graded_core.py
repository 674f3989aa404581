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

Odd variables square to zero and are capped at exponent one structurally:
``merge_monomials`` returns ``None`` as soon as an odd variable repeats, and
``Series.variable`` gives the zero series for an odd variable to a power
above one.  ``merge_monomials`` holds the one Koszul sign rule of products;
the parser builds each term as a product of its factors.

Monomials are private to this module.  Other modules reach them only through
``Series.items``, ``Series(...)``, ``Series.coefficient`` and formatting, and
slice by fiber degree with ``Series.fiber_slice``.

A ``Series`` holds a dict from canonical monomials to coefficients.  The
public constructor enforces three invariants on it: every coefficient is a
``Fraction``, none is zero, and no monomial has a fiber degree above the
truncation order.  ``Series._trusted`` skips those checks; it is only called
on dicts built inside this module that already satisfy all three, and the
dict is never mutated afterwards, so series may share it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Mapping, Optional, Tuple, Union

from .errors import GradingMismatch, InhomogeneousSeries, ZeroSeries

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


def monomial_fiber_degree(monomial: Monomial) -> int:
    return sum(exp for var, exp in monomial if var.fiber_degree)


def monomial_sort_key(monomial: Monomial):
    return tuple((var.key, exp) for var, exp in monomial)


def merge_monomials(a: Monomial, b: Monomial) -> Optional[Tuple[int, Monomial]]:
    """Multiply two canonical monomials; returns (sign, monomial) or None if zero.

    The sign counts the odd-odd inversions created by interleaving: for each
    odd factor of ``a`` every odd factor of ``b`` that must move past it
    contributes one transposition.
    """
    sign = 1
    odd_a = [var.key for var, _ in a if var.parity]
    if odd_a:
        for var, _ in b:
            if var.parity:
                key = var.key
                behind = sum(1 for k in odd_a if k > key)
                if behind % 2:
                    sign = -sign
    out = []
    i = j = 0
    len_a = len(a)
    len_b = len(b)
    while i < len_a and j < len_b:
        va, ea = a[i]
        vb, eb = b[j]
        key_a = va.key
        key_b = vb.key
        if key_a < key_b:
            out.append(a[i])
            i += 1
        elif key_b < key_a:
            out.append(b[j])
            j += 1
        elif va is vb or va == vb:
            if va.parity:
                return None
            out.append((va, ea + eb))
            i += 1
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


_ONE = Fraction(1)


def _accumulate(terms: dict, monomial: Monomial, value: Fraction) -> None:
    """Add ``value`` to ``terms[monomial]``, dropping the entry if it cancels."""
    previous = terms.get(monomial)
    if previous is None:
        terms[monomial] = value
        return
    total = previous + value
    if total:
        terms[monomial] = total
    else:
        del terms[monomial]


def _by_fiber_degree(terms: dict, trunc: Optional[int]) -> list:
    """``(fiber degree, monomial, coefficient)`` in ascending fiber degree.

    Without a truncation order nothing is pruned, and every degree reads 0.
    """
    if trunc is None:
        return [(0, m, c) for m, c in terms.items()]
    return sorted(((monomial_fiber_degree(m), m, c) for m, c in terms.items()),
                  key=itemgetter(0))


def _min_trunc(*orders: Optional[int]) -> Optional[int]:
    present = [o for o in orders if o is not None]
    return min(present) if present else None


class Series:
    """A finite sum of exact-rational terms over canonical monomials.

    ``truncation_order`` is the maximal total fiber degree retained; ``None``
    means the series is exact.  Instances are immutable.
    """

    __slots__ = ("_terms", "_trunc", "_hash")

    def __init__(self, terms: Optional[Mapping[Monomial, Rational]] = None,
                 truncation_order: Optional[int] = None):
        clean = {}
        for monomial, coeff in (terms or {}).items():
            coeff = _frac(coeff)
            if coeff == 0:
                continue
            if truncation_order is not None and monomial_fiber_degree(monomial) > truncation_order:
                continue
            clean[monomial] = coeff
        self._terms = clean
        self._trunc = truncation_order
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict, truncation_order: Optional[int]) -> "Series":
        """Wrap a dict that already meets the invariants in the module docstring."""
        series = cls.__new__(cls)
        series._terms = terms
        series._trunc = truncation_order
        series._hash = None
        return series

    # -- construction -----------------------------------------------------

    @classmethod
    def zero(cls, truncation_order: Optional[int] = None) -> "Series":
        return cls({}, truncation_order)

    @classmethod
    def constant(cls, value: Rational) -> "Series":
        return cls({(): _frac(value)})

    @classmethod
    def one(cls) -> "Series":
        return cls.constant(1)

    @classmethod
    def variable(cls, var: GradedVariable, exponent: int = 1) -> "Series":
        """``var^exponent``: one for exponent 0, zero for an odd variable past 1."""
        if exponent < 0:
            raise ValueError("variable powers take a nonnegative integer exponent")
        if exponent == 0:
            return cls.one()
        if var.parity and exponent > 1:
            return cls.zero()
        return cls._trusted({((var, exponent),): _ONE}, None)

    # -- inspection --------------------------------------------------------

    @property
    def truncation_order(self) -> Optional[int]:
        return self._trunc

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Terms in canonical order (deterministic)."""
        return sorted(self._terms.items(), key=lambda kv: monomial_sort_key(kv[0]))

    def coefficient(self, monomial: Monomial) -> Fraction:
        return self._terms.get(monomial, Fraction(0))

    def variables(self) -> set:
        return {var for monomial in self._terms for var, _ in monomial}

    def fiber_degree(self) -> int:
        if not self._terms:
            return 0
        return max(monomial_fiber_degree(m) for m in self._terms)

    def bigrading(self) -> Bigrading:
        if not self._terms:
            raise ZeroSeries("the zero series has no bigrading")
        grades = {monomial_bigrading(m) for m in self._terms}
        if len(grades) > 1:
            listed = ", ".join(sorted(str(g) for g in grades))
            raise InhomogeneousSeries(f"series mixes bigradings {listed}")
        return grades.pop()

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
        trunc = _min_trunc(self._trunc, other._trunc)
        merged = dict(self._terms)
        for monomial, coeff in other._terms.items():
            _accumulate(merged, monomial, coeff)
        if trunc is not None and (self._trunc != trunc or other._trunc != trunc):
            merged = {m: c for m, c in merged.items() if monomial_fiber_degree(m) <= trunc}
        return Series._trusted(merged, trunc)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return Series._trusted({m: -c for m, c in self._terms.items()}, self._trunc)

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
                return Series._trusted({}, self._trunc)
            return Series._trusted({m: coeff * c for m, coeff in self._terms.items()},
                                   self._trunc)
        if not isinstance(other, Series):
            return NotImplemented
        trunc = _min_trunc(self._trunc, other._trunc)
        # a product's fiber degree is the sum of its factors' degrees, so with
        # both sides in ascending degree each row stops at the first pair past
        # the order, before that pair is merged
        budget = 0 if trunc is None else trunc
        right = _by_fiber_degree(other._terms, trunc)
        out: dict = {}
        for degree_a, ma, ca in _by_fiber_degree(self._terms, trunc):
            room = budget - degree_a
            if room < 0:
                break
            for degree_b, mb, cb in right:
                if degree_b > room:
                    break
                merged = merge_monomials(ma, mb)
                if merged is None:
                    continue
                sign, monomial = merged
                _accumulate(out, monomial, ca * cb if sign > 0 else -(ca * cb))
        return Series._trusted(out, trunc)

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
        return self._terms == other._terms

    def __hash__(self):
        # computed once: bracket families key their caches on series
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- calculus ----------------------------------------------------------

    def left_derivative(self, var: GradedVariable) -> "Series":
        out: dict = {}
        for monomial, coeff in self._terms.items():
            preceding_odd = 0
            for position, (factor, exp) in enumerate(monomial):
                if factor == var:
                    sign = -1 if (var.parity and preceding_odd % 2) else 1
                    if exp == 1:
                        reduced = monomial[:position] + monomial[position + 1:]
                    else:
                        reduced = (monomial[:position]
                                   + ((factor, exp - 1),)
                                   + monomial[position + 1:])
                    _accumulate(out, reduced, coeff * (exp * sign))
                    break
                preceding_odd += factor.parity * exp
        trunc = self._trunc
        if trunc is not None and var.fiber_degree:
            trunc = max(trunc - 1, 0)
        return Series._trusted(out, trunc)

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
                return Series._trusted({((var, exp),): _ONE} if fits else {}, trunc)
            cached = powers.setdefault(var, [value])
            while len(cached) < exp:
                cached.append(cached[-1] * value)
            return cached[exp - 1]

        out: dict = {}
        for monomial, coeff in self._terms.items():
            piece = None
            for var, exp in monomial:
                factor = power(var, exp)
                piece = factor if piece is None else piece * factor
                if piece.is_zero:
                    break
            if piece is None:
                _accumulate(out, (), coeff)
                continue
            for product, c in piece._terms.items():
                _accumulate(out, product, coeff * c)
        return Series._trusted(out, trunc)

    def truncate(self, order: int) -> "Series":
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        terms = self._terms
        if self._trunc is None or self._trunc > order:
            terms = {m: c for m, c in terms.items() if monomial_fiber_degree(m) <= order}
        return Series._trusted(terms, order)

    def without_truncation(self) -> "Series":
        return Series._trusted(self._terms, None)

    def fiber_slice(self, low: int, high: Optional[int] = None) -> "Series":
        """The terms of fiber degree ``low`` to ``high``, or from ``low`` up if
        ``high`` is None; the truncation order is kept."""
        top = float("inf") if high is None else high
        return Series._trusted({m: c for m, c in self._terms.items()
                                if low <= monomial_fiber_degree(m) <= top}, self._trunc)

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
