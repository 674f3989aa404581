"""Deterministic generation of homogeneous test series.

Used by the checkers (Leibniz sampling, oracle trials) and by the test
suite.  Everything is driven by an explicit ``random.Random`` so identical
seeds give identical samples.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .graded_core import (
    Bigrading,
    GradedVariable,
    Monomial,
    Series,
    monomial_bigrading,
)


def enumerate_monomials(variables: Sequence[GradedVariable], max_degree: int) -> List[Monomial]:
    """All canonical monomials of total degree <= max_degree (odd exponents capped at 1)."""
    ordered = sorted(set(variables), key=lambda v: v.key)
    out: List[Monomial] = [()]
    for degree in range(1, max_degree + 1):
        for combo in itertools.combinations_with_replacement(ordered, degree):
            counts: Dict[GradedVariable, int] = {}
            ok = True
            for var in combo:
                counts[var] = counts.get(var, 0) + 1
                if var.parity and counts[var] > 1:
                    ok = False
                    break
            if ok:
                out.append(tuple(sorted(counts.items(), key=lambda kv: kv[0].key)))
    return out


def bucket_by_bigrading(monomials: Iterable[Monomial]) -> Dict[Bigrading, List[Monomial]]:
    buckets: Dict[Bigrading, List[Monomial]] = {}
    for monomial in monomials:
        buckets.setdefault(monomial_bigrading(monomial), []).append(monomial)
    return buckets


_SMALL_NUMERATORS = tuple(n for n in range(-6, 7) if n != 0)
_SMALL_DENOMINATORS = (1, 1, 1, 2, 3)


def small_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice(_SMALL_NUMERATORS), rng.choice(_SMALL_DENOMINATORS))


@lru_cache(maxsize=64)
def _sorted_buckets(variables: Tuple[GradedVariable, ...],
                    max_degree: int) -> Tuple[Tuple[Bigrading, Tuple[Monomial, ...]], ...]:
    """The monomials of degree <= max_degree by bigrading, sorted by (parity, weight)."""
    buckets = bucket_by_bigrading(enumerate_monomials(variables, max_degree))
    return tuple((grade, tuple(monomials)) for grade, monomials in sorted(
        buckets.items(), key=lambda kv: (kv[0].parity, kv[0].weight)))


def random_homogeneous(variables: Sequence[GradedVariable], rng: random.Random,
                       max_degree: int = 2, parity: Optional[int] = None,
                       weight: Optional[int] = None, max_terms: int = 3) -> Series:
    """A random homogeneous series; zero if no monomial fits the constraints."""
    eligible = [
        (grade, monos) for grade, monos in _sorted_buckets(tuple(variables), max_degree)
        if (parity is None or grade.parity == parity % 2)
        and (weight is None or grade.weight == weight)
    ]
    if not eligible:
        return Series.zero()
    _, monomials = rng.choice(eligible)
    count = min(len(monomials), rng.randint(1, max_terms))
    chosen = rng.sample(monomials, count)
    # distinct monomials with nonzero coefficients: never zero
    return Series({m: small_rational(rng) for m in chosen})


def homogeneous_pool(variables: Sequence[GradedVariable], rng: random.Random,
                     size: int) -> List[Series]:
    """A pool of nonzero homogeneous series of degree <= 2, covering several bigradings."""
    return [random_homogeneous(variables, rng) for _ in range(size)]
