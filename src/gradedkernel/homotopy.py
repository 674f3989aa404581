"""Higher derived brackets and the algebraic laws they must satisfy.

A bracket family can come from three sources:

* ``QFamily`` - the table of a homological vector field's Taylor
  coefficients: nested commutators of each term with constant fields,
  evaluated at the origin;
* ``HamiltonianFamily`` - the table of a master (anti)Hamiltonian's
  brackets on the base coordinates, contracted with the inputs' gradients:
  on base functions each canonical bracket with the master is a first-order
  operator, so the brackets of any inputs are read off those of the
  coordinates, and a bracket is its prefix's operator, built once per
  prefix, applied to its last input;
* ``ExplicitFamily`` - a table of structure constants, stored graded
  symmetrized (epsilon = 1) or antisymmetrized (epsilon = 0).

Every family takes and returns `Series`, and every series is exact.  A
vector of a graded space is a series linear in the space's basis variables
(`SpaceBasis.coordinates` reads it back).  A family keys each input by its
value, keeps one record of it per key (a vector's coordinates, a function's
gradient), and caches every bracket it evaluates under the tuple of its
inputs' keys (see `BracketFamily`).

The checkers (`check_higher_jacobi`, `check_weights_parities`,
`check_leibniz`, `check_master`) never raise on a failed law; failures are
report entries.  So any generator makes a family: a ``QFamily`` over a field
that is not homological has a table, whose Jacobi check reports the
failures.  A higher Jacobi sum replays a plan: its unshuffle terms with
their signs, which depend only on the arity, the inputs' parities and
epsilon, so a family builds each plan once (`jacobi_plan`) and every tuple
with that parity pattern reuses it.  A family's plan never builds the
terms whose inner or outer bracket has an arity outside the family's arity
support, where every bracket is zero.  Each term's inner bracket goes into
the outer one by its key.  The terms of each sign are added in one sum, and
the sum of the negative ones is subtracted once.  Every tuple still gets its
own sum: none is inferred from another by graded symmetry, since the sums
are also what catches a symmetry error in a family's brackets.

`assemble_vector_field` goes the other way, from an explicit table back to
a generating field.  Each Taylor term of a field reaches exactly one table
entry, so the field is built one coefficient at a time, and a nonzero entry
that no term of an odd weight-1 field reaches is an error.

Parity convention for masters, fixed here once: an S-infinity structure
(epsilon = 1) comes from an odd master Hamiltonian on T*M[1-k]; a
P-infinity structure (epsilon = 0) from an even master on Pi T*M[1-k].
These are the parities for which the weight/parity tables
(weights 2-n+k(n-1), parities eps(n+1)+n) and the Leibniz signs close up;
`check_master` reports the convention instead of rejecting the other parity,
since the master equation itself is meaningful either way.  Every epsilon = 0
family, Q or Hamiltonian, carries the parity reversion sign of its inputs
(`_reversion_sign_odd`) in its brackets, which is the form the Jacobi plans'
epsilon = 0 signs assume.  The last input of a Hamiltonian bracket enters
none of its signs, which is why its prefix's operator can be built once;
every earlier input enters them by its parity, so it must be homogeneous.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import (Container, Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .errors import ChartMismatch, GradingMismatch
from .geometry import (
    Chart,
    CotangentChart,
    KIND_EVEN,
    VectorField,
    canonical_bracket,
    check_uses_only,
    commutator,
)
from .graded_core import Bigrading, GradedVariable, Series, format_series, monomial_bigrading
from .report import Report
from .sampling import enumerate_monomials, homogeneous_pool

DEFAULT_ARITY = 4


@dataclass(frozen=True)
class ShiftSignature:
    """The (epsilon, k) pair of a shifted structure; the chart shift is 1-k."""

    epsilon: int
    k: int

    def __post_init__(self):
        if self.epsilon not in (0, 1):
            raise ValueError("epsilon must be 0 or 1")

    @property
    def s(self) -> int:
        return 1 - self.k

    def bracket_weight(self, n: int) -> int:
        return 2 - n + self.k * (n - 1)

    def bracket_parity(self, n: int) -> int:
        return (self.epsilon * (n + 1) + n) % 2


class SpaceBasis(Chart):
    """An ordered basis of a graded vector space: a chart whose variables,
    of fiber degree 0, are the basis vectors with their parities and
    weights."""

    def __len__(self):
        return len(self.variables)

    def __getitem__(self, index: int) -> GradedVariable:
        if not 0 <= index < len(self.variables):
            raise ValueError(f"basis index {index} out of range")
        return self.variables[index]

    def parity_reversed(self) -> "SpaceBasis":
        return self.build([(v.name, 1 - v.parity, v.weight) for v in self], self.name)

    def coordinate_bigrading(self, index: int, sig: ShiftSignature) -> Bigrading:
        """Bigrading of the i-th coordinate on Pi^{1+eps} V[1-k]."""
        v = self.variables[index]
        flip = 1 if sig.epsilon == 0 else 0
        return Bigrading((v.parity + flip) % 2, -v.weight + sig.s)

    def chart(self, sig: ShiftSignature) -> Chart:
        """The coordinate chart of Pi^{1+eps} V[1-k]: ``xi_<e>`` (eps 0) or ``y_<e>`` (eps 1)."""
        prefix = "xi_" if sig.epsilon == 0 else "y_"
        specs = []
        for i, v in enumerate(self):
            grade = self.coordinate_bigrading(i, sig)
            specs.append((prefix + v.name, grade.parity, grade.weight))
        return Chart.build(specs)

    @classmethod
    def from_chart(cls, chart: Chart, sig: ShiftSignature) -> "SpaceBasis":
        """Recover the basis underlying a Pi^{1+eps} V[1-k] coordinate chart."""
        flip = 1 if sig.epsilon == 0 else 0
        return cls.build([("e_" + var.name, (var.parity + flip) % 2, sig.s - var.weight)
                          for var in chart])

    def vector(self, coordinates: Iterable[Tuple[int, Fraction]]) -> Series:
        """The vector with these (basis index, coefficient) pairs."""
        return Series({((self[i], 1),): c for i, c in coordinates})

    def coordinates(self, vector: Series,
                    what: str = "bracket inputs") -> Tuple[Tuple[int, Fraction], ...]:
        """(basis index, coefficient) of each term of ``vector``, by index;
        raises GradingMismatch unless ``vector`` is linear in this basis."""
        variables = self.variables
        out = []
        for monomial, coeff in vector.items():
            if len(monomial) == 1:
                (var, exp), = monomial
                if exp == 1 and var.index < len(variables) and variables[var.index] == var:
                    out.append((var.index, coeff))
                    continue
            raise GradingMismatch(f"{what} must be linear combinations of basis vectors")
        return tuple(out)


# one term of a Jacobi sum: (first block, second block, whether it is
# subtracted), each block its input positions, ascending
PlanTerm = Tuple[Tuple[int, ...], Tuple[int, ...], bool]

# a family's record of an input, by key: (index, coefficient) pairs, which
# are a vector's coordinates or a base function's nonzero df/dx^a
Interned = Tuple[Tuple[int, Union[Fraction, Series]], ...]


class _TableRow(NamedTuple):
    """A Hamiltonian family's table at one tuple of base coordinates."""

    chain: Series  # (...(H, x^{a_1}), ..., x^{a_i}) on the whole chart
    degrees: FrozenSet[int]  # the fiber degrees of the chain's terms
    value: Series  # the chain at zero fiber variables: the table entry T_a


def constant_field(u: GradedVariable, chart: Chart, sig: ShiftSignature,
                   basis: SpaceBasis) -> VectorField:
    """The constant field i_u on Pi^{1+eps} V[1-k].

    For epsilon = 1 this is u^i d/dy^i (an even map of weight -s); for
    epsilon = 0 it is (-1)^{ut} u^i d/dxi^i (an odd map of weight -s).
    """
    expected = basis.coordinate_bigrading(u.index, sig)
    coord = chart.variables[u.index]
    if coord.bigrading != expected:
        raise ChartMismatch(
            f"coordinate {coord.name} has bigrading {coord.bigrading}, "
            f"expected {expected} for basis vector {u.name}")
    sign = -1 if (sig.epsilon == 0 and u.parity) else 1
    field_parity = (u.parity + (1 if sig.epsilon == 0 else 0)) % 2
    return VectorField(chart, {coord: Series.constant(sign)},
                       field_parity, u.weight - sig.s)


def _invert_constant_field(field_constants: Mapping[GradedVariable, Fraction],
                           sig: ShiftSignature, basis: SpaceBasis) -> Series:
    """Solve i_v = (given constant field) for v."""
    return basis.vector((var.index, -c if sig.epsilon == 0 and basis[var.index].parity else c)
                        for var, c in field_constants.items())


def _constant_fields(chart: Chart, basis: SpaceBasis, sig: ShiftSignature) -> List[VectorField]:
    """The constant field of every basis vector, by index, on ``chart``."""
    if not isinstance(chart, Chart):
        raise ChartMismatch("a generating field must live on a plain chart")
    if len(chart.variables) != len(basis):
        raise ChartMismatch("chart and basis dimensions differ")
    # each constant field checks its coordinate's bigrading
    return [constant_field(u, chart, sig, basis) for u in basis]


def _monomial_key(monomial) -> Tuple[int, ...]:
    """A monomial's coordinate indices, sorted with multiplicity."""
    return tuple(sorted(var.index for var, exponent in monomial for _ in range(exponent)))


def _derived_at_origin(field: VectorField, constant_fields: Sequence[VectorField],
                       basis: SpaceBasis, sig: ShiftSignature, indices: Sequence[int]) -> Series:
    """The derived bracket of ``field`` on the basis vectors at ``indices``:
    nested commutators with their constant fields, at the origin, inverted."""
    for index in indices:
        field = commutator(field, constant_fields[index])
    vector = _invert_constant_field(field.constant_part(), sig, basis)
    if sig.epsilon == 0 and _reversion_sign_odd([basis[i].parity for i in indices]):
        vector = -vector
    return vector


# ---------------------------------------------------------------------------
# bracket families
# ---------------------------------------------------------------------------

class BracketFamily:
    """Common interface: multilinear n-ary brackets plus a labeled input pool.

    A family interns every input it is given to an integer key the first
    time it sees it, and caches every bracket value under the tuple of its
    inputs' keys; ``bracket`` computes a missing value with ``_evaluate``.
    An input is keyed by its value: a `Series` hashes once and compares
    exactly, so equal inputs share a key, and an input the family holds (a
    pool entry, or an inner bracket fed back) matches its own entry by
    identity.  ``_interned`` checks a new input and returns the family's one
    record of it, which ``_interned_as`` keeps by key.  ``jacobi_sum`` reads
    the cache by these keys directly, and has a value it does not find
    evaluated by ``bracket``.  The pool is built once, so every check on a
    family passes the same objects, and the Jacobi plans (`jacobi_plan`) are
    kept per family too, by arity and parity pattern.

    ``arities`` is the arity support: the arities at which a bracket of the
    family can be nonzero, read off its generator or table (``arity_bound``
    is its top).  `vanishes` reads it.  A plan never builds the terms whose
    inner or outer bracket vanishes so, since they add nothing to the sum,
    and the checks take such a bracket as zero without evaluating it.
    """

    arities: FrozenSet[int]
    jacobi_note = ""  # the Jacobi sums' convention, which `check_higher_jacobi` reports

    def __init__(self, epsilon: int, k: int):
        self.epsilon = epsilon
        self.k = k
        self._inputs: List[Series] = []  # key -> the first input interned to it
        self._interned_as: List[Interned] = []  # key -> the family's record of that input
        self._key_of: Dict[Series, int] = {}
        self._values: Dict[Tuple[int, ...], Series] = {}
        self._plans: Dict[Tuple[int, Tuple[int, ...]], Tuple[PlanTerm, ...]] = {}
        self._pool_cache: Optional[List[Tuple[str, Series, int, int]]] = None

    @property
    def signature(self) -> ShiftSignature:
        return ShiftSignature(self.epsilon, self.k)

    def bracket(self, args: Sequence[Series]) -> Series:
        keys = self._keys(args)
        value = self._values.get(keys)
        if value is None:
            value = self._values[keys] = self._evaluate(keys)
        return value

    @property
    def arity_bound(self) -> int:
        return max(self.arities, default=0)

    def vanishes(self, n: int) -> bool:
        """Whether every bracket of arity ``n`` is zero by the arity support."""
        return n not in self.arities

    def pool(self) -> List[Tuple[str, Series, int, int]]:
        """Labeled homogeneous inputs as (label, element, parity, weight)."""
        if self._pool_cache is None:
            self._pool_cache = self._new_pool()
        return self._pool_cache

    def _new_pool(self) -> List[Tuple[str, Series, int, int]]:
        raise NotImplementedError

    def format_value(self, value: Series) -> str:
        """A bracket value or Jacobi residual as the reports write it."""
        return format_series(value)

    def _interned(self, element: Series) -> Interned:
        """The family's record of a new input; raises on one it cannot take."""
        raise NotImplementedError

    def _key(self, element: Series) -> int:
        key = self._key_of.get(element)
        if key is None:
            interned = self._interned(element)
            key = self._key_of[element] = len(self._inputs)
            self._inputs.append(element)
            self._interned_as.append(interned)
        return key

    def _keys(self, elements: Sequence[Series]) -> Tuple[int, ...]:
        return tuple([self._key(element) for element in elements])

    def _evaluate(self, keys: Tuple[int, ...]) -> Series:
        raise NotImplementedError

    def jacobi_sum(self, elements: Sequence[Series], parities: Tuple[int, ...]) -> Series:
        """The higher Jacobi sum of ``elements``, of arity their number; see `jacobiator`."""
        # interned first, since that is where an input's chart is checked
        keys = self._keys(elements)
        n = len(keys)
        plan = self._plans.get((n, parities))
        if plan is None:
            plan = self._plans[(n, parities)] = jacobi_plan(n, parities, self.epsilon,
                                                            self.arities)
        if not plan:
            return Series.zero()
        values, inputs = self._values, self._inputs
        added: List[Series] = []
        subtracted: List[Series] = []
        for first, second, negative in plan:
            # a value missing from the cache is evaluated by `bracket`, on the
            # inputs held under its keys, which caches it under the same keys
            block = tuple([keys[j] for j in first])
            inner = values.get(block)
            if inner is None:
                inner = self.bracket([inputs[key] for key in block])
            if inner.is_zero:
                continue
            block = (self._key(inner), *[keys[j] for j in second])
            outer = values.get(block)
            if outer is None:
                outer = self.bracket([inputs[key] for key in block])
            if not outer.is_zero:
                (subtracted if negative else added).append(outer)
        if not subtracted:
            return Series.sum(added)
        return Series.sum(added) - Series.sum(subtracted)


class HamiltonianFamily(BracketFamily):
    """Brackets of base functions generated by a master (anti)Hamiltonian.

    epsilon is structural: 1 for the even cotangent bundle (S-infinity), 0
    for the odd one (P-infinity); k is read off the chart shift (s = 1-k).

    A bracket is the chain ``(...(H, f_1), ..., f_n)`` at zero fiber
    variables.  With a base function f, a step is one first-order operator,
    ``(F, f) = sum_a (-1)^{s1(a, Ft)} dF/dp_a df/dx^a``, and no later step
    differentiates ``df/dx^a`` again.  So the bracket is a table contracted
    with the inputs' gradients:

        {f_1, ..., f_n} = sum_a sigma(a) T_a df_1/dx^{a_1} ... df_n/dx^{a_n}

    where ``T_a`` is the chain on the coordinates x^{a_1}, ..., x^{a_n}.  The
    table is built lazily, one canonical bracket per coordinate tuple, from
    the chain of its longest prefix (`_row`).  The bracket is a derivation
    in its last input: ``{f_1, ..., f_{n-1}, .} = sum_a V_a d/dx^a``, an
    operator built whole once per prefix of keys (`_operator`), by one walk
    over the tuples whose chains still have terms of the fiber degree it
    needs.  Each input's gradient is computed once, when it is interned: it
    is the family's record of that input.  A step's sign ``s1(a, Ft)`` is
    ``zt_a Ft`` (even kind) or ``(zt_a + 1) Ft`` (odd kind), and ``Ft`` is
    the running parity ``H~ + sum_{j<i} (f~_j + kappa)``, with kappa the
    bracket's own parity; sigma moves each step's sign from the coordinates'
    running parity to the inputs'.  The master's parity and kappa cancel in
    that move, so sigma reads only the inputs' parities and the
    coordinates'.  For epsilon = 0 the bracket also carries the parity
    reversion sign of the inputs, the sign rule of `_derived_at_origin`, so
    that Jacobi plans read P-infinity brackets as they read Q brackets.  The
    last input enters no sign (its share in the reversion sign is 0, and
    sigma reads the inputs before it), so the operator does not depend on
    it, and its parity is never read: a bracket is additive in its last
    input, homogeneous or not.  Every earlier input must be homogeneous,
    whatever the other inputs are.

    Every term of an arity-n bracket comes from the master's fiber-degree-n
    part, so the master's fiber degrees are the family's arity support.
    """

    jacobi_note = ("function-family identities use the bracket form of the "
                   "higher Jacobi sums; display typos in the source identities "
                   "are resolved to that form")

    def __init__(self, master: Series, ct: CotangentChart,
                 pool_seed: int = 11, pool_size: int = 5):
        super().__init__(1 if ct.kind == KIND_EVEN else 0, 1 - ct.shift)
        self.master = master
        self.ct = ct
        self._pool_seed = pool_seed
        self._pool_size = pool_size
        self._coordinates = [Series.variable(var) for var in ct.base.variables]
        self._table: Dict[Tuple[int, ...], _TableRow] = {}
        self._parities = [var.parity for var in ct.base.variables]
        # prefix keys -> its operator's nonzero components V_a, by index a
        self._operators: Dict[Tuple[int, ...], Dict[int, Series]] = {}
        self.arities = master.fiber_degrees()  # each step lowers them by one

    def _interned(self, f: Series) -> Interned:
        """The gradient of ``f``: (a, df/dx^a) for each nonzero one."""
        if f.fiber_degree():
            raise GradingMismatch("derived bracket inputs must be base functions")
        # checked at interning, since a Jacobi plan cut to the arity support
        # may bracket an input in no step at all
        check_uses_only(f, self.ct.variables, "bracket argument uses variables not on the chart")
        return tuple([(var.index, d) for var in self.ct.base.variables
                      if not (d := f.left_derivative(var)).is_zero])

    def _row(self, coordinates: Tuple[int, ...]) -> "_TableRow":
        """The table row of a coordinate tuple, bracketed from its prefix's chain."""
        row = self._table.get(coordinates)
        if row is None:
            chain = self.master if not coordinates else canonical_bracket(
                self._row(coordinates[:-1]).chain, self._coordinates[coordinates[-1]], self.ct)
            row = self._table[coordinates] = _TableRow(chain, chain.fiber_degrees(),
                                                       chain.fiber_slice(0, 0))
        return row

    def _evaluate(self, keys: Tuple[int, ...]) -> Series:
        """{f_1, ..., f_n}_H: the prefix's operator applied to f_n."""
        if not keys:
            return self._row(()).value
        operator = self._operators.get(keys[:-1])
        if operator is None:
            operator = self._operators[keys[:-1]] = self._operator(keys[:-1])
        if not operator:
            return Series.zero()
        gradient = self._interned_as[keys[-1]]
        return Series.sum([operator[a] * d for a, d in gradient if a in operator])

    def _operator(self, prefix: Tuple[int, ...]) -> Dict[int, Series]:
        """The nonzero V_a of ``{f_1, ..., f_{n-1}, .}``, by index a.  A path
        live through the prefix is (coordinates, the gradients' product or None
        for none, whether subtracted, the drift), the drift being the sum over
        j < i of f~_j + zt_{a_j}.  Each live path meets the row of every
        coordinate a at fiber degree 0."""
        kappa = 1 - self.epsilon
        # every earlier input's parity enters a sign, so each must be homogeneous
        parities = [0 if (f := self._inputs[key]).is_zero else f.bigrading().parity
                    for key in prefix]
        paths = [((), None, self.epsilon == 0 and _reversion_sign_odd(parities + [0]), 0)]
        # a row a path reaches must have terms of fiber degree ``left``, one
        # per step still to come
        for left, key, parity in zip(range(len(prefix), 0, -1), prefix, parities):
            gradients, step = self._interned_as[key], []
            for coordinates, product, negative, drift in paths:
                for a, gradient in gradients:
                    reached = coordinates + (a,)
                    if left not in self._row(reached).degrees:
                        continue
                    factor = gradient if product is None else product * gradient
                    if not factor.is_zero:
                        zt = self._parities[a]
                        step.append((reached, factor, negative ^ bool((zt + kappa) * drift % 2),
                                     drift + parity + zt))
            if not step:
                return {}
            paths = step
        terms: Dict[int, List[Series]] = {}
        for coordinates, product, negative, drift in paths:
            for a, zt in enumerate(self._parities):
                row = self._row(coordinates + (a,))
                if 0 not in row.degrees:
                    continue
                term = row.value if product is None else row.value * product
                flipped = negative ^ bool((zt + kappa) * drift % 2)
                terms.setdefault(a, []).append(-term if flipped else term)
        return {a: component for a, parts in terms.items()
                if not (component := Series.sum(parts)).is_zero}

    def _new_pool(self):
        rng = random.Random(self._pool_seed)
        samples = homogeneous_pool(self.ct.base.variables, rng, self._pool_size)
        return [(f"f{i + 1}", s, s.bigrading().parity, s.bigrading().weight)
                for i, s in enumerate(samples)]


class ExplicitFamily(BracketFamily):
    """Structure-constant tables, graded (anti)symmetrized on load.

    ``entries`` maps index tuples to vectors of ``basis``; permuted duplicates
    are folded into the canonically sorted slot, and ``load_warnings``
    records every slot whose stored value differs from some provided one.

    An input is interned as its coordinates (`SpaceBasis.coordinates`), and
    a bracket expands them multilinearly over ``bracket_indices``.
    """

    def __init__(self, basis: SpaceBasis, epsilon: int, k: int,
                 entries: Mapping[Tuple[int, ...], Series]):
        super().__init__(epsilon, k)
        self.basis = basis
        self.load_warnings: List[str] = []
        collected: Dict[Tuple[int, ...], List[Series]] = {}
        for indices, value in entries.items():
            basis.coordinates(value, "bracket values")
            key, sign = self._canonical_key(tuple(indices))
            if sign is None:
                if not value.is_zero:
                    self.load_warnings.append(
                        f"bracket on ({self._label(indices)}) is forced to zero "
                        "by graded symmetry; provided value dropped")
                continue
            collected.setdefault(key, []).append(value * sign)
        self.table: Dict[Tuple[int, ...], Series] = {}
        for key, values in collected.items():
            average = Series.sum(values) * Fraction(1, len(values))
            if any(v != average for v in values):
                self.load_warnings.append(
                    f"bracket on ({self._label(key)}) was graded-symmetrized; "
                    "provided permutations disagreed")
            if not average.is_zero:
                self.table[key] = average
        self.arities = frozenset(map(len, self.table))

    def _label(self, indices: Sequence[int]) -> str:
        return ", ".join(self.basis[i].name for i in indices)

    def _canonical_key(self, indices: Tuple[int, ...]):
        """Sorted key plus the sign transporting a value AT ``indices`` to it.

        Returns (key, None) when graded symmetry forces the slot to zero:
        repeated odd entries for symmetric (epsilon=1) families, repeated
        even entries for antisymmetric (epsilon=0) ones.
        """
        order = sorted(range(len(indices)), key=lambda j: indices[j])
        sgn, koszul = permutation_signs(order, [self.basis[i].parity for i in indices])
        sign = koszul * (sgn if self.epsilon == 0 else 1)
        key = tuple(sorted(indices))
        for i, j in zip(key, key[1:]):
            if i == j:
                parity = self.basis[i].parity
                forced = (self.epsilon == 1 and parity == 1) or \
                         (self.epsilon == 0 and parity == 0)
                if forced:
                    return key, None
        return key, sign

    def bracket_indices(self, indices: Tuple[int, ...]) -> Series:
        key, sign = self._canonical_key(tuple(indices))
        value = None if sign is None else self.table.get(key)
        if value is None:
            return Series.zero()
        return value * sign

    def _interned(self, element: Series) -> Tuple[Tuple[int, Fraction], ...]:
        return self.basis.coordinates(element)

    def _evaluate(self, keys: Tuple[int, ...]) -> Series:
        terms = []
        # one term per choice of one coordinate of each input
        for picks in itertools.product(*[self._interned_as[key] for key in keys]):
            value = self.bracket_indices(tuple([index for index, _ in picks]))
            if not value.is_zero:
                terms.append(value * math.prod([coeff for _, coeff in picks]))
        return Series.sum(terms)

    def _new_pool(self):
        return [(v.name, Series.variable(v), v.parity, v.weight) for v in self.basis]

    def format_value(self, value: Series) -> str:
        """A vector as ``e1 - 4*e2 + 1/2*e3``, by basis index, with no spaces
        around ``*`` as `format_series` has; the golden reports pin this form
        (``tests/golden/broken_jacobi.json``)."""
        chunks = []
        for index, coeff in self.basis.coordinates(value):
            name = self.basis[index].name
            body = name if abs(coeff) == 1 else f"{abs(coeff)}*{name}"
            if chunks:
                chunks.append(("+ " if coeff > 0 else "- ") + body)
            else:
                chunks.append(body if coeff > 0 else f"-{body}")
        return " ".join(chunks) or "0"


class QFamily(ExplicitFamily):
    """Brackets generated by a vector field on Pi^{1+eps} V[1-k].

    The table is exact because a Taylor term c m d/dx of Q has one nonzero
    derived bracket at the origin, at the key of m's coordinate indices
    sorted with multiplicity (`_derived_at_origin`).  Any field has a table;
    if Q is not homological, the family's Jacobi check reports the failures."""

    def __init__(self, q: VectorField, basis: SpaceBasis, sig: ShiftSignature):
        constant_fields = _constant_fields(q.chart, basis, sig)
        entries: Dict[Tuple[int, ...], List[Series]] = {}
        for var, component in q.components.items():
            for monomial, coeff in component.items():
                term = VectorField(q.chart, {var: Series({monomial: coeff})}, q.parity, q.weight)
                key = _monomial_key(monomial)
                entries.setdefault(key, []).append(
                    _derived_at_origin(term, constant_fields, basis, sig, key))
        super().__init__(basis, sig.epsilon, sig.k,
                         {key: Series.sum(values) for key, values in entries.items()})
        self.q = q


# ---------------------------------------------------------------------------
# unshuffles and signs
# ---------------------------------------------------------------------------

def unshuffles(n: int, r: int) -> Iterable[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(r, n-r)-unshuffles as (first block, second block), ascending in each."""
    positions = range(n)
    for first in itertools.combinations(positions, r):
        first_set = set(first)
        second = tuple([p for p in positions if p not in first_set])
        yield first, second


def permutation_signs(order: Sequence[int], parities: Sequence[int]) -> Tuple[int, int]:
    """(sgn, Koszul) of the permutation sending slot j to source order[j]."""
    sgn = 1
    koszul = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b]:
                sgn = -sgn
                if parities[order[a]] and parities[order[b]]:
                    koszul = -koszul
    return sgn, koszul


def _reversion_sign_odd(parities: Sequence[int]) -> bool:
    """Whether the parity-reversion sign (-1)^{p_1 (n-1) + ... + p_{n-1}} is -1."""
    n = len(parities)
    return sum(p * (n - 1 - j) for j, p in enumerate(parities)) % 2 == 1


def pool_tuples(pool: Sequence[Tuple[str, Series, int, int]],
                n_max: int) -> Iterable[Tuple[Tuple, str]]:
    """Every tuple of pool entries of length 0..n_max, with its labels joined.

    An empty pool has only the empty tuple, whatever ``n_max`` is."""
    for n in range(n_max + 1 if pool else 1):
        for picked in itertools.product(pool, repeat=n):
            yield picked, ", ".join(label for label, _, _, _ in picked)


def jacobi_plan(n: int, parities: Sequence[int], epsilon: int,
                arities: Container[int]) -> Tuple[PlanTerm, ...]:
    """The terms of the n-th higher Jacobi sum, one per (r, n-r)-unshuffle.

    Each term is (first block, second block, negative), the blocks as the
    input positions that `unshuffles` yields.  For epsilon = 0 the sign is
    (-1)^{r s} sgn(sigma) Koszul(sigma); for epsilon = 1 just the Koszul
    sign.  It depends only on n, the inputs' parities and epsilon.  A term's
    inner bracket has arity r and its outer 1 + n - r, and no unshuffle is
    built for an r with either outside ``arities``, a family's arity support.
    ``range(n + 2)`` gives the full plan.
    """
    plan = []
    for r in range(n + 1):
        if r not in arities or 1 + n - r not in arities:
            continue
        for first, second in unshuffles(n, r):
            sgn, koszul = permutation_signs(first + second, parities)
            sign = koszul
            if epsilon == 0:
                sign *= sgn
                if (r * (n - r)) % 2:
                    sign = -sign
            plan.append((first, second, sign < 0))
    return tuple(plan)


def jacobiator(fam: BracketFamily, inputs: Sequence[Tuple[Series, int]]) -> Series:
    """The n-th higher Jacobi sum over (r, n-r)-unshuffles, n the number of inputs.

    ``inputs`` pairs each element with its parity.  The family replays its
    plan for n and those parities (`jacobi_plan`) on the inputs' keys,
    passes each inner bracket to the outer one by its key, and adds the
    terms of each sign in one sum, subtracting the negative sum once rather
    than negating term by term.
    """
    return fam.jacobi_sum([e for e, _ in inputs], tuple([p for _, p in inputs]))


# ---------------------------------------------------------------------------
# checkers
# ---------------------------------------------------------------------------

def check_higher_jacobi(fam: BracketFamily, n_max: int = DEFAULT_ARITY) -> Report:
    """Evaluate every higher Jacobi identity up to arity n_max on pool tuples."""
    if n_max < 0:
        raise ValueError("a Jacobi check needs an arity of at least 0")
    report = Report(f"higher Jacobi identities to arity {n_max}")
    if fam.jacobi_note:
        report.info("jacobi-convention", notes=fam.jacobi_note)
    for picked, labels in pool_tuples(fam.pool(), n_max):
        n = len(picked)
        residual = jacobiator(fam, [(element, parity) for _, element, parity, _ in picked])
        location = f"n={n} ({labels})" if n else "n=0"
        if residual.is_zero:
            report.ok("jacobi", location=location)
        else:
            shown = fam.format_value(residual)
            report.fail("jacobi", location=location,
                        expected="0", actual=shown, residual=shown)
    return report


def check_weights_parities(fam: BracketFamily, sig: ShiftSignature,
                           n_max: int = DEFAULT_ARITY) -> Report:
    """Check bracket weights 2-n+k(n-1) and parities eps(n+1)+n on pool tuples."""
    if n_max < 0:
        raise ValueError("a weight and parity check needs an arity of at least 0")
    report = Report(f"bracket weights and parities to arity {n_max} "
                    f"(eps={sig.epsilon}, k={sig.k})")
    for picked, labels in pool_tuples(fam.pool(), n_max):
        n = len(picked)
        location = f"n={n} ({labels})" if n else "n=0"
        if fam.vanishes(n) or (value := fam.bracket([e for _, e, _, _ in picked])).is_zero:
            report.ok("weight-parity", location=location, notes="bracket vanishes")
            continue
        want = Bigrading(
            (sum(parity for _, _, parity, _ in picked) + sig.bracket_parity(n)) % 2,
            sum(weight for _, _, _, weight in picked) + sig.bracket_weight(n))
        try:
            grade = value.bigrading()
        except GradingMismatch:
            grade = None
        ok = grade == want
        report.record(ok, "weight-parity", location=location, expected=str(want),
                      actual="inhomogeneous" if grade is None else str(grade),
                      residual="" if ok else fam.format_value(value))
    return report


def check_leibniz(fam: HamiltonianFamily, trials: int = 20, seed: int = 23) -> Report:
    """Check {a_1..a_m, bc} = {a_1..a_m, b} c + sign * b {a_1..a_m, c} on
    ``trials`` samples drawn from ``random.Random(seed)``, with m from 0 to 2.

    The sign exponent multiplies the parity of b: with arity = m+1, it is
    (sum of a-parities + arity) for epsilon = 0 and (sum + 1) for epsilon = 1,
    which is the reading under which the identity is exact for
    convention-parity masters (odd H / even P).
    """
    if trials < 1:
        raise ValueError("a Leibniz check needs at least 1 trial")
    report = Report(f"Leibniz rule (eps={fam.epsilon})")
    rng = random.Random(seed)
    variables = fam.ct.base.variables
    samples = []
    for _ in range(trials):
        prefix = homogeneous_pool(variables, rng, rng.randint(0, 2))
        b, c = homogeneous_pool(variables, rng, 2)
        samples.append((prefix, b, c))
    for idx, (prefix, b, c) in enumerate(samples):
        arity = len(prefix) + 1
        a_parities = sum(a.bigrading().parity for a in prefix)
        b_parity = b.bigrading().parity
        if fam.epsilon == 0:
            exponent = (a_parities + arity) * b_parity
        else:
            exponent = (a_parities + 1) * b_parity
        sign = -1 if exponent % 2 else 1
        lhs = fam.bracket(prefix + [b * c])
        rhs = fam.bracket(prefix + [b]) * c + sign * (b * fam.bracket(prefix + [c]))
        residual = lhs - rhs
        location = f"sample {idx} (m={len(prefix)})"
        shown = str(residual)
        report.record(residual.is_zero, "leibniz", location=location,
                      expected="0", actual=shown, residual=shown)
    return report


MASTER_PARITY_NOTE = ("convention: odd master on T*M[1-k] (S-infinity), "
                      "even master on Pi T*M[1-k] (P-infinity)")


def check_master(obj: Union[VectorField, Series],
                 ct: Optional[CotangentChart] = None) -> Report:
    """Master equation plus the weight audit (w(Q) = 1, or w = 2-k for masters)."""
    if isinstance(obj, VectorField):
        report = Report("master check for a vector field")
        if obj.is_zero:
            report.ok("master-parity", notes="zero field")
            report.ok("master-equation", expected="0", actual="0")
            return report
        report.record(obj.parity == 1, "master-parity",
                      expected="odd", actual="odd" if obj.parity else "even")
        residual = commutator(obj, obj)
        shown = str(residual)
        report.record(residual.is_zero, "master-equation", location="[Q,Q]",
                      expected="0", actual=shown, residual=shown)
        report.record(obj.weight == 1, "master-weight",
                      expected="1", actual=str(obj.weight))
        return report
    if ct is None:
        raise ChartMismatch("a master function needs its cotangent chart")
    residual = canonical_bracket(obj, obj, ct)
    report = Report(f"master check on {ct.name}")
    if obj.is_zero:
        report.ok("master-equation", expected="0", actual="0", notes="zero master")
        return report
    grade = obj.bigrading()
    k = 1 - ct.shift
    convention = 1 if ct.kind == KIND_EVEN else 0
    report.info("master-parity",
                actual="odd" if grade.parity else "even",
                expected="odd" if convention else "even",
                notes=MASTER_PARITY_NOTE)
    name = "(H,H)" if ct.kind == KIND_EVEN else "[P,P]"
    shown = str(residual)
    report.record(residual.is_zero, "master-equation", location=name,
                  expected="0", actual=shown, residual=shown)
    report.record(grade.weight == 2 - k, "master-weight",
                  expected=str(2 - k), actual=str(grade.weight),
                  notes=f"k = {k} from shift {ct.shift}")
    return report


# ---------------------------------------------------------------------------
# parity reversion transport
# ---------------------------------------------------------------------------

def parity_reverse_brackets(fam: ExplicitFamily) -> ExplicitFamily:
    """Transport a family's whole table across the parity reversion.

    The relation between the two sides reads

        Pi [x_1, ..., x_n] = (-1)^{xt_1 (n-1) + ... + xt_{n-1}} [Pi x_1, ..., Pi x_n]

    where the x_i live on the antisymmetric (epsilon = 0) side.  Solving for
    whichever side is being produced makes the transport an involution:
    applying it twice gives back the original family on every tuple, at
    every arity of its table.
    """
    new_basis = fam.basis.parity_reversed()
    new_epsilon = 1 - fam.epsilon
    # parities of the epsilon=0-side elements drive the sign
    side = fam.basis if fam.epsilon == 0 else new_basis
    entries: Dict[Tuple[int, ...], Series] = {}
    for key, value in fam.table.items():
        transported = new_basis.vector(fam.basis.coordinates(value))
        if _reversion_sign_odd([side[i].parity for i in key]):
            transported = -transported
        entries[key] = transported
    return ExplicitFamily(new_basis, new_epsilon, fam.k, entries)


# ---------------------------------------------------------------------------
# assembling a generating field back from an explicit family
# ---------------------------------------------------------------------------

def assemble_vector_field(fam: ExplicitFamily, n_max: int) -> VectorField:
    """Reconstruct a field whose derived brackets to arity n_max match ``fam``.

    A term c m d/dx, with m a monomial of degree n, has one nonzero n-ary
    bracket at the origin: at the key of m's coordinate indices, sorted with
    multiplicity, on the basis vector of x, where it is c times a unit (plus or
    minus the product of m's exponent factorials).  So the system for the
    coefficients is diagonal: each one is its table entry over its unit.
    """
    sig = fam.signature
    chart = fam.basis.chart(sig)
    constant_fields = _constant_fields(chart, fam.basis, sig)
    # the table's nonzero entries, (key, basis index) -> coefficient
    wanted = {(key, index): coeff for key, value in fam.table.items() if len(key) <= n_max
              for index, coeff in fam.basis.coordinates(value)}
    components: Dict[GradedVariable, List[Series]] = {}
    for var in chart.variables:
        target = Bigrading((var.parity + 1) % 2, var.weight + 1)
        for monomial in enumerate_monomials(chart.variables, n_max):
            if monomial_bigrading(monomial) != target:
                continue
            key = _monomial_key(monomial)
            coeff = wanted.pop((key, var.index), None)
            if coeff is None:
                continue
            term = VectorField(chart, {var: Series({monomial: Fraction(1)})}, 1, 1)
            unit = _derived_at_origin(term, constant_fields, fam.basis, sig, key).coefficient(
                ((fam.basis[var.index], 1),))
            components.setdefault(var, []).append(Series({monomial: coeff / unit}))
    if wanted:
        n = min(len(key) for key, _ in wanted)
        raise GradingMismatch(
            f"no degree-{n} Taylor coefficient reproduces the arity-{n} table")
    return VectorField(chart, {var: Series.sum(terms) for var, terms in components.items()},
                       1, 1)
