import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gradedkernel import homotopy
from gradedkernel.cli import Flags, derive_brackets_report, parse_problem, run
from gradedkernel.errors import ChartMismatch, GradingMismatch
from gradedkernel.geometry import (
    Chart,
    VectorField,
    canonical_bracket,
    commutator,
    is_homological,
    shifted_anticotangent,
    shifted_cotangent,
)
from gradedkernel.graded_core import Bigrading, Series, format_series, monomial_bigrading
from gradedkernel.homotopy import (
    ExplicitFamily,
    HamiltonianFamily,
    QFamily,
    ShiftSignature,
    SpaceBasis,
    assemble_vector_field,
    check_higher_jacobi,
    check_leibniz,
    check_master,
    check_weights_parities,
    constant_field,
    jacobiator,
    parity_reverse_brackets,
    permutation_signs,
    unshuffles,
)
from gradedkernel.sampling import (
    bucket_by_bigrading,
    enumerate_monomials,
    homogeneous_pool,
    random_homogeneous,
)

from helpers import commutator_chain_bracket, full_stencil_bracket, run_gk, vector

V = Series.variable
CORPUS = Path(__file__).parent / "corpus"


def lie2_family(k=0):
    """[e1,e2] = -e2 from Q = xi1 xi2 d/dxi2 (even basis, weights fixed by k)."""
    sig = ShiftSignature(0, k)
    basis = SpaceBasis.build([("e1", 0, -k), ("e2", 0, 0)])
    chart = basis.chart(sig)
    xi1, xi2 = chart.variables
    q = VectorField(chart, {xi2: V(xi1) * V(xi2)}, 1, 1)
    return QFamily(q, basis, sig), q, basis, sig


class TestConstantField:
    def test_plain_case_is_coordinate_derivative(self):
        sig = ShiftSignature(1, 1)  # V[0]
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 1, 0)])
        chart = basis.chart(sig)
        field = constant_field(basis[0], chart, sig, basis)
        assert field.components == {chart.variables[0]: Series.one()}
        assert field.parity == 0 and field.weight == 0 - sig.s

    def test_parity_reversed_case_carries_sign(self):
        sig = ShiftSignature(0, 1)  # PiV[0]
        basis = SpaceBasis.build([("e1", 1, 0)])
        chart = basis.chart(sig)
        field = constant_field(basis[0], chart, sig, basis)
        assert field.components == {chart.variables[0]: Series.constant(-1)}
        assert field.parity == 0  # odd basis vector, odd map

    def test_weight_is_minus_s(self):
        for k in (-1, 0, 2):
            sig = ShiftSignature(0, k)
            basis = SpaceBasis.build([("e1", 0, 3)])
            chart = basis.chart(sig)
            field = constant_field(basis[0], chart, sig, basis)
            assert field.weight == 3 - sig.s


class TestSpaceBasis:
    MIXED = [("a", 0, 0), ("b", 1, 2), ("c", 0, -3), ("d", 1, -1)]

    @pytest.mark.parametrize("epsilon", [0, 1])
    @pytest.mark.parametrize("k", [-1, 0, 1, 2])
    def test_from_chart_recovers_the_basis(self, epsilon, k):
        sig = ShiftSignature(epsilon, k)
        basis = SpaceBasis.build(self.MIXED)
        chart = basis.chart(sig)
        prefix = "xi_" if epsilon == 0 else "y_"
        assert [v.name for v in chart] == [prefix + v.name for v in basis]
        recovered = SpaceBasis.from_chart(chart, sig)
        assert isinstance(recovered, SpaceBasis)
        assert [(v.name, v.parity, v.weight, v.index) for v in recovered] == [
            ("e_" + prefix + v.name, v.parity, v.weight, v.index) for v in basis]

    def test_parity_reversed_twice_is_the_same_basis(self):
        basis = SpaceBasis.build(self.MIXED)
        reversed_once = basis.parity_reversed()
        assert [v.parity for v in reversed_once] == [1, 0, 1, 0]
        assert [v.weight for v in reversed_once] == [v.weight for v in basis]
        assert reversed_once.parity_reversed() == basis

    def test_repeated_name_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate variable name e1"):
            SpaceBasis.build([("e1", 0, 0), ("e2", 1, 0), ("e1", 0, 1)])

    @pytest.mark.parametrize("homological", [True, False])
    def test_qfamily_rejects_a_wrongly_graded_coordinate(self, homological):
        # xi2 should be odd of weight 1 on PiV[1]; the chart is checked
        # whether or not the field is homological
        sig = ShiftSignature(0, 0)
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0)])
        chart = Chart.build([("xi1", 1, 1), ("xi2", 0, 1)])
        xi1, xi2 = chart.variables
        components = {xi1: V(xi2) * V(xi2)}
        if not homological:
            components[xi2] = V(xi1) * V(xi2)
        q = VectorField(chart, components, 1, 1)
        assert is_homological(q) == homological
        with pytest.raises(ChartMismatch,
                           match="coordinate xi2 has bigrading .* for basis vector e2"):
            QFamily(q, basis, sig)


class TestDerivedBracketQ:
    def test_lie2_binary_bracket(self):
        fam, q, basis, sig = lie2_family()
        b12 = fam.bracket_indices((0, 1))
        assert b12 == vector(basis, {1: -1})
        assert fam.bracket_indices((1, 0)) == -b12
        assert fam.bracket_indices((0, 0)).is_zero
        assert fam.bracket_indices((1, 1)).is_zero

    def test_background_is_constant_part(self):
        sig = ShiftSignature(0, 0)
        basis = SpaceBasis.build([("e1", 0, 2), ("e2", 0, 0)])
        chart = basis.chart(sig)
        q = VectorField(chart, {chart.variables[0]: Series.one()}, 1, 1)
        fam = QFamily(q, basis, sig)
        assert fam.bracket_indices(()) == vector(basis, {0: 1})

    def test_a_field_that_is_not_homological_reports_failed_jacobi_sums(self):
        # the family is built, and its check reports the laws that fail
        fam = not_homological_q_family()
        assert not is_homological(fam.q)
        report = check_higher_jacobi(fam, 3)
        failed = [e.location for e in report.failures()]
        assert [location for location in failed if location.startswith("n=3 ")] == [
            "n=3 (e1, e1, e1)", "n=3 (e1, e1, e2)", "n=3 (e1, e2, e1)", "n=3 (e2, e1, e1)"]

    def test_raw_bracket_of_euler_field(self):
        # a family over the (even) Euler field has its 1-bracket:
        # [Q, d/dy](0) = -d/dy, so [e1] = -e1 and all higher brackets vanish
        sig = ShiftSignature(1, 0)
        basis = SpaceBasis.build([("e1", 0, 1)])
        chart = basis.chart(sig)
        euler = VectorField(chart, {chart.variables[0]: V(chart.variables[0])}, 0, 0)
        fam = QFamily(euler, basis, sig)
        assert fam.bracket_indices((0,)) == vector(basis, {0: -1})
        assert fam.bracket_indices((0, 0)).is_zero


class TestEquivalenceTheorem:
    """Homological weight-one fields satisfy Jacobi and the grading tables."""

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_lie2(self, k):
        fam, q, basis, sig = lie2_family(k)
        assert is_homological(q) and q.weight == 1
        assert check_higher_jacobi(fam, 4).passed
        assert check_weights_parities(fam, sig, 4).passed

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_curved(self, k):
        sig = ShiftSignature(0, k)
        basis = SpaceBasis.build([("e1", 0, 2 - k), ("e2", 0, 0)])
        chart = basis.chart(sig)
        q = VectorField(chart, {chart.variables[0]: Series.one()}, 1, 1)
        fam = QFamily(q, basis, sig)
        assert not fam.bracket_indices(()).is_zero
        assert check_higher_jacobi(fam, 3).passed
        assert check_weights_parities(fam, sig, 3).passed

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_odd_linf_case(self, k):
        sig = ShiftSignature(1, k)
        basis = SpaceBasis.build([("e1", 0, -k), ("e2", 1, -k)])
        chart = basis.chart(sig)
        y1, y2 = chart.variables
        q = VectorField(chart, {y1: V(y1) * V(y2)}, 1, 1)
        fam = QFamily(q, basis, sig)
        # symmetric in the supersense: even/odd pair has trivial Koszul sign
        assert fam.bracket_indices((0, 1)) == fam.bracket_indices((1, 0))
        assert check_higher_jacobi(fam, 4).passed
        assert check_weights_parities(fam, sig, 4).passed

    def test_weight_two_field_fails_weight_table(self):
        sig = ShiftSignature(0, 0)
        basis = SpaceBasis.build([("e1", 0, -1), ("e2", 0, 0)])
        chart = basis.chart(sig)
        xi1, xi2 = chart.variables
        q = VectorField(chart, {xi2: V(xi1) * V(xi2)}, 1, 2)
        fam = QFamily(q, basis, sig)
        report = check_weights_parities(fam, sig, 2)
        assert not report.passed
        assert any("weight" in e.expected for e in report.failures())


class TestExplicitFamilies:
    def test_sl2_passes_and_one_flipped_sign_fails(self):
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)])

        def combo(i, c=1):
            return vector(basis, {i: c})

        sl2 = ExplicitFamily(basis, 0, 0,
                             {(0, 1): combo(1, 2), (0, 2): combo(2, -2),
                              (1, 2): combo(0)})
        assert check_higher_jacobi(sl2, 3).passed
        broken = ExplicitFamily(basis, 0, 0,
                                {(0, 1): combo(1, -2), (0, 2): combo(2, -2),
                                 (1, 2): combo(0)})
        report = check_higher_jacobi(broken, 3)
        bad = report.failures()
        assert bad and all("n=3" in e.location for e in bad)

    def test_symmetrization_warning(self):
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0)])
        inconsistent = ExplicitFamily(
            basis, 0, 0,
            {(0, 1): vector(basis, {1: 1}),
             (1, 0): vector(basis, {1: 1})})
        assert inconsistent.load_warnings
        assert inconsistent.bracket_indices((0, 1)).is_zero

    def test_forced_zero_slots(self):
        # antisymmetric brackets with a repeated even entry vanish; symmetric
        # ones with a repeated odd entry vanish
        basis = SpaceBasis.build([("e", 0, 0), ("o", 1, 0)])
        anti = ExplicitFamily(basis, 0, 0,
                              {(0, 0): vector(basis, {0: 1})})
        assert anti.load_warnings and anti.bracket_indices((0, 0)).is_zero
        sym = ExplicitFamily(basis, 1, 0,
                             {(1, 1): vector(basis, {0: 1})})
        assert sym.load_warnings and sym.bracket_indices((1, 1)).is_zero


def bubble_sign(indices, parities, epsilon):
    """The sign carrying a bracket value at ``indices`` to the sorted slot, by
    replaying a bubble sort's adjacent transpositions; each one gives -1 for
    epsilon = 0 and -1 for two odd entries."""
    order = sorted(range(len(indices)), key=lambda j: indices[j])
    target = {pos: rank for rank, pos in enumerate(order)}
    ranks = [target[j] for j in range(len(indices))]
    parities = [parities[i] for i in indices]
    sign = 1
    for i in range(len(ranks)):
        for j in range(len(ranks) - 1 - i):
            if ranks[j] > ranks[j + 1]:
                if epsilon == 0:
                    sign = -sign
                if parities[j] and parities[j + 1]:
                    sign = -sign
                ranks[j], ranks[j + 1] = ranks[j + 1], ranks[j]
                parities[j], parities[j + 1] = parities[j + 1], parities[j]
    return sign


@pytest.mark.parametrize("epsilon", [0, 1])
def test_explicit_bracket_on_permuted_inputs(epsilon):
    # a value on every sorted slot to arity 5 of a mixed-parity basis; slots
    # forced to zero by graded symmetry are dropped on load
    basis = SpaceBasis.build([("a", 0, 0), ("b", 1, 0), ("c", 0, 1), ("d", 1, 1)])
    parities = [v.parity for v in basis]
    entries = {key: vector(basis, {len(key) % 4: 1 + sum(key)})
               for n in range(6)
               for key in itertools.combinations_with_replacement(range(4), n)}
    fam = ExplicitFamily(basis, epsilon, 0, entries)
    for n in range(6):
        for indices in itertools.product(range(4), repeat=n):
            stored = fam.table.get(tuple(sorted(indices)), Series.zero())
            assert fam.bracket_indices(indices) == \
                stored * bubble_sign(indices, parities, epsilon)


class TestHamiltonianFamilies:
    def test_flat_metric_binary_bracket(self):
        chart = Chart.build([("x", 0, 0)], "R")
        ct = shifted_cotangent(chart, 1)
        x, = chart.variables
        p, = ct.fiber
        H = V(p) * V(p) / 2
        assert HamiltonianFamily(H, ct).bracket([V(x), V(x)]) == Series.one()
        assert HamiltonianFamily(H, ct).bracket([V(x) ** 2, V(x) ** 3]) == 6 * V(x) ** 3

    def test_zero_arity_is_restriction(self):
        chart = Chart.build([("x", 0, 0), ("xi", 1, 0), ("eta", 1, 2)], "M")
        ct = shifted_cotangent(chart, -1)
        x, xi, eta = chart.variables
        px, pxi, peta = ct.fiber
        H = V(eta) + V(px) * V(pxi)
        assert HamiltonianFamily(H, ct).bracket([]) == V(eta)

    def test_momentum_free_master_brackets_vanish(self):
        chart = Chart.build([("x", 0, 0)], "R")
        ct = shifted_cotangent(chart, 1)
        x, = chart.variables
        assert HamiltonianFamily(V(x), ct).bracket([V(x)]).is_zero

    def test_master_checks(self):
        chart = Chart.build([("x", 0, 0)], "R")
        ct = shifted_cotangent(chart, 1)  # k = 0, master weight 2
        p, = ct.fiber
        H = V(p) * V(p) / 2
        assert check_master(H, ct).passed
        # wrong weight is flagged
        bad = check_master(V(p), ct)
        assert not bad.passed

    def test_check_master_refuses_a_truncated_master(self):
        chart = Chart.build([("x", 0, 0), ("xi", 1, -1)], "M")
        ct = shifted_cotangent(chart, 0)
        p, pi = (V(var) for var in ct.fiber)
        H = p * pi + p * p * pi
        assert check_master(H, ct).passed and check_master(Series.zero(), ct).passed
        for cut in (H.truncate(2), H.truncate(3), Series.zero(2), Series.zero(0)):
            with pytest.raises(GradingMismatch, match="exact series"):
                check_master(cut, ct)

    def test_master_equation_failure_reported(self):
        # H = x p_xi + xi p_x corresponds to Q = x d/dxi + xi d/dx, which has
        # [Q,Q] != 0, so (H,H) != 0
        chart = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
        ct = shifted_cotangent(chart, 1)
        x, xi = chart.variables
        px, pxi = ct.fiber
        H = V(x) * V(pxi) + V(xi) * V(px)
        report = check_master(H, ct)
        equation = [e for e in report.entries if e.check_id == "master-equation"]
        assert equation and equation[0].status == "fail"

    def test_leibniz_both_signs(self):
        chart = Chart.build([("x", 0, 0), ("xi", 1, -1)], "M")
        ct = shifted_cotangent(chart, 0)
        px, pxi = ct.fiber
        sinf = HamiltonianFamily(V(px) * V(pxi), ct)
        assert sinf.epsilon == 1
        assert check_leibniz(sinf, trials=15, seed=3).passed
        base = Chart.build([("x1", 0, -1), ("x2", 0, -1)], "g")
        act = shifted_anticotangent(base, 0)
        x1, x2 = base.variables
        xs1, xs2 = act.fiber
        pinf = HamiltonianFamily(V(x2) * V(xs1) * V(xs2), act)
        assert pinf.epsilon == 0
        assert check_leibniz(pinf, trials=15, seed=3).passed

    @pytest.mark.parametrize("specs", [
        [("x", 0, 0), ("xi", 1, -1)],
        [("x1", 0, -1), ("x2", 0, -1)],
        [("a", 1, 0), ("b", 0, 2), ("c", 1, -1)],
        [("t", 1, 1)],
    ], ids=lambda specs: "".join(name for name, _, _ in specs))
    def test_leibniz_draws_its_samples_as_with_retries(self, monkeypatch, specs):
        chart = Chart.build(specs, "M")
        ct = shifted_cotangent(chart, 0)
        fam = HamiltonianFamily(V(ct.fiber[0]), ct)
        drawn = []
        monkeypatch.setattr(homotopy, "homogeneous_pool",
                            lambda *args: drawn.append(homogeneous_pool(*args)) or drawn[-1])
        for seed in range(40):
            drawn.clear()
            report = check_leibniz(fam, trials=6, seed=seed)
            want = leibniz_samples_with_retries(chart.variables, random.Random(seed), 6)
            assert [e.location for e in report.entries] == [
                f"sample {i} (m={len(prefix)})" for i, (prefix, _, _) in enumerate(want)]
            assert [s for pool in drawn for s in pool] == [
                s for prefix, b, c in want for s in prefix + [b, c]]

    def test_unit_second_argument_is_trivial(self):
        # Leibniz at b = 1, whose sign is +1 as 1 is even:
        # {a.., 1 c} = {a.., 1} c + {a.., c}, and {a.., 1} = 0
        chart = Chart.build([("x", 0, 0)], "R")
        ct = shifted_cotangent(chart, 1)
        x, = chart.variables
        fam = HamiltonianFamily(V(ct.fiber[0]) ** 2 / 2, ct)
        one, c = Series.one(), V(x) ** 2
        for prefix in ([], [V(x)]):
            assert fam.bracket(prefix + [one]).is_zero
            assert fam.bracket(prefix + [one * c]) == \
                fam.bracket(prefix + [one]) * c + one * fam.bracket(prefix + [c])
        assert fam.bracket([V(x), c]) == 2 * V(x)


def leibniz_samples_with_retries(variables, rng, trials):
    """Reference: Leibniz samples drawn again after a zero series, which an
    unconstrained draw never is."""
    def pool(size):
        out = []
        attempts = 0
        while len(out) < size and attempts < size * 20:
            attempts += 1
            candidate = random_homogeneous(variables, rng, 2)
            if not candidate.is_zero:
                out.append(candidate)
        return out

    samples = []
    for _ in range(trials):
        m = rng.randint(0, 2)
        prefix = []
        while len(prefix) < m:
            candidate = pool(1)
            if candidate:
                prefix.append(candidate[0])
        b = c = None
        while b is None or c is None:
            extra = pool(2)
            if len(extra) >= 2:
                b, c = extra[0], extra[1]
        samples.append((prefix, b, c))
    return samples


def hamiltonian_cases():
    """(master, chart, inputs) for an S-infinity and a P-infinity family.

    The inputs are exact, and include sums of the others: brackets take
    exact series only.
    """
    chart = Chart.build([("x", 0, 0), ("xi", 1, -1)], "M")
    ct = shifted_cotangent(chart, 0)
    x, xi = chart.variables
    p, pi = ct.fiber
    sinf_inputs = [V(x), V(xi), V(x) ** 2, V(x) * V(xi), Series.one(),
                   V(x) ** 2 - 3 * V(x), V(x) * V(xi) + 2 * V(xi)]
    base = Chart.build([("x1", 0, -1), ("x2", 0, -1)], "g")
    act = shifted_anticotangent(base, 0)
    x1, x2 = base.variables
    xs1, xs2 = act.fiber
    pinf_inputs = [V(x1), V(x2), V(x1) * V(x2), V(x2) ** 2,
                   V(x1) + 2 * V(x2), V(x1) * V(x2) - V(x2) ** 2]
    return [(V(p) * V(pi) + V(p) * V(p) * V(pi), ct, sinf_inputs),
            (V(x2) * V(xs1) * V(xs2) + V(x1) * V(xs1) * V(xs2), act, pinf_inputs)]


HAMILTONIAN_CASES = hamiltonian_cases()


def iterated_bracket(master, inputs, ct):
    """Reference: the derived bracket as a plain fold, with no cache."""
    current = master
    for f in inputs:
        current = canonical_bracket(current, f, ct)
    return current.fiber_slice(0, 0)


class TestBracketCaches:
    """A family's prefix cache returns what a fresh computation returns."""

    @settings(max_examples=60, deadline=None)
    @given(case=st.sampled_from(HAMILTONIAN_CASES),
           calls=st.lists(st.lists(st.integers(0, 6), max_size=4), max_size=12),
           data=st.data())
    def test_cached_hamiltonian_bracket_matches_fresh(self, case, calls, data):
        master, ct, inputs = case
        calls = [[i % len(inputs) for i in call] for call in calls]
        # repeat and permute earlier calls so that the cache is hit
        calls += [data.draw(st.permutations(call)) for call in calls]
        calls = data.draw(st.permutations(calls))
        fam = HamiltonianFamily(master, ct)
        for call in calls:
            args = [inputs[i] for i in call]
            got = fam.bracket(args)
            fresh = HamiltonianFamily(master, ct).bracket(args)
            want = iterated_bracket(master, args, ct)
            assert got == fresh == want
            assert got.truncation_order is fresh.truncation_order is want.truncation_order is None

    def test_a_truncated_copy_of_a_held_input_is_refused(self):
        # Series equality ignores the truncation order, so a copy would share
        # the exact input's key if inputs were looked up by value alone
        master, ct, inputs = HAMILTONIAN_CASES[0]
        square, xi = inputs[2], inputs[1]
        assert iterated_bracket(master, [square, xi], ct) == -2 * V(ct.base.variables[0])
        for fam in (HamiltonianFamily(master, ct), lie2_family()[0]):
            exact, other = (square, xi) if fam.epsilon else (
                element for _, element, _, _ in fam.pool())
            value = fam.bracket([exact, other])
            if fam.epsilon:
                assert value == iterated_bracket(master, [exact, other], ct)
            assert value.truncation_order is None
            copy = exact.truncate(0)
            assert copy == exact and copy is not exact and copy.truncation_order == 0
            for args in ([copy, other], [other, copy], [copy]):
                with pytest.raises(GradingMismatch, match="exact series"):
                    fam.bracket(args)
            assert fam.bracket([exact, other]) is value and len(fam._inputs) == 2

    def test_a_truncated_input_is_refused(self):
        for name, order in itertools.product(["sinf", "pinf", "lie2", "broken-jacobi"],
                                             [0, 1, 2]):
            fam = JACOBI_FAMILIES[name]()
            pool = [element for _, element, _, _ in fam.pool()]
            cut = pool[0].truncate(order)
            for args in ([cut], [pool[1], cut], [cut, cut, pool[0]]):
                with pytest.raises(GradingMismatch, match="exact series"):
                    fam.bracket(args)
                with pytest.raises(GradingMismatch, match="exact series"):
                    jacobiator(fam, [(a, 0) for a in args], len(args))
            # past the arity bound too, where the plan brackets nothing
            n = 2 * fam.arity_bound
            with pytest.raises(GradingMismatch, match="exact series"):
                jacobiator(fam, [(cut, 0)] * n, n)
            assert not fam._values

    @settings(max_examples=40, deadline=None)
    @given(calls=st.lists(st.lists(st.integers(0, 1), max_size=4), max_size=12))
    def test_cached_q_bracket_matches_fresh(self, calls):
        fam, q, basis, sig = lie2_family()
        for call in calls + calls[::-1]:
            fresh, _, _, _ = lie2_family()
            assert fam.bracket_indices(tuple(call)) == fresh.bracket_indices(tuple(call))


def odd_q_family():
    """An epsilon = 1 family: Q = y1 y2 d/dy1 on V[0], e1 even and e2 odd."""
    sig = ShiftSignature(1, 0)
    basis = SpaceBasis.build([("e1", 0, 0), ("e2", 1, 0)])
    chart = basis.chart(sig)
    y1, y2 = chart.variables
    return QFamily(VectorField(chart, {y1: V(y1) * V(y2)}, 1, 1), basis, sig)


# fresh families of both epsilons, one with nonzero Jacobi residuals
JACOBI_FAMILIES = {
    "sinf": lambda: HamiltonianFamily(*HAMILTONIAN_CASES[0][:2]),
    "pinf": lambda: HamiltonianFamily(*HAMILTONIAN_CASES[1][:2]),
    "lie2": lambda: lie2_family()[0],
    "odd-q": odd_q_family,
    "broken-jacobi": lambda: parse_problem(
        (CORPUS / "broken_jacobi.gk").read_text()).families["G"],
    "reversed-lie2": lambda: parity_reverse_brackets(lie2_family()[0]),
}


def unshuffle_loop_jacobiator(fam, inputs, n):
    """Reference: the Jacobi sum with each unshuffle's sign worked out inside
    the loop and the terms added one at a time."""
    elements = [e for e, _ in inputs]
    parities = [p for _, p in inputs]
    total = Series.zero()
    for r in range(n + 1):
        s = n - r
        for first, second in unshuffles(n, r):
            sgn, koszul = permutation_signs(first + second, parities)
            sign = koszul
            if fam.epsilon == 0:
                sign *= sgn
                if (r * s) % 2:
                    sign = -sign
            inner = fam.bracket([elements[j] for j in first])
            if inner.is_zero:
                continue
            outer = fam.bracket([inner] + [elements[j] for j in second])
            if outer.is_zero:
                continue
            total = total + outer if sign > 0 else total - outer
    return total


class TestJacobiPlans:
    """A Jacobi sum replayed from a plan equals the per-unshuffle loop."""

    @settings(max_examples=120, deadline=None)
    @given(name=st.sampled_from(sorted(JACOBI_FAMILIES)), data=st.data())
    def test_plan_replay_matches_the_unshuffle_loop(self, name, data):
        fam = JACOBI_FAMILIES[name]()
        pool = fam.pool()
        n = data.draw(st.integers(0, 5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        # any parity pattern, not only the inputs' own: the plan's signs
        # depend on the pattern alone
        parities = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        inputs = [(pool[i][1], parity) for i, parity in zip(picks, parities)]
        got = jacobiator(fam, inputs, n)
        want = unshuffle_loop_jacobiator(JACOBI_FAMILIES[name](), inputs, n)
        assert got == want and str(got) == str(want)
        assert getattr(got, "truncation_order", None) == \
            getattr(want, "truncation_order", None)

    def test_broken_jacobi_residuals_match(self):
        fam = JACOBI_FAMILIES["broken-jacobi"]()
        reference = JACOBI_FAMILIES["broken-jacobi"]()
        pool = fam.pool()
        nonzero = 0
        for picked in itertools.product(pool, repeat=3):
            inputs = [(element, parity) for _, element, parity, _ in picked]
            got = jacobiator(fam, inputs, 3)
            assert got == unshuffle_loop_jacobiator(reference, inputs, 3)
            nonzero += not got.is_zero
        assert nonzero

    @pytest.mark.parametrize("name, arity", [("sinf", 4), ("pinf", 4), ("lie2", 4),
                                             ("odd-q", 4), ("broken-jacobi", 3)])
    def test_a_check_builds_at_most_two_to_the_n_plans(self, monkeypatch, name, arity):
        built = []
        jacobi_plan = homotopy.jacobi_plan

        def counted(n, parities, epsilon):
            built.append((n, tuple(parities), epsilon))
            return jacobi_plan(n, parities, epsilon)

        monkeypatch.setattr(homotopy, "jacobi_plan", counted)
        fam = JACOBI_FAMILIES[name]()
        check_higher_jacobi(fam, arity)
        assert len(set(built)) == len(built)
        assert {epsilon for _, _, epsilon in built} == {fam.epsilon}
        for n in range(arity + 1):
            assert 0 < sum(1 for m, _, _ in built if m == n) <= 2 ** n


def three_arity_family():
    """A Hamiltonian family whose master has terms of fiber degree 1, 2 and
    3, so it has a unary, a binary and a ternary bracket."""
    master, ct, _ = HAMILTONIAN_CASES[0]
    x = V(ct.base.variables[0])
    p, pi = (V(v) for v in ct.fiber)
    return HamiltonianFamily(x * pi + p * pi + p * p * pi, ct)


def not_homological_q_family():
    """Q = y1 y2 d/dy1 + y1^2 d/dy2, with [Q, Q] != 0."""
    sig = ShiftSignature(1, 0)
    basis = SpaceBasis.build([("e1", 0, 0), ("e2", 1, 0)])
    chart = basis.chart(sig)
    y1, y2 = chart.variables
    q = VectorField(chart, {y1: V(y1) * V(y2), y2: V(y1) ** 2}, 1, 1)
    return QFamily(q, basis, sig)


# families and inputs with many nonzero Jacobi sums, so that cutting a term
# that is not zero changes some sum: Hamiltonian sums under any parity
# pattern, a field that is not homological and a table that fails Jacobi
CUT_FAMILIES = {
    "sinf": JACOBI_FAMILIES["sinf"],
    "pinf": JACOBI_FAMILIES["pinf"],
    "sinf-three-arities": three_arity_family,
    "broken-jacobi": JACOBI_FAMILIES["broken-jacobi"],
    "q-not-homological": not_homological_q_family,
}


def cut_inputs(fam):
    """The family's pool, with exact sums of its entries: for a Hamiltonian
    family each sum of two entries of one bigrading and each product of two
    neighbours, for a basis family two vectors that have every basis vector
    in them."""
    pool = [element for _, element, _, _ in fam.pool()]
    if isinstance(fam, HamiltonianFamily):
        return (pool + [f + 2 * g for f, g in itertools.combinations(pool, 2)
                        if f.bigrading() == g.bigrading()]
                + [f * g for f, g in zip(pool, pool[1:])])
    return pool + [Series.sum([f * (i + 1) for i, f in enumerate(pool)]),
                   Series.sum([f * Fraction((-1) ** i, i + 2) for i, f in enumerate(pool)])]


class TestArityBounds:
    """A family's arity bound, and the Jacobi plans cut at it."""

    @pytest.mark.parametrize("name, bound", [
        ("sinf", 3), ("pinf", 2), ("lie2", 2), ("odd-q", 2), ("broken-jacobi", 2),
        ("reversed-lie2", 2)])
    def test_each_family_reads_its_bound_off_its_generator(self, name, bound):
        assert JACOBI_FAMILIES[name]().arity_bound == bound

    def test_bounds_of_families_with_brackets_of_several_arities(self):
        assert three_arity_family().arity_bound == 3
        assert not_homological_q_family().arity_bound == 2
        sig = ShiftSignature(1, 0)
        basis = SpaceBasis.build([("e1", 0, 1), ("e2", 1, 0)])
        u, w = basis.chart(sig).variables
        q = VectorField(basis.chart(sig), {u: V(w) + V(u) ** 3 * V(w)}, 1, 1)
        assert QFamily(q, basis, sig).arity_bound == 4
        e1 = vector(basis, {0: 1})
        table = {(): e1, (0, 0, 1, 0, 0): e1, (1, 1, 0, 0, 0, 0): e1}
        # the key with a repeated odd entry is zero in a symmetric table
        assert ExplicitFamily(basis, 1, 0, table).arity_bound == 5
        assert ExplicitFamily(basis, 1, 0, {}).arity_bound == 0

    def test_a_plan_is_cut_only_past_the_bound(self):
        master, ct, _ = HAMILTONIAN_CASES[0]
        fam = HamiltonianFamily(master, ct)
        assert fam.arity_bound == 3
        check_higher_jacobi(fam, 5)
        assert {n for n, _ in fam._plans} == set(range(6))
        for (n, parities), plan in fam._plans.items():
            full = homotopy.jacobi_plan(n, parities, fam.epsilon)
            assert plan == full if n < 3 else len(plan) < len(full)

    def test_a_truncated_master_is_refused(self):
        # a master cut at fiber degree 2 knows nothing of the arity-3
        # brackets, which are not zero on the exact one
        fam = parse_problem((CORPUS / "master_sinf.gk").read_text()).families["FH"]
        f1, f2, f3 = (element for _, element, _, _ in fam.pool()[:3])
        assert format_series(fam.bracket([f1, f2, f3])) == "-120 * x * xi - 80 * xi"
        for order in (0, 2, 3, 4):
            with pytest.raises(GradingMismatch, match="exact series"):
                HamiltonianFamily(fam.master.truncate(order), fam.ct)

    @pytest.mark.parametrize("name", sorted(CUT_FAMILIES))
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_a_cut_plan_sums_like_the_unshuffle_loop(self, name, data):
        fam, reference = CUT_FAMILIES[name](), CUT_FAMILIES[name]()
        pool = cut_inputs(fam)
        n = data.draw(st.integers(0, 5))
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        # every parity pattern: each has its own plan, cut on its own
        for parities in itertools.product((0, 1), repeat=n):
            inputs = [(pool[i], parity) for i, parity in zip(picks, parities)]
            got = jacobiator(fam, inputs, n)
            want = unshuffle_loop_jacobiator(reference, inputs, n)
            assert got == want and str(got) == str(want)
            assert got.truncation_order is want.truncation_order is None

    @pytest.mark.parametrize("name", sorted(CUT_FAMILIES))
    def test_the_tuples_a_bound_skips_bracket_to_zero(self, name):
        fam = CUT_FAMILIES[name]()
        n = fam.arity_bound + 1
        report = check_weights_parities(fam, fam.signature, n)
        skipped = [e for e in report.entries if e.location.startswith(f"n={n} ")]
        assert len(skipped) == len(fam.pool()) ** n
        assert all(e.status == "pass" and e.notes == "bracket vanishes" for e in skipped)
        assert fam.vanishes(n) and not any(len(keys) == n for keys in fam._values)
        derived = CUT_FAMILIES[name]()
        derive_brackets_report(derived, n + 1)
        assert max(map(len, derived._values)) == n - 1
        pool = [element for _, element, _, _ in fam.pool()]
        inputs = cut_inputs(fam)
        rng = random.Random(n)
        for picks in itertools.chain(itertools.product(pool, repeat=n),
                                     ([rng.choice(inputs) for _ in range(n)] for _ in range(200))):
            assert fam.bracket(list(picks)).is_zero

    def test_an_input_off_the_chart_is_rejected_past_the_bound(self):
        master, ct, _ = HAMILTONIAN_CASES[0]
        fam = HamiltonianFamily(master, ct)
        stray = V(Chart.build([("u", 0, 0)], "N").variables[0])
        # at arity 6 a fiber degree of 3 leaves no term of the plan
        with pytest.raises(ChartMismatch, match="not on the chart: u"):
            jacobiator(fam, [(stray, 0)] * 6, 6)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(HAMILTONIAN_CASES),
       picks=st.lists(st.integers(0, 6), max_size=4))
def test_iterated_bracket_equals_the_full_stencil_fold(case, picks):
    master, ct, inputs = case
    args = [inputs[i % len(inputs)] for i in picks]
    want = master
    for f in args:
        want = full_stencil_bracket(want, f, ct)
    want = want.fiber_slice(0, 0)
    got = iterated_bracket(master, args, ct)
    assert got == want and str(got) == str(want)
    assert got.truncation_order is want.truncation_order is None


def test_an_input_equal_to_a_held_one_is_not_held():
    fam = JACOBI_FAMILIES["sinf"]()
    f = fam.pool()[1][1]
    value = fam.bracket([f, f])
    held = len(fam._key_by_id)
    for _ in range(20):
        copy = f + Series.zero()
        assert copy is not f
        assert fam.bracket([copy, copy]) is value
    assert len(fam._key_by_id) == held


def canonical_brackets_of_a_jacobi_check(monkeypatch, stem, family, arity):
    """The canonical brackets that ``check-jacobi`` makes on a corpus family."""
    declarations = [line for line in (CORPUS / f"{stem}.gk").read_text().splitlines()
                    if not line.startswith("task")]
    problem = parse_problem("\n".join(declarations) +
                            f"\ntask check-jacobi {family} arity {arity}\n")
    made = []
    canonical_bracket = homotopy.canonical_bracket

    def counted(f, g, ct):
        made.append((f, g))
        return canonical_bracket(f, g, ct)

    monkeypatch.setattr(homotopy, "canonical_bracket", counted)
    results, all_pass = run(problem, Flags())
    assert all_pass and len(results) == 1
    return made


# A family brackets the master with coordinate functions only, once per
# coordinate tuple its table reads (`HamiltonianFamily._chained`).  FH made
# 248 and FP 42 when each bracket was a chain over its inputs; FP made 167
# before its plans were cut at its master's fiber degree, 2
@pytest.mark.parametrize("stem, family, count", [("master_sinf", "FH", 12),
                                                 ("master_pinf", "FP", 6)])
def test_jacobi_check_makes_a_fixed_number_of_canonical_brackets(monkeypatch, stem,
                                                                 family, count):
    assert len(canonical_brackets_of_a_jacobi_check(monkeypatch, stem, family, 3)) == count


def test_an_arity_5_jacobi_check_brackets_few_zero_prefixes(monkeypatch):
    # 6,428 brackets, 3,885 of them from a zero prefix, before the cut; 1,178
    # and 15 with input chains.  The table of a fiber-degree-3 master is
    # whole at arity 3, and a zero prefix is never extended
    made = canonical_brackets_of_a_jacobi_check(monkeypatch, "master_sinf", "FH", 5)
    assert len(made) == 12
    assert sum(f.is_zero for f, _ in made) == 0


class TestMasterVectorField:
    def test_q_master(self):
        chart = Chart.build([("xi1", 1, 1), ("xi2", 1, 0)], "PiV")
        xi1, xi2 = chart.variables
        q = VectorField(chart, {xi2: V(xi1) * V(xi2)}, 1, 1)
        assert check_master(q).passed

    def test_even_field_fails_parity(self):
        chart = Chart.build([("x", 0, 0)], "M")
        x, = chart.variables
        e = VectorField(chart, {x: V(x)}, 0, 0)
        assert not check_master(e).passed


class TestParityReversion:
    def test_round_trip_is_identity(self):
        rng = random.Random(5)
        for _ in range(8):
            dim = rng.randint(2, 3)
            eps = rng.randint(0, 1)
            basis = SpaceBasis.build(
                [(f"e{i + 1}", rng.randint(0, 1), rng.randint(-1, 1))
                 for i in range(dim)])
            entries = {}
            for n in range(4):
                for key in itertools.combinations_with_replacement(range(dim), n):
                    if rng.random() < 0.4:
                        entries[key] = vector(
                            basis, {rng.randrange(dim): rng.randint(-3, 3)})
            fam = ExplicitFamily(basis, eps, rng.randint(0, 2), entries)
            double = parity_reverse_brackets(parity_reverse_brackets(fam))
            for n in range(4):
                for key in itertools.product(range(dim), repeat=n):
                    assert fam.bracket_indices(key) == double.bracket_indices(key)

    def test_all_even_binary_prefactor_is_plus_one(self):
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0)])
        fam = ExplicitFamily(basis, 0, 0,
                             {(0, 1): vector(basis, {1: 1})})
        transported = parity_reverse_brackets(fam)
        assert transported.epsilon == 1
        assert transported.bracket_indices((0, 1)) == \
            vector(transported.basis, {1: 1})

    def test_unary_prefactor_trivial(self):
        basis = SpaceBasis.build([("e1", 1, 0), ("e2", 0, 1)])
        fam = ExplicitFamily(basis, 0, 0,
                             {(0,): vector(basis, {1: 2})})
        transported = parity_reverse_brackets(fam)
        assert transported.bracket_indices((0,)) == \
            vector(transported.basis, {1: 2})

    def test_round_trip_keeps_entries_above_arity_four(self):
        basis = SpaceBasis.build([("a", 0, 0), ("b", 1, 0)])
        a = vector(basis, {0: 1})
        fam = ExplicitFamily(basis, 1, 0, {(0, 0, 0, 0, 0): a, (0, 0): 2 * a})
        assert fam.arity_bound == 5
        transported = parity_reverse_brackets(fam)
        assert transported.arity_bound == 5
        assert set(transported.table) == {(0, 0), (0, 0, 0, 0, 0)}
        double = parity_reverse_brackets(transported)
        assert double.arity_bound == 5
        assert double.table == fam.table

    def test_transport_preserves_jacobi(self):
        fam, q, basis, sig = lie2_family()
        transported = parity_reverse_brackets(fam)
        assert transported.epsilon == 1
        assert check_higher_jacobi(transported, 3).passed
        back = parity_reverse_brackets(transported)
        assert back.epsilon == 0
        assert check_higher_jacobi(back, 3).passed


class TestAssembly:
    def test_family_to_field_round_trip(self):
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0)])
        fam = ExplicitFamily(basis, 0, 0,
                             {(0, 1): vector(basis, {1: 1})})
        q = assemble_vector_field(fam, 3)
        assert is_homological(q)
        rebuilt = QFamily(q, basis, ShiftSignature(0, 0))
        for key in itertools.product(range(2), repeat=2):
            assert rebuilt.bracket_indices(key) == fam.bracket_indices(key)

    def test_jacobi_family_gives_square_zero_component(self):
        # a family passing Jacobi to arity N assembles into a field whose
        # self-commutator vanishes in low polynomial degrees
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)])

        def combo(i, c=1):
            return vector(basis, {i: c})

        sl2 = ExplicitFamily(basis, 0, 0,
                             {(0, 1): combo(1, 2), (0, 2): combo(2, -2),
                              (1, 2): combo(0)})
        q = assemble_vector_field(sl2, 3)
        assert commutator(q, q).is_zero

    def test_one_bracket_per_term(self, monkeypatch):
        basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)])
        sl2 = ExplicitFamily(basis, 0, 0,
                             {(0, 1): vector(basis, {1: 2}), (0, 2): vector(basis, {2: -2}),
                              (1, 2): vector(basis, {0: 1})})
        calls = []
        original = homotopy._derived_at_origin
        monkeypatch.setattr(homotopy, "_derived_at_origin",
                            lambda *args: calls.append(args[-1]) or original(*args))
        q = assemble_vector_field(sl2, 3)
        assert len(calls) == sum(len(c.items()) for c in q.components.values()) == 3

    @pytest.mark.parametrize("make", [lambda: lie2_family()[0], not_homological_q_family],
                             ids=["lie2", "not-homological"])
    def test_a_q_family_brackets_each_taylor_term_once(self, monkeypatch, make):
        calls = []
        original = homotopy._derived_at_origin
        monkeypatch.setattr(homotopy, "_derived_at_origin",
                            lambda *args: calls.append(args[-1]) or original(*args))
        fam = make()
        terms = [monomial for c in fam.q.components.values() for monomial, _ in c.items()]
        assert len(calls) == len(terms)
        assert sorted(calls) == sorted(homotopy._monomial_key(m) for m in terms)
        check_higher_jacobi(fam, 4)
        assert len(calls) == len(terms)

    @pytest.mark.parametrize("n_max, key, coeff", [(1, (0,), Fraction(-1, 2)), (0, (), 3)],
                             ids=["arity-1", "arity-0"])
    def test_an_entry_no_term_reaches_raises(self, n_max, key, coeff):
        # e1 is even of weight 1; at eps 1, k 0 its coordinate is even of
        # weight 0, so no term of an odd weight-1 field reaches the entry
        basis = SpaceBasis.build([("e1", 0, 1)])
        fam = ExplicitFamily(basis, 1, 0, {key: vector(basis, {0: coeff})})
        n = len(key)
        with pytest.raises(GradingMismatch, match=f"no degree-{n} Taylor coefficient "
                                                  f"reproduces the arity-{n} table"):
            assemble_vector_field(fam, n_max)

    # eps 0 tables whose every key has an odd parity-reversion sign, at
    # arities 2 and 3, repeated indices included
    @pytest.mark.parametrize("specs, k, entries", [
        ([("e1", 1, 1), ("e2", 0, 0)], 0, {(0, 1): {0: 3}, (0, 0, 1): {0: Fraction(-1, 2)}}),
        ([("e1", 1, 0), ("e2", 0, 1)], 1, {(0, 0): {1: 2}, (0, 0, 0): {1: -5}}),
        ([("e1", 0, 0), ("e2", 1, -1)], 2, {(1, 1): {0: -1}, (1, 1, 1): {0: Fraction(4, 3)}}),
    ], ids=["k0-mixed-keys", "k1-repeated-keys", "k2-repeated-keys"])
    def test_an_assembled_field_brackets_like_its_table_at_odd_reversion_keys(
            self, specs, k, entries):
        basis = SpaceBasis.build(specs)
        sig = ShiftSignature(0, k)
        assert all(homotopy._reversion_sign_odd([basis[i].parity for i in key])
                   for key in entries)
        fam = ExplicitFamily(basis, 0, k, {key: vector(basis, coeffs)
                                           for key, coeffs in entries.items()})
        assert not fam.load_warnings
        q = assemble_vector_field(fam, 3)
        degrees = {sum(e for _, e in m) for c in q.components.values() for m, _ in c.items()}
        assert degrees == {2, 3}
        # the whole field's commutator chain, not the per-term bracket that
        # assembly divides by
        for n in range(4):
            for indices in itertools.product(range(len(basis)), repeat=n):
                want = fam.bracket_indices(indices)
                assert commutator_chain_bracket(q, basis, sig, indices) == want

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.integers(1, 3), epsilon=st.integers(0, 1),
           k=st.integers(0, 2), n_max=st.integers(0, 3))
    def test_a_field_assembles_back_from_its_own_table(self, data, dim, epsilon, k, n_max):
        basis = SpaceBasis.build([(f"e{i + 1}", data.draw(st.integers(0, 1)),
                                   data.draw(st.integers(-2, 2))) for i in range(dim)])
        sig = ShiftSignature(epsilon, k)
        chart = basis.chart(sig)
        coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
        components = {}
        for var in chart:
            target = Bigrading((var.parity + 1) % 2, var.weight + 1)
            components[var] = Series.sum([
                Series({m: data.draw(coefficients)})
                for m in enumerate_monomials(chart.variables, n_max)
                if monomial_bigrading(m) == target])
        q = VectorField(chart, components, 1, 1)
        derived = QFamily(q, basis, sig)
        table = {key: derived.bracket_indices(key) for n in range(n_max + 1)
                 for key in itertools.combinations_with_replacement(range(dim), n)}
        fam = ExplicitFamily(basis, epsilon, k, table)
        assert not fam.load_warnings
        assert assemble_vector_field(fam, n_max) == q


@settings(max_examples=150, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), epsilon=st.integers(0, 1),
       k=st.integers(0, 2), degree=st.integers(0, 3))
def test_a_q_table_brackets_like_the_commutator_chain(data, dim, epsilon, k, degree):
    """Every tuple to arity 4, in every order and past the field's degree,
    and brackets of dense vectors, on fields homological or not.

    With random weights an odd weight-1 field seldom has a term of degree 2
    or more, so the field takes the grading of one drawn term and has every
    term of that grading up to the degree."""
    basis = SpaceBasis.build([(f"e{i + 1}", data.draw(st.integers(0, 1)),
                               data.draw(st.integers(-2, 2))) for i in range(dim)])
    sig = ShiftSignature(epsilon, k)
    chart = basis.chart(sig)
    monomials = enumerate_monomials(chart.variables, degree)
    anchor = monomial_bigrading(data.draw(st.sampled_from(monomials)))
    along = data.draw(st.sampled_from(chart.variables))
    parity, weight = (anchor.parity - along.parity) % 2, anchor.weight - along.weight
    coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3).filter(bool)
    components = {}
    for var in chart:
        target = Bigrading((var.parity + parity) % 2, var.weight + weight)
        components[var] = Series.sum([Series({m: data.draw(coefficients)})
                                      for m in monomials if monomial_bigrading(m) == target])
    q = VectorField(chart, components, parity, weight)
    fam = QFamily(q, basis, sig)
    want = {}
    for n in range(5):
        for indices in itertools.product(range(dim), repeat=n):
            want[indices] = commutator_chain_bracket(q, basis, sig, indices)
            got = fam.bracket_indices(indices)
            assert got == want[indices] and str(got) == str(want[indices])
    dense = [{i: data.draw(coefficients) for i in range(dim)} for _ in range(2)]
    for n in range(4):
        for picks in itertools.product(dense, repeat=n):
            expected = Series.sum([
                want[indices] * math.prod(c[i] for c, i in zip(picks, indices))
                for indices in itertools.product(range(dim), repeat=n)])
            got = fam.bracket([vector(basis, c) for c in picks])
            assert got == expected and fam.format_value(got) == fam.format_value(expected)


class TestSymmetryGate:
    def permutation_sign(self, order, parities, epsilon):
        sign = 1
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                if order[a] > order[b]:
                    if epsilon == 0:
                        sign = -sign
                    if parities[order[a]] and parities[order[b]]:
                        sign = -sign
        return sign

    @pytest.mark.parametrize("epsilon", [0, 1])
    def test_exhaustive_pairs_and_triples(self, epsilon):
        if epsilon == 0:
            fam, q, basis, sig = lie2_family()
        else:
            sig = ShiftSignature(1, 0)
            basis = SpaceBasis.build([("e1", 0, 0), ("e2", 1, 0)])
            chart = basis.chart(sig)
            y1, y2 = chart.variables
            q = VectorField(chart, {y1: V(y1) * V(y2)}, 1, 1)
            fam = QFamily(q, basis, sig)
        parities = [v.parity for v in basis]
        for n in (2, 3):
            for key in itertools.product(range(len(basis)), repeat=n):
                base = fam.bracket_indices(key)
                for order in itertools.permutations(range(n)):
                    permuted = tuple(key[i] for i in order)
                    sign = self.permutation_sign(
                        order, [parities[i] for i in key], epsilon)
                    assert fam.bracket_indices(permuted) == base * sign


def test_derived_bracket_lowers_fiber_degree_before_restriction():
    chart = Chart.build([("x", 0, 0), ("xi", 1, -1)], "M")
    ct = shifted_cotangent(chart, 0)
    x, xi = chart.variables
    p, pi = ct.fiber
    H = V(p) * V(pi) + V(p) * V(p) * V(pi)
    from gradedkernel.geometry import canonical_bracket
    current = H
    degree = H.fiber_degree()
    for f in (V(x), V(x) ** 2, V(xi)):
        current = canonical_bracket(current, f, ct)
        degree -= 1
        assert current.is_zero or current.fiber_degree() <= degree


# -- vectors of a space: series linear in the basis ----------------------------

def combination_str(basis, coeffs):
    """How a basis combination was written before a vector was a series: the
    reference for a basis family's `format_value`."""
    coeffs = {i: Fraction(c) for i, c in coeffs.items() if c}
    if not coeffs:
        return "0"
    chunks = []
    for i in sorted(coeffs):
        vec, coeff = basis[i], coeffs[i]
        body = vec.name if abs(coeff) == 1 else f"{abs(coeff)}*{vec.name}"
        if not chunks:
            chunks.append(body if coeff > 0 else f"-{body}")
        else:
            chunks.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(chunks)


COEFFICIENTS = st.one_of(st.sampled_from([0, 1, -1]),
                         st.fractions(min_value=-5, max_value=5, max_denominator=7))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_vector_text_matches_the_combination_text(data):
    dim = data.draw(st.integers(1, 4))
    basis = SpaceBasis.build([(f"e{i + 1}", data.draw(st.integers(0, 1)),
                               data.draw(st.integers(-2, 2))) for i in range(dim)])
    coeffs = data.draw(st.dictionaries(st.integers(0, dim - 1), COEFFICIENTS))
    fam = ExplicitFamily(basis, data.draw(st.integers(0, 1)), 0, {})
    assert fam.format_value(vector(basis, coeffs)) == combination_str(basis, coeffs)


def test_a_q_family_writes_its_values_as_vectors():
    fam, q, basis, sig = lie2_family()
    assert fam.format_value(fam.bracket_indices((0, 1))) == "-e2"
    assert fam.format_value(fam.bracket_indices((0, 0))) == "0"


@pytest.mark.parametrize("family", ["lie2", "broken-jacobi"])
@pytest.mark.parametrize("make", [
    lambda basis: V(basis[0]) * V(basis[1]),
    lambda basis: Series.one(),
    lambda basis: V(SpaceBasis.build([("f1", 0, 0)])[0]),
    lambda basis: V(SpaceBasis.build([("e1", 0, 5)])[0]),
], ids=["product", "constant", "other-space", "other-space-same-name"])
def test_a_basis_family_takes_only_vectors_of_its_space(family, make):
    fam = JACOBI_FAMILIES[family]()
    with pytest.raises(GradingMismatch,
                       match="bracket inputs must be linear combinations of basis vectors"):
        fam.bracket([V(fam.basis[0]), make(fam.basis)])
    # only the vector before it was interned, and nothing was evaluated
    assert len(fam._inputs) == 1 and not fam._values


def test_an_explicit_table_value_must_be_a_vector():
    basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0)])
    with pytest.raises(GradingMismatch,
                       match="bracket values must be linear combinations of basis vectors"):
        ExplicitFamily(basis, 0, 0, {(0, 1): V(basis[0]) * V(basis[1])})


@pytest.mark.parametrize("name", ["sinf", "lie2", "broken-jacobi"])
def test_a_family_builds_its_pool_once(monkeypatch, name):
    fam = JACOBI_FAMILIES[name]()
    first = [element for _, element, _, _ in fam.pool()]
    assert all(a is b for a, (_, b, _, _) in zip(first, fam.pool()))
    check_higher_jacobi(fam, 3)
    held = len(fam._inputs)
    interned = []
    original = fam._interned
    monkeypatch.setattr(fam, "_interned", lambda e: interned.append(e) or original(e))
    check_weights_parities(fam, fam.signature, 3)
    assert not interned and len(fam._inputs) == held


# -- a Hamiltonian family's table against the canonical-bracket chain ---------

def reversion_sign(parities):
    """The parity reversion sign (-1)^{p_1 (n-1) + ... + p_{n-1}} of a
    P-infinity bracket on inputs of these parities."""
    n = len(parities)
    return -1 if sum(p * (n - 1 - j) for j, p in enumerate(parities)) % 2 else 1


def parity_of(f):
    return 0 if f.is_zero else f.bigrading().parity


@st.composite
def base_charts(draw):
    """A base chart of 1 to 3 coordinates of any parity and weight."""
    dim = draw(st.integers(1, 3))
    return Chart.build([(f"z{i}", draw(st.integers(0, 1)), draw(st.integers(-2, 2)))
                        for i in range(dim)], "M")


def cotangent_of(base, kind, s):
    return (shifted_cotangent if kind == "even" else shifted_anticotangent)(base, s)


def random_master(ct, rng, parity, fiber=(1, 3), max_degree=3):
    """Two to four terms of fiber degree in the ``fiber`` range, all of the
    given parity (or of either), from the largest bigrading class there is:
    a random draw from one class would mostly give masters that depend on no
    base coordinate."""
    low, high = fiber
    monomials = [m for m in enumerate_monomials(ct.variables, max_degree)
                 if low <= sum(exp for var, exp in m if var.fiber_degree) <= high]
    classes = sorted((len(ms), grade.parity, grade.weight, ms)
                     for grade, ms in bucket_by_bigrading(monomials).items()
                     if parity is None or grade.parity == parity)
    if not classes:
        return Series.zero()
    largest = classes[-1][3]
    chosen = rng.sample(largest, min(len(largest), rng.randint(2, 4)))
    return Series({m: rng.choice([1, -1, 2, -2, Fraction(1, 2)]) for m in chosen})


def random_function(base, rng):
    """One to three terms of degree 1 or 2 in the base coordinates, all of
    one bigrading: a constant has no gradient, so it zeroes a bracket."""
    classes = sorted((grade.parity, grade.weight, ms) for grade, ms in bucket_by_bigrading(
        enumerate_monomials(base.variables, 2)[1:]).items())
    _, _, monomials = rng.choice(classes)
    chosen = rng.sample(monomials, min(len(monomials), rng.randint(1, 3)))
    return Series({m: rng.choice([1, -1, 3, Fraction(-1, 2)]) for m in chosen})


@settings(max_examples=300, deadline=None)
@given(base=base_charts(), kind=st.sampled_from(["even", "odd"]), s=st.integers(-1, 2),
       seed=st.integers(0, 2 ** 32), arity=st.integers(0, 4))
def test_every_hamiltonian_bracket_is_the_chain_of_its_inputs(base, kind, s, seed, arity):
    ct = cotangent_of(base, kind, s)
    rng = random.Random(seed)
    # only the terms of fiber degree n reach an arity-n bracket
    master = random_master(ct, rng, None, fiber=(arity, arity), max_degree=arity + 1)
    inputs = [random_function(base, rng) for _ in range(arity)]
    fam = HamiltonianFamily(master, ct)
    got = fam.bracket(inputs)
    want = iterated_bracket(master, inputs, ct)
    if fam.epsilon == 0:
        want = want * reversion_sign([parity_of(f) for f in inputs])
    assert got == want and format_series(got) == format_series(want)
    assert got.truncation_order is want.truncation_order is None
    # a second family, bracketing every prefix first, reads its table the
    # same way from a table that is already partly built
    warm = HamiltonianFamily(master, ct)
    for m in range(arity + 1):
        warm.bracket(inputs[:m])
    assert warm.bracket(inputs) == got
    assert warm.bracket(inputs).truncation_order is None


# A P-infinity master on a base with an odd coordinate: [P, P] = 0, and its
# Jacobi check once failed 8 of 156 entries, for example n=3 (f3, f1, f3)
# with residual 64/3 * x1 * x2, as its brackets lacked the parity reversion
# sign that Q families carry
PINF_ODD_BASE = """\
manifold M
  var x0 even -1
  var x1 even 1
  var x2 odd 2
end
anticotangent CT base M shift 1
function P on CT parity even weight 2 = 2 * xs_x0 * xs_x1
task check-master P
family FP fromhamiltonian P
task check-jacobi FP arity 3
"""


def test_a_pinf_master_on_a_base_with_an_odd_coordinate_passes_jacobi(tmp_path):
    problem = tmp_path / "pinf_odd_base.gk"
    problem.write_text(PINF_ODD_BASE, encoding="utf-8")
    proc = run_gk(str(problem))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Traceback" not in proc.stderr
    assert "0 failed" in proc.stdout.splitlines()[-1]


# -- the square identity: the n-th Jacobi sum of the brackets generated by G
# is the n-th bracket generated by 1/2 [G, G] (Voronov, JPAA 202, 2005) -------

def q_square(q):
    return commutator(q, q).scaled(Fraction(1, 2))


def hamiltonian_square(master, ct):
    return canonical_bracket(master, master, ct) * Fraction(1, 2)


def corpus_family(stem, name):
    return parse_problem((CORPUS / f"{stem}.gk").read_text()).families[name]


# generators with [G, G] = 0: both kinds of master, one on a base with an
# odd coordinate, and a Q field of each epsilon
KNOWN_MASTERS = {
    "sinf": lambda: corpus_family("master_sinf", "FH"),
    "pinf": lambda: corpus_family("master_pinf", "FP"),
    "pinf-odd-base": lambda: parse_problem(PINF_ODD_BASE).families["FP"],
    "lie2": lambda: lie2_family()[0],
    "odd-q": odd_q_family,
}


def assert_square_identity(fam, square, inputs, n_max):
    """Every Jacobi sum of ``fam`` on tuples of ``inputs`` to arity ``n_max``
    is the bracket of the same tuple in ``square``."""
    for n in range(n_max + 1):
        for picked in itertools.product(inputs, repeat=n):
            elements = [element for element, _ in picked]
            got = jacobiator(fam, list(picked), n)
            assert got == square.bracket(elements), [str(e) for e in elements]


@pytest.mark.parametrize("name", sorted(KNOWN_MASTERS))
def test_the_jacobi_sums_of_a_master_vanish_as_its_square_does(name):
    fam = KNOWN_MASTERS[name]()
    if isinstance(fam, HamiltonianFamily):
        square = HamiltonianFamily(hamiltonian_square(fam.master, fam.ct), fam.ct)
    else:
        square = QFamily(q_square(fam.q), fam.basis, fam.signature)
    inputs = [(element, parity) for _, element, parity, _ in fam.pool()]
    assert_square_identity(fam, square, inputs[:4], 3)


@settings(max_examples=100, deadline=None)
@given(base=base_charts(), s=st.integers(-1, 2), seed=st.integers(0, 2 ** 32),
       epsilon=st.integers(0, 1))
def test_hamiltonian_jacobi_sums_are_brackets_of_the_square(base, s, seed, epsilon):
    # the convention parities: an odd master on T*M[s], an even one on Pi T*M[s]
    ct = cotangent_of(base, "even" if epsilon else "odd", s)
    rng = random.Random(seed)
    master = random_master(ct, rng, epsilon, fiber=(2, 3))
    fam = HamiltonianFamily(master, ct)
    square = HamiltonianFamily(hamiltonian_square(master, ct), ct)
    inputs = [(f, f.bigrading().parity) for f in (random_function(base, rng) for _ in range(3))]
    assert_square_identity(fam, square, inputs, 3)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), epsilon=st.integers(0, 1),
       k=st.integers(0, 2), seed=st.integers(0, 2 ** 32))
def test_q_jacobi_sums_are_brackets_of_the_square(data, dim, epsilon, k, seed):
    sig = ShiftSignature(epsilon, k)
    # each coordinate's parity is its weight mod 2, so that many monomials
    # have a component's bigrading; the basis vectors' parities still mix
    weights = [data.draw(st.integers(-1, 2)) for _ in range(dim)]
    basis = SpaceBasis.build([(f"e{i + 1}", (w + 1 - epsilon) % 2, sig.s - w)
                              for i, w in enumerate(weights)])
    chart = basis.chart(sig)
    rng = random.Random(seed)
    # an odd field of weight 1, homological or not
    components = {var: random_homogeneous(chart.variables, rng, max_degree=3,
                                          parity=var.parity + 1, weight=var.weight + 1)
                  for var in chart.variables}
    q = VectorField(chart, components, 1, 1)
    fam = QFamily(q, basis, sig)
    square = QFamily(q_square(q), basis, sig)
    inputs = [(element, parity) for _, element, parity, _ in fam.pool()]
    # and a vector with every basis vector of the first one's parity in it
    first = inputs[0][1]
    inputs.append((Series.sum([element * (i + 1) for i, (element, parity) in enumerate(inputs)
                               if parity == first]), first))
    assert_square_identity(fam, square, inputs, 3)
