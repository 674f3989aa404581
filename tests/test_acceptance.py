"""Acceptance suite.

One test per criterion, run in order; every comparison is exact rational
arithmetic with zero tolerance.  Criteria 1-8 register every series equality
they assert in a ledger, built once per session by whichever test needs it
first, so any order or subset of tests sees the same ledger.  Criterion 9
re-confirms each ledger entry through the Grassmann-algebra oracle at 100
random assignments with a recorded seed, plus product-morphism checks that
pit the symbolic multiplication against the oracle's own arithmetic.
Criterion 10 checks byte determinism of the CLI's JSON reports.

Each criterion prints one pass/fail line (bypassing pytest capture).
"""

import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gradedkernel.geometry import (
    Chart,
    VectorField,
    canonical_bracket,
    is_homological,
    shifted_anticotangent,
    shifted_cotangent,
)
from gradedkernel.graded_core import GradedVariable, Series
from gradedkernel.homotopy import (
    ExplicitFamily,
    HamiltonianFamily,
    QFamily,
    ShiftSignature,
    SpaceBasis,
    check_higher_jacobi,
    check_leibniz,
    check_master,
    check_weights_parities,
    jacobiator,
    parity_reverse_brackets,
)
from gradedkernel.microformal import (
    ThickMorphism,
    _hj_sides,
    _pullback_graded,
    check_hamilton_jacobi,
    check_intertwining,
    conjugate_momenta,
    pullback,
    pullback_expansion_oracle,
)
from gradedkernel.oracle import (_in_key_order, evaluate, identity_check, random_assignment,
                                 suggested_generator_count)
from gradedkernel.sampling import enumerate_monomials, random_homogeneous

V = Series.variable
HALF = Fraction(1, 2)
ORACLE_BASE_SEED = 77001

from helpers import announce, run_gk, thick_corpus, vector


class Ledger:
    """What one criterion asserted, for criterion 9 to re-check."""

    def __init__(self):
        # (tag, lhs, rhs) series pairs asserted equal
        self.identities = []
        # (a, b) factor pairs whose kernel product is pitted against the oracle's
        self.factors = []
        self.summary = ""

    def record(self, tag, lhs, rhs):
        assert lhs == rhs, f"{tag}: {lhs} != {rhs}"
        self.identities.append((tag, lhs, rhs))

    def record_combo(self, tag, lhs_combo, rhs_combo):
        self.record(tag, combo_series(lhs_combo), combo_series(rhs_combo))


class Ledgers:
    """Each criterion's ledger, built once per session by the first test that asks."""

    def __init__(self):
        self._built = {}

    def build(self, criterion):
        if criterion not in self._built:
            ledger = Ledger()
            ledger.summary = criterion(ledger)
            self._built[criterion] = ledger
        return self._built[criterion]

    def full(self):
        """Identities and factor pairs of criteria 1-8, in criterion order."""
        parts = [self.build(criterion) for criterion in LEDGER_CRITERIA]
        return ([entry for part in parts for entry in part.identities],
                [pair for part in parts for pair in part.factors])


@pytest.fixture(scope="session")
def ledgers():
    return Ledgers()


def combo_series(combo):
    """Re-embed a vector of a space over stand-in ``b_`` variables."""
    terms = {}
    for ((vec, _),), coeff in combo.items():
        var = GradedVariable("b_" + vec.name, vec.parity, vec.weight, 0, vec.index)
        terms[((var, 1),)] = coeff
    return Series(terms)


# ---------------------------------------------------------------------------
# criterion 1: sign kernel
# ---------------------------------------------------------------------------

def criterion_01_sign_kernel(ledger):
    start = time.perf_counter()
    x = GradedVariable("x", 0, 0, 0, 0)
    xi = GradedVariable("xi", 1, 1, 0, 1)
    eta = GradedVariable("eta", 1, -1, 0, 2)
    variables = [x, xi, eta]

    # exhaustive products of monomials in <= 3 variables
    monomials = enumerate_monomials(variables, 3)
    assert len(monomials) == 12  # complete list over 3 variables
    for ma in monomials:
        for mb in monomials:
            a, b = Series({ma: Fraction(1)}), Series({mb: Fraction(1)})
            ga = a.bigrading()
            gb = b.bigrading()
            sign = -1 if (ga.parity and gb.parity) else 1
            ledger.record("supercomm-monomial", a * b, sign * (b * a))
        if Series({ma: Fraction(1)}).bigrading().parity:
            ledger.record("odd-square", Series({ma: Fraction(1)}) ** 2, Series.zero())

    rng = random.Random(101)
    for _ in range(200):
        a = random_homogeneous(variables, rng, 3)
        b = random_homogeneous(variables, rng, 3)
        if a.is_zero or b.is_zero:
            continue
        sign = -1 if (a.bigrading().parity and b.bigrading().parity) else 1
        ledger.record("supercomm-random", a * b, sign * (b * a))
        ledger.factors.append((a, b))

    for _ in range(150):
        a = random_homogeneous(variables, rng, 2)
        b = random_homogeneous(variables, rng, 2) + random_homogeneous(variables, rng, 2)
        if a.is_zero:
            continue
        pa = a.bigrading().parity
        for v in variables:
            sign = -1 if (v.parity and pa) else 1
            ledger.record("leibniz",
                          (a * b).left_derivative(v),
                          a.left_derivative(v) * b + sign * (a * b.left_derivative(v)))

    for _ in range(150):
        s = random_homogeneous(variables, rng, 3) + random_homogeneous(variables, rng, 3)
        ledger.record("odd-dd-anticommute",
                      s.left_derivative(xi).left_derivative(eta),
                      -(s.left_derivative(eta).left_derivative(xi)))
        ledger.record("odd-dd-square",
                      s.left_derivative(xi).left_derivative(xi), Series.zero())

    for _ in range(80):
        a, b, c = (random_homogeneous(variables, rng, 2) for _ in range(3))
        ledger.record("mul-associative", (a * b) * c, a * (b * c))

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    return f"[criterion 1] PASS sign kernel (exhaustive + 500 random, {elapsed:.2f}s)"


def test_criterion_01_sign_kernel(ledgers):
    announce(ledgers.build(criterion_01_sign_kernel).summary)


# ---------------------------------------------------------------------------
# criterion 2: canonical bracket laws
# ---------------------------------------------------------------------------

def criterion_02_canonical_bracket_suite(ledger):
    start = time.perf_counter()
    base = Chart.build([("x", 0, 0), ("y", 0, 2), ("xi", 1, 1), ("eta", 1, -1)], "M")
    rng = random.Random(202)
    samples = 0
    for s in (-1, 0, 1, 2):
        for builder, kappa in ((shifted_cotangent, 0), (shifted_anticotangent, 1)):
            ct = builder(base, s)
            produced = 0
            while produced < 25:
                f = random_homogeneous(ct.variables, rng, 2, max_terms=2)
                g = random_homogeneous(ct.variables, rng, 2, max_terms=2)
                h = random_homogeneous(ct.variables, rng, 2, max_terms=2)
                if f.is_zero or g.is_zero or h.is_zero:
                    continue
                produced += 1
                samples += 1
                ft = f.bigrading().parity
                gt = g.bigrading().parity

                def br(a, b, _ct=ct):
                    return canonical_bracket(a, b, _ct)

                sign = -1 if ((ft + kappa) * (gt + kappa)) % 2 else 1
                ledger.record("bracket-antisym", br(f, g), -sign * br(g, f))
                sign_j = sign
                ledger.record("bracket-jacobi",
                              br(f, br(g, h)),
                              br(br(f, g), h) + sign_j * br(g, br(f, h)))
                sign_l = -1 if ((ft + kappa) * gt) % 2 else 1
                ledger.record("bracket-leibniz",
                              br(f, g * h),
                              br(f, g) * h + sign_l * (g * br(f, h)))
                value = br(f, g)
                if not value.is_zero:
                    grade = value.bigrading()
                    assert grade.weight == f.bigrading().weight + g.bigrading().weight - s
                    assert grade.parity == (ft + gt + kappa) % 2
                ledger.factors.append((f, g))
    assert samples == 200
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    return (f"[criterion 2] PASS canonical brackets ({samples} samples, "
            f"s in -1..2, both kinds, {elapsed:.2f}s)")


def test_criterion_02_canonical_bracket_suite(ledgers):
    announce(ledgers.build(criterion_02_canonical_bracket_suite).summary)


# ---------------------------------------------------------------------------
# criterion 3: derived-bracket equivalence for homological fields
# ---------------------------------------------------------------------------

def q_corpus(k):
    """Homological fields of weight +1 on Pi^{1+eps} V[1-k] charts."""
    entries = []

    sig = ShiftSignature(0, k)
    basis = SpaceBasis.build([("e1", 0, -k), ("e2", 0, 0)])
    chart = basis.chart(sig)
    xi1, xi2 = chart.variables
    entries.append(("lie2", QFamily(
        VectorField(chart, {xi2: V(xi1) * V(xi2)}, 1, 1), basis, sig)))

    basis = SpaceBasis.build([("e1", 0, 2 - k), ("e2", 0, 0)])
    chart = basis.chart(ShiftSignature(0, k))
    entries.append(("curved", QFamily(
        VectorField(chart, {chart.variables[0]: Series.one()}, 1, 1),
        basis, ShiftSignature(0, k))))

    sig1 = ShiftSignature(1, k)
    basis = SpaceBasis.build([("e1", 0, -k), ("e2", 1, -k)])
    chart = basis.chart(sig1)
    y1, y2 = chart.variables
    entries.append(("odd-linf", QFamily(
        VectorField(chart, {y1: V(y1) * V(y2)}, 1, 1), basis, sig1)))

    sig = ShiftSignature(0, k)
    basis = SpaceBasis.build([("e1", 0, -1 + k), ("e2", 1, k)])
    chart = basis.chart(sig)
    z1, z2 = chart.variables
    entries.append(("differential", QFamily(
        VectorField(chart, {z2: V(z1)}, 1, 1), basis, sig)))

    basis = SpaceBasis.build([("e1", 0, 0)])
    chart = basis.chart(ShiftSignature(0, k))
    entries.append(("abelian", QFamily(
        VectorField(chart, {}, 1, 1), basis, ShiftSignature(0, k))))

    s = 1 - k
    basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0),
                              ("e4", 1, 2 * k - 1)])
    sig = ShiftSignature(0, k)
    chart = basis.chart(sig)
    t1, t2, t3, t4 = chart.variables
    entries.append(("ternary", QFamily(
        VectorField(chart, {t4: V(t1) * V(t2) * V(t3)}, 1, 1), basis, sig)))

    return entries


def criterion_03_derived_bracket_equivalence(ledger):
    start = time.perf_counter()
    rng = random.Random(303)
    names = set()
    for k in (0, 1, 2):
        for name, fam in q_corpus(k):
            names.add(name)
            q = fam.q
            assert q.is_zero or (is_homological(q) and q.weight == 1), name
            jacobi = check_higher_jacobi(fam, 4)
            assert jacobi.passed, f"{name} k={k}: {jacobi.failures()[:2]}"
            weights = check_weights_parities(fam, fam.signature, 4)
            assert weights.passed, f"{name} k={k}"
            # ledger: residuals per tuple plus Q(Q(f)) = 0 on random functions
            pool = fam.pool()
            for n in range(4):
                for combo in itertools.product(range(len(pool)), repeat=n):
                    inputs = [(pool[i][1], pool[i][2]) for i in combo]
                    residual = jacobiator(fam, inputs)
                    ledger.record_combo("q-jacobi-residual", residual, Series.zero())
            for _ in range(2):
                f = random_homogeneous(q.chart.variables, rng, 2)
                ledger.record("q-squared-action", q.apply(q.apply(f)), Series.zero())
    assert {"lie2", "curved", "odd-linf", "differential", "abelian", "ternary"} <= names
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    return (f"[criterion 3] PASS derived-bracket equivalence "
            f"(6 fields x k in 0..2, arity 4, {elapsed:.2f}s)")


def test_criterion_03_derived_bracket_equivalence(ledgers):
    announce(ledgers.build(criterion_03_derived_bracket_equivalence).summary)


# ---------------------------------------------------------------------------
# criterion 4: master Hamiltonian families
# ---------------------------------------------------------------------------

def master_corpus():
    entries = []

    chart = Chart.build([("xi1", 1, 1), ("xi2", 1, 0)], "PiV")
    ct = shifted_cotangent(chart, 0)
    xi1, xi2 = chart.variables
    p1, p2 = ct.fiber
    entries.append(("sinf-lie2", V(xi1) * V(xi2) * V(p2), ct))

    chart = Chart.build([("x", 0, 0), ("xi", 1, -1)], "M")
    ct = shifted_cotangent(chart, 0)
    p, pi = ct.fiber
    entries.append(("sinf-binary-ternary", V(p) * V(pi) + V(p) ** 2 * V(pi), ct))

    chart = Chart.build([("x", 0, 0), ("xi", 1, -2), ("eta", 1, 0)], "M")
    ct = shifted_cotangent(chart, -1)
    eta = chart.variables[2]
    px, pxi, peta = ct.fiber
    entries.append(("sinf-curved", V(eta) + V(px) * V(pxi), ct))

    chart = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M")
    ct = shifted_cotangent(chart, 1)
    xi = chart.variables[1]
    p, pi = ct.fiber
    entries.append(("sinf-base-dependent", V(xi) * V(p) ** 2, ct))

    chart = Chart.build([("x1", 0, -1), ("x2", 0, -1)], "gstar")
    ct = shifted_anticotangent(chart, 0)
    x1, x2 = chart.variables
    xs1, xs2 = ct.fiber
    entries.append(("pinf-lie-poisson", V(x2) * V(xs1) * V(xs2), ct))

    chart = Chart.build([("y1", 0, 0), ("y2", 0, 0)], "R2")
    ct = shifted_anticotangent(chart, 1)
    ys1, ys2 = ct.fiber
    entries.append(("pinf-constant", V(ys1) * V(ys2), ct))

    return entries


def criterion_04_hamiltonian_families(ledger):
    start = time.perf_counter()
    corpus = master_corpus()
    assert len(corpus) >= 3
    leibniz_total = 0
    epsilons = set()
    for name, master, ct in corpus:
        k = 1 - ct.shift
        grade = master.bigrading()
        assert grade.weight == 2 - k, name
        master_report = check_master(master, ct)
        assert master_report.passed, name
        fam = HamiltonianFamily(master, ct, pool_size=3)
        epsilons.add(fam.epsilon)
        jacobi = check_higher_jacobi(fam, 4)
        assert jacobi.passed, f"{name}: {jacobi.failures()[:2]}"
        weights = check_weights_parities(fam, fam.signature, 4)
        assert weights.passed, name
        leibniz = check_leibniz(fam, trials=17, seed=404)
        assert leibniz.passed, name
        leibniz_total += 17
        # ledger: master equation, jacobi residuals, leibniz identities,
        # binary graded symmetry
        ledger.record("master-equation", canonical_bracket(master, master, ct),
                      Series.zero())
        pool = fam.pool()
        for n in range(4):
            for combo in itertools.product(range(len(pool)), repeat=n):
                inputs = [(pool[i][1], pool[i][2]) for i in combo]
                ledger.record("h-jacobi-residual", jacobiator(fam, inputs),
                              Series.zero())
        for i, j in itertools.product(range(len(pool)), repeat=2):
            fi, fj = pool[i][1], pool[j][1]
            koszul = -1 if (pool[i][2] * pool[j][2]) % 2 else 1
            sign = koszul if fam.epsilon == 1 else -koszul
            ledger.record("h-binary-symmetry",
                          fam.bracket([fi, fj]), sign * fam.bracket([fj, fi]))
        rng = random.Random(405)
        for _ in range(10):
            b = random_homogeneous(ct.base.variables, rng, 2)
            c = random_homogeneous(ct.base.variables, rng, 2)
            if b.is_zero or c.is_zero:
                continue
            # unary Leibniz: both epsilon signs reduce to (-1)^{bt}
            sign = -1 if b.bigrading().parity else 1
            ledger.record("h-unary-leibniz",
                          fam.bracket([b * c]),
                          fam.bracket([b]) * c + sign * (b * fam.bracket([c])))
    assert epsilons == {0, 1}
    assert leibniz_total >= 100
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"
    return (f"[criterion 4] PASS master Hamiltonians ({len(corpus)} masters, "
            f"Jacobi arity 4, Leibniz both signs, {elapsed:.2f}s)")


def test_criterion_04_hamiltonian_families(ledgers):
    announce(ledgers.build(criterion_04_hamiltonian_families).summary)


# ---------------------------------------------------------------------------
# criterion 5: parity reversion round trip
# ---------------------------------------------------------------------------

def criterion_05_parity_reversion(ledger):
    rng = random.Random(505)
    # random explicit families, both symmetry types, arity <= 3
    for trial in range(10):
        dim = rng.randint(2, 3)
        eps = rng.randint(0, 1)
        basis = SpaceBasis.build(
            [(f"e{i + 1}", rng.randint(0, 1), rng.randint(-1, 1)) for i in range(dim)])
        entries = {}
        for n in range(4):
            for key in itertools.combinations_with_replacement(range(dim), n):
                if rng.random() < 0.4:
                    entries[key] = vector(
                        basis, {rng.randrange(dim): Fraction(rng.randint(-3, 3))})
        fam = ExplicitFamily(basis, eps, rng.randint(0, 2), entries)
        double = parity_reverse_brackets(parity_reverse_brackets(fam))
        for n in range(4):
            for key in itertools.product(range(dim), repeat=n):
                ledger.record_combo(f"reversion-roundtrip-{trial}",
                                    fam.bracket_indices(key), double.bracket_indices(key))

    # transport maps antisymmetric Jacobi families to symmetric ones and back
    basis = SpaceBasis.build([("e1", 0, 0), ("e2", 0, 0), ("e3", 0, 0)])

    def combo(i, c=1):
        return vector(basis, {i: c})

    sl2 = ExplicitFamily(basis, 0, 0,
                         {(0, 1): combo(1, 2), (0, 2): combo(2, -2), (1, 2): combo(0)})
    assert check_higher_jacobi(sl2, 3).passed
    odd_side = parity_reverse_brackets(sl2)
    assert odd_side.epsilon == 1
    jacobi_odd = check_higher_jacobi(odd_side, 3)
    assert jacobi_odd.passed
    back = parity_reverse_brackets(odd_side)
    assert back.epsilon == 0 and check_higher_jacobi(back, 3).passed
    pool = odd_side.pool()
    for n in range(4):
        for key in itertools.product(range(3), repeat=n):
            inputs = [(pool[i][1], pool[i][2]) for i in key]
            ledger.record_combo("reversion-jacobi", jacobiator(odd_side, inputs),
                                Series.zero())
    return ("[criterion 5] PASS parity-reversion transport "
            "(10 random round trips + law transport, arity 3)")


def test_criterion_05_parity_reversion(ledgers):
    announce(ledgers.build(criterion_05_parity_reversion).summary)


# ---------------------------------------------------------------------------
# criteria 6 and 7: pullback expansion oracle and the weight theorem
# ---------------------------------------------------------------------------

def criterion_06_pullback_oracle_agreement(ledger):
    start = time.perf_counter()
    corpus = thick_corpus()
    assert len(corpus) >= 10
    kinds = {phi.kind for _, phi, _ in corpus}
    assert kinds == {"even", "odd"}
    assert any(not phi.S.fiber_slice(0, 0).is_zero for _, phi, _ in corpus)
    for name, phi, g in corpus:
        result = pullback(phi, g, 1)
        expansion = pullback_expansion_oracle(phi, g)
        ledger.record(f"pullback-oracle-{name}", result.f, expansion)

    # the closed-form example, exactly
    m1 = Chart.build([("x", 0, 0)], "M1")
    m2 = Chart.build([("y", 0, 0)], "M2")
    q, = conjugate_momenta(m2, 0, "even")
    phi = ThickMorphism(m1, m2, 0, "even",
                        V(m1.variables[0]) * V(q) + HALF * V(q) ** 2)
    c = Fraction(3, 2)
    result = pullback(phi, c * V(m2.variables[0]), 4)
    ledger.record("pullback-closed-form", result.f,
                  c * V(m1.variables[0]) + HALF * c * c)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 6 took {elapsed:.2f}s"
    return (f"[criterion 6] PASS pullback oracle agreement "
            f"({len(corpus)} morphisms + closed form, {elapsed:.2f}s)")


def test_criterion_06_pullback_oracle_agreement(ledgers):
    announce(ledgers.build(criterion_06_pullback_oracle_agreement).summary)


def test_criterion_07_weight_preservation():
    for name, phi, g in thick_corpus():
        expected_parity = 0 if phi.kind == "even" else 1
        result = pullback(phi, g, 3)
        if result.f.is_zero:
            continue
        grade = result.f.bigrading()
        assert grade.parity == expected_parity, name
        assert grade.weight == phi.shift, name
    for name, phi, h1, ct1, h2, ct2, g in hj_corpus():
        result = pullback(phi, g, 4)
        if result.f.is_zero:
            continue
        grade = result.f.bigrading()
        assert grade.parity == (0 if phi.kind == "even" else 1), name
        assert grade.weight == phi.shift, name
    announce("[criterion 7] PASS pullback weight theorem (all corpus morphisms)")


# ---------------------------------------------------------------------------
# criterion 8: Hamilton-Jacobi implies intertwining
# ---------------------------------------------------------------------------

def hj_corpus():
    """(name, phi, H1, ct1, H2, ct2, g) with zero HJ residual."""
    out = []

    # identity, linear master
    m1 = Chart.build([("x", 0, -1)], "A1")
    m2 = Chart.build([("y", 0, -1)], "A2")
    ct1 = shifted_cotangent(m1, 0)
    ct2 = shifted_cotangent(m2, 0)
    q, = conjugate_momenta(m2, 0, "even")
    out.append(("identity-linear",
                ThickMorphism(m1, m2, 0, "even", V(m1.variables[0]) * V(q)),
                V(ct1.fiber[0]), ct1, V(ct2.fiber[0]), ct2, Series.constant(7)))

    # quadratic S, linear master, quadratic g
    m1 = Chart.build([("x", 0, -1)], "B1")
    m2 = Chart.build([("y", 0, -1)], "B2")
    ct1 = shifted_cotangent(m1, -2)
    ct2 = shifted_cotangent(m2, -2)
    q, = conjugate_momenta(m2, -2, "even")
    out.append(("quadratic-linear",
                ThickMorphism(m1, m2, -2, "even",
                              V(m1.variables[0]) * V(q) + HALF * V(q) ** 2),
                V(ct1.fiber[0]), ct1, V(ct2.fiber[0]), ct2,
                V(m2.variables[0]) ** 2))

    # odd kind
    n1 = Chart.build([("xi", 1, -1)], "C1")
    n2 = Chart.build([("eta", 1, -1)], "C2")
    pt1 = shifted_anticotangent(n1, -1)
    pt2 = shifted_anticotangent(n2, -1)
    ys, = conjugate_momenta(n2, -1, "odd")
    out.append(("odd-kind",
                ThickMorphism(n1, n2, -1, "odd", V(n1.variables[0]) * V(ys)),
                V(pt1.fiber[0]) ** 2, pt1, V(pt2.fiber[0]) ** 2, pt2,
                5 * V(n2.variables[0])))

    # scaling morphism intertwines p^2 with 4 p^2
    m1 = Chart.build([("x", 0, -1)], "D1")
    m2 = Chart.build([("y", 0, -1)], "D2")
    ct1 = shifted_cotangent(m1, -1)
    ct2 = shifted_cotangent(m2, -1)
    q, = conjugate_momenta(m2, -1, "even")
    out.append(("scaling",
                ThickMorphism(m1, m2, -1, "even", 2 * V(m1.variables[0]) * V(q)),
                V(ct1.fiber[0]) ** 2, ct1, 4 * V(ct2.fiber[0]) ** 2, ct2,
                V(m2.variables[0])))

    # mixed parity identity with an odd master
    p1 = Chart.build([("x", 0, -1), ("xi", 1, -2)], "E1")
    p2 = Chart.build([("y", 0, -1), ("eta", 1, -2)], "E2")
    ctm1 = shifted_cotangent(p1, -2)
    ctm2 = shifted_cotangent(p2, -2)
    qm = conjugate_momenta(p2, -2, "even")
    s_mixed = V(p1.variables[0]) * V(qm[0]) + V(p1.variables[1]) * V(qm[1])
    out.append(("mixed-parity",
                ThickMorphism(p1, p2, -2, "even", s_mixed),
                V(ctm1.fiber[0]) * V(ctm1.fiber[1]), ctm1,
                V(ctm2.fiber[0]) * V(ctm2.fiber[1]), ctm2,
                V(p2.variables[0]) ** 2))
    return out


def criterion_08_hj_implies_intertwining(ledger):
    start = time.perf_counter()
    corpus = hj_corpus()
    assert len(corpus) >= 5
    for name, phi, h1, ct1, h2, ct2, g in corpus:
        hj = check_hamilton_jacobi(phi, h1, ct1, h2, ct2, 4)
        assert hj.passed, f"{name}: {hj.failures()[:2]}"
        inter = check_intertwining(phi, h1, ct1, h2, ct2, g, 4)
        assert inter.passed, f"{name}: {inter.failures()[:2]}"
        # ledger: both sides of the HJ identity and of the intertwining identity
        lhs, rhs = _hj_sides(phi, h1, ct1, h2, ct2, 4)
        ledger.record(f"hj-{name}", lhs, rhs)
        f_t, y_t, q_t, _ = _pullback_graded(phi, g, 4)
        lhs_i = h1.substitute({
            ct1.conjugate(v): f_t.left_derivative(v) for v in phi.source.variables})
        bindings = {}
        for y_var in phi.target.variables:
            bindings[y_var] = y_t[y_var]
            bindings[ct2.conjugate(y_var)] = q_t[phi.momentum(y_var)]
        rhs_i = h2.substitute(bindings)
        ledger.record(f"intertwine-{name}", lhs_i.truncate(3), rhs_i.truncate(3))

    # perturbed triples: both checks must fail
    perturbed = 0
    for name, phi, h1, ct1, h2, ct2, g in corpus:
        if name in ("identity-linear", "mixed-parity"):
            # the only admissible test functions there cannot feel the masters
            continue
        bad_h2 = 2 * h2
        hj = check_hamilton_jacobi(phi, h1, ct1, bad_h2, ct2, 4)
        inter = check_intertwining(phi, h1, ct1, bad_h2, ct2, g, 4)
        assert not hj.passed, name
        assert not inter.passed, name
        perturbed += 1
    assert perturbed >= 3
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.2f}s"
    return (f"[criterion 8] PASS HJ => intertwining ({len(corpus)} triples, "
            f"{perturbed} perturbations fail both, {elapsed:.2f}s)")


def test_criterion_08_hj_implies_intertwining(ledgers):
    announce(ledgers.build(criterion_08_hj_implies_intertwining).summary)


# ---------------------------------------------------------------------------
# criterion 9: oracle cross-validation of every recorded pass
# ---------------------------------------------------------------------------

# the criteria that record identities, in the order that fixes each one's seed
LEDGER_CRITERIA = (criterion_01_sign_kernel, criterion_02_canonical_bracket_suite,
                   criterion_03_derived_bracket_equivalence,
                   criterion_04_hamiltonian_families, criterion_05_parity_reversion,
                   criterion_06_pullback_oracle_agreement,
                   criterion_08_hj_implies_intertwining)


def test_criterion_09_oracle_cross_validation(ledgers):
    identities, factors = ledgers.full()
    start = time.perf_counter()
    failures = []
    for index, (tag, lhs, rhs) in enumerate(identities):
        seed = ORACLE_BASE_SEED + index
        report = identity_check(lhs, rhs, trials=100, seed=seed)
        if not report.passed:
            failures.append((tag, seed))
    assert not failures, f"oracle disagreements: {failures[:5]}"

    # independent arithmetic check: kernel products against oracle products
    morphism_failures = 0
    for index, (a, b) in enumerate(factors):
        rng = random.Random(ORACLE_BASE_SEED + 10 ** 6 + index)
        generators = suggested_generator_count(a, b)
        # one key order for the check's 20 draws, which compiles each series once
        variables = _in_key_order(a.variables() | b.variables())
        product = a * b
        for _ in range(20):
            assignment = random_assignment(variables, generators, rng)
            if evaluate(product, assignment) != evaluate(a, assignment) * evaluate(b, assignment):
                morphism_failures += 1
                break
    assert morphism_failures == 0
    elapsed = time.perf_counter() - start
    announce(f"[criterion 9] PASS oracle cross-validation "
             f"({len(identities)} identities x 100 trials, base seed {ORACLE_BASE_SEED}; "
             f"{len(factors)} product-morphism checks, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 10: CLI determinism
# ---------------------------------------------------------------------------

def test_criterion_10_cli_determinism():
    corpus_dir = Path(__file__).parent / "corpus"
    golden_dir = Path(__file__).parent / "golden"
    stems = sorted(p.stem for p in corpus_dir.glob("*.gk"))
    assert stems

    def run_json(stem):
        return run_gk(str(corpus_dir / f"{stem}.gk"), "--format", "json",
                      "--oracle-seed", "20240801").stdout

    for stem in stems:
        first = run_json(stem)
        second = run_json(stem)
        assert first == second, f"{stem}: nondeterministic report"
        golden = (golden_dir / f"{stem}.json").read_text()
        assert first == golden, f"{stem}: drifted from golden file"
        json.loads(first)
    announce(f"[criterion 10] PASS CLI determinism "
             f"({len(stems)} corpus files, byte-identical JSON, golden match)")
