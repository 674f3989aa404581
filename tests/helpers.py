"""Helpers shared by several test files.

Each test file imports what it needs from here, never from another test
file, so every test file collects on its own.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from gradedkernel.geometry import KIND_EVEN, Chart, commutator
from gradedkernel.graded_core import Series
from gradedkernel.homotopy import constant_field
from gradedkernel.microformal import ThickMorphism, conjugate_momenta
from gradedkernel.report import FAIL, PASS

V = Series.variable
HALF = Fraction(1, 2)
SRC = Path(__file__).resolve().parent.parent / "src"

# pass/fail lines announced by the acceptance criteria; conftest echoes
# them after the run
ANNOUNCEMENTS = []


def announce(line):
    print(line)
    ANNOUNCEMENTS.append(line)


def run_gk(*args):
    """``python -m gradedkernel.cli *args`` in a child process, with this
    checkout's ``src`` first on its PYTHONPATH: pytest's ``pythonpath``
    setting reaches only the test process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "gradedkernel.cli", *args],
                          capture_output=True, text=True, env=env)


def vector(basis, coeffs=None):
    """The vector of ``basis`` with coefficient ``c`` on basis vector ``i``
    for each ``i: c`` of ``coeffs``: a series linear in the basis."""
    return Series.sum([Fraction(c) * V(basis[i]) for i, c in (coeffs or {}).items()])


def full_stencil_bracket(f, g, ct):
    """The canonical bracket with every product of its stencil computed,
    including the fiber derivatives of arguments of fiber degree 0: the
    reference for `canonical_bracket`, which skips those."""
    if f.is_zero or g.is_zero:
        return Series.zero()
    f_parity = f.bigrading().parity
    terms = []
    for base_var in ct.base.variables:
        fiber_var = ct.conjugate(base_var)
        zt = base_var.parity
        t1 = f.left_derivative(fiber_var) * g.left_derivative(base_var)
        t2 = f.left_derivative(base_var) * g.left_derivative(fiber_var)
        if ct.kind == KIND_EVEN:
            s1 = (zt * f_parity) % 2
            s2 = (1 + zt + zt * f_parity) % 2
        else:
            s1 = ((zt + 1) * f_parity) % 2
            s2 = (zt * f_parity) % 2
        terms += [-t1 if s1 else t1, -t2 if s2 else t2]
    return Series.sum(terms)


def commutator_chain_bracket(q, basis, sig, indices):
    """The derived bracket of ``q`` on the basis vectors at ``indices``: the
    whole field commuted with one constant field per input, in the given
    order, read at the origin, inverted and signed by the parity reversion.
    The reference for a Q family, which brackets each Taylor term once, at
    its sorted key, and gets every other order by graded symmetry."""
    field = q
    for i in indices:
        field = commutator(field, constant_field(basis[i], q.chart, sig, basis))
    n = len(indices)
    reversion = sum(basis[i].parity * (n - 1 - j) for j, i in enumerate(indices)) % 2
    sign = -1 if sig.epsilon == 0 and reversion else 1
    coeffs = {}
    for var, c in field.constant_part().items():
        flip = sig.epsilon == 0 and basis[var.index].parity
        coeffs[var.index] = -sign * c if flip else sign * c
    return vector(basis, coeffs)


def json_document(results, all_pass, flags):
    """The JSON report as a document for ``json.dumps(..., sort_keys=True,
    indent=2)``: the reference for `render_json`'s fixed-schema emitter."""
    def entry(e):
        obj = {"check": e.check_id, "status": e.status}
        for key in ("location", "expected", "actual", "residual", "notes"):
            if getattr(e, key):
                obj[key] = getattr(e, key)
        return obj

    return {
        "schema": 1,
        "flags": {"arity": flags.arity, "order": flags.order,
                  "oracle_seed": flags.oracle_seed},
        "tasks": [{"task": str(task), "line": task.line, "title": report.title,
                   "status": PASS if report.passed else FAIL,
                   "entries": [entry(e) for e in report.entries],
                   "passed": report.counts[PASS], "failed": report.counts[FAIL]}
                  for task, report in results],
        "summary": {"status": "pass" if all_pass else "fail", "tasks": len(results),
                    "passed_entries": sum(r.counts[PASS] for _, r in results),
                    "failed_entries": sum(r.counts[FAIL] for _, r in results)},
    }


# -- a sort-based tuple reference for the kernel's product sign ----------------

class Term(NamedTuple):
    """A sign, or 0 for a vanishing product, with a canonical monomial."""

    coefficient: int
    monomial: tuple

    @property
    def is_zero(self) -> bool:
        return self.coefficient == 0


def normalize_product(factors):
    """Sort a factor sequence into canonical order with its Koszul sign.

    Every adjacent swap of two odd factors flips the sign; swapping an even
    factor past anything is free.  A repeated odd factor kills the term.  It
    shares no code with the kernel, whose product merges sorted monomials.
    """
    arr = list(factors)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1].key > arr[j].key:
            if arr[j - 1].parity and arr[j].parity:
                sign = -sign
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            j -= 1
    merged = []
    for var in arr:
        if merged and merged[-1][0] == var:
            if var.parity:
                return Term(0, ())
            merged[-1][1] += 1
        else:
            merged.append([var, 1])
    return Term(sign, tuple((v, e) for v, e in merged))


def thick_corpus():
    """(name, morphism, test function) with S of fiber degree <= 2."""
    out = []

    def even_pair(wx=0, shift=0):
        m1 = Chart.build([("x", 0, wx)], "M1")
        m2 = Chart.build([("y", 0, wx)], "M2")
        q, = conjugate_momenta(m2, shift, "even")
        return m1, m2, V(m1.variables[0]), V(m2.variables[0]), V(q)

    m1, m2, x, y, q = even_pair()
    out.append(("identity", ThickMorphism(m1, m2, 0, "even", x * q), y ** 2 + 3 * y))
    out.append(("quadratic", ThickMorphism(m1, m2, 0, "even", x * q + HALF * q * q),
                Fraction(3, 2) * y))
    out.append(("with-s0", ThickMorphism(m1, m2, 0, "even", x ** 2 + x * q), y ** 2))
    out.append(("nonlinear-support",
                ThickMorphism(m1, m2, 0, "even", x ** 2 * q + HALF * q * q), 2 * y))
    out.append(("s0-and-quadratic",
                ThickMorphism(m1, m2, 0, "even",
                              3 * x ** 3 + x * q - Fraction(1, 3) * q * q), y + y ** 2))
    out.append(("scaled-support",
                ThickMorphism(m1, m2, 0, "even", 2 * x * q + q * q), y ** 2))

    # weighted even example: w(x) = w(y) = -1, s = -2
    m1w = Chart.build([("x", 0, -1)], "M1w")
    m2w = Chart.build([("y", 0, -1)], "M2w")
    qw, = conjugate_momenta(m2w, -2, "even")
    xw, yw = V(m1w.variables[0]), V(m2w.variables[0])
    out.append(("weighted", ThickMorphism(m1w, m2w, -2, "even",
                                          xw * V(qw) + HALF * V(qw) ** 2), yw ** 2))

    # mixed parity on both sides: the even kind with an odd momentum
    m1m = Chart.build([("x", 0, 0), ("xi", 1, 0)], "M1m")
    m2m = Chart.build([("y", 0, 0), ("eta", 1, 0)], "M2m")
    qm = conjugate_momenta(m2m, 0, "even")
    xm, xim = (V(v) for v in m1m.variables)
    ym = V(m2m.variables[0])
    out.append(("mixed-parity-momenta",
                ThickMorphism(m1m, m2m, 0, "even",
                              xm * V(qm[0]) + xim * V(qm[1]) + HALF * V(qm[0]) ** 2),
                ym ** 2 + ym))

    # odd kind
    n1 = Chart.build([("x", 0, 0), ("xi", 1, 0)], "N1")
    n2 = Chart.build([("eta", 1, 0)], "N2")
    ys, = conjugate_momenta(n2, 0, "odd")
    xn, xin = (V(v) for v in n1.variables)
    etan = V(n2.variables[0])
    out.append(("odd-identity", ThickMorphism(n1, n2, 0, "odd", xin * V(ys)),
                5 * etan))
    out.append(("odd-quadratic",
                ThickMorphism(n1, n2, 0, "odd", xin * V(ys) + xin * V(ys) ** 2),
                2 * etan))
    out.append(("odd-with-s0",
                ThickMorphism(n1, n2, 0, "odd", xin + xin * V(ys)), 3 * etan))
    return out
