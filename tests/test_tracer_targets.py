"""The benchmark's traced run wraps kernel entry points by name.

``perfbench/tracer.py`` lists them in ``FUNCTIONS`` and ``METHODS``.  A
kernel change that renames or moves one of them breaks only the traced run,
so this test resolves every listed target the way the tracer does.  It loads
the tracer from its file and changes nothing in it.
"""

import importlib.util
import random
from pathlib import Path

import pytest

import gradedkernel.cli  # noqa: F401  (loads every kernel module the tracer scans)
from gradedkernel import oracle
from gradedkernel.graded_core import GradedVariable, Series

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_targets", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("key", sorted(tracer.FUNCTIONS))
def test_every_traced_function_has_a_call_site(key):
    for module_name, name in tracer.FUNCTIONS[key]:
        assert tracer.call_sites(module_name, name), f"{key}: {module_name}.{name}"


@pytest.mark.parametrize("key", sorted(tracer.METHODS))
def test_every_traced_method_has_a_defining_class(key):
    for module_name, class_name, name in tracer.METHODS[key]:
        owner = tracer.defining_class(module_name, class_name, name)
        assert callable(vars(owner)[name]), f"{key}: {class_name}.{name}"


# The traced run counts oracle trials and Grassmann products by wrapping
# module attributes, so the oracle must reach them through those attributes.

def counting(monkeypatch, owner, name):
    """Replace ``owner.name`` by a wrapper that counts its calls."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_identity_check_draws_each_trial_through_the_module_attribute(monkeypatch):
    xi = Series.variable(GradedVariable("xi", 1, 0, 0, 0))
    x = Series.variable(GradedVariable("x", 0, 0, 0, 1))
    calls = counting(monkeypatch, oracle, "random_assignment")
    assert oracle.identity_check(x * xi, xi * x, trials=7, seed=3).passed
    assert len(calls) == 7


def test_evaluate_multiplies_grassmann_elements(monkeypatch):
    xi1, xi2 = (GradedVariable(f"xi{i}", 1, 0, 0, i) for i in (1, 2))
    assignment = oracle.random_assignment([xi1, xi2], 2, random.Random(0))
    calls = counting(monkeypatch, oracle.GrassmannElement, "__mul__")
    oracle.evaluate(Series.variable(xi1) * Series.variable(xi2), assignment)
    assert calls
