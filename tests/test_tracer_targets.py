"""The benchmark's traced run wraps kernel entry points by name.

``perfbench/tracer.py`` lists them in ``FUNCTIONS`` and ``METHODS``.  A
kernel change that renames or moves one of them breaks only the traced run,
so this test resolves every listed target the way the tracer does.  It loads
the tracer from its file and changes nothing in it.
"""

import importlib.util
from pathlib import Path

import pytest

import gradedkernel.cli  # noqa: F401  (loads every kernel module the tracer scans)

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
