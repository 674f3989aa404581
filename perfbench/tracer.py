"""Aggregate call tracing of gradedkernel's layers, for the benchmark's traced run.

The tracer replaces public functions and methods of the kernel with wrappers
that count calls and accumulate total and self time, then puts every original
back.  A module-level function is patched at every ``gradedkernel`` module
that holds it, because ``from .geometry import canonical_bracket`` binds the
name again in the importing module and a patch at the defining module alone
would miss those calls.  Methods are patched on the class that defines them.

Hot methods such as ``Series.__mul__`` run hundreds of thousands of times per
unit of work, so the tracer keeps per-name aggregates instead of one span per
call.  Self time is a call's duration minus the time spent in wrapped calls
it made.  The exact counts (calls, monomial pairs, terms out, fixed-point
iterations, distinct arguments) do not depend on timing and repeat exactly
for the same inputs.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# metric prefix -> the functions it covers, as (module, name)
FUNCTIONS: Dict[str, List[Tuple[str, str]]] = {
    "geometry.canonical_bracket": [("gradedkernel.geometry", "canonical_bracket")],
    "geometry.commutator": [("gradedkernel.geometry", "commutator")],
    "homotopy.jacobiator": [("gradedkernel.homotopy", "jacobiator")],
    "homotopy.checks": [("gradedkernel.homotopy", "check_master"),
                        ("gradedkernel.homotopy", "check_higher_jacobi"),
                        ("gradedkernel.homotopy", "check_weights_parities"),
                        ("gradedkernel.homotopy", "check_leibniz")],
    "microformal.pullback": [("gradedkernel.microformal", "pullback")],
    "microformal.check_hamilton_jacobi": [("gradedkernel.microformal",
                                           "check_hamilton_jacobi")],
    "microformal.check_intertwining": [("gradedkernel.microformal",
                                        "check_intertwining")],
    "oracle.identity_check": [("gradedkernel.oracle", "identity_check")],
    "oracle.evaluate": [("gradedkernel.oracle", "evaluate")],
    "oracle.random_assignment": [("gradedkernel.oracle", "random_assignment")],
    "cli.parse_problem": [("gradedkernel.cli", "parse_problem")],
    "cli.run_task": [("gradedkernel.cli", "run_task")],
    "cli.render_json": [("gradedkernel.cli", "render_json")],
}

# metric prefix -> the methods it covers, as (module, class, name); the patch
# goes on the class in the MRO that defines the method
METHODS: Dict[str, List[Tuple[str, str, str]]] = {
    "graded_core.mul": [("gradedkernel.graded_core", "Series", "__mul__")],
    "graded_core.add": [("gradedkernel.graded_core", "Series", "__add__"),
                        ("gradedkernel.graded_core", "Series", "__radd__")],
    "graded_core.left_derivative": [("gradedkernel.graded_core", "Series",
                                     "left_derivative")],
    "graded_core.substitute": [("gradedkernel.graded_core", "Series", "substitute")],
    "graded_core.truncate": [("gradedkernel.graded_core", "Series", "truncate")],
    "homotopy.bracket": [("gradedkernel.homotopy", "HamiltonianFamily", "bracket"),
                         ("gradedkernel.homotopy", "QFamily", "bracket"),
                         ("gradedkernel.homotopy", "QFamily", "bracket_indices"),
                         ("gradedkernel.homotopy", "ExplicitFamily", "bracket_indices")],
    "oracle.grassmann_mul": [("gradedkernel.oracle", "GrassmannElement", "__mul__")],
}

GRADED_CORE = ("graded_core.mul", "graded_core.add", "graded_core.left_derivative",
               "graded_core.substitute", "graded_core.truncate")

# metric prefixes in report order; each reports .calls and .self_s
REPORTED = ("graded_core.mul", "graded_core.left_derivative", "graded_core.substitute",
            "graded_core.truncate", "graded_core.add", "geometry.canonical_bracket",
            "geometry.commutator", "homotopy.jacobiator", "homotopy.bracket",
            "homotopy.checks", "microformal.pullback", "microformal.check_hamilton_jacobi",
            "microformal.check_intertwining", "oracle.identity_check", "oracle.evaluate",
            "oracle.random_assignment", "oracle.grassmann_mul", "cli.parse_problem",
            "cli.run_task", "cli.render_json")


def term_count(series) -> int:
    """Number of terms of a Series; the kernel exposes no size, so read its term map."""
    return len(series._terms)


def call_sites(module_name: str, name: str) -> List[Tuple[object, str]]:
    """Every loaded gradedkernel module whose global ``name`` is that function."""
    original = getattr(importlib.import_module(module_name), name)
    sites = []
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name != "gradedkernel" and not mod_name.startswith("gradedkernel."):
            continue
        if vars(module).get(name) is original:
            sites.append((module, name))
    return sites


def defining_class(module_name: str, class_name: str, name: str) -> type:
    cls = getattr(importlib.import_module(module_name), class_name)
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    raise AttributeError(f"{class_name} has no method {name}")


class Tracer:
    """Install with ``install()``, run the work, then ``remove()``; see ``metrics()``."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.mul_pairs = 0
        self.mul_terms_out = 0
        self.series_peak_terms = 0
        self.pullback_iterations = 0
        self.trials_requested = 0
        self.trials_run = 0
        self.distinct: Dict[str, set] = {"geometry.canonical_bracket": set(),
                                         "homotopy.bracket": set()}
        self._stack: List[list] = []
        self._patches: List[Tuple[object, str, object]] = []
        for key in list(FUNCTIONS) + list(METHODS):
            self.calls[key] = 0
            self.total_s[key] = 0.0
            self.self_s[key] = 0.0

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets: List[Tuple[str, object, str]] = []
        for key, functions in FUNCTIONS.items():
            for module_name, name in functions:
                targets.extend((key, owner, name) for owner, name in
                               call_sites(module_name, name))
        for key, methods in METHODS.items():
            seen = set()
            for module_name, class_name, name in methods:
                owner = defining_class(module_name, class_name, name)
                if (owner, name) not in seen:
                    seen.add((owner, name))
                    targets.append((key, owner, name))
        wrappers: Dict[int, Callable] = {}
        try:
            for key, owner, name in targets:
                original = vars(owner)[name]
                wrapper = wrappers.get(id(original))
                if wrapper is None:
                    wrapper = self._wrap(key, name, original)
                    wrappers[id(original)] = wrapper
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)
        except BaseException:
            self.remove()
            raise

    def remove(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def patched_sites(self) -> List[Tuple[object, str, object]]:
        return list(self._patches)

    # -- the wrapper ----------------------------------------------------------

    def _wrap(self, key: str, name: str, original: Callable) -> Callable:
        observe = self._observer(key, original)
        stack = self._stack
        calls, total_s, self_s = self.calls, self.total_s, self.self_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                calls[key] += 1
                total_s[key] += elapsed
                self_s[key] += elapsed - frame[1]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        traced.__name__ = name
        return traced

    def _observer(self, key: str, original: Callable) -> Optional[Callable]:
        if key == "graded_core.mul":
            def observe(args, kwargs, result):
                if result is NotImplemented:
                    return
                left, right = args
                right_terms = term_count(right) if hasattr(right, "_terms") else 1
                out = term_count(result)
                self.mul_pairs += term_count(left) * right_terms
                self.mul_terms_out += out
                self.series_peak_terms = max(self.series_peak_terms, out)
            return observe
        if key in GRADED_CORE:
            def observe(args, kwargs, result):
                if result is not NotImplemented:
                    self.series_peak_terms = max(self.series_peak_terms,
                                                 term_count(result))
            return observe
        if key == "geometry.canonical_bracket":
            seen = self.distinct[key]

            def observe(args, kwargs, result):
                seen.add(tuple(args))
            return observe
        if key == "homotopy.bracket":
            seen = self.distinct[key]
            method = original.__name__

            def observe(args, kwargs, result):
                family, values = args
                seen.add((family, method, tuple(values)))
            return observe
        if key == "microformal.pullback":
            def observe(args, kwargs, result):
                self.pullback_iterations += result.iterations
            return observe
        if key == "oracle.identity_check":
            signature = inspect.signature(original)

            def observe(args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.trials_requested += bound.arguments["trials"]
            return observe
        if key == "oracle.random_assignment":
            def observe(args, kwargs, result):
                if self._stack and self._stack[-1][0] == "oracle.identity_check":
                    self.trials_run += 1
            return observe
        return None

    # -- results ----------------------------------------------------------------

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: Dict[str, Tuple[float, str]] = {}
        for key in REPORTED:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
            if key == "graded_core.mul":
                out["graded_core.mul.pairs"] = (self.mul_pairs, "count")
                out["graded_core.mul.terms_out"] = (self.mul_terms_out, "count")
            elif key in self.distinct:
                out[f"{key}.distinct_ratio"] = (
                    _ratio(len(self.distinct[key]), self.calls[key]), "ratio")
            elif key == "microformal.pullback":
                out["microformal.pullback.iterations"] = (self.pullback_iterations,
                                                          "count")
        out["graded_core.series_peak_terms"] = (self.series_peak_terms, "count")
        out["oracle.trials_ratio"] = (_ratio(self.trials_run, self.trials_requested),
                                      "ratio")
        return out


def _ratio(part: int, whole: int) -> float:
    """part / whole, and 0 when nothing was attempted."""
    return part / whole if whole else 0.0
