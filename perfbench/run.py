"""Benchmark of gradedkernel: end-to-end cost, or a traced per-layer profile.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it runs units of work in this process until ``--seconds``
have passed and the last pass over the inputs is complete.  Between batches
of units it times a fixed reference computation, and it measures set-up time
in fresh interpreters.  It reports each unit's time as a multiple of the
reference time around it, the peak memory and the set-up time.  With
``--trace 1`` it runs a fixed number of units twice, untraced and then
traced, and reports per-layer counts and self times and the tracing overhead.
Every unit's output is checked against its known answer; a unit that is
wrong or raises counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Readable notes go to
standard error.  See README.md in this directory for the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBE = HERE / "setup_probe.py"
SETUP_RUNS = 9
PROBE_TIMEOUT_S = 60
# units run in batches of at least this long, with the reference work timed
# before and after each batch
BATCH_S = 1.0
# the operand of the reference work: a dense bivariate polynomial of degree 8
# in each variable with Fraction coefficients
REFERENCE_POLY = {(i, j): Fraction(i + 1, j + 2) for i in range(9) for j in range(9)}


def note(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def import_kernel():
    """Import the workloads from this checkout's source tree, or raise ImportError."""
    if not (SRC / "gradedkernel" / "__init__.py").is_file():
        raise ImportError(f"no gradedkernel source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import gradedkernel
    if Path(gradedkernel.__file__).resolve().parent != SRC / "gradedkernel":
        raise ImportError(f"gradedkernel was imported from {gradedkernel.__file__}, "
                          f"not from {SRC}")
    import workloads
    return workloads


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not use the kernel.

    It squares REFERENCE_POLY with dicts of Fractions, the same kind of work
    as graded_core's series products, so that it slows down with the host as
    the units do.  The collector is off while it runs, so that its time does
    not depend on how many objects the kernel holds.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        product = {}
        for (i, j), c in REFERENCE_POLY.items():
            for (k, l), d in REFERENCE_POLY.items():
                key = (i + k, j + l)
                product[key] = product.get(key, 0) + c * d
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def measure_setup(name: str, seed: int) -> float:
    """Seconds from `import gradedkernel` to built inputs, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(SETUP_PROBE), name, str(seed)],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=str(ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs units of one workload and checks each against the known answer."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.inputs = workload.build(seed)
        self.reference = workload.reference(seed)
        self.attempted = 0
        self.failed = 0

    def unit(self, k: int, trace=None) -> float:
        """Run unit k; return its wall time from start to verdict (or to the raise)."""
        self.attempted += 1
        elapsed = 0.0
        try:
            job = self.workload.prepare(self.inputs, k)
            if trace is not None:
                trace.install()
            start = time.perf_counter()
            try:
                output = self.workload.execute(job)
            finally:
                elapsed = time.perf_counter() - start
                if trace is not None:
                    trace.remove()
            if self.workload.verify(self.reference, k, output):
                return elapsed
            note(f"unit {k} differs from its known answer")
        except Exception as exc:  # a unit that raises is a failed unit
            note(f"unit {k} raised {type(exc).__name__}: {exc}")
        self.failed += 1
        return elapsed


def timed_run(workload, seed: int, seconds: int) -> tuple:
    runner = Runner(workload, seed)
    times, costs, references, setup = [], [], [], []
    start = time.perf_counter()

    def finished(count: int) -> bool:
        # the run ends after `seconds`, at the end of a pass over the inputs
        return (count > 0 and count % workload.pass_units == 0
                and time.perf_counter() >= start + seconds)

    reference = None
    while not finished(len(times)):
        # the set-up probes are spread over the run, between batches, so that
        # they meet the same drift in host speed as the units do
        while (len(setup) < SETUP_RUNS and
               time.perf_counter() >= start + len(setup) * seconds / SETUP_RUNS):
            setup.append(measure_setup(workload.name, seed))
            reference = None
        if reference is None:
            reference = reference_seconds()
        batch = []
        batch_start = time.perf_counter()
        while not batch or (time.perf_counter() < batch_start + BATCH_S
                            and not finished(len(times) + len(batch))):
            batch.append(runner.unit(len(times) + len(batch)))
        after = reference_seconds()
        # each unit's cost is its time over the reference time around it,
        # which cancels the host's speed, common to both
        scale = (reference + after) / 2
        times += batch
        costs += [t / scale for t in batch]
        references.append(after)
        reference = after
    while len(setup) < SETUP_RUNS:
        setup.append(measure_setup(workload.name, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    note(f"{workload.name}: {len(times)} verdicts, p50 {statistics.median(times):.4f} s, "
         f"cost p50 {statistics.median(costs):.4f} ref, reference work p50 "
         f"{statistics.median(references):.4f} s over {len(references)} samples, "
         f"set-up samples {', '.join(f'{s:.4f}' for s in setup)} s")
    if len(times) >= 100:
        p90 = statistics.quantiles(times, n=10)[-1]
        note(f"{workload.name}: verdict_s_p90 {p90:.4f} s over {len(times)} verdicts")
    metrics = {
        "verdict_cost_p50": (statistics.median(costs), "ref"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return runner, metrics


def traced_run(workload, seed: int) -> tuple:
    runner = Runner(workload, seed)
    units = range(workload.traced_units)
    untraced = [runner.unit(k) for k in units]
    trace = tracer.Tracer()
    traced = [runner.unit(k, trace) for k in units]
    metrics = trace.metrics()
    untraced_p50 = statistics.median(untraced)
    traced_p50 = statistics.median(traced)
    metrics["trace.untraced_verdict_s_p50"] = (untraced_p50, "s")
    metrics["trace.traced_verdict_s_p50"] = (traced_p50, "s")
    metrics["trace.overhead_s"] = (traced_p50 - untraced_p50, "s")
    note(f"{workload.name}: {len(units)} units untraced p50 {untraced_p50:.4f} s, "
         f"traced p50 {traced_p50:.4f} s")
    return runner, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        workloads = import_kernel()
    except ImportError as exc:
        note(f"error: cannot import the kernel: {exc}")
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        runner, metrics = traced_run(workload, args.seed)
    else:
        runner, metrics = timed_run(workload, args.seed, args.seconds)
    note(f"{workload.name}: failed_ratio {runner.failed / runner.attempted} "
         f"({runner.failed} of {runner.attempted} units)")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
