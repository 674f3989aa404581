"""Tests of the benchmark itself: tracing, known-answer checks, layer coverage.

    python3 -m pytest perfbench/tests -q

They take about a minute, most of it one arity-4 Jacobi check.
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import workloads
from gradedkernel import cli, geometry, homotopy, microformal, oracle
from gradedkernel.graded_core import Series
from gradedkernel.oracle import GrassmannElement

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def corpus_problem(stem):
    return cli.parse_problem((workloads.CORPUS / f"{stem}.gk").read_text())


@pytest.fixture(scope="module")
def objects():
    sinf = corpus_problem("master_sinf")
    thick = corpus_problem("thick_quadratic")
    lie = corpus_problem("lie2_eps0")
    verify = corpus_problem("oracle_verify")
    h, ct = sinf.functions["H"]
    h1, ct1 = thick.functions["H1"]
    h2, ct2 = thick.functions["H2"]
    return {
        "H": h, "CT": ct, "FH": sinf.families["FH"], "Q": lie.fields["Q"],
        "Phi": thick.thicks["Phi"], "g": thick.functions["g"][0],
        "H1": h1, "CT1": ct1, "H2": h2, "CT2": ct2,
        "a": verify.functions["a"][0], "b": verify.functions["b"][0],
    }


# (module, name, metric prefix, call through that module)
SITES = [
    (homotopy, "canonical_bracket", "geometry.canonical_bracket",
     lambda o: homotopy.canonical_bracket(o["H"], o["H"], o["CT"])),
    (geometry, "canonical_bracket", "geometry.canonical_bracket",
     lambda o: geometry.canonical_bracket(o["H"], o["H"], o["CT"])),
    (homotopy, "commutator", "geometry.commutator",
     lambda o: homotopy.commutator(o["Q"], o["Q"])),
    (geometry, "commutator", "geometry.commutator",
     lambda o: geometry.commutator(o["Q"], o["Q"])),
    (microformal, "check_master", "homotopy.checks",
     lambda o: microformal.check_master(o["H"], o["CT"])),
    (cli, "check_master", "homotopy.checks",
     lambda o: cli.check_master(o["H"], o["CT"])),
    (cli, "check_higher_jacobi", "homotopy.checks",
     lambda o: cli.check_higher_jacobi(o["FH"], 1)),
    (cli, "check_weights_parities", "homotopy.checks",
     lambda o: cli.check_weights_parities(o["FH"], o["FH"].signature, 1)),
    (cli, "check_leibniz", "homotopy.checks",
     lambda o: cli.check_leibniz(o["FH"], trials=1)),
    (cli, "pullback", "microformal.pullback",
     lambda o: cli.pullback(o["Phi"], o["g"], 2)),
    (cli, "check_hamilton_jacobi", "microformal.check_hamilton_jacobi",
     lambda o: cli.check_hamilton_jacobi(o["Phi"], o["H1"], o["CT1"],
                                         o["H2"], o["CT2"], 2)),
    (cli, "check_intertwining", "microformal.check_intertwining",
     lambda o: cli.check_intertwining(o["Phi"], o["H1"], o["CT1"],
                                      o["H2"], o["CT2"], o["g"], 2)),
    (cli, "identity_check", "oracle.identity_check",
     lambda o: cli.identity_check(o["a"], o["b"], trials=2)),
    (Series, "__mul__", "graded_core.mul", lambda o: o["H"] * o["H"]),
    (GrassmannElement, "__mul__", "oracle.grassmann_mul",
     lambda o: GrassmannElement.generator(2, 0) * GrassmannElement.generator(2, 1)),
]


@pytest.mark.parametrize("owner, name, key, call", SITES,
                         ids=[f"{getattr(o, '__name__', o)}.{n}" for o, n, _, _ in SITES])
def test_wrapper_intercepts_at_import_site_and_is_removed(objects, owner, name, key, call):
    original = vars(owner)[name]
    trace = tracer.Tracer()
    trace.install()
    try:
        assert vars(owner)[name].__wrapped__ is original
        before = trace.calls[key]
        call(objects)
        assert trace.calls[key] > before
        patched = trace.patched_sites()
    finally:
        trace.remove()
    assert vars(owner)[name] is original
    assert all(vars(site)[attr] is orig for site, attr, orig in patched)
    assert not trace.installed


def test_random_assignment_counts_trials_inside_identity_check(objects):
    trace = tracer.Tracer()
    trace.install()
    try:
        cli.identity_check(objects["a"], objects["b"], trials=7)
    finally:
        trace.remove()
    assert trace.trials_requested == 7
    assert trace.trials_run == 7


def test_same_seed_gives_identical_inputs():
    def ledger_bytes(seed):
        return [(i.law, i.holds, str(i.lhs), str(i.rhs), i.trial_seed)
                for i in workloads.ledger(seed, 30)]

    assert ledger_bytes(5) == ledger_bytes(5)
    assert ledger_bytes(5) != ledger_bytes(6)
    assert workloads.pullback_text(3) == workloads.pullback_text(3)
    assert workloads.pullback_text(3) != workloads.pullback_text(4)


def test_ledger_work_does_not_depend_on_the_seed():
    def shape(seed):
        return [(i.law, i.holds, oracle.suggested_generator_count(i.lhs, i.rhs),
                 sorted(map(str, i.lhs.variables() | i.rhs.variables())))
                for i in workloads.ledger(seed)]

    assert shape(5) == shape(6)


def test_every_pullback_draw_has_a_pin():
    assert set(workloads.load_pins()["pullback-cubic"]) == {
        str(draw) for draw in workloads.PULLBACK_DRAWS}


def test_timed_run_ends_on_a_whole_ledger_pass():
    runner, metrics = run.timed_run(workloads.WORKLOADS["oracle-ledger"], 0, 1)
    assert runner.failed == 0
    assert runner.attempted % workloads.LEDGER_SIZE == 0
    assert metrics["verdict_cost_p50"][0] > 0


def test_reference_seconds_restores_the_collector():
    assert gc.isenabled()
    assert run.reference_seconds() > 0
    assert gc.isenabled()


def test_corrupted_golden_copy_fails_corpus(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(workloads.GOLDEN, golden)
    clean = run.Runner(workloads.Corpus(workloads.CORPUS, golden), 0)
    clean.unit(0)
    assert clean.failed == 0
    target = golden / "lie2_eps0.json"
    target.write_text(target.read_text().replace('"pass"', '"fail"', 1))
    corrupted = run.Runner(workloads.Corpus(workloads.CORPUS, golden), 0)
    corrupted.unit(0)
    assert corrupted.failed / corrupted.attempted > 0


def test_corrupted_known_answer_fails_oracle_ledger():
    runner = run.Runner(workloads.WORKLOADS["oracle-ledger"], 0)
    for k in range(3):
        runner.unit(k)
    assert runner.failed == 0
    identity = runner.inputs[3]
    runner.inputs[3] = dataclasses.replace(identity, holds=not identity.holds)
    runner.unit(3)
    assert runner.failed / runner.attempted > 0


@pytest.mark.parametrize("name", ["pullback-cubic", "jacobi-hamiltonian"])
def test_corrupted_pin_fails(name):
    runner = run.Runner(workloads.WORKLOADS[name], 0)
    if name == "pullback-cubic":
        runner.reference = ("0" * 64, runner.reference[1])
    else:
        runner.reference = "0" * 64
    runner.unit(0)
    assert runner.failed / runner.attempted > 0


@pytest.fixture(scope="module")
def traced():
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        runner, metrics = run.traced_run(workload, 0)
        assert runner.failed == 0, name
        out[name] = {key: value for key, (value, unit) in metrics.items()}
    return out


def test_traced_run_reports_every_per_layer_metric(traced):
    names = {metric["name"] for metric in BENCHMARK["per_layer"]}
    for metrics in traced.values():
        assert set(metrics) == names


# each layer, and the workload meant to exercise it
EXERCISED = {
    "jacobi-hamiltonian": ["graded_core.mul", "graded_core.left_derivative",
                           "graded_core.add", "geometry.canonical_bracket",
                           "homotopy.jacobiator", "homotopy.bracket", "cli.run_task"],
    "pullback-cubic": ["graded_core.mul", "graded_core.substitute",
                       "graded_core.truncate", "microformal.pullback"],
    "oracle-ledger": ["oracle.identity_check", "oracle.evaluate",
                      "oracle.random_assignment", "oracle.grassmann_mul"],
    "corpus": ["cli.parse_problem", "cli.run_task", "cli.render_json",
               "geometry.commutator", "homotopy.bracket", "oracle.identity_check"],
}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_layers_are_exercised_where_intended(traced, workload):
    for key in EXERCISED[workload]:
        assert traced[workload][f"{key}.calls"] > 0, key


@pytest.mark.parametrize("workload", ["pullback-cubic", "oracle-ledger"])
def test_canonical_bracket_idle_where_intended(traced, workload):
    assert traced[workload]["geometry.canonical_bracket.calls"] == 0


def test_untraced_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
