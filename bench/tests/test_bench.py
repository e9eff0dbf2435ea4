"""Tests of the benchmark itself: tracer arithmetic, complete wrapping,
correctness checks that feed failed operations, and the BENCHMARK.json
contract. Run with ``PYTHONPATH=src python -m pytest bench/tests -q``."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import metrics
import run
import tracer as tr
import worker
import workloads as wl

REPO = Path(__file__).resolve().parents[2]
REFERENCE = wl.load_reference()


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_on_nested_span_tree():
    # evaluate [0, 10] > forward [1, 8] > encode [2, 6]; a second encode
    # [8.5, 9] directly under evaluate
    t = tr.Tracer((), clock=_fake_clock([0.0, 1.0, 2.0, 6.0, 8.0, 8.5, 9.0, 10.0]))
    ev = t.open("analysis.evaluate")
    fw = t.open("engine.forward")
    en = t.open("engine.encode")
    t.close(en)
    t.close(fw)
    en2 = t.open("engine.encode")
    t.close(en2)
    t.close(ev)
    stats = t.stats()
    assert list(t.parent) == [-1, 0, 1, 0]
    assert list(t.run) == [0, 0, 0, 0]
    assert stats["analysis.evaluate"] == {"calls": 1, "total_s": 10.0, "self_s": 2.5}
    assert stats["engine.forward"] == {"calls": 1, "total_s": 7.0, "self_s": 3.0}
    assert stats["engine.encode"] == {"calls": 2, "total_s": 4.5, "self_s": 4.5}


def test_closing_out_of_order_is_an_error():
    t = tr.Tracer(())
    outer = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(outer)


def test_install_rebinds_every_import_and_uninstall_restores():
    import mergelab
    from mergelab import adaptation, analysis, cli, engine, merging

    originals = (engine.backward, engine.forward, engine.LayerParams.__post_init__,
                 merging.MergedAssembly.materialize)
    t = tr.Tracer(tr.TARGETS)
    t.install()
    try:
        assert t.absent == []
        assert t.unbound_references() == []
        # names bound through `from .engine import ...` are wrapped too
        assert adaptation.backward is engine.backward is not originals[0]
        assert analysis.forward is engine.forward is cli.forward is mergelab.forward
        assert engine.LayerParams.__post_init__ is not originals[2]
        assert merging.MergedAssembly.materialize is not originals[3]
    finally:
        t.uninstall()
    assert (engine.backward, engine.forward, engine.LayerParams.__post_init__,
            merging.MergedAssembly.materialize) == originals
    assert adaptation.backward is originals[0]


def test_missing_target_is_recorded_as_absent():
    t = tr.Tracer((tr.Target("engine.gone", "engine", "no_such_function"),
                   tr.Target("engine.gone_method", "engine", "LayerParams.no_such"),
                   tr.Target("nomodule.fn", "no_such_module", "fn")))
    t.install()
    t.uninstall()
    assert t.absent == ["engine.gone", "engine.gone_method", "nomodule.fn"]


def test_metrics_are_weighted_sums_of_unit_upper_quartiles():
    result = wl.RunResult()
    for seconds in (1.0, 9.0, 2.0, 3.0):  # a seed-study stage, a tenth of a pass each
        result.add("adapt", ("wall_s", "adapt_s"), seconds, weight=10)
    for seconds in (4.0, 6.0):
        result.add("finetune", ("finetune_s",), seconds)
    result.add("report", ("wall_s",), 0.5)
    # sorted 1, 2, 3, 9: three quarters of the way is 3 + 0.25 * (9 - 3)
    assert metrics.metric_value(result.units, "adapt_s") == 10 * 4.5
    assert metrics.metric_value(result.units, "wall_s") == 10 * 4.5 + 0.5
    assert metrics.metric_value(result.units, "finetune_s") == 5.5


class _CountingWorkload:
    min_items = 3

    def run_item(self, state, i, result):
        state.append(i)
        result.add("unit", ("wall_s",), 0.5)


def test_timed_run_does_at_least_min_items_and_none_without_time():
    state = []
    out = worker.run_timed(_CountingWorkload(), state, 1e-9)
    assert state == [0, 1, 2] and out["items"] == 3
    assert out["units"]["unit"]["times"] == [0.5] * 3
    assert worker.run_timed(_CountingWorkload(), state, 0.0)["items"] == 0


def _tiny_pipeline(work: Path):
    data, ckpts, adapted = work / "d.bundle", work / "ck", work / "ad"
    layers = ["--coeffs", str(adapted / "coeffs.json"),
              "--layers", str(adapted / "trainable.bundle")]
    argvs = [
        ["gen", "--out", str(data), "--tasks", "3", "--classes", "3", "--input-dim", "10",
         "--samples", "48", "--subspace-dim", "4", "--seed", "3"],
        ["finetune", "--data", str(data), "--out-dir", str(ckpts), "--hidden", "12,8",
         "--pre-epochs", "1", "--epochs", "2", "--seed", "3"],
        ["merge", "--ckpt-dir", str(ckpts), "--method", "task_arithmetic",
         "--out-dir", str(work / "m")],
        ["adapt", "--data", str(data), "--ckpt-dir", str(ckpts), "--method", "symerge",
         "--iterations", "3", "--batch-size", "8", "--out-dir", str(adapted)],
        ["eval", "--data", str(data), "--ckpt-dir", str(ckpts), *layers,
         "--out-dir", str(work / "r")],
        ["analyze", "--data", str(data), "--ckpt-dir", str(ckpts), *layers,
         "--analyses", ",".join(metrics.ALL_ANALYSES), "--batch-size", "8",
         "--out-dir", str(work / "r")],
        ["report", "--runs", str(work), "--out-dir", str(work / "c")],
    ]
    for argv in argvs:
        assert worker._cli_main(argv) == 0, argv


def _traced(fn, targets=tr.TARGETS):
    t = tr.Tracer(targets)
    t.install()
    try:
        fn()
    finally:
        t.uninstall()
    return t


def _no_calls(t, workload):
    stats = t.stats()
    return sorted(m for m in worker.EXPECTED_CALLS[workload]
                  if stats.get(m, {}).get("calls", 0) == 0)


def test_cli_pipeline_reaches_every_expected_target(tmp_path):
    t = _traced(lambda: _tiny_pipeline(tmp_path))
    assert _no_calls(t, "cli_reference") == []
    assert t.counters["adaptation.steps"] == 3 * 3
    assert t.counters["serialization.save_bundle.bytes"] > 0
    assert t.counters["reports.write_report.bytes"] > 0


def _small_reference():
    ref = json.loads(json.dumps(REFERENCE))
    ref["suite"].update(num_tasks=3, samples_per_split=40)
    ref["finetune"].update(hidden=[8, 6], epochs=1)
    ref["adapt"].update(iterations=2)
    return ref


def test_seed_study_reaches_every_expected_target():
    result = wl.RunResult()
    t = _traced(lambda: wl.study_seed(5, _small_reference(), result))
    assert _no_calls(t, "seed_study") == []
    assert result.attempted == 2 and result.failures == []


def test_many_tasks_reaches_every_expected_target(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "load_reference", _small_reference)
    monkeypatch.setattr(wl.ManyTasks, "num_tasks", 8)
    workload = wl.ManyTasks()
    result = wl.RunResult()
    t = _traced(lambda: workload.run_item(workload.setup(2, tmp_path), 0, result))
    assert _no_calls(t, "many_tasks") == []
    assert result.attempted == 5  # the sweep's 4 checks and the start-up sample's exit
    assert len(result.units["version"]["times"]) == 1


def test_seed_study_samples_start_up_every_other_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(wl, "study_seed", lambda seed, ref, result: seed)
    monkeypatch.setattr(wl, "run_cli_process", lambda argv: (0, ""))
    workload = wl.SeedStudy()
    state = workload.setup(3, tmp_path)
    result = wl.RunResult()
    for i in range(5):
        workload.run_item(state, i, result)
    assert state["outcomes"] == [3, 4, 5, 6, 7]
    assert result.units["version"]["metrics"] == ["startup_s"]
    assert len(result.units["version"]["times"]) == 2


def test_step_counters_and_layer_metrics_are_complete():
    ref = _small_reference()
    light = _traced(lambda: wl.study_seed(1, ref, wl.RunResult()), tr.ADAPT_TARGETS)
    full = _traced(lambda: wl.study_seed(1, ref, wl.RunResult()))
    assert light.counters == full.counters  # the same work, counted the same way
    values = worker.layer_metrics(full.stats(), full.counters, light.stats(), light.counters)
    assert values["adaptation.steps"] == 6 * 2 * 3
    assert 0.0 < values["adaptation.kept_ratio"] <= 1.0
    assert values["adaptation.step_us"] > 0.0
    named = {n for n, _ in metrics.per_layer_names()}
    # everything but what the run adds (CLI timings, import, overhead) comes from the trace
    assert named - set(values) == {n for n in named
                                   if n.startswith(("cli.", "trace."))}


def test_traced_run_takes_several_samples_of_each_tracer(tmp_path):
    workload = wl.SeedStudy()
    state = dict(workload.setup(4, tmp_path), ref=_small_reference())
    out = worker.run_traced(workload, state, 4, 0.0, tmp_path, tmp_path / "spans.bin")
    assert out["samples"] == worker.TRACE_SAMPLES
    assert out["failures"] == []  # expected targets called, counts repeated
    assert out["metrics"]["engine.backward.calls"] > 0
    assert (tmp_path / "spans.bin").stat().st_size > 0


def test_run_steps_stops_at_a_failing_step(tmp_path):
    result = wl.RunResult()
    exits = iter([(0, ""), (3, "boom")])
    steps = [("gen", ["gen"]), ("merge", ["merge"]), ("eval", ["eval"])]
    times = wl.run_steps(steps, lambda argv: next(exits), tmp_path, 0, {}, result)
    assert list(times) == ["gen", "merge"]
    assert result.attempted == 2 and result.failures == ["merge exited 3: boom"]


def test_golden_eval_passes_and_a_wrong_expectation_fails(tmp_path):
    golden = wl.load_golden()
    good = wl.RunResult()
    worker.inproc_pipeline(0, tmp_path / "good", good, golden)
    assert good.attempted == 7 and good.failures == []

    wrong = dict(golden, task1=golden["task1"] + 1e-6)
    bad = wl.RunResult()
    for name in ("eval", "analyze", "report"):
        bad.check(not wl.check_step(name, tmp_path / "good", 0, wrong), name)
    assert bad.failures == ["eval"]
    assert len(bad.failures) / bad.attempted > 0.0  # the run's failed_frac


def test_missing_report_column_fails(tmp_path):
    golden = wl.load_golden()
    inproc = wl.RunResult()
    worker.inproc_pipeline(0, tmp_path, inproc, golden)
    path = tmp_path / "results" / "sparsity.json"
    doc = json.loads(path.read_text())
    for row in doc["rows"]:
        del row["fraction"]
    path.write_text(json.dumps(doc))
    assert wl.check_step("analyze", tmp_path, 0, golden) == [
        "sparsity report: a row does not carry the schema columns"]


def test_study_criteria_fail_on_a_losing_study():
    win = wl.SeedOutcome(individual=0.95, task_arithmetic=0.8, joint=0.93, coef_only=0.9,
                         layer_only=0.9, corrupted_joint=0.7, corrupted_ta=0.5)
    ok = wl.RunResult()
    wl.check_study_criteria([win] * 10, ok)
    assert ok.attempted == 3 and ok.failures == []
    lose = wl.SeedOutcome(individual=0.95, task_arithmetic=0.8, joint=0.7, coef_only=0.9,
                          layer_only=0.9, corrupted_joint=0.4, corrupted_ta=0.5)
    bad = wl.RunResult()
    wl.check_study_criteria([win] * 5 + [lose] * 5, bad)
    assert len(bad.failures) == 3


def test_benchmark_json_matches_the_emitted_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert list(run.WORKLOADS) == list(wl.WORKLOADS)
    assert [w["name"] for w in spec["workloads"]] == ["cli_reference", "seed_study"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metrics.per_layer_names()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_run_fails_without_a_checkout(tmp_path):
    shutil.copytree(REPO / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, *spec["command"][1:], "--workload", "many_tasks",
                          "--seed", "0", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
