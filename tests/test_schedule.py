"""What the adaptation schedule fixes before the first step, against the
reference loops of `tests/test_adaptation_step.py`, every difference 0.0.

Layer-only runs encode the layers below the lowest trained one once for all
batches; every task's trained layers share one Adam vector that steps at the
end of each pass, one segment per task when the tasks' step counts differ;
the correlation report runs all batches of a (task, stage) in one forward
pass. Also: the pilot sweep equals one pilot call per encoder, and `gen
--severity 9` is a config error.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from mergelab import analysis
from mergelab.adaptation import (
    AdaptConfig,
    build_assembly,
    finetune_expert,
    make_self_labels,
    pilot_two_stage,
    symerge,
    task_vectors_from_experts,
)
from mergelab.analysis import loss_correlation_report
from mergelab.engine import LayerParams, LossSpec, ParamSet, forward, init_params, loss_eval
from mergelab.merging import CoefficientMatrix, merge_task_arithmetic
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng

from conftest import REPO_ROOT
from test_adaptation_step import _assert_exact, reference_adaptation

SRC = REPO_ROOT / "src"


@pytest.fixture(scope="module")
def deep():
    """Three tasks on a three-layer encoder, so that a selector can leave
    layers both below and above it."""
    cfg = SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10, samples_per_split=60,
                      shared_subspace_dim=4, task_rotation_strength=0.8, noise_std=0.2, seed=7)
    suite = gen_suite(cfg)
    pre = init_params((10, 12, 9, 8), {t.task_id: t.num_outputs for t in suite.tasks},
                      spawn_rng(7, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=6, lr=0.01, seed=7) for t in suite.tasks}
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    kinds = {t: "classification" for t in experts}
    return suite, pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds


def _check(setup, cfg):
    pre, vectors, experts, inputs, kinds = setup
    result = symerge(pre, vectors, experts, inputs, cfg, kinds)
    heads = {t: experts[t].head(t) for t in experts}
    _assert_exact(result, reference_adaptation(pre, vectors, heads, experts, inputs, cfg, kinds))
    return result


@pytest.mark.parametrize("options", [
    {"trainable_layer": "head"},
    {"trainable_layer": 1},
    {"trainable_layer": (1, 2)},
    {"trainable_layer": (2, 1), "update_mode": "aggregated"},
    {"trainable_layer": 0},
    {"trainable_layer": "head", "filter_enabled": False, "task_order": "fixed"},
], ids=["head", "layer1", "layers1_2", "layers2_1_aggregated", "layer0", "head_unfiltered"])
def test_layer_only_runs_equal_the_reference_loop(deep, options):
    _, *setup = deep
    cfg = AdaptConfig(iterations=7, batch_size=16, seed=4, train_coeffs=False, **options)
    result = _check(setup, cfg)
    # the filter acts on these runs: some batch loses rows, none all of them
    assert any(0 < s.kept < s.batch_size for s in result.step_stats) == cfg.filter_enabled
    assert np.array_equal(result.coeffs.values, np.full((3, 3), cfg.init_coeff))


@pytest.mark.parametrize("selector", ["head", 1], ids=["head", "layer1"])
def test_layer_only_runs_on_the_reference_models_equal_the_reference_loop(reference_run,
                                                                          selector):
    # at these widths, encoding the whole split and then taking the batch rows
    # differs from encoding each batch in the last bits; the stacked product does not
    _, suite, pre, experts = reference_run
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    kinds = {t.task_id: t.kind for t in suite.tasks}
    _check((pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds),
           AdaptConfig(iterations=5, batch_size=16, seed=0, train_coeffs=False,
                       trainable_layer=selector))


@pytest.mark.parametrize("options", [{}, {"update_mode": "aggregated"}, {"trainable_layer": 0}],
                         ids=["sequential", "aggregated", "layer0"])
def test_joint_runs_on_a_deeper_encoder_equal_the_reference_loop(deep, options):
    _, *setup = deep
    _check(setup, AdaptConfig(iterations=5, batch_size=16, seed=8, **options))


def _sometimes_filtered():
    """Task "u" has two zero rows on which its expert is uniformly unsure
    (zero features, zero head bias) and two on which it is certain (top-1
    softmax exactly 1.0); the merged encoder's bias is not zero, so on the
    zero rows the merged model is more confident and the rows are filtered.
    A batch of the two zero rows is filtered whole, the others are not, and
    every batch of task "s" (certain rows only) is kept."""
    rng = np.random.default_rng(5)
    pre = ParamSet((LayerParams(rng.normal(size=(5, 4)), rng.normal(size=5)),),
                   {t: LayerParams(rng.normal(size=(3, 5)), np.zeros(3)) for t in "su"})
    experts = {t: ParamSet((LayerParams(pre.encoder[0].weight + rng.normal(0.0, 0.3, (5, 4)),
                                        np.zeros(5)),),
                           {t: LayerParams(1e3 * rng.normal(size=(3, 5)), np.zeros(3))})
               for t in "su"}
    inputs = {"s": 10.0 * rng.normal(size=(6, 4)),
              "u": np.vstack([np.zeros((2, 4)), 10.0 * rng.normal(size=(2, 4))])}
    kinds = {t: "classification" for t in experts}
    for t in experts:
        conf = make_self_labels(experts[t], t, inputs[t]).expert_confidence
        assert list(conf == 1.0) == ([True] * 6 if t == "s" else [False, False, True, True])
    return pre, task_vectors_from_experts(pre, experts), experts, inputs, kinds


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("mode", ["sequential", "aggregated"])
@pytest.mark.parametrize("options", [{}, {"train_coeffs": False}, {"trainable_layer": 0}],
                         ids=["head", "head_layer_only", "layer0"])
def test_step_counts_that_diverge_between_tasks_equal_the_reference_loop(mode, options):
    cfg = AdaptConfig(iterations=12, batch_size=2, seed=3, update_mode=mode, **options)
    result = _check(_sometimes_filtered(), cfg)
    kept = {t: [s.kept for s in result.step_stats if s.task == t] for t in "su"}
    assert all(k == 2 for k in kept["s"])
    assert 0 in kept["u"] and any(k > 0 for k in kept["u"])


# ---------------------------------------------------------------------------
# the correlation report's stacked batches


def _correlation_setup(deep, n):
    suite, pre, vectors, experts, _, _ = deep
    ids = tuple(sorted(experts))
    initial = build_assembly(pre, vectors, experts, CoefficientMatrix.constant(ids, 3, 0.3))
    result = symerge(pre, vectors, experts, {t.task_id: t.x_test for t in suite.tasks},
                     AdaptConfig(iterations=4, batch_size=16, seed=2))
    adapted = build_assembly(pre, vectors, experts, result.coeffs, result.trainable)
    sets = {t.task_id: (t.x_test[:n], t.y_test[:n]) for t in suite.tasks}
    return initial, adapted, experts, sets


def _reference_batch_losses(initial, adapted, experts, sets, batch_size):
    """The proxy and ground-truth losses per batch, one `forward` and one
    `loss_eval` per batch, in the order the report passes them to spearman."""
    ce, ent = LossSpec("cross_entropy_hard"), LossSpec("entropy")
    calls = []
    for task in sorted(sets):
        x, y = sets[task]
        labels = np.argmax(forward(experts[task], task, x), axis=1)
        for assembly in (initial, adapted):
            model = assembly.materialize(task)
            cuts = [slice(a, a + batch_size) for a in range(0, len(x) - batch_size + 1, batch_size)]
            logits = [forward(model, task, x[sl]) for sl in cuts]
            gt = [loss_eval(z, y[sl], ce) for z, sl in zip(logits, cuts)]
            calls.append(([loss_eval(z, None, ent) for z in logits], gt))
            calls.append(([loss_eval(z, labels[sl], ce) for z, sl in zip(logits, cuts)], gt))
    return calls


@pytest.mark.parametrize("n, batch_size", [(60, 16), (60, 7), (45, 45 // 2)])
def test_correlation_batches_equal_a_forward_and_loss_eval_per_batch(deep, monkeypatch, n,
                                                                     batch_size):
    initial, adapted, experts, sets = _correlation_setup(deep, n)
    seen = []
    original = analysis.spearman

    def spy(xs, ys):
        seen.append((xs, ys))
        return original(xs, ys)

    monkeypatch.setattr(analysis, "spearman", spy)
    report = loss_correlation_report(initial, adapted, experts, sets, batch_size)
    monkeypatch.undo()
    want = _reference_batch_losses(initial, adapted, experts, sets, batch_size)
    assert len(seen) == len(want) == 2 * 2 * len(sets)
    for (got_x, got_y), (want_x, want_y) in zip(seen, want):
        assert len(got_x) == n // batch_size
        assert np.abs(np.subtract(got_x, want_x)).max() == 0.0
        assert np.abs(np.subtract(got_y, want_y)).max() == 0.0
    assert [c.rho for c in report.cells] == [
        analysis.spearman(xs, ys) for xs, ys in want]


def test_correlation_batches_on_the_reference_models_equal_a_forward_per_batch(reference_run,
                                                                               monkeypatch):
    _, suite, pre, experts = reference_run
    vectors = task_vectors_from_experts(pre, experts)
    ids = tuple(sorted(experts))
    initial = build_assembly(pre, vectors, experts, CoefficientMatrix.constant(ids, 3, 0.3))
    sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    seen = []
    original = analysis.spearman
    monkeypatch.setattr(analysis, "spearman", lambda xs, ys: seen.append((xs, ys)) or
                        original(xs, ys))
    loss_correlation_report(initial, initial, experts, sets, 16)
    assert seen == _reference_batch_losses(initial, initial, experts, sets, 16)


def test_correlation_report_names_non_finite_outputs(deep):
    initial, adapted, experts, sets = _correlation_setup(deep, 60)
    task = sorted(sets)[1]
    x, y = sets[task]
    x = x.copy()
    x[20, 3] = np.nan  # a row of the second batch
    with np.errstate(invalid="ignore"):
        with pytest.raises(ValueError, match="outputs contain non-finite values"):
            loss_correlation_report(initial, adapted, experts, dict(sets, **{task: (x, y)}), 16)


# ---------------------------------------------------------------------------
# the pilot sweep


def test_pilot_sweep_equals_one_pilot_per_encoder(deep):
    suite, pre, vectors, experts, _, _ = deep
    vlist = [vectors[t] for t in sorted(experts)]
    encoders = [merge_task_arithmetic(pre, vlist, c) for c in (0.2, 0.5, 1.0)]
    sweep = pilot_two_stage(encoders, suite, experts, epochs=2, batch_size=16, seed=3)
    assert len(sweep) == 3
    for enc, gains in zip(encoders, sweep):
        assert np.array_equal(gains, pilot_two_stage(enc, suite, experts, epochs=2,
                                                     batch_size=16, seed=3))


# ---------------------------------------------------------------------------
# `gen --severity` out of range


@pytest.mark.parametrize("severity", ["9", "0"])
def test_gen_severity_out_of_range_is_a_config_error(tmp_path, severity):
    out = tmp_path / "data.bundle"
    proc = subprocess.run([sys.executable, "-m", "mergelab", "gen", "--out", str(out),
                           "--samples", "20", "--corruption", "gaussian_noise",
                           "--severity", severity],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 2, proc.stderr
    assert f"config error: --severity: expected an integer in 1..5, got {severity}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()
