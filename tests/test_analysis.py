import numpy as np
import pytest
from scipy import stats as scipy_stats

from mergelab.adaptation import build_assembly, finetune_expert, task_vectors_from_experts
from mergelab.analysis import (
    DegenerateDataError,
    cross_task_matrix,
    discrepancy,
    evaluate,
    loss_correlation_report,
    spearman,
    sparsity_report,
    transfer_metrics,
)
from mergelab.engine import LayerParams, ParamSet, ShapeError, forward, init_params
from mergelab.merging import (CoefficientMatrix, MergedAssembly, TaskVector, compute_task_vector,
                             merge_layerwise)
from mergelab.suites import SuiteConfig, gen_suite, spawn_rng

from conftest import random_paramset


# ---------------------------------------------------------------------------
# evaluate


def test_evaluate_constant_predictor_hits_chance():
    # zero weights, bias favoring class 0 -> constant prediction on a balanced set
    enc = (LayerParams(np.zeros((4, 3)), np.zeros(4)),)
    head = LayerParams(np.zeros((5, 4)), np.array([1.0, 0, 0, 0, 0]))
    x = np.random.default_rng(0).normal(size=(100, 3))
    y = np.tile(np.arange(5), 20)
    assert evaluate(enc, head, x, y) == pytest.approx(1.0 / 5.0)


def test_evaluate_order_invariance():
    rng = np.random.default_rng(1)
    p = random_paramset(rng)
    x = rng.normal(size=(30, 5))
    y = rng.integers(0, 3, 30)
    perm = rng.permutation(30)
    assert evaluate(p.encoder, p.heads["a"], x, y) == \
        evaluate(p.encoder, p.heads["a"], x[perm], y[perm])


def test_evaluate_expert_on_own_separable_task():
    cfg = SuiteConfig(num_tasks=1, classes_per_task=3, input_dim=8, samples_per_split=60,
                      shared_subspace_dim=3, task_rotation_strength=0.0, noise_std=0.05, seed=2)
    suite = gen_suite(cfg)
    t = suite.tasks[0]
    pre = init_params((8, 10, 6), {"task0": 3}, spawn_rng(2, "init"))
    expert = finetune_expert(pre, t.x_train, t.y_train, "task0", epochs=30, lr=0.01, seed=2)
    assert evaluate(expert.encoder, expert.heads["task0"], t.x_train, t.y_train) >= 0.99


def test_evaluate_regression_mean_l1():
    enc = (LayerParams(np.eye(3), np.zeros(3)),)
    head = LayerParams(np.eye(3), np.zeros(3))
    x = 1e-4 * np.ones((2, 3))
    y = np.zeros((2, 3))
    got = evaluate(enc, head, x, y, kind="regression")
    assert got == pytest.approx(3e-4, rel=1e-3)
    with pytest.raises(ValueError):
        evaluate(enc, head, np.zeros((0, 3)), np.zeros((0,)))


# ---------------------------------------------------------------------------
# cross-task matrix


def _three_experts(seed=3):
    cfg = SuiteConfig(num_tasks=3, classes_per_task=3, input_dim=10, samples_per_split=60,
                      shared_subspace_dim=4, task_rotation_strength=0.6, noise_std=0.2, seed=seed)
    suite = gen_suite(cfg)
    pre = init_params((10, 12, 8), {t.task_id: 3 for t in suite.tasks}, spawn_rng(seed, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=6, lr=0.01, seed=seed) for t in suite.tasks}
    return suite, pre, experts


def test_cross_task_matrix_compositional_oracle():
    suite, pre, experts = _three_experts()
    tids = sorted(experts)
    encoders = [experts[t].encoder for t in tids]
    heads = [experts[t].heads[t] for t in tids]
    sets = [(suite.task(t).x_test, suite.task(t).y_test) for t in tids]
    mat = cross_task_matrix(encoders, heads, sets)
    for i in range(3):
        for j in range(3):
            assert mat[i, j] == evaluate(encoders[i], heads[j], *sets[j])
    # diagonal identity
    for i, t in enumerate(tids):
        assert mat[i, i] == evaluate(experts[t].encoder, experts[t].heads[t], *sets[i])


def test_cross_task_matrix_identical_encoders_constant_columns():
    suite, pre, experts = _three_experts(seed=4)
    tids = sorted(experts)
    enc = experts[tids[0]].encoder
    heads = [experts[t].heads[t] for t in tids]
    sets = [(suite.task(t).x_test, suite.task(t).y_test) for t in tids]
    mat = cross_task_matrix([enc, enc, enc], heads, sets)
    for j in range(3):
        assert np.all(mat[:, j] == mat[0, j])


# ---------------------------------------------------------------------------
# transfer metrics


def test_transfer_metrics_zero_coeffs_reduce_to_pretrained():
    suite, pre, experts = _three_experts(seed=5)
    tids = sorted(experts)
    vectors = [compute_task_vector(experts[t], pre) for t in tids]
    heads = [experts[t].heads[t] for t in tids]
    sets = [(suite.task(t).x_test, suite.task(t).y_test) for t in tids]
    coeffs = CoefficientMatrix.constant(tids, 2, 0.0)
    merged_score, cross_score = transfer_metrics(pre.encoder, vectors, coeffs, heads, sets)
    pre_scores = [evaluate(pre.encoder, heads[j], *sets[j]) for j in range(3)]
    assert merged_score == pytest.approx(np.mean(pre_scores), abs=1e-12)
    cross_expect = np.mean([evaluate(pre.encoder, heads[j], *sets[j])
                            for i in range(3) for j in range(3) if i != j])
    assert cross_score == pytest.approx(cross_expect, abs=1e-12)


def test_transfer_metrics_two_tasks_pair_count():
    suite, pre, experts = _three_experts(seed=6)
    tids = sorted(experts)[:2]
    vectors = [compute_task_vector(experts[t], pre) for t in tids]
    heads = [experts[t].heads[t] for t in tids]
    sets = [(suite.task(t).x_test, suite.task(t).y_test) for t in tids]
    coeffs = CoefficientMatrix.constant(tids, 2, 0.3)
    _, cross_score = transfer_metrics(pre.encoder, vectors, coeffs, heads, sets)
    # exactly two ordered pairs: (0,1) and (1,0)
    from mergelab.merging import merge_layerwise
    s01 = evaluate(merge_layerwise(pre.encoder, [vectors[0]],
                                   CoefficientMatrix((tids[0],), coeffs.values[0:1])),
                   heads[1], *sets[1])
    s10 = evaluate(merge_layerwise(pre.encoder, [vectors[1]],
                                   CoefficientMatrix((tids[1],), coeffs.values[1:2])),
                   heads[0], *sets[0])
    assert cross_score == pytest.approx((s01 + s10) / 2.0, abs=1e-12)


def test_transfer_metrics_single_task_rejected():
    suite, pre, experts = _three_experts(seed=7)
    t = sorted(experts)[0]
    vectors = [compute_task_vector(experts[t], pre)]
    with pytest.raises(ValueError):
        transfer_metrics(pre.encoder, vectors, CoefficientMatrix.constant((t,), 2, 0.3),
                         [experts[t].heads[t]], [(suite.task(t).x_test, suite.task(t).y_test)])


def test_cross_merge_pairs_compositional_oracle():
    from mergelab.analysis import cross_merge_pairs
    from mergelab.merging import merge_uniform
    suite, pre, experts = _three_experts(seed=8)
    tids = sorted(experts)
    sets = {t: (suite.task(t).x_test, suite.task(t).y_test) for t in tids}
    pairs, rho = cross_merge_pairs(experts, sets)
    assert [(p.encoder_task, p.head_task) for p in pairs] == [  # ordered pairs of 3 tasks
        (a, b) for a in tids for b in tids if a != b]
    for p in pairs:
        head = experts[p.head_task].heads[p.head_task]
        assert p.cross_accuracy == evaluate(experts[p.encoder_task].encoder, head,
                                            *sets[p.head_task])
        merged = merge_uniform([experts[p.encoder_task], experts[p.head_task]])
        assert p.merge_accuracy == evaluate(merged, head, *sets[p.head_task])
    assert rho is None or -1.0 <= rho <= 1.0
    with pytest.raises(ValueError):
        cross_merge_pairs({tids[0]: experts[tids[0]]}, sets)


def test_cross_merge_correlation_positive_on_reference_seed(reference_run):
    from mergelab.analysis import cross_merge_pairs
    cfg, suite, pre, experts = reference_run
    sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    pairs, rho = cross_merge_pairs(experts, sets)
    assert len(pairs) == 12
    assert rho is not None and rho > 0.0


# ---------------------------------------------------------------------------
# the one cross-task scorer: every analysis that scores encoder x head pairs
# equals a per-pair `evaluate` loop to the last bit


def _scorer_inputs(seed=9):
    suite, pre, experts = _three_experts(seed=seed)
    tids = sorted(experts)
    vectors = [compute_task_vector(experts[t], pre) for t in tids]
    heads = [experts[t].heads[t] for t in tids]
    sets = [(suite.task(t).x_test, suite.task(t).y_test) for t in tids]
    return suite, pre, experts, tids, vectors, heads, sets


def test_cross_task_matrix_takes_any_number_of_encoders():
    suite, pre, experts, tids, vectors, heads, sets = _scorer_inputs()
    merged = merge_layerwise(pre.encoder, vectors, CoefficientMatrix.constant(tids, 2, 0.3))
    for encoders in ([experts[t].encoder for t in tids] + [pre.encoder, merged],  # 5 x 3
                     [merged]):  # 1 x 3
        mat = cross_task_matrix(encoders, heads, sets)
        assert mat.shape == (len(encoders), 3)
        for i, enc in enumerate(encoders):
            for j in range(3):
                assert mat[i, j] - evaluate(enc, heads[j], *sets[j]) == 0.0
    assert cross_task_matrix([], heads, sets).shape == (0, 3)


def test_cross_task_matrix_rejects_a_head_without_a_test_set():
    suite, pre, experts, tids, vectors, heads, sets = _scorer_inputs()
    with pytest.raises(ShapeError, match="need one test set per head: 3 heads, 2 sets"):
        cross_task_matrix([pre.encoder], heads, sets[:2])
    with pytest.raises(ShapeError, match="2 heads, 3 sets"):
        cross_task_matrix([pre.encoder], heads[:2], sets)


def test_cross_task_matrix_rejects_an_empty_test_split():
    suite, pre, experts, tids, vectors, heads, sets = _scorer_inputs()
    x, y = sets[1]
    sets[1] = (x[:0], y[:0])
    with pytest.raises(ValueError, match="empty evaluation set"):
        cross_task_matrix([pre.encoder], heads, sets)


def test_transfer_metrics_equals_a_per_pair_evaluate_loop():
    suite, pre, experts, tids, vectors, heads, sets = _scorer_inputs()
    coeffs = CoefficientMatrix(tids, np.random.default_rng(9).uniform(0.0, 0.6, (3, 2)))
    merged_score, cross_score = transfer_metrics(pre.encoder, vectors, coeffs, heads, sets)
    merged = merge_layerwise(pre.encoder, vectors, coeffs)
    assert merged_score - np.mean([evaluate(merged, heads[j], *sets[j]) for j in range(3)]) == 0.0
    single = [merge_layerwise(pre.encoder, [vectors[i]],
                              CoefficientMatrix((tids[i],), coeffs.values[i:i + 1]))
              for i in range(3)]
    pairs = [evaluate(single[i], heads[j], *sets[j])
             for i in range(3) for j in range(3) if i != j]
    assert cross_score - np.mean(pairs) == 0.0


def test_pilot_gains_equal_a_per_pair_evaluate_loop(monkeypatch):
    from mergelab import adaptation
    suite, pre, experts, tids, vectors, heads, sets = _scorer_inputs()
    plans, fit = [], adaptation._fit
    monkeypatch.setattr(adaptation, "_fit", lambda plan, *a: (plans.append(plan), fit(plan, *a)))
    encoders = [merge_layerwise(pre.encoder, vectors, CoefficientMatrix.constant(tids, 2, lam))
                for lam in (0.2, 0.5)]
    sweep = adaptation.pilot_two_stage(encoders, suite, experts, epochs=2, seed=1)
    assert len(sweep) == 2 and len(plans) == 6  # one retrained head per (encoder, task)
    for n, gains in enumerate(sweep):
        retrained = [plan.trained()[0] for plan in plans[3 * n:3 * n + 3]]
        for i, t in enumerate(tids):
            for j in range(3):
                gain = (evaluate(experts[t].encoder, retrained[j], *sets[j])
                        - evaluate(experts[t].encoder, heads[j], *sets[j]))
                assert gains[i, j] - gain == 0.0


# ---------------------------------------------------------------------------
# spearman


def test_spearman_identity_and_reversal():
    xs = np.array([3.0, 1.0, 4.0, 1.5, 9.0])
    assert spearman(xs, xs) == pytest.approx(1.0)
    assert spearman(xs, -xs) == pytest.approx(-1.0)


def test_spearman_hand_computed():
    # 1 - 6 * sum(d^2) / (n (n^2-1)) with d = (0, 1, 1) -> 1 - 12/24 = -0.5... d=(rank diffs)
    assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)


def test_spearman_matches_rank_formula_oracle_on_permutations():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(3, 12))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        d = xs - ys  # ranks of a permutation are the values themselves (0-based shift cancels)
        expect = 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))
        assert spearman(xs, ys) == pytest.approx(expect, abs=1e-12)


def test_spearman_ties_average_rank_matches_scipy():
    rng = np.random.default_rng(9)
    for _ in range(50):
        xs = rng.integers(0, 4, 10).astype(float)
        ys = rng.integers(0, 4, 10).astype(float)
        try:
            got = spearman(xs, ys)
        except DegenerateDataError:
            assert np.std(scipy_stats.rankdata(xs)) == 0 or np.std(scipy_stats.rankdata(ys)) == 0
            continue
        expect = scipy_stats.spearmanr(xs, ys).statistic
        assert got == pytest.approx(expect, abs=1e-12)


def test_spearman_invariant_to_monotone_transforms():
    rng = np.random.default_rng(10)
    xs = rng.normal(size=20)
    ys = rng.normal(size=20)
    base = spearman(xs, ys)
    assert spearman(np.exp(xs), ys) == pytest.approx(base, abs=1e-12)
    assert spearman(xs, 3.0 * ys + 7.0) == pytest.approx(base, abs=1e-12)


def test_spearman_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        spearman([1.0], [2.0])
    with pytest.raises(DegenerateDataError):
        spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# loss correlation report


def test_correlation_self_ce_equals_gt_when_expert_is_perfect():
    # noiseless task: the expert's labels coincide with ground truth, so the
    # self-labeling proxy IS the ground-truth loss -> rho = 1
    cfg = SuiteConfig(num_tasks=2, classes_per_task=3, input_dim=8, samples_per_split=64,
                      shared_subspace_dim=3, task_rotation_strength=0.4, noise_std=0.0, seed=11)
    suite = gen_suite(cfg)
    pre = init_params((8, 10, 6), {t.task_id: 3 for t in suite.tasks}, spawn_rng(11, "init"))
    experts = {t.task_id: finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                          epochs=25, lr=0.01, seed=11) for t in suite.tasks}
    for t in suite.tasks:
        assert evaluate(experts[t.task_id].encoder, experts[t.task_id].heads[t.task_id],
                        t.x_test, t.y_test) == 1.0
    vectors = task_vectors_from_experts(pre, experts)
    tids = tuple(sorted(experts))
    coeffs = CoefficientMatrix.constant(tids, 2, 0.3)
    asm = build_assembly(pre, vectors, experts, coeffs, {})
    sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    report = loss_correlation_report(asm, asm, experts, sets, batch_size=8)
    for t in tids:
        for stage in ("initial", "adapted"):
            assert report.rho(t, "self_ce", stage) == pytest.approx(1.0)


def test_correlation_constant_predictor_reports_undefined():
    # zero model -> identical logits on every batch -> zero variance everywhere
    enc = (LayerParams(np.zeros((4, 6)), np.zeros(4)),)
    head = LayerParams(np.zeros((3, 4)), np.zeros(3))
    expert = ParamSet(enc, {"t": head})
    vec = TaskVector((LayerParams(np.zeros((4, 6)), np.zeros(4)),))
    asm = MergedAssembly(enc, (vec,), CoefficientMatrix.constant(("t",), 1, 0.3),
                         {"t": head}, {})
    rng = np.random.default_rng(12)
    sets = {"t": (rng.normal(size=(32, 6)), rng.integers(0, 3, 32))}
    report = loss_correlation_report(asm, asm, {"t": expert}, sets, batch_size=8)
    for cell in report.cells:
        assert cell.status == "undefined" and cell.rho is None


def test_correlation_requires_two_batches():
    rng = np.random.default_rng(13)
    p = random_paramset(rng, tasks=("t",))
    vec = TaskVector(tuple(LayerParams(np.zeros_like(l.weight), np.zeros_like(l.bias))
                           for l in p.encoder))
    asm = MergedAssembly(p.encoder, (vec,), CoefficientMatrix.constant(("t",), 2, 0.3),
                         {"t": p.heads["t"]}, {})
    sets = {"t": (rng.normal(size=(8, 5)), rng.integers(0, 3, 8))}
    with pytest.raises(DegenerateDataError):
        loss_correlation_report(asm, asm, {"t": p}, sets, batch_size=8)


# ---------------------------------------------------------------------------
# discrepancy


def test_discrepancy_identical_predictions():
    y = np.array([0, 1, 2, 1])
    rep = discrepancy(y, y, y)
    assert (rep.fails, rep.gains, rep.net) == (0, 0, 0)


def test_discrepancy_extremes():
    labels = np.zeros(7, dtype=int)
    expert = np.zeros(7, dtype=int)  # all correct
    merged = np.ones(7, dtype=int)  # all wrong
    rep = discrepancy(merged, expert, labels)
    assert (rep.fails, rep.gains, rep.net) == (7, 0, 7)


def test_discrepancy_matches_bruteforce_enumeration():
    rng = np.random.default_rng(14)
    labels = rng.integers(0, 4, 200)
    merged = rng.integers(0, 4, 200)
    expert = rng.integers(0, 4, 200)
    rep = discrepancy(merged, expert, labels)
    fails = sum(1 for m, e, y in zip(merged, expert, labels) if e == y and m != y)
    gains = sum(1 for m, e, y in zip(merged, expert, labels) if m == y and e != y)
    assert (rep.fails, rep.gains) == (fails, gains)
    # accounting identity, in exact integer form
    assert int((merged == labels).sum()) - int((expert == labels).sum()) == rep.gains - rep.fails


# ---------------------------------------------------------------------------
# sparsity


def test_sparsity_all_zero_and_none():
    zero = CoefficientMatrix.constant(("a", "b"), 3, 0.0)
    assert sparsity_report(zero).overall == 1.0
    dense = CoefficientMatrix.constant(("a", "b"), 3, 0.3)
    assert sparsity_report(dense).overall == 0.0


def test_sparsity_direct_count():
    values = np.full((4, 3), 0.2)
    values[0, 0] = values[1, 1] = values[2, 2] = 1e-6
    rep = sparsity_report(CoefficientMatrix(("a", "b", "c", "d"), values))
    assert rep.overall == pytest.approx(3 / 12)
    assert rep.per_layer == (pytest.approx(0.25), pytest.approx(0.25), pytest.approx(0.25))


def test_cross_merge_with_zero_rank_variance_reports_no_rho(tmp_path):
    import json

    from mergelab.analysis import cross_merge_pairs
    from mergelab.cli import main
    from mergelab.serialization import load_suite, save_checkpoint
    data, ckpts, out = tmp_path / "data.bundle", tmp_path / "ckpts", tmp_path / "out"
    assert main(["gen", "--out", str(data), "--tasks", "2", "--classes", "3", "--input-dim", "6",
                 "--samples", "24", "--subspace-dim", "3", "--seed", "3"]) == 0
    suite = load_suite(data)
    # zero heads predict class 0 everywhere: every pair scores 1/3, a tie in both ranks
    encoder = init_params((6, 4), {}, spawn_rng(0, "init")).encoder
    heads = {t: LayerParams(np.zeros((3, 4)), np.zeros(3)) for t in suite.task_ids}
    experts = {t: ParamSet(encoder, {t: heads[t]}) for t in heads}
    pairs, rho = cross_merge_pairs(experts, {t.task_id: (t.x_test, t.y_test) for t in suite.tasks})
    assert rho is None
    assert {(p.cross_accuracy, p.merge_accuracy) for p in pairs} == {(1 / 3, 1 / 3)}

    ckpts.mkdir()
    save_checkpoint(ParamSet(encoder, heads), ckpts / "pre.ckpt")
    for t, expert in experts.items():
        save_checkpoint(expert, ckpts / f"expert_{t}.ckpt")
    assert main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts), "--method",
                 "task_arithmetic", "--analyses", "cross_merge", "--out-dir", str(out)]) == 0
    summary = json.loads((out / "cross_merge.json").read_text())["rows"][-1]
    assert summary["row_type"] == "summary" and summary["spearman_rho"] is None
    assert (out / "cross_merge.csv").read_text().splitlines()[-1].endswith("summary,,,,,")
