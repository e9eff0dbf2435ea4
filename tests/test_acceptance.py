"""Acceptance suite: one test per criterion, each printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines. The
end-to-end criteria share one 10-seed study of the reference configuration
(configs/reference.json) computed once per session.
"""

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest

from mergelab.adaptation import (
    AdaptConfig,
    adamerging_entropy,
    build_assembly,
    pilot_two_stage,
    symerge,
    task_vectors_from_experts,
)
from mergelab.analysis import (
    cross_task_matrix,
    discrepancy,
    evaluate,
    evaluate_assembly,
    loss_correlation_report,
    spearman,
)
from mergelab.cli import main as cli_main
from mergelab.engine import (
    LayerParams,
    LossSpec,
    ParamSet,
    arrays_to_params,
    backward,
    forward,
    loss_eval,
    params_to_arrays,
)
from mergelab.merging import (
    CoefficientMatrix,
    TaskVector,
    coefficient_grad,
    compute_task_vector,
    merge_layerwise,
    merge_task_arithmetic,
    merge_uniform,
)
from mergelab.serialization import load_checkpoint, save_checkpoint
from mergelab.suites import CorruptionSpec, corrupt_suite, spawn_rng
from mergelab.theory import Prop1Instance, prop1_verify, random_linear_instance

from conftest import (build_reference_models, fd_rel_error, load_reference, params_equal,
                      random_paramset)

ALL_LOSS_KINDS = ("cross_entropy_hard", "cross_entropy_soft", "entropy", "kl", "js",
                  "l1", "l2", "smooth_l1", "cosine")

CORRUPTION_KINDS = ("gaussian_noise", "feature_mask", "contrast_scale")


def _report(num: int, ok: bool, text: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _targets_for(rng, kind: str, n: int, c: int):
    spec = LossSpec(kind)
    if spec.target_arity == "labels":
        return rng.integers(0, c, n)
    if spec.target_arity == "distribution":
        raw = rng.random((n, c)) + 1e-3
        return raw / raw.sum(axis=1, keepdims=True)
    if spec.target_arity == "none":
        return None
    return rng.normal(size=(n, c))


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    h = 1e-5
    tol = 1e-4
    instances = 0
    worst = 0.0

    # parameter gradients: 6 randomized instances per loss kind
    for k, kind in enumerate(ALL_LOSS_KINDS):
        for rep in range(6):
            rng = np.random.default_rng(10_000 + 97 * k + rep)
            dims = tuple(int(d) for d in rng.integers(3, 7, 3))
            classes = int(rng.integers(2, 5))
            params = random_paramset(rng, dims=dims, tasks=("t",), classes=classes)
            x = rng.normal(size=(4, dims[0]))
            targets = _targets_for(rng, kind, 4, classes)
            spec = LossSpec(kind)
            _, grads = backward(params, "t", x, targets, spec)
            analytic = params_to_arrays(grads)
            arrays = [a.copy() for a in params_to_arrays(params)]
            for ai in range(len(arrays)):
                flat = arrays[ai].ravel()
                g = analytic[ai].ravel()
                for j in range(flat.size):
                    orig = flat[j]
                    flat[j] = orig + h
                    lp = loss_eval(forward(arrays_to_params(params, arrays), "t", x), targets, spec)
                    flat[j] = orig - h
                    lm = loss_eval(forward(arrays_to_params(params, arrays), "t", x), targets, spec)
                    flat[j] = orig
                    fd = (lp - lm) / (2 * h)
                    worst = max(worst, fd_rel_error(fd, g[j]))
            instances += 1

    # merging-coefficient gradients: one randomized instance per loss kind
    for k, kind in enumerate(ALL_LOSS_KINDS):
        rng = np.random.default_rng(20_000 + k)
        dims = (5, 6, 4)
        classes = 3
        pre = random_paramset(rng, dims=dims, tasks=("t",), classes=classes)
        vectors = [compute_task_vector(random_paramset(rng, dims=dims, tasks=("t",),
                                                       classes=classes), pre)
                   for _ in range(3)]
        head = pre.heads["t"]
        coeffs = CoefficientMatrix(("a", "b", "c"), rng.normal(0.3, 0.3, (3, 2)))
        x = rng.normal(size=(5, dims[0]))
        targets = _targets_for(rng, kind, 5, classes)
        spec = LossSpec(kind)

        def loss_of(values):
            enc = merge_layerwise(pre.encoder, vectors, CoefficientMatrix(coeffs.task_ids, values))
            return loss_eval(forward(ParamSet(enc, {"t": head}), "t", x), targets, spec)

        enc = merge_layerwise(pre.encoder, vectors, coeffs)
        _, grads = backward(ParamSet(enc, {"t": head}), "t", x, targets, spec)
        analytic = coefficient_grad(grads.encoder, vectors)
        for r in range(3):
            for l in range(2):
                vp = coeffs.values.copy(); vp[r, l] += h
                vm = coeffs.values.copy(); vm[r, l] -= h
                fd = (loss_of(vp) - loss_of(vm)) / (2 * h)
                worst = max(worst, fd_rel_error(fd, analytic[r, l]))
        instances += 1

    elapsed = time.monotonic() - t0
    ok = worst < tol and instances >= 50 and elapsed < 30.0
    _report(1, ok, f"gradients vs central differences: {instances} instances, "
                   f"worst rel err {worst:.2e} (< {tol}), {elapsed:.1f}s (< 30s)")


# ---------------------------------------------------------------------------
# criterion 2: merge algebra


def test_criterion_2_merge_algebra():
    t0 = time.monotonic()
    tol = 1e-12
    worst = 0.0

    def track(delta):
        nonlocal worst
        worst = max(worst, float(delta))

    for i in range(20):
        rng = np.random.default_rng(30_000 + i)
        depth = int(rng.integers(1, 5))
        dims = tuple(int(d) for d in rng.integers(2, 8, depth + 1))
        k = int(rng.integers(1, 5))
        pre = tuple(LayerParams(rng.normal(size=(o, n)), rng.normal(size=o))
                    for n, o in zip(dims, dims[1:]))
        experts = []
        for _ in range(k):
            experts.append(tuple(LayerParams(rng.normal(size=(o, n)), rng.normal(size=o))
                                 for n, o in zip(dims, dims[1:])))
        vectors = [TaskVector(tuple(LayerParams(e[l].weight - pre[l].weight,
                                                e[l].bias - pre[l].bias)
                                    for l in range(depth))) for e in experts]
        ids = tuple(f"t{j}" for j in range(k))

        # round trip: pre + vector reproduces the expert
        for e, v in zip(experts, vectors):
            for l in range(depth):
                track(np.abs(pre[l].weight + v.deltas[l].weight - e[l].weight).max())

        # null merge is the pre-trained encoder
        null = merge_task_arithmetic(pre, vectors, 0.0)
        for l in range(depth):
            track(np.abs(null[l].weight - pre[l].weight).max())

        # one-hot selection reproduces expert 0
        onehot = np.zeros((k, depth)); onehot[0, :] = 1.0
        sel = merge_layerwise(pre, vectors, CoefficientMatrix(ids, onehot))
        for l in range(depth):
            track(np.abs(sel[l].weight - experts[0][l].weight).max())

        # constant reduction equals scalar task arithmetic
        c = float(rng.normal())
        lw = merge_layerwise(pre, vectors, CoefficientMatrix.constant(ids, depth, c))
        ta = merge_task_arithmetic(pre, vectors, c)
        for l in range(depth):
            track(np.abs(lw[l].weight - ta[l].weight).max())

        # linearity of the merge offset in the coefficients
        l1 = CoefficientMatrix(ids, rng.normal(size=(k, depth)))
        l2 = CoefficientMatrix(ids, rng.normal(size=(k, depth)))
        a, b = float(rng.normal()), float(rng.normal())
        combo = merge_layerwise(pre, vectors, CoefficientMatrix(ids, a * l1.values + b * l2.values))
        m1 = merge_layerwise(pre, vectors, l1)
        m2 = merge_layerwise(pre, vectors, l2)
        for l in range(depth):
            lhs = combo[l].weight - pre[l].weight
            rhs = a * (m1[l].weight - pre[l].weight) + b * (m2[l].weight - pre[l].weight)
            track(np.abs(lhs - rhs).max())

        # uniform mean of experts sharing pre equals lambda = 1/k
        uni = merge_uniform(experts)
        ta_k = merge_task_arithmetic(pre, vectors, 1.0 / k)
        for l in range(depth):
            track(np.abs(uni[l].weight - ta_k[l].weight).max())

    elapsed = time.monotonic() - t0
    ok = worst < tol and elapsed < 5.0
    _report(2, ok, f"merge identities on 20 random shapes: worst deviation {worst:.2e} "
                   f"(< {tol}), {elapsed:.1f}s (< 5s)")


# ---------------------------------------------------------------------------
# criterion 3: proposition bound


def test_criterion_3_proposition_bound():
    t0 = time.monotonic()
    holds = exact = 0
    for i in range(100):
        kind = ("l2", "cross_entropy_hard", "l1")[i % 3]
        rep = prop1_verify(random_linear_instance(np.random.default_rng(40_000 + i),
                                                  loss_kind=kind))
        if rep.loss_merge <= rep.jensen_bound + 1e-10 and rep.ctl_residual < 1e-10:
            holds += 1
        if rep.bound_synergy == rep.bound_disentangled - rep.eps / 2.0:
            exact += 1

    scalar = prop1_verify(Prop1Instance(
        family="linear",
        theta_0=(LayerParams([[0.0]], [0.0]),),
        theta_i=(LayerParams([[0.5]], [0.0]),),
        theta_j=(LayerParams([[1.0]], [0.0]),),
        inputs=np.array([[1.0]]),
        targets=np.array([[1.0]]),
        loss=LossSpec("l2"),
    ))
    scalar_ok = (scalar.loss_merge == pytest.approx(0.0625, abs=1e-15)
                 and scalar.jensen_bound == pytest.approx(0.125, abs=1e-15)
                 and scalar.loss_merge <= scalar.jensen_bound
                 and scalar.bound_disentangled == pytest.approx(0.5, abs=1e-15)
                 and scalar.bound_synergy == pytest.approx(0.125, abs=1e-15))

    elapsed = time.monotonic() - t0
    ok = holds == 100 and exact == 100 and scalar_ok and elapsed < 10.0
    _report(3, ok, f"Jensen bound on 100 linear instances ({holds}/100 within 1e-10), "
                   f"synergy-bound identity exact ({exact}/100), scalar instance "
                   f"L_merge=0.0625<=0.125 with disentangled bound 0.5: "
                   f"{'reproduced' if scalar_ok else 'mismatch'}, {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# shared 10-seed study for the end-to-end criteria


@dataclass
class SeedOutcome:
    seed: int
    individual: float
    task_arithmetic: float
    joint: float
    coef_only: float
    layer_only: float
    adamerging: float
    corr_wins: int
    num_tasks: int
    transfer_baseline: tuple
    transfer_adapted: tuple
    corrupted_joint: float
    corrupted_ta: float
    # off-diagonal mean gains (expert encoder i, head j != i, on task j's test
    # split) of the joint run's adapted heads and of the two-stage pilot's heads
    label_free_gain: float
    supervised_gain: float
    discrepancy_checks: list = field(default_factory=list)


def _run_seed(seed: int, adapt_cfg: dict) -> SeedOutcome:
    cfg, suite, pre, experts = build_reference_models(seed)
    tids = tuple(sorted(experts))
    vectors = task_vectors_from_experts(pre, experts)
    vlist = [vectors[t] for t in tids]
    inputs = {t.task_id: t.x_test for t in suite.tasks}
    test_sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}

    def mean_assembly_acc(asm, sets):
        return float(np.mean([evaluate_assembly(asm, t, *sets[t]) for t in tids]))

    individual = float(np.mean([
        evaluate(experts[t].encoder, experts[t].head(t), *test_sets[t]) for t in tids]))
    ta_enc = merge_task_arithmetic(pre, vlist, 0.3)
    ta = float(np.mean([evaluate(ta_enc, experts[t].head(t), *test_sets[t]) for t in tids]))

    base_cfg = dict(adapt_cfg, seed=seed)
    joint_res = symerge(pre, vectors, experts, inputs, AdaptConfig(**base_cfg))
    joint_asm = build_assembly(pre, vectors, experts, joint_res.coeffs, joint_res.trainable)
    joint = mean_assembly_acc(joint_asm, test_sets)

    coef_cfg = AdaptConfig(**dict(base_cfg, trainable_layer=None))
    coef_res = symerge(pre, vectors, experts, inputs, coef_cfg)
    coef_only = mean_assembly_acc(build_assembly(pre, vectors, experts, coef_res.coeffs, {}),
                                  test_sets)
    # entropy adaptation of the coefficients alone, from the same start
    entropy_coeffs = adamerging_entropy(pre, vectors, {t: experts[t].head(t) for t in tids},
                                        inputs, coef_cfg)
    adamerging = mean_assembly_acc(build_assembly(pre, vectors, experts, entropy_coeffs, {}),
                                   test_sets)
    layer_res = symerge(pre, vectors, experts, inputs,
                        AdaptConfig(**dict(base_cfg, train_coeffs=False)))
    layer_only = mean_assembly_acc(
        build_assembly(pre, vectors, experts, layer_res.coeffs, layer_res.trainable), test_sets)

    init_coeffs = CoefficientMatrix.constant(tids, len(pre.encoder), 0.3)
    initial_asm = build_assembly(pre, vectors, experts, init_coeffs, {})
    corr = loss_correlation_report(initial_asm, joint_asm, experts, test_sets,
                                   batch_size=adapt_cfg["batch_size"])
    corr_wins = 0
    for t in tids:
        sce = corr.rho(t, "self_ce", "adapted")
        ent = corr.rho(t, "entropy", "adapted")
        if sce is not None and (ent is None or sce >= ent):
            corr_wins += 1

    from mergelab.analysis import transfer_metrics
    base_heads = [experts[t].head(t) for t in tids]
    transfer_baseline = transfer_metrics(pre.encoder, vlist, init_coeffs, base_heads,
                                         [test_sets[t] for t in tids])
    adapted_heads = [joint_res.trainable[t].params for t in tids]
    transfer_adapted = transfer_metrics(pre.encoder, vlist, init_coeffs, adapted_heads,
                                        [test_sets[t] for t in tids])
    off_diagonal = ~np.eye(len(tids), dtype=bool)
    expert_encoders, sets = [experts[t].encoder for t in tids], [test_sets[t] for t in tids]
    head_gains = (cross_task_matrix(expert_encoders, adapted_heads, sets)
                  - cross_task_matrix(expert_encoders, base_heads, sets))
    pilot_gains = pilot_two_stage(ta_enc, suite, experts, seed=seed)

    checks = []
    for t in tids:
        x, y = test_sets[t]
        model = joint_asm.materialize(t)
        merged_pred = np.argmax(forward(model, t, x), axis=1)
        expert_pred = np.argmax(forward(experts[t], t, x), axis=1)
        rep = discrepancy(merged_pred, expert_pred, y)
        checks.append((int((merged_pred == y).sum()), int((expert_pred == y).sum()),
                       rep.gains, rep.fails, rep.n))

    sy_corr, ta_corr = [], []
    for kind in CORRUPTION_KINDS:
        csuite = corrupt_suite(suite, CorruptionSpec(kind, 5), seed)
        cinputs = {t.task_id: t.x_test for t in csuite.tasks}
        csets = {t.task_id: (t.x_test, t.y_test) for t in csuite.tasks}
        cres = symerge(pre, vectors, experts, cinputs, AdaptConfig(**base_cfg))
        casm = build_assembly(pre, vectors, experts, cres.coeffs, cres.trainable)
        sy_corr.append(mean_assembly_acc(casm, csets))
        ta_corr.append(float(np.mean([evaluate(ta_enc, experts[t].head(t), *csets[t])
                                      for t in tids])))
        for t in tids:
            x, y = csets[t]
            model = casm.materialize(t)
            merged_pred = np.argmax(forward(model, t, x), axis=1)
            expert_pred = np.argmax(forward(experts[t], t, x), axis=1)
            rep = discrepancy(merged_pred, expert_pred, y)
            checks.append((int((merged_pred == y).sum()), int((expert_pred == y).sum()),
                           rep.gains, rep.fails, rep.n))

    return SeedOutcome(
        seed=seed, individual=individual, task_arithmetic=ta, joint=joint,
        coef_only=coef_only, layer_only=layer_only, adamerging=adamerging, corr_wins=corr_wins,
        num_tasks=len(tids), transfer_baseline=transfer_baseline,
        transfer_adapted=transfer_adapted, corrupted_joint=float(np.mean(sy_corr)),
        corrupted_ta=float(np.mean(ta_corr)),
        label_free_gain=float(head_gains[off_diagonal].mean()),
        supervised_gain=float(pilot_gains[off_diagonal].mean()), discrepancy_checks=checks,
    )


@pytest.fixture(scope="module")
def study():
    ref = load_reference()
    adapt_cfg = {
        "iterations": ref["adapt"]["iterations"],
        "batch_size": ref["adapt"]["batch_size"],
        "init_coeff": ref["adapt"]["init_coeff"],
    }
    t0 = time.monotonic()
    outcomes = [_run_seed(seed, adapt_cfg) for seed in range(10)]
    return outcomes, time.monotonic() - t0


def test_criterion_4_end_to_end_synergy(study):
    outcomes, elapsed = study
    beats_ta = sum(1 for o in outcomes if o.joint >= o.task_arithmetic)
    near_expert = sum(1 for o in outcomes if o.individual - o.joint <= 0.05)
    ok = beats_ta >= 9 and near_expert >= 8 and elapsed < 180.0
    _report(4, ok, f"joint adaptation >= task_arithmetic(0.3) on {beats_ta}/10 seeds "
                   f"(need 9), within 5 points of experts on {near_expert}/10 (need 8), "
                   f"study took {elapsed:.0f}s (< 180s)")


def test_criterion_5_component_ablation(study):
    outcomes, _ = study
    wins = sum(1 for o in outcomes if o.joint >= max(o.coef_only, o.layer_only))
    ok = wins >= 7
    _report(5, ok, f"joint >= max(coefficients-only, layer-only) on {wins}/10 seeds (need 7)")


def test_criterion_6_loss_correlation(study):
    outcomes, _ = study
    majority = sum(1 for o in outcomes if o.corr_wins > o.num_tasks / 2)

    rng = np.random.default_rng(60_000)
    oracle_ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 15))
        xs = rng.permutation(n).astype(float)
        ys = rng.permutation(n).astype(float)
        d = xs - ys
        expect = 1.0 - 6.0 * float((d * d).sum()) / (n * (n * n - 1))
        if abs(spearman(xs, ys) - expect) > 1e-12:
            oracle_ok = False
            break

    ok = majority >= 8 and oracle_ok
    _report(6, ok, f"self-labeling CE beats entropy correlation on a task majority for "
                   f"{majority}/10 seeds (need 8); rank-formula oracle on 1000 "
                   f"permutations: {'exact' if oracle_ok else 'mismatch'}")


def test_criterion_7_cross_task_transfer(study, reference_run):
    outcomes, _ = study
    cfg, suite, pre, experts = reference_run
    vectors = task_vectors_from_experts(pre, experts)
    tids = tuple(sorted(experts))
    vlist = [vectors[t] for t in tids]
    mid_gains = []
    for coeff in (0.3, 0.4, 0.5, 0.6, 0.7):
        enc = merge_task_arithmetic(pre, vlist, coeff)
        gains = pilot_two_stage(enc, suite, experts, seed=0)
        mid_gains.append(gains[~np.eye(len(tids), dtype=bool)].mean())
    pilot_ok = all(g > 0 for g in mid_gains)

    transfer_wins = sum(
        1 for o in outcomes
        if o.transfer_adapted[0] > o.transfer_baseline[0]
        and o.transfer_adapted[1] > o.transfer_baseline[1])
    ok = pilot_ok and transfer_wins >= 7
    _report(7, ok, f"two-stage pilot mean gain positive at mid-range coefficients "
                   f"(min {min(mid_gains):+.4f}); adapted heads beat baseline heads in "
                   f"both transfer columns on {transfer_wins}/10 seeds (need 7)")


def test_criterion_8_corruption_robustness(study):
    outcomes, _ = study
    wins = sum(1 for o in outcomes if o.corrupted_joint > o.corrupted_ta)
    ok = wins >= 7
    _report(8, ok, f"on severity-5 corrupted test sets, joint adaptation beats "
                   f"task_arithmetic(0.3) on {wins}/10 seeds (need 7)")


def test_criterion_9_discrepancy_accounting(study):
    outcomes, _ = study
    checked = bad = 0
    for o in outcomes:
        for m_correct, e_correct, gains, fails, n in o.discrepancy_checks:
            checked += 1
            if m_correct - e_correct != gains - fails:
                bad += 1
    ok = bad == 0 and checked > 0
    _report(9, ok, f"merged-vs-expert accuracy difference equals (gains - fails)/n "
                   f"exactly on {checked - bad}/{checked} evaluated configurations")


def test_criterion_10_reproducibility(tmp_path):
    def pipeline(root: Path):
        root.mkdir()
        data = root / "data.bundle"
        assert cli_main(["gen", "--out", str(data), "--tasks", "3", "--classes", "3",
                         "--input-dim", "10", "--samples", "48", "--subspace-dim", "4",
                         "--rotation", "0.6", "--noise", "0.2", "--seed", "21"]) == 0
        ckpts = root / "ckpts"
        assert cli_main(["finetune", "--data", str(data), "--out-dir", str(ckpts),
                         "--hidden", "12,8", "--pre-epochs", "1", "--epochs", "4",
                         "--seed", "21"]) == 0
        adapted = root / "adapted"
        assert cli_main(["adapt", "--data", str(data), "--ckpt-dir", str(ckpts),
                         "--method", "symerge", "--out-dir", str(adapted),
                         "--iterations", "6", "--batch-size", "8", "--seed", "21"]) == 0
        out = root / "results"
        assert cli_main(["analyze", "--data", str(data), "--ckpt-dir", str(ckpts),
                         "--coeffs", str(adapted / "coeffs.json"),
                         "--layers", str(adapted / "trainable.bundle"),
                         "--analyses", "eval,sparsity,discrepancy",
                         "--batch-size", "8", "--out-dir", str(out)]) == 0
        return out

    out1 = pipeline(tmp_path / "run1")
    out2 = pipeline(tmp_path / "run2")
    mismatches = []
    for name in ("eval.csv", "eval.json", "sparsity.csv", "sparsity.json",
                 "discrepancy.csv", "discrepancy.json", "analyze.manifest.json"):
        if (out1 / name).read_bytes() != (out2 / name).read_bytes():
            mismatches.append(name)

    rng = np.random.default_rng(70_000)
    params = random_paramset(rng)
    ck = tmp_path / "m.ckpt"
    save_checkpoint(params, ck)
    round_trip_ok = params_equal(load_checkpoint(ck), params)

    ok = not mismatches and round_trip_ok
    _report(10, ok, f"re-run reproduces reports byte-identically "
                    f"({'all files match' if not mismatches else 'mismatch: ' + ','.join(mismatches)}); "
                    f"checkpoint round trip bit-exact: {round_trip_ok}")


def test_criterion_11_self_labels_beat_entropy(study):
    outcomes, _ = study
    wins = sum(1 for o in outcomes if o.coef_only > o.adamerging)
    ok = wins >= 9
    _report(11, ok, f"coefficients-only self-labeling beats entropy adaptation (adamerging) "
                    f"on {wins}/10 seeds (need 9)")


def test_criterion_12_one_adapted_layer_improves_compatibility(study):
    outcomes, _ = study
    label_free = [o.label_free_gain for o in outcomes]
    supervised = [o.supervised_gain for o in outcomes]
    label_free_wins = sum(1 for g in label_free if g > 0)
    supervised_wins = sum(1 for g in supervised if g > 0)
    ok = label_free_wins >= 9 and supervised_wins >= 9
    _report(12, ok, f"heads adapted over the merged encoder score better than the experts' own "
                    f"on the other experts' encoders (off-diagonal mean gain): joint "
                    f"label-free adaptation on {label_free_wins}/10 seeds (min "
                    f"{min(label_free):+.3f}), supervised two-stage pilot at "
                    f"task_arithmetic(0.3) on {supervised_wins}/10 (min {min(supervised):+.3f}) "
                    f"(need 9 each)")
