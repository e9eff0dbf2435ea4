"""Command-line workbench: gen, finetune, merge, adapt, eval, analyze, report.

Every subcommand writes a manifest (semantic config + seed + format
versions + input-file digests) next to its outputs; report rows carry the
producing run's manifest hash. Exit codes: 0 success, 1 usage, 2 config,
3 runtime failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .adaptation import (
    AdaptConfig,
    adamerging_entropy,
    build_assembly,
    default_init_coeff,
    finetune_expert,
    pilot_two_stage,
    pretrain_backbone,
    symerge,
    task_vectors_from_experts,
)
from .analysis import (
    DegenerateDataError,
    cross_merge_pairs,
    cross_task_matrix,
    discrepancy,
    evaluate,
    evaluate_assembly,
    loss_correlation_report,
    sparsity_report,
    transfer_metrics,
)
from .config import (
    ANALYSES,
    COEFF_ANALYSES,
    ConfigError,
    adapt_config_from_dict,
    load_config_file,
    suite_config_from_dict,
)
from .engine import LossSpec, ParamSet, forward, init_params
from .merging import CoefficientMatrix, merge_task_arithmetic, merge_uniform
from .reports import aggregate_reports, write_combined, write_report
from .serialization import (
    BundleError,
    load_checkpoint,
    load_coeffs,
    load_suite,
    load_trainable,
    manifest_payload,
    save_checkpoint,
    save_coeffs,
    save_suite,
    save_trainable,
    write_manifest,
)
from .suites import CorruptionSpec, TaskSuite, corrupt_suite, gen_suite, spawn_rng
from .theory import Prop1Instance, prop1_verify, random_linear_instance

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _out_path(path: str) -> Path:
    root = os.environ.get("MERGELAB_OUTPUT_ROOT")
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_ckpt_dir(path: Path):
    pre_path = path / "pre.ckpt"
    if not pre_path.exists():
        raise BundleError(f"{path}: missing pre.ckpt")
    pre = load_checkpoint(pre_path)
    experts = {}
    digests = {"pre.ckpt": _sha256(pre_path)}
    for ckpt in sorted(path.glob("expert_*.ckpt")):
        task = ckpt.stem[len("expert_"):]
        experts[task] = load_checkpoint(ckpt)
        digests[ckpt.name] = _sha256(ckpt)
    if not experts:
        raise BundleError(f"{path}: no expert_*.ckpt files")
    return pre, experts, digests


def _suite_dict(suite):
    kinds = {t.task_id: t.kind for t in suite.tasks}
    test_inputs = {t.task_id: t.x_test for t in suite.tasks}
    test_sets = {t.task_id: (t.x_test, t.y_test) for t in suite.tasks}
    return kinds, test_inputs, test_sets


def _parse_trainable(value: str):
    if value == "head":
        return "head"
    if value == "none":
        return None
    if ":" in value:
        lo, hi = value.split(":", 1)
        return tuple(range(int(lo), int(hi)))
    return int(value)


def _adapt_config(args, num_tasks: int) -> AdaptConfig:
    base = {}
    if args.config:
        data = load_config_file(args.config)
        base = data.get("adapt", data)  # accept full experiment configs too
    overrides = {
        "iterations": args.iterations,
        "batch_size": args.batch_size,
        "lr_coeffs": args.lr_coeffs,
        "lr_layer": args.lr_layer,
        "init_coeff": args.init_coeff,
        "seed": args.seed,
        "update_mode": args.update_mode,
        "task_order": args.task_order,
        "loss": args.loss,
    }
    if args.trainable_layer is not None:
        overrides["trainable_layer"] = _parse_trainable(args.trainable_layer)
    if args.no_filter:
        overrides["filter_enabled"] = False
    if args.no_train_coeffs:
        overrides["train_coeffs"] = False
    base.update({k: v for k, v in overrides.items() if v is not None})
    if "init_coeff" not in base or base["init_coeff"] == "auto":
        base["init_coeff"] = default_init_coeff(num_tasks)
    return adapt_config_from_dict(base)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_gen(args) -> int:
    base = load_config_file(args.config) if args.config else {}
    base = base.get("suite", base) if isinstance(base, dict) else base
    overrides = {
        "num_tasks": args.tasks,
        "classes_per_task": args.classes,
        "input_dim": args.input_dim,
        "samples_per_split": args.samples,
        "shared_subspace_dim": args.subspace_dim,
        "task_rotation_strength": args.rotation,
        "noise_std": args.noise,
        "seed": args.seed,
    }
    if args.regression:
        overrides["regression_tasks"] = tuple(int(i) for i in args.regression.split(","))
    base.update({k: v for k, v in overrides.items() if v is not None})
    cfg = suite_config_from_dict(base)

    suite = gen_suite(cfg)
    if args.corruption:
        spec = CorruptionSpec(args.corruption, args.severity)
        suite = corrupt_suite(suite, spec, cfg.seed)

    out = _out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_suite(suite, out)
    manifest_cfg = {"suite": base}
    if args.corruption:
        manifest_cfg["corruption"] = {"kind": args.corruption, "severity": args.severity}
    write_manifest(out.with_suffix(".manifest.json"),
                   manifest_payload("gen", manifest_cfg, cfg.seed))
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_finetune(args) -> int:
    data_path = _out_path(args.data)
    suite = load_suite(data_path)
    hidden = tuple(int(d) for d in args.hidden.split(","))
    if not hidden:
        raise ConfigError("hidden: need at least one encoder layer width")
    encoder_dims = (suite.config.input_dim, *hidden)
    head_dims = {t.task_id: t.num_outputs for t in suite.tasks}

    rng = spawn_rng(args.seed, "init")
    init = init_params(encoder_dims, head_dims, rng)
    pre = pretrain_backbone(init, suite, epochs=args.pre_epochs, lr=args.pre_lr,
                            batch_size=args.batch_size, seed=args.seed)

    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(pre, out_dir / "pre.ckpt")
    for t in suite.tasks:
        expert = finetune_expert(pre, t.x_train, t.y_train, t.task_id,
                                 epochs=args.epochs, lr=args.lr,
                                 batch_size=args.batch_size, seed=args.seed, kind=t.kind)
        save_checkpoint(expert, out_dir / f"expert_{t.task_id}.ckpt")

    cfg = {
        "hidden": list(hidden),
        "pre_epochs": args.pre_epochs, "pre_lr": args.pre_lr,
        "epochs": args.epochs, "lr": args.lr, "batch_size": args.batch_size,
        "inputs": {"data": _sha256(data_path)},
    }
    write_manifest(out_dir / "finetune.manifest.json",
                   manifest_payload("finetune", cfg, args.seed))
    print(f"wrote pre + {len(suite.tasks)} expert checkpoints to {out_dir}")
    return EXIT_OK


def _cmd_merge(args) -> int:
    ckpt_dir = _out_path(args.ckpt_dir)
    pre, experts, digests = _load_ckpt_dir(ckpt_dir)
    task_ids = tuple(sorted(experts))
    vectors = task_vectors_from_experts(pre, experts)
    vec_list = [vectors[t] for t in task_ids]

    if args.method == "weight_avg":
        encoder = merge_uniform([experts[t] for t in task_ids])
        coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder), 1.0 / len(task_ids))
    elif args.method == "task_arithmetic":
        encoder = merge_task_arithmetic(pre, vec_list, args.coeff)
        coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder), args.coeff)
    else:
        raise ConfigError(f"method: merge handles weight_avg|task_arithmetic, got '{args.method}'")

    merged = ParamSet(encoder=encoder, heads=dict(pre.heads))
    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(merged, out_dir / "merged.ckpt")
    save_coeffs(coeffs, out_dir / "coeffs.json")
    cfg = {"method": args.method, "coeff": args.coeff, "inputs": digests}
    write_manifest(out_dir / "merge.manifest.json", manifest_payload("merge", cfg, 0))
    print(f"wrote merged checkpoint + coefficients to {out_dir}")
    return EXIT_OK


def _cmd_adapt(args) -> int:
    data_path = _out_path(args.data)
    suite = load_suite(data_path)
    ckpt_dir = _out_path(args.ckpt_dir)
    pre, experts, digests = _load_ckpt_dir(ckpt_dir)
    kinds, test_inputs, _ = _suite_dict(suite)
    vectors = task_vectors_from_experts(pre, experts)

    cfg = _adapt_config(args, num_tasks=len(experts))
    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.method == "adamerging":
        cfg.trainable_layer = None
        heads = {t: experts[t].head(t) for t in experts}
        coeffs = adamerging_entropy(pre, vectors, heads, test_inputs, cfg, kinds)
        save_coeffs(coeffs, out_dir / "coeffs.json")
        trained = {}
    elif args.method == "symerge":
        result = symerge(pre, vectors, experts, test_inputs, cfg, kinds)
        save_coeffs(result.coeffs, out_dir / "coeffs.json")
        trained = result.trainable
        if trained:
            save_trainable(trained, out_dir / "trainable.bundle")
    else:
        raise ConfigError(f"method: adapt handles adamerging|symerge, got '{args.method}'")

    cfg_doc = asdict(cfg)
    cfg_doc["loss"] = cfg.loss.kind if cfg.loss else None
    if isinstance(cfg_doc["trainable_layer"], tuple):
        cfg_doc["trainable_layer"] = list(cfg_doc["trainable_layer"])
    manifest_cfg = {"method": args.method, "adapt": cfg_doc,
                    "inputs": dict(digests, data=_sha256(data_path))}
    write_manifest(out_dir / "adapt.manifest.json",
                   manifest_payload("adapt", manifest_cfg, cfg.seed))
    extras = " + trainable layers" if trained else ""
    print(f"wrote coefficients{extras} to {out_dir}")
    return EXIT_OK


def _assembly_from_args(args, pre, experts, vectors, task_ids):
    if args.coeffs:
        coeffs = load_coeffs(_out_path(args.coeffs))
    else:
        coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder),
                                            default_init_coeff(len(task_ids)))
    trainable = load_trainable(_out_path(args.layers)) if args.layers else {}
    return build_assembly(pre, vectors, experts, coeffs, trainable), coeffs


def _eval_rows(args, suite, pre, experts):
    kinds, _, test_sets = _suite_dict(suite)
    task_ids = tuple(sorted(experts))
    rows = []
    if args.method == "individual":
        for t in task_ids:
            x, y = test_sets[t]
            metric = "accuracy" if kinds[t] == "classification" else "l1_error"
            value = evaluate(experts[t].encoder, experts[t].head(t), x, y, kinds[t])
            rows.append({"task": t, "metric": metric, "value": value})
    elif args.checkpoint:
        model = load_checkpoint(_out_path(args.checkpoint))
        for t in task_ids:
            x, y = test_sets[t]
            metric = "accuracy" if kinds[t] == "classification" else "l1_error"
            value = evaluate(model.encoder, model.head(t), x, y, kinds[t])
            rows.append({"task": t, "metric": metric, "value": value})
    else:
        vectors = task_vectors_from_experts(pre, experts)
        assembly, _ = _assembly_from_args(args, pre, experts, vectors, task_ids)
        for t in task_ids:
            x, y = test_sets[t]
            metric = "accuracy" if kinds[t] == "classification" else "l1_error"
            value = evaluate_assembly(assembly, t, x, y, kinds[t])
            rows.append({"task": t, "metric": metric, "value": value})
    acc = [r["value"] for r in rows if r["metric"] == "accuracy"]
    if acc:
        rows.append({"task": "MEAN", "metric": "accuracy", "value": float(np.mean(acc))})
    return rows


def _eval_manifest_cfg(args, digests, data_digest):
    inputs = dict(digests, data=data_digest)
    for name in ("coeffs", "layers", "checkpoint"):
        value = getattr(args, name)
        if value:
            inputs[name] = _sha256(_out_path(value))
    return {"method": args.method, "inputs": inputs}


def _cmd_eval(args) -> int:
    data_path = _out_path(args.data)
    suite = load_suite(data_path)
    pre, experts, digests = _load_ckpt_dir(_out_path(args.ckpt_dir))
    rows = _eval_rows(args, suite, pre, experts)
    out_dir = _out_path(args.out_dir)
    cfg = _eval_manifest_cfg(args, digests, _sha256(data_path))
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = write_manifest(out_dir / "eval.manifest.json", manifest_payload("eval", cfg, 0))
    write_report(out_dir, "eval", rows, digest)
    for r in rows:
        print(f"{r['task']}: {r['metric']}={r['value']:.4f}")
    return EXIT_OK


def _prop1_rows(pre, experts, test_sets, kinds, seed: int):
    rows = []
    for i in range(100):
        inst = random_linear_instance(spawn_rng(seed, "prop1", i))
        rep = prop1_verify(inst)
        rows.append(_prop1_row(f"linear-{i}", "linear", "l2", rep))
    task_ids = tuple(sorted(experts))
    for ti in task_ids:
        for tj in task_ids:
            if ti == tj:
                continue
            x, y = test_sets[tj]
            loss = LossSpec("cross_entropy_hard" if kinds[tj] == "classification" else "l2")
            inst = Prop1Instance(
                family="nonlinear-net",
                theta_0=tuple(pre.encoder),
                theta_i=tuple(experts[ti].encoder),
                theta_j=tuple(experts[tj].encoder),
                inputs=x,
                targets=y,
                loss=loss,
                head=experts[tj].head(tj),
            )
            rep = prop1_verify(inst)
            rows.append(_prop1_row(f"experts-{ti}-{tj}", "nonlinear-net", loss.kind, rep))
    return rows


def _prop1_row(name, family, loss, rep):
    return {
        "instance": name, "family": family, "loss": loss,
        "ctl_residual_max": rep.ctl_residual, "ctl_residual_mean": rep.ctl_residual_mean,
        "loss_pre": rep.loss_pre, "loss_i": rep.loss_i, "loss_j": rep.loss_j,
        "loss_merge": rep.loss_merge, "jensen_bound": rep.jensen_bound,
        "jensen_slack": rep.jensen_slack, "jensen_holds": rep.jensen_holds,
        "eps": rep.eps, "bound_disentangled": rep.bound_disentangled,
        "bound_synergy": rep.bound_synergy, "classification": rep.classification,
    }


def _cmd_analyze(args) -> int:
    data_path = _out_path(args.data)
    suite = load_suite(data_path)
    pre, experts, digests = _load_ckpt_dir(_out_path(args.ckpt_dir))
    kinds, _, test_sets = _suite_dict(suite)
    task_ids = tuple(sorted(experts))
    vectors = task_vectors_from_experts(pre, experts)
    vec_list = [vectors[t] for t in task_ids]

    cls_ids = tuple(t for t in task_ids if kinds[t] == "classification")
    analyses = tuple(args.analyses.split(","))
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f"analyses: '{a}' is not one of {ANALYSES}")
    needs_coeffs = [a for a in analyses if a in COEFF_ANALYSES]
    if needs_coeffs and not args.coeffs:
        raise ConfigError(f"analyses: --coeffs is needed by {', '.join(needs_coeffs)}")

    assembly = coeffs = None
    if args.coeffs:
        assembly, coeffs = _assembly_from_args(args, pre, experts, vectors, task_ids)

    out_dir = _out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = _eval_manifest_cfg(args, digests, _sha256(data_path))
    cfg["analyses"] = list(analyses)
    cfg["batch_size"] = args.batch_size
    digest = write_manifest(out_dir / "analyze.manifest.json",
                            manifest_payload("analyze", cfg, args.seed))

    for analysis in analyses:
        if analysis == "eval":
            rows = _eval_rows(args, suite, pre, experts)
        elif analysis == "cross_matrix":
            mat = cross_task_matrix(
                [experts[t].encoder for t in cls_ids],
                [experts[t].head(t) for t in cls_ids],
                [test_sets[t] for t in cls_ids])
            rows = [{"encoder_task": cls_ids[i], "head_task": cls_ids[j],
                     "accuracy": float(mat[i, j])}
                    for i in range(len(cls_ids)) for j in range(len(cls_ids))]
        elif analysis == "cross_merge":
            pairs, rho = cross_merge_pairs({t: experts[t] for t in cls_ids},
                                           {t: test_sets[t] for t in cls_ids})
            rows = [{"row_type": "pair", "encoder_task": p.encoder_task,
                     "head_task": p.head_task, "cross_accuracy": p.cross_accuracy,
                     "merge_accuracy": p.merge_accuracy, "spearman_rho": None}
                    for p in pairs]
            rows.append({"row_type": "summary", "encoder_task": None, "head_task": None,
                         "cross_accuracy": None, "merge_accuracy": None,
                         "spearman_rho": rho})
        elif analysis == "transfer":
            rows = []
            cls_vecs = [vectors[t] for t in cls_ids]
            cls_coeffs = CoefficientMatrix(
                cls_ids, np.stack([coeffs.row(t) for t in cls_ids]))
            base_heads = [experts[t].head(t) for t in cls_ids]
            m, c = transfer_metrics(pre.encoder, cls_vecs, cls_coeffs, base_heads,
                                    [test_sets[t] for t in cls_ids])
            rows.append({"heads": "baseline", "merged_score": m, "cross_score": c})
            trained = load_trainable(_out_path(args.layers)) if args.layers else {}
            if trained and all(trained[t].selector == "head" for t in trained):
                new_heads = [trained[t].params if t in trained else experts[t].head(t)
                             for t in cls_ids]
                m, c = transfer_metrics(pre.encoder, cls_vecs, cls_coeffs, new_heads,
                                        [test_sets[t] for t in cls_ids])
                rows.append({"heads": "adapted", "merged_score": m, "cross_score": c})
        elif analysis == "correlation":
            init_coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder),
                                                     default_init_coeff(len(task_ids)))
            initial = build_assembly(pre, vectors, experts, init_coeffs, {})
            cls_sets = {t: test_sets[t] for t in task_ids if kinds[t] == "classification"}
            report = loss_correlation_report(initial, assembly, experts, cls_sets,
                                             args.batch_size)
            rows = [{"task": c.task, "proxy": c.proxy, "stage": c.stage,
                     "spearman_rho": c.rho, "status": c.status} for c in report.cells]
        elif analysis == "discrepancy":
            rows = []
            for t in task_ids:
                if kinds[t] != "classification":
                    continue
                x, y = test_sets[t]
                model = assembly.materialize(t)
                merged_pred = np.argmax(forward(model, t, x), axis=1)
                expert_pred = np.argmax(forward(experts[t], t, x), axis=1)
                rep = discrepancy(merged_pred, expert_pred, y)
                rows.append({"task": t, "fails": rep.fails, "gains": rep.gains,
                             "net": rep.net, "n": rep.n})
        elif analysis == "sparsity":
            rep = sparsity_report(coeffs)
            rows = [{"scope": "overall", "threshold": rep.threshold, "fraction": rep.overall}]
            rows += [{"scope": f"layer_{i}", "threshold": rep.threshold, "fraction": f}
                     for i, f in enumerate(rep.per_layer)]
        elif analysis == "prop1":
            rows = _prop1_rows(pre, experts, test_sets, kinds, args.seed)
        elif analysis == "pilot":
            # merged encoder uses every task vector; head retraining and
            # scoring only make sense for classification tasks
            cls_suite = TaskSuite(config=suite.config,
                                  tasks=[t for t in suite.tasks
                                         if t.kind == "classification"])
            cls_experts = {t: experts[t] for t in cls_ids}
            rows = []
            for coeff in [round(0.1 * i, 1) for i in range(1, 11)]:
                merged_enc = merge_task_arithmetic(pre, vec_list, coeff)
                gains = pilot_two_stage(merged_enc, cls_suite, cls_experts, seed=args.seed)
                for i, enc_t in enumerate(cls_ids):
                    for j, head_t in enumerate(cls_ids):
                        rows.append({"coeff": coeff, "encoder_task": enc_t,
                                     "head_task": head_t, "gain": float(gains[i, j])})
        write_report(out_dir, analysis, rows, digest)
        print(f"wrote {analysis} report ({len(rows)} rows)")
    return EXIT_OK


def _cmd_report(args) -> int:
    combined = aggregate_reports(_out_path(args.runs))
    if not combined:
        print("no reports found", file=sys.stderr)
        return EXIT_RUNTIME
    paths = write_combined(_out_path(args.out_dir), combined)
    print(f"wrote {len(paths)} combined files to {args.out_dir}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mergelab",
                     description="Desk-scale task-vector merging laboratory")
    parser.add_argument("--version", action="version", version=f"mergelab {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("gen", parents=[], help="generate a synthetic task suite")
    p.add_argument("--config", help="suite config JSON (or a gen manifest)")
    p.add_argument("--out", required=True, help="output dataset bundle")
    p.add_argument("--tasks", type=int)
    p.add_argument("--classes", type=int)
    p.add_argument("--input-dim", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--subspace-dim", type=int)
    p.add_argument("--rotation", type=float)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--regression", help="comma-separated task indices generated as regression")
    p.add_argument("--corruption", choices=["gaussian_noise", "feature_mask", "contrast_scale"])
    p.add_argument("--severity", type=int, default=5)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("finetune", help="pretrain a backbone and fine-tune per-task experts")
    p.add_argument("--data", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--hidden", default="32,24,16", help="encoder layer widths, comma-separated")
    p.add_argument("--pre-epochs", type=int, default=2)
    p.add_argument("--pre-lr", type=float, default=5e-3)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-2)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("merge", help="training-free merge of expert checkpoints")
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--method", required=True, choices=["weight_avg", "task_arithmetic"])
    p.add_argument("--lambda", "--coeff", dest="coeff", type=float, default=0.3,
                   help="task-arithmetic scale")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("adapt", help="test-time adaptation of merging coefficients")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--method", required=True, choices=["adamerging", "symerge"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help="adapt config JSON (or an adapt manifest)")
    p.add_argument("--iterations", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-coeffs", type=float)
    p.add_argument("--lr-layer", type=float)
    p.add_argument("--init-coeff", type=float)
    p.add_argument("--trainable-layer", help="head | none | <index> | <lo>:<hi>")
    p.add_argument("--no-filter", action="store_true")
    p.add_argument("--no-train-coeffs", action="store_true")
    p.add_argument("--update-mode", choices=["sequential", "aggregated"])
    p.add_argument("--task-order", choices=["shuffled_each_pass", "fixed"])
    p.add_argument("--loss", help="override the self-labeling loss kind")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("eval", help="evaluate experts, a checkpoint, or a merged assembly")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--method", default="symerge",
                   choices=["individual", "weight_avg", "task_arithmetic", "adamerging", "symerge"])
    p.add_argument("--checkpoint", help="evaluate this merged checkpoint instead")
    p.add_argument("--coeffs", help="coefficient JSON from merge/adapt")
    p.add_argument("--layers", help="trainable-layer bundle from adapt")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="run diagnostic analyses and emit reports")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt-dir", required=True)
    p.add_argument("--analyses", required=True,
                   help=f"comma-separated subset of {','.join(ANALYSES)}")
    p.add_argument("--method", default="symerge",
                   choices=["individual", "weight_avg", "task_arithmetic", "adamerging", "symerge"])
    p.add_argument("--checkpoint")
    p.add_argument("--coeffs")
    p.add_argument("--layers")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("report", help="aggregate emitted JSON reports into combined tables")
    p.add_argument("--runs", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help/--version exit 0, usage errors exit 1
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BundleError, DegenerateDataError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
