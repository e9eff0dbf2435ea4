"""The numeric subcommands: gen, finetune, merge, adapt, eval and analyze.

`cli.main` imports this module only when one of them runs. Each command
imports the mergelab functions it uses when it runs, and this module binds
none at load time, so those names are looked up on their modules at call
time (where a tracer or a monkeypatch rebinds them).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from functools import cached_property
from typing import TYPE_CHECKING

from . import cli
from .cli import EXIT_OK, GEN_SEVERITY
from .config import ANALYSES, COEFF_ANALYSES, LEARNED, METHOD_COEFFS, ConfigError

if TYPE_CHECKING:
    from pathlib import Path

    from .adaptation import AdaptConfig
    from .merging import CoefficientMatrix, MergedAssembly


def _sha256(path: Path) -> str:
    import hashlib
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: Path, command: str, cfg: dict, seed: int) -> str:
    from .serialization import manifest_payload, write_manifest
    return write_manifest(path, manifest_payload(command, cfg, seed))


def _load_ckpt_dir(path: Path):
    from .serialization import BundleError, load_checkpoint
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


def _check_same(what: str, a: Path, a_items, b: Path, b_items) -> None:
    """BundleError unless the inputs at `a` and `b` hold the same `what`."""
    from .serialization import BundleError
    if set(a_items) != set(b_items):
        only_a, only_b = (", ".join(map(str, sorted(set(x) - set(y)))) or "none"
                          for x, y in ((a_items, b_items), (b_items, a_items)))
        raise BundleError(f"{a} and {b} do not hold the same {what} "
                          f"(only in {a}: {only_a}; only in {b}: {only_b})")


def _given(args, cls) -> dict:
    """The flags given on the command line that set a field of the config
    dataclass `cls`; each such flag stores under the field's name."""
    return {f.name: getattr(args, f.name) for f in fields(cls)
            if getattr(args, f.name, None) is not None}


# `adapt` flags that entropy adaptation, which fits the coefficients alone, never reads
_ENTROPY_UNUSED = {"loss": "--loss", "trainable_layer": "--trainable-layer",
                   "lr_layer": "--lr-layer", "filter_enabled": "--no-filter",
                   "train_coeffs": "--no-train-coeffs"}


def _adapt_config(args, num_tasks: int) -> AdaptConfig:
    from .adaptation import AdaptConfig
    from .config import adapt_config_from_dict, load_config_section
    from .merging import default_init_coeff
    base = load_config_section(args.config, "adapt") if args.config else {}
    given = _given(args, AdaptConfig)
    if args.method == "adamerging":
        # like eval's flags, a flag that the method would ignore is an error;
        # a config file's values for those fields are dropped (but for
        # train_coeffs: false, which leaves nothing to train)
        for name, flag in _ENTROPY_UNUSED.items():
            if name in given:
                raise ConfigError(f"{flag}: method adamerging fits the coefficients alone, "
                                  f"so {flag} is not used")
            if name != "train_coeffs":
                base.pop(name, None)
        given["trainable_layer"] = None
    base.update(given)
    base.setdefault("init_coeff", default_init_coeff(num_tasks))
    return adapt_config_from_dict(base)


# ---------------------------------------------------------------------------
# Subcommands, each named as on the command line


def gen(args) -> int:
    from .config import load_config_section, suite_config_from_dict
    from .serialization import save_suite
    from .suites import CorruptionSpec, SuiteConfig, corrupt_suite, gen_suite
    if args.severity is not None and not args.corruption:
        raise ConfigError("--severity: not used without --corruption")
    base = load_config_section(args.config, "suite") if args.config else {}
    base.update(_given(args, SuiteConfig))
    cfg = suite_config_from_dict(base)
    if args.corruption:
        try:
            spec = CorruptionSpec(args.corruption,
                                  GEN_SEVERITY if args.severity is None else args.severity)
        except (TypeError, ValueError) as exc:  # "severity: <problem>"
            raise ConfigError(f"--severity: {str(exc).partition(': ')[2]}") from None

    suite = gen_suite(cfg)
    if args.corruption:
        suite = corrupt_suite(suite, spec, cfg.seed)

    out = cli._out_path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_suite(suite, out)
    manifest_cfg = {"suite": base}
    if args.corruption:
        manifest_cfg["corruption"] = {"kind": args.corruption, "severity": spec.severity}
    _write_manifest(out.with_suffix(".manifest.json"), "gen", manifest_cfg, cfg.seed)
    print(f"wrote {out}")
    return EXIT_OK


def finetune(args) -> int:
    from .adaptation import train_experts
    from .serialization import load_suite, save_checkpoint
    data_path = cli._out_path(args.data)
    suite = load_suite(data_path)
    recipe = {k: getattr(args, k)  # the flags named as `train_experts`' keywords
              for k in ("hidden", "pre_epochs", "pre_lr", "epochs", "lr", "batch_size")}
    pre, experts = train_experts(suite, seed=args.seed, **recipe)

    # nothing is written until every checkpoint is computed
    out_dir = cli._out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(pre, out_dir / "pre.ckpt")
    for task, expert in experts.items():
        save_checkpoint(expert, out_dir / f"expert_{task}.ckpt")

    cfg = dict(recipe, hidden=list(args.hidden), inputs={"data": _sha256(data_path)})
    _write_manifest(out_dir / "finetune.manifest.json", "finetune", cfg, args.seed)
    print(f"wrote pre + {len(suite.tasks)} expert checkpoints to {out_dir}")
    return EXIT_OK


def merge(args) -> int:
    from .engine import ParamSet
    from .merging import CoefficientMatrix, compute_task_vector, default_init_coeff, merge_layerwise
    from .serialization import save_checkpoint, save_coeffs
    # like eval's flags, a --lambda that the method would ignore is an error
    if args.coeff is not None and args.method != "task_arithmetic":
        raise ConfigError(f"--lambda: method {args.method} has a fixed coefficient, "
                          "so --lambda is not used")
    pre, experts, digests = _load_ckpt_dir(cli._out_path(args.ckpt_dir))
    task_ids = tuple(sorted(experts))
    vectors = [compute_task_vector(experts[t], pre) for t in task_ids]
    lam = default_init_coeff(len(task_ids)) if args.coeff is None else args.coeff
    coeff = METHOD_COEFFS[args.method](len(task_ids), lam)
    coeffs = CoefficientMatrix.constant(task_ids, len(pre.encoder), coeff)

    encoder = merge_layerwise(pre, vectors, coeffs)
    merged = ParamSet(encoder=encoder, heads=dict(pre.heads))
    out_dir = cli._out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(merged, out_dir / "merged.ckpt")
    save_coeffs(coeffs, out_dir / "coeffs.json")
    cfg = {"method": args.method, "coeff": coeff, "inputs": digests}
    _write_manifest(out_dir / "merge.manifest.json", "merge", cfg, 0)
    print(f"wrote merged checkpoint + coefficients to {out_dir}")
    return EXIT_OK


def adapt(args) -> int:
    from .adaptation import adamerging_entropy, symerge, task_vectors_from_experts
    from .config import adapt_config_to_dict
    from .serialization import load_suite, save_coeffs, save_trainable
    data_path, ckpt_dir = cli._out_path(args.data), cli._out_path(args.ckpt_dir)
    suite = load_suite(data_path)
    pre, experts, digests = _load_ckpt_dir(ckpt_dir)
    _check_same("tasks", data_path, suite.task_ids, ckpt_dir, experts)
    kinds = {t.task_id: t.kind for t in suite.tasks}
    test_inputs = {t.task_id: t.x_test for t in suite.tasks}
    vectors = task_vectors_from_experts(pre, experts)

    cfg = _adapt_config(args, num_tasks=len(experts))
    if args.method == "adamerging":
        heads = {t: experts[t].head(t) for t in experts}
        coeffs = adamerging_entropy(pre, vectors, heads, test_inputs, cfg, kinds)
        trained = {}
    else:
        result = symerge(pre, vectors, experts, test_inputs, cfg, kinds)
        coeffs, trained = result.coeffs, result.trainable
    out_dir = cli._out_path(args.out_dir)  # made once the run succeeds
    out_dir.mkdir(parents=True, exist_ok=True)
    save_coeffs(coeffs, out_dir / "coeffs.json")
    if trained:
        save_trainable(trained, out_dir / "trainable.bundle")

    manifest_cfg = {"method": args.method, "adapt": adapt_config_to_dict(cfg),
                    "inputs": dict(digests, data=_sha256(data_path))}
    _write_manifest(out_dir / "adapt.manifest.json", "adapt", manifest_cfg, cfg.seed)
    extras = " + trainable layers" if trained else ""
    print(f"wrote coefficients{extras} to {out_dir}")
    return EXIT_OK


class _Inputs:
    """What `eval` and `analyze` read, loaded once. The merged model that
    `--method` and its flags name is built on first use."""

    def __init__(self, args):
        # Every module a row builder uses loads before the inputs are read:
        # compiled from source later (no bytecode cache), it would add to the
        # peak memory of a process that already holds its data.
        from . import adaptation, analysis, theory  # noqa: F401
        from .serialization import load_suite
        self.args = args
        self.data_path, self.ckpt_dir = cli._out_path(args.data), cli._out_path(args.ckpt_dir)
        self.suite = load_suite(self.data_path)
        self.pre, self.experts, self.digests = _load_ckpt_dir(self.ckpt_dir)
        _check_same("tasks", self.data_path, self.suite.task_ids, self.ckpt_dir, self.experts)
        self.kinds = {t.task_id: t.kind for t in self.suite.tasks}
        self.test_sets = {t.task_id: (t.x_test, t.y_test) for t in self.suite.tasks}
        self.task_ids = tuple(sorted(self.experts))
        self.cls_ids = tuple(t for t in self.task_ids if self.kinds[t] == "classification")
        # a flag that the chosen method would ignore is an error, never dropped
        self.given = [name for name in ("checkpoint", "coeffs", "layers") if getattr(args, name)]
        if METHOD_COEFFS[args.method] is None and self.given:
            raise ConfigError(f"method: {args.method} evaluates each expert alone, "
                              f"so --{self.given[0]} is not used")
        if args.checkpoint and len(self.given) > 1:
            raise ConfigError(f"--{self.given[1]}: not used with --checkpoint, "
                              "a checkpoint that is merged already")

    @cached_property
    def vectors(self) -> dict:
        from .adaptation import task_vectors_from_experts
        return task_vectors_from_experts(self.pre, self.experts)

    def constant_coeffs(self, value: float) -> CoefficientMatrix:
        from .merging import CoefficientMatrix
        return CoefficientMatrix.constant(self.task_ids, len(self.pre.encoder), value)

    @cached_property
    def assembly(self) -> MergedAssembly | None:
        """The merged model: the `--checkpoint`, or the pre-trained encoder
        plus the method's coefficients times the task vectors, with the
        `--layers` swapped in. None for a method that merges nothing."""
        from .adaptation import build_assembly
        from .merging import CoefficientMatrix, MergedAssembly, default_init_coeff
        from .serialization import load_checkpoint, load_coeffs, load_trainable
        args, source = self.args, METHOD_COEFFS[self.args.method]
        if source is None:
            return None
        if args.checkpoint:
            # a merged checkpoint is an assembly with no task vectors left to add
            model = load_checkpoint(cli._out_path(args.checkpoint))
            no_coeffs = CoefficientMatrix.constant((), len(model.encoder), 0.0)
            return MergedAssembly(tuple(model.encoder), (), no_coeffs, dict(model.heads), {})
        if args.coeffs:
            path = cli._out_path(args.coeffs)
            coeffs = load_coeffs(path)
            _check_same("tasks", path, coeffs.task_ids, self.ckpt_dir, self.task_ids)
            _check_same("encoder layers", path, range(coeffs.num_layers),
                        self.ckpt_dir, range(len(self.pre.encoder)))
        elif source == LEARNED:
            raise ConfigError(f"method: {args.method} needs --coeffs, the coefficient "
                              "file that `mergelab adapt` writes")
        else:
            k = len(self.task_ids)
            coeffs = self.constant_coeffs(source(k, default_init_coeff(k)))
        trainable = load_trainable(cli._out_path(args.layers)) if args.layers else {}
        return build_assembly(self.pre, self.vectors, self.experts, coeffs, trainable)

    def manifest_cfg(self) -> dict:
        inputs = dict(self.digests, data=_sha256(self.data_path))
        inputs.update({name: _sha256(cli._out_path(getattr(self.args, name)))
                       for name in self.given})
        return {"method": self.args.method, "inputs": inputs}


# ---------------------------------------------------------------------------
# Row builders, one per registered analysis (`reports.ANALYSIS_TABLE`)


def _eval_rows(run: _Inputs) -> list:
    import numpy as np

    from .analysis import evaluate, evaluate_assembly
    assembly = run.assembly
    rows = []
    for t in run.task_ids:
        x, y = run.test_sets[t]
        kind = run.kinds[t]
        if assembly is None:
            value = evaluate(run.experts[t].encoder, run.experts[t].head(t), x, y, kind)
        else:
            value = evaluate_assembly(assembly, t, x, y, kind)
        metric = "accuracy" if kind == "classification" else "l1_error"
        rows.append({"task": t, "metric": metric, "value": value})
    acc = [r["value"] for r in rows if r["metric"] == "accuracy"]
    if acc:
        rows.append({"task": "MEAN", "metric": "accuracy", "value": float(np.mean(acc))})
    return rows


def _cross_matrix_rows(run: _Inputs) -> list:
    from .analysis import cross_task_matrix
    ids = run.cls_ids
    mat = cross_task_matrix([run.experts[t].encoder for t in ids],
                            [run.experts[t].head(t) for t in ids],
                            [run.test_sets[t] for t in ids])
    return [{"encoder_task": a, "head_task": b, "accuracy": float(mat[i, j])}
            for i, a in enumerate(ids) for j, b in enumerate(ids)]


def _cross_merge_rows(run: _Inputs) -> list:
    from .analysis import cross_merge_pairs
    pairs, rho = cross_merge_pairs({t: run.experts[t] for t in run.cls_ids},
                                   {t: run.test_sets[t] for t in run.cls_ids})
    rows = [{"row_type": "pair", "encoder_task": p.encoder_task, "head_task": p.head_task,
             "cross_accuracy": p.cross_accuracy, "merge_accuracy": p.merge_accuracy,
             "spearman_rho": None} for p in pairs]
    rows.append({"row_type": "summary", "encoder_task": None, "head_task": None,
                 "cross_accuracy": None, "merge_accuracy": None, "spearman_rho": rho})
    return rows


def _transfer_rows(run: _Inputs) -> list:
    from .analysis import transfer_metrics
    from .merging import CoefficientMatrix
    ids, assembly = run.cls_ids, run.assembly
    coeffs = CoefficientMatrix(ids, [assembly.coeffs.row(t) for t in ids])
    heads = {"baseline": [run.experts[t].head(t) for t in ids]}
    trained = assembly.trainable
    if trained and all(tr.selector == "head" for tr in trained.values()):
        heads["adapted"] = [trained[t].params if t in trained else run.experts[t].head(t)
                            for t in ids]
    rows = []
    for name, task_heads in heads.items():
        m, c = transfer_metrics(run.pre.encoder, [run.vectors[t] for t in ids], coeffs,
                                task_heads, [run.test_sets[t] for t in ids])
        rows.append({"heads": name, "merged_score": m, "cross_score": c})
    return rows


def _correlation_rows(run: _Inputs) -> list:
    from .adaptation import build_assembly
    from .analysis import loss_correlation_report
    from .merging import default_init_coeff
    init = run.constant_coeffs(default_init_coeff(len(run.task_ids)))
    initial = build_assembly(run.pre, run.vectors, run.experts, init, {})
    report = loss_correlation_report(initial, run.assembly, run.experts,
                                     {t: run.test_sets[t] for t in run.cls_ids},
                                     run.args.batch_size)
    return [{"task": c.task, "proxy": c.proxy, "stage": c.stage,
             "spearman_rho": c.rho, "status": c.status} for c in report.cells]


def _discrepancy_rows(run: _Inputs) -> list:
    from .analysis import discrepancy
    from .engine import forward
    rows = []
    for t in run.cls_ids:
        x, y = run.test_sets[t]
        merged_pred = forward(run.assembly.materialize(t), t, x).argmax(axis=1)
        expert_pred = forward(run.experts[t], t, x).argmax(axis=1)
        rep = discrepancy(merged_pred, expert_pred, y)
        rows.append({"task": t, "fails": rep.fails, "gains": rep.gains,
                     "net": rep.net, "n": rep.n})
    return rows


def _sparsity_rows(run: _Inputs) -> list:
    from .analysis import SPARSITY_THRESHOLD, sparsity_report
    rep = sparsity_report(run.assembly.coeffs)
    rows = [{"scope": "overall", "threshold": SPARSITY_THRESHOLD, "fraction": rep.overall}]
    rows += [{"scope": f"layer_{i}", "threshold": SPARSITY_THRESHOLD, "fraction": f}
             for i, f in enumerate(rep.per_layer)]
    return rows


def _prop1_rows(run: _Inputs) -> list:
    from .adaptation import TRAIN_LOSS
    from .engine import LossSpec
    from .suites import spawn_rng
    from .theory import Prop1Instance, prop1_verify, random_linear_instance
    rows = []
    for i in range(100):
        inst = random_linear_instance(spawn_rng(run.args.seed, "prop1", i))
        rows.append(_prop1_row(f"linear-{i}", "linear", "l2", prop1_verify(inst)))
    for ti in run.task_ids:
        for tj in run.task_ids:
            if ti == tj:
                continue
            x, y = run.test_sets[tj]
            loss = LossSpec(TRAIN_LOSS[run.kinds[tj]])
            inst = Prop1Instance(
                family="nonlinear-net",
                theta_0=tuple(run.pre.encoder),
                theta_i=tuple(run.experts[ti].encoder),
                theta_j=tuple(run.experts[tj].encoder),
                inputs=x,
                targets=y,
                loss=loss,
                head=run.experts[tj].head(tj),
            )
            rows.append(_prop1_row(f"experts-{ti}-{tj}", "nonlinear-net", loss.kind,
                                   prop1_verify(inst)))
    return rows


def _prop1_row(name, family, loss, rep) -> dict:
    row = {"instance": name, "family": family, "loss": loss, **asdict(rep)}
    row["ctl_residual_max"] = row.pop("ctl_residual")
    return row


def _pilot_rows(run: _Inputs) -> list:
    from .adaptation import pilot_two_stage
    from .merging import merge_task_arithmetic
    from .suites import TaskSuite
    # merged encoder uses every task vector; head retraining and
    # scoring only make sense for classification tasks
    ids = run.cls_ids
    cls_suite = TaskSuite(config=run.suite.config,
                          tasks=[t for t in run.suite.tasks if t.kind == "classification"])
    vectors = [run.vectors[t] for t in run.task_ids]
    coeffs = [round(0.1 * i, 1) for i in range(1, 11)]
    sweep = pilot_two_stage([merge_task_arithmetic(run.pre, vectors, c) for c in coeffs],
                            cls_suite, {t: run.experts[t] for t in ids}, seed=run.args.seed)
    return [{"coeff": coeff, "encoder_task": enc_t, "head_task": head_t,
             "gain": float(gains[i, j])}
            for coeff, gains in zip(coeffs, sweep)
            for i, enc_t in enumerate(ids) for j, head_t in enumerate(ids)]


_ROW_BUILDERS = {
    "eval": _eval_rows, "cross_matrix": _cross_matrix_rows, "cross_merge": _cross_merge_rows,
    "transfer": _transfer_rows, "correlation": _correlation_rows,
    "discrepancy": _discrepancy_rows, "sparsity": _sparsity_rows, "prop1": _prop1_rows,
    "pilot": _pilot_rows,
}


def _write_reports(args, command: str, cfg: dict, seed: int, reports: list) -> None:
    """The run's manifest, then each (analysis, rows) report stamped with its hash."""
    from .reports import write_report
    out_dir = cli._out_path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = _write_manifest(out_dir / f"{command}.manifest.json", command, cfg, seed)
    for analysis, rows in reports:
        write_report(out_dir, analysis, rows, digest)


def eval(args) -> int:  # noqa: A001  (named as on the command line)
    run = _Inputs(args)
    rows = _eval_rows(run)
    _write_reports(args, "eval", run.manifest_cfg(), 0, [("eval", rows)])
    for r in rows:
        print(f"{r['task']}: {r['metric']}={r['value']:.4f}")
    return EXIT_OK


def analyze(args) -> int:
    run = _Inputs(args)
    analyses = tuple(args.analyses.split(","))
    for a in analyses:
        if a not in ANALYSES:
            raise ConfigError(f"analyses: '{a}' is not one of {ANALYSES}")
    needs_coeffs = [a for a in analyses if a in COEFF_ANALYSES]
    if needs_coeffs and not args.coeffs:
        raise ConfigError(f"analyses: --coeffs is needed by {', '.join(needs_coeffs)}")
    # every report is built before any file is written
    reports = [(a, _ROW_BUILDERS[a](run)) for a in analyses]
    cfg = dict(run.manifest_cfg(), analyses=list(analyses), batch_size=args.batch_size)
    _write_reports(args, "analyze", cfg, args.seed, reports)
    for analysis, rows in reports:
        print(f"wrote {analysis} report ({len(rows)} rows)")
    return EXIT_OK
