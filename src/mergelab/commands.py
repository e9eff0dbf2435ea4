"""The numeric subcommands: gen, finetune, merge, adapt, eval and analyze.

`cli.main` imports this module only when one of them runs. It binds the
modules that every one of them loads (`engine`, `merging`, `reports`,
`serialization`, `suites`) once, as modules, and calls through them; each
command imports `adaptation`, `analysis` and `theory` only if it uses them.
So every mergelab name is looked up on its module at call time (where a
tracer or a monkeypatch rebinds it). Every path in `args` comes resolved by
the parser (`cli._out_path`), inputs as well as outputs. Each command but
`gen` computes everything, then records its run in `--out-dir` (`_record_run`),
then writes its outputs there.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, fields
from functools import cached_property
from itertools import permutations
from typing import TYPE_CHECKING

import numpy as np

# by full name: `from . import engine` reads the package's `__getattr__`, which loads every module
import mergelab.engine as engine
import mergelab.merging as merging
import mergelab.reports as reports
import mergelab.serialization as serialization
import mergelab.suites as suites

from .cli import EXIT_OK, GEN_SEVERITY
from .config import (ANALYSES, LEARNED, METHOD_COEFFS, ConfigError, adapt_config_from_dict,
                     adapt_config_to_dict, load_config_section, suite_config_from_dict)

if TYPE_CHECKING:
    from pathlib import Path

    from .adaptation import AdaptConfig


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_ckpt_dir(path: Path):
    pre_path = path / "pre.ckpt"
    if not pre_path.exists():
        raise serialization.BundleError(f"{path}: missing pre.ckpt")
    pre = serialization.load_checkpoint(pre_path)
    experts = {}
    digests = {"pre.ckpt": _sha256(pre_path)}
    for ckpt in sorted(path.glob("expert_*.ckpt")):
        task = ckpt.stem[len("expert_"):]
        experts[task] = serialization.load_checkpoint(ckpt)
        digests[ckpt.name] = _sha256(ckpt)
    if not experts:
        raise serialization.BundleError(f"{path}: no expert_*.ckpt files")
    return pre, experts, digests


def _check_same(what: str, a: Path, a_items, b: Path, b_items) -> None:
    """BundleError unless the inputs at `a` and `b` hold the same `what`."""
    if set(a_items) != set(b_items):
        only_a, only_b = (", ".join(map(str, sorted(set(x) - set(y)))) or "none"
                          for x, y in ((a_items, b_items), (b_items, a_items)))
        raise serialization.BundleError(f"{a} and {b} do not hold the same {what} "
                                        f"(only in {a}: {only_a}; only in {b}: {only_b})")


def _record_run(args, command: str, cfg: dict, seed: int) -> str:
    """Make `--out-dir` and write the run's `<command>.manifest.json` there,
    before any other output; returns the manifest hash that reports carry."""
    args.out_dir.mkdir(parents=True, exist_ok=True)
    path = args.out_dir / f"{command}.manifest.json"
    return serialization.write_manifest(path, command, cfg, seed)


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
    base.setdefault("init_coeff", merging.default_init_coeff(num_tasks))
    return adapt_config_from_dict(base)


# ---------------------------------------------------------------------------
# Subcommands, each named as on the command line


def gen(args) -> int:
    if args.severity is not None and not args.corruption:
        raise ConfigError("--severity: not used without --corruption")
    base = load_config_section(args.config, "suite") if args.config else {}
    base.update(_given(args, suites.SuiteConfig))
    cfg = suite_config_from_dict(base)
    if args.corruption:
        try:
            spec = suites.CorruptionSpec(args.corruption,
                                         GEN_SEVERITY if args.severity is None else args.severity)
        except (TypeError, ValueError) as exc:  # "severity: <problem>"
            raise ConfigError(f"--severity: {str(exc).partition(': ')[2]}") from None

    suite = suites.gen_suite(cfg)
    if args.corruption:
        suite = suites.corrupt_suite(suite, spec, cfg.seed)

    out = args.out
    out.parent.mkdir(parents=True, exist_ok=True)
    serialization.save_suite(suite, out)
    manifest_cfg = {"suite": base}
    if args.corruption:
        manifest_cfg["corruption"] = {"kind": args.corruption, "severity": spec.severity}
    serialization.write_manifest(out.with_suffix(".manifest.json"), "gen", manifest_cfg, cfg.seed)
    print(f"wrote {out}")
    return EXIT_OK


def finetune(args) -> int:
    from .adaptation import train_experts
    suite = serialization.load_suite(args.data)
    recipe = {k: getattr(args, k)  # the flags named as `train_experts`' keywords
              for k in ("hidden", "pre_epochs", "pre_lr", "epochs", "lr", "batch_size")}
    pre, experts = train_experts(suite, seed=args.seed, **recipe)

    # nothing is written until every checkpoint is computed
    _record_run(args, "finetune", dict(recipe, inputs={"data": _sha256(args.data)}), args.seed)
    serialization.save_checkpoint(pre, args.out_dir / "pre.ckpt")
    for task, expert in experts.items():
        serialization.save_checkpoint(expert, args.out_dir / f"expert_{task}.ckpt")
    print(f"wrote pre + {len(suite.tasks)} expert checkpoints to {args.out_dir}")
    return EXIT_OK


def merge(args) -> int:
    # like eval's flags, a --lambda that the method would ignore is an error
    if args.coeff is not None and args.method != "task_arithmetic":
        raise ConfigError(f"--lambda: method {args.method} has a fixed coefficient, "
                          "so --lambda is not used")
    if args.coeff is not None and not abs(args.coeff) < float("inf"):  # nan too
        raise ConfigError(f"--lambda: expected a finite real number, got {args.coeff!r}")
    if args.coeff is not None and not abs(args.coeff) <= merging.MAX_INIT_COEFF:
        raise ConfigError(f"--lambda: must be in [-{merging.MAX_INIT_COEFF:g}, "
                          f"{merging.MAX_INIT_COEFF:g}], got {args.coeff}")
    pre, experts, digests = _load_ckpt_dir(args.ckpt_dir)
    task_ids = tuple(sorted(experts))
    vectors = merging.task_vectors_from_experts(pre, experts)
    lam = merging.default_init_coeff(len(task_ids)) if args.coeff is None else args.coeff
    coeff = METHOD_COEFFS[args.method](len(task_ids), lam)
    coeffs = merging.CoefficientMatrix.constant(task_ids, len(pre.encoder), coeff)

    merged = engine.ParamSet(merging.merge_layerwise(pre, [vectors[t] for t in task_ids], coeffs),
                             dict(pre.heads))
    _record_run(args, "merge", {"method": args.method, "coeff": coeff, "inputs": digests}, 0)
    serialization.save_checkpoint(merged, args.out_dir / "merged.ckpt")
    serialization.save_coeffs(coeffs, args.out_dir / "coeffs.json")
    print(f"wrote merged checkpoint + coefficients to {args.out_dir}")
    return EXIT_OK


def adapt(args) -> int:
    from .adaptation import adamerging_entropy, symerge
    run = _Inputs(args)
    vectors = run.vectors  # first, so a checkpoint error precedes a config error
    cfg = _adapt_config(args, num_tasks=len(run.experts))
    test_inputs = {t: x for t, (x, _) in run.test_sets.items()}
    if args.method == "adamerging":
        heads = {t: run.experts[t].head(t) for t in run.experts}
        coeffs = adamerging_entropy(run.pre, vectors, heads, test_inputs, cfg, run.kinds)
        trained = {}
    else:
        result = symerge(run.pre, vectors, run.experts, test_inputs, cfg, run.kinds)
        coeffs, trained = result.coeffs, result.trainable
    # nothing is written until the run succeeds
    _record_run(args, "adapt", dict(run.manifest_cfg(), adapt=adapt_config_to_dict(cfg)), cfg.seed)
    serialization.save_coeffs(coeffs, args.out_dir / "coeffs.json")
    if trained:
        serialization.save_trainable(trained, args.out_dir / "trainable.bundle")
    extras = " + trainable layers" if trained else ""
    print(f"wrote coefficients{extras} to {args.out_dir}")
    return EXIT_OK


class _Inputs:
    """What `adapt`, `eval` and `analyze` read, loaded and checked once; the
    merged model that `--method` and eval's flags name is built on first use.
    (`eval` and `analyze` import every row builder's module first: compiled
    later, with no bytecode cache, it would add to a full process's peak memory.)"""

    def __init__(self, args):
        self.args = args
        self.suite = serialization.load_suite(args.data)
        self.pre, self.experts, self.digests = _load_ckpt_dir(args.ckpt_dir)
        _check_same("tasks", args.data, self.suite.task_ids, args.ckpt_dir, self.experts)
        for t, expert in self.experts.items():
            self.check_heads(args.ckpt_dir / f"expert_{t}.ckpt", expert)
        self.kinds = {t.task_id: t.kind for t in self.suite.tasks}
        self.test_sets = {t.task_id: (t.x_test, t.y_test) for t in self.suite.tasks}
        self.task_ids = tuple(sorted(self.experts))
        self.cls_ids = tuple(t for t in self.task_ids if self.kinds[t] == "classification")
        # a flag that the chosen method would ignore is an error, never dropped
        self.given = [n for n in ("checkpoint", "coeffs", "layers") if getattr(args, n, None)]
        if METHOD_COEFFS[args.method] is None and self.given:
            raise ConfigError(f"method: {args.method} evaluates each expert alone, "
                              f"so --{self.given[0]} is not used")
        if "checkpoint" in self.given and len(self.given) > 1:
            raise ConfigError(f"--{self.given[1]}: not used with --checkpoint, "
                              "a checkpoint that is merged already")

    def check_heads(self, path: Path, model) -> None:
        """BundleError unless each head of the checkpoint `model` at `path`
        that the suite has a task for is as wide as the suite needs."""
        widths = self.suite.head_widths
        for t, head in model.heads.items():
            if head.out_dim != widths.get(t, head.out_dim):
                raise serialization.BundleError(
                    f"{path}: task '{t}' has a head of {head.out_dim} outputs "
                    f"where the suite {self.args.data} needs {widths[t]}")

    @cached_property
    def vectors(self) -> dict:
        return merging.task_vectors_from_experts(self.pre, self.experts)

    def constant_coeffs(self, value: float) -> merging.CoefficientMatrix:
        return merging.CoefficientMatrix.constant(self.task_ids, len(self.pre.encoder), value)

    @cached_property
    def assembly(self) -> merging.MergedAssembly | None:
        """The merged model: the `--checkpoint`, or the pre-trained encoder
        plus the method's coefficients times the task vectors, with the
        `--layers` swapped in. None for a method that merges nothing."""
        args, source = self.args, METHOD_COEFFS[self.args.method]
        if source is None:
            return None
        if args.checkpoint:
            # a merged checkpoint is an assembly with no task vectors left to add
            model = serialization.load_checkpoint(args.checkpoint)
            self.check_heads(args.checkpoint, model)
            no_coeffs = merging.CoefficientMatrix.constant((), len(model.encoder), 0.0)
            return merging.MergedAssembly(tuple(model.encoder), (), no_coeffs,
                                          dict(model.heads), {})
        if args.coeffs:
            coeffs = serialization.load_coeffs(args.coeffs)
            _check_same("tasks", args.coeffs, coeffs.task_ids, args.ckpt_dir, self.task_ids)
            _check_same("encoder layers", args.coeffs, range(coeffs.num_layers),
                        args.ckpt_dir, range(len(self.pre.encoder)))
        elif source == LEARNED:
            raise ConfigError(f"method: {args.method} needs --coeffs, the coefficient "
                              "file that `mergelab adapt` writes")
        else:
            k = len(self.task_ids)
            coeffs = self.constant_coeffs(source(k, merging.default_init_coeff(k)))
        trainable = serialization.load_trainable(args.layers) if args.layers else {}
        return merging.build_assembly(self.pre, self.vectors, self.experts, coeffs, trainable)

    def manifest_cfg(self) -> dict:
        inputs = dict(self.digests, data=_sha256(self.args.data))
        inputs.update({name: _sha256(getattr(self.args, name)) for name in self.given})
        return {"method": self.args.method, "inputs": inputs}


# ---------------------------------------------------------------------------
# Row builders, one per registered analysis (`reports.ANALYSIS_TABLE`)


def _eval_rows(run: _Inputs) -> list:
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
        rows.append({"task": t, "metric": suites.kind_rules(kind).metric, "value": value})
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
    ids = run.cls_ids
    pairs, rho = cross_merge_pairs({t: run.experts[t] for t in ids},
                                   {t: run.test_sets[t] for t in ids})
    rows = [dict(asdict(p), row_type="pair", spearman_rho=None) for p in pairs]
    rows.append({"row_type": "summary", "encoder_task": None, "head_task": None,
                 "cross_accuracy": None, "merge_accuracy": None, "spearman_rho": rho})
    return rows


def _transfer_rows(run: _Inputs) -> list:
    from .analysis import transfer_metrics
    ids, assembly = run.cls_ids, run.assembly
    coeffs = merging.CoefficientMatrix(ids, [assembly.coeffs.row(t) for t in ids])
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
    from .analysis import loss_correlation_report
    init = run.constant_coeffs(merging.default_init_coeff(len(run.task_ids)))
    initial = merging.build_assembly(run.pre, run.vectors, run.experts, init, {})
    report = loss_correlation_report(initial, run.assembly, run.experts,
                                     {t: run.test_sets[t] for t in run.cls_ids},
                                     run.args.batch_size)
    return [dict(asdict(c), spearman_rho=c.rho) for c in report.cells]


def _discrepancy_rows(run: _Inputs) -> list:
    from .analysis import discrepancy
    rows = []
    for t in run.cls_ids:
        x, y = run.test_sets[t]
        merged_pred = engine.forward(run.assembly.materialize(t), t, x).argmax(axis=1)
        expert_pred = engine.forward(run.experts[t], t, x).argmax(axis=1)
        rep = discrepancy(merged_pred, expert_pred, y)
        rows.append(dict(asdict(rep), task=t, net=rep.net))
    return rows


def _sparsity_rows(run: _Inputs) -> list:
    from .analysis import SPARSITY_THRESHOLD, sparsity_report
    rep = sparsity_report(run.assembly.coeffs)
    rows = [{"scope": "overall", "threshold": SPARSITY_THRESHOLD, "fraction": rep.overall}]
    rows += [{"scope": f"layer_{i}", "threshold": SPARSITY_THRESHOLD, "fraction": f}
             for i, f in enumerate(rep.per_layer)]
    return rows


def _prop1_rows(run: _Inputs) -> list:
    from .theory import Prop1Instance, prop1_verify, random_linear_instance
    rows = []
    for i in range(100):
        inst = random_linear_instance(suites.spawn_rng(run.args.seed, "prop1", i))
        rows.append(_prop1_row(f"linear-{i}", "linear", "l2", prop1_verify(inst)))
    for ti, tj in permutations(run.task_ids, 2):
        x, y = run.test_sets[tj]
        loss = engine.LossSpec(suites.kind_rules(run.kinds[tj]).train_loss)
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
    return dict(asdict(rep), instance=name, family=family, loss=loss,
                ctl_residual_max=rep.ctl_residual)


def _pilot_rows(run: _Inputs) -> list:
    from .adaptation import pilot_two_stage
    # the merged encoder uses every task vector; the classification
    # experts alone have their heads retrained and scored
    ids = run.cls_ids
    vectors = [run.vectors[t] for t in run.task_ids]
    coeffs = [round(0.1 * i, 1) for i in range(1, 11)]
    sweep = pilot_two_stage([merging.merge_task_arithmetic(run.pre, vectors, c) for c in coeffs],
                            run.suite, {t: run.experts[t] for t in ids}, seed=run.args.seed)
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


def eval(args) -> int:  # noqa: A001  (named as on the command line)
    from . import adaptation, analysis, theory  # noqa: F401  (see _Inputs)
    run = _Inputs(args)
    rows = _eval_rows(run)
    digest = _record_run(args, "eval", run.manifest_cfg(), 0)
    reports.write_report(args.out_dir, "eval", rows, digest)
    for r in rows:
        print(f"{r['task']}: {r['metric']}={r['value']:.4f}")
    return EXIT_OK


def analyze(args) -> int:
    from . import adaptation, analysis, theory  # noqa: F401  (see _Inputs)
    run = _Inputs(args)
    analyses = tuple(args.analyses.split(","))
    for i, a in enumerate(analyses):
        if a not in ANALYSES:
            raise ConfigError(f"analyses: '{a}' is not one of {ANALYSES}")
        if a in analyses[:i]:
            raise ConfigError(f"analyses: '{a}' is given twice")
    needs_coeffs = [a for a in analyses if reports.ANALYSIS_TABLE[a][1]]
    if needs_coeffs and not args.coeffs:
        raise ConfigError(f"analyses: --coeffs is needed by {', '.join(needs_coeffs)}")
    for a in analyses:
        need, have = reports.ANALYSIS_TABLE[a][2], len(run.cls_ids)
        if have < need:
            raise ValueError(f"{a}: needs at least {('one', 'two')[need - 1]} classification "
                             f"task{'s' if need > 1 else ''}, the suite has {have}")
    if args.batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {args.batch_size}")
    # every report is built before any file is written
    built = [(a, _ROW_BUILDERS[a](run)) for a in analyses]
    cfg = dict(run.manifest_cfg(), analyses=list(analyses), batch_size=args.batch_size)
    digest = _record_run(args, "analyze", cfg, args.seed)
    for analysis, rows in built:
        reports.write_report(args.out_dir, analysis, rows, digest)
        print(f"wrote {analysis} report ({len(rows)} rows)")
    return EXIT_OK
