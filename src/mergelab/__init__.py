"""Desk-scale laboratory for task-vector model merging.

A tiny tanh-network engine with exact gradients feeds merge operators
(uniform, scaled task-vector sums, per-layer coefficient merges), test-time
adaptation loops that learn coefficients and one task-specific layer from
expert self-labels, diagnostic analyses, and a numerical verifier for the
midpoint-merge loss bound. The `mergelab` CLI ties everything into
reproducible, manifest-stamped runs.

`import mergelab` loads none of the modules below, so a CLI command that
computes nothing starts without numpy: `cli` holds the parser and `report`,
and `commands`, loaded only when a numeric command runs, loads the modules
that every such command uses and, per command, the others it calls. The
first name read through the package (PEP 562) loads them all, as `import
mergelab` once did; inside the package, `from . import <exported module>`
is such a read, so it loads every module.
"""

import importlib
import sys

__version__ = "0.1.0"

_MODULE_EXPORTS = {
    "engine": "AdamState LayerParams LossSpec ParamSet ShapeError UnknownTaskError "
              "adam_init adam_step backward forward loss_eval",
    "merging": "CoefficientMatrix MergedAssembly TaskVector TrainableLayer coefficient_grad "
               "compute_task_vector default_init_coeff merge_layerwise merge_task_arithmetic "
               "merge_uniform",
    "adaptation": "AdaptConfig AdaptResult SelfLabelBatch adamerging_entropy build_assembly "
                  "confidence_filter finetune_expert make_self_labels "
                  "pilot_two_stage pretrain_backbone symerge task_vectors_from_experts",
    "analysis": "CorrelationReport DiscrepancyReport SparsityReport cross_task_matrix "
                "discrepancy evaluate evaluate_assembly loss_correlation_report spearman "
                "sparsity_report transfer_metrics",
    "theory": "Prop1Instance Prop1Report ctl_residual prop1_verify",
    "suites": "CorruptionSpec SuiteConfig TaskData TaskSuite corrupt_features corrupt_split "
              "corrupt_suite gen_suite spawn_rng",
    "serialization": "load_checkpoint load_coeffs load_suite load_trainable save_checkpoint "
                     "save_coeffs save_suite save_trainable",
}
# exported name -> the module that defines it
_EXPORTS = {name: module for module, names in _MODULE_EXPORTS.items()
            for name in names.split()}


def __getattr__(name):
    module = _EXPORTS.get(name, name)
    if module not in _MODULE_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Every module is loaded before any name is handed out, so a caller that
    # rebinds names across the package (a tracer, a monkeypatch) finds them
    # all. Names are looked up on each access and never cached here, so a
    # name rebound in its module reads the same through the package.
    for m in _MODULE_EXPORTS:
        importlib.import_module(f".{m}", __name__)
    mod = sys.modules[f"{__name__}.{module}"]
    return mod if module == name else getattr(mod, name)


def __dir__():
    return sorted({*globals(), *_MODULE_EXPORTS, *_EXPORTS})
