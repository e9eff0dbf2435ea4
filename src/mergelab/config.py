"""Experiment configuration: JSON parsing with diagnostics that name the
offending field, plus the method/analysis compatibility rules."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .adaptation import AdaptConfig
from .suites import SuiteConfig

METHODS = ("individual", "weight_avg", "task_arithmetic", "adamerging", "symerge")
ANALYSES = ("eval", "cross_matrix", "cross_merge", "transfer", "correlation",
            "discrepancy", "sparsity", "prop1", "pilot")

# analyses that read a merge's coefficients (`mergelab analyze --coeffs`)
COEFF_ANALYSES = frozenset({"sparsity", "transfer", "correlation", "discrepancy"})
_COEFF_METHODS = frozenset({"task_arithmetic", "weight_avg", "adamerging", "symerge"})


class ConfigError(ValueError):
    """Invalid configuration; message names the field."""


@dataclass
class ExperimentConfig:
    suite: SuiteConfig = field(default_factory=SuiteConfig)
    adapt: AdaptConfig = field(default_factory=AdaptConfig)
    method: str = "symerge"
    analyses: tuple = ("eval",)
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"method: '{self.method}' is not one of {METHODS}")
        self.analyses = tuple(self.analyses)
        for a in self.analyses:
            if a not in ANALYSES:
                raise ConfigError(f"analyses: '{a}' is not one of {ANALYSES}")
        for a in self.analyses:
            if a in COEFF_ANALYSES and self.method not in _COEFF_METHODS:
                raise ConfigError(
                    f"analyses: '{a}' requires a coefficient-bearing method, got '{self.method}'")


def _build(cls, data: dict, where: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    import dataclasses
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def suite_config_from_dict(data: dict) -> SuiteConfig:
    data = dict(data)
    if "regression_tasks" in data:
        data["regression_tasks"] = tuple(data["regression_tasks"])
    return _build(SuiteConfig, data, "suite")


def adapt_config_from_dict(data: dict) -> AdaptConfig:
    data = dict(data)
    sel = data.get("trainable_layer")
    if isinstance(sel, list):
        data["trainable_layer"] = tuple(int(i) for i in sel)
    if isinstance(data.get("loss"), str):
        from .engine import LossSpec
        try:
            data["loss"] = LossSpec(data["loss"])
        except ValueError as exc:
            raise ConfigError(f"adapt.loss: {exc}") from exc
    return _build(AdaptConfig, data, "adapt")


def experiment_config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("top level: expected an object")
    known = {"suite", "adapt", "method", "analyses", "output_dir"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown field")
    kwargs = {}
    if "suite" in data:
        kwargs["suite"] = suite_config_from_dict(data["suite"])
    if "adapt" in data:
        kwargs["adapt"] = adapt_config_from_dict(data["adapt"])
    for key in ("method", "analyses", "output_dir"):
        if key in data:
            kwargs[key] = data[key]
    return ExperimentConfig(**kwargs)


def experiment_config_to_dict(cfg: ExperimentConfig) -> dict:
    doc = {
        "suite": asdict(cfg.suite),
        "adapt": asdict(cfg.adapt),
        "method": cfg.method,
        "analyses": list(cfg.analyses),
        "output_dir": cfg.output_dir,
    }
    doc["suite"]["regression_tasks"] = list(cfg.suite.regression_tasks)
    sel = doc["adapt"]["trainable_layer"]
    if isinstance(sel, tuple):
        doc["adapt"]["trainable_layer"] = list(sel)
    if cfg.adapt.loss is not None:
        doc["adapt"]["loss"] = cfg.adapt.loss.kind
    return doc


def load_config_file(path) -> dict:
    """Read a JSON config; accepts a run manifest and unwraps its config."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {Path(path).name}: invalid JSON ({exc})") from exc
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError(f"config file {Path(path).name}: expected a JSON object")
    return data
