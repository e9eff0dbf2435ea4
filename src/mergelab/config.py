"""Config files and the method and analysis tables.

Each config dataclass reads and checks its own fields; `_build` names the
section and field of any value it rejects. The tables here are all the
CLI's parser needs, so this module loads no numeric module until a config
is built, and `json` and `dataclasses` only when a function here reads
them."""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from .reports import ANALYSIS_TABLE

if TYPE_CHECKING:
    from .adaptation import AdaptConfig
    from .suites import SuiteConfig

# Every merge method as a source of one coefficient per (task, encoder layer):
# None merges nothing; a constant is a function of the task count K and task
# arithmetic's lambda; LEARNED coefficients come from `adapt`, in the file that
# `eval` and `analyze` read with `--coeffs` (a file always takes precedence).
LEARNED = "learned"
METHOD_COEFFS = {
    "individual": None,
    "weight_avg": lambda k, lam: 1.0 / k,
    "task_arithmetic": lambda k, lam: lam,
    "adamerging": LEARNED,
    "symerge": LEARNED,
}
METHODS = tuple(METHOD_COEFFS)
CONSTANT_METHODS = tuple(m for m, c in METHOD_COEFFS.items() if callable(c))
LEARNED_METHODS = tuple(m for m, c in METHOD_COEFFS.items() if c == LEARNED)
DEFAULT_METHOD = "symerge"

ANALYSES = tuple(ANALYSIS_TABLE)
# analyses that read a merge's coefficients (`mergelab analyze --coeffs`)
COEFF_ANALYSES = frozenset(a for a, (_, needs_coeffs) in ANALYSIS_TABLE.items()
                           if needs_coeffs)


class ConfigError(ValueError):
    """Invalid configuration; message names the field."""


def _build(cls, data: dict, where: str):
    from dataclasses import fields
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected an object")
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        # "<field>: <problem>" from the class becomes "<where>.<field>: <problem>"
        name, _, problem = str(exc).partition(": ")
        if name in names:
            raise ConfigError(f"{where}.{name}: {problem}") from exc
        raise ConfigError(f"{where}: {exc}") from exc


def suite_config_from_dict(data: dict) -> SuiteConfig:
    from .suites import SuiteConfig
    return _build(SuiteConfig, data, "suite")


def adapt_config_from_dict(data: dict) -> AdaptConfig:
    from .adaptation import AdaptConfig
    return _build(AdaptConfig, data, "adapt")


def adapt_config_to_dict(cfg: AdaptConfig) -> dict:
    """The JSON form of `cfg`, as `adapt_config_from_dict` reads it."""
    from dataclasses import asdict
    doc = asdict(cfg)
    doc["loss"] = cfg.loss.kind if cfg.loss else None
    return doc


def load_config_file(path) -> dict:
    """Read a JSON config; accepts a run manifest and unwraps its config."""
    import json
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f)
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deeply nested JSON
        raise ConfigError(f"config file {Path(path).name}: invalid JSON ({exc})") from exc
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]
    if not isinstance(data, dict):
        raise ConfigError(f"config file {Path(path).name}: expected a JSON object")
    return data


def load_config_section(path, section: str) -> dict:
    """The `section` ("suite" or "adapt") of a JSON config file. A file that
    holds a whole experiment config, or a manifest of one, is unwrapped to
    it; any other object is taken as the section itself."""
    data = load_config_file(path)
    data = data.get(section, data)
    if not isinstance(data, dict):
        raise ConfigError(f"config file {Path(path).name}: '{section}' is not a JSON object")
    return data
