"""Outside-in span tracer for the mergelab benchmark.

The tracer wraps public functions and methods of the package from the
benchmark's side: it rebinds every module attribute that refers to a target
(so names pulled in with ``from .engine import backward`` are traced too) and
patches methods on their class. Each call records one span (name, start,
end, parent span, run id) and one count; a run is one top-level call into the
package, and all spans under it carry the index of its root span. Spans stay
in compact arrays in memory and are written out once, when the run ends.

Self time of a span is its duration minus the durations of its direct child
spans. Children never overlap (the program is single-threaded), so this is
the part of the interval that no child span covers.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

PACKAGE = "mergelab"


@dataclass(frozen=True)
class Target:
    """One traced boundary: ``module`` is a mergelab module name, ``qualname``
    a function name or ``Class.method``, ``metric`` the metric prefix and
    ``stats`` the per-layer figures reported for it (``calls``, ``self_s``,
    ``bytes`` or ``call_us``, the mean inclusive microseconds per call)."""

    metric: str
    module: str
    qualname: str
    stats: tuple = ("calls", "self_s")
    counts: Callable | None = None  # (args, kwargs, result) -> {counter: amount}


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _bundle_bytes(metric: str):
    def counts(args, kwargs, result):
        return {f"{metric}.bytes": _file_bytes(_arg(args, kwargs, 0, "path"))}
    return counts


def _report_bytes(args, kwargs, result):
    return {"reports.write_report.bytes": sum(_file_bytes(p) for p in result or ())}


def _symerge_steps(args, kwargs, result):
    stats = getattr(result, "step_stats", None) or ()
    return {"adaptation.steps": len(stats),
            "adaptation.kept_rows": sum(s.kept for s in stats),
            "adaptation.batch_rows": sum(s.batch_size for s in stats)}


def _entropy_steps(args, kwargs, result):
    # entropy adaptation returns only coefficients: one step per task per pass
    heads, cfg = _arg(args, kwargs, 2, "heads"), _arg(args, kwargs, 4, "cfg")
    return {"adaptation.steps": cfg.iterations * len(heads)}


class Tracer:
    """Records spans and counts for a set of targets while installed."""

    def __init__(self, targets, clock=time.perf_counter):
        self.targets = tuple(targets)
        self.clock = clock
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        self.name_id.append(self._intern(name))
        self.parent.append(parent)
        self.run.append(self.run[parent] if parent >= 0 else idx)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack corrupted: closed {idx}, innermost {popped}")

    def wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(target.metric)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if target.counts is not None:
                for key, amount in target.counts(args, kwargs, result).items():
                    tracer.counters[key] = tracer.counters.get(key, 0) + amount
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _package_modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        """Wrap every present target; record absent ones instead of failing."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._package_modules()
        for target in self.targets:
            try:
                module = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                self.absent.append(target.metric)
                continue
            owner_name, _, attr = target.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None or not callable(original):
                self.absent.append(target.metric)
                continue
            wrapped = self.wrap(target, original)
            if owner_name:
                # methods are looked up on the class at call time
                self._patch(owner, attr, wrapped)
                continue
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapped)

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def unbound_references(self) -> list[str]:
        """Names in package modules still bound to an original, unwrapped target."""
        originals = {id(orig): orig for _, _, orig in self._patches}
        return [f"{mod.__name__}.{name}" for mod in self._package_modules()
                for name, value in vars(mod).items() if originals.get(id(value)) is value]

    # -- results ---------------------------------------------------------

    def stats(self) -> dict:
        """Per-name calls, inclusive seconds and self seconds of the spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            s = out[self.names[self.name_id[i]]]
            s["calls"] += 1
            s["total_s"] += dur[i]
            s["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Dump the spans: one JSON header line, then the raw span arrays."""
        columns = ("name_id", "start", "end", "parent", "run")
        header = {"names": self.names, "counters": self.counters, "absent": self.absent,
                  "spans": len(self.start),
                  "columns": [[c, getattr(self, c).typecode] for c in columns]}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode("utf-8") + b"\n")
            for c in columns:
                getattr(self, c).tofile(f)


CALLS_SELF_US = ("calls", "self_s", "call_us")
SELF = ("self_s",)
IO = ("calls", "bytes", "self_s")

TARGETS = (
    Target("engine.backward", "engine", "backward", CALLS_SELF_US),
    Target("engine.forward", "engine", "forward"),
    Target("engine.encode", "engine", "encode"),
    Target("engine.loss_eval", "engine", "loss_eval"),
    Target("engine.loss_output_grad", "engine", "loss_output_grad", SELF),
    Target("engine.adam_step", "engine", "adam_step"),
    Target("engine.layer_params", "engine", "LayerParams.__post_init__", CALLS_SELF_US),
    Target("merging.merge_layerwise", "merging", "merge_layerwise", CALLS_SELF_US),
    Target("merging.coefficient_grad", "merging", "coefficient_grad", CALLS_SELF_US),
    Target("merging.materialize", "merging", "MergedAssembly.materialize"),
    Target("merging.merge_task_arithmetic", "merging", "merge_task_arithmetic"),
    Target("merging.merge_uniform", "merging", "merge_uniform", SELF),
    Target("adaptation.symerge", "adaptation", "symerge", counts=_symerge_steps),
    Target("adaptation.adamerging_entropy", "adaptation", "adamerging_entropy",
           counts=_entropy_steps),
    Target("adaptation.finetune_expert", "adaptation", "finetune_expert", SELF),
    Target("adaptation.pretrain_backbone", "adaptation", "pretrain_backbone", SELF),
    Target("adaptation.pilot_two_stage", "adaptation", "pilot_two_stage", SELF),
    Target("analysis.evaluate", "analysis", "evaluate"),
    Target("analysis.evaluate_assembly", "analysis", "evaluate_assembly", ("calls",)),
    Target("analysis.spearman", "analysis", "spearman"),
    Target("analysis.cross_task_matrix", "analysis", "cross_task_matrix", SELF),
    Target("analysis.cross_merge_pairs", "analysis", "cross_merge_pairs", SELF),
    Target("analysis.transfer_metrics", "analysis", "transfer_metrics", SELF),
    Target("analysis.loss_correlation_report", "analysis", "loss_correlation_report", SELF),
    Target("theory.prop1_verify", "theory", "prop1_verify"),
    Target("suites.gen_suite", "suites", "gen_suite", SELF),
    Target("suites.corrupt_suite", "suites", "corrupt_suite", SELF),
    Target("serialization.load_bundle", "serialization", "load_bundle", IO,
           _bundle_bytes("serialization.load_bundle")),
    Target("serialization.save_bundle", "serialization", "save_bundle", IO,
           _bundle_bytes("serialization.save_bundle")),
    Target("reports.write_report", "reports", "write_report", IO, _report_bytes),
    Target("reports.aggregate_reports", "reports", "aggregate_reports", SELF),
)

# the top-level adaptation calls alone: a near-free trace for untraced timing
ADAPT_TARGETS = tuple(t for t in TARGETS
                      if t.metric in ("adaptation.symerge", "adaptation.adamerging_entropy"))
