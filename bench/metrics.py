"""Names and units of the benchmark's metrics, and how timed units add up to
them (standard library only)."""

import statistics

from tracer import TARGETS

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("startup_s", "s"), ("peak_rss_mb", "MiB"))
# Parts of wall_s, printed with --trace 0 but not gated: each rests on a third
# of a run's samples, and on a shared host their run-to-run spread comes near
# the largest bound a metric may have.
STAGES = (("finetune_s", "s"), ("adapt_s", "s"), ("analyze_s", "s"))

ALL_ANALYSES = ("eval", "cross_matrix", "cross_merge", "transfer", "correlation",
                "discrepancy", "sparsity", "prop1", "pilot")
CLI_COMMANDS = ("gen", "finetune", "merge", "adapt", "eval", "analyze", "report")
STAT_UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "call_us": "us"}


def per_layer_names() -> list:
    """(metric, unit) of every per-layer metric, in report order."""
    spec = [(f"{t.metric}.{stat}", STAT_UNITS[stat]) for t in TARGETS for stat in t.stats]
    spec += [("adaptation.steps", "count"), ("adaptation.step_us", "us"),
             ("adaptation.kept_ratio", "ratio"), ("cli.import_s", "s")]
    spec += [(f"cli.{cmd}.inproc_s", "s") for cmd in CLI_COMMANDS]
    spec += [(f"cli.analyze.{a}.inproc_s", "s") for a in ALL_ANALYSES]
    spec.append(("trace.overhead_frac", "ratio"))
    return spec


def upper_quartile(samples) -> float:
    """The 75th percentile of ``samples``, interpolated between the two nearest.

    On a 2-vCPU cloud VM shared with other tenants, the programs run slowed
    by the neighbours most of the time and up to ~1.4x faster in short,
    irregular spells. The upper quartile stays in the common slowed state:
    over four sets of ten runs per workload there, the run-to-run spread
    (IQR / median) of wall_s and startup_s was 0.03-0.15 with it, against
    0.04-0.27 with the median.
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def metric_value(units: dict, metric: str) -> float:
    """Sum over the units that add to ``metric`` of weight times the unit's
    upper quartile."""
    return sum(rec["weight"] * upper_quartile(rec["times"])
               for rec in units.values() if metric in rec["metrics"])
