"""One benchmark process: set up a workload, then time items of work or trace them.

Run by ``bench/run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. The worker prints ``READY`` once its set-up is done (the parent
times set-up up to that line) and, as its last line, one JSON object with
its results. In-process CLI calls have their output captured, so the
protocol lines are the only ones on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent

import mergelab  # noqa: E402  (resolved through PYTHONPATH, checked below)

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from metrics import ALL_ANALYSES, CLI_COMMANDS  # noqa: E402

TRACE_SAMPLES = 3  # the fewest runs of each tracer in a traced run

# Targets that must record calls in a traced unit of each workload.
ENGINE = {"engine.backward", "engine.forward", "engine.encode", "engine.loss_eval",
          "engine.loss_output_grad", "engine.adam_step", "engine.layer_params"}
ADAPT_PATH = ENGINE | {"merging.merge_layerwise", "merging.coefficient_grad",
                       "merging.materialize", "merging.merge_task_arithmetic",
                       "adaptation.symerge", "adaptation.finetune_expert",
                       "adaptation.pretrain_backbone", "analysis.evaluate",
                       "analysis.evaluate_assembly", "suites.gen_suite"}
EXPECTED_CALLS = {
    "cli_reference": {t.metric for t in tr.TARGETS} - {"adaptation.adamerging_entropy",
                                                        "suites.corrupt_suite"},
    "seed_study": ADAPT_PATH | {"analysis.spearman", "analysis.transfer_metrics",
                                "analysis.loss_correlation_report", "suites.corrupt_suite"},
    "many_tasks": ADAPT_PATH | {"adaptation.adamerging_entropy"},
}

def layer_metrics(full: dict, counters: dict, light: dict, light_counters: dict) -> dict:
    """Per-layer values from a fully traced unit and an adaptation-only one."""
    out = {}
    for target in tr.TARGETS:
        s = full.get(target.metric, {})
        for stat in target.stats:
            name = f"{target.metric}.{stat}"
            if stat == "bytes":
                out[name] = counters.get(name, 0)
            elif stat == "call_us":
                out[name] = 1e6 * s["total_s"] / s["calls"] if s.get("calls") else 0.0
            else:
                out[name] = s.get(stat, 0)
    steps = light_counters.get("adaptation.steps", 0)
    adapt_s = sum(light.get(m, {}).get("total_s", 0.0)
                  for m in ("adaptation.symerge", "adaptation.adamerging_entropy"))
    out["adaptation.steps"] = counters.get("adaptation.steps", 0)
    out["adaptation.step_us"] = 1e6 * adapt_s / steps if steps else 0.0
    rows = counters.get("adaptation.batch_rows", 0)
    out["adaptation.kept_ratio"] = counters.get("adaptation.kept_rows", 0) / rows if rows else 0.0
    return out


def _peak_rss_mib(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# ---------------------------------------------------------------------------
# in-process CLI passes (traced cli_reference)


def _cli_main(argv) -> int:
    from mergelab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def inproc_pipeline(seed: int, work: Path, result: wl.RunResult, golden) -> dict:
    """The pipeline's argv lists through ``mergelab.cli.main``; seconds per command."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    steps = [(n, a) for n, a in wl.pipeline_argvs(seed, work) if n != "version"]
    return wl.run_steps(steps, lambda argv: (_cli_main(argv), ""), work, seed, golden, result)


def inproc_analyses(seed: int, work: Path, result: wl.RunResult) -> dict:
    """Fastest of ``TRACE_SAMPLES`` runs of each analysis on its own through
    ``mergelab.cli.main``, after a pipeline."""
    argv = dict(wl.pipeline_argvs(seed, work))["analyze"]
    at = argv.index("--analyses") + 1
    times = {}
    for _ in range(TRACE_SAMPLES):
        for a in ALL_ANALYSES:
            one = list(argv)
            one[at] = a
            one[one.index("--out-dir") + 1] = str(work / f"only_{a}")
            t = time.perf_counter()
            code = _cli_main(one)
            times[a] = min(times.get(a, math.inf), time.perf_counter() - t)
            result.check(code == 0, f"analyze {a} returned {code}")
    return times


# ---------------------------------------------------------------------------


def run_timed(workload, state, seconds: float) -> dict:
    """Items until ``seconds`` have gone by, at least the workload's
    ``min_items``; none when ``seconds`` is 0."""
    result = wl.RunResult()
    items = 0
    t0 = time.perf_counter()
    while seconds > 0 and (items < workload.min_items or time.perf_counter() - t0 < seconds):
        workload.run_item(state, items, result)
        items += 1
    return {"units": result.units, "items": items, "attempted": result.attempted,
            "failures": result.failures}


def run_traced(workload, state, seed: int, seconds: float, workdir: Path,
               spans_path: Path) -> dict:
    """Alternate an adaptation-only traced unit and a fully traced one of the same work.

    A unit is a fixed piece of the workload: the in-process pipeline, one
    seed of the study (criteria 4, 5 and 8 need all ten and are checked by
    the timed run), or the 16-task set-up and sweep. The adaptation-only
    tracer wraps only the top-level adaptation calls, so it costs next to
    nothing; its fastest run gives the untraced time per adaptation step and
    the baseline for the tracing overhead. Per-layer figures come from the
    fastest fully traced run. Each tracer runs at least ``TRACE_SAMPLES``
    times, and its call counts must repeat exactly.
    """
    result = wl.RunResult()
    if workload.name == "cli_reference":
        golden = state["golden"]
        inproc_pipeline(seed, workdir / "warm", result, golden)

        def unit(tag):
            return inproc_pipeline(seed, workdir / tag, result, golden)
    elif workload.name == "seed_study":
        def unit(tag):
            wl.study_seed(seed, state["ref"], result)
            return {}
    else:
        def unit(tag):
            workload.sweep(workload.setup(seed, workdir), result)
            return {}

    # alternate the two for half the run and at least TRACE_SAMPLES times;
    # keep the fastest of each
    best, calls = {}, {}
    samples = 0
    t_start = time.perf_counter()
    while samples < TRACE_SAMPLES or time.perf_counter() - t_start < seconds / 2:
        samples += 1
        for tag, targets in (("light", tr.ADAPT_TARGETS), ("full", tr.TARGETS)):
            tracer = tr.Tracer(targets)
            tracer.install()
            if tracer.unbound_references():
                result.check(False, f"untraced bindings: {tracer.unbound_references()}")
            t = time.perf_counter()
            try:
                commands = unit(tag)
            finally:
                elapsed = time.perf_counter() - t
                tracer.uninstall()
            if tag not in best or elapsed < best[tag][0]:
                best[tag] = (elapsed, commands, tracer)
            counted = {n: s["calls"] for n, s in tracer.stats().items()}
            result.check(calls.setdefault(tag, counted) == counted,
                         f"{tag} trace: call counts differ between samples")

    light_s, commands, light = best["light"]
    full_s, _, full = best["full"]
    stats = full.stats()
    values = layer_metrics(stats, full.counters, light.stats(), light.counters)
    values["trace.overhead_frac"] = full_s / light_s - 1.0
    for cmd in CLI_COMMANDS:
        values[f"cli.{cmd}.inproc_s"] = commands.get(cmd, 0.0)
    analyses = (inproc_analyses(seed, workdir / "light", result)
                if workload.name == "cli_reference" else {})
    for a in ALL_ANALYSES:
        values[f"cli.analyze.{a}.inproc_s"] = analyses.get(a, 0.0)

    missing = sorted(m for m in EXPECTED_CALLS[workload.name]
                     if m not in full.absent and stats.get(m, {}).get("calls", 0) == 0)
    result.check(not missing, f"traced targets recorded no calls: {missing}")
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    full.write(spans_path)
    return {"metrics": values, "absent": full.absent, "spans": len(full.start),
            "samples": samples, "light_s": light_s, "full_s": full_s,
            "attempted": result.attempted, "failures": result.failures}


def environment() -> dict:
    import numpy as np
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"numpy": np.__version__, "scipy": scipy_version, "blas": blas,
            "mergelab": mergelab.__version__}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path, required=True)
    args = p.parse_args(argv)

    src = (REPO / "src").resolve()
    if src not in Path(mergelab.__file__).resolve().parents:
        print(f"mergelab imported from {mergelab.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload]()
    state = workload.setup(args.seed, args.workdir)
    print("READY", flush=True)

    if args.trace:
        spans = REPO / ".bench_out" / f"spans-{args.workload}.bin"  # the latest run's
        out = run_traced(workload, state, args.seed, args.seconds, args.workdir, spans)
    else:
        out = run_timed(workload, state, args.seconds)
    out.update(env=environment(),
               peak_rss_mib=_peak_rss_mib(resource.RUSAGE_SELF),
               children_peak_rss_mib=_peak_rss_mib(resource.RUSAGE_CHILDREN))
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
