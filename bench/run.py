"""mergelab benchmark: one command per workload, end-to-end or traced.

    python3 bench/run.py --workload cli_reference --seed 0 --seconds 45 --trace 0

Run from anywhere inside a checkout; the benchmark measures the package in
that checkout's ``src`` (it is not installed). Workloads, all closed-loop
with one client and one process at a time:

- ``cli_reference``: the README quickstart as fresh ``python -m mergelab``
  processes, one subcommand after the other;
- ``seed_study``: the 10-seed acceptance study in process;
- ``many_tasks``: a 16-task adaptation sweep in process. It is not listed in
  ``BENCHMARK.json``: with three workloads the runs could not be long enough
  to be steady in the time the runs of the benchmark are given, so it is
  run by hand.

With ``--trace 0`` the run starts three worker processes one after another.
Each sets up the workload, and its set-up time is taken up to its ``READY``
line; the middle one then times items of work until ``--seconds`` have gone
by (see ``workloads.py``). ``setup_s`` is the median of the three set-ups.
The other timings are upper quartiles (``metrics.upper_quartile`` says
why): ``startup_s`` that of all ``--version`` runs (two after each worker,
and those the timed worker makes all through its run), ``wall_s`` and the
stage times the sum over their timed units of weight times the unit's upper
quartile. The stage times (``finetune_s``, ``adapt_s``, ``analyze_s``) are
printed as parts of ``wall_s``; the JSON result carries the metrics that
``BENCHMARK.json`` gates. Every sample of the run is written to
``.bench_out/samples-<workload>-<seed>.json``. With ``--trace 1`` one worker
traces a fixed amount of work and the run reports the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; lines above it list each metric
with its unit and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from metrics import END_TO_END, STAGES, metric_value, per_layer_names, upper_quartile

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
WORKLOADS = ("cli_reference", "seed_study", "many_tasks")
WORKERS = 3
IMPORT_SAMPLES = 3
STARTUP_SAMPLES = 2  # `--version` runs after each worker
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def child_env() -> dict:
    """The caller's environment with the checkout's src first on the path.

    BLAS thread variables are inherited as they are: users run with them.
    """
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def git_commit() -> str:
    if not (REPO / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def timed_run(argv, env: dict) -> float:
    t = time.perf_counter()
    subprocess.run(argv, env=env, cwd=REPO, check=True, stdout=subprocess.DEVNULL, timeout=60)
    return time.perf_counter() - t


def import_seconds(env: dict) -> float:
    """``import mergelab.cli`` in a fresh interpreter, timed inside it."""
    code = ("import time; t = time.perf_counter(); import mergelab.cli; "
            "print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=REPO, capture_output=True,
                         text=True, timeout=60, check=True)
    return float(out.stdout.strip())


def run_worker(args, seconds: float, workdir: Path, env: dict, deadline: float):
    """Start one worker, time its set-up, and return (setup_s, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    t0 = time.perf_counter()
    # own session, so an overrun kills the worker and any CLI process it runs
    proc = subprocess.Popen(cmd, env=env, cwd=REPO, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - t0),
                            lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        lines = []
        setup_s = None
        for line in proc.stdout:
            if setup_s is None and line.strip() == "READY":
                setup_s = time.perf_counter() - t0
            else:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
    if code != 0 or setup_s is None or not lines:
        raise BenchError(f"worker exited with code {code}")
    return setup_s, json.loads(lines[-1])


def end_to_end(args, env: dict, deadline: float):
    version = [sys.executable, "-m", "mergelab", "--version"]
    setups, results, startup = [], [], []
    for i in range(WORKERS):
        # the middle worker times items; the others only repeat the set-up
        seconds = args.seconds if i == WORKERS // 2 else 0.0
        workdir = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}-{i}"
        try:
            setup_s, res = run_worker(args, seconds, workdir, env, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(setup_s)
        results.append(res)
        startup += [timed_run(version, env) for _ in range(STARTUP_SAMPLES)]
    timed = results[WORKERS // 2]
    units = timed["units"]
    if "version" in units:  # the pipeline's own start-up samples
        startup += units["version"]["times"]
    rss_key = "children_peak_rss_mib" if args.workload == "cli_reference" else "peak_rss_mib"
    values = {name: metric_value(units, name) for name in ("wall_s", *dict(STAGES))}
    values.update(setup_s=statistics.median(setups), startup_s=upper_quartile(startup),
                  peak_rss_mb=timed[rss_key])
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    notes = {"items": timed["items"], "workers": WORKERS, "setup_samples": setups,
             "startup_samples": len(startup),
             "unit_samples": {u: len(rec["times"]) for u, rec in units.items()},
             "stages": {name: {"value": values[name], "unit": unit} for name, unit in STAGES}}
    # every sample of the run, for a look at its spread
    out = REPO / ".bench_out" / f"samples-{args.workload}-{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"setup_s": setups, "startup_s": startup, "units": units}))
    return metrics, results, notes


def traced(args, env: dict, deadline: float):
    workdir = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}-trace"
    try:
        _, res = run_worker(args, args.seconds, workdir, env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = dict(res["metrics"])
    values["cli.import_s"] = min(import_seconds(env) for _ in range(IMPORT_SAMPLES))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in per_layer_names()}
    notes = {"spans": res["spans"], "absent": res["absent"], "trace_samples": res["samples"],
             "traced_s": res["full_s"], "untraced_s": res["light_s"]}
    return metrics, [res], notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mergelab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    deadline = time.perf_counter() + RUN_LIMIT_S
    # SIGTERM unwinds like an error, so the worker's process group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    needed = [REPO / "src" / "mergelab" / "__init__.py", REPO / "configs" / "reference.json",
              REPO / "tests" / "data" / "golden_reference_eval.json"]
    missing = [str(n.relative_to(REPO)) for n in needed if not n.is_file()]
    if missing:
        print(f"bench: not a mergelab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = child_env()
    load_start = os.getloadavg()
    try:
        if args.trace:
            metrics, results, notes = traced(args, env, deadline)
        else:
            metrics, results, notes = end_to_end(args, env, deadline)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    stages = notes.pop("stages", {})
    env_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **results[0]["env"],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "commit": git_commit(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        **notes,
    }
    print("env " + json.dumps(env_record))
    for f in failures:
        print(f"FAILED {f}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, m in stages.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}  (part of wall_s)")
    print(f"{'failed_frac':40s} {len(failures) / attempted if attempted else 1.0:.6g} ratio")
    print(json.dumps({"correct": not failures and attempted > 0, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
