"""lagfib benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cubical-t3 --seed 1 --seconds 24 --trace 0

Run from the repository root (any directory works; paths are found from
this file).  The library is imported from ``src/`` next to this directory,
so the run measures the checkout it sits in.

A run has two parts, each in its own child interpreter:

1. Set-up (untraced runs only): ``probe.py`` times importing
   ``lagfib.cli`` and parsing each of the workload's inputs once.  It runs
   ``SETUP_PROBES`` times after one discarded warm-up; ``setup_s`` is the
   median.
2. The workload: ``worker.py`` calls ``lagfib.cli.main(argv)`` for each
   request in a closed loop with one client and no threads, a fixed number
   of passes over the workload's requests (see ``workloads.passes_for``).
   Every answer is checked.

Times are scaled to a reference machine speed (see ``calibrate``): the
worker times a fixed kernel around and during each request, and the probe
after its timed part, and each time is multiplied by the reference kernel
time over the measured one.  The unscaled figures are printed on the line before the
result.

Metrics with ``--trace 0`` (end to end):
  throughput_rps   requests in a pass over the median time a pass spends
                   in requests
  latency_p50_ms   median request latency
  latency_tail_ms  the highest percentile with at least ten requests
                   beyond it; the percentile and sample count are printed
                   on the line before the result
  setup_s          median set-up time, see above
  peak_rss_mb      peak RSS of the workload's child process
Failed requests are counted in ``failed`` out of ``attempted``; the run
exits 1 when any answer is wrong.

With ``--trace 1`` the worker alternates untraced and traced passes and
reports the per-module metrics of ``tracer.py`` per traced pass (times
unscaled), plus ``trace.overhead_ratio``: median scaled request time of a
traced pass over that of an untraced pass, minus 1.  Spans are written
to ``perfbench/traces/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9
# Every run must end within 180 s; leave room to report.
DEADLINE_S = 170.0


def tail_percentile(values, beyond=workloads.TAIL_BEYOND):
    """(percentile, value): the highest percentile of ``values`` with at
    least ``beyond`` samples above it; None when there are too few."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(script, payload, timeout):
    """Run a perfbench script with JSON on stdin; returns its stdout."""
    proc = subprocess.run([sys.executable, str(HERE / script)],
                          input=json.dumps(payload), capture_output=True,
                          text=True, env=child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d:\n%s"
                           % (script, proc.returncode, proc.stderr.strip()))
    return proc.stdout


def measure_setup(texts, deadline):
    """(scaled, unscaled) median set-up seconds over the probes."""
    at_reference, raw = [], []
    for i in range(SETUP_PROBES + 1):
        seconds, kernel_s = map(float, run_child(
            "probe.py", texts, deadline - monotonic()).split())
        if i:
            raw.append(seconds)
            at_reference.append(seconds * calibrate.REFERENCE_S / kernel_s)
    return statistics.median(at_reference), statistics.median(raw)


def metric(value, unit):
    return {"value": value, "unit": unit}


def scaled(p):
    """A pass's request times at the reference speed."""
    return [t * k for t, k in zip(p["latencies"], p["scales"])]


def end_to_end(passes, per_pass):
    """Throughput and latency metrics from scaled request times."""
    latencies = [t for p in passes for t in scaled(p)]
    _, tail = tail_percentile(latencies)
    pass_s = statistics.median(sum(scaled(p)) for p in passes)
    return {
        "throughput_rps": metric(per_pass / pass_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (SRC / "lagfib" / "cli.py").is_file():
        print("perfbench: no lagfib sources at %s" % (SRC / "lagfib"),
              file=sys.stderr)
        return 2

    requests, _ = workloads.build(args.workload, args.seed, ROOT)
    passes = workloads.passes_for(args.workload, args.seconds, len(requests))
    spec = {"workload": args.workload, "seed": args.seed, "passes": passes,
            "trace": bool(args.trace)}
    try:
        if args.trace:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            spec["trace_out"] = str(
                traces / ("%s-seed%d.tsv" % (args.workload, args.seed)))
        else:
            setup_s, setup_raw_s = measure_setup(workloads.inputs(requests),
                                                 deadline)
        result = json.loads(run_child("worker.py", spec,
                                      deadline - monotonic()))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    for message in result["failures"]:
        print("FAILED %s" % message)
    untraced = [p for p in result["passes"] if not p["traced"]]
    if args.trace:
        traced = [p for p in result["passes"] if p["traced"]]
        metrics = {name: metric(value, unit)
                   for name, (value, unit) in sorted(result["layers"].items())}
        metrics["trace.overhead_ratio"] = metric(
            statistics.median(sum(scaled(p)) for p in traced)
            / statistics.median(sum(scaled(p)) for p in untraced) - 1,
            "ratio")
        print("%s seed %d: %d traced of %d passes"
              % (args.workload, args.seed, len(traced),
                 len(result["passes"])))
    else:
        metrics = end_to_end(untraced, len(requests))
        metrics["setup_s"] = metric(setup_s, "s")
        metrics["peak_rss_mb"] = metric(result["peak_rss_mb"], "MB")
        raw = end_to_end([dict(p, scales=[1.0] * len(p["scales"]))
                          for p in untraced], len(requests))
        percentile = tail_percentile(
            [x for p in untraced for x in p["latencies"]])[0]
        print("%s seed %d: %d passes, latency_tail_ms is p%.1f of %d "
              "requests, error_rate %d/%d; unscaled: %s, setup %.4f s"
              % (args.workload, args.seed, passes, percentile,
                 passes * len(requests), failed, attempted,
                 ", ".join("%s %.4f" % (k, v["value"])
                           for k, v in raw.items()), setup_raw_s))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
