"""Child process that runs one workload in a closed loop.

Reads a JSON spec on stdin: ``workload``, ``seed``, ``passes``, ``trace``
and, when tracing, ``trace_out``.  It imports ``lagfib.cli`` once and
calls ``lagfib.cli.main(argv)`` for every request, one at a time, with the
request's ``.iaf`` text as stdin and stdout captured.  Each pass sends the
workload's requests back to back in a seeded order; answers are checked
after the pass, outside the timed region.  Prints one JSON object with
per-request latencies with their speed scales (see ``calibrate``),
failures and peak RSS.

With ``trace`` set, passes alternate untraced and traced (untraced first),
so the per-module numbers come from the traced passes and the ratio of
the two kinds of pass gives the tracing overhead.
"""

import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import answers
import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MAX_REPORTED_FAILURES = 5


def call(main, argv, text, probe=None):
    """Run one CLI request in this process.

    Returns (status, stdout, stderr, error, seconds); ``error`` is the
    formatted traceback when ``main`` raised, else None.  With a
    ``calibrate.SpeedProbe``, its timer runs during the request and the
    time its handler took is left out of ``seconds``.
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, err
    status = error = None
    if probe is not None:
        handler_s = probe.handler_s
        probe.arm()
    start = perf_counter()
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        seconds = perf_counter() - start
        if probe is not None:
            probe.disarm()
            seconds -= probe.handler_s - handler_s
        sys.stdin, sys.stdout, sys.stderr = saved
    return status, out.getvalue(), err.getvalue(), error, seconds


def failure(request, status, stdout, stderr, error):
    """Why a request's answer is wrong, or None."""
    reason = answers.common_failure(status, stdout, stderr, error)
    if reason is not None:
        return reason
    try:
        return request.check(stdout)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        return "malformed output: %r" % exc


def run_passes(main, requests, rng, passes, tracer=None):
    """Run ``passes`` passes; returns a result dict.

    With a ``tracer``, every second pass runs with it installed.  Each
    request's time comes with the factor that scales it to the reference
    speed (see ``calibrate``).
    """
    runs = []
    failures, messages = 0, []
    request_id = 0
    for index in range(passes):
        order = list(requests)
        rng.shuffle(order)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        outputs, spans = [], []
        # A signal handler could run between a span's bookkeeping steps, so
        # traced passes sample the speed only between requests.
        interval = None if traced else calibrate.INTERVAL_S
        with calibrate.SpeedProbe(interval) as probe:
            for req in order:
                if traced:
                    tracer.request = request_id
                start = perf_counter()
                outputs.append(call(main, req.argv, req.text, probe))
                spans.append((start, perf_counter()))
                probe.between()
                request_id += 1
        if traced:
            tracer.uninstall()
        runs.append({"traced": traced,
                     "latencies": [o[4] for o in outputs],
                     "scales": [probe.scale(*span) for span in spans]})
        for req, (status, stdout, stderr, error, _) in zip(order, outputs):
            reason = failure(req, status, stdout, stderr, error)
            if reason is not None:
                failures += 1
                if len(messages) < MAX_REPORTED_FAILURES:
                    messages.append("%s: %s" % (req.key, reason))
    return {"attempted": passes * len(requests), "failed": failures,
            "failures": messages, "passes": runs}


def main():
    spec = json.load(sys.stdin)
    from lagfib import cli

    lagfib_dir = Path(sys.modules["lagfib"].__file__).resolve().parent
    if lagfib_dir != (ROOT / "src" / "lagfib").resolve():
        print("lagfib was imported from %s, not from this checkout"
              % lagfib_dir, file=sys.stderr)
        return 2

    requests, rng = workloads.build(spec["workload"], spec["seed"], ROOT)
    tracer = None
    passes = spec["passes"]
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        passes = max(2, passes)
    # Call through the module attribute so a traced pass sees the wrapper.
    result = run_passes(lambda argv: cli.main(argv), requests, rng, passes,
                        tracer)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        n_traced = sum(1 for p in result["passes"] if p["traced"])
        result["layers"] = tracer.metrics(n_traced)
        tracer.write(spec["trace_out"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
