"""Tests of the benchmark's own code: generator, answer checks, tail rule
and tracer."""

import json
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answers  # noqa: E402
import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from t3grid import EXPECTED, cubical_t3  # noqa: E402
from tracer import Tracer  # noqa: E402

from lagfib import cli, complexes, intlinalg  # noqa: E402
from lagfib.complexes import twisted_cohomology  # noqa: E402
from lagfib.problemfile import parse_problem_text  # noqa: E402

SMALL = ((1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2))


def test_generator_cells_and_euler_characteristic():
    for size in SMALL + ((2, 2, 1),):
        problem = parse_problem_text(cubical_t3(*size))
        cubes = size[0] * size[1] * size[2]
        counts = [len(cells) for cells in problem.complex.cells]
        assert counts == [cubes, 3 * cubes, 3 * cubes, cubes]
        assert counts[0] - counts[1] + counts[2] - counts[3] == 0


def test_generator_invariants_on_small_grids():
    for holonomy in ("flat", "sheared"):
        want = EXPECTED[holonomy]
        for size in SMALL:
            problem = parse_problem_text(cubical_t3(*size, holonomy=holonomy))
            groups = tuple(str(twisted_cohomology(problem.complex,
                                                  problem.rho, k).group)
                           for k in range(4))
            assert groups == want["cohomology"], (holonomy, size)
            status, text = cli.run("report", problem)
            assert status == 0
            assert text.count("matrix row:") == 1
            assert "  group: %s\n" % want["realizable"] in text
            assert ": FAIL" not in text


def test_unit_grid_reproduces_bundled_t3():
    ours = parse_problem_text(cubical_t3(1, 1, 1))
    bundled = cli.load_bundled("t3")
    _, text = cli.run("report", ours)
    _, want = cli.run("report", bundled)
    # Everything after the title and digest lines is the answer.
    assert text.splitlines()[2:] == want.splitlines()[2:]
    docs = [json.loads(cli.run("report", p, fmt="json")[1])
            for p in (ours, bundled)]
    for doc in docs:
        del doc["title"], doc["digest"]
    assert docs[0] == docs[1]


def test_tail_percentile_rule():
    values = list(range(100, 0, -1))
    assert run.tail_percentile(values) == (90.0, 90)
    assert run.tail_percentile(list(range(15))) == (100.0 * 5 / 15, 4)
    assert run.tail_percentile(list(range(11))) == (100.0 / 11, 0)
    assert run.tail_percentile(list(range(10))) is None


def test_end_to_end_metrics_use_scaled_times():
    passes = [{"latencies": [0.01] * 6 + [0.03] * 6, "scales": [0.5] * 12},
              {"latencies": [0.04] * 12, "scales": [0.25] * 12}]
    metrics = run.end_to_end(passes, 12)
    assert metrics["latency_p50_ms"]["value"] == pytest.approx(10.0)
    assert metrics["latency_tail_ms"]["value"] == pytest.approx(10.0)
    assert metrics["throughput_rps"]["value"] == pytest.approx(100.0)


def test_speed_probe_samples_during_a_request_and_subtracts_them():
    with calibrate.SpeedProbe(interval=0.002) as probe:
        start = run.monotonic()
        *_, seconds = worker.call(
            lambda argv: sum(range(3000000)), ["x"], "", probe)
        probe.between()
    assert len(probe.samples) > 2 and probe.handler_s > 0
    assert seconds < run.monotonic() - start - probe.handler_s + 1e-3
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_speed_scale_uses_the_median_kernel_time_in_the_window():
    probe = calibrate.SpeedProbe()
    probe.starts = [0.0, 1.0, 2.0, 3.0, 10.0]
    probe.samples = [1.0, 2.0, 4.0, 8.0, 99.0]
    ref = calibrate.REFERENCE_S
    # The request's own samples plus the nearest one on each side.
    assert probe.scale(0.5, 2.5, window=1.0) == ref / 3.0
    # A short request is widened to the window.
    assert probe.scale(1.5, 1.5, window=2.0) == ref / 3.0
    assert probe.scale(1.5, 1.5, window=20.0) == ref / 4.0
    # No sample inside a long request: the nearest ones on each side count.
    assert probe.scale(4.0, 9.0) == ref / ((8.0 + 99.0) / 2)


def test_every_run_has_a_tail_percentile():
    for name in workloads.NAMES:
        requests, _ = workloads.build(name, 0, HERE.parent)
        for seconds in (1, 30):
            n = workloads.passes_for(name, seconds, len(requests)) * len(
                requests)
            percentile, _ = run.tail_percentile([0.0] * n)
            assert percentile >= 50


def _golden_main(requests, corrupt_key=None):
    """A stand-in for cli.main that prints each request's golden output,
    with the answer of ``corrupt_key`` changed."""
    goldens = workloads.load_goldens()
    by_argv = {}
    for req in requests:
        out = goldens[req.key]
        if req.key == corrupt_key:
            out = out.replace("Z^8", "Z^7")
        by_argv[req.argv, req.text] = out

    def main(argv):
        sys.stdout.write(by_argv[tuple(argv), sys.stdin.read()])
        return 0

    return main


def test_corrupted_answer_counts_as_failure():
    requests, rng = workloads.build("bundled-cli", 3, HERE.parent)
    clean = worker.run_passes(_golden_main(requests), requests, rng, 2)
    assert (clean["attempted"], clean["failed"]) == (72, 0)
    bad = worker.run_passes(_golden_main(requests, "t3 report text"),
                            requests, random.Random(3), 2)
    assert (bad["attempted"], bad["failed"]) == (72, 2)
    assert bad["failures"][0].startswith("t3 report text:")


def test_answer_checks_reject_wrong_groups():
    _, report = cli.run("report", parse_problem_text(cubical_t3(2, 1, 1)))
    assert answers.flat_report_text(report) is None
    assert answers.flat_report_text(report.replace("Z^8", "Z^7"))
    assert answers.flat_report_text(report.replace("matrix row", "row"))
    _, doc = cli.run("cohomology", parse_problem_text(
        cubical_t3(1, 1, 1, holonomy="sheared")), degree=1, fmt="json")
    assert answers.sheared_json("cohomology", 1)(doc) is None
    assert answers.sheared_json("cohomology", 1)(doc.replace("Z^6", "Z^5"))
    sheared = workloads.build("sheared-t3", 0, HERE.parent)[0]
    for req in sheared:
        assert worker.failure(req, 0, '{"group": {}}', "", None)
    assert answers.common_failure(0, "", "", None) is None
    assert answers.common_failure(1, "", "", None)
    assert answers.common_failure(0, "", "Traceback (most recent", None)


def _traced_counts(seed):
    requests = [req for req in workloads.build("bundled-cli", seed,
                                               HERE.parent)[0]
                if req.key.startswith("t3 ")]
    tracer = Tracer()
    result = worker.run_passes(lambda argv: cli.main(argv), requests,
                               random.Random(seed), 2, tracer)
    assert result["failed"] == 0, result["failures"]
    metrics = tracer.metrics(1)
    return {name: value for name, (value, unit) in metrics.items()
            if unit != "s"}


def test_tracer_counts_repeat_and_restores_the_library():
    original_snf = intlinalg.snf
    first = _traced_counts(5)
    assert intlinalg.snf is original_snf
    assert complexes.snf is original_snf
    assert first == _traced_counts(5)
    assert first["intlinalg.snf_calls"] > 0
    assert first["obstruction.certify_checks"] > 0
    assert 0 < first["groupring.eval_word_hit_ratio"] < 1


def test_tracer_wraps_every_binding_of_a_name():
    tracer = Tracer()
    tracer.install()
    try:
        assert complexes.snf is intlinalg.snf
        assert intlinalg.snf.__wrapped__ is not None
        intlinalg.snf(intlinalg.IntMatrix([[2, 0], [0, 3]]))
        complexes.snf(intlinalg.IntMatrix([[1]]))
    finally:
        tracer.uninstall()
    assert tracer.call_counts()["intlinalg.snf"] == 2


def test_self_times_partition_the_request_time():
    tracer = Tracer()
    requests = workloads.build("bundled-cli", 0, HERE.parent)[0][:4]
    worker.run_passes(lambda argv: cli.main(argv), requests,
                      random.Random(0), 2, tracer)
    roots = [i for i, p in enumerate(tracer.parents) if p == -1]
    assert [tracer.names[tracer.name_ids[i]] for i in roots] == [
        "cli.main"] * 4
    total = sum(tracer.ends[i] - tracer.starts[i] for i in roots)
    assert abs(sum(tracer.self_times().values()) - total) < 1e-6
