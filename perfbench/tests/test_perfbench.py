"""Tests of the benchmark itself: tracer arithmetic, traced-versus-untraced
outputs, and BENCHMARK.json kept in step with the metric catalogue.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import layers  # noqa: E402
import workloads as wls  # noqa: E402
from tracer import OP_SPAN, Tracer, layer_totals, self_times  # noqa: E402
from worker import Runner, trace_pairs  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, float(start), float(end), parent, 0]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0, 10),
        span("a", 1, 4, 0),
        span("b", 3, 6, 0),  # overlaps a: covered part of root is [1, 6]
        span("a.child", 2, 3, 1),
        span("c", 8, 9, 0),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 1])


def test_self_time_clips_children_to_parent_and_ignores_grandchildren():
    spans = [span("root", 0, 4), span("kid", 3, 7, 0), span("grandkid", 3, 4, 1)]
    # only the part of kid inside root counts; grandkid is kid's business
    assert self_times(spans) == pytest.approx([3, 3, 1])


def test_layer_totals_sum_self_time_and_calls_per_name():
    spans = [span("op", 0, 10), span("f", 1, 3, 0), span("f", 4, 5, 0), span("g", 1.5, 2, 1)]
    totals = layer_totals(spans)
    assert totals["op"] == pytest.approx((7, 1))
    assert totals["f"] == pytest.approx((2.5, 2))
    assert totals["g"] == pytest.approx((0.5, 1))


def test_wrapped_calls_nest_under_the_op_span():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: inner() or inner())
    tracer.begin_op(0)
    outer()
    tracer.end_op()
    names = [s[0] for s in tracer.spans]
    assert names == [OP_SPAN, "m.outer", "m.inner", "m.inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 1]
    # op 0..7, outer 1..6, inner 2..3 and 4..5
    assert layer_totals(tracer.spans)["m.outer"] == pytest.approx((3, 1))
    assert layer_totals(tracer.spans)[OP_SPAN] == pytest.approx((2, 1))


def test_exceptions_are_counted_per_layer_and_reraised():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("cell.boom", boom)()
    assert tracer.errors == {"cell": 1}
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_exception_is_counted_once_in_the_innermost_layer():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    inner = tracer.wrap("cell.cell_response", boom)
    middle = tracer.wrap("pipeline.analog_convolve", inner)
    outer = tracer.wrap("pipeline.monte_carlo", middle)
    with pytest.raises(ValueError):
        outer()
    assert tracer.errors == {"cell": 1}


def test_counter_that_no_longer_fits_is_reported_absent():
    tracer = Tracer()
    traced = tracer.wrap("pipeline.analog_convolve", lambda: 3.0, lambda a, k, r: {"macs": r.currents})
    assert traced() == 3.0
    assert tracer.absent == ["pipeline.analog_convolve counter"]
    assert tracer.counts == {}


def test_removed_boundary_is_reported_absent(monkeypatch):
    pipeline = wls.fx("pipeline")
    monkeypatch.delattr(pipeline, "cell_response")
    tracer = Tracer()
    tracer.install({"flexdog.pipeline"})
    try:
        assert tracer.absent == ["flexdog.pipeline.cell_response"]
    finally:
        tracer.restore()
    assert not hasattr(pipeline.run_dog_pipeline, "__wrapped__")


class SmallFrame(wls.Frame):
    size = 48


class SmallMonteCarlo(wls.MonteCarlo):
    trials = 6


@pytest.mark.parametrize("workload", [SmallFrame, SmallMonteCarlo])
def test_traced_and_untraced_runs_give_identical_digests(workload, tmp_path):
    import numpy as np

    digests = []
    for traced in (False, True):
        wl = workload()
        wl.setup(np.random.default_rng([7, 0]), tmp_path)
        runner = Runner(wl)
        tracer = Tracer() if traced else None
        if traced:
            tracer.install({"flexdog.pipeline", "flexdog.dog"})
        try:
            for k in range(2 * wls.POOL):
                runner.once(k, tracer)
        finally:
            if traced:
                tracer.restore()
        assert runner.failures == []
        digests.append(runner.simulated())
        if traced:
            assert layer_totals(tracer.spans)["pipeline.run_dog_pipeline"][1] > 0
    assert digests[0] == digests[1]


def test_trace_pairs_compare_each_traced_op_with_its_untraced_twin(tmp_path):
    import numpy as np

    wl = SmallFrame()
    wl.setup(np.random.default_rng([7, 0]), tmp_path)
    runner = Runner(wl)
    tracer = Tracer()
    untraced, traced = trace_pairs(wl, runner, 0.0, tracer, tmp_path / "spans.json")
    assert len(untraced) == len(traced) == wls.POOL
    assert runner.failures == [] and runner.attempted == 2 * wls.POOL
    assert layer_totals(tracer.spans)[OP_SPAN][1] == wls.POOL
    assert wls.fx("pipeline").run_dog_pipeline.__module__ == "flexdog.pipeline"
    assert not hasattr(wls.fx("pipeline").run_dog_pipeline, "__wrapped__")


def test_benchmark_json_lists_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(layers.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == layers.per_layer()
    assert [w["name"] for w in doc["workloads"]] == list(wls.WORKLOADS)
    for metric, _, _ in layers.per_layer():
        assert layers.moves(metric)
