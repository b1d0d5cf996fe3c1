"""Tests of the benchmark's own arithmetic and of its metric names.

    python3 -m pytest bench/tests
"""

import json
import re
import types
from pathlib import Path

import pytest

from attnbench import layers, report, stats
from attnbench.trace import Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# -- the percentile rule


@pytest.mark.parametrize(
    "n, pct",
    [(19, 50), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_tail_picks_highest_percentile_with_ten_samples_beyond(n, pct):
    got_pct, value, count = stats.tail(range(1, n + 1))
    assert (got_pct, count) == (pct, n)
    if n >= 2 * stats.MIN_BEYOND:
        assert sum(x > value for x in range(1, n + 1)) >= stats.MIN_BEYOND
    assert value == stats.percentile(range(1, n + 1), pct)


def test_tail_of_no_samples():
    assert stats.tail([]) == (0, 0.0, 0)


def test_tail_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 20
    assert stats.tail(values) == (90, 5.0, 100)


# -- self times


def span(name, start, end, parent):
    return (name, start, end, parent, 1)


def test_self_time_subtracts_children_not_grandchildren():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("x", 1.0, 5.0, 0),
        span("y", 4.0, 6.0, 0),  # overlaps x by 1
        span("z", 8.0, 12.0, 0),  # runs past the parent's end
    ]
    # children cover [1, 6] and [8, 10]: 7 of the root's 10
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_tracer_records_nesting_and_passes_results_through():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("m.inner", lambda x: x * 2)
    outer = tracer.wrap("m.outer", lambda x: inner(x) + inner(x + 1))
    assert outer(3) == 14
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["m.outer", "m.inner", "m.inner"]
    assert parents == [-1, 0, 0]
    # outer: ticks 0..5, inners 1..2 and 3..4
    assert self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_install_wraps_every_reference_and_uninstall_restores_them():
    from attnalign import evaluation, model

    before = (model.decode_step, evaluation.decode_step, model.attend)
    tracer = Tracer()
    tracer.install()
    try:
        assert evaluation.decode_step is model.decode_step
        assert model.decode_step is not before[0]
    finally:
        tracer.uninstall()
    assert (model.decode_step, evaluation.decode_step, model.attend) == before


# -- metric names


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert declared == report.UNITS


def test_per_layer_names_and_units_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert declared == layers.UNITS


def test_every_name_uses_the_allowed_characters():
    spec = benchmark_json()
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))


def test_printed_metrics_are_exactly_the_declared_ones():
    session = types.SimpleNamespace(attempted=3, failed=0)
    record = types.SimpleNamespace(session=session, setup_seconds=[0.1], rates={}, quality={})
    printed = report.with_units(report.end_to_end(record), report.UNITS)
    assert set(printed) == {m["name"] for m in benchmark_json()["end_to_end"]}
    traced = report.with_units(layers.per_layer(Tracer(), 1.0), layers.UNITS)
    assert set(traced) == {m["name"] for m in benchmark_json()["per_layer"]}


def test_workload_names_match_the_runner():
    import run
    from attnbench.workloads import WORKLOADS

    declared = [w["name"] for w in benchmark_json()["workloads"]]
    assert declared == list(WORKLOADS) == list(run.WORKLOAD_NAMES)
