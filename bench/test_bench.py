"""Tests of the benchmark's own logic.

Run from the checkout root: ``PYTHONPATH=src python -m pytest -q bench``.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import run  # noqa: E402
from dataset import make_dataset, write_dataset  # noqa: E402
from spans import EXACT_COUNTERS, PARENT, Recorder, layer_metrics, self_times  # noqa: E402
from stats import percentile, relative_spread  # noqa: E402


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("evaluation.evaluate", 0.0, 10.0),
        span("engine.interpret", 1.0, 3.0, parent=0),
        span("metrics.jsd", 4.0, 5.0, parent=0),
        span("engine.interpret", 6.0, 9.0, parent=0),
        span("metrics.pearson", 7.0, 8.0, parent=3),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("cli.process", 0.0, 10.0),
        span("cli.import", 2.0, 6.0, parent=0),
        span("cli.command", 5.0, 12.0, parent=0),  # overlaps its sibling, ends late
    ]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_layer_self_times_and_unspanned_time_add_up_to_wall():
    spans = [
        span("learn.learn_lambda", 1.0, 4.0),
        span("engine.interpret_with_gradient", 1.5, 2.5, parent=0),
        span("evaluation.evaluate", 5.0, 7.0),
        span("metrics.jsd", 5.5, 6.0, parent=2),
    ]
    figures = layer_metrics(spans, wall=8.0, train_size=1)
    layers = sum(figures[f"{layer}.self_ms"] for layer in
                 ("cli", "lexicon", "engine", "learn", "evaluation", "metrics"))
    assert figures["trace.unspanned_ms"] == pytest.approx(3000.0)
    assert layers + figures["trace.unspanned_ms"] == pytest.approx(8000.0)
    assert figures["learn.self_ms"] == pytest.approx(2000.0)
    assert figures["engine.interpret_with_gradient.calls"] == 1


def test_wrapped_calls_nest_under_their_caller():
    recorder = Recorder()
    inner = recorder.wrap("engine.interpret", lambda x: x + 1)
    outer = recorder.wrap("evaluation.evaluate", lambda x: inner(inner(x)))
    assert outer(1) == 3
    assert [s[PARENT] for s in recorder.spans] == [-1, 0, 0]
    assert all(s[1] <= s[2] for s in recorder.spans)


def test_attach_reparents_child_process_spans():
    recorder = Recorder()
    with recorder.span("cli.process") as parent:
        pass
    recorder.attach([span("cli.import", 0.1, 0.2), span("cli.command", 0.2, 0.9),
                     span("lexicon.load_dataset", 0.3, 0.4, parent=1)], parent)
    assert [s[PARENT] for s in recorder.spans] == [-1, 0, 0, 2]


def test_schedule_cycles_the_datasets_and_repeats_an_input():
    from workloads import schedule

    class Workload:
        pass_s = 4.0

    assert schedule(Workload, 8, 30) == [0, 1, 2, 3, 4, 5, 6, 0]
    assert schedule(Workload, 3, 30) == [0, 1, 2, 0, 1, 2, 0, 1]
    assert schedule(Workload, 8, 1) == [0, 0]


def test_dataset_seeds_start_with_the_run_seed_and_differ_between_seeds():
    first, second = run.dataset_seeds(12), run.dataset_seeds(13)
    assert first[0] == 12 and len(set(first)) == len(first) == run.DATASETS
    assert not set(first) & set(second)


def test_percentile_on_known_samples():
    values = list(range(1, 11))
    assert percentile(values, 50) == pytest.approx(5.5)
    assert percentile(values, 90) == pytest.approx(9.1)
    assert percentile(values, 0) == 1
    assert percentile(values, 100) == 10
    assert percentile([7.0], 90) == 7.0
    assert percentile([3, 1, 2], 50) == 2
    sample = np.random.default_rng(0).normal(size=37)
    for q in (10, 50, 90, 99):
        assert percentile(sample, q) == pytest.approx(np.percentile(sample, q))
    with pytest.raises(ValueError):
        percentile([], 50)


def test_relative_spread_uses_statistics_quartiles():
    # statistics.quantiles([1..10], n=4) -> [2.75, 5.5, 8.25]
    assert relative_spread(range(1, 11)) == pytest.approx((8.25 - 2.75) / 5.5)


def test_generator_matches_the_test_suite_recipe():
    from conftest import make_synthetic_dataset

    for seed in (0, 12):
        table, items, human = make_dataset(seed)
        want_table, want_items, want_human = make_synthetic_dataset(seed=seed)
        assert table.categories == want_table.categories
        assert np.array_equal(table.values, want_table.values)
        assert items == want_items
        assert all(np.array_equal(human.responses[i.id], want_human.responses[i.id])
                   for i in items)


def test_generator_csvs_are_byte_identical_per_seed(tmp_path):
    def csv_bytes(seed, name):
        data_dir = write_dataset(seed, tmp_path / f"{name}")
        return {f: (data_dir / f).read_bytes()
                for f in ("typicality.csv", "metaphors.csv", "human.csv")}

    first = csv_bytes(12, "a")
    assert csv_bytes(12, "b") == first
    other = csv_bytes(13, "c")
    assert all(other[f] != first[f] for f in first)


def test_benchmark_json_lists_every_metric_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    end_to_end = run.end_to_end_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == end_to_end
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    figures = layer_metrics([], wall=1.0, train_size=18)
    names = set(figures) | {"metrics.warnings", "trace.counter_mismatches",
                            "trace.overhead_pct"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units(names)
    assert set(EXACT_COUNTERS) <= names
