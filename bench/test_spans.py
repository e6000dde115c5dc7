"""Tests for the benchmark's own statistics, on hand-built spans.

Run with: python3 -m pytest bench
"""

from __future__ import annotations

import math
import statistics
import threading

import pytest

from spans import Span, SpanIndex, Tracer, covered, quartiles, self_times, slot_busy_frac


def span(id, name, start, end, parent=None, thread=1):
    return Span(id=id, name=name, start=start, end=end, thread=thread, parent=parent)


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    q1, med, q3 = quartiles(values)
    assert med == statistics.median(values) == 4.0
    assert (q1, q3) == (2.0, 7.0)


def test_quartiles_of_even_count_interpolate():
    assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.25, 2.5, 3.75)


def test_quartiles_of_one_value():
    assert quartiles([0.5]) == (0.5, 0.5, 0.5)


def test_slot_busy_frac_counts_generate_time_against_all_slots():
    generate = [span(i, "sampling.generate", 0.0, 0.5) for i in range(3)]
    # 1.5 s busy out of 2 slots x 1 s of wall time.
    assert slot_busy_frac(generate, slots=2, wall_s=1.0) == pytest.approx(0.75)


def test_slot_busy_frac_of_idle_slots_is_zero():
    assert slot_busy_frac([], slots=2, wall_s=3.0) == 0.0


def test_covered_merges_overlaps_and_clips_to_the_window():
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (9.0, 12.0)], 0.5, 10.0) == pytest.approx(4.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, "cli.sample", 0.0, 10.0),
        span(1, "sampling.sample_trajectories", 1.0, 7.0, parent=0),
        span(2, "parsing.parse_final_ranking", 2.0, 4.0, parent=1),
        span(3, "parsing.extract_rankings", 2.5, 3.5, parent=2),
        span(4, "io.write_samples", 8.0, 9.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx({0: 3.0, 1: 4.0, 2: 1.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_worker_spans_once():
    spans = [
        span(0, "sampling.sample_trajectories", 0.0, 4.0),
        span(1, "sampling.generate", 0.5, 2.5, parent=0, thread=2),
        span(2, "sampling.generate", 1.0, 3.0, parent=0, thread=3),
    ]
    assert self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_parents_worker_spans_to_the_open_main_span():
    tracer = Tracer()
    work = tracer.wrap("sampling.generate", lambda: None)
    with tracer.span("sampling.sample_trajectories"):
        worker = threading.Thread(target=work)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    generate, outer = tracer.spans
    assert generate.parent == outer.id
    assert generate.thread != outer.thread
    assert outer.parent is None


def test_tracer_counts_items_from_arguments_and_result():
    tracer = Tracer()
    count = tracer.wrap("parsing.count_tokens", lambda text: text.split(), lambda args, result: len(args[0]))
    assert count("two words") == ["two", "words"]
    (recorded,) = tracer.spans
    assert recorded.items == len("two words")
    assert recorded.duration >= 0.0


def test_span_index_means_per_call_and_per_item():
    spans = [
        Span(id=0, name="io.read_samples", start=0.0, end=2.0, thread=1, parent=None, items=4.0),
        Span(id=1, name="io.read_samples", start=3.0, end=4.0, thread=1, parent=None, items=2.0),
    ]
    layers = SpanIndex(spans)
    assert layers.calls("io.read_samples") == 2
    assert layers.per_call("io.read_samples") == pytest.approx(1.5)
    assert layers.per_call("io.read_samples", items=True) == pytest.approx(3.0)
    assert layers.per_item("io.read_samples") == pytest.approx(0.5)
    assert layers.missing == []


def test_span_index_reports_a_name_without_spans_as_missing_not_free():
    layers = SpanIndex([span(0, "cli.sample", 0.0, 1.0)])
    assert math.isnan(layers.per_call("parsing.count_tokens"))
    assert math.isnan(layers.per_item("io.write_samples"))
    assert layers.calls("parsing.count_tokens") == 0
    assert layers.missing == ["parsing.count_tokens", "io.write_samples"]
