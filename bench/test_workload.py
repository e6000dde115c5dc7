"""Tests for the latency model of the benchmark's workload generator.

Run with: python3 -m pytest bench
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workload  # noqa: E402


def test_latency_is_a_pure_function_of_its_arguments():
    assert workload.latency_s(3, "q00001", 2, 900) == workload.latency_s(3, "q00001", 2, 900)
    assert workload.latency_s(3, "q00001", 2, 900) != workload.latency_s(3, "q00001", 3, 900)
    assert workload.latency_s(3, "q00001", 2, 900) != workload.latency_s(4, "q00001", 2, 900)


def test_latency_median_is_20_ms_at_the_reference_length_and_grows_with_length():
    def median_ms(chars):
        return 1e3 * statistics.median(
            workload.latency_s(1, f"q{q:05d}", i, chars) for q in range(200) for i in range(1, 17))

    assert median_ms(workload.LATENCY_REFERENCE_CHARS) == pytest.approx(20.0, rel=0.05)
    assert median_ms(0) == pytest.approx(8.0, rel=0.05)
    assert median_ms(6500) > 2 * median_ms(900)


def test_latency_backend_counts_requests_and_returns_the_inner_result(monkeypatch):
    slept = []
    monkeypatch.setattr(workload.time, "sleep", slept.append)
    result = SimpleNamespace(raw_text="x" * 900)
    inner = SimpleNamespace(generate=lambda request: result)
    backend = workload.LatencyBackend(inner, seed=5)
    for index in (1, 2):
        assert backend.generate(SimpleNamespace(query_id="q00001", sample_index=index)) is result
    assert backend.calls == 2
    assert slept == [workload.latency_s(5, "q00001", i, 900) for i in (1, 2)]
