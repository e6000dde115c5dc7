"""The benchmark's traced run (bench/run.py --trace 1) wraps package
functions by module and attribute name. These tests make a rename that
drops one of those names fail here too, not only in a traced run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import rerank_distill
import rerank_distill.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_resolves(bench_run):
    missing = [f"{module.__name__}.{attr}" for module, attr, _span, _items in bench_run.hooks(rerank_distill)
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_backend_factory_resolves():
    assert callable(rerank_distill.cli._backend_for)
