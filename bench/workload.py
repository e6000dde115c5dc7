"""Seeded workload generator and the backends wrapped around the mock.

A workload is a set of input files (topics, TREC run, passage corpus,
qrels, pipeline config) written from a seed. The pipeline under test sees
only those files. Passage length and the grade distribution vary from
query to query; the totals stay close across seeds because every workload
has many queries.
"""

from __future__ import annotations

import hashlib
import math
import os
import random
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import yaml
from rerank_distill.sampling import GenerationBackend, GenerationRequest, GenerationResult

MIXED_MODES = (
    {"quality": "ideal", "filler_sentences": 4, "restatements": 0, "revert_loops": 0},
    {"quality": "ideal", "filler_sentences": 80, "restatements": 2, "revert_loops": 2},
    {"quality": "worst", "filler_sentences": 4, "restatements": 1, "revert_loops": 1},
)
CONCISE_MODES = (
    {"quality": "shuffled", "filler_sentences": 3, "restatements": 1, "revert_loops": 0},
)


@dataclass(frozen=True)
class Shape:
    """What one workload runs: sampling profile, K, size and mock modes.

    `offline_repeats` is how many times each untraced repetition runs the
    four stages after `sample`; a fixed count, so that a change to the
    speed of sampling does not change how often they are measured.
    """

    profile: str
    k_samples: int
    queries: int
    depth: int
    modes: tuple[dict, ...]
    latency: bool = False
    offline_repeats: int = 1


WORKLOADS = {
    # The paper's corpus-construction path: long traces, a ~10 MB store
    # that is written twice and read three times.
    "distill-mock": Shape("distill", 16, 80, 20, MIXED_MODES),
    # The evaluation protocol: one short sample per query over 100
    # passages, so fixed costs per query dominate.
    "eval-wide": Shape("eval", 1, 400, 100, CONCISE_MODES),
    # distill-mock's shape behind a seeded per-request delay, standing in
    # for a live endpoint where wall time is mostly waiting. Its sampling
    # takes about 50 times as long as the stages after it, so those run
    # five times per repetition: once each, a run held too few of them
    # for a steady median.
    "distill-latency": Shape("distill", 16, 32, 20, MIXED_MODES, latency=True, offline_repeats=5),
}

_SYLLABLES = ("ka", "lo", "mi", "ne", "ru", "sa", "ti", "vo", "ze", "pa", "do", "gu", "he", "ji", "wa")
_VOCAB = tuple(a + b + c for a in _SYLLABLES for b in _SYLLABLES for c in ("", "n", "s", "r"))


def max_in_flight() -> int:
    """Closed-loop concurrency: one outstanding request per usable core."""
    return len(os.sched_getaffinity(0))


def _config_yaml(shape: Shape, seed: int) -> str:
    return yaml.safe_dump({
        "profiles": {shape.profile: {"k_samples": shape.k_samples, "max_in_flight": max_in_flight()}},
        "tokenizer_mode": "auto",
        "think_markers": ["<think>", "</think>"],
        "mock": {"name": "bench", "modes": list(shape.modes)},
        "seed": seed,
    })


def _spread(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    """`n` integers spaced evenly over [lo, hi], in random order."""
    values = [lo + round((hi - lo) * i / max(1, n - 1)) for i in range(n)]
    rng.shuffle(values)
    return values


def generate(shape: Shape, seed: int, out_dir: Path) -> dict[str, str]:
    """Write the workload's input files into `out_dir`; return their paths.

    Identical (shape, seed) gives byte-identical files.
    """
    rng = random.Random(seed)
    stream = rng.choices(_VOCAB, k=50_000)
    # Per-query parameters are an even spread shuffled across queries, so
    # queries differ while the workload's totals barely move with the seed.
    mean_words = _spread(rng, shape.queries, 12, 90)
    max_grades = _spread(rng, shape.queries, 1, 3)
    n_relevant = _spread(rng, shape.queries, 1, max(1, shape.depth // 3))
    topics, run, corpus, qrels = [], [], [], []
    for q in range(1, shape.queries + 1):
        qid = f"q{q:05d}"
        topics.append(f"{qid}\t{' '.join(rng.choices(_VOCAB, k=rng.randint(3, 10)))}\n")
        mean, max_grade = mean_words[q - 1], max_grades[q - 1]
        relevant = set(rng.sample(range(1, shape.depth + 1), n_relevant[q - 1]))
        score = 100.0 + shape.depth
        for rank in range(1, shape.depth + 1):
            doc_id = f"D{q:05d}-{rank:03d}"
            score -= 0.5 + rng.random()
            run.append(f"{qid} Q0 {doc_id} {rank} {score:.4f} bench\n")
            words = max(3, int(rng.gauss(mean, mean * 0.3)))
            start = rng.randrange(len(stream) - words)
            corpus.append(f"{doc_id}\t{' '.join(stream[start:start + words])}\n")
            if rank in relevant:
                qrels.append(f"{qid} 0 {doc_id} {rng.randint(1, max_grade)}\n")
            elif rng.random() < 0.5:
                qrels.append(f"{qid} 0 {doc_id} 0\n")
        if rng.random() < 0.3:  # judged relevant but never retrieved
            qrels.append(f"{qid} 0 D{q:05d}-unretrieved {max_grade}\n")
    files = {
        "topics": ("topics.tsv", topics),
        "run": ("run.txt", run),
        "corpus": ("corpus.tsv", corpus),
        "qrels": ("qrels.txt", qrels),
        "config": ("config.yaml", [_config_yaml(shape, seed)]),
    }
    paths = {}
    for key, (name, lines) in files.items():
        path = out_dir / name
        path.write_text("".join(lines), encoding="utf-8")
        paths[key] = str(path)
    return paths


# The latency model: a heavy-tailed (lognormal, sigma 0.6) delay per
# request whose median grows with generation length, as an endpoint's
# decode time does. A request of the mixed modes' mean length (about 2 500
# characters; the modes generate about 430, 890 and 6 500) has a 20 ms
# median, 40 % of which is a fixed part (prompt processing and the first
# token) and the rest proportional to length. At that size a request costs
# about 20 times the parsing of its sample, so waiting dominates.
LATENCY_MEDIAN_MS = 20.0
LATENCY_FIXED_SHARE = 0.4
LATENCY_REFERENCE_CHARS = 2500
LATENCY_SIGMA = 0.6


def latency_s(seed: int, query_id: str, sample_index: int, generation_chars: int) -> float:
    """Simulated endpoint delay for one request, in seconds.

    A pure function of its arguments, so a seed fixes every delay.
    """
    digest = hashlib.sha256(f"{seed}|{query_id}|{sample_index}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    scale = LATENCY_FIXED_SHARE + (1.0 - LATENCY_FIXED_SHARE) * generation_chars / LATENCY_REFERENCE_CHARS
    return LATENCY_MEDIAN_MS * scale * math.exp(LATENCY_SIGMA * rng.gauss(0.0, 1.0)) / 1000.0


class LatencyBackend(GenerationBackend):
    """Wraps a backend so each request sleeps for `latency_s` after
    generating, then returns the inner result unchanged. `calls` counts
    the requests it delayed."""

    def __init__(self, inner: GenerationBackend, seed: int):
        self.inner = inner
        self.seed = seed
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        result = self.inner.generate(request)
        with self._lock:
            self.calls += 1
        time.sleep(latency_s(self.seed, request.query_id, request.sample_index, len(result.raw_text)))
        return result


class TracedBackend(GenerationBackend):
    """Records a `sampling.generate` span around each request."""

    def __init__(self, inner: GenerationBackend, tracer):
        self._generate = tracer.wrap("sampling.generate", inner.generate)

    def generate(self, request: GenerationRequest) -> GenerationResult:
        return self._generate(request)
