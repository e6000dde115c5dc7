"""Ranking quality, redundancy diagnostics, and the training-loss check.

nDCG follows the TREC-DL convention for graded judgments: gain 2^grade - 1,
discount log2(rank + 1), ideal DCG computed from the ranked universe's own
grades. Redundancy treats rankings as tie-aware values: "[1] = [2]" and
"[1] > [2]" are different statements.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import replace
from typing import Mapping, Sequence

from .models import (
    EvalReport,
    LengthBucket,
    Qrels,
    Ranking,
    RedundancyMetrics,
    TrajectorySample,
)

logger = logging.getLogger(__name__)


def ndcg_at_k(ranking: Ranking, qrels: Qrels, query_id: str, k: int = 10) -> float:
    """Normalized DCG at cutoff `k` for a total ranking.

    Ties are flattened stably (group order, then within-group order).
    Returns 0.0 when no ranked document has a positive grade.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    grades = [qrels.grade(query_id, doc_id) for doc_id in ranking.flatten()]
    dcg = _dcg(grades, k)
    idcg = _dcg(sorted(grades, reverse=True), k)
    if idcg == 0.0:
        return 0.0
    return dcg / idcg


def _dcg(grades: Sequence[int], k: int) -> float:
    return sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))


def last_novel_index(seq: Sequence[Ranking]) -> int:
    """1-based index of the last ranking with no equal earlier element;
    0 for an empty sequence."""
    t_star = 0
    seen: set[Ranking] = set()
    for i, ranking in enumerate(seq, start=1):
        if ranking not in seen:
            t_star = i
            seen.add(ranking)
    return t_star


def tail_repeat_ratio(seq: Sequence[Ranking]) -> float:
    """Fraction of the sequence after the last novel ranking: (T - t*)/T.

    0.0 for sequences of length <= 1.
    """
    t = len(seq)
    if t <= 1:
        return 0.0
    return (t - last_novel_index(seq)) / t


def multi_occurrence_ratio(seq: Sequence[Ranking]) -> float:
    """Fraction of distinct rankings that occur more than once; 0.0 when
    the sequence is empty."""
    if not seq:
        return 0.0
    counts = Counter(seq)
    return sum(1 for c in counts.values() if c >= 2) / len(counts)


def redundancy_metrics(seq: Sequence[Ranking]) -> RedundancyMetrics:
    """Bundle T, t*, TRR, and MOR for one trace."""
    return RedundancyMetrics(
        seq_len=len(seq),
        t_star=last_novel_index(seq),
        trr=tail_repeat_ratio(seq),
        mor=multi_occurrence_ratio(seq),
    )


def length_normalized_nll(batch: Sequence[Sequence[float]]) -> float:
    """Mean over sequences of the per-token negative log-likelihood.

    Each sequence contributes -(1/|seq|) * sum(logprobs), so short and long
    targets weigh equally.
    """
    if not batch:
        raise ValueError("batch must contain at least one sequence")
    total = 0.0
    for seq in batch:
        if not seq:
            raise ValueError("every sequence must be non-empty")
        for lp in seq:
            if lp > 0.0:
                raise ValueError(f"log-probabilities must be <= 0, got {lp}")
        total += sum(seq) / len(seq)
    return -total / len(batch)


def attach_scores(samples: Sequence[TrajectorySample], qrels: Qrels) -> list[TrajectorySample]:
    """Score every valid sample's final ranking with nDCG@10; invalid
    samples pass through."""
    scored = []
    for sample in samples:
        if sample.valid and sample.final_ranking is not None:
            value = ndcg_at_k(sample.final_ranking, qrels, sample.query_id)
            scored.append(replace(sample, score=value))
        else:
            scored.append(sample)
    return scored


def aggregate_report(
    run: Mapping[str, tuple[Ranking, int]],
    qrels: Qrels,
    bucket_count: int = 10,
) -> EvalReport:
    """Per-query nDCG@10 and generation length, their means, and an
    equal-width length-bucket curve (mean nDCG per bucket).

    Queries absent from the qrels are scored against implicit grade 0 and
    logged as a warning.
    """
    if not run:
        raise ValueError("cannot aggregate an empty run")
    if bucket_count < 1:
        raise ValueError("bucket_count must be >= 1")
    judged = qrels.query_ids()
    per_query: dict[str, tuple[float, int]] = {}
    for query_id in sorted(run):
        if query_id not in judged:
            logger.warning("query %s has no judgments; scoring against grade 0", query_id)
        ranking, gen_len = run[query_id]
        per_query[query_id] = (ndcg_at_k(ranking, qrels, query_id), gen_len)
    ndcgs = [v[0] for v in per_query.values()]
    lens = [v[1] for v in per_query.values()]
    return EvalReport(
        per_query=per_query,
        mean_ndcg10=sum(ndcgs) / len(ndcgs),
        mean_len=sum(lens) / len(lens),
        length_buckets=length_buckets(per_query, bucket_count),
    )


def length_buckets(
    per_query: Mapping[str, tuple[float, int]],
    bucket_count: int,
) -> tuple[LengthBucket, ...]:
    """Partition the observed length range into `bucket_count` equal-width
    buckets; every bucket is half-open except the last, which is closed.

    A zero-width range (all lengths equal) collapses to a single bucket.
    """
    lens = [v[1] for v in per_query.values()]
    lo, hi = float(min(lens)), float(max(lens))
    if lo == hi:
        points = list(per_query.values())
        ndcgs = [p[0] for p in points]
        return (LengthBucket(lo=lo, hi=hi, mean_ndcg10=sum(ndcgs) / len(ndcgs), count=len(points)),)
    width = (hi - lo) / bucket_count
    sums = [0.0] * bucket_count
    counts = [0] * bucket_count
    for ndcg, gen_len in per_query.values():
        idx = min(int((gen_len - lo) / width), bucket_count - 1)
        sums[idx] += ndcg
        counts[idx] += 1
    buckets = []
    for i in range(bucket_count):
        mean = sums[i] / counts[i] if counts[i] else None
        buckets.append(LengthBucket(lo=lo + i * width, hi=lo + (i + 1) * width, mean_ndcg10=mean, count=counts[i]))
    return tuple(buckets)
