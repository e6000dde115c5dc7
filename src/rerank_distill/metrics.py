"""Ranking quality, redundancy diagnostics, and the training-loss check.

nDCG follows the TREC-DL convention for graded judgments: gain 2^grade - 1,
discount log2(rank + 1), ideal DCG computed from the ranked universe's own
grades. Redundancy treats rankings as tie-aware values: "[1] = [2]" and
"[1] > [2]" are different statements.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .models import EvalReport, Qrels, Ranking, TrajectorySample


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


def tail_repeat_ratio(seq: Sequence[Ranking]) -> float:
    """Fraction of the sequence after the last novel ranking: (T - t*)/T.

    0.0 for sequences of length <= 1.
    """
    return redundancy_metrics(seq)["trr"]


def multi_occurrence_ratio(seq: Sequence[Ranking]) -> float:
    """Fraction of distinct rankings that occur more than once; 0.0 when
    the sequence is empty."""
    return redundancy_metrics(seq)["mor"]


def redundancy_metrics(seq: Sequence[Ranking]) -> dict[str, int | float]:
    """`{"seq_len", "t_star", "trr", "mor"}` for one trace, from one pass
    over it: T, t*, TRR and MOR, as `redundancy.json`'s per-sample rows
    store them. t* is the 1-based position of the last ranking no earlier
    element equals (0 for an empty sequence)."""
    counts: dict[Ranking, int] = {}
    t_star = 0
    for i, ranking in enumerate(seq, start=1):
        count = counts.get(ranking, 0)
        if not count:
            t_star = i
        counts[ranking] = count + 1
    t = len(seq)
    return {
        "seq_len": t,
        "t_star": t_star,
        "trr": (t - t_star) / t if t > 1 else 0.0,
        "mor": sum(1 for c in counts.values() if c >= 2) / len(counts) if counts else 0.0,
    }


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


def attach_scores(samples: Sequence[TrajectorySample], qrels: Qrels) -> list[float | None]:
    """nDCG@10 of each sample's final ranking, in sample order; None for an
    invalid sample. Samples of one query that state the same final ranking
    are scored once: most of a query's K samples repeat one."""
    scores: dict[tuple[str, Ranking], float] = {}
    out: list[float | None] = []
    for sample in samples:
        if sample.valid and sample.final_ranking is not None:
            key = (sample.query_id, sample.final_ranking)
            value = scores.get(key)
            if value is None:
                value = scores[key] = ndcg_at_k(sample.final_ranking, qrels, sample.query_id)
            out.append(value)
        else:
            out.append(None)
    return out


def aggregate_report(per_query: Mapping[str, tuple[float, int]]) -> EvalReport:
    """The report of each query's `(nDCG@10, generation length)`: the
    per-query values in query id order and their means."""
    if not per_query:
        raise ValueError("cannot aggregate an empty run")
    per_query = dict(sorted(per_query.items()))
    ndcgs = [v[0] for v in per_query.values()]
    lens = [v[1] for v in per_query.values()]
    return EvalReport(per_query=per_query, mean_ndcg10=sum(ndcgs) / len(ndcgs), mean_len=sum(lens) / len(lens))


def check_bucket_count(bucket_count: int) -> None:
    """Refuse a length-bucket count below one. The stages that take one
    call this before they read any input."""
    if bucket_count < 1:
        raise ValueError(f"bucket_count must be >= 1, got {bucket_count}")


def length_buckets(per_query: Mapping[str, tuple[float, int]], bucket_count: int) -> list[dict]:
    """The length-quality curve as report rows, `{"lo", "hi",
    "mean_ndcg10", "count"}`: the observed length range in `bucket_count`
    equal-width buckets, each with its queries' count and mean nDCG@10
    (None for an empty one). Every bucket is half-open except the last,
    which is closed.

    A zero-width range (all lengths equal) collapses to a single bucket.
    """
    check_bucket_count(bucket_count)
    lens = [v[1] for v in per_query.values()]
    lo, hi = float(min(lens)), float(max(lens))
    if lo == hi:
        ndcgs = [v[0] for v in per_query.values()]
        return [{"lo": lo, "hi": hi, "mean_ndcg10": sum(ndcgs) / len(ndcgs), "count": len(ndcgs)}]
    width = (hi - lo) / bucket_count
    sums = [0.0] * bucket_count
    counts = [0] * bucket_count
    for ndcg, gen_len in per_query.values():
        # One correctly rounded division of exact integers. Dividing by the
        # rounded `width` instead puts some lengths on a bucket's lower edge
        # in the bucket below (109 in 100..118 over 14 buckets).
        idx = min(int((gen_len - lo) * bucket_count / (hi - lo)), bucket_count - 1)
        sums[idx] += ndcg
        counts[idx] += 1
    return [{"lo": lo + i * width, "hi": lo + (i + 1) * width,
             "mean_ndcg10": sums[i] / counts[i] if counts[i] else None, "count": counts[i]}
            for i in range(bucket_count)]
