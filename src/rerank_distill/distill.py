"""Select concise, high-quality trajectories and assemble the fine-tuning
corpus.

Per query: keep the valid positively-scoring samples, compute their mean
score and mean length, keep the ones scoring at or above the mean while
strictly shorter than the mean, and take the shortest survivor as the
distillation target. Queries with no survivor are discarded.

The length inequality is strict, so a lone sample or an all-identical set
never survives (its length equals the mean).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .models import CandidateSet, Query, TrajectorySample


def valid_subset(samples: Sequence[TrajectorySample]) -> list[TrajectorySample]:
    """Samples that parsed to a ranking and scored above zero, input order
    preserved.

    A valid sample without a score is a pipeline ordering bug (scoring must
    run before filtering) and is rejected loudly.
    """
    kept = []
    for sample in samples:
        if sample.valid and sample.score is None:
            raise ValueError(
                f"sample {sample.query_id}#{sample.sample_index} is valid but unscored; "
                "run scoring before filtering"
            )
        if sample.valid and sample.score is not None and sample.score > 0.0:
            kept.append(sample)
    return kept


def query_stats(valid: Sequence[TrajectorySample]) -> tuple[float, float]:
    """Arithmetic mean score and mean token length of the valid subset."""
    if not valid:
        raise ValueError("query_stats needs a non-empty valid subset; discard the query instead")
    mean_score = sum(s.score for s in valid) / len(valid)  # type: ignore[misc]
    mean_len = sum(s.token_len for s in valid) / len(valid)
    return mean_score, mean_len


def efficient_set(
    valid: Sequence[TrajectorySample],
    mean_score: float,
    mean_len: float,
) -> list[TrajectorySample]:
    """Samples scoring at or above the mean while strictly shorter than the
    mean length, input order preserved."""
    return [s for s in valid if s.score >= mean_score and s.token_len < mean_len]  # type: ignore[operator]


def select_target(efficient: Sequence[TrajectorySample]) -> TrajectorySample | None:
    """Shortest member of the efficient set; ties broken by higher score,
    then lower sample_index. None when the set is empty."""
    if not efficient:
        return None
    return min(efficient, key=lambda s: (s.token_len, -(s.score or 0.0), s.sample_index))


def build_corpus(
    per_query: Mapping[str, tuple[Query, CandidateSet, Sequence[TrajectorySample]]],
) -> tuple[list[tuple[Query, CandidateSet, TrajectorySample]], list[dict]]:
    """Run the filter for each query: the `(query, candidates, target)` of
    each retained query, and each query's filter-stats row as
    `corpus.stats.json` stores it (`query_id`, `n_sampled`, `n_valid`,
    `mean_score`, `mean_len`, `efficient_indices`, `retained`), both in
    query_id order. A query with no survivor has a row but no target, and
    `mean_score` and `mean_len` 0.0 when none of its samples is valid."""
    targets: list[tuple[Query, CandidateSet, TrajectorySample]] = []
    rows: list[dict] = []
    for query_id in sorted(per_query):
        query, candidates, samples = per_query[query_id]
        valid = valid_subset(samples)
        if valid:
            mean_score, mean_len = query_stats(valid)
            efficient = efficient_set(valid, mean_score, mean_len)
        else:
            mean_score, mean_len = 0.0, 0.0
            efficient = []
        target = select_target(efficient)
        rows.append({
            "query_id": query_id,
            "n_sampled": len(samples),
            "n_valid": len(valid),
            "mean_score": mean_score,
            "mean_len": mean_len,
            "efficient_indices": [s.sample_index for s in efficient],
            "retained": target is not None,
        })
        if target is not None:
            targets.append((query, candidates, target))
    return targets, rows


def retention_rate(rows: Sequence[Mapping[str, object]]) -> float:
    """Share of queries retained, from `build_corpus`'s rows; 0.0 for none.
    Zero retention is a legal, reported outcome."""
    return sum(row["retained"] for row in rows) / len(rows) if rows else 0.0
