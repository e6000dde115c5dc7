"""Domain types shared by every pipeline stage.

All types are immutable value objects: construction validates the type's
invariants and raises ValueError on violation, after which instances are
safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, Mapping

TokenLenSource = Literal["endpoint-reported", "approximated"]


@dataclass(frozen=True)
class Query:
    """A user query. `id` is the opaque topic identifier."""

    id: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Query.id must be non-empty")


@dataclass(frozen=True)
class CandidateDoc:
    """One candidate passage."""

    doc_id: str
    text: str

    def __post_init__(self) -> None:
        if not self.doc_id:
            raise ValueError("CandidateDoc.doc_id must be non-empty")


@dataclass(frozen=True)
class CandidateSet:
    """The ordered first-stage candidate list for one query.

    Candidate order is load-bearing: prompts address passages by 1-based
    position, so position i in `docs` is the alias [i].
    """

    query_id: str
    docs: tuple[CandidateDoc, ...]

    def __post_init__(self) -> None:
        if len(self.docs) < 1:
            raise ValueError(f"CandidateSet for {self.query_id!r} must contain at least one doc")
        ids = [d.doc_id for d in self.docs]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"CandidateSet for {self.query_id!r} has duplicate doc_ids: {dupes}")

    def __len__(self) -> int:
        return len(self.docs)

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d.doc_id for d in self.docs)


@dataclass(frozen=True)
class Qrels:
    """Graded relevance judgments keyed by (query_id, doc_id).

    Unjudged pairs are implicitly grade 0.
    """

    judgments: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        for (qid, did), grade in self.judgments.items():
            if grade < 0:
                raise ValueError(f"negative grade {grade} for ({qid!r}, {did!r})")

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.judgments.get((query_id, doc_id), 0)

    def query_ids(self) -> set[str]:
        return {qid for qid, _ in self.judgments}


@dataclass(frozen=True)
class Ranking:
    """An ordered list of tie groups over doc_ids.

    `(("a",), ("b", "c"))` reads "a strictly above b and c, which are tied".
    Equality is tie-aware: identical group structure, not just identical
    flattened order.
    """

    groups: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for group in self.groups:
            if not group:
                raise ValueError("Ranking groups must be non-empty")
            for doc_id in group:
                if doc_id in seen:
                    raise ValueError(f"doc_id {doc_id!r} appears twice in Ranking")
                seen.add(doc_id)

    def flatten(self) -> tuple[str, ...]:
        """Stable flattening: group order, then within-group order."""
        return tuple(doc_id for group in self.groups for doc_id in group)


@dataclass(frozen=True)
class TrajectorySample:
    """One sampled generation for a query, after parsing.

    `ranking_sequence` is every ranking statement found in the raw text, in
    text order; the final statement (unrepaired) is its last element.
    `final_ranking` is that last statement repaired to cover the whole
    candidate set. `score` stays None until the evaluate stage attaches it.
    """

    query_id: str
    sample_index: int
    raw_text: str
    reasoning_text: str
    final_ranking: Ranking | None
    ranking_sequence: tuple[Ranking, ...]
    token_len: int
    token_len_source: TokenLenSource
    score: float | None = None
    valid: bool = True
    coverage: float | None = None
    error: str | None = None
    prompt_hash: str | None = None

    def __post_init__(self) -> None:
        if self.sample_index < 1:
            raise ValueError("sample_index is 1-based and must be >= 1")
        if self.token_len < 0:
            raise ValueError("token_len must be >= 0")
        if self.token_len_source not in ("endpoint-reported", "approximated"):
            raise ValueError(f"unknown token_len_source {self.token_len_source!r}")
        if self.valid and self.final_ranking is None:
            raise ValueError("a valid sample must carry a final_ranking")
        if self.score is not None and not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must lie in [0, 1], got {self.score}")


@dataclass(frozen=True)
class SamplingConfig:
    """Stochastic-decoding parameters for one sampling run."""

    k_samples: int
    temperature: float
    top_p: float
    max_tokens: int
    endpoint_url: str = ""
    model_name: str = ""
    seed: int | None = None
    max_in_flight: int = 4

    def __post_init__(self) -> None:
        if self.k_samples < 1:
            raise ValueError("k_samples must be >= 1")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError("top_p must lie in (0, 1]")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class QueryFilterStats:
    """Per-query accounting from the corpus filter.

    `mean_score` / `mean_len` are 0.0 when `n_valid` is 0 (no valid samples
    to average over).
    """

    query_id: str
    n_sampled: int
    n_valid: int
    mean_score: float
    mean_len: float
    efficient_indices: tuple[int, ...]
    retained: bool

    def __post_init__(self) -> None:
        if self.n_valid > self.n_sampled:
            raise ValueError("n_valid cannot exceed n_sampled")
        if self.retained != bool(self.efficient_indices):
            raise ValueError("retained must match efficient_indices being non-empty")


@dataclass(frozen=True)
class DistillationRecord:
    """One retained (query, candidates, target trajectory) corpus triple."""

    query: Query
    candidates: CandidateSet
    target_text: str
    target_score: float
    target_len: int
    prompt_hash: str | None = None

    def __post_init__(self) -> None:
        if self.target_score <= 0.0:
            raise ValueError("target_score must be > 0")
        if self.target_len < 0:
            raise ValueError("target_len must be >= 0")


@dataclass(frozen=True)
class RedundancyMetrics:
    """Redundancy diagnostics over one trace's ranking sequence."""

    seq_len: int
    t_star: int
    trr: float
    mor: float

    def __post_init__(self) -> None:
        if not 0 <= self.t_star <= self.seq_len:
            raise ValueError("t_star must lie in [0, seq_len]")
        if self.seq_len >= 1:
            expected = (self.seq_len - self.t_star) / self.seq_len
            if not math.isclose(self.trr, expected, rel_tol=0.0, abs_tol=1e-12):
                raise ValueError(f"trr {self.trr} inconsistent with (T - t*)/T = {expected}")
        elif self.trr != 0.0:
            raise ValueError("trr must be 0 for an empty sequence")
        if not 0.0 <= self.trr < 1.0 and self.seq_len >= 1:
            raise ValueError(f"trr {self.trr} out of range")
        if not 0.0 <= self.mor <= 1.0:
            raise ValueError(f"mor {self.mor} out of range")


@dataclass(frozen=True)
class LengthBucket:
    """One equal-width generation-length bucket with its mean quality."""

    lo: float
    hi: float
    mean_ndcg10: float | None
    count: int


@dataclass(frozen=True)
class EvalReport:
    """Per-query quality/length results plus their aggregate view."""

    per_query: Mapping[str, tuple[float, int]]
    mean_ndcg10: float
    mean_len: float
    length_buckets: tuple[LengthBucket, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.per_query:
            raise ValueError("EvalReport requires at least one query")
        ndcgs = [v[0] for v in self.per_query.values()]
        lens = [v[1] for v in self.per_query.values()]
        if not math.isclose(self.mean_ndcg10, sum(ndcgs) / len(ndcgs), abs_tol=1e-9):
            raise ValueError("mean_ndcg10 does not equal the mean of per_query values")
        if not math.isclose(self.mean_len, sum(lens) / len(lens), abs_tol=1e-9):
            raise ValueError("mean_len does not equal the mean of per_query values")
