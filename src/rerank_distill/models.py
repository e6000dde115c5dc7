"""Domain types shared by every pipeline stage.

All types are immutable value objects: construction validates the type's
invariants and raises ValueError on violation, after which instances are
safe to share across threads. A TrajectorySample and its Rankings also
check the exact type of each field, so whatever holds one holds values
the sample store can write and read back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import UnionType
from typing import Literal, Mapping, Union, get_args, get_origin, get_type_hints

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


_BAD_GROUP = "Ranking groups must be non-empty tuples of doc-id strings"


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
            if type(group) is not tuple or not group:
                raise ValueError(_BAD_GROUP)
            for doc_id in group:
                if type(doc_id) is not str:
                    raise ValueError(_BAD_GROUP)
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
        for name, value in self.__dict__.items():
            if type(value) not in SAMPLE_FIELD_TYPES[name]:
                raise field_type_error(name, value)
        if not _RANKING_ONLY.issuperset(map(type, self.ranking_sequence)):
            kind = next(type(r) for r in self.ranking_sequence if type(r) is not Ranking)
            raise ValueError(f"field 'ranking_sequence' must hold Rankings, got {kind.__name__}")
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


def _exact_types(hint: object) -> tuple[type, ...]:
    """The types a value of the annotation `hint` may have, told apart
    exactly: a bool is not an int, nor an int a float."""
    origin = get_origin(hint)
    if origin is Literal:
        return tuple(dict.fromkeys(map(type, get_args(hint))))
    return get_args(hint) if origin in (Union, UnionType) else (origin or hint,)


def text_types(hint: object) -> tuple[type, ...]:
    """The types a value of the annotation `hint` may have when it is read
    from YAML or JSON text, which may write a whole float as an int: those
    of `_exact_types`, and int where float is one of them."""
    kinds = _exact_types(hint)
    return (int, *kinds) if float in kinds else kinds


def type_message(name: str, value: object, kinds: tuple[type, ...]) -> str:
    """The message for `name` holding `value`, whose type is none of `kinds`."""
    expected = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
    return f"{name} must be {expected}, got {type(value).__name__}"


# What each TrajectorySample field may hold, by its annotation. The sample
# store writes and reads these fields, so no other module lists them.
SAMPLE_FIELD_TYPES = {name: _exact_types(hint) for name, hint in get_type_hints(TrajectorySample).items()}
_RANKING_ONLY = frozenset((Ranking,))


def field_type_error(name: str, value: object) -> ValueError:
    """The ValueError for TrajectorySample field `name` holding `value`,
    whose type the field may not hold."""
    return ValueError(type_message(f"field {name!r}", value, SAMPLE_FIELD_TYPES[name]))


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
    """Per-query quality/length results plus their aggregate view. Member
    types are checked as `text_types` reads the annotations; each mean must
    match the per-query values to a report file's 6-decimal resolution."""

    per_query: Mapping[str, tuple[float, int]]
    mean_ndcg10: float
    mean_len: float
    length_buckets: tuple[LengthBucket, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not isinstance(self.per_query, Mapping) or not self.per_query:
            raise ValueError("member 'per_query' must map at least one query to its (ndcg10, gen_len) pair")
        for qid, pair in self.per_query.items():
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError(f"member per_query[{qid!r}] must be an (ndcg10, gen_len) pair, got {pair!r}")
            for name, value, kinds in zip(("ndcg10", "gen_len"), pair, _PAIR_TYPES):
                if type(value) not in kinds:
                    raise ValueError(type_message(f"member per_query[{qid!r}][{name!r}]", value, kinds))
        for index, name in enumerate(("mean_ndcg10", "mean_len")):
            value, kinds = getattr(self, name), text_types(_REPORT_HINTS[name])
            if type(value) not in kinds:
                raise ValueError(type_message(f"member {name!r}", value, kinds))
            mean = sum(pair[index] for pair in self.per_query.values()) / len(self.per_query)
            if not math.isclose(value, mean, abs_tol=1e-6):
                raise ValueError(f"member {name!r} is {value}, but the per_query values average {mean}")


_REPORT_HINTS = get_type_hints(EvalReport)
_PAIR_TYPES = tuple(map(text_types, get_args(get_args(_REPORT_HINTS["per_query"])[1])))
