"""Domain types shared by every pipeline stage.

All types are immutable value objects: construction validates the type's
invariants and raises ValueError on violation, after which instances are
safe to share across threads. A TrajectorySample and its Rankings also
check the exact type of each field, so whatever holds one holds values
the sample store can write and read back.

Each type names its fields twice, in its annotations and in its
`__init__` parameters; the `__init__` hands its `locals()` to `_fill`,
which sets them and runs the type's checks (see `_Value`).
"""

from __future__ import annotations

import math
from types import UnionType
from typing import Literal, Mapping, Union, get_args, get_origin, get_type_hints

TokenLenSource = Literal["endpoint-reported", "approximated"]


class _Value:
    """Base of the package's immutable value types.

    A subclass annotates its fields, in order, and writes an `__init__`
    that takes them, in the same order and with any defaults, as its
    parameters and ends with `_fill(self, locals())`. The fill sets every
    local but `self` as a field, so the `__init__` may rebind a parameter
    first but bind no other name, and then runs the subclass's
    `__post_init__` checks, if it has any. The base compares, hashes and
    shows an instance by its fields, as a frozen dataclass does, and
    refuses to set or delete any attribute. It carries no annotation of
    its own, so `get_type_hints` of a subclass names the subclass's fields
    only. Hand-written methods are compiled once into the module's
    bytecode cache, where a dataclass compiles its generated ones at every
    import.
    """

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __post_init__(self) -> None:
        """Check the fields once they are set; a type with no invariants
        checks nothing."""


def _fill(value: _Value, fields: dict[str, object]) -> None:
    """Set the fields of `value`, a new instance, to `fields` in one
    `__dict__` update, then run its checks. An `__init__` passes `self` and
    its `locals()`, whose `self` is dropped."""
    fields.pop("self", None)
    value.__dict__.update(fields)
    value.__post_init__()


class Query(_Value):
    """A user query. `id` is the opaque topic identifier."""

    id: str
    text: str

    def __init__(self, id: str, text: str) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if not self.id:
            raise ValueError("Query.id must be non-empty")


class CandidateSet(_Value):
    """The ordered first-stage candidate list for one query.

    Candidate order is load-bearing: prompts address passages by 1-based
    position, so alias [i] is `doc_ids[i-1]`, whose text is `texts[i-1]`.
    """

    query_id: str
    doc_ids: tuple[str, ...]
    texts: tuple[str, ...]

    def __init__(self, query_id: str, doc_ids: tuple[str, ...], texts: tuple[str, ...]) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        ids = self.doc_ids
        if len(ids) < 1:
            raise ValueError(f"CandidateSet for {self.query_id!r} must contain at least one doc")
        if len(self.texts) != len(ids):
            raise ValueError(f"CandidateSet for {self.query_id!r} has {len(ids)} doc_ids but {len(self.texts)} texts")
        if not all(ids):
            raise ValueError(f"CandidateSet for {self.query_id!r} has an empty doc_id")
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"CandidateSet for {self.query_id!r} has duplicate doc_ids: {dupes}")

    def __len__(self) -> int:
        return len(self.doc_ids)


class Qrels(_Value):
    """Graded relevance judgments keyed by (query_id, doc_id).

    Unjudged pairs are implicitly grade 0.
    """

    judgments: Mapping[tuple[str, str], int]

    def __init__(self, judgments: Mapping[tuple[str, str], int]) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        for (qid, did), grade in self.judgments.items():
            if grade < 0:
                raise ValueError(f"negative grade {grade} for ({qid!r}, {did!r})")

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.judgments.get((query_id, doc_id), 0)

    def query_ids(self) -> set[str]:
        return {qid for qid, _ in self.judgments}


_BAD_GROUP = "Ranking groups must be non-empty tuples of doc-id strings"


class Ranking(_Value):
    """An ordered, non-empty list of tie groups over doc_ids.

    `(("a",), ("b", "c"))` reads "a strictly above b and c, which are tied".
    Equality is tie-aware: identical group structure, not just identical
    flattened order.

    The hash, `hash((groups,))` as the base computes it, is computed
    once, when the Ranking is built: redundancy counting and the per-query
    caches look each ranking up several times. A pickled or copied Ranking
    is built anew, so a hash never crosses into a process with another
    PYTHONHASHSEED.
    """

    groups: tuple[tuple[str, ...], ...]

    def __init__(self, groups: tuple[tuple[str, ...], ...]) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if type(self.groups) is not tuple:
            raise ValueError(f"Ranking groups must be a tuple of tie groups, got {type(self.groups).__name__}")
        if not self.groups:
            raise ValueError("a Ranking must hold at least one tie group")
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
        self.__dict__["_hash"] = hash((self.groups,))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple[type[Ranking], tuple]:
        return Ranking, (self.groups,)

    def flatten(self) -> tuple[str, ...]:
        """Stable flattening: group order, then within-group order."""
        return tuple(doc_id for group in self.groups for doc_id in group)


class TrajectorySample(_Value):
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
    score: float | None
    valid: bool
    coverage: float | None
    error: str | None
    prompt_hash: str | None

    def __init__(self, query_id: str, sample_index: int, raw_text: str, reasoning_text: str,
                 final_ranking: Ranking | None, ranking_sequence: tuple[Ranking, ...], token_len: int,
                 token_len_source: TokenLenSource, score: float | None = None, valid: bool = True,
                 coverage: float | None = None, error: str | None = None, prompt_hash: str | None = None) -> None:
        _fill(self, locals())

    @classmethod
    def from_fields(cls, fields: dict[str, object]) -> TrajectorySample:
        """The sample whose fields are `fields`, which names every field
        and no other (else a ValueError names each missing and unknown
        one), after the same checks as the keyword constructor.

        It takes the same fill as `__init__`, without binding the fields
        as arguments first. A copy with one field changed is
        `from_fields({**vars(sample), "score": score})`.
        """
        if fields.keys() != _SAMPLE_FIELD_NAMES:
            raise ValueError("; ".join(
                [f"missing field {name!r}" for name in SAMPLE_FIELD_TYPES if name not in fields]
                + [f"unknown field {name!r}" for name in fields if name not in SAMPLE_FIELD_TYPES]))
        sample = object.__new__(cls)
        _fill(sample, fields)
        return sample

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
_SAMPLE_FIELD_NAMES = frozenset(SAMPLE_FIELD_TYPES)
_RANKING_ONLY = frozenset((Ranking,))


def field_type_error(name: str, value: object) -> ValueError:
    """The ValueError for TrajectorySample field `name` holding `value`,
    whose type the field may not hold."""
    return ValueError(type_message(f"field {name!r}", value, SAMPLE_FIELD_TYPES[name]))


class SamplingConfig(_Value):
    """Stochastic-decoding parameters for one sampling run."""

    k_samples: int
    temperature: float
    top_p: float
    max_tokens: int
    model_name: str
    seed: int | None
    max_in_flight: int

    def __init__(self, k_samples: int, temperature: float, top_p: float, max_tokens: int, model_name: str = "",
                 seed: int | None = None, max_in_flight: int = 4) -> None:
        _fill(self, locals())

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


class EvalReport(_Value):
    """Each query's `(nDCG@10, generation length)` and their means. Member
    types are checked as `text_types` reads the annotations; an nDCG@10
    lies in [0, 1], a length is not negative, and each mean must match the
    per-query values to a report file's 6-decimal resolution. A mean
    stored as an int is held as the float it equals."""

    per_query: Mapping[str, tuple[float, int]]
    mean_ndcg10: float
    mean_len: float

    def __init__(self, per_query: Mapping[str, tuple[float, int]], mean_ndcg10: float, mean_len: float) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if not isinstance(self.per_query, Mapping) or not self.per_query:
            raise ValueError("member 'per_query' must map at least one query to its (ndcg10, gen_len) pair")
        for qid, pair in self.per_query.items():
            if type(pair) is not tuple or len(pair) != 2:
                raise ValueError(f"member per_query[{qid!r}] must be an (ndcg10, gen_len) pair, got {pair!r}")
            for name, value, kinds in zip(("ndcg10", "gen_len"), pair, _PAIR_TYPES):
                if type(value) not in kinds:
                    raise ValueError(type_message(f"member per_query[{qid!r}][{name!r}]", value, kinds))
            ndcg, gen_len = pair
            if not 0.0 <= ndcg <= 1.0:
                raise ValueError(f"member per_query[{qid!r}]['ndcg10'] must lie in [0, 1], got {ndcg}")
            if gen_len < 0:
                raise ValueError(f"member per_query[{qid!r}]['gen_len'] must be >= 0, got {gen_len}")
        for index, name in enumerate(("mean_ndcg10", "mean_len")):
            value, kinds = getattr(self, name), text_types(_REPORT_HINTS[name])
            if type(value) not in kinds:
                raise ValueError(type_message(f"member {name!r}", value, kinds))
            mean = sum(pair[index] for pair in self.per_query.values()) / len(self.per_query)
            # Each value and the mean, rounded to 6 decimals, can sit one unit apart plus float error.
            if not math.isclose(value, mean, abs_tol=1e-6 + 1e-9):
                raise ValueError(f"member {name!r} is {value}, but the per_query values average {mean}")
            # A report renders an int without decimals: 10 and 10.0 are one mean.
            self.__dict__[name] = float(value)


_REPORT_HINTS = get_type_hints(EvalReport)
_PAIR_TYPES = tuple(map(text_types, get_args(get_args(_REPORT_HINTS["per_query"])[1])))
