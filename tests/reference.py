"""A reference reader of the sample store, written to be read, not to be
fast: one `json.loads` per line, one Ranking per distinct ranking of a
query, and nothing of `rerank_distill.io`. `tests/test_io.py` checks that
`io.iter_samples` reads every store as this reads it.
"""

from __future__ import annotations

import dataclasses
import json

from rerank_distill.errors import ParseError
from rerank_distill.models import Ranking, TrajectorySample

FIELDS = tuple(field.name for field in dataclasses.fields(TrajectorySample))


def read_queries(path: str) -> list[tuple[list[str], list[TrajectorySample]]]:
    """Each query's `(lines, samples)` in the store at `path`, in store
    order; the samples of a query that state the same ranking share one
    Ranking object.

    A non-blank line that does not hold a sample is a ParseError naming
    it. So is a query whose id is not above the one before it, naming the
    query's first line, once the line after the query is read: a store is
    read line by line, and a query ends where the next one starts.
    """
    queries: list[tuple[str, int, list[str], list[TrajectorySample]]] = []
    rankings: dict[tuple, Ranking] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                new_query = not queries or record["query_id"] != queries[-1][0]
                if new_query:
                    rankings = {}
                sample = _sample(record, rankings)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"not a sample: {exc!r}", path, line_no) from None
            if new_query:
                _check_order(path, queries)
                queries.append((sample.query_id, line_no, [], []))
            queries[-1][2].append(line)
            queries[-1][3].append(sample)
    _check_order(path, queries)
    return [(lines, samples) for _, _, lines, samples in queries]


def _check_order(path: str, queries: list) -> None:
    if len(queries) > 1 and queries[-1][0] <= queries[-2][0]:
        raise ParseError("query ids not strictly ascending", path, queries[-1][1])


def _sample(record: dict, rankings: dict[tuple, Ranking]) -> TrajectorySample:
    if record["schema_version"] != 1:
        raise ValueError("schema version")
    values = {name: record[name] for name in FIELDS}
    if type(values["ranking_sequence"]) is not list:
        raise ValueError("ranking_sequence is not a list")
    if values["final_ranking"] is not None:
        values["final_ranking"] = _ranking(values["final_ranking"], rankings)
    values["ranking_sequence"] = tuple(_ranking(groups, rankings) for groups in values["ranking_sequence"])
    return TrajectorySample(**values)


def _ranking(groups: object, rankings: dict[tuple, Ranking]) -> Ranking:
    """The Ranking a stored list of tie groups spells, one per value."""
    if type(groups) is not list or not groups or any(type(group) is not list for group in groups):
        raise ValueError("a ranking is a non-empty list of lists")
    key = tuple(map(tuple, groups))
    if key not in rankings:
        rankings[key] = Ranking(key)
    return rankings[key]
