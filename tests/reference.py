"""A reference reader of the sample store, and the redundancy report
computed from what it reads, written to be read, not to be fast: one
`json.loads` per line, one Ranking per distinct ranking of a query, the
paper's TRR and MOR as brute-force oracles, and nothing of
`rerank_distill.io` or `rerank_distill.metrics`. `tests/test_io.py` checks
that `io.iter_samples` reads every store as `read_queries` reads it, and
`tests/test_cli.py` that `analyze-redundancy` writes the report
`redundancy_report` computes.
"""

from __future__ import annotations

import json
from collections import Counter

from rerank_distill.errors import ParseError
from rerank_distill.models import SAMPLE_FIELD_TYPES, Ranking, TrajectorySample

FIELDS = tuple(SAMPLE_FIELD_TYPES)


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


def oracle_t_star(seq) -> int:
    """t*, the 1-based position of the last ranking that no earlier one
    equals; 0 for an empty sequence."""
    return max((i + 1 for i in range(len(seq)) if seq[i] not in seq[:i]), default=0)


def oracle_trr(seq) -> float:
    """Tail repeat ratio, (T - t*) / T; 0 for a sequence of one ranking or none."""
    if len(seq) <= 1:
        return 0.0
    return (len(seq) - oracle_t_star(seq)) / len(seq)


def oracle_mor(seq) -> float:
    """Multi-occurrence ratio: the share of distinct rankings stated more
    than once; 0 for an empty sequence."""
    if not seq:
        return 0.0
    counts = Counter(seq)
    return sum(1 for c in counts.values() if c >= 2) / len(counts)


def redundancy_report(path: str, model_tag: str) -> dict | None:
    """The report `analyze-redundancy --model-tag <model_tag>` writes for
    the store at `path`: a row per sample, in store order, and the model's
    TRR and MOR averaged over the samples that state a ranking. None when
    no sample states one, where the stage has nothing to average."""
    per_sample = [
        {"query_id": sample.query_id, "sample_index": sample.sample_index,
         "seq_len": len(seq), "t_star": oracle_t_star(seq), "trr": oracle_trr(seq), "mor": oracle_mor(seq)}
        for _, samples in read_queries(path)
        for sample in samples
        for seq in [sample.ranking_sequence]
    ]
    traced = [row for row in per_sample if row["seq_len"]]
    if not traced:
        return None
    rows = [{
        "model_tag": model_tag,
        "avg_trr": sum(row["trr"] for row in traced) / len(traced),
        "avg_mor": sum(row["mor"] for row in traced) / len(traced),
        "n_traces": len(traced),
    }]
    return {"kind": "redundancy", "rows": rows, "per_sample": per_sample,
            "conventions": {"ranking_equality": "tie-aware", "empty_sequence_value": 0.0}}
