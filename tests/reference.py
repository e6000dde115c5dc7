"""A reference reader of the sample store, and the redundancy, eval and
filter reports computed from what it reads, written to be read, not to be
fast: one `json.loads` per line, one Ranking per distinct ranking of a
query, the paper's nDCG, TRR, MOR and corpus filter as brute-force
oracles, and nothing of `rerank_distill.io`, `rerank_distill.metrics` or
`rerank_distill.distill`. `tests/test_io.py` checks that
`io.iter_samples` reads every store as `read_queries` reads it, and
`tests/test_cli.py` that `analyze-redundancy`, `evaluate`, `report` and
`build-corpus` write the reports `redundancy_report`, `eval_report` and
`filter_report` compute.
"""

from __future__ import annotations

import json
import math
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


def oracle_ndcg(grades_in_rank_order, k=10) -> float:
    """nDCG@k of grades listed in rank order: gain 2^g - 1, discount
    log2(rank + 1), the ideal DCG from the same grades sorted; 0 when no
    grade is positive."""
    def dcg(grades):
        return sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))
    ideal = dcg(sorted(grades_in_rank_order, reverse=True))
    return dcg(grades_in_rank_order) / ideal if ideal else 0.0


def read_grades(path: str) -> dict[tuple[str, str], int]:
    """The grade of each (query id, doc id) in the "qid 0 docid grade"
    qrels file at `path`; a repeated pair takes its last grade."""
    grades = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                qid, _, doc_id, grade = line.split()
                grades[(qid, doc_id)] = int(grade)
    return grades


def bucket_rows(per_query: dict[str, tuple[float, int]], bucket_count: int) -> list[dict]:
    """The length-bucket curve of `(nDCG@10, length)` pairs: `bucket_count`
    buckets of equal width from the shortest length to the longest, each
    with its pairs' count and mean nDCG@10 (None for an empty bucket). A
    length on a bucket's lower edge counts in that bucket, and the longest
    in the last; equal lengths make one bucket."""
    lens = [gen_len for _, gen_len in per_query.values()]
    lo, hi = min(lens), max(lens)
    if lo == hi:
        edges = [(lo, hi)]
    else:
        edges = [(lo + i * (hi - lo) / bucket_count, lo + (i + 1) * (hi - lo) / bucket_count)
                 for i in range(bucket_count)]
    members = [[] for _ in edges]
    for ndcg, gen_len in per_query.values():
        # In exact integers: bucket i starts at lo + i * (hi - lo) / bucket_count.
        index = max(i for i in range(len(edges)) if i * (hi - lo) <= (gen_len - lo) * bucket_count)
        members[index].append(ndcg)
    return [{"lo": float(a), "hi": float(b), "mean_ndcg10": sum(ndcgs) / len(ndcgs) if ndcgs else None,
             "count": len(ndcgs)} for (a, b), ndcgs in zip(edges, members)]


def eval_report(store: str, qrels: str, bucket_count: int) -> dict | None:
    """The report `evaluate --qrels <qrels>` writes for the store at
    `store`, with its length-bucket curve at `bucket_count` buckets, where
    `evaluate` draws 10: each query's lowest-index valid sample, its
    nDCG@10 and generation length, their means and their curve. None when
    no query has a valid sample, where the stage has nothing to report."""
    grades = read_grades(qrels)
    per_query = {}
    for _, samples in read_queries(store):
        valid = [s for s in samples if s.valid and s.final_ranking is not None]
        if valid:
            first = min(valid, key=lambda s: s.sample_index)
            ranked = [doc_id for group in first.final_ranking.groups for doc_id in group]
            ndcg = oracle_ndcg([grades.get((first.query_id, doc_id), 0) for doc_id in ranked])
            per_query[first.query_id] = (ndcg, first.token_len)
    if not per_query:
        return None
    return {
        "kind": "eval",
        "per_query": {qid: {"ndcg10": ndcg, "gen_len": gen_len} for qid, (ndcg, gen_len) in per_query.items()},
        "mean_ndcg10": sum(ndcg for ndcg, _ in per_query.values()) / len(per_query),
        "mean_len": sum(gen_len for _, gen_len in per_query.values()) / len(per_query),
        "length_buckets": bucket_rows(per_query, bucket_count),
    }


def oracle_filter(pairs):
    """Enumerate the efficient set and the argmin target by brute force.

    `pairs` holds one `(score, length)` per valid sample. Returns the mean
    score, the mean length, the positions in `pairs` of the samples scoring
    at or above the mean while strictly shorter than the mean, and the
    position of the target: the shortest of them, ties broken by the
    higher score, then the earlier position (None when none survives)."""
    mu_s = sum(s for s, _ in pairs) / len(pairs)
    mu_l = sum(l for _, l in pairs) / len(pairs)
    survivors = [i for i, (s, l) in enumerate(pairs) if s >= mu_s and l < mu_l]
    target = None
    for i in survivors:
        if target is None:
            target = i
            continue
        s_i, l_i = pairs[i]
        s_t, l_t = pairs[target]
        if (l_i, -s_i, i) < (l_t, -s_t, target):
            target = i
    return mu_s, mu_l, survivors, target


def filter_report(store: str, qrels: str) -> tuple[dict, list[tuple[str, str]]]:
    """The filter-stats report `build-corpus` writes for the store at
    `store` once `evaluate --qrels <qrels>` has scored it, and the
    `(query id, target text)` of each retained query, in query id order.

    Each valid sample is scored with `oracle_ndcg`; those scoring above 0
    go to `oracle_filter` in store order, which is sample index order in
    a store `sample` writes, so a tie on length and score goes to the
    lower sample index."""
    grades = read_grades(qrels)
    rows, targets = [], []
    for _, samples in read_queries(store):
        valid = []
        for s in samples:
            if s.valid and s.final_ranking is not None:
                ranked = [doc_id for group in s.final_ranking.groups for doc_id in group]
                score = oracle_ndcg([grades.get((s.query_id, doc_id), 0) for doc_id in ranked])
                if score > 0:
                    valid.append((s, score))
        if valid:
            mean_score, mean_len, survivors, target = oracle_filter([(score, s.token_len) for s, score in valid])
        else:
            mean_score, mean_len, survivors, target = 0.0, 0.0, [], None
        query_id = samples[0].query_id
        rows.append({"query_id": query_id, "n_sampled": len(samples), "n_valid": len(valid),
                     "mean_score": mean_score, "mean_len": mean_len,
                     "efficient_indices": [valid[i][0].sample_index for i in survivors],
                     "retained": target is not None})
        if target is not None:
            targets.append((query_id, valid[target][0].raw_text))
    rate = sum(row["retained"] for row in rows) / len(rows) if rows else 0.0
    return {"kind": "filter_stats", "retention_rate": rate, "rows": rows}, targets
