"""Readers and writers for TREC interchange files, the sample store, the
SFT corpus, and analysis reports.

Writers are deterministic: the same in-memory value always produces a
byte-identical file. Readers reject malformed input with line-accurate
diagnostics instead of guessing.
"""

from __future__ import annotations

import csv
import json
import logging
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import fields

from .errors import ConfigError, ParseError
from .models import (
    CandidateDoc,
    CandidateSet,
    DistillationRecord,
    EvalReport,
    Qrels,
    Query,
    QueryFilterStats,
    Ranking,
    TrajectorySample,
)
from .sampling import PromptTemplate, build_prompt, hash_messages

logger = logging.getLogger(__name__)

SAMPLES_SCHEMA_VERSION = 1
SFT_FORMAT = "sft-chat-messages"
SFT_VERSION = 1
# A sample-store record is these fields plus schema_version.
SAMPLE_FIELDS = tuple(f.name for f in fields(TrajectorySample))
# A record is a fresh tree built from a frozen sample, so it has no cycles
# to look for.
_SAMPLE_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, check_circular=False)


# --- TREC qrels ---------------------------------------------------------------

def read_qrels(path: str) -> Qrels:
    """Parse "qid 0 docid grade" lines. Repeated (qid, docid) pairs are
    tolerated with a warning; the last grade wins."""
    judgments: dict[tuple[str, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ParseError(f"expected 4 fields, got {len(parts)}", path, line_no)
            qid, _, doc_id, grade_text = parts
            try:
                grade = int(grade_text)
            except ValueError:
                raise ParseError(f"non-integer grade {grade_text!r}", path, line_no) from None
            if grade < 0:
                raise ParseError(f"negative grade {grade}", path, line_no)
            if (qid, doc_id) in judgments:
                logger.warning("%s:%d: repeated judgment for (%s, %s); last wins", path, line_no, qid, doc_id)
            judgments[(qid, doc_id)] = grade
    return Qrels(judgments=judgments)


def write_qrels(qrels: Qrels, path: str) -> None:
    """Write judgments sorted by (qid, docid)."""
    with open(path, "w", encoding="utf-8") as fh:
        for (qid, doc_id) in sorted(qrels.judgments):
            fh.write(f"{qid} 0 {doc_id} {qrels.judgments[(qid, doc_id)]}\n")


# --- TREC run files -----------------------------------------------------------

def read_run(path: str, depth: int) -> dict[str, list[str]]:
    """Parse "qid Q0 docid rank score tag" lines into per-query doc lists,
    sorted by rank and truncated to `depth`."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    entries: dict[str, list[tuple[int, float, str]]] = {}
    seen: set[tuple[str, str]] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ParseError(f"expected 6 fields, got {len(parts)}", path, line_no)
            qid, _, doc_id, rank_text, score_text, _ = parts
            if (qid, doc_id) in seen:
                raise ParseError(f"duplicate doc {doc_id!r} for query {qid!r}", path, line_no)
            seen.add((qid, doc_id))
            try:
                rank = int(rank_text)
                score = float(score_text)
            except ValueError:
                raise ParseError(f"non-numeric rank/score {rank_text!r}/{score_text!r}", path, line_no) from None
            if rank < 1:
                raise ParseError(f"rank is 1-based and must be >= 1, got {rank}", path, line_no)
            entries.setdefault(qid, []).append((rank, score, doc_id))
    result: dict[str, list[str]] = {}
    for qid in sorted(entries):
        ordered = sorted(entries[qid], key=lambda e: e[0])
        ranks = [rank for rank, _, _ in ordered]
        if ranks != list(range(1, len(ranks) + 1)):
            logger.warning("%s: query %s ranks are not contiguous 1..%d", path, qid, len(ranks))
        scores = [score for _, score, _ in ordered]
        if any(a <= b for a, b in zip(scores, scores[1:])):
            logger.warning("%s: query %s scores are not strictly descending", path, qid)
        result[qid] = [doc_id for _, _, doc_id in ordered[:depth]]
    return result


# --- topics and passage texts -------------------------------------------------

def read_topics(path: str) -> list[Query]:
    """Parse tab-separated "qid<TAB>query text" lines; ids must be unique."""
    queries: list[Query] = []
    seen: set[str] = set()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("expected qid<TAB>text", path, line_no)
            qid, text = line.split("\t", 1)
            if qid in seen:
                raise ParseError(f"duplicate query id {qid!r}", path, line_no)
            seen.add(qid)
            queries.append(Query(id=qid, text=text))
    return queries


def read_corpus_texts(path: str) -> dict[str, str]:
    """Parse tab-separated "docid<TAB>passage text" lines; repeated ids are
    tolerated with a warning, last wins."""
    texts: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("expected docid<TAB>text", path, line_no)
            doc_id, text = line.split("\t", 1)
            if doc_id in texts:
                logger.warning("%s:%d: repeated passage %s; last wins", path, line_no, doc_id)
            texts[doc_id] = text
    return texts


def candidates_from_run(run: Mapping[str, Sequence[str]], texts: Mapping[str, str]) -> dict[str, CandidateSet]:
    """Join a run's doc lists with passage texts into CandidateSets."""
    out: dict[str, CandidateSet] = {}
    for qid in sorted(run):
        docs = []
        for doc_id in run[qid]:
            if doc_id not in texts:
                raise ConfigError(f"passage text for doc {doc_id!r} (query {qid!r}) not found in corpus file")
            docs.append(CandidateDoc(doc_id=doc_id, text=texts[doc_id]))
        out[qid] = CandidateSet(query_id=qid, docs=tuple(docs))
    return out


# --- sample store ---------------------------------------------------------------

def write_samples(samples: Sequence[TrajectorySample], path: str) -> None:
    """One JSON object per line; an empty sample list yields an empty file.
    A ranking is stored as its list of tie groups."""
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            record = {name: getattr(sample, name) for name in SAMPLE_FIELDS}
            final = sample.final_ranking
            record["final_ranking"] = None if final is None else final.groups
            record["ranking_sequence"] = [r.groups for r in sample.ranking_sequence]
            record["schema_version"] = SAMPLES_SCHEMA_VERSION
            fh.write(_SAMPLE_ENCODER.encode(record) + "\n")


_LIST_ONLY = frozenset((list,))
_BAD_RANKING = "a ranking must be a list of tie groups, each a list of doc-id strings"


def _decode_ranking(groups: object, decoded: dict[tuple, Ranking]) -> Ranking:
    """The Ranking a stored list of tie groups spells.

    `decoded` maps the tuple form of each list already read to its Ranking,
    so each distinct ranking is checked and built once. A string group has
    the tuple form of the list of its characters, and a JSON object that of
    the list of its keys, so the list shape is checked on every call,
    before the lookup.
    """
    if type(groups) is not list or not _LIST_ONLY.issuperset(map(type, groups)):
        raise ValueError(_BAD_RANKING)
    key = tuple(map(tuple, groups))
    ranking = decoded.get(key)
    if ranking is None:
        try:
            "".join(map("".join, key))  # a TypeError unless every doc id is a string
        except TypeError:
            raise ValueError(_BAD_RANKING) from None
        ranking = decoded[key] = Ranking(groups=key)
    return ranking


def read_samples(path: str) -> list[TrajectorySample]:
    """Every sample in a store written by `write_samples`. Samples that
    state the same ranking share one Ranking object."""
    samples: list[TrajectorySample] = []
    decoded: dict[tuple, Ranking] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"corrupted sample record: {exc.msg}", path, line_no) from None
            if not isinstance(record, dict):
                raise ParseError("invalid sample record: not a JSON object", path, line_no)
            version = record.get("schema_version")
            if version != SAMPLES_SCHEMA_VERSION:
                raise ParseError(
                    f"schema version mismatch: file has {version!r}, reader supports {SAMPLES_SCHEMA_VERSION}",
                    path, line_no,
                )
            try:
                values = {name: record[name] for name in SAMPLE_FIELDS}
                if values["final_ranking"] is not None:
                    values["final_ranking"] = _decode_ranking(values["final_ranking"], decoded)
                values["ranking_sequence"] = tuple([_decode_ranking(g, decoded) for g in values["ranking_sequence"]])
                samples.append(TrajectorySample(**values))
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(f"invalid sample record: {exc}", path, line_no) from None
    return samples


# --- SFT corpus -----------------------------------------------------------------

def write_sft_corpus(corpus: Sequence[DistillationRecord], template: PromptTemplate, path: str) -> None:
    """One chat-schema JSON object per record: the system+user prompt the
    target was sampled under, plus the target text as the assistant turn.

    The first line is a version header; an empty corpus is that line alone.
    Records whose stored prompt hash does not match the prompt rebuilt from
    `template` are rejected: that corpus would pair targets with prompts the
    teacher never saw.
    """
    header = {"format": SFT_FORMAT, "version": SFT_VERSION, "template": template.name}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n")
        for record in sorted(corpus, key=lambda r: r.query.id):
            prompt = build_prompt(record.query, record.candidates, template)
            if record.prompt_hash is not None and hash_messages(prompt) != record.prompt_hash:
                raise ConfigError(
                    f"template {template.name!r} does not reproduce the prompt that sampled "
                    f"query {record.query.id!r} (hash mismatch)"
                )
            line = {"messages": prompt + [{"role": "assistant", "content": record.target_text}]}
            fh.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")


# --- reports --------------------------------------------------------------------

def _canonical_json(value: object, indent: int = 0) -> str:
    """Canonical rendering: sorted keys, floats fixed at 6 decimal places."""
    pad = "  " * indent
    if isinstance(value, Mapping):
        if not value:
            return "{}"
        keys = sorted(value)
        body = ",\n".join(
            f"{pad}  {json.dumps(str(k), ensure_ascii=False)}: {_canonical_json(value[k], indent + 1)}"
            for k in keys
        )
        return "{\n" + body + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        body = ",\n".join(f"{pad}  {_canonical_json(v, indent + 1)}" for v in value)
        return "[\n" + body + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def eval_report_payload(report: EvalReport) -> dict:
    return {
        "kind": "eval",
        "per_query": {
            qid: {"ndcg10": ndcg, "gen_len": gen_len}
            for qid, (ndcg, gen_len) in report.per_query.items()
        },
        "mean_ndcg10": report.mean_ndcg10,
        "mean_len": report.mean_len,
        "length_buckets": [
            {"lo": b.lo, "hi": b.hi, "mean_ndcg10": b.mean_ndcg10, "count": b.count}
            for b in report.length_buckets
        ],
    }


def redundancy_report(
    rows: Sequence[Mapping[str, object]],
    per_sample: Sequence[Mapping[str, object]] = (),
) -> dict:
    """Table-shaped redundancy summary: one (model_tag, avg_trr, avg_mor)
    row per model, plus optional per-sample detail.

    The conventions block records how rankings were compared so results
    computed under a different equality rule are not silently mixed.
    """
    return {
        "kind": "redundancy",
        "rows": list(rows),
        "per_sample": list(per_sample),
        "conventions": {"ranking_equality": "tie-aware", "empty_sequence_value": 0.0},
    }


def filter_stats_report(stats: Sequence[QueryFilterStats], retention_rate: float) -> dict:
    return {
        "kind": "filter_stats",
        "retention_rate": retention_rate,
        "rows": [
            {
                "query_id": s.query_id,
                "n_sampled": s.n_sampled,
                "n_valid": s.n_valid,
                "mean_score": s.mean_score,
                "mean_len": s.mean_len,
                "efficient_indices": list(s.efficient_indices),
                "retained": s.retained,
            }
            for s in stats
        ],
    }


_CSV_COLUMNS = {
    "eval": ("query_id", "ndcg10", "gen_len"),
    "redundancy": ("model_tag", "avg_trr", "avg_mor"),
    "filter_stats": ("query_id", "n_sampled", "n_valid", "mean_score", "mean_len",
                     "efficient_indices", "retained"),
    "comparison": ("tag", "mean_ndcg10", "mean_len"),
}


def _csv_cell(value: object) -> object:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6f}"
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return value


def _csv_rows(payload: Mapping) -> Iterable[Sequence[object]]:
    kind = payload["kind"]
    if kind == "eval":
        for qid in sorted(payload["per_query"]):
            entry = payload["per_query"][qid]
            yield (qid, entry["ndcg10"], entry["gen_len"])
    elif kind in ("redundancy", "filter_stats", "comparison"):
        for row in payload["rows"]:
            yield tuple(row[col] for col in _CSV_COLUMNS[kind])
    else:
        raise ValueError(f"no CSV layout for report kind {kind!r}")


def write_report(report: EvalReport | Mapping, path: str, format: str = "json") -> None:
    """Serialize a report. JSON output is canonical (sorted keys, floats at
    6 decimal places); CSV uses the documented per-kind column layout."""
    payload = eval_report_payload(report) if isinstance(report, EvalReport) else dict(report)
    kind = payload.get("kind")
    if kind not in _CSV_COLUMNS:
        raise ValueError(f"unknown report kind {kind!r}")
    if kind == "eval" and not payload.get("per_query"):
        raise ValueError("eval report has an empty per_query map")
    if format == "json":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_canonical_json(payload) + "\n")
    elif format == "csv":
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS[kind])
            for row in _csv_rows(payload):
                writer.writerow([_csv_cell(v) for v in row])
    else:
        raise ValueError(f"unknown report format {format!r} (expected json or csv)")


def read_report(path: str) -> dict:
    """Load a JSON report written by write_report."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError("not a report file (missing kind)", path)
    return payload
