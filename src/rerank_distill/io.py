"""Readers and writers for TREC interchange files, the sample store, the
SFT corpus, and analysis reports.

Writers are deterministic: the same in-memory value always produces a
byte-identical file, and each writes through `atomic_write`. Readers reject
malformed input with line-accurate diagnostics instead of guessing.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import logging
import math
import operator
import os
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from dataclasses import replace
from json.encoder import encode_basestring
from typing import TextIO

from .errors import ConfigError, ParseError
from .models import (
    SAMPLE_FIELD_TYPES,
    CandidateDoc,
    CandidateSet,
    DistillationRecord,
    EvalReport,
    LengthBucket,
    Qrels,
    Query,
    QueryFilterStats,
    Ranking,
    TrajectorySample,
    field_type_error,
)
from .sampling import PromptTemplate, build_prompt, hash_messages

logger = logging.getLogger(__name__)

SAMPLES_SCHEMA_VERSION = 1
SFT_FORMAT = "sft-chat-messages"
SFT_VERSION = 1


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """A text file that takes the place of `path` only when the block
    completes. A temp file beside `path` receives the writes; an exception
    removes it and leaves `path` as it was, and so does a crash, but for
    the temp file. The block may read `path` while it writes."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


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
    with atomic_write(path) as fh:
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


def read_corpus_texts(path: str, doc_ids: Container[str]) -> dict[str, str]:
    """Parse tab-separated "docid<TAB>passage text" lines, keeping only the
    passages `doc_ids` names: a run needs queries x depth passages of a
    corpus that may hold millions. Repeats of a kept id are tolerated with a
    warning, last wins. Every line is still checked for its tab."""
    texts: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("expected docid<TAB>text", path, line_no)
            doc_id, text = line.split("\t", 1)
            if doc_id not in doc_ids:
                continue
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
#
# A store holds each query's samples on consecutive lines, queries in
# strictly ascending id order: the order `sample` writes them in. Readers
# rely on it to hold one query's samples at a time.

_BAD_RANKING = "a ranking must be a non-empty list of tie groups, each a list of doc-id strings"
_LIST_ONLY = frozenset((list,))
# The scalar members `write_samples` writes before "schema_version", in
# key order, and the members from "score" on, which sort last.
_HEAD_FIELDS = ("coverage", "error", "prompt_hash", "query_id", "raw_text", "reasoning_text", "sample_index")
_TAIL_FIELDS = ("score", "token_len", "token_len_source", "valid")
_head_values = operator.attrgetter(*_HEAD_FIELDS)
_tail_values = operator.attrgetter(*_TAIL_FIELDS[1:])
# The writer lists the record's fields by hand: a TrajectorySample field it
# leaves out fails at import, rather than every store it writes at read.
if set(_HEAD_FIELDS + _TAIL_FIELDS) | {"final_ranking", "ranking_sequence"} != set(SAMPLE_FIELD_TYPES):
    raise TypeError("write_samples must write every TrajectorySample field and no other")


def _float_json(value: float | None) -> str:
    """`value` as `json.dumps` spells it."""
    if value is None:
        return "null"
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _str_json(value: str | None) -> str:
    return "null" if value is None else encode_basestring(value)


def _ranking_json(ranking: Ranking) -> str:
    """The JSON text of a Ranking, its list of tie groups."""
    return "[" + ", ".join(["[" + ", ".join(map(encode_basestring, group)) + "]" for group in ranking.groups]) + "]"


def _record_tail(sample: TrajectorySample, score: float | None) -> str:
    """What `write_samples` writes last in the record of `sample` with
    `score`: its members from "score" on, and the closing brace."""
    if type(score) not in SAMPLE_FIELD_TYPES["score"]:
        raise field_type_error("score", score)
    token_len, source, valid = _tail_values(sample)
    return (f', "score": {_float_json(score)}, "token_len": {token_len}, '
            f'"token_len_source": {encode_basestring(source)}, "valid": {"true" if valid else "false"}}}')


def write_samples(samples: Sequence[TrajectorySample], out: TextIO) -> None:
    """Append one JSON line per sample to the open store `out`: the
    sample's fields plus schema_version, keys sorted, as
    `json.dumps(record, sort_keys=True, ensure_ascii=False)` writes them. A
    ranking is stored as its list of tie groups.

    Each distinct Ranking object of the call is rendered once. A
    TrajectorySample checked its field types when it was built, so every
    record written holds types the reader accepts.
    """
    # Keyed by id: `samples` holds every ranking for the whole call, so no
    # id is reused.
    rendered: dict[int, str] = {}
    for sample in samples:
        coverage, error, prompt_hash, query_id, raw_text, reasoning_text, sample_index = _head_values(sample)
        final, sequence = sample.final_ranking, sample.ranking_sequence
        if final is not None and id(final) not in rendered:
            rendered[id(final)] = _ranking_json(final)
        for ranking in sequence:
            if id(ranking) not in rendered:
                rendered[id(ranking)] = _ranking_json(ranking)
        out.write(
            f'{{"coverage": {_float_json(coverage)}, "error": {_str_json(error)}, '
            f'"final_ranking": {"null" if final is None else rendered[id(final)]}, '
            f'"prompt_hash": {_str_json(prompt_hash)}, "query_id": {encode_basestring(query_id)}, '
            f'"ranking_sequence": [{", ".join([rendered[id(r)] for r in sequence])}], '
            f'"raw_text": {encode_basestring(raw_text)}, "reasoning_text": {encode_basestring(reasoning_text)}, '
            f'"sample_index": {sample_index}, '
            f'"schema_version": {SAMPLES_SCHEMA_VERSION}{_record_tail(sample, sample.score)}\n'
        )


def write_scored_samples(lines: Sequence[str], samples: Sequence[TrajectorySample],
                         scores: Sequence[float | None], out: TextIO) -> None:
    """Append to the open store `out` the records `write_samples` would
    write for `samples` with their `scores`, as `metrics.attach_scores`
    returns them, where `samples` were decoded from the store `lines`.

    A line that ends as `write_samples` ends its sample's record is copied
    up to its members from "score" on, and only they are written anew: the
    long trace text is not encoded again. A line that ends otherwise (keys
    in another order, another key after "valid", trailing spaces) is written
    with `write_samples`. A hand-written line that ends in that layout keeps
    its earlier bytes, and still decodes to the scored sample.
    """
    for line, sample, score in zip(lines, samples, scores, strict=True):
        end = len(line) - line.endswith("\n")
        tail = _record_tail(sample, sample.score)
        if line.endswith(tail, 0, end):
            out.write(line[:end - len(tail)] + _record_tail(sample, score) + "\n")
        else:
            write_samples((replace(sample, score=score),), out)


def _decode_ranking(groups: object, decoded: dict[tuple, Ranking], field: str) -> Ranking:
    """The Ranking a stored list of tie groups spells; `field` names the
    record field it came from in an error.

    `decoded` maps the tuple form of each list already read to its Ranking,
    so each distinct ranking is checked and built once. A string group has
    the tuple form of the list of its characters, and a JSON object that of
    the list of its keys, so the list shape is checked on every call,
    before the lookup; the doc ids are checked by Ranking.
    """
    if type(groups) is not list or not groups or not _LIST_ONLY.issuperset(map(type, groups)):
        raise ValueError(f"field {field!r}: {_BAD_RANKING}")
    key = tuple(map(tuple, groups))
    try:
        ranking = decoded.get(key)
        if ranking is None:
            ranking = decoded[key] = Ranking(groups=key)
    except TypeError:  # a doc id that is a list or an object, which cannot be hashed
        raise ValueError(f"field {field!r}: {_BAD_RANKING}") from None
    except ValueError as exc:
        raise ValueError(f"field {field!r}: {exc}") from None
    return ranking


def _store_records(path: str, lines: Iterable[str]) -> Iterator[tuple[int, dict, str]]:
    """Each non-blank line of a store with its line number and the JSON
    object it holds: `(line number, record, line)`."""
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"corrupted sample record: {exc.msg}", path, line_no) from None
        if not isinstance(record, dict):
            raise ParseError("invalid sample record: not a JSON object", path, line_no)
        yield line_no, record, line


def _kept_lines(entries: Iterable[tuple[int, dict, str]], lines: list[str]) -> Iterator[tuple[int, dict]]:
    """The `(line number, record)` of each store entry, appending its line
    to `lines` as it goes: the records are still decoded in line order."""
    for line_no, record, line in entries:
        lines.append(line)
        yield line_no, record


def iter_samples(path: str) -> Iterator[tuple[list[str], list[TrajectorySample]]]:
    """Each query's `(lines, samples)` from a store written by
    `write_samples`, in store order, one query at a time: its samples, and
    the store line each was decoded from, in the same order.

    A query id that does not follow the one before it in strictly
    ascending order means that a query's records are not contiguous or not
    in store order: a ParseError naming the query's first line.
    """
    previous = None
    with open(path, encoding="utf-8") as fh:
        for query_id, entries in itertools.groupby(_store_records(path, fh), lambda entry: entry[1].get("query_id")):
            first = next(entries)
            lines: list[str] = []
            samples = read_samples(path, _kept_lines(itertools.chain((first,), entries), lines))
            if previous is not None and query_id <= previous:
                raise ParseError(
                    f"query {query_id!r} follows query {previous!r}: a query's records must be "
                    "contiguous, in ascending query id order", path, first[0],
                )
            previous = query_id
            yield lines, samples


def read_samples(path: str, entries: Iterable[tuple[int, dict]]) -> list[TrajectorySample]:
    """The samples of one query's `(line number, record)` entries from the
    store at `path`; TrajectorySample checks each field's type. Samples
    that state the same ranking share one Ranking object."""
    decoded: dict[tuple, Ranking] = {}
    samples = []
    for line_no, record in entries:
        version = record.get("schema_version")
        if version != SAMPLES_SCHEMA_VERSION:
            raise ParseError(
                f"schema version mismatch: file has {version!r}, reader supports {SAMPLES_SCHEMA_VERSION}",
                path, line_no,
            )
        try:
            values = {name: record[name] for name in SAMPLE_FIELD_TYPES}
            final, sequence = values["final_ranking"], values["ranking_sequence"]
            if type(sequence) is not list:
                raise ValueError(f"field 'ranking_sequence' must be list, got {type(sequence).__name__}")
            if final is not None:
                values["final_ranking"] = _decode_ranking(final, decoded, "final_ranking")
            values["ranking_sequence"] = tuple([_decode_ranking(groups, decoded, "ranking_sequence")
                                                for groups in sequence])
            samples.append(TrajectorySample(**values))
        except (KeyError, ValueError) as exc:
            raise ParseError(f"invalid sample record: {exc}", path, line_no) from None
    return samples


# --- SFT corpus -----------------------------------------------------------------

def write_sft_corpus(corpus: Sequence[DistillationRecord], template: PromptTemplate, out: TextIO) -> None:
    """Write to the open file `out` one chat-schema JSON object per record:
    the system+user prompt the target was sampled under, plus the target
    text as the assistant turn.

    The first line is a version header; an empty corpus is that line alone.
    Records whose stored prompt hash does not match the prompt rebuilt from
    `template` are rejected: that corpus would pair targets with prompts the
    teacher never saw.
    """
    header = {"format": SFT_FORMAT, "version": SFT_VERSION, "template": template.name}
    out.write(json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n")
    for record in sorted(corpus, key=lambda r: r.query.id):
        prompt = build_prompt(record.query, record.candidates, template)
        if record.prompt_hash is not None and hash_messages(prompt) != record.prompt_hash:
            raise ConfigError(
                f"template {template.name!r} does not reproduce the prompt that sampled "
                f"query {record.query.id!r} (hash mismatch)"
            )
        line = {"messages": prompt + [{"role": "assistant", "content": record.target_text}]}
        out.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")


# --- reports --------------------------------------------------------------------

# The types a report value renders as, told apart by exact type; any other
# value renders as the first of these bases it is an instance of.
_REPORT_TYPES = frozenset((dict, list, bool, float, int, str, type(None)))
_REPORT_BASES = ((Mapping, dict), (list, list), (tuple, list), (bool, bool), (float, float), (int, int), (str, str))


def _canonical_json(value: object, indent: int = 0) -> str:
    """Canonical rendering: sorted keys, floats fixed at 6 decimal places.
    Keys and strings are escaped as `json.dumps(..., ensure_ascii=False)`
    escapes them."""
    kind = type(value)
    if kind not in _REPORT_TYPES:
        kind = next((as_kind for base, as_kind in _REPORT_BASES if isinstance(value, base)), kind)
    if kind is str:
        return encode_basestring(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return f"{value:.6f}"
    pad = "  " * indent
    if kind is dict:
        if not value:
            return "{}"
        body = ",\n".join(
            f"{pad}  {encode_basestring(str(k))}: {_canonical_json(value[k], indent + 1)}"
            for k in sorted(value)
        )
        return "{\n" + body + f"\n{pad}}}"
    if kind is list:
        if not value:
            return "[]"
        body = ",\n".join(f"{pad}  {_canonical_json(v, indent + 1)}" for v in value)
        return "[\n" + body + f"\n{pad}]"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
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
        "length_buckets": length_bucket_rows(report.length_buckets),
    }


def length_bucket_rows(buckets: Iterable[LengthBucket]) -> list[dict]:
    """Length buckets as report rows, for eval reports and comparison curves."""
    return [{"lo": b.lo, "hi": b.hi, "mean_ndcg10": b.mean_ndcg10, "count": b.count} for b in buckets]


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
        with atomic_write(path) as fh:
            fh.write(_canonical_json(payload) + "\n")
    elif format == "csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_COLUMNS[kind])
            for row in _csv_rows(payload):
                writer.writerow([_csv_cell(v) for v in row])
    else:
        raise ValueError(f"unknown report format {format!r} (expected json or csv)")


def read_report(path: str) -> dict:
    """Load a JSON report written by write_report."""
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not a JSON report: {exc.msg} (column {exc.colno})", path, exc.lineno) from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError("not a report file (missing kind)", path)
    return payload


def read_eval_report(path: str) -> EvalReport:
    """The EvalReport in the eval report file at `path`, the inverse of
    `eval_report_payload` but for the length buckets, which it leaves out."""
    payload = read_report(path)
    if payload["kind"] != "eval":
        raise ParseError(f"a {payload['kind']!r} report, not an eval report", path)
    per_query = payload.get("per_query")
    if type(per_query) is dict:
        per_query = {qid: (entry.get("ndcg10"), entry.get("gen_len")) if type(entry) is dict else entry
                     for qid, entry in per_query.items()}
    try:
        return EvalReport(per_query, payload.get("mean_ndcg10"), payload.get("mean_len"))
    except ValueError as exc:
        raise ParseError(f"eval report {exc}", path) from None
