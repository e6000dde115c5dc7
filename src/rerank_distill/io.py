"""Readers and writers for TREC interchange files, the sample store, the
SFT corpus, and analysis reports.

Writers are deterministic: the same in-memory value always produces a
byte-identical file, and each writes through `atomic_write`. Readers reject
malformed input, a file that is not UTF-8 included, with line-accurate
diagnostics instead of guessing. One generator reads the sample store,
line by line, holding one query's ranking state at a time: a line in the
layout `write_samples` writes is read from its cut-out ranking texts, each
decoded the first time its query states it; any other line, and one those
texts cannot read, goes through the general decode, which alone words the
errors.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import math
import operator
import os
import re
from collections.abc import Container, Iterable, Iterator, Mapping, Sequence
from json.encoder import encode_basestring
from typing import TextIO

from .errors import ConfigError, ParseError
from .models import (
    SAMPLE_FIELD_TYPES,
    CandidateSet,
    EvalReport,
    Qrels,
    Query,
    Ranking,
    TrajectorySample,
    field_type_error,
)
from .parsing import THINK_MARKERS
from .sampling import PromptTemplate, build_prompt, hash_messages

logger = logging.getLogger(__name__)

SAMPLES_SCHEMA_VERSION = 1
SFT_FORMAT = "sft-chat-messages"
SFT_VERSION = 1


# Bytes the temp file of `atomic_write` buffers before each write: a store
# of some megabytes goes out in tens of writes, not one per 8 KiB.
WRITE_BUFFER_BYTES = 256 * 1024


@contextlib.contextmanager
def atomic_write(path: str, newline: str | None = None) -> Iterator[TextIO]:
    """A text file that takes the place of `path` only when the block
    completes. A temp file beside `path` receives the writes; an exception
    removes it and leaves `path` as it was, and so does a crash, but for
    the temp file. The block may read `path` while it writes.

    The temp file buffers `WRITE_BUFFER_BYTES` before each write, so the
    temp file a killed process leaves behind lags what the block wrote by
    at most one buffer, and the text layer's 8 KiB chunk."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", buffering=WRITE_BUFFER_BYTES, encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


@contextlib.contextmanager
def _read_text(path: str) -> Iterator[TextIO]:
    """`path` open for reading as UTF-8 text. A byte that is not UTF-8 is a
    ParseError naming the file and the line it is on."""
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path, _first_undecodable_line(path)) from None


def _first_undecodable_line(path: str) -> int | None:
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_no
    return None


# --- TREC qrels ---------------------------------------------------------------

def read_qrels(path: str) -> Qrels:
    """Parse "qid 0 docid grade" lines. Repeated (qid, docid) pairs are
    tolerated with a warning; the last grade wins."""
    judgments: dict[tuple[str, str], int] = {}
    with _read_text(path) as fh:
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
    with _read_text(path) as fh:
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
    with _read_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise ParseError("expected qid<TAB>text", path, line_no)
            qid, text = line.split("\t", 1)
            if not qid:
                raise ParseError("empty query id", path, line_no)
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
    with _read_text(path) as fh:
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
        doc_ids = tuple(run[qid])
        try:
            passages = tuple(map(texts.__getitem__, doc_ids))
        except KeyError as exc:
            raise ConfigError(
                f"passage text for doc {exc.args[0]!r} (query {qid!r}) not found in corpus file") from None
        out[qid] = CandidateSet(query_id=qid, doc_ids=doc_ids, texts=passages)
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


def _texts_json(raw_text: str, reasoning_text: str) -> tuple[str, str]:
    """The JSON texts of a sample's raw text and reasoning, the raw text
    escaped once. A reasoning where `split_reasoning` takes it from, right
    after the first think marker or at the start of the raw text, is cut
    from the raw text's JSON text: JSON escapes each character on its own,
    so only the text before and after the reasoning is escaped again. A
    reasoning found anywhere else is escaped on its own."""
    raw_json = encode_basestring(raw_text)
    marker = raw_text.find(THINK_MARKERS[0])
    start = marker + len(THINK_MARKERS[0])
    if marker == -1 or not raw_text.startswith(reasoning_text, start):
        start = 0
        if not raw_text.startswith(reasoning_text):
            return raw_json, encode_basestring(reasoning_text)
    # Where the reasoning's escaped characters start and end in raw_json.
    head = len(encode_basestring(raw_text[:start])) - 1
    tail = len(raw_json) + 1 - len(encode_basestring(raw_text[start + len(reasoning_text):]))
    return raw_json, '"' + raw_json[head:tail] + '"'


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

    Each distinct Ranking object of the call is rendered once, and each
    raw text is escaped once, its reasoning's JSON text cut from it. A
    TrajectorySample checked its field types when it was built, so every
    record written holds types the reader accepts.
    """
    # Keyed by id: `samples` holds every ranking for the whole call, so no
    # id is reused.
    rendered: dict[int, str] = {}
    for sample in samples:
        coverage, error, prompt_hash, query_id, raw_text, reasoning_text, sample_index = _head_values(sample)
        raw_json, reasoning_json = _texts_json(raw_text, reasoning_text)
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
            f'"raw_text": {raw_json}, "reasoning_text": {reasoning_json}, '
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
            write_samples((TrajectorySample.from_fields({**vars(sample), "score": score}),), out)


def _decode_ranking(groups: object, decoded: dict[tuple, Ranking], field: str) -> Ranking:
    """The Ranking a stored list of tie groups spells; `field` names the
    record field it came from in an error.

    `decoded` maps the tuple form of each list already read to its Ranking,
    so each distinct ranking is checked and built once. A string group has
    the tuple form of the list of its characters, and a JSON object that of
    the list of its keys, so the list shape is checked on every call,
    before the lookup; that it holds a group, and the doc ids, are checked
    by Ranking.
    """
    if type(groups) is not list or not _LIST_ONLY.issuperset(map(type, groups)):
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


# A line in the layout `write_samples` writes is cut at its two ranking
# members (`_cut_rankings`), and read from the rest of it and its ranking
# texts, each decoded only the first time its query states it
# (`_split_sample`). These patterns match the members before
# "final_ranking" and those from its end up to the "ranking_sequence" list,
# token by token, so that what is cut out from between them are those two
# members' values.
_JSON_STRING = r'"[^"\\]*(?:\\.[^"\\]*)*"'
_BEFORE_FINAL = re.compile(r'(\{"coverage": (?:null|NaN|-?Infinity|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?), '
                           rf'"error": (?:null|{_JSON_STRING})), "final_ranking": ')
_BEFORE_SEQUENCE = re.compile(rf'(, "prompt_hash": (?:null|{_JSON_STRING}), "query_id": {_JSON_STRING}), '
                              r'"ranking_sequence": \[')
# The members of a line with its two rankings cut out: the other fields and
# "schema_version".
_SPLIT_KEY_COUNT = len(_HEAD_FIELDS) + len(_TAIL_FIELDS) + 1
# Its `raw_decode` leaves out the checks for a byte-order mark and for
# white space around the value that `json.loads` makes, which a ranking
# text cut from a line does not need.
_JSON = json.JSONDecoder()


def _inner_text(line: str, start: int, end: int) -> str | None:
    """The text of a stored ranking, `line[start:end]`, between its opening
    `[[` and closing `]]`, or None if it lacks them."""
    if end - start >= 4 and line.startswith("[[", start) and line.endswith("]]", start, end):
        return line[start + 2:end - 2]
    return None


def _cut_rankings(line: str) -> tuple[dict, str | None, list[str]] | None:
    """A store line in the layout `write_samples` writes, cut at its two
    ranking members: `(rest, final, sequence)`, the record the rest of the
    line decodes to, without its "schema_version", the inner text
    (`_inner_text`) of its final ranking or None, and a list of the inner
    texts of its rankings. None for a line in another layout, and for one
    whose rest does not decode to exactly the other fields and
    "schema_version" 1."""
    head = _BEFORE_FINAL.match(line)
    middle = None if head is None else _BEFORE_SEQUENCE.search(line, head.end())
    if middle is None:
        return None
    final_start, final_end, sequence_start = head.end(), middle.start(), middle.end()
    sequence_end = line.find('], "raw_text": ', sequence_start)
    if line.startswith("null", final_start) and final_end == final_start + 4:
        final = None
    elif (final := _inner_text(line, final_start, final_end)) is None:
        return None
    if sequence_end == sequence_start:
        sequence = []
    elif (inner := _inner_text(line, sequence_start, sequence_end)) is None:
        return None
    else:
        sequence = inner.split("]], [[")
    try:
        rest = json.loads(line[:head.end(1)] + line[final_end:middle.end(1)] + line[sequence_end + 1:])
    except json.JSONDecodeError:
        return None
    # With the two rankings set, `from_fields` refuses any other key set of
    # this size: a ranking key in the rest leaves one field missing.
    if len(rest) != _SPLIT_KEY_COUNT or rest.pop("schema_version", None) != SAMPLES_SCHEMA_VERSION:
        return None
    return rest, final, sequence


def _store_samples(path: str, lines: Iterable[str]) -> Iterator[tuple[int, str, TrajectorySample]]:
    """Each non-blank line of a store as `(line number, line, sample)`.

    It holds one query's state: the Ranking of each ranking text decoded,
    and the Ranking of each tie-group tuple form, so that the query's
    samples that state one ranking share one Ranking object. Both start
    anew where the query id's value changes, whatever the layout of the
    line it changes on.

    A line in the layout `write_samples` writes is read from its ranking
    texts (`_split_sample`), each decoded the first time its query states
    it. Any other line, and one that cannot be read so, is decoded whole
    (`_decode_sample`), which words every error. On both routes the query
    id is read from the decoded record: one id may be spelt two ways.
    """
    # No line's query: the first line starts a query.
    query_id = object()
    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():  # `not line.strip()`, without copying the line
            continue
        cut = _cut_rankings(line)
        record = _store_record(path, line_no, line) if cut is None else cut[0]
        line_query = record.get("query_id")
        if line_query != query_id:
            query_id, by_text, decoded = line_query, {}, {}
        sample = None if cut is None else _split_sample(cut, by_text, decoded)
        if sample is None:
            if cut is not None:
                record = _store_record(path, line_no, line)
            sample = _decode_sample(path, line_no, record, decoded)
        yield line_no, line, sample


def _split_sample(cut: tuple, by_text: dict[str, Ranking], decoded: dict[tuple, Ranking]) -> TrajectorySample | None:
    """The sample of a line `_cut_rankings` cut, read from its decoded rest
    and its ranking texts; each text `by_text` lacks is decoded through
    `decoded` and added to it. None if they do not make a valid sample.

    Once the rest decodes to the other fields, the line is JSON, and
    decodes to this record with the rankings decoded, if and only if
    `[[<text>]]` is one JSON value for each ranking text. A doc id that
    holds the text `]], [[` splits its ranking in the wrong place, and such
    a line fails that check.
    """
    record, final, sequence = cut
    try:
        for text in sequence if final is None else (final, *sequence):
            if text not in by_text:
                groups, end = _JSON.raw_decode(f"[[{text}]]")
                if end != len(text) + 4:
                    return None
                by_text[text] = _decode_ranking(groups, decoded, "ranking")
        record["final_ranking"] = None if final is None else by_text[final]
        record["ranking_sequence"] = tuple(map(by_text.__getitem__, sequence))
        return TrajectorySample.from_fields(record)
    except ValueError:  # json.JSONDecodeError included
        return None


def iter_samples(path: str) -> Iterator[tuple[list[str], list[TrajectorySample]]]:
    """Each query's `(lines, samples)` from a store written by
    `write_samples`, in store order, one query at a time: its samples, and
    the store line each was decoded from, in the same order.

    One generator, `_store_samples`, decodes the lines. A query id that
    does not follow the one before it in strictly ascending order means
    that a query's records are not contiguous or not in store order: a
    ParseError naming the query's first line.
    """
    previous = None
    with _read_text(path) as fh:
        for query_id, entries in itertools.groupby(_store_samples(path, fh), lambda entry: entry[2].query_id):
            first = next(entries)
            lines: list[str] = []
            samples = read_samples(itertools.chain((first,), entries), lines)
            if previous is not None and query_id <= previous:
                raise ParseError(
                    f"query {query_id!r} follows query {previous!r}: a query's records must be "
                    "contiguous, in ascending query id order", path, first[0],
                )
            previous = query_id
            yield lines, samples


def read_samples(entries: Iterable[tuple[int, str, TrajectorySample]], lines: list[str]) -> list[TrajectorySample]:
    """One query's samples, read from its `_store_samples` entries, each
    entry's line appended to `lines`."""
    samples = []
    for _, line, sample in entries:
        lines.append(line)
        samples.append(sample)
    return samples


def _store_record(path: str, line_no: int, line: str) -> dict:
    """The JSON object on line `line_no` of the store at `path`."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ParseError(f"corrupted sample record: {exc.msg}", path, line_no) from None
    if not isinstance(record, dict):
        raise ParseError("invalid sample record: not a JSON object", path, line_no)
    return record


def _decode_sample(path: str, line_no: int, record: dict, decoded: dict[tuple, Ranking]) -> TrajectorySample:
    """The sample the store record on line `line_no` holds, its rankings
    decoded through `decoded`."""
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
        return TrajectorySample.from_fields(values)
    except (KeyError, ValueError) as exc:
        raise ParseError(f"invalid sample record: {exc}", path, line_no) from None


# --- SFT corpus -----------------------------------------------------------------

def write_sft_corpus(corpus: Iterable[tuple[Query, CandidateSet, TrajectorySample]], template: PromptTemplate,
                     out: TextIO) -> None:
    """Write to the open file `out` one chat-schema JSON object per
    `(query, candidates, target)` triple, as `distill.build_corpus` returns
    them: the system+user prompt the target was sampled under, plus the
    target's `raw_text` as the assistant turn. Each triple is written as it
    is drawn from `corpus`, which must be in ascending query id order.

    The first line is a version header; an empty corpus is that line alone.
    A target whose stored prompt hash does not match the prompt rebuilt
    from its query and candidates under `template` is rejected: that corpus
    would pair targets with prompts the teacher never saw.
    """
    header = {"format": SFT_FORMAT, "version": SFT_VERSION, "template": template.name}
    out.write(json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n")
    previous = None
    for query, candidates, target in corpus:
        if previous is not None and query.id <= previous:
            raise ValueError(f"corpus query {query.id!r} follows {previous!r}; give the corpus in query id order")
        previous = query.id
        prompt = build_prompt(query, candidates, template)
        if target.prompt_hash is not None and hash_messages(prompt) != target.prompt_hash:
            raise ConfigError(
                f"query {query.id!r}: the prompt rebuilt from the topics, run file, corpus, depth "
                f"and template {template.name!r} is not the prompt that sampled it (hash mismatch); "
                f"give the inputs the samples were drawn with"
            )
        line = {"messages": prompt + [{"role": "assistant", "content": target.raw_text}]}
        out.write(json.dumps(line, sort_keys=True, ensure_ascii=False) + "\n")


# --- reports --------------------------------------------------------------------

# The types a report value renders as, told apart by exact type; any other
# value renders as the first of these bases it is an instance of.
_REPORT_TYPES = frozenset((dict, list, bool, float, int, str, type(None)))
_REPORT_BASES = ((Mapping, dict), (list, list), (tuple, list), (bool, bool), (float, float), (int, int), (str, str))


def _canonical_json(value: object, indent: int = 0) -> str:
    """Canonical rendering: sorted keys, floats fixed at 6 decimal places.
    Keys and strings are escaped as `json.dumps(..., ensure_ascii=False)`
    escapes them.

    A dict's or list's members of exactly str, finite float, int, bool or
    None render inline in its loop; any other member recurses. A report's
    per-sample rows are mostly such members, and a call per value cost more
    than rendering them."""
    kind = type(value)
    if kind not in _REPORT_TYPES:
        kind = next((as_kind for base, as_kind in _REPORT_BASES if isinstance(value, base)), kind)
    if kind is dict or kind is list:
        is_dict = kind is dict
        opening, closing = "{}" if is_dict else "[]"
        if not value:
            return opening + closing
        parts = []
        for key in sorted(value) if is_dict else value:
            member = value[key] if is_dict else key
            member_kind = type(member)
            if member_kind is str:
                text = encode_basestring(member)
            elif member_kind is float and math.isfinite(member):
                text = f"{member:.6f}"
            elif member_kind is int:
                text = str(member)
            elif member_kind is bool:
                text = "true" if member else "false"
            elif member is None:
                text = "null"
            else:
                text = _canonical_json(member, indent + 1)
            parts.append(f"{encode_basestring(str(key))}: {text}" if is_dict else text)
        pad = "  " * indent
        inner = pad + "  "
        return f"{opening}\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}{closing}"
    if kind is str:
        return encode_basestring(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value}")
        return f"{value:.6f}"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def eval_report_payload(report: EvalReport, length_buckets: Sequence[Mapping[str, object]]) -> dict:
    """The eval report of `report` with its length-bucket rows, as
    `metrics.length_buckets` builds them."""
    return {
        "kind": "eval",
        "per_query": {
            qid: {"ndcg10": ndcg, "gen_len": gen_len}
            for qid, (ndcg, gen_len) in report.per_query.items()
        },
        "mean_ndcg10": report.mean_ndcg10,
        "mean_len": report.mean_len,
        "length_buckets": length_buckets,
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


def filter_stats_report(rows: Sequence[Mapping[str, object]], retention_rate: float) -> dict:
    """The filter-stats report: one row per query, as
    `distill.build_corpus` returns them, and the share retained."""
    return {"kind": "filter_stats", "retention_rate": retention_rate, "rows": list(rows)}


_REPORT_KINDS = ("eval", "redundancy", "filter_stats", "comparison")
# The kinds `--format csv` writes, each a table of its `rows`, and the
# columns it takes from each row.
_CSV_COLUMNS = {
    "redundancy": ("model_tag", "avg_trr", "avg_mor"),
    "comparison": ("tag", "mean_ndcg10", "mean_len"),
}


def _csv_cell(value: object) -> object:
    return f"{value:.6f}" if isinstance(value, float) else value


def write_report(payload: Mapping, path: str, format: str = "json") -> None:
    """Serialize a report payload. JSON output is canonical (sorted keys,
    floats at 6 decimal places); CSV writes the documented columns of a
    `redundancy` or `comparison` report's rows."""
    kind = payload.get("kind")
    if kind not in _REPORT_KINDS:
        raise ValueError(f"unknown report kind {kind!r}")
    if kind == "eval" and not payload.get("per_query"):
        raise ValueError("eval report has an empty per_query map")
    if format == "json":
        with atomic_write(path) as fh:
            fh.write(_canonical_json(payload) + "\n")
    elif format == "csv":
        columns = _CSV_COLUMNS.get(kind)
        if columns is None:
            raise ValueError(f"no CSV layout for report kind {kind!r}")
        import csv

        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in payload["rows"]:
                writer.writerow([_csv_cell(row[column]) for column in columns])
    else:
        raise ValueError(f"unknown report format {format!r} (expected json or csv)")


def read_report(path: str) -> dict:
    """Load a JSON report written by write_report."""
    with _read_text(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not a JSON report: {exc.msg} (column {exc.colno})", path, exc.lineno) from None
    if not isinstance(payload, dict) or "kind" not in payload:
        raise ParseError("not a report file (missing kind)", path)
    return payload


def read_eval_report(path: str) -> EvalReport:
    """The EvalReport in the eval report file at `path`: what
    `eval_report_payload` wrote but the length buckets."""
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
