import io
import json
import logging
import random
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerank_distill import io as rio
from rerank_distill.errors import ConfigError, ParseError
from rerank_distill.io import (
    candidates_from_run,
    eval_report_payload,
    filter_stats_report,
    iter_samples,
    read_corpus_texts,
    read_eval_report,
    read_qrels,
    read_report,
    read_run,
    read_topics,
    redundancy_report,
    write_qrels,
    write_report,
    write_samples,
    write_scored_samples,
    write_sft_corpus,
)
from rerank_distill.models import (
    EvalReport,
    Qrels,
    SAMPLE_FIELD_TYPES,
    Ranking,
    TrajectorySample,
    field_type_error,
)
from rerank_distill.parsing import THINK_MARKERS
from rerank_distill.sampling import build_prompt, default_template, hash_messages

from conftest import examples, make_query, make_universe, read_store, splits, write_store
from reference import read_queries


class TestQrels:
    def test_parse_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d3 2\n")
        assert read_qrels(str(p)).judgments == {("q1", "d3"): 2}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("")
        assert read_qrels(str(p)).judgments == {}

    def test_non_integer_grade_names_the_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d3 x\n")
        with pytest.raises(ParseError, match=r":1: non-integer grade"):
            read_qrels(str(p))

    def test_short_line_names_the_line(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d2\n")
        with pytest.raises(ParseError, match=r":2: expected 4 fields"):
            read_qrels(str(p))

    def test_negative_grade_rejected(self, tmp_path):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 -1\n")
        with pytest.raises(ParseError, match=r":1: negative grade"):
            read_qrels(str(p))

    def test_repeated_pair_last_wins_with_warning(self, tmp_path, caplog):
        p = tmp_path / "qrels.txt"
        p.write_text("q1 0 d1 1\nq1 0 d1 3\n")
        with caplog.at_level(logging.WARNING):
            qrels = read_qrels(str(p))
        assert qrels.grade("q1", "d1") == 3
        assert "last wins" in caplog.text

    def test_real_trec_snippet(self, tmp_path):
        # DL19-style judgments
        p = tmp_path / "qrels.txt"
        p.write_text(
            "19335 0 1017759 0\n"
            "19335 0 1082489 2\n"
            "19335 0 8412684 3\n"
            "47923 0 1200258 1\n"
        )
        qrels = read_qrels(str(p))
        assert qrels.grade("19335", "8412684") == 3
        assert qrels.query_ids() == {"19335", "47923"}

    def test_round_trip(self, tmp_path):
        qrels = Qrels(judgments={("q2", "d1"): 1, ("q1", "d9"): 3, ("q1", "d2"): 0})
        p = tmp_path / "qrels.txt"
        write_qrels(qrels, str(p))
        assert read_qrels(str(p)) == qrels
        # writer sorts by (qid, docid)
        assert p.read_text().splitlines() == ["q1 0 d2 0", "q1 0 d9 3", "q2 0 d1 1"]


class TestRun:
    def test_rank_order_restored(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dB 2 0.5 bm25\nq1 Q0 dA 1 0.9 bm25\n")
        assert read_run(str(p), depth=10) == {"q1": ["dA", "dB"]}

    def test_depth_truncates(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dA 1 0.9 t\nq1 Q0 dB 2 0.5 t\n")
        assert read_run(str(p), depth=1) == {"q1": ["dA"]}

    def test_duplicate_doc_rejected(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dA 1 0.9 t\nq1 Q0 dA 2 0.5 t\n")
        with pytest.raises(ParseError, match=r":2: duplicate doc"):
            read_run(str(p), depth=10)

    def test_non_numeric_rank_rejected(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dA one 0.9 t\n")
        with pytest.raises(ParseError, match=r":1: non-numeric"):
            read_run(str(p), depth=10)

    def test_short_line_rejected(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dA 1 0.9\n")
        with pytest.raises(ParseError, match=r":1: expected 6 fields"):
            read_run(str(p), depth=10)

    @pytest.mark.parametrize("rank", ["0", "-3"])
    def test_rank_below_one_names_the_line(self, tmp_path, rank):
        p = tmp_path / "run.txt"
        p.write_text(f"q1 Q0 dA 1 0.9 t\nq1 Q0 dB {rank} 0.5 t\n")
        with pytest.raises(ParseError, match=rf"run.txt:2: rank is 1-based and must be >= 1, got {rank}"):
            read_run(str(p), depth=10)

    def test_gapped_ranks_warn(self, tmp_path, caplog):
        p = tmp_path / "run.txt"
        p.write_text("q1 Q0 dA 1 0.9 t\nq1 Q0 dB 5 0.5 t\n")
        with caplog.at_level(logging.WARNING):
            read_run(str(p), depth=10)
        assert "not contiguous" in caplog.text

    def test_real_trec_snippet(self, tmp_path):
        p = tmp_path / "run.txt"
        p.write_text(
            "19335 Q0 8412684 1 14.1938 Anserini\n"
            "19335 Q0 1082489 2 13.0886 Anserini\n"
            "47923 Q0 1200258 1 11.4432 Anserini\n"
        )
        run = read_run(str(p), depth=10)
        assert run == {"19335": ["8412684", "1082489"], "47923": ["1200258"]}


class TestTopicsAndCorpus:
    def test_topics(self, tmp_path):
        p = tmp_path / "topics.tsv"
        p.write_text("q1\twhat is a test\nq2\tand another\n")
        topics = read_topics(str(p))
        assert [(q.id, q.text) for q in topics] == [("q1", "what is a test"), ("q2", "and another")]

    def test_duplicate_topic_rejected(self, tmp_path):
        p = tmp_path / "topics.tsv"
        p.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(ParseError, match=r":2: duplicate query id"):
            read_topics(str(p))

    def test_empty_topic_id_names_the_file_and_line(self, tmp_path):
        p = tmp_path / "topics.tsv"
        p.write_text("q1\ta\n\tquery text\n")
        with pytest.raises(ParseError, match=r"topics\.tsv:2: empty query id$"):
            read_topics(str(p))

    def test_corpus_texts_and_join(self, tmp_path):
        p = tmp_path / "corpus.tsv"
        p.write_text("dA\tfirst passage\ndB\tsecond passage\n")
        texts = read_corpus_texts(str(p), {"dA", "dB"})
        sets = candidates_from_run({"q1": ["dB", "dA"]}, texts)
        assert sets["q1"].doc_ids == ("dB", "dA")

    def test_corpus_keeps_only_the_requested_passages(self, tmp_path, caplog):
        run = {"q1": ["dB", "dA"], "q2": ["dC"]}
        clean = tmp_path / "clean.tsv"
        clean.write_text("dA\tfirst passage\ndB\tsecond passage\ndC\tthird passage\n")
        padded = tmp_path / "padded.tsv"
        padded.write_text("dX\tunused\ndA\tfirst passage\ndX\tunused again\ndB\tsecond passage\n"
                          "dY\talso unused\ndC\tthird passage\ndY\tand again\n")
        wanted = {doc_id for docs in run.values() for doc_id in docs}
        with caplog.at_level(logging.WARNING):
            texts = read_corpus_texts(str(padded), wanted)
        assert set(texts) == wanted
        assert candidates_from_run(run, texts) == candidates_from_run(run, read_corpus_texts(str(clean), wanted))
        assert "repeated passage" not in caplog.text

    def test_repeat_of_a_requested_passage_still_warns(self, tmp_path, caplog):
        p = tmp_path / "corpus.tsv"
        p.write_text("dA\tfirst\ndA\tsecond\n")
        with caplog.at_level(logging.WARNING):
            assert read_corpus_texts(str(p), {"dA"}) == {"dA": "second"}
        assert "corpus.tsv:2: repeated passage dA; last wins" in caplog.text

    def test_missing_passage_text_rejected(self):
        with pytest.raises(ConfigError, match="dX"):
            candidates_from_run({"q1": ["dX"]}, {})


# Each reader with a valid first line for it.
_READERS = {
    "read_qrels": (read_qrels, "q1 0 d1 1\n"),
    "read_run": (lambda path: read_run(path, depth=10), "q1 Q0 d1 1 0.9 t\n"),
    "read_topics": (read_topics, "q1\thow does it work\n"),
    "read_corpus_texts": (lambda path: read_corpus_texts(path, {"d1"}), "d1\tpassage text\n"),
    "iter_samples": (lambda path: list(iter_samples(path)), None),
    "read_report": (read_report, '{"kind": "eval",\n'),
}


@pytest.mark.parametrize("reader", _READERS)
def test_a_file_that_is_not_utf8_names_the_file_and_line(tmp_path, reader):
    read, first = _READERS[reader]
    if first is None:
        out = io.StringIO()
        write_samples([make_sample(1)], out)
        first = out.getvalue()
    path = tmp_path / "input.txt"
    path.write_bytes(first.encode() + b"caf\xe9\n")
    with pytest.raises(ParseError, match=r"input\.txt:2: not UTF-8 text \(invalid continuation byte\)"):
        read(str(path))


def make_sample(idx, **overrides):
    base = dict(
        query_id="q1", sample_index=idx, raw_text=f"body [1] > [2] #{idx}",
        reasoning_text="some reasoning", final_ranking=Ranking(groups=(("1",), ("2",))),
        ranking_sequence=(Ranking(groups=(("1",), ("2",))), Ranking(groups=(("2",), ("1",)))),
        token_len=17, token_len_source="approximated", score=0.75, valid=True,
        coverage=1.0, error=None, prompt_hash="abc123",
    )
    base.update(overrides)
    return TrajectorySample(**base)


# Characters JSON escapes, and characters that only ensure_ascii=False
# writes as they are.
_CHARS = st.sampled_from(list('ab1 "\\\n\t\x00\x1f\x7f\u2028\xe9\u2014\u0416\u4e2d\U0001F600'))
_TEXTS = st.text(_CHARS, max_size=12)
_FLOATS = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 5e-324, 1e-310]), st.floats(0.0, 1.0))


@st.composite
def _rankings(draw, doc_ids=st.text(_CHARS, min_size=1, max_size=4)):
    doc_ids = draw(st.lists(doc_ids, min_size=1, max_size=6, unique=True))
    ties = draw(st.lists(st.booleans(), min_size=len(doc_ids) - 1, max_size=len(doc_ids) - 1))
    groups = [[doc_ids[0]]]
    for doc_id, tied in zip(doc_ids[1:], ties):
        if tied:
            groups[-1].append(doc_id)
        else:
            groups.append([doc_id])
    return Ranking(groups=tuple(map(tuple, groups)))


# Texts that may hold a think marker, so a trace may hold one twice.
_THINK_TEXTS = st.lists(st.sampled_from(THINK_MARKERS) | _TEXTS, max_size=3).map("".join)


@st.composite
def _traces(draw, texts):
    """A raw text and its reasoning: the reasoning between think markers
    or a prefix of the raw text, as `split_reasoning` takes it, or drawn
    apart from the raw text. Any part may hold a think marker itself, so a
    marked reasoning may follow a second `<think>`."""
    texts = texts | _THINK_TEXTS
    before, reasoning, after = draw(texts), draw(texts), draw(texts)
    shape = draw(st.sampled_from(("marked", "prefix", "apart")))
    if shape == "marked":
        return before + THINK_MARKERS[0] + reasoning + THINK_MARKERS[1] + after, reasoning
    if shape == "prefix":
        return reasoning + after, reasoning
    return before, reasoning


@st.composite
def _samples(draw, query_id, rankings=_rankings(), texts=_TEXTS):
    valid = draw(st.booleans())
    raw_text, reasoning_text = draw(_traces(texts))
    return TrajectorySample(
        query_id=query_id,
        sample_index=draw(st.integers(1, 2**40)),
        raw_text=raw_text,
        reasoning_text=reasoning_text,
        final_ranking=draw(rankings if valid else st.none() | rankings),
        ranking_sequence=tuple(draw(st.lists(rankings, max_size=3))),
        token_len=draw(st.integers(0, 2**40)),
        token_len_source=draw(st.sampled_from(["endpoint-reported", "approximated"])),
        score=draw(_FLOATS),
        valid=valid,
        coverage=draw(_FLOATS | st.floats(allow_nan=False, allow_infinity=False)),
        error=draw(st.none() | texts),
        prompt_hash=draw(st.none() | texts),
    )


# The texts the store reader cuts a line at, and the characters that
# decide where a JSON string ends.
_MARKERS = (', "prompt_hash": ', '], "raw_text": ', ']], [[', '"', "\\")
_MARKED_TEXTS = st.lists(st.sampled_from(_MARKERS + ("a", "1")), min_size=1, max_size=3).map("".join)


@st.composite
def _stores(draw):
    """The text of a store of up to two queries, whose samples state
    rankings from a pool per query, and whose doc ids and texts may hold
    the markers."""
    out = io.StringIO()
    for query_id in sorted(draw(st.lists(_TEXTS | _MARKED_TEXTS, min_size=1, max_size=2, unique=True))):
        pool = draw(st.lists(_rankings(_MARKED_TEXTS | st.text(_CHARS, min_size=1, max_size=4)),
                             min_size=1, max_size=2))
        texts = _MARKED_TEXTS | _TEXTS
        write_samples(draw(st.lists(_samples(query_id, st.sampled_from(pool), texts), min_size=1, max_size=3)), out)
    return out.getvalue()


def _mutated(draw, text: str) -> str:
    """`text` with up to three markers inserted or deleted. Half the
    insertions go just after a quote, bracket or comma."""
    for _ in range(draw(st.integers(0, 3))):
        marker = draw(st.sampled_from(_MARKERS))
        found = [i for i in range(len(text) - len(marker) + 1) if text.startswith(marker, i)]
        if found and draw(st.booleans()):
            at = draw(st.sampled_from(found))
            text = text[:at] + text[at + len(marker):]
            continue
        after = [i + 1 for i, c in enumerate(text) if c in '"[],']
        at = draw(st.sampled_from(after) if after and draw(st.booleans()) else st.integers(0, len(text)))
        text = text[:at] + marker + text[at:]
    return text


def _identities(samples) -> list[int]:
    """For each ranking the samples state, in order, the index of the
    first that is the same object."""
    rankings = [id(r) for s in samples for r in (s.final_ranking, *s.ranking_sequence) if r is not None]
    return [rankings.index(r) for r in rankings]


# Two other layouts of a store line: the writer's with non-ASCII characters
# escaped, which still reads from its ranking texts, and keys in reverse
# order, which reads through the general decode.
_RELAYOUTS = (lambda record: json.dumps(record, sort_keys=True),
              lambda record: json.dumps(dict(reversed(record.items())), ensure_ascii=False))


def _relaid(draw, text: str) -> str:
    """`text`, a store, with some of its lines in another layout."""
    lines = io.StringIO(text).readlines()
    for at in draw(st.lists(st.integers(0, len(lines) - 1), max_size=len(lines))):
        lines[at] = draw(st.sampled_from(_RELAYOUTS))(json.loads(lines[at])) + "\n"
    return "".join(lines)


def _read_through(path) -> tuple[list, tuple | None]:
    """Each query iter_samples yields from the store at `path`, with the
    `_identities` of its samples, and the exception it stops with, if any."""
    queries = []
    try:
        for lines, samples in iter_samples(str(path)):
            queries.append((lines, samples, _identities(samples)))
    except Exception as exc:
        return queries, (type(exc), str(exc))
    return queries, None


def _general_read(path) -> tuple[list, tuple | None]:
    """`_read_through` with every line decoded whole."""
    with mock.patch.object(rio, "_split_sample", return_value=None):
        return _read_through(path)


class TestSamples:
    def test_round_trip_identity(self, tmp_path):
        samples = [
            make_sample(1),
            make_sample(2, score=None, valid=False, final_ranking=None,
                        ranking_sequence=(), error="no parseable ranking", coverage=None),
            make_sample(3, token_len_source="endpoint-reported", score=0.3333333333333333),
        ]
        p = tmp_path / "samples.jsonl"
        write_store(samples, p)
        assert read_store(p) == samples

    def test_empty_list_is_empty_file(self, tmp_path):
        p = tmp_path / "samples.jsonl"
        write_store([], p)
        assert p.read_text() == ""
        assert read_store(p) == []

    def test_corrupted_line_names_the_line(self, tmp_path):
        p = tmp_path / "samples.jsonl"
        write_store([make_sample(1)], p)
        with open(p, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ParseError, match=r":2: corrupted"):
            read_store(p)

    def test_blank_lines_between_and_inside_queries_are_skipped(self, tmp_path):
        samples = [make_sample(1), make_sample(2), make_sample(1, query_id="q2")]
        p = tmp_path / "samples.jsonl"
        write_store(samples, p)
        first, second, third = p.read_text().splitlines(keepends=True)
        p.write_text("\n" + first + "  \n" + second + "\n\t\u3000\n\n" + third + "\n", encoding="utf-8")
        assert list(iter_samples(str(p))) == [([first, second], samples[:2]), ([third], samples[2:])]

    def test_corrupted_line_of_a_later_query_names_its_own_line(self, tmp_path):
        samples = [make_sample(1), make_sample(2), make_sample(1, query_id="q2")]
        p = tmp_path / "samples.jsonl"
        write_store(samples, p)
        with open(p, "a") as fh:
            fh.write('{"query_id": "q2", \n')
        queries = iter_samples(str(p))
        assert next(queries)[1] == samples[:2]
        with pytest.raises(ParseError, match=r":4: corrupted"):
            next(queries)

    def test_schema_version_mismatch(self, tmp_path):
        p = tmp_path / "samples.jsonl"
        record = {"schema_version": 999}
        p.write_text(json.dumps(record) + "\n")
        with pytest.raises(ParseError, match="schema version mismatch"):
            read_store(p)

    @pytest.mark.parametrize("name", list(SAMPLE_FIELD_TYPES))
    def test_missing_field_names_the_line(self, tmp_path, name):
        p = tmp_path / "samples.jsonl"
        write_store([make_sample(1), make_sample(2)], p)
        first, second = p.read_text().splitlines()
        record = json.loads(second)
        del record[name]
        p.write_text(first + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=rf":2: invalid sample record: '{name}'"):
            read_store(p)

    @pytest.mark.parametrize("field, value", [
        ("final_ranking", ["D1", "X2"]),
        ("final_ranking", [{"D": 0, "1": 0}, {"X": 0, "2": 0}]),
        ("final_ranking", [[1, 2]]),
        ("final_ranking", "D1"),
        ("final_ranking", [[]]),
        ("final_ranking", [["1"], ["1"]]),
        ("ranking_sequence", [["D1", "X2"]]),
        ("ranking_sequence", [[["1", None]]]),
        ("final_ranking", [[["x"]]]),
        ("final_ranking", [[{"a": 1}]]),
        ("ranking_sequence", [[[["x"]]]]),
        ("ranking_sequence", [[[{"a": 1}]]]),
    ])
    def test_malformed_ranking_names_the_line(self, tmp_path, field, value):
        # Line 1 holds [["D", "1"], ["X", "2"]], whose tuple form is also
        # that of the string groups "D1" and "X2" and of the dict groups.
        first_sample = make_sample(1, final_ranking=Ranking(groups=(("D", "1"), ("X", "2"))))
        p = tmp_path / "samples.jsonl"
        write_store([first_sample, make_sample(2)], p)
        first, second = p.read_text().splitlines()
        record = json.loads(second)
        record[field] = value
        p.write_text(first + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=r":2: invalid sample record: "):
            read_store(p)

    @pytest.mark.parametrize("field, value", [
        ("valid", "no"),
        ("query_id", 7),
        ("coverage", "x"),
        ("final_ranking", []),
        ("ranking_sequence", ""),
        ("ranking_sequence", {}),
        ("sample_index", True),
        ("token_len", 17.0),
        ("token_len_source", None),
        ("score", "0.75"),
        ("raw_text", None),
        ("reasoning_text", ["some reasoning"]),
        ("error", 0),
        ("prompt_hash", {"abc": 123}),
    ])
    def test_mistyped_field_names_the_line(self, tmp_path, field, value):
        p = tmp_path / "samples.jsonl"
        write_store([make_sample(1), make_sample(2)], p)
        first, second = p.read_text().splitlines()
        record = json.loads(second)
        record[field] = value
        p.write_text(first + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=rf":2: invalid sample record: field '{field}'"):
            read_store(p)

    def test_one_ranking_object_per_distinct_ranking(self, tmp_path):
        one_two, two_one = Ranking(groups=(("1",), ("2",))), Ranking(groups=(("2",), ("1",)))
        samples = [
            make_sample(1, final_ranking=one_two, ranking_sequence=(one_two, two_one, one_two)),
            make_sample(2, final_ranking=Ranking(groups=(("1",), ("2",))), ranking_sequence=(two_one,)),
            make_sample(3, final_ranking=None, valid=False, ranking_sequence=(two_one, one_two), score=None),
        ]
        p = tmp_path / "samples.jsonl"
        write_store(samples, p)
        read = read_store(p)
        assert read == samples
        rankings = [r for s in read for r in (s.final_ranking, *s.ranking_sequence) if r is not None]
        assert len(rankings) == 8
        assert len({id(r) for r in rankings}) == 2

    @staticmethod
    def encoded(sample):
        out = io.StringIO()
        write_samples([sample], out)
        return out.getvalue()

    def test_scored_line_keeps_the_bytes_before_its_score(self, tmp_path):
        sample = make_sample(1)
        line = '{"a_note": "hand-written",   ' + self.encoded(sample)[1:]
        out = io.StringIO()
        write_scored_samples([line], [sample], [0.25], out)
        assert out.getvalue() == line.replace('"score": 0.75,', '"score": 0.25,')
        (tmp_path / "s.jsonl").write_text(out.getvalue())
        assert read_store(tmp_path / "s.jsonl") == [TrajectorySample.from_fields({**vars(sample), "score": 0.25})]

    @pytest.mark.parametrize("score", [True, 1])
    def test_scored_sample_of_another_score_type_is_refused(self, score):
        sample = make_sample(1)
        with pytest.raises(ValueError, match="field 'score' must be float or null, got "):
            write_scored_samples([self.encoded(sample)], [sample], [score], io.StringIO())

    def test_unknown_key_is_ignored(self, tmp_path):
        p = tmp_path / "samples.jsonl"
        write_store([make_sample(1)], p)
        record = json.loads(p.read_text())
        record["finish_reason"] = "stop"
        p.write_text(json.dumps(record) + "\n")
        assert read_store(p) == [make_sample(1)]

    def test_record_is_the_sample_fields_plus_schema_version(self, tmp_path):
        p = tmp_path / "samples.jsonl"
        write_store([make_sample(1)], p)
        names = set(SAMPLE_FIELD_TYPES)
        assert set(json.loads(p.read_text())) == names | {"schema_version"}

    def test_writer_is_deterministic(self, tmp_path):
        samples = [make_sample(1), make_sample(2)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_store(samples, a)
        write_store(samples, b)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_random_samples(self, tmp_path):
        rng = random.Random(20240601)
        for trial in range(50):
            samples = []
            for i in range(rng.randint(0, 4)):
                valid = rng.random() < 0.7
                samples.append(make_sample(
                    i + 1,
                    score=rng.random() if valid else None,
                    valid=valid,
                    final_ranking=Ranking(groups=(("1",), ("2",))) if valid else None,
                    coverage=rng.random() if valid else None,
                    error=None if valid else "err",
                    token_len=rng.randint(0, 10_000),
                ))
            p = tmp_path / f"samples-{trial}.jsonl"
            write_store(samples, p)
            assert read_store(p) == samples

    @staticmethod
    def dumped(samples) -> str:
        """The store lines of `samples` as `json.dumps` writes them."""
        records = []
        for sample in samples:
            record = _fields(sample)
            record["final_ranking"] = None if sample.final_ranking is None else sample.final_ranking.groups
            record["ranking_sequence"] = [r.groups for r in sample.ranking_sequence]
            record["schema_version"] = 1
            records.append(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
        return "".join(records)

    @settings(max_examples=examples(150), deadline=None)
    @given(st.data())
    def test_record_is_what_json_dumps_writes(self, data):
        query_id = data.draw(_TEXTS)
        samples = data.draw(st.lists(_samples(query_id), max_size=4))
        out = io.StringIO()
        write_samples(samples, out)
        assert out.getvalue() == self.dumped(samples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.jsonl"
            path.write_text(out.getvalue(), encoding="utf-8")
            assert read_store(path) == samples

    @pytest.mark.parametrize("raw_text, reasoning_text, cut", [
        ('<think>\n"a"\t\\ \u2028\U0001F600\n</think>\nFinal: [1] > [2]', '\n"a"\t\\ \u2028\U0001F600\n', True),
        ('\x00 "a" <think>\x7f\n</think>"', '\x7f\n', True),
        ('<think></think>\n"a"', "", True),
        ('"a"\n\t\U0001F600 [1] > [2]', '"a"\n\t\U0001F600 ', True),
        # After a second think marker, and in no place at all: escaped on its own.
        ('"x"\n<think>\t<think>\n"a"\u2028\n</think>', '\n"a"\u2028\n', False),
        ('"x"\n<think>\t</think>', '"x"\t', False),
    ])
    def test_reasoning_cut_from_the_raw_text_is_what_json_dumps_writes(self, raw_text, reasoning_text, cut):
        """A reasoning where split_reasoning takes it from is not escaped on
        its own; one found elsewhere is, and both write json.dumps's bytes."""
        sample = make_sample(1, raw_text=raw_text, reasoning_text=reasoning_text)
        with mock.patch.object(rio, "encode_basestring", wraps=rio.encode_basestring) as escape:
            line = self.encoded(sample)
        assert line == self.dumped([sample])
        assert (mock.call(reasoning_text) not in escape.call_args_list) == cut


def _fields(sample: TrajectorySample) -> dict:
    return {name: getattr(sample, name) for name in SAMPLE_FIELD_TYPES}


# A value of each type some field holds, and of types none does.
_ANY_VALUES = (None, True, 0, 1.0, "x", Ranking(groups=(("x",), ("y",))), (), [], {})


class TestFromFields:
    """TrajectorySample.from_fields, the constructor every stage builds its
    samples with, builds what the keyword constructor builds and refuses
    what it refuses, with the same messages."""

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_builds_the_keyword_built_sample(self, data):
        sample = data.draw(_samples(data.draw(_TEXTS)))
        fields = _fields(sample)
        order = data.draw(st.permutations(list(fields)))
        built = TrajectorySample.from_fields({name: fields[name] for name in order})
        assert built == sample
        assert repr(built) == repr(sample)

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_a_missing_or_unknown_field_is_named(self, data):
        fields = _fields(data.draw(_samples(data.draw(_TEXTS))))
        missing = data.draw(st.lists(st.sampled_from(list(fields)), unique=True, max_size=3))
        unknown = data.draw(st.lists(_TEXTS.filter(lambda name: name not in fields), unique=True, max_size=2))
        if not missing and not unknown:
            missing = [data.draw(st.sampled_from(list(fields)))]
        for name in missing:
            del fields[name]
        fields.update(dict.fromkeys(unknown, 0))
        with pytest.raises(ValueError) as refused:
            TrajectorySample.from_fields(fields)
        message = str(refused.value)
        assert all(f"missing field {name!r}" in message for name in missing)
        assert all(f"unknown field {name!r}" in message for name in unknown)

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_each_wrongly_typed_field_gets_the_keyword_message(self, data):
        fields = _fields(data.draw(_samples(data.draw(_TEXTS))))
        for name, kinds in SAMPLE_FIELD_TYPES.items():
            value = data.draw(st.sampled_from([value for value in _ANY_VALUES if type(value) not in kinds]))
            bad = {**fields, name: value}
            with pytest.raises(ValueError) as keyword:
                TrajectorySample(**bad)
            with pytest.raises(ValueError) as mapping:
                TrajectorySample.from_fields(bad)
            assert str(mapping.value) == str(keyword.value) == str(field_type_error(name, value))


class TestSplitRecords:
    """A line in the layout write_samples writes is read from its cut-out
    ranking texts, each decoded once per query; it reads as the general
    decode reads it, or fails as that fails."""

    @staticmethod
    def store(tmp_path, text: str) -> Path:
        path = tmp_path / "samples.jsonl"
        path.write_text(text, encoding="utf-8")
        return path

    @settings(max_examples=examples(150), deadline=None)
    @given(st.data())
    def test_split_reads_what_the_general_decode_reads(self, data):
        text = _mutated(data.draw, data.draw(_stores()))
        with tempfile.TemporaryDirectory() as tmp:
            path = self.store(Path(tmp), text)
            assert _read_through(path) == _general_read(path)

    @pytest.mark.parametrize("old, new", [
        ('"schema_version": 1', '"schema_version": 2'),
        ('"valid": true}', '"valid": tru}'),
        ('"final_ranking": [["1"], ["2"]]', '"final_ranking": null 1'),
        # A ranking text that holds more than one JSON value.
        ('"final_ranking": [["1"], ["2"]]', '"final_ranking": [["1"], ["2"]], [["9"]]'),
        ('"final_ranking": [["1"], ["2"]]', '"final_ranking": [["1"]], [[], ["2"]]'),
        # A ranking key repeated after "valid": its last value is the one read.
        ('"valid": true}', '"valid": true, "final_ranking": [["2"], ["1"]]}'),
        ('"valid": true}', '"valid": true, "ranking_sequence": []}'),
        ('"valid": true}', '"valid": true, "final\\u005franking": null}'),
    ])
    def test_an_edited_line_reads_as_the_general_decode(self, tmp_path, old, new):
        """Line 1 states the rankings line 2 does, so line 2's are looked up."""
        first, second = TestSamples.encoded(make_sample(1)), TestSamples.encoded(make_sample(2))
        assert old in second
        path = self.store(tmp_path, first + second.replace(old, new))
        assert _read_through(path) == _general_read(path)

    @pytest.mark.parametrize("first, second", [
        # A doc id holding "]], [[": the ranking is cut in the wrong place.
        ('"ranking_sequence": [[["x]], [[y"]]]', '"final_ranking": [["x]], [["y"]]'),
        # Rankings cut in the wrong place that make a valid list together;
        # the second line's final ranking is not JSON.
        ('"ranking_sequence": [[["a]], [[b"]],[["c"]]]', '"final_ranking": [["a]]'),
        ('"ranking_sequence": [[["a"], []], [["b"]]]', '"final_ranking": [["a"], []]'),
    ])
    def test_rankings_cut_in_the_wrong_place_read_as_the_general_decode(self, tmp_path, first, second):
        line = TestSamples.encoded(make_sample(1))
        lines = [line.replace('"ranking_sequence": [[["1"], ["2"]], [["2"], ["1"]]]', first),
                 line.replace('"final_ranking": [["1"], ["2"]]', second)]
        path = self.store(tmp_path, "".join(lines))
        assert _read_through(path) == _general_read(path)

    @pytest.mark.parametrize("member, value", [("prompt_hash", '"abc123"'), ("query_id", '"q1"')])
    def test_a_member_that_hides_a_ranking_sequence_is_not_split(self, tmp_path, member, value):
        """An object in place of a string member holds the only
        "ranking_sequence" key, and the line still has every other key."""
        line = TestSamples.encoded(make_sample(1)).replace(
            ', "ranking_sequence": [[["1"], ["2"]], [["2"], ["1"]]]', "").replace(
            f'"{member}": {value}', f'"{member}": {{"k": 0, "ranking_sequence": [[["1"]]], "raw_text": 0}}')
        assert rio._cut_rankings(line) is None
        path = self.store(tmp_path, line)
        assert _read_through(path) == _general_read(path)

    def test_a_query_id_spelt_two_ways_is_one_query(self, tmp_path):
        """The query's rankings are kept across lines whose query ids differ
        in spelling only: the id is read from the decoded record."""
        first, second = TestSamples.encoded(make_sample(1)), TestSamples.encoded(make_sample(2))
        second = second.replace('"query_id": "q1"', '"query_id": "\\u00711"')
        assert splits(first) and splits(second)
        path = self.store(tmp_path, first + second)
        queries, error = _read_through(path)
        assert error is None and len(queries) == 1
        assert queries[0][2] == [0, 0, 2, 0, 0, 2]
        assert (queries, error) == _general_read(path)

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_every_line_the_writer_writes_is_split(self, data):
        """A change to the writer's layout fails here, not only in the
        read times: every line it writes is read from its ranking texts,
        the first to state a ranking as well as those that state it again,
        and none is decoded whole."""
        query_id = data.draw(_TEXTS)
        samples = data.draw(st.lists(_samples(query_id), min_size=1, max_size=4))
        out = io.StringIO()
        write_samples(samples + samples, out)
        assert all(map(splits, io.StringIO(out.getvalue())))
        with tempfile.TemporaryDirectory() as tmp:
            path = self.store(Path(tmp), out.getvalue())
            with mock.patch.object(rio, "_decode_sample", wraps=rio._decode_sample) as whole:
                assert read_store(path) == samples + samples
        assert whole.call_args_list == []

    @pytest.mark.parametrize("coverage", [float("inf"), float("-inf"), float("nan"), -0.0, 1e16, 5e-324])
    def test_every_coverage_the_writer_writes_is_split(self, coverage):
        assert splits(TestSamples.encoded(make_sample(1, coverage=coverage)))


class TestStoreReader:
    """iter_samples reads a store as tests/reference.py reads it, one query
    at a time."""

    @staticmethod
    def read(reader, path) -> tuple[list | None, int | None]:
        """Each query `reader` reads from `path`, with the `_identities` of
        its samples; or the line of the ParseError it raises."""
        try:
            return [(lines, samples, _identities(samples)) for lines, samples in reader(str(path))], None
        except ParseError as exc:
            return None, exc.line

    @settings(max_examples=examples(150), deadline=None)
    @given(st.data())
    def test_reads_as_the_reference_reads(self, data):
        text = _mutated(data.draw, _relaid(data.draw, data.draw(_stores())))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.jsonl"
            path.write_text(text, encoding="utf-8")
            got, want = self.read(iter_samples, path), self.read(read_queries, path)
        assert got == want

    def test_a_query_s_rankings_go_at_its_boundary(self, tmp_path):
        """Every line of query B is in another key order, so it is decoded
        whole, and states the rankings query A states. Once the reader has
        passed B, nothing holds A's Rankings but A's samples."""
        by_query = {query_id: [make_sample(1, query_id=query_id), make_sample(2, query_id=query_id)]
                    for query_id in ("qA", "qB", "qC")}
        out = io.StringIO()
        for query_id, samples in by_query.items():
            for line in map(TestSamples.encoded, samples):
                out.write(json.dumps(dict(reversed(json.loads(line).items()))) + "\n" if query_id == "qB" else line)
        path = tmp_path / "samples.jsonl"
        path.write_text(out.getvalue(), encoding="utf-8")
        queries = iter_samples(str(path))
        _, a = next(queries)
        refs = [weakref.ref(r) for s in a for r in (s.final_ranking, *s.ranking_sequence)]
        del a
        (_, b), (_, c) = next(queries), next(queries)
        assert (b, c) == (by_query["qB"], by_query["qC"])
        assert [ref() for ref in refs] == [None] * 6


def _target(query_id: str, raw_text: str, prompt_hash: str | None) -> TrajectorySample:
    """A valid scored sample of `query_id` whose text is `raw_text`."""
    ranking = Ranking(groups=(("1",), ("2",)))
    return TrajectorySample(query_id=query_id, sample_index=1, raw_text=raw_text, reasoning_text="",
                            final_ranking=ranking, ranking_sequence=(ranking,), token_len=12,
                            token_len_source="approximated", score=0.9, prompt_hash=prompt_hash)


class TestSftCorpus:
    def _record(self, with_hash=True):
        query, universe = make_query(), make_universe(2)
        template = default_template()
        phash = hash_messages(build_prompt(query, universe, template)) if with_hash else None
        return (query, universe, _target(query.id, "reasoned [1] > [2]", phash)), template

    @staticmethod
    def _write(records, template) -> str:
        out = io.StringIO()
        write_sft_corpus(records, template, out)
        return out.getvalue()

    def test_one_record_one_line_with_three_messages(self):
        record, template = self._record()
        lines = self._write([record], template).splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "sft-chat-messages"
        body = json.loads(lines[1])
        assert [m["role"] for m in body["messages"]] == ["system", "user", "assistant"]
        assert body["messages"][2]["content"] == "reasoned [1] > [2]"
        assert len(lines) == 2

    def test_empty_corpus_writes_the_header_only(self):
        _, template = self._record()
        assert [json.loads(line) for line in self._write([], template).splitlines()] == [
            {"format": "sft-chat-messages", "template": template.name, "version": 1}]

    def test_template_mismatch_rejected(self):
        record, template = self._record()
        from rerank_distill.sampling import PromptTemplate
        other = PromptTemplate(name="other", system="different", user="{passages} {query}")
        with pytest.raises(ConfigError, match="hash mismatch"):
            self._write([record], other)

    def test_deterministic_and_sorted_by_query(self):
        template = default_template()
        records = []
        for qid in ("aa", "zz"):
            query, universe = make_query(qid), make_universe(2, qid)
            records.append((query, universe, _target(qid, "t", None)))
        assert self._write(records, template) == self._write(iter(records), template)
        for unsorted in (list(reversed(records)), records[:1] * 2):
            with pytest.raises(ValueError, match="give the corpus in query id order"):
                self._write(unsorted, template)


class TestReports:
    def _eval_report(self):
        return eval_report_payload(
            EvalReport(per_query={"q1": (0.4, 100), "q2": (0.8, 300)}, mean_ndcg10=0.6, mean_len=200.0),
            [{"lo": 100.0, "hi": 200.0, "mean_ndcg10": 0.4, "count": 1},
             {"lo": 200.0, "hi": 300.0, "mean_ndcg10": 0.8, "count": 1}],
        )

    def test_json_is_canonical_and_fixed_precision(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(self._eval_report(), str(p))
        text = p.read_text()
        assert '"mean_ndcg10": 0.600000' in text
        payload = read_report(str(p))
        assert payload["kind"] == "eval"
        assert payload["mean_ndcg10"] == pytest.approx(0.6, abs=1e-6)
        assert payload["per_query"]["q2"]["gen_len"] == 300

    def test_json_read_back_within_1e6(self, tmp_path):
        p = tmp_path / "r.json"
        report = EvalReport(per_query={"q": (0.123456789, 10)},
                            mean_ndcg10=0.123456789, mean_len=10.0)
        write_report(eval_report_payload(report, []), str(p))
        assert read_report(str(p))["mean_ndcg10"] == pytest.approx(0.123456789, abs=1e-6)

    def test_eval_report_reads_back_what_it_wrote(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(self._eval_report(), str(p))
        report = read_eval_report(str(p))
        assert (report.per_query, report.mean_ndcg10, report.mean_len) == ({"q1": (0.4, 100), "q2": (0.8, 300)},
                                                                           0.6, 200.0)

    def test_report_of_another_kind_is_not_an_eval_report(self, tmp_path):
        p = tmp_path / "r.json"
        write_report(redundancy_report(rows=[]), str(p))
        with pytest.raises(ParseError, match="a 'redundancy' report, not an eval report"):
            read_eval_report(str(p))

    def test_identical_bytes_for_identical_values(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_report(self._eval_report(), str(a))
        write_report(self._eval_report(), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_members_of_every_type_render_canonically(self, tmp_path):
        class Tag(str):
            pass

        p = tmp_path / "r.json"
        write_report({"kind": "comparison", "rows": [
            {"tag": Tag('a"é'), "on": True, "gap": None, "xs": [1, 2.5, (False, "x"), []], "d": {}},
        ]}, str(p))
        assert p.read_text(encoding="utf-8") == (
            '{\n  "kind": "comparison",\n  "rows": [\n    {\n      "d": {},\n      "gap": null,\n'
            '      "on": true,\n      "tag": "a\\"é",\n      "xs": [\n        1,\n        2.500000,\n'
            '        [\n          false,\n          "x"\n        ],\n        []\n      ]\n    }\n  ]\n}\n')
        for bad in (float("nan"), [float("inf")], {"x": -float("inf")}):
            with pytest.raises(ValueError, match="non-finite float"):
                write_report({"kind": "comparison", "rows": [{"x": bad}]}, str(p))

    def test_redundancy_table_layout(self, tmp_path):
        payload = redundancy_report(rows=[{"model_tag": "teacher", "avg_trr": 0.21,
                                           "avg_mor": 0.293, "n_traces": 5}])
        p = tmp_path / "r.csv"
        write_report(payload, str(p), format="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "model_tag,avg_trr,avg_mor"
        assert lines[1] == "teacher,0.210000,0.293000"

    def test_csv_is_refused_for_a_kind_that_is_not_a_table(self, tmp_path):
        rows = [{"query_id": "q1", "n_sampled": 4, "n_valid": 3, "mean_score": 0.5, "mean_len": 120.0,
                 "efficient_indices": [1, 3], "retained": True}]
        for payload in (self._eval_report(), filter_stats_report(rows, retention_rate=1.0)):
            with pytest.raises(ValueError, match=f"no CSV layout for report kind '{payload['kind']}'"):
                write_report(payload, str(tmp_path / "r.csv"), format="csv")
        assert list(tmp_path.iterdir()) == []

    def test_empty_per_query_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty per_query"):
            write_report({"kind": "eval", "per_query": {}}, str(tmp_path / "r.json"))

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report format"):
            write_report(self._eval_report(), str(tmp_path / "r.xml"), format="xml")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown report kind"):
            write_report({"kind": "mystery"}, str(tmp_path / "r.json"))

    def test_none_bucket_mean_serializes_as_null(self, tmp_path):
        report = eval_report_payload(
            EvalReport(per_query={"a": (0.5, 100), "b": (0.5, 400)}, mean_ndcg10=0.5, mean_len=250.0),
            [{"lo": 100.0, "hi": 250.0, "mean_ndcg10": 0.5, "count": 2},
             {"lo": 250.0, "hi": 400.0, "mean_ndcg10": None, "count": 0}],
        )
        p = tmp_path / "r.json"
        write_report(report, str(p))
        assert '"mean_ndcg10": null' in p.read_text()
