import dataclasses
import io
import json
import logging
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    DistillationRecord,
    EvalReport,
    LengthBucket,
    Qrels,
    QueryFilterStats,
    Ranking,
    TrajectorySample,
)
from rerank_distill.sampling import build_prompt, default_template, hash_messages

from conftest import make_query, make_universe, read_store, write_store


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
def _rankings(draw):
    doc_ids = draw(st.lists(st.text(_CHARS, min_size=1, max_size=4), min_size=1, max_size=6, unique=True))
    ties = draw(st.lists(st.booleans(), min_size=len(doc_ids) - 1, max_size=len(doc_ids) - 1))
    groups = [[doc_ids[0]]]
    for doc_id, tied in zip(doc_ids[1:], ties):
        if tied:
            groups[-1].append(doc_id)
        else:
            groups.append([doc_id])
    return Ranking(groups=tuple(map(tuple, groups)))


@st.composite
def _samples(draw, query_id):
    valid = draw(st.booleans())
    return TrajectorySample(
        query_id=query_id,
        sample_index=draw(st.integers(1, 2**40)),
        raw_text=draw(_TEXTS),
        reasoning_text=draw(_TEXTS),
        final_ranking=draw(_rankings() if valid else st.none() | _rankings()),
        ranking_sequence=tuple(draw(st.lists(_rankings(), max_size=3))),
        token_len=draw(st.integers(0, 2**40)),
        token_len_source=draw(st.sampled_from(["endpoint-reported", "approximated"])),
        score=draw(_FLOATS),
        valid=valid,
        coverage=draw(_FLOATS | st.floats(allow_nan=False, allow_infinity=False)),
        error=draw(st.none() | _TEXTS),
        prompt_hash=draw(st.none() | _TEXTS),
    )


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
        p.write_text("\n" + first + "  \n" + second + "\n\n" + third + "\n")
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

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(TrajectorySample)])
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
        assert read_store(tmp_path / "s.jsonl") == [dataclasses.replace(sample, score=0.25)]

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
        names = {f.name for f in dataclasses.fields(TrajectorySample)}
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_record_is_what_json_dumps_writes(self, data):
        query_id = data.draw(_TEXTS)
        samples = data.draw(st.lists(_samples(query_id), max_size=4))
        out = io.StringIO()
        write_samples(samples, out)
        records = []
        for sample in samples:
            record = {f.name: getattr(sample, f.name) for f in dataclasses.fields(sample)}
            record["final_ranking"] = None if sample.final_ranking is None else sample.final_ranking.groups
            record["ranking_sequence"] = [r.groups for r in sample.ranking_sequence]
            record["schema_version"] = 1
            records.append(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n")
        assert out.getvalue() == "".join(records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "samples.jsonl"
            path.write_text(out.getvalue(), encoding="utf-8")
            assert read_store(path) == samples


class TestSftCorpus:
    def _record(self, with_hash=True):
        query, universe = make_query(), make_universe(2)
        template = default_template()
        phash = hash_messages(build_prompt(query, universe, template)) if with_hash else None
        return DistillationRecord(query=query, candidates=universe, target_text="reasoned [1] > [2]",
                                  target_score=0.9, target_len=12, prompt_hash=phash), template

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
        for qid in ("zz", "aa"):
            query, universe = make_query(qid), make_universe(2, qid)
            records.append(DistillationRecord(
                query=query, candidates=universe, target_text="t",
                target_score=0.5, target_len=1, prompt_hash=None))
        assert self._write(records, template) == self._write(list(reversed(records)), template)


class TestReports:
    def _eval_report(self):
        return EvalReport(
            per_query={"q1": (0.4, 100), "q2": (0.8, 300)},
            mean_ndcg10=0.6, mean_len=200.0,
            length_buckets=(LengthBucket(lo=100.0, hi=200.0, mean_ndcg10=0.4, count=1),
                            LengthBucket(lo=200.0, hi=300.0, mean_ndcg10=0.8, count=1)),
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
        write_report(report, str(p))
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

    def test_eval_csv_columns(self, tmp_path):
        p = tmp_path / "r.csv"
        write_report(self._eval_report(), str(p), format="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "query_id,ndcg10,gen_len"
        assert lines[1] == "q1,0.400000,100"

    def test_redundancy_table_layout(self, tmp_path):
        payload = redundancy_report(rows=[{"model_tag": "teacher", "avg_trr": 0.21,
                                           "avg_mor": 0.293, "n_traces": 5}])
        p = tmp_path / "r.csv"
        write_report(payload, str(p), format="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "model_tag,avg_trr,avg_mor"
        assert lines[1] == "teacher,0.210000,0.293000"

    def test_filter_stats_csv(self, tmp_path):
        stats = [QueryFilterStats(query_id="q1", n_sampled=4, n_valid=3, mean_score=0.5,
                                  mean_len=120.0, efficient_indices=(1, 3), retained=True)]
        p = tmp_path / "s.csv"
        write_report(filter_stats_report(stats, retention_rate=1.0), str(p), format="csv")
        lines = p.read_text().splitlines()
        assert lines[0] == "query_id,n_sampled,n_valid,mean_score,mean_len,efficient_indices,retained"
        assert lines[1] == "q1,4,3,0.500000,120.000000,1;3,true"

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
        report = EvalReport(
            per_query={"a": (0.5, 100), "b": (0.5, 400)},
            mean_ndcg10=0.5, mean_len=250.0,
            length_buckets=(LengthBucket(lo=100.0, hi=250.0, mean_ndcg10=0.5, count=2),
                            LengthBucket(lo=250.0, hi=400.0, mean_ndcg10=None, count=0)),
        )
        p = tmp_path / "r.json"
        write_report(report, str(p))
        assert '"mean_ndcg10": null' in p.read_text()
