import dataclasses
import hashlib
import io
import json
import logging
import subprocess
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rerank_distill
from rerank_distill import cli
from rerank_distill.cli import main
from rerank_distill.errors import TransportError
from rerank_distill.io import read_report, write_report
from rerank_distill.metrics import aggregate_report
from rerank_distill.models import Ranking, TrajectorySample
from rerank_distill.sampling import GenerationBackend

from conftest import MIXED_MODES_YAML, read_store, write_pipeline_workspace, write_store


# sha256 of each output of run_pipeline(seed=77) over
# write_pipeline_workspace(n_queries=5).
GOLDEN_DIGESTS = {
    "samples": "54ecf62f2df9e3156e9876be068376be4f952b913034100cb31ca0e2522999c9",
    "scored": "f2277898df564653d0eea5717e40af32c7ad471ce720c2145890cfa3d57fdcbb",
    "report": "4388d82e33c73f0ffffd9c0568278d2620df5f9648caab71b1241d68556c8faa",
    "corpus": "ddcb2fda58ff78fb21070bac056d5c6463d559d44c7519d50426b1c390ce1df6",
    "stats": "7d47a4f65b3459c999c1afa1e1091cdcd9b1fce015ec044bec5502e67151f0d7",
    "redundancy": "05ac8dc40a5bad2db745b547413a4a4031b37a47427abe78a73073ec20a4ee6d",
    "merged": "5c69071a4c821bdb28a048bb9d1eae45a3a60ee20ed9dee4365047d59088e502",
}


@pytest.fixture
def workspace(tmp_path):
    return tmp_path, write_pipeline_workspace(tmp_path, n_queries=3, n_docs=8)


def run_pipeline(tmp_path, paths, out_dir, seed=11, k=None):
    out_dir.mkdir(exist_ok=True)
    samples = str(out_dir / "samples.jsonl")
    scored = str(out_dir / "samples.scored.jsonl")
    report = str(out_dir / "eval.json")
    corpus = str(out_dir / "corpus.jsonl")
    stats = str(out_dir / "corpus.stats.json")
    redundancy = str(out_dir / "redundancy.json")
    merged = str(out_dir / "comparison.json")

    assert main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                 "--corpus", paths["corpus"], "--config", paths["config"],
                 "--qrels", paths["qrels"], "--depth", "8",
                 "--backend", "mock", "--seed", str(seed), "--out", samples]) == 0
    assert main(["evaluate", "--samples", samples, "--qrels", paths["qrels"],
                 "--out", report, "--scored-out", scored]) == 0
    assert main(["build-corpus", "--samples", scored, "--topics", paths["topics"],
                 "--run-file", paths["run"], "--corpus", paths["corpus"],
                 "--config", paths["config"], "--depth", "8",
                 "--out", corpus, "--stats", stats]) == 0
    assert main(["analyze-redundancy", "--samples", scored,
                 "--model-tag", "mock-teacher", "--out", redundancy]) == 0
    assert main(["report", f"mock={report}", "--bucket-count", "4", "--out", merged]) == 0
    return {"samples": samples, "scored": scored, "report": report,
            "corpus": corpus, "stats": stats, "redundancy": redundancy, "merged": merged}


class TestPipelineStages:
    def test_full_mock_pipeline(self, workspace):
        tmp_path, paths = workspace
        outs = run_pipeline(tmp_path, paths, tmp_path / "out")

        samples = read_store(outs["samples"])
        assert len(samples) == 3 * 16  # 3 queries, distill profile K=16
        assert all(s.valid for s in samples)

        scored = read_store(outs["scored"])
        assert all(s.score is not None for s in scored)

        report = read_report(outs["report"])
        assert report["kind"] == "eval"
        assert set(report["per_query"]) == {"q001", "q002", "q003"}
        # first sample per query comes from the ideal mode
        assert report["mean_ndcg10"] == pytest.approx(1.0)

        stats = read_report(outs["stats"])
        assert stats["kind"] == "filter_stats"
        assert len(stats["rows"]) == 3

        corpus_lines = [json.loads(line) for line in Path(outs["corpus"]).read_text().splitlines()]
        assert corpus_lines[0]["format"] == "sft-chat-messages"
        assert all([m["role"] for m in line["messages"]] == ["system", "user", "assistant"]
                   for line in corpus_lines[1:])

        redundancy = read_report(outs["redundancy"])
        assert redundancy["rows"][0]["model_tag"] == "mock-teacher"
        assert 0 <= redundancy["rows"][0]["avg_trr"] < 1

        merged = read_report(outs["merged"])
        assert merged["rows"][0]["tag"] == "mock"
        assert len(merged["curves"]["mock"]) >= 1

    def test_missing_run_file_is_validation_error(self, workspace, capsys):
        tmp_path, paths = workspace
        code = main(["sample", "--topics", paths["topics"], "--run-file", str(tmp_path / "nope.txt"),
                     "--corpus", paths["corpus"], "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[1]", '"x"', "3", "null"])
    def test_sample_line_that_is_not_an_object_is_parse_error(self, tmp_path, capsys, line):
        samples = tmp_path / "s.jsonl"
        samples.write_text(line + "\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\n")
        code = main(["evaluate", "--samples", str(samples), "--qrels", str(qrels),
                     "--out", str(tmp_path / "eval.json")])
        assert code == 1
        assert "s.jsonl:1: invalid sample record: not a JSON object" in capsys.readouterr().err

    def test_k_zero_is_config_error(self, workspace, capsys):
        tmp_path, paths = workspace
        (tmp_path / "bad.yaml").write_text("profiles:\n  distill: {k_samples: 0}\n")
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(tmp_path / "bad.yaml"),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert "k_samples" in capsys.readouterr().err

    @pytest.mark.parametrize("section, message", [
        ("profiles: {distill: [1, 2]}", "sampling profile 'distill' must be a mapping, got list"),
        ("profiles: [1, 2]", "profiles section must be a mapping, got list"),
        ("mock: x", "mock section must be a mapping, got str"),
        ("paths: [1, 2]", "paths section must be a mapping, got list"),
    ])
    def test_non_mapping_config_section_is_config_error(self, workspace, capsys, section, message):
        tmp_path, paths = workspace
        (tmp_path / "bad.yaml").write_text(section + "\n")
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(tmp_path / "bad.yaml"),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, message", [
        ("profiles: {distill: {k_samples: 2.5}}", "profiles.distill.k_samples must be int, got float 2.5"),
        ("mock: {modes: [{filler_sentences: 2.5}]}",
         "mock.modes[0].filler_sentences must be int, got float 2.5"),
    ])
    def test_sampling_setting_of_another_type_is_config_error(self, workspace, capsys, setting, message):
        tmp_path, paths = workspace
        (tmp_path / "bad.yaml").write_text(setting + "\n")
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(tmp_path / "bad.yaml"),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_missing_required_flag_is_exit_1(self, workspace, capsys):
        code = main(["sample", "--topics", "t.tsv"])
        assert code == 1

    def test_http_backend_without_endpoint_is_config_error(self, workspace):
        tmp_path, paths = workspace
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--backend", "http",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1

    def test_unreachable_endpoint_is_backend_failure(self, workspace):
        tmp_path, paths = workspace
        cfg = tmp_path / "http.yaml"
        cfg.write_text(
            "endpoint: {url: 'http://127.0.0.1:1/v1/chat/completions', model: m,\n"
            "  timeout_s: 0.2, max_retries: 0, backoff_base_s: 0.0}\n"
            "profiles: {distill: {k_samples: 2}}\n"
        )
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(cfg),
                     "--backend", "http", "--out", str(tmp_path / "s.jsonl")])
        assert code == 2

    def test_all_invalid_samples_build_empty_corpus_exit_0(self, workspace, tmp_path):
        _, paths = workspace
        bad = [TrajectorySample(query_id="q001", sample_index=k, raw_text="mumble",
                                reasoning_text="mumble", final_ranking=None, ranking_sequence=(),
                                token_len=1, token_len_source="approximated", valid=False,
                                error="no parseable ranking")
               for k in (1, 2)]
        samples_path = tmp_path / "invalid.jsonl"
        write_store(bad, samples_path)
        corpus = tmp_path / "corpus.jsonl"
        code = main(["build-corpus", "--samples", str(samples_path), "--topics", paths["topics"],
                     "--run-file", paths["run"], "--corpus", paths["corpus"], "--depth", "8",
                     "--out", str(corpus)])
        assert code == 0
        stats = read_report(str(tmp_path / "corpus.stats.json"))
        assert stats["retention_rate"] == 0.0
        assert len(corpus.read_text().splitlines()) == 1  # header only

    def test_sample_reads_only_the_run_passages(self, tmp_path, caplog):
        paths = sample_workspace(tmp_path, 2, "profiles: {distill: {k_samples: 2}}\n")
        clean = Path(paths["corpus"]).read_text()
        padded = tmp_path / "padded.tsv"
        padded.write_text("zz-d01\tunused\n" + clean + "zz-d01\tunused again\nzz-d02\talso unused\n")
        assert sample_stage(paths, tmp_path / "clean.jsonl") == 0
        with caplog.at_level(logging.WARNING):
            assert sample_stage({**paths, "corpus": str(padded)}, tmp_path / "padded.jsonl") == 0
        assert (tmp_path / "padded.jsonl").read_bytes() == (tmp_path / "clean.jsonl").read_bytes()
        assert "repeated passage" not in caplog.text

    def test_report_rejects_mismatched_query_sets(self, workspace, tmp_path, capsys):
        _, paths = workspace
        from rerank_distill.io import write_report
        a = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10}},
             "mean_ndcg10": 0.5, "mean_len": 10.0, "length_buckets": []}
        b = {"kind": "eval", "per_query": {"q2": {"ndcg10": 0.5, "gen_len": 10}},
             "mean_ndcg10": 0.5, "mean_len": 10.0, "length_buckets": []}
        write_report(a, str(tmp_path / "a.json"))
        write_report(b, str(tmp_path / "b.json"))
        code = main(["report", f"one={tmp_path / 'a.json'}", f"two={tmp_path / 'b.json'}",
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "q1" in err and "q2" in err

    def test_report_single_passthrough(self, workspace, tmp_path):
        _, paths = workspace
        from rerank_distill.io import write_report
        a = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10}},
             "mean_ndcg10": 0.5, "mean_len": 10.0, "length_buckets": []}
        write_report(a, str(tmp_path / "a.json"))
        code = main(["report", f"solo={tmp_path / 'a.json'}", "--out", str(tmp_path / "m.json")])
        assert code == 0
        merged = read_report(str(tmp_path / "m.json"))
        assert merged["rows"] == [{"tag": "solo", "mean_ndcg10": pytest.approx(0.5),
                                   "mean_len": pytest.approx(10.0)}]

    @pytest.mark.parametrize("bucket_count", ["0", "-2"])
    def test_report_bucket_count_below_one_is_validation_error(self, tmp_path, capsys, bucket_count):
        from rerank_distill.io import write_report
        a = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10},
                                           "q2": {"ndcg10": 0.7, "gen_len": 20}},
             "mean_ndcg10": 0.6, "mean_len": 15.0, "length_buckets": []}
        write_report(a, str(tmp_path / "a.json"))
        code = main(["report", f"solo={tmp_path / 'a.json'}", "--bucket-count", bucket_count,
                     "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert f"error: bucket_count must be >= 1, got {bucket_count}" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_report_repeated_tag_is_validation_error(self, tmp_path, capsys):
        from rerank_distill.io import write_report
        a = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10}},
             "mean_ndcg10": 0.5, "mean_len": 10.0, "length_buckets": []}
        write_report(a, str(tmp_path / "a.json"))
        code = main(["report", f"a={tmp_path / 'a.json'}", f"b={tmp_path / 'a.json'}",
                     f"a={tmp_path / 'a.json'}", "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert "error: report tag 'a' is given twice" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("payload, member", [
        ({"kind": "eval"}, "'per_query'"),
        ({"kind": "eval", "per_query": {}, "mean_ndcg10": 0.5, "mean_len": 10.0}, "'per_query'"),
        ({"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10}}, "mean_len": 10.0}, "'mean_ndcg10'"),
        ({"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10}}, "mean_ndcg10": 0.5,
          "mean_len": "10"}, "'mean_len'"),
        ({"kind": "eval", "per_query": {"q1": 3}, "mean_ndcg10": 0.5, "mean_len": 10.0}, "per_query['q1']"),
        ({"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5}}, "mean_ndcg10": 0.5, "mean_len": 10.0},
         "per_query['q1']"),
        ({"kind": "eval", "per_query": {"q1": {"ndcg10": 0.5, "gen_len": 10.0}}, "mean_ndcg10": 0.5,
          "mean_len": 10.0}, "per_query['q1']['gen_len'] must be int, got float"),
        ({"kind": "eval", "per_query": {"q1": {"ndcg10": True, "gen_len": 10}}, "mean_ndcg10": 0.5,
          "mean_len": 10.0}, "per_query['q1']['ndcg10'] must be int or float, got bool"),
    ])
    def test_report_refuses_an_eval_report_with_a_missing_or_mistyped_member(self, tmp_path, capsys, payload, member):
        path = tmp_path / "a.json"
        path.write_text(json.dumps(payload))
        code = main(["report", f"a={path}", "--out", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert str(path) in err and member in err
        assert not (tmp_path / "m.json").exists()

    def test_report_refuses_means_that_contradict_the_per_query_values(self, tmp_path, capsys):
        path = tmp_path / "a.json"
        path.write_text(json.dumps({"kind": "eval", "per_query": {"q": {"ndcg10": 0.5, "gen_len": 10}},
                                    "mean_ndcg10": 0.9, "mean_len": 10.0, "length_buckets": []}))
        assert main(["report", f"a={path}", "--out", str(tmp_path / "m.json")]) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: eval report member 'mean_ndcg10' is 0.9" in err
        assert not (tmp_path / "m.json").exists()

    def test_report_on_a_file_that_is_not_json_names_the_file_and_line(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"kind": "eval", "per_query": {"q": {"ndcg10": 0.5, "gen_len": 10}},
                                    "mean_ndcg10": 0.5, "mean_len": 10.0}))
        bad.write_text("{")
        assert main(["report", f"a={good}", f"b={bad}", "--out", str(tmp_path / "m.json")]) == 1
        assert f"error: {bad}:1: not a JSON report" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.text("q0123456789", min_size=1, max_size=4),
                           st.tuples(st.floats(0.0, 1.0), st.integers(0, 10_000)), min_size=1, max_size=30))
    # Written at 6 decimal places, the per-query values average 0.3333335
    # and the mean reads 0.333334, as on eval-wide's own eval report.
    @example({"q1": (0.3333334, 10), "q2": (0.3333336, 20)})
    def test_report_reads_every_eval_report_evaluate_writes(self, per_query):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = f"{tmp}/eval.json", f"{tmp}/m.json"
            write_report(aggregate_report(per_query), path)
            assert main(["report", f"a={path}", "--out", out]) == 0
            [row], stored = read_report(out)["rows"], read_report(path)
            assert (row["mean_ndcg10"], row["mean_len"]) == (stored["mean_ndcg10"], stored["mean_len"])

    def test_report_two_tags_two_rows(self, workspace, tmp_path):
        _, paths = workspace
        from rerank_distill.io import write_report
        base = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.6, "gen_len": 2000}},
                "mean_ndcg10": 0.6, "mean_len": 2000.0, "length_buckets": []}
        slim = {"kind": "eval", "per_query": {"q1": {"ndcg10": 0.6, "gen_len": 1300}},
                "mean_ndcg10": 0.6, "mean_len": 1300.0, "length_buckets": []}
        write_report(base, str(tmp_path / "base.json"))
        write_report(slim, str(tmp_path / "slim.json"))
        out = tmp_path / "m.csv"
        code = main(["report", f"teacher={tmp_path / 'base.json'}",
                     f"student={tmp_path / 'slim.json'}",
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "tag,mean_ndcg10,mean_len"
        assert lines[1] == "teacher,0.600000,2000.000000"
        assert lines[2] == "student,0.600000,1300.000000"

    def test_redundancy_csv_format(self, workspace, tmp_path):
        tmp2, paths = workspace
        outs = run_pipeline(tmp2, paths, tmp2 / "out2")
        csv_out = tmp_path / "red.csv"
        assert main(["analyze-redundancy", "--samples", outs["scored"],
                     "--model-tag", "t", "--format", "csv", "--out", str(csv_out)]) == 0
        assert csv_out.read_text().splitlines()[0] == "model_tag,avg_trr,avg_mor"


def test_golden_digests(tmp_path):
    """Every stage output of a fixed mock run, pinned byte for byte. A
    change that moves one of these digests changes the pipeline's output and
    must say so."""
    paths = write_pipeline_workspace(tmp_path, n_queries=5)
    outs = run_pipeline(tmp_path, paths, tmp_path / "out", seed=77)
    got = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in outs.items()}
    assert got == GOLDEN_DIGESTS


def route_backend(monkeypatch, generate):
    """Send every request the `sample` stage makes through
    `generate(inner, request)`, where `inner` is the backend the CLI built."""
    factory = cli._backend_for

    class Routed(GenerationBackend):
        def __init__(self, inner):
            self.inner = inner

        def generate(self, request):
            return generate(self.inner, request)

    monkeypatch.setattr(cli, "_backend_for", lambda args, config: Routed(factory(args, config)))


class InFlight:
    """A `generate` for route_backend that holds each request for `delay_s`
    and records the peak number of requests outstanding at once."""

    def __init__(self, delay_s):
        self.delay_s = delay_s
        self.lock = threading.Lock()
        self.now = self.peak = 0

    def __call__(self, inner, request):
        with self.lock:
            self.now += 1
            self.peak = max(self.peak, self.now)
        try:
            time.sleep(self.delay_s)
            return inner.generate(request)
        finally:
            with self.lock:
                self.now -= 1


def sample_workspace(tmp_path, n_queries, profile=""):
    return write_pipeline_workspace(tmp_path, n_queries=n_queries, n_docs=8,
                                    config_extra=MIXED_MODES_YAML + profile)


def sample_stage(paths, out, *extra):
    return main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                 "--corpus", paths["corpus"], "--config", paths["config"], "--qrels", paths["qrels"],
                 "--depth", "8", "--backend", "mock", "--seed", "11", "--out", str(out), *extra])


class TestSampleStage:
    """The stage's one pool: queries are sampled concurrently, a query's K
    requests one after another."""

    def test_requests_in_flight_are_bounded_by_max_in_flight(self, tmp_path, monkeypatch):
        paths = sample_workspace(tmp_path, 6, "profiles: {distill: {k_samples: 2, max_in_flight: 3}}\n")
        in_flight = InFlight(0.03)
        route_backend(monkeypatch, in_flight)
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert 2 <= in_flight.peak <= 3
        assert len(read_store(tmp_path / "s.jsonl")) == 12

    def test_eval_profile_samples_queries_concurrently(self, tmp_path, monkeypatch):
        paths = sample_workspace(tmp_path, 8)
        in_flight = InFlight(0.03)
        route_backend(monkeypatch, in_flight)
        assert sample_stage(paths, tmp_path / "s.jsonl", "--profile", "eval") == 0
        assert 1 < in_flight.peak <= 4  # the eval profile: K=1, max_in_flight 4

    def test_store_does_not_depend_on_completion_order(self, tmp_path, monkeypatch):
        paths = sample_workspace(tmp_path, 6, "profiles: {distill: {k_samples: 3, max_in_flight: 3}}\n")
        assert sample_stage(paths, tmp_path / "plain.jsonl") == 0

        def earlier_queries_slower(inner, request):
            time.sleep(0.01 * (7 - int(request.query_id[1:])))
            return inner.generate(request)

        route_backend(monkeypatch, earlier_queries_slower)
        assert sample_stage(paths, tmp_path / "slow.jsonl") == 0
        assert (tmp_path / "slow.jsonl").read_bytes() == (tmp_path / "plain.jsonl").read_bytes()

    # With 25 queries and max_in_flight 2 (a window of 16, refilled 8 at a
    # time), q010 is the second query of the second batch.
    @pytest.mark.parametrize("n_queries, max_in_flight, down", [(4, 3, "q002"), (25, 2, "q010")])
    def test_unreachable_query_is_reported_and_the_rest_written(self, tmp_path, monkeypatch, capsys,
                                                                 n_queries, max_in_flight, down):
        paths = sample_workspace(tmp_path, n_queries,
                                 f"profiles: {{distill: {{k_samples: 2, max_in_flight: {max_in_flight}}}}}\n")
        assert sample_stage(paths, tmp_path / "all.jsonl") == 0

        def one_query_down(inner, request):
            if request.query_id == down:
                raise TransportError(f"{down} endpoint timed out")
            return inner.generate(request)

        route_backend(monkeypatch, one_query_down)
        capsys.readouterr()
        assert sample_stage(paths, tmp_path / "s.jsonl") == 2
        assert f"1 queries failed at the backend: ['{down}']" in capsys.readouterr().err
        expected = [line for line in (tmp_path / "all.jsonl").read_text().splitlines()
                    if json.loads(line)["query_id"] != down]
        assert (tmp_path / "s.jsonl").read_text().splitlines() == expected
        assert [(s.query_id, s.sample_index) for s in read_store(tmp_path / "s.jsonl")] == [
            (f"q{q:03d}", k) for q in range(1, n_queries + 1) if f"q{q:03d}" != down for k in (1, 2)]

    def test_unexpected_error_stops_the_stage_without_sending_queued_queries(self, tmp_path, monkeypatch):
        paths = sample_workspace(tmp_path, 8, "profiles: {distill: {k_samples: 2, max_in_flight: 2}}\n")
        generated = set()

        def q001_broken(inner, request):
            if request.query_id == "q001":
                raise RuntimeError("unexpected backend bug")
            time.sleep(0.05)
            generated.add(request.query_id)
            return inner.generate(request)

        route_backend(monkeypatch, q001_broken)
        with pytest.raises(RuntimeError, match="unexpected backend bug"):
            sample_stage(paths, tmp_path / "s.jsonl")
        assert len(generated) <= 2
        assert not (tmp_path / "s.jsonl").exists()

    def test_queries_submitted_and_unwritten_stay_within_the_window(self, tmp_path, monkeypatch):
        # max_in_flight 2: a window of 16 queries, refilled 8 at a time.
        paths = sample_workspace(tmp_path, 40, "profiles: {distill: {k_samples: 1, max_in_flight: 2}}\n")
        submitted = 0

        class CountingPool(cli.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                nonlocal submitted
                submitted += 1
                return super().submit(*args, **kwargs)

        backlog = []
        write_samples = cli.rio.write_samples

        def counting_write(samples, fh):
            backlog.append(submitted - len(backlog))
            return write_samples(samples, fh)

        def slow_first_query(inner, request):
            if request.query_id == "q001":
                time.sleep(0.2)
            return inner.generate(request)

        monkeypatch.setattr(cli, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.rio, "write_samples", counting_write)
        route_backend(monkeypatch, slow_first_query)
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert len(backlog) == submitted == 40
        assert backlog[0] == 16
        assert max(backlog) <= 16

    @pytest.mark.parametrize("n_queries", [3, 16, 25])
    def test_store_does_not_depend_on_max_in_flight(self, tmp_path, monkeypatch, n_queries):
        # Windows of 8, 16, 24 and 64 queries: 3 queries fill less than one
        # batch of any; 16 fill two windows of 8 and one of 16; 25 are one
        # past the window of 24. Later queries finish first.
        paths = sample_workspace(tmp_path, n_queries)

        def later_queries_faster(inner, request):
            time.sleep(0.001 * (n_queries - int(request.query_id[1:])))
            return inner.generate(request)

        route_backend(monkeypatch, later_queries_faster)
        stores = {}
        for max_in_flight in (1, 2, 3, 8):
            Path(paths["config"]).write_text(
                MIXED_MODES_YAML + f"profiles: {{distill: {{k_samples: 2, max_in_flight: {max_in_flight}}}}}\n")
            out = tmp_path / f"s{max_in_flight}.jsonl"
            assert sample_stage(paths, out) == 0
            stores[max_in_flight] = out.read_bytes()
        assert len(set(stores.values())) == 1
        assert [(s.query_id, s.sample_index) for s in read_store(tmp_path / "s1.jsonl")] == [
            (f"q{q:03d}", k) for q in range(1, n_queries + 1) for k in (1, 2)]

    @pytest.mark.parametrize("broken", [False, True])
    def test_stage_closes_its_backend(self, tmp_path, monkeypatch, broken):
        paths = sample_workspace(tmp_path, 4, "profiles: {distill: {k_samples: 2, max_in_flight: 2}}\n")
        factory = cli._backend_for
        closed = []

        class Closing(GenerationBackend):
            def __init__(self, inner):
                self.inner = inner

            def generate(self, request):
                if broken and request.query_id == "q002":
                    raise RuntimeError("unexpected backend bug")
                return self.inner.generate(request)

            def close(self):
                closed.append(self)

        monkeypatch.setattr(cli, "_backend_for", lambda args, config: Closing(factory(args, config)))
        if broken:
            with pytest.raises(RuntimeError, match="unexpected backend bug"):
                sample_stage(paths, tmp_path / "s.jsonl")
        else:
            assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert len(closed) == 1


class TestOutputOnAnInput:
    """`sample` and `report` refuse an output that names one of their
    inputs before they write anything; the offline stages' cases are in
    TestStoreStreaming."""

    @pytest.mark.parametrize("source", ["--topics", "--run-file", "--corpus", "--config", "--qrels"])
    def test_sample_out_on_an_input_is_config_error(self, tmp_path, capsys, monkeypatch, source):
        paths = sample_workspace(tmp_path, 2)
        flags = {"--topics": "topics", "--run-file": "run", "--corpus": "corpus",
                 "--config": "config", "--qrels": "qrels"}
        before = {name: Path(path).read_bytes() for name, path in paths.items()}
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert sample_stage(paths, Path(paths[flags[source]]).name) == 1
        assert f"error: --out and {source} name the same file" in capsys.readouterr().err
        assert {name: Path(path).read_bytes() for name, path in paths.items()} == before

    def test_sample_out_on_the_template_is_config_error(self, tmp_path, capsys):
        paths = sample_workspace(tmp_path, 2)
        template = tmp_path / "template.yaml"
        template.write_text('name: t\nsystem: "s"\nuser: "{passages} {query}"\n')
        before = template.read_bytes()
        capsys.readouterr()
        assert sample_stage(paths, tmp_path / "." / "template.yaml", "--template", str(template)) == 1
        assert "error: --out and --template name the same file" in capsys.readouterr().err
        assert template.read_bytes() == before

    def test_report_out_on_an_input_is_config_error(self, workspace, tmp_path, capsys):
        root, paths = workspace
        outs = run_pipeline(root, paths, tmp_path / "out")
        before = Path(outs["report"]).read_bytes()
        capsys.readouterr()
        assert main(["report", f"a={outs['report']}", "--out", outs["report"]]) == 1
        assert f"error: --out and a={outs['report']} name the same file" in capsys.readouterr().err
        assert Path(outs["report"]).read_bytes() == before


class TestStoreStreaming:
    """Each stage holds one query's samples at a time: a store keeps each
    query's records together, queries in ascending id order, and a stage
    writes its outputs only once it has succeeded."""

    OFFLINE = {
        "evaluate": lambda store, paths, out: [
            "evaluate", "--samples", store, "--qrels", paths["qrels"],
            "--out", str(out / "eval.json"), "--scored-out", str(out / "scored.jsonl")],
        "build-corpus": lambda store, paths, out: [
            "build-corpus", "--samples", store, "--topics", paths["topics"], "--run-file", paths["run"],
            "--corpus", paths["corpus"], "--config", paths["config"], "--depth", "8",
            "--out", str(out / "corpus.jsonl"), "--stats", str(out / "stats.json")],
        "analyze-redundancy": lambda store, paths, out: [
            "analyze-redundancy", "--samples", store, "--out", str(out / "redundancy.json")],
    }

    @pytest.fixture
    def scored(self, tmp_path):
        """A scored store of 5 queries x K=2, and the workspace it came from."""
        paths = sample_workspace(tmp_path, 5, "profiles: {distill: {k_samples: 2}}\n")
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert main(["evaluate", "--samples", str(tmp_path / "s.jsonl"), "--qrels", paths["qrels"],
                     "--out", str(tmp_path / "eval.json"),
                     "--scored-out", str(tmp_path / "scored.jsonl")]) == 0
        return tmp_path / "scored.jsonl", paths

    @pytest.mark.parametrize("stage", OFFLINE)
    @pytest.mark.parametrize("order", [
        [2, 3, 0, 1, 4, 5, 6, 7, 8, 9],  # q002 before q001
        [0, 2, 1, 3, 4, 5, 6, 7, 8, 9],  # q001 and q002 interleaved
    ])
    def test_store_out_of_query_order_is_parse_error(self, scored, tmp_path, capsys, stage, order):
        store, paths = scored
        lines = store.read_text().splitlines(keepends=True)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[i] for i in order))
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()
        assert main(self.OFFLINE[stage](str(bad), paths, out)) == 1
        assert "bad.jsonl:3: query 'q001' follows query 'q002'" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("existing", [b"earlier scored store\n", None])
    def test_evaluate_of_an_empty_run_leaves_scored_out_as_it_was(self, tmp_path, capsys, existing):
        invalid = [TrajectorySample(query_id="q001", sample_index=k, raw_text="mumble", reasoning_text="mumble",
                                    final_ranking=None, ranking_sequence=(), token_len=1,
                                    token_len_source="approximated", valid=False, error="no parseable ranking")
                   for k in (1, 2)]
        write_store(invalid, tmp_path / "invalid.jsonl")
        (tmp_path / "qrels.txt").write_text("q001 0 d1 1\n")
        out = tmp_path / "out"
        out.mkdir()
        if existing is not None:
            (out / "scored.jsonl").write_bytes(existing)
        capsys.readouterr()
        assert main(self.OFFLINE["evaluate"](str(tmp_path / "invalid.jsonl"),
                                             {"qrels": str(tmp_path / "qrels.txt")}, out)) == 1
        assert "cannot aggregate an empty run" in capsys.readouterr().err
        expected = {} if existing is None else {"scored.jsonl": existing}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected

    def test_failed_corpus_write_keeps_the_previous_corpus(self, scored, tmp_path, capsys):
        store, paths = scored
        out = tmp_path / "out"
        out.mkdir()
        argv = self.OFFLINE["build-corpus"](str(store), paths, out)
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        edited = tmp_path / "edited.yaml"
        edited.write_text('name: edited\nsystem: "another system prompt"\nuser: "{passages} {query}"\n')
        capsys.readouterr()
        assert main(argv + ["--template", str(edited)]) == 1
        assert "hash mismatch" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("existing", [b"earlier output\n", None])
    @pytest.mark.parametrize("stage, first, second", [
        ("evaluate", "scored.jsonl", "eval.json"),
        ("build-corpus", "corpus.jsonl", "stats.json"),
    ])
    def test_failed_second_output_leaves_the_first_as_it_was(self, scored, tmp_path, capsys,
                                                              stage, first, second, existing):
        store, paths = scored
        out = tmp_path / "out"
        out.mkdir()
        if existing is not None:
            (out / first).write_bytes(existing)
        argv = self.OFFLINE[stage](str(store), paths, out)
        argv[argv.index(str(out / second))] = str(tmp_path / "missing" / second)
        capsys.readouterr()
        assert main(argv) == 1
        assert "No such file or directory" in capsys.readouterr().err
        expected = {} if existing is None else {first: existing}
        assert {p.name: p.read_bytes() for p in out.iterdir()} == expected

    @pytest.mark.parametrize("stage, first, second, flag", [
        ("evaluate", "scored.jsonl", "eval.json", "--scored-out"),
        ("build-corpus", "corpus.jsonl", "stats.json", "--stats"),
    ])
    def test_two_outputs_on_one_path_is_config_error(self, scored, tmp_path, capsys, monkeypatch,
                                                     stage, first, second, flag):
        store, paths = scored
        out = tmp_path / "out"
        out.mkdir()
        (out / first).write_bytes(b"earlier output\n")
        argv = self.OFFLINE[stage](str(store), paths, out)
        monkeypatch.chdir(out)
        argv[argv.index(str(out / second))] = first  # the same file, by another spelling
        capsys.readouterr()
        assert main(argv) == 1
        assert f"error: --out and {flag} name the same file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == {first: b"earlier output\n"}

    @pytest.mark.parametrize("stage, output, source", [
        ("evaluate", "--out", "--samples"),
        ("evaluate", "--out", "--qrels"),
        ("evaluate", "--scored-out", "--qrels"),
        ("build-corpus", "--out", "--samples"),
        ("build-corpus", "--stats", "--samples"),
        ("build-corpus", "--out", "--topics"),
        ("build-corpus", "--stats", "--run-file"),
        ("build-corpus", "--out", "--corpus"),
        ("build-corpus", "--stats", "--config"),
        ("analyze-redundancy", "--out", "--samples"),
    ])
    def test_output_on_an_input_is_config_error(self, scored, tmp_path, capsys, monkeypatch,
                                                stage, output, source):
        store, paths = scored
        out = tmp_path / "out"
        out.mkdir()
        argv = self.OFFLINE[stage](str(store), paths, out)
        source_path = Path(argv[argv.index(source) + 1])
        before = source_path.read_bytes()
        monkeypatch.chdir(source_path.parent)
        argv[argv.index(output) + 1] = source_path.name  # the same file, by another spelling
        capsys.readouterr()
        assert main(argv) == 1
        assert f"error: {output} and {source} name the same file" in capsys.readouterr().err
        assert source_path.read_bytes() == before
        assert list(out.iterdir()) == []

    def test_scoring_a_store_in_place_writes_the_same_bytes(self, tmp_path):
        paths = sample_workspace(tmp_path, 3, "profiles: {distill: {k_samples: 3}}\n")
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        in_place = tmp_path / "in_place.jsonl"
        in_place.write_bytes((tmp_path / "s.jsonl").read_bytes())
        for samples, scored_out in ((tmp_path / "s.jsonl", tmp_path / "scored.jsonl"), (in_place, in_place)):
            assert main(["evaluate", "--samples", str(samples), "--qrels", paths["qrels"],
                         "--out", str(tmp_path / "eval.json"), "--scored-out", str(scored_out)]) == 0
        assert in_place.read_bytes() == (tmp_path / "scored.jsonl").read_bytes()

    @staticmethod
    def hold_weakly(monkeypatch, name, samples_of):
        """Wrap `rio.<name>`; on each call, count the samples of the call two
        before that are still alive, then take weak references to the
        samples of this one. Returns the counts and the references."""
        from rerank_distill import io as rio

        alive, refs = [], []
        inner = getattr(rio, name)

        def wrapper(*args):
            if len(refs) >= 2:
                alive.append(sum(ref() is not None for ref in refs[-2]))
            result = inner(*args)
            refs.append([weakref.ref(sample) for sample in samples_of(args, result)])
            return result

        monkeypatch.setattr(rio, name, wrapper)
        return alive, refs

    def test_sample_stage_releases_each_query_once_written(self, tmp_path, monkeypatch):
        paths = sample_workspace(tmp_path, 6, "profiles: {distill: {k_samples: 2, max_in_flight: 2}}\n")
        alive, refs = self.hold_weakly(monkeypatch, "write_samples", lambda args, result: args[0])
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert len(refs) == 6
        assert alive == [0] * 4

    @pytest.mark.parametrize("stage", OFFLINE)
    def test_offline_stage_releases_each_query_once_done(self, scored, tmp_path, monkeypatch, stage):
        store, paths = scored
        read_alive, read_refs = self.hold_weakly(monkeypatch, "read_samples", lambda args, result: result)
        # evaluate writes each query's samples with their scores, which are
        # floats and take no weak reference.
        write_alive, write_refs = self.hold_weakly(monkeypatch, "write_scored_samples",
                                                   lambda args, result: args[1])
        out = tmp_path / "out"
        out.mkdir()
        assert main(self.OFFLINE[stage](str(store), paths, out)) == 0
        assert len(read_refs) == 5  # one read per query
        assert read_alive == [0] * 3
        assert write_alive == ([0] * 3 if stage == "evaluate" else [])


class TestScoredStore:
    """evaluate copies each store line and writes only the members from
    "score" on anew; its scored store is what write_samples writes for the
    scored samples, and a record in another layout is encoded again."""

    @pytest.fixture
    def store(self, tmp_path):
        """A store written by `sample`, 3 queries x K=3, and its workspace."""
        paths = sample_workspace(tmp_path, 3, "profiles: {distill: {k_samples: 3}}\n")
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        return tmp_path / "s.jsonl", paths

    @pytest.fixture
    def encoded(self, monkeypatch):
        """The number of samples evaluate passes to write_samples."""
        from rerank_distill import io as rio

        counts = []
        inner = rio.write_samples

        def counting(samples, out):
            counts.append(len(samples))
            inner(samples, out)

        monkeypatch.setattr(rio, "write_samples", counting)
        return counts

    @staticmethod
    def expected(store, qrels) -> bytes:
        """write_samples of every sample of `store`, scored against `qrels`."""
        from rerank_distill import io as rio
        from rerank_distill.metrics import attach_scores

        out = io.StringIO()
        judgments = rio.read_qrels(str(qrels))
        for _, samples in rio.iter_samples(str(store)):
            scores = attach_scores(samples, judgments)
            rio.write_samples([dataclasses.replace(s, score=score) for s, score in zip(samples, scores)], out)
        return out.getvalue().encode()

    @staticmethod
    def evaluate(store, qrels, scored_out) -> bytes:
        assert main(["evaluate", "--samples", str(store), "--qrels", str(qrels), "--out",
                     str(Path(scored_out).parent / "eval.json"), "--scored-out", str(scored_out)]) == 0
        return Path(scored_out).read_bytes()

    def test_each_distinct_final_ranking_is_scored_once(self, store, tmp_path, monkeypatch):
        from rerank_distill import metrics

        path, paths = store
        valid = [(s.query_id, s.final_ranking) for s in read_store(path) if s.valid]
        calls = []
        inner = metrics.ndcg_at_k

        def spy(ranking, qrels, query_id):
            calls.append((query_id, ranking))
            return inner(ranking, qrels, query_id)

        monkeypatch.setattr(metrics, "ndcg_at_k", spy)
        self.evaluate(path, paths["qrels"], tmp_path / "scored.jsonl")
        assert len(set(valid)) < len(valid)  # some samples repeat a final ranking
        assert sorted(calls, key=str) == sorted(set(valid), key=str)

    def test_unjudged_query_warns_and_scores_zero(self, store, tmp_path, caplog):
        path, paths = store
        qrels = Path(paths["qrels"])
        qrels.write_text("".join(line for line in qrels.read_text().splitlines(keepends=True)
                                 if not line.startswith("q002 ")))
        with caplog.at_level(logging.WARNING):
            self.evaluate(path, qrels, tmp_path / "scored.jsonl")
        assert [r.getMessage() for r in caplog.records if "no judgments" in r.getMessage()] == [
            "query q002 has no judgments; scoring against grade 0"]
        per_query = read_report(str(tmp_path / "eval.json"))["per_query"]
        assert per_query["q002"]["ndcg10"] == 0.0
        assert per_query["q001"]["ndcg10"] > 0.0

    def test_store_written_by_sample(self, store, tmp_path, encoded):
        path, paths = store
        expected = self.expected(path, paths["qrels"])
        encoded.clear()
        assert self.evaluate(path, paths["qrels"], tmp_path / "scored.jsonl") == expected
        assert encoded == []

    @pytest.mark.parametrize("qrels", ["same", "changed"])
    def test_scored_store_rescored_in_place(self, store, tmp_path, encoded, qrels):
        path, paths = store
        self.evaluate(path, paths["qrels"], path)
        if qrels == "changed":  # other grades, so the stored scores are out of date
            lines = Path(paths["qrels"]).read_text().splitlines()
            Path(paths["qrels"]).write_text("".join(
                f"{qid} 0 {doc} {int(doc[-2:]) % 4}\n" for qid, _, doc, _ in map(str.split, lines)))
        expected = self.expected(path, paths["qrels"])
        before = path.read_bytes()
        encoded.clear()
        assert self.evaluate(path, paths["qrels"], path) == expected
        assert encoded == []
        assert (expected == before) == (qrels == "same")

    @pytest.mark.parametrize("layout", ["keys in another order", "a key after valid", "trailing spaces"])
    def test_record_in_another_layout_is_encoded_again(self, store, tmp_path, encoded, layout):
        path, paths = store
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[4])
        if layout == "keys in another order":
            lines[4] = json.dumps(dict(reversed(record.items()))) + "\n"
        elif layout == "a key after valid":
            lines[4] = json.dumps({**record, "zz_note": "kept out"}, sort_keys=True) + "\n"
        else:
            lines[4] = lines[4][:-1] + "   \n"
        path.write_text("".join(lines))
        expected = self.expected(path, paths["qrels"])
        encoded.clear()
        assert self.evaluate(path, paths["qrels"], tmp_path / "scored.jsonl") == expected
        assert encoded == [1]

    def test_last_line_without_newline(self, store, tmp_path, encoded):
        path, paths = store
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        expected = self.expected(path, paths["qrels"])
        encoded.clear()
        scored = self.evaluate(path, paths["qrels"], tmp_path / "scored.jsonl")
        assert scored == expected
        assert scored.endswith(b"}\n")
        assert encoded == []

    def test_invalid_sample_is_copied_unchanged(self, tmp_path, encoded):
        def sample(k, **fields):
            ranking = Ranking(groups=(("d1",), ("d2",)))
            return TrajectorySample(**{
                "query_id": "q001", "sample_index": k, "raw_text": "[1] > [2]", "reasoning_text": "",
                "final_ranking": ranking, "ranking_sequence": (ranking,), "token_len": 5,
                "token_len_source": "approximated", **fields})

        write_store([sample(1), sample(2, final_ranking=None, valid=False, error="truncated at max_tokens"),
                     sample(3, raw_text="caf\u00e9 \u2014 [1] > [2]")], tmp_path / "s.jsonl")
        (tmp_path / "qrels.txt").write_text("q001 0 d1 1\n")
        expected = self.expected(tmp_path / "s.jsonl", tmp_path / "qrels.txt")
        encoded.clear()
        scored = self.evaluate(tmp_path / "s.jsonl", tmp_path / "qrels.txt", tmp_path / "scored.jsonl")
        assert scored == expected
        assert encoded == []
        assert scored.splitlines()[1] == (tmp_path / "s.jsonl").read_bytes().splitlines()[1]
        assert [s.score for s in read_store(tmp_path / "scored.jsonl")] == [1.0, None, 1.0]


# Run in a fresh interpreter: argv is the package's source directory, then
# the workspace's topics, run, corpus, qrels and config files, then an
# output directory. Prints the steps after which requests was loaded.
_REQUESTS_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
topics, run, corpus, qrels, config, out = sys.argv[2:]
loaded = []
def check(step):
    if "requests" in sys.modules:
        loaded.append(step)
import rerank_distill
check("import rerank_distill")
from rerank_distill import cli
check("import rerank_distill.cli")
stages = [
    ["sample", "--topics", topics, "--run-file", run, "--corpus", corpus, "--config", config,
     "--qrels", qrels, "--depth", "8", "--backend", "mock", "--seed", "11", "--out", out + "/s.jsonl"],
    ["evaluate", "--samples", out + "/s.jsonl", "--qrels", qrels, "--out", out + "/eval.json"],
    ["report", "mock=" + out + "/eval.json", "--out", out + "/comparison.json"],
]
for argv in stages:
    assert cli.main(argv) == 0, argv[0]
    check(argv[0])
print(loaded)
"""


def test_mock_pipeline_never_imports_requests(tmp_path):
    """Only the HTTP backend needs requests, and it is slow to import."""
    paths = sample_workspace(tmp_path, 2, "profiles: {distill: {k_samples: 2}}\n")
    src = str(Path(rerank_distill.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-I", "-c", _REQUESTS_PROBE, src,
         *(paths[name] for name in ("topics", "run", "corpus", "qrels", "config")), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
