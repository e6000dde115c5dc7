import concurrent.futures
import hashlib
import io
import json
import logging
import shlex
import shutil
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
from rerank_distill.io import eval_report_payload, read_report, write_report
from rerank_distill.metrics import aggregate_report, length_buckets
from rerank_distill.models import Ranking, TrajectorySample
from rerank_distill.sampling import GenerationBackend, MockBackend

import reference
from conftest import MIXED_MODES_YAML, examples, read_store, splits, write_pipeline_workspace, write_store


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


def write_eval_report(per_query, path):
    """Write the eval report `evaluate` writes for `per_query`."""
    report = aggregate_report(per_query)
    write_report(eval_report_payload(report, length_buckets(report.per_query, 10)), str(path))


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
        ("mock: {modes: 3}", "mock.modes must be a list, got int"),
        ("mock: {modes: {quality: worst}}", "mock.modes must be a list, got dict"),
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

    @pytest.mark.parametrize("stage", ["sample", "build-corpus"])
    @pytest.mark.parametrize("flag", ["--run-file", "--corpus"])
    def test_run_file_and_corpus_are_required_flags(self, workspace, capsys, stage, flag):
        """The config names no data file, so a stage without either flag
        has nothing to read its candidates from."""
        tmp_path, paths = workspace
        given = {"--topics": paths["topics"], "--run-file": paths["run"], "--corpus": paths["corpus"],
                 "--config": paths["config"], "--out": str(tmp_path / "out.jsonl")}
        if stage == "build-corpus":
            given["--samples"] = str(tmp_path / "s.jsonl")
        del given[flag]
        assert main([stage, *(part for item in given.items() for part in item)]) == 1
        assert f"error: the following arguments are required: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out.jsonl").exists()

    def test_http_backend_without_endpoint_is_config_error(self, workspace):
        tmp_path, paths = workspace
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--backend", "http",
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("setting, key", [
        ("timeout_s: .inf", "endpoint.timeout_s"),
        ("backoff_base_s: .nan", "endpoint.backoff_base_s"),
    ])
    def test_non_finite_endpoint_setting_is_refused_before_any_request(self, workspace, monkeypatch, capsys,
                                                                       setting, key):
        tmp_path, paths = workspace
        requests = []
        monkeypatch.setattr(cli.HttpChatBackend, "generate", lambda self, request: requests.append(request))
        cfg = tmp_path / "http.yaml"
        cfg.write_text(f"endpoint: {{url: 'http://127.0.0.1:1/v1/chat/completions', model: m, {setting}}}\n")
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(cfg),
                     "--backend", "http", "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert f"error: {key} must be a finite number" in capsys.readouterr().err
        assert requests == []

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

    def test_bucket_count_below_one_is_refused_before_any_input_is_read(self, tmp_path, capsys):
        argv = ["report", f"a={tmp_path / 'missing'}", "--bucket-count", "0", "--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        assert "error: bucket_count must be >= 1, got 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_evaluate_takes_no_bucket_count(self, tmp_path, capsys):
        """`evaluate` draws eval.json's curve at 10 buckets; `report` redraws
        it at its own `--bucket-count`."""
        argv = ["evaluate", "--samples", str(tmp_path / "missing.jsonl"), "--qrels", str(tmp_path / "missing"),
                "--bucket-count", "4", "--out", str(tmp_path / "eval.json")]
        assert main(argv) == 1
        assert "error: unrecognized arguments: --bucket-count 4" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("stage", ["sample", "build-corpus"])
    def test_template_that_is_not_yaml_is_validation_error(self, workspace, capsys, stage):
        tmp_path, paths = workspace
        template = tmp_path / "bad.yaml"
        template.write_text("name: x\nsystem: [")
        (tmp_path / "s.jsonl").write_text("")
        inputs = ["--topics", paths["topics"], "--run-file", paths["run"], "--corpus", paths["corpus"],
                  "--config", paths["config"], "--depth", "8", "--template", str(template)]
        argv = {"sample": ["sample", *inputs, "--backend", "mock", "--out", str(tmp_path / "out.jsonl")],
                "build-corpus": ["build-corpus", "--samples", str(tmp_path / "s.jsonl"), *inputs,
                                 "--out", str(tmp_path / "out.jsonl")]}[stage]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: prompt template {template} is not valid YAML: while parsing a flow node"]
        assert "Traceback" not in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("stage", ["sample", "build-corpus"])
    @pytest.mark.parametrize("flag, text, message", [
        ("--config", "endpoint: {max_retries: -1}\n", "endpoint max_retries must be >= 0, got -1"),
        ("--template", 'name: stray\nsystem: s\nuser: "{passages} {query} {"\n',
         "template 'stray' does not render: Single '{' encountered in format string"),
    ], ids=["endpoint", "template"])
    def test_a_bad_endpoint_setting_or_template_is_refused_when_loaded(self, workspace, capsys, stage, flag, text,
                                                                       message):
        """By every stage that loads it, with the mock backend too, before
        any output is written."""
        tmp_path, paths = workspace
        bad = tmp_path / "bad.yaml"
        bad.write_text(text)
        (tmp_path / "s.jsonl").write_text("")
        inputs = {"--topics": paths["topics"], "--run-file": paths["run"], "--corpus": paths["corpus"],
                  "--config": paths["config"], "--depth": "8", flag: str(bad)}
        inputs = [arg for pair in inputs.items() for arg in pair]
        argv = {"sample": ["sample", *inputs, "--backend", "mock", "--out", str(tmp_path / "out.jsonl")],
                "build-corpus": ["build-corpus", "--samples", str(tmp_path / "s.jsonl"), *inputs,
                                 "--out", str(tmp_path / "out.jsonl")]}[stage]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("spec", ["eval.json", "=eval.json"])
    def test_report_input_without_a_tag_is_validation_error(self, tmp_path, monkeypatch, capsys, spec):
        monkeypatch.chdir(tmp_path)
        write_eval_report({"q1": (0.5, 10)}, "eval.json")
        assert main(["report", spec, "--out", "m.json"]) == 1
        assert f"error: report inputs must be tag=path, got {spec!r}" in capsys.readouterr().err
        assert not Path("m.json").exists()

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

    @pytest.mark.parametrize("pair, message", [
        ((float("inf"), 10), "per_query['q1']['ndcg10'] must lie in [0, 1], got inf"),
        ((7.5, 10), "per_query['q1']['ndcg10'] must lie in [0, 1], got 7.5"),
        ((0.5, -3), "per_query['q1']['gen_len'] must be >= 0, got -3"),
    ], ids=["infinite-ndcg10", "ndcg10-above-one", "negative-gen_len"])
    def test_report_refuses_an_eval_report_member_out_of_range(self, tmp_path, capsys, pair, message):
        """Each with the mean it makes, so only its range is wrong."""
        path = tmp_path / "a.json"
        ndcg10, gen_len = pair
        path.write_text(json.dumps({"kind": "eval", "per_query": {"q1": {"ndcg10": ndcg10, "gen_len": gen_len}},
                                    "mean_ndcg10": ndcg10, "mean_len": gen_len}))
        assert main(["report", f"a={path}", "--out", str(tmp_path / "m.json")]) == 1
        assert capsys.readouterr().err == f"error: {path}: eval report member {message}\n"
        assert not (tmp_path / "m.json").exists()

    def test_report_renders_a_mean_stored_as_an_int_as_evaluate_writes_it(self, tmp_path):
        written, by_hand = tmp_path / "written.json", tmp_path / "by-hand.json"
        write_eval_report({"q1": (0.5, 10)}, written)
        payload = read_report(str(written))
        assert (payload["mean_ndcg10"], payload["mean_len"]) == (0.5, 10.0)
        by_hand.write_text(json.dumps({**payload, "mean_len": 10}))
        for path in (written, by_hand):
            assert main(["report", f"a={path}", "--out", str(path.with_suffix(".m.json"))]) == 0
        merged = (tmp_path / "written.m.json").read_bytes()
        assert b'"mean_len": 10.000000' in merged
        assert (tmp_path / "by-hand.m.json").read_bytes() == merged

    def test_report_on_a_file_that_is_not_json_names_the_file_and_line(self, tmp_path, capsys):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps({"kind": "eval", "per_query": {"q": {"ndcg10": 0.5, "gen_len": 10}},
                                    "mean_ndcg10": 0.5, "mean_len": 10.0}))
        bad.write_text("{")
        assert main(["report", f"a={good}", f"b={bad}", "--out", str(tmp_path / "m.json")]) == 1
        assert f"error: {bad}:1: not a JSON report" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    def test_report_on_a_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad8.json"
        bad.write_bytes(b"\xff{}")
        assert main(["report", f"a={bad}", "--out", str(tmp_path / "m.json")]) == 1
        assert f"error: {bad}:1: not UTF-8 text (invalid start byte)" in capsys.readouterr().err

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.text("q0123456789", min_size=1, max_size=4),
                           st.tuples(st.floats(0.0, 1.0), st.integers(0, 10_000)), min_size=1, max_size=30))
    # Written at 6 decimal places, the per-query values average 0.3333335
    # and the mean reads 0.333334, as on eval-wide's own eval report.
    @example({"q1": (0.3333334, 10), "q2": (0.3333336, 20)})
    # Each value sits half-way at the 7th decimal: written, they average
    # 0.726532 and the mean reads 0.726533, one unit apart plus float error.
    @example({"q0": (0.4962215, 2850), "q1": (0.9568435, 1826)})
    def test_report_reads_every_eval_report_evaluate_writes(self, per_query):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = f"{tmp}/eval.json", f"{tmp}/m.json"
            write_eval_report(per_query, path)
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


def _close(got: object, want: object) -> bool:
    """Whether the report value `got` is `want`, floats within 1e-6: a report
    writes each float at six decimal places."""
    if isinstance(want, float):
        return type(got) is float and abs(got - want) <= 1e-6
    if isinstance(want, dict):
        return type(got) is dict and got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return type(got) is list and len(got) == len(want) and all(map(_close, got, want))
    return type(got) is type(want) and got == want


@st.composite
def _mock_workspaces(draw, root: Path) -> tuple[dict[str, str], int, int]:
    """A small mock workspace at `root` of up to three queries, whose
    config samples K of 1-6 under one to four mock modes of any quality;
    with a depth of 1-10 and a seed to sample it at."""
    modes = draw(st.lists(st.fixed_dictionaries({
        "quality": st.sampled_from(["ideal", "worst", "shuffled", "forward"]), "filler_sentences": st.integers(0, 3),
        "restatements": st.integers(0, 3), "revert_loops": st.integers(0, 3)}), min_size=1, max_size=4))
    config = (f"profiles: {{distill: {{k_samples: {draw(st.integers(1, 6))}}}}}\n"
              f"mock: {{modes: {json.dumps(modes)}}}\n")
    paths = write_pipeline_workspace(root, n_queries=draw(st.integers(1, 3)), n_docs=draw(st.integers(2, 10)),
                                     config_extra=config)
    return paths, draw(st.integers(1, 10)), draw(st.integers(0, 2**31))


@st.composite
def _unrepeated_stores(draw) -> list[TrajectorySample]:
    """The samples of a store of up to three queries in which no ranking is
    stated twice: each is a permutation of six doc ids drawn once."""
    query_ids = sorted(draw(st.lists(st.sampled_from(["q1", "q2", "q3"]), min_size=1, max_size=3, unique=True)))
    lengths = [draw(st.lists(st.integers(0, 4), min_size=1, max_size=4)) for _ in query_ids]
    fresh = iter(draw(st.lists(st.permutations([f"d{i}" for i in range(6)]), unique_by=tuple,
                               min_size=sum(map(sum, lengths)), max_size=sum(map(sum, lengths)))))
    samples = []
    for query_id, counts in zip(query_ids, lengths):
        for index, count in enumerate(counts, start=1):
            sequence = tuple(Ranking(groups=tuple((doc_id,) for doc_id in next(fresh))) for _ in range(count))
            samples.append(TrajectorySample(
                query_id=query_id, sample_index=index, raw_text="trace", reasoning_text="",
                final_ranking=sequence[-1] if sequence else None, ranking_sequence=sequence,
                token_len=5, token_len_source="approximated", valid=bool(sequence),
                coverage=1.0 if sequence else None))
    return samples


class TestRedundancyReference:
    """`analyze-redundancy` writes the report tests/reference.py computes
    from the store with brute-force TRR and MOR."""

    @staticmethod
    def analyzed(store: Path) -> tuple[object, object]:
        """The report the stage writes for `store`, or None where it exits 1,
        and the reference's report."""
        out = store.parent / "redundancy.json"
        code = main(["analyze-redundancy", "--samples", str(store), "--model-tag", "mock", "--out", str(out)])
        assert code in (0, 1)
        return read_report(str(out)) if code == 0 else None, reference.redundancy_report(str(store), "mock")

    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_a_mock_store_reads_as_the_reference(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths, depth, seed = data.draw(_mock_workspaces(root))
            qrels = ["--qrels", paths["qrels"]] if data.draw(st.booleans()) else []
            assert main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                         "--corpus", paths["corpus"], "--config", paths["config"], *qrels,
                         "--depth", str(depth), "--backend", "mock", "--seed", str(seed),
                         "--out", str(root / "s.jsonl")]) == 0
            got, want = self.analyzed(root / "s.jsonl")
        assert _close(got, want)

    @settings(max_examples=examples(40), deadline=None)
    @given(_unrepeated_stores())
    def test_a_store_whose_rankings_never_repeat_reads_as_the_reference(self, samples):
        with tempfile.TemporaryDirectory() as tmp:
            store = Path(tmp) / "s.jsonl"
            write_store(samples, store)
            got, want = self.analyzed(store)
        assert _close(got, want)


class TestEvalReference:
    """`evaluate` writes the eval report tests/reference.py computes from
    the store with brute-force nDCG, its length curve at 10 buckets, and
    `report` redraws the curve at any count."""

    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_a_mock_store_scores_as_the_reference(self, data):
        bucket_count = data.draw(st.integers(1, 14))
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths, depth, seed = data.draw(_mock_workspaces(root))
            qrels = ["--qrels", paths["qrels"]] if data.draw(st.booleans()) else []
            store, report, merged = (str(root / name) for name in ("s.jsonl", "eval.json", "comparison.json"))
            assert main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                         "--corpus", paths["corpus"], "--config", paths["config"], *qrels,
                         "--depth", str(depth), "--backend", "mock", "--seed", str(seed), "--out", store]) == 0
            want = reference.eval_report(store, paths["qrels"], 10)
            code = main(["evaluate", "--samples", store, "--qrels", paths["qrels"], "--out", report])
            if want is None:
                assert code == 1
                return
            assert code == 0
            assert _close(read_report(report), want)
            assert main(["report", f"mock={report}", "--bucket-count", str(bucket_count), "--out", merged]) == 0
            rows = [{"tag": "mock", "mean_ndcg10": want["mean_ndcg10"], "mean_len": want["mean_len"]}]
            per_query = {qid: (row["ndcg10"], row["gen_len"]) for qid, row in want["per_query"].items()}
            curve = reference.bucket_rows(per_query, bucket_count)
            assert _close(read_report(merged), {"kind": "comparison", "rows": rows, "curves": {"mock": curve}})


class TestFilterReference:
    """`build-corpus` writes the filter stats tests/reference.py computes
    from the store with brute-force nDCG and the paper's filter, and one
    corpus line per retained query, in query id order, whose assistant
    turn is that query's target."""

    @settings(max_examples=examples(60), deadline=None)
    @given(st.data())
    def test_a_mock_store_filters_as_the_reference(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            paths, depth, seed = data.draw(_mock_workspaces(root))
            qrels = ["--qrels", paths["qrels"]] if data.draw(st.booleans()) else []
            store, scored, report, corpus, stats = (
                str(root / name) for name in ("s.jsonl", "s.scored.jsonl", "eval.json", "corpus.jsonl", "stats.json"))
            inputs = ["--topics", paths["topics"], "--run-file", paths["run"], "--corpus", paths["corpus"],
                      "--config", paths["config"], "--depth", str(depth)]
            assert main(["sample", *inputs, *qrels, "--backend", "mock", "--seed", str(seed), "--out", store]) == 0
            code = main(["evaluate", "--samples", store, "--qrels", paths["qrels"], "--out", report,
                         "--scored-out", scored])
            if code == 1:
                # Nothing to report: no sample is valid, so the store needs no score to be filtered.
                assert reference.eval_report(store, paths["qrels"], 10) is None
                scored = store
            else:
                assert code == 0
            want_stats, want_targets = reference.filter_report(store, paths["qrels"])
            assert main(["build-corpus", "--samples", scored, *inputs, "--out", corpus, "--stats", stats]) == 0
            assert _close(read_report(stats), want_stats)
            topics = dict(line.split("\t") for line in Path(paths["topics"]).read_text().splitlines())
            lines = Path(corpus).read_text(encoding="utf-8").splitlines()
        records = [json.loads(line)["messages"] for line in lines[1:]]
        assert [messages[-1] for messages in records] == [
            {"role": "assistant", "content": text} for _, text in want_targets]
        for messages, (query_id, _) in zip(records, want_targets):
            assert f"Search query: {topics[query_id]}\n" in messages[1]["content"]


def route_backend(monkeypatch, generate, base=GenerationBackend):
    """Send every request the `sample` stage makes through
    `generate(inner, request)`, where `inner` is the backend the CLI built.
    The router subclasses `base`: a GenerationBackend waits, so the stage
    samples it through its pool; a MockBackend does not, so the stage
    samples it on its own thread."""
    factory = cli._backend_for

    class Routed(base):
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


# A backend that waits, which the stage samples through its pool, and one
# that never waits, which it samples on its own thread.
BOTH_PATHS = pytest.mark.parametrize("base", [GenerationBackend, MockBackend], ids=["pool", "stage-thread"])


class TestSampleStage:
    """The stage's one pool: queries are sampled concurrently, a query's K
    requests one after another. A backend that never waits is sampled one
    query at a time on the stage's own thread instead."""

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
    # time), q010 is the second query of the pool's second batch.
    @BOTH_PATHS
    @pytest.mark.parametrize("n_queries, max_in_flight, down", [(4, 3, "q002"), (25, 2, "q010")])
    def test_unreachable_query_is_reported_and_the_rest_written(self, tmp_path, monkeypatch, capsys,
                                                                 n_queries, max_in_flight, down, base):
        paths = sample_workspace(tmp_path, n_queries,
                                 f"profiles: {{distill: {{k_samples: 2, max_in_flight: {max_in_flight}}}}}\n")
        assert sample_stage(paths, tmp_path / "all.jsonl") == 0

        def one_query_down(inner, request):
            if request.query_id == down:
                raise TransportError(f"{down} endpoint timed out")
            return inner.generate(request)

        route_backend(monkeypatch, one_query_down, base)
        capsys.readouterr()
        assert sample_stage(paths, tmp_path / "s.jsonl") == 2
        assert f"1 queries failed at the backend: ['{down}']" in capsys.readouterr().err
        expected = [line for line in (tmp_path / "all.jsonl").read_text().splitlines()
                    if json.loads(line)["query_id"] != down]
        assert (tmp_path / "s.jsonl").read_text().splitlines() == expected
        assert [(s.query_id, s.sample_index) for s in read_store(tmp_path / "s.jsonl")] == [
            (f"q{q:03d}", k) for q in range(1, n_queries + 1) if f"q{q:03d}" != down for k in (1, 2)]

    @BOTH_PATHS
    def test_unexpected_error_stops_the_stage_without_sending_queued_queries(self, tmp_path, monkeypatch, base):
        paths = sample_workspace(tmp_path, 8, "profiles: {distill: {k_samples: 2, max_in_flight: 2}}\n")
        generated = set()

        def q001_broken(inner, request):
            if request.query_id == "q001":
                raise RuntimeError("unexpected backend bug")
            time.sleep(0.05)
            generated.add(request.query_id)
            return inner.generate(request)

        route_backend(monkeypatch, q001_broken, base)
        with pytest.raises(RuntimeError, match="unexpected backend bug"):
            sample_stage(paths, tmp_path / "s.jsonl")
        # The pool's two workers may each have started a query; the stage's
        # own thread starts none after q001.
        assert len(generated) <= (2 if base.waits else 0)
        assert not (tmp_path / "s.jsonl").exists()

    def test_queries_submitted_and_unwritten_stay_within_the_window(self, tmp_path, monkeypatch):
        # max_in_flight 2: a window of 16 queries, refilled 8 at a time.
        paths = sample_workspace(tmp_path, 40, "profiles: {distill: {k_samples: 1, max_in_flight: 2}}\n")
        submitted = 0

        class CountingPool(concurrent.futures.ThreadPoolExecutor):
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

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
        monkeypatch.setattr(cli.rio, "write_samples", counting_write)
        route_backend(monkeypatch, slow_first_query)
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert len(backlog) == submitted == 40
        assert backlog[0] == 16
        assert max(backlog) <= 16

    def test_a_finished_query_is_written_before_a_slower_later_one_finishes(self, tmp_path, monkeypatch):
        # max_in_flight 2: one window of 16 queries. q004 is held while the
        # queries before it finish.
        paths = sample_workspace(tmp_path, 16, "profiles: {distill: {k_samples: 1, max_in_flight: 2}}\n")
        q004_returned = threading.Event()
        written = {}
        write_samples = cli.rio.write_samples

        def recording_write(samples, fh):
            written[samples[0].query_id] = q004_returned.is_set()
            return write_samples(samples, fh)

        def slow_q004(inner, request):
            generation = inner.generate(request)
            if request.query_id == "q004":
                time.sleep(0.3)
                q004_returned.set()
            return generation

        monkeypatch.setattr(cli.rio, "write_samples", recording_write)
        route_backend(monkeypatch, slow_q004)
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert list(written) == [f"q{q:03d}" for q in range(1, 17)]
        assert [written[qid] for qid in ("q001", "q002", "q003")] == [False] * 3
        assert written["q004"]

    @pytest.mark.parametrize("n_queries", [3, 16, 25])
    def test_store_does_not_depend_on_max_in_flight(self, tmp_path, monkeypatch, n_queries):
        # Windows of 8, 16, 24 and 64 queries: 3 queries fill less than one
        # batch of any; 16 fill two windows of 8 and one of 16; 25 are one
        # past the window of 24. Later queries finish first. The plain mock,
        # sampled on the stage's thread, writes the same store.
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
        monkeypatch.undo()
        assert sample_stage(paths, tmp_path / "mock.jsonl") == 0
        stores["mock"] = (tmp_path / "mock.jsonl").read_bytes()
        assert len(set(stores.values())) == 1
        assert [(s.query_id, s.sample_index) for s in read_store(tmp_path / "s1.jsonl")] == [
            (f"q{q:03d}", k) for q in range(1, n_queries + 1) for k in (1, 2)]

    @pytest.mark.parametrize("seed", [11, 12])
    @pytest.mark.parametrize("max_in_flight", [1, 3])
    def test_a_smaller_k_samples_a_prefix_of_the_store(self, tmp_path, seed, max_in_flight):
        """K as a prefix: a K=4 store is the K=16 store's lines whose
        sample_index is 4 or lower, byte for byte, under every mock quality
        (the first four samples draw one mode each)."""
        modes = "mock:\n  modes:\n" + "".join(
            f"    - {{quality: {quality}, filler_sentences: {2 + i}, restatements: {i % 2}, "
            f"revert_loops: {(i + 1) % 2}}}\n" for i, quality in enumerate(("shuffled", "ideal", "worst", "forward")))
        paths = write_pipeline_workspace(tmp_path, n_queries=5, n_docs=8)
        stores = {}
        for k in (4, 16):
            Path(paths["config"]).write_text(
                modes + f"profiles: {{distill: {{k_samples: {k}, max_in_flight: {max_in_flight}}}}}\n")
            out = tmp_path / f"k{k}.jsonl"
            assert sample_stage(paths, out, "--seed", str(seed)) == 0  # the last --seed wins
            stores[k] = out.read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(stores[4]) == 5 * 4
        assert stores[4] == [line for line in stores[16] if json.loads(line)["sample_index"] <= 4]

    @BOTH_PATHS
    @pytest.mark.parametrize("broken", [False, True])
    def test_stage_closes_its_backend(self, tmp_path, monkeypatch, broken, base):
        paths = sample_workspace(tmp_path, 4, "profiles: {distill: {k_samples: 2, max_in_flight: 2}}\n")
        factory = cli._backend_for
        closed = []

        class Closing(base):
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

    def test_a_backend_that_never_waits_is_sampled_on_the_stage_thread(self, tmp_path, monkeypatch):
        """The mock: no pool and no thread, and each query is written
        before the next is sampled, through the CLI's `sample_trajectories`
        (where the benchmark's traced run wraps it)."""
        paths = sample_workspace(tmp_path, 5, "profiles: {distill: {k_samples: 2, max_in_flight: 3}}\n")
        pools, threads, events = [], [], []
        build_pool, start_thread = concurrent.futures.ThreadPoolExecutor.__init__, threading.Thread.start
        sample_trajectories, write_samples = cli.sample_trajectories, cli.rio.write_samples

        def building(pool, *args, **kwargs):
            pools.append(pool)
            build_pool(pool, *args, **kwargs)

        def starting(thread):
            threads.append(thread.name)
            start_thread(thread)

        def sampling(query, *args, **kwargs):
            events.append(("sample", query.id, threading.get_ident()))
            return sample_trajectories(query, *args, **kwargs)

        def writing(samples, fh):
            events.append(("write", samples[0].query_id, threading.get_ident()))
            return write_samples(samples, fh)

        monkeypatch.setattr(concurrent.futures.ThreadPoolExecutor, "__init__", building)
        monkeypatch.setattr(threading.Thread, "start", starting)
        monkeypatch.setattr(cli, "sample_trajectories", sampling)
        monkeypatch.setattr(cli.rio, "write_samples", writing)
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert pools == [] and threads == []
        assert events == [(step, f"q{q:03d}", threading.get_ident()) for q in range(1, 6)
                          for step in ("sample", "write")]


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

    @staticmethod
    def scored_store(tmp_path, paths):
        """The scored store `sample` and `evaluate` write from the workspace
        `paths`, and the workspace."""
        assert sample_stage(paths, tmp_path / "s.jsonl") == 0
        assert main(["evaluate", "--samples", str(tmp_path / "s.jsonl"), "--qrels", paths["qrels"],
                     "--out", str(tmp_path / "eval.json"),
                     "--scored-out", str(tmp_path / "scored.jsonl")]) == 0
        return tmp_path / "scored.jsonl", paths

    @pytest.fixture
    def scored(self, tmp_path):
        """A scored store of 5 queries x K=2, and the workspace it came from."""
        return self.scored_store(tmp_path, sample_workspace(tmp_path, 5, "profiles: {distill: {k_samples: 2}}\n"))

    @pytest.fixture
    def accented(self, tmp_path):
        """`scored`, with doc ids that are not ASCII."""
        paths = sample_workspace(tmp_path, 5, "profiles: {distill: {k_samples: 2}}\n")
        for name in ("run", "corpus", "qrels"):
            path = Path(paths[name])
            path.write_text(path.read_text(encoding="utf-8").replace("-d", "-d\u00e9"), encoding="utf-8")
        return self.scored_store(tmp_path, paths)

    def test_every_line_sample_or_evaluate_writes_can_be_split(self, scored):
        store, _ = scored
        for path in (store.parent / "s.jsonl", store):
            with open(path, encoding="utf-8") as fh:
                lines = list(fh)
            assert len(lines) == 10
            assert all(map(splits, lines))

    LAYOUTS = {
        "keys in another order": lambda record: json.dumps(dict(reversed(record.items())), ensure_ascii=False),
        "compact separators": lambda record: json.dumps(record, sort_keys=True, ensure_ascii=False,
                                                        separators=(",", ":")),
        "ascii escapes": lambda record: json.dumps(record, sort_keys=True),
    }

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("stage", OFFLINE)
    def test_store_in_another_layout_gives_the_same_outputs(self, accented, tmp_path, stage, layout):
        store, paths = accented
        other = tmp_path / "other.jsonl"
        other.write_text("".join(self.LAYOUTS[layout](json.loads(line)) + "\n"
                                 for line in store.read_text(encoding="utf-8").splitlines()), encoding="utf-8")
        assert other.read_bytes() != store.read_bytes()
        outputs = []
        for name, path in (("from-store", store), ("from-other", other)):
            out = tmp_path / name
            out.mkdir()
            assert main(self.OFFLINE[stage](str(path), paths, out)) == 0
            outputs.append({p.name: p.read_bytes() for p in out.iterdir()})
        if (stage, layout) == ("evaluate", "ascii escapes"):
            # evaluate copies a line that ends as the writer ends it up to its
            # score, escapes included: the same samples, in other bytes.
            assert read_store(tmp_path / "from-other" / "scored.jsonl") == read_store(
                tmp_path / "from-store" / "scored.jsonl")
            for files in outputs:
                del files["scored.jsonl"]
        assert outputs[1] == outputs[0]

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

    def test_corpus_at_another_depth_names_the_depth(self, scored, tmp_path, capsys):
        # The store was sampled at depth 8; the template is the same.
        store, paths = scored
        argv = self.OFFLINE["build-corpus"](str(store), paths, tmp_path)
        argv[argv.index("--depth") + 1] = "6"
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "hash mismatch" in err
        assert "depth" in err
        assert not (tmp_path / "corpus.jsonl").exists()

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
            rio.write_samples([TrajectorySample.from_fields({**vars(s), "score": score})
                               for s, score in zip(samples, scores)], out)
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

    @pytest.mark.parametrize("layout", ["keys in another order", "a key after valid", "trailing spaces",
                                        "compact separators"])
    def test_record_in_another_layout_is_encoded_again(self, store, tmp_path, encoded, layout):
        path, paths = store
        lines = path.read_text().splitlines(keepends=True)
        record = json.loads(lines[4])
        if layout == "keys in another order":
            lines[4] = json.dumps(dict(reversed(record.items()))) + "\n"
        elif layout == "a key after valid":
            lines[4] = json.dumps({**record, "zz_note": "kept out"}, sort_keys=True) + "\n"
        elif layout == "compact separators":
            lines[4] = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
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


# Run in a fresh interpreter: argv is the package's source directory, a
# JSON list of stage argvs, then a JSON list of module names, `watched`.
# Prints, as JSON, each step with the modules of `watched` that are loaded
# after it.
_IMPORT_PROBE = """
import json
import sys
sys.path.insert(0, sys.argv[1])
watched = json.loads(sys.argv[3])
steps = []
def check(step):
    steps.append([step, [name for name in watched if name in sys.modules]])
import rerank_distill
check("import rerank_distill")
from rerank_distill import cli
check("import rerank_distill.cli")
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv[0]
    check(argv[0])
print(json.dumps(steps))
"""


def probe_imports(stages: list[list[str]], watched=("csv", "requests", "yaml")) -> list:
    """[step, loaded modules of `watched`] after importing the package, the
    CLI and then running each of `stages` in one fresh interpreter."""
    src = str(Path(rerank_distill.__file__).resolve().parent.parent)
    result = subprocess.run([sys.executable, "-I", "-c", _IMPORT_PROBE, src, json.dumps(stages), json.dumps(watched)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_mock_pipeline_never_imports_requests(tmp_path):
    """Only the HTTP backend needs requests, and it is slow to import; only
    the stages that read a config or template need yaml, only a CSV report
    needs csv, and only a backend that waits needs the thread pool of
    concurrent.futures. The offline stages run in an interpreter of their
    own, one where `sample` has not loaded yaml already."""
    paths = sample_workspace(tmp_path, 2, "profiles: {distill: {k_samples: 2}}\n")
    out = str(tmp_path)
    sample = ["sample", "--topics", paths["topics"], "--run-file", paths["run"], "--corpus", paths["corpus"],
              "--config", paths["config"], "--qrels", paths["qrels"], "--depth", "8", "--backend", "mock",
              "--seed", "11", "--out", out + "/s.jsonl"]
    watched = ("csv", "requests", "yaml", "concurrent.futures")
    assert probe_imports([sample], watched) == [
        ["import rerank_distill", []], ["import rerank_distill.cli", []], ["sample", ["yaml"]]]
    offline = [
        ["evaluate", "--samples", out + "/s.jsonl", "--qrels", paths["qrels"], "--out", out + "/eval.json"],
        ["analyze-redundancy", "--samples", out + "/s.scored.jsonl", "--out", out + "/redundancy.json"],
        ["report", "mock=" + out + "/eval.json", "--out", out + "/comparison.json"],
        ["build-corpus", "--samples", out + "/s.scored.jsonl", "--topics", paths["topics"],
         "--run-file", paths["run"], "--corpus", paths["corpus"], "--config", paths["config"], "--depth", "8",
         "--out", out + "/corpus.jsonl", "--stats", out + "/corpus.stats.json"],
    ]
    assert probe_imports(offline, watched) == [
        ["import rerank_distill", []], ["import rerank_distill.cli", []],
        ["evaluate", []], ["analyze-redundancy", []], ["report", []], ["build-corpus", ["yaml"]]]


def test_only_the_stages_that_hash_import_hashlib(tmp_path):
    """`sample` and `build-corpus` hash a prompt; the CLI import and the
    stages that only read the store or a report do without hashlib."""
    paths = sample_workspace(tmp_path, 2, "profiles: {distill: {k_samples: 2}}\n")
    out = str(tmp_path)
    candidates = ["--topics", paths["topics"], "--run-file", paths["run"], "--corpus", paths["corpus"],
                  "--config", paths["config"], "--depth", "8"]
    sample = ["sample", *candidates, "--qrels", paths["qrels"], "--backend", "mock", "--seed", "11",
              "--out", out + "/s.jsonl"]
    assert probe_imports([sample], watched=["hashlib"]) == [
        ["import rerank_distill", []], ["import rerank_distill.cli", []], ["sample", ["hashlib"]]]
    offline = [
        ["evaluate", "--samples", out + "/s.jsonl", "--qrels", paths["qrels"], "--out", out + "/eval.json"],
        ["analyze-redundancy", "--samples", out + "/s.scored.jsonl", "--out", out + "/redundancy.json"],
        ["report", "mock=" + out + "/eval.json", "--out", out + "/comparison.json"],
        ["build-corpus", "--samples", out + "/s.scored.jsonl", *candidates,
         "--out", out + "/corpus.jsonl", "--stats", out + "/corpus.stats.json"],
    ]
    assert probe_imports(offline, watched=["hashlib"]) == [
        ["import rerank_distill", []], ["import rerank_distill.cli", []],
        ["evaluate", []], ["analyze-redundancy", []], ["report", []], ["build-corpus", ["hashlib"]]]


def test_no_stage_imports_dataclasses_or_inspect(tmp_path):
    """The value types are plain classes, so neither the package, the CLI
    nor any stage pays for `dataclasses` and the `inspect` it loads."""
    paths = sample_workspace(tmp_path, 2, "profiles: {distill: {k_samples: 2}}\n")
    out = str(tmp_path)
    candidates = ["--topics", paths["topics"], "--run-file", paths["run"], "--corpus", paths["corpus"],
                  "--config", paths["config"], "--depth", "8"]
    stages = [
        ["sample", *candidates, "--qrels", paths["qrels"], "--backend", "mock", "--seed", "11",
         "--out", out + "/s.jsonl"],
        ["evaluate", "--samples", out + "/s.jsonl", "--qrels", paths["qrels"], "--out", out + "/eval.json"],
        ["build-corpus", "--samples", out + "/s.scored.jsonl", *candidates,
         "--out", out + "/corpus.jsonl", "--stats", out + "/corpus.stats.json"],
        ["analyze-redundancy", "--samples", out + "/s.scored.jsonl", "--out", out + "/redundancy.json"],
        ["report", "mock=" + out + "/eval.json", "--out", out + "/comparison.json"],
    ]
    assert probe_imports(stages, watched=("dataclasses", "inspect")) == [
        ["import rerank_distill", []], ["import rerank_distill.cli", []],
        *([stage[0], []] for stage in stages)]


_STAGE_INPUTS = ("--topics", "--run-file", "--corpus", "--config", "--depth", "--template")


@pytest.mark.parametrize("command", [[], ["sample"], ["evaluate"], ["build-corpus"], ["analyze-redundancy"],
                                     ["report"]], ids=lambda command: " ".join(command) or "top-level")
def test_every_help_renders(command, capsys):
    """argparse formats a help text only when asked for it. `sample` and
    `build-corpus` list the inputs they declare together."""
    with pytest.raises(SystemExit) as exited:
        main([*command, "--help"])
    assert exited.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(" ".join(["usage: rerank-distill", *command]))
    listed = [flag for flag in _STAGE_INPUTS if f"  {flag} " in out]
    assert listed == (list(_STAGE_INPUTS) if command in (["sample"], ["build-corpus"]) else [])


REPO = Path(__file__).resolve().parent.parent


def quickstart_commands() -> list[list[str]]:
    """The arguments of each `rerank-distill` command in the README's
    "Pipeline quickstart" bash block, its continuation lines joined."""
    section = (REPO / "README.md").read_text(encoding="utf-8").split("## Pipeline quickstart\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("rerank-distill ")]


def test_readme_quickstart_runs_as_written(tmp_path, monkeypatch):
    """Each command of the quickstart, run in order in a directory that
    holds the input files it names and the example config."""
    monkeypatch.chdir(tmp_path)
    write_pipeline_workspace(tmp_path)
    (tmp_path / "configs").mkdir()
    shutil.copy(REPO / "configs" / "example.yaml", tmp_path / "configs")
    commands = quickstart_commands()
    for argv in commands:
        assert main(argv) == 0, argv
    assert {argv[0] for argv in commands} == {"sample", "evaluate", "build-corpus", "analyze-redundancy", "report"}
