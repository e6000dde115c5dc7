import hashlib
import json
from pathlib import Path

import pytest

from rerank_distill.cli import main
from rerank_distill.io import read_report, read_samples

from conftest import write_pipeline_workspace


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

        samples = read_samples(outs["samples"])
        assert len(samples) == 3 * 16  # 3 queries, distill profile K=16
        assert all(s.valid for s in samples)

        scored = read_samples(outs["scored"])
        assert all(s.score is not None for s in scored)

        report = read_report(outs["report"])
        assert report["kind"] == "eval"
        assert set(report["per_query"]) == {"q001", "q002", "q003"}
        # first sample per query comes from the ideal mode
        assert report["mean_ndcg10"] == pytest.approx(1.0)

        stats = read_report(outs["stats"])
        assert stats["kind"] == "filter_stats"
        assert len(stats["rows"]) == 3

        corpus_lines = [json.loads(line) for line in open(outs["corpus"])]
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

    def test_k_zero_is_config_error(self, workspace, capsys):
        tmp_path, paths = workspace
        (tmp_path / "bad.yaml").write_text("profiles:\n  distill: {k_samples: 0}\n")
        code = main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                     "--corpus", paths["corpus"], "--config", str(tmp_path / "bad.yaml"),
                     "--out", str(tmp_path / "s.jsonl")])
        assert code == 1
        assert "k_samples" in capsys.readouterr().err

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
        from rerank_distill.io import write_samples
        from rerank_distill.models import TrajectorySample
        bad = [TrajectorySample(query_id="q001", sample_index=k, raw_text="mumble",
                                reasoning_text="mumble", final_ranking=None, ranking_sequence=(),
                                token_len=1, token_len_source="approximated", valid=False,
                                error="no parseable ranking")
               for k in (1, 2)]
        samples_path = tmp_path / "invalid.jsonl"
        write_samples(bad, str(samples_path))
        corpus = tmp_path / "corpus.jsonl"
        code = main(["build-corpus", "--samples", str(samples_path), "--topics", paths["topics"],
                     "--run-file", paths["run"], "--corpus", paths["corpus"], "--depth", "8",
                     "--out", str(corpus)])
        assert code == 0
        stats = read_report(str(tmp_path / "corpus.stats.json"))
        assert stats["retention_rate"] == 0.0
        assert len(corpus.read_text().splitlines()) == 1  # header only

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
