"""Acceptance suite: one test per criterion, each verified against an
independent oracle. Run `pytest -v tests/test_acceptance.py` for one
pass/fail line per criterion.
"""

import json
import random
import time
from pathlib import Path

import pytest

from rerank_distill.cli import main
from rerank_distill.distill import efficient_set, query_stats, select_target, valid_subset
from rerank_distill.io import read_report, read_run, write_report, redundancy_report
from rerank_distill.metrics import (
    length_normalized_nll,
    multi_occurrence_ratio,
    ndcg_at_k,
    tail_repeat_ratio,
)
from rerank_distill.models import Qrels, Ranking, TrajectorySample
from rerank_distill.parsing import extract_rankings, parse_final_ranking, render_ranking

from conftest import make_universe, random_ranking, read_store, write_pipeline_workspace
from reference import oracle_filter, oracle_mor, oracle_ndcg, oracle_trr


# --- independent oracles ------------------------------------------------------

def strict(doc_ids):
    return Ranking(groups=tuple((d,) for d in doc_ids))


def test_criterion_1_ndcg_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(101)
    for _ in range(500):
        n = rng.randint(1, 10)
        grades = [rng.randint(0, 3) for _ in range(n)]
        universe = make_universe(n)
        qrels = Qrels(judgments={("q", str(i + 1)): g for i, g in enumerate(grades)})
        order = rng.sample(range(1, n + 1), n)
        ranked_grades = [grades[i - 1] for i in order]
        got = ndcg_at_k(strict([str(i) for i in order]), qrels, "q", k=10)
        assert abs(got - oracle_ndcg(ranked_grades)) < 1e-12

        if any(grades):
            ideal_order = sorted(range(1, n + 1), key=lambda i: -grades[i - 1])
            assert ndcg_at_k(strict([str(i) for i in ideal_order]), qrels, "q") == 1.0
        zero_qrels = Qrels(judgments={})
        assert ndcg_at_k(strict([str(i) for i in order]), zero_qrels, "q") == 0.0
    assert time.perf_counter() - started < 5.0


def test_criterion_2_filter_exactness():
    def mk(idx, score, length):
        return TrajectorySample(
            query_id="q", sample_index=idx, raw_text=f"t{idx}", reasoning_text="",
            final_ranking=Ranking(groups=(("1",), ("2",))), ranking_sequence=(),
            token_len=length, token_len_source="approximated", score=score)

    rng = random.Random(202)
    for _ in range(1000):
        k = rng.randint(1, 16)
        pairs = [(round(rng.random(), 3), rng.randint(1, 500)) for _ in range(k)]
        samples = [mk(i + 1, s, l) for i, (s, l) in enumerate(pairs)]
        mu_s, mu_l = query_stats(samples)
        survivors = efficient_set(samples, mu_s, mu_l)
        o_mu_s, o_mu_l, o_survivors, o_target = oracle_filter(pairs)
        assert mu_s == o_mu_s and mu_l == o_mu_l
        assert [s.sample_index - 1 for s in survivors] == o_survivors
        for s in survivors:
            assert s.score >= mu_s and s.token_len < mu_l
        excluded = [s for s in samples if s not in survivors]
        for s in excluded:
            assert s.score < mu_s or s.token_len >= mu_l
        target = select_target(survivors)
        assert (None if target is None else target.sample_index - 1) == o_target

    # worked example reproduces exactly
    samples = [mk(1, 0.8, 100), mk(2, 0.8, 300), mk(3, 0.5, 120)]
    mu_s, mu_l = query_stats(samples)
    assert mu_s == pytest.approx(0.7)
    assert mu_l == pytest.approx(173.3333333333333, abs=1e-10)
    survivors = efficient_set(samples, mu_s, mu_l)
    assert [(s.score, s.token_len) for s in survivors] == [(0.8, 100)]

    # degenerate cases: singleton and all-identical sets are discarded
    singleton = [mk(1, 0.9, 50)]
    assert efficient_set(singleton, *query_stats(singleton)) == []
    identical = [mk(i, 0.6, 100) for i in (1, 2, 3)]
    assert efficient_set(identical, *query_stats(identical)) == []


def test_criterion_3_parser_fidelity():
    universe = make_universe(20)
    matches = extract_rankings("[13] > [14] > [19] > [3] = [6]", universe)
    assert len(matches) == 1
    assert matches[0].ranking.groups == (("13",), ("14",), ("19",), ("3", "6"))

    rng = random.Random(303)
    for _ in range(1000):
        n = rng.randint(2, 12)
        u = make_universe(n)
        ranking = random_ranking(rng, u)
        parsed = extract_rankings(render_ranking(ranking, u), u)
        assert len(parsed) == 1 and parsed[0].ranking == ranking

    for _ in range(1000):
        n = rng.randint(1, 8)
        u = make_universe(n)
        chunks = []
        for _ in range(rng.randint(0, 4)):
            chunks.append(rng.choice(["so far", "note [", "x ] y", "= >", ""]))
            k = rng.randint(1, 5)
            aliases = [rng.randint(0, n + 3) for _ in range(k)]
            seps = [rng.choice([" > ", " = ", ">", "="]) for _ in range(k - 1)]
            body = f"[{aliases[0]}]"
            for sep, alias in zip(seps, aliases[1:]):
                body += f"{sep}[{alias}]"
            chunks.append(body)
        text = " ".join(chunks)
        result = parse_final_ranking(text, u)
        if result is not None:
            ranking, coverage = result
            assert sorted(ranking.flatten()) == sorted(u.doc_ids)
            assert 0 < coverage <= 1.0

    # final ranking = last pattern match
    u = make_universe(3)
    trace = "draft [1] > [2] > [3] then [2] = [3] > [1] finally [3] > [1] > [2]"
    ranking, _ = parse_final_ranking(trace, u)
    assert ranking.flatten() == ("3", "1", "2")
    assert len(extract_rankings(trace, u)) == 3


def test_criterion_4_trr_mor_equivalence(tmp_path):
    alphabet = [Ranking(groups=((c,),)) for c in "ABCDE"]
    rng = random.Random(404)
    for _ in range(1000):
        seq = [alphabet[rng.randrange(len(alphabet))] for _ in range(rng.randint(0, 20))]
        assert tail_repeat_ratio(seq) == oracle_trr(seq)
        assert multi_occurrence_ratio(seq) == oracle_mor(seq)

    a, b = alphabet[0], alphabet[1]
    assert tail_repeat_ratio([a, b, a, a]) == 0.5
    assert multi_occurrence_ratio([a, b, a, a]) == 0.5
    distinct = alphabet[:3]
    assert tail_repeat_ratio(distinct) == 0.0
    assert multi_occurrence_ratio(distinct) == 0.0

    # Table-style report layout: (model_tag, avg_trr, avg_mor) columns
    payload = redundancy_report(rows=[{"model_tag": "teacher", "avg_trr": 0.21,
                                       "avg_mor": 0.293, "n_traces": 100}])
    out = tmp_path / "redundancy.csv"
    write_report(payload, str(out), format="csv")
    lines = out.read_text().splitlines()
    assert lines[0] == "model_tag,avg_trr,avg_mor"
    assert lines[1].startswith("teacher,0.210000,0.293000")


def test_criterion_5_length_normalized_loss():
    assert length_normalized_nll([[-1.0, -2.0, -3.0]]) == 2.0

    rng = random.Random(505)
    for _ in range(200):
        batch = [[-rng.uniform(0, 9) for _ in range(rng.randint(1, 7))]
                 for _ in range(rng.randint(1, 6))]
        expected = length_normalized_nll(batch)
        shuffled = [list(seq) for seq in batch]
        rng.shuffle(shuffled)
        for seq in shuffled:
            rng.shuffle(seq)
        assert length_normalized_nll(shuffled) == pytest.approx(expected, abs=1e-12)

    with pytest.raises(ValueError):
        length_normalized_nll([[0.25]])


def _run_pipeline(paths, out_dir, seed):
    out_dir.mkdir()
    files = {
        "samples": out_dir / "samples.jsonl",
        "scored": out_dir / "samples.scored.jsonl",
        "eval": out_dir / "eval.json",
        "corpus": out_dir / "corpus.jsonl",
        "stats": out_dir / "corpus.stats.json",
        "redundancy": out_dir / "redundancy.json",
        "comparison": out_dir / "comparison.json",
    }
    assert main(["sample", "--topics", paths["topics"], "--run-file", paths["run"],
                 "--corpus", paths["corpus"], "--config", paths["config"],
                 "--qrels", paths["qrels"], "--backend", "mock", "--seed", str(seed),
                 "--out", str(files["samples"])]) == 0
    assert main(["evaluate", "--samples", str(files["samples"]), "--qrels", paths["qrels"],
                 "--out", str(files["eval"]), "--scored-out", str(files["scored"])]) == 0
    assert main(["build-corpus", "--samples", str(files["scored"]), "--topics", paths["topics"],
                 "--run-file", paths["run"], "--corpus", paths["corpus"],
                 "--config", paths["config"], "--out", str(files["corpus"]),
                 "--stats", str(files["stats"])]) == 0
    assert main(["analyze-redundancy", "--samples", str(files["scored"]),
                 "--model-tag", "mock", "--out", str(files["redundancy"])]) == 0
    assert main(["report", f"mock={files['eval']}", "--out", str(files["comparison"])]) == 0
    return files


def test_criterion_6_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    paths = write_pipeline_workspace(tmp_path, n_queries=20, n_docs=10)

    first = _run_pipeline(paths, tmp_path / "run1", seed=77)
    second = _run_pipeline(paths, tmp_path / "run2", seed=77)
    for name in first:
        assert first[name].read_bytes() == second[name].read_bytes(), f"{name} differs between runs"

    # mixed profile: modes cycle ideal-short, ideal-long, poor-short, so with
    # K=16 the ideal-short samples are exactly indices {1, 4, 7, 10, 13, 16}
    ideal_short = {k for k in range(1, 17) if (k - 1) % 3 == 0}
    samples = read_store(first["scored"])
    by_query = {}
    for s in samples:
        by_query.setdefault(s.query_id, []).append(s)
    assert len(by_query) == 20

    stats = read_report(str(first["stats"]))
    assert stats["retention_rate"] == pytest.approx(1.0)
    rows = {row["query_id"]: row for row in stats["rows"]}

    for qid, qsamples in by_query.items():
        valid = valid_subset(qsamples)
        mu_s = sum(s.score for s in valid) / len(valid)
        mu_l = sum(s.token_len for s in valid) / len(valid)
        expected = [s.sample_index for s in valid if s.score >= mu_s and s.token_len < mu_l]
        assert set(expected) == ideal_short, f"{qid}: E_q is not the ideal-short set"
        assert rows[qid]["efficient_indices"] == expected
        assert rows[qid]["n_valid"] == 16
        assert rows[qid]["retained"] is True

    # corpus target per query is the shortest ideal-short sample
    corpus_lines = [json.loads(line) for line in Path(first["corpus"]).read_text().splitlines()][1:]
    assert len(corpus_lines) == 20
    targets_by_text = {}
    for qid, qsamples in by_query.items():
        efficient = [s for s in qsamples if s.sample_index in ideal_short]
        best = min(efficient, key=lambda s: (s.token_len, -s.score, s.sample_index))
        targets_by_text[best.raw_text] = qid
    for line in corpus_lines:
        assert line["messages"][2]["content"] in targets_by_text

    assert time.perf_counter() - started < 60.0


def test_criterion_7_format_robustness(tmp_path):
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_text(
        "19335 0 1017759 0\n"
        "19335 0 8412684 3\n"
        "47923 0 1200258 2\n"
    )
    from rerank_distill.io import read_qrels
    qrels = read_qrels(str(qrels_path))
    assert qrels.grade("19335", "8412684") == 3
    assert qrels.grade("47923", "1200258") == 2

    run_path = tmp_path / "run.txt"
    run_path.write_text(
        "19335 Q0 8412684 1 14.1938 Anserini\n"
        "19335 Q0 1017759 2 13.0886 Anserini\n"
    )
    assert read_run(str(run_path), depth=10) == {"19335": ["8412684", "1017759"]}

    from rerank_distill.errors import ParseError

    cases = [
        ("qrels.bad1", "q1 0 d3 x\n", read_qrels, {}, ":1:"),
        ("qrels.bad2", "q1 0 d1 1\nq1 0\n", read_qrels, {}, ":2:"),
        ("run.bad1", "q1 Q0 dA 1 0.9 t\nq1 Q0 dA 2 0.5 t\n", read_run, {"depth": 10}, ":2:"),
        ("run.bad2", "q1 Q0 dA one 0.9 t\n", read_run, {"depth": 10}, ":1:"),
        ("run.bad3", "q1 Q0 dA 1 0.9\n", read_run, {"depth": 10}, ":1:"),
        ("samples.bad", '{"schema_version": 1, "query_id": 1}\nnot json\n',
         read_store, {}, ":1:"),
    ]
    for name, content, reader, kwargs, needle in cases:
        p = tmp_path / name
        p.write_text(content)
        with pytest.raises(ParseError) as exc_info:
            reader(str(p), **kwargs)
        assert needle in str(exc_info.value), f"{name}: no line number in {exc_info.value}"
