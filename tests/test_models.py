from typing import Optional

import pytest

from rerank_distill.models import (
    CandidateDoc,
    CandidateSet,
    DistillationRecord,
    EvalReport,
    Qrels,
    Query,
    QueryFilterStats,
    Ranking,
    RedundancyMetrics,
    SamplingConfig,
    TrajectorySample,
    _exact_types,
    text_types,
)

from conftest import make_query, make_universe


def test_query_requires_id():
    with pytest.raises(ValueError, match="non-empty"):
        Query(id="", text="anything")


def test_candidate_doc_requires_id():
    with pytest.raises(ValueError):
        CandidateDoc(doc_id="", text="t")


def test_candidate_set_rejects_duplicates_and_empty():
    d = CandidateDoc(doc_id="a", text="t")
    with pytest.raises(ValueError, match="duplicate"):
        CandidateSet(query_id="q", docs=(d, d))
    with pytest.raises(ValueError, match="at least one"):
        CandidateSet(query_id="q", docs=())


def test_qrels_rejects_negative_grades():
    with pytest.raises(ValueError, match="negative grade"):
        Qrels(judgments={("q", "d"): -1})
    q = Qrels(judgments={("q", "d"): 2})
    assert q.grade("q", "d") == 2
    assert q.grade("q", "other") == 0


def test_ranking_rejects_duplicates_and_empty_groups():
    with pytest.raises(ValueError, match="twice"):
        Ranking(groups=(("a",), ("b", "a")))
    with pytest.raises(ValueError, match="non-empty"):
        Ranking(groups=(("a",), ()))
    r = Ranking(groups=(("a",), ("b", "c")))
    assert r.flatten() == ("a", "b", "c")


def test_ranking_equality_is_tie_aware():
    tied = Ranking(groups=(("a", "b"),))
    strict = Ranking(groups=(("a",), ("b",)))
    assert tied != strict
    assert tied == Ranking(groups=(("a", "b"),))


def _sample(**overrides):
    base = dict(
        query_id="q",
        sample_index=1,
        raw_text="[1] > [2]",
        reasoning_text="",
        final_ranking=Ranking(groups=(("1",), ("2",))),
        ranking_sequence=(Ranking(groups=(("1",), ("2",))),),
        token_len=5,
        token_len_source="approximated",
    )
    base.update(overrides)
    return TrajectorySample(**base)


def test_trajectory_sample_invariants():
    assert _sample().valid
    with pytest.raises(ValueError, match="final_ranking"):
        _sample(final_ranking=None, valid=True)
    with pytest.raises(ValueError, match="token_len"):
        _sample(token_len=-1)
    with pytest.raises(ValueError, match="score"):
        _sample(score=1.5)
    with pytest.raises(ValueError, match="sample_index"):
        _sample(sample_index=0)
    # invalid samples may omit the ranking
    s = _sample(final_ranking=None, ranking_sequence=(), valid=False, error="boom")
    assert not s.valid


@pytest.mark.parametrize("field, value, message", [
    ("score", True, "field 'score' must be float or null, got bool"),
    ("valid", 1, "field 'valid' must be bool, got int"),
    ("token_len", "17", "field 'token_len' must be int, got str"),
    ("coverage", 1, "field 'coverage' must be float or null, got int"),
    ("final_ranking", (("1",), ("2",)), "field 'final_ranking' must be Ranking or null, got tuple"),
    ("ranking_sequence", (("1",), ("2",)), "field 'ranking_sequence' must hold Rankings, got tuple"),
])
def test_trajectory_sample_refuses_a_field_of_another_type(field, value, message):
    with pytest.raises(ValueError, match=message):
        _sample(**{field: value})


@pytest.mark.parametrize("groups", [((1,), (2,)), ("12", ("3",))])
def test_ranking_refuses_groups_other_than_tuples_of_strings(groups):
    with pytest.raises(ValueError, match="Ranking groups must be non-empty tuples of doc-id strings"):
        Ranking(groups=groups)


def test_sampling_config_invariants():
    ok = SamplingConfig(k_samples=16, temperature=0.7, top_p=0.95, max_tokens=8192)
    assert ok.max_in_flight >= 1
    for kwargs in (
        dict(k_samples=0),
        dict(top_p=0.0),
        dict(top_p=1.5),
        dict(temperature=-0.1),
        dict(max_tokens=0),
        dict(max_in_flight=0),
    ):
        base = dict(k_samples=1, temperature=0.5, top_p=0.95, max_tokens=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SamplingConfig(**base)


def test_query_filter_stats_consistency():
    with pytest.raises(ValueError, match="n_valid"):
        QueryFilterStats(query_id="q", n_sampled=2, n_valid=3, mean_score=0.5,
                         mean_len=10.0, efficient_indices=(1,), retained=True)
    with pytest.raises(ValueError, match="retained"):
        QueryFilterStats(query_id="q", n_sampled=3, n_valid=3, mean_score=0.5,
                         mean_len=10.0, efficient_indices=(), retained=True)


def test_distillation_record_requires_positive_score():
    with pytest.raises(ValueError, match="target_score"):
        DistillationRecord(query=make_query(), candidates=make_universe(2),
                           target_text="t", target_score=0.0, target_len=3)


def test_redundancy_metrics_consistency():
    RedundancyMetrics(seq_len=4, t_star=2, trr=0.5, mor=0.5)
    with pytest.raises(ValueError, match="inconsistent"):
        RedundancyMetrics(seq_len=4, t_star=2, trr=0.4, mor=0.5)
    with pytest.raises(ValueError, match="t_star"):
        RedundancyMetrics(seq_len=2, t_star=3, trr=0.0, mor=0.0)
    with pytest.raises(ValueError, match="mor"):
        RedundancyMetrics(seq_len=1, t_star=1, trr=0.0, mor=1.5)


def test_eval_report_checks_means():
    per_query = {"a": (0.4, 100), "b": (0.8, 300)}
    EvalReport(per_query=per_query, mean_ndcg10=0.6, mean_len=200.0)
    with pytest.raises(ValueError, match="mean_ndcg10"):
        EvalReport(per_query=per_query, mean_ndcg10=0.7, mean_len=200.0)
    with pytest.raises(ValueError, match="at least one"):
        EvalReport(per_query={}, mean_ndcg10=0.0, mean_len=0.0)


def test_eval_report_compares_means_at_a_report_file_resolution():
    # Each value and the mean rounded to 6 decimal places, as a report file
    # stores them: the values average 0.3333335, the mean reads 0.333334.
    EvalReport(per_query={"a": (0.333333, 10), "b": (0.333334, 20)}, mean_ndcg10=0.333334, mean_len=15.0)
    with pytest.raises(ValueError, match="member 'mean_len' is 15.000002"):
        EvalReport(per_query={"a": (0.5, 10), "b": (0.5, 20)}, mean_ndcg10=0.5, mean_len=15.000002)


@pytest.mark.parametrize("per_query, means, message", [
    ({"a": (0.5, 10.0)}, (0.5, 10.0), r"member per_query\['a'\]\['gen_len'\] must be int, got float"),
    ({"a": (True, 10)}, (1.0, 10.0), r"member per_query\['a'\]\['ndcg10'\] must be int or float, got bool"),
    ({"a": [0.5, 10]}, (0.5, 10.0), r"member per_query\['a'\] must be an \(ndcg10, gen_len\) pair, got \[0.5, 10\]"),
    ({"a": (0.5, 10, 1)}, (0.5, 10.0), r"member per_query\['a'\] must be an \(ndcg10, gen_len\) pair"),
    ({"a": (0.5, 10)}, ("0.5", 10.0), "member 'mean_ndcg10' must be int or float, got str"),
    ({"a": (0.5, 10)}, (0.5, None), "member 'mean_len' must be int or float, got NoneType"),
    ([("a", (0.5, 10))], (0.5, 10.0), "member 'per_query' must map at least one query"),
])
def test_eval_report_refuses_a_member_of_another_type(per_query, means, message):
    with pytest.raises(ValueError, match=message):
        EvalReport(per_query, *means)


def test_eval_report_takes_an_int_where_a_float_belongs():
    assert EvalReport({"a": (1, 10)}, 1, 10).mean_len == 10


def test_union_annotations_read_alike():
    assert _exact_types(Optional[int]) == _exact_types(int | None) == (int, type(None))
    assert text_types(Optional[float]) == (int, float, type(None))
