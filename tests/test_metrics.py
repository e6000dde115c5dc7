import logging
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerank_distill.metrics import (
    aggregate_report,
    attach_scores,
    length_buckets,
    length_normalized_nll,
    multi_occurrence_ratio,
    ndcg_at_k,
    redundancy_metrics,
    tail_repeat_ratio,
)
from rerank_distill.models import Qrels, Ranking

from conftest import graded_qrels, make_universe


def brute_force_ndcg(grades_in_rank_order, k):
    """Independent oracle: direct formula evaluation on the flattened list."""
    def dcg(grades):
        return sum((2 ** g - 1) / math.log2(i + 2) for i, g in enumerate(grades[:k]))
    ideal = dcg(sorted(grades_in_rank_order, reverse=True))
    if ideal == 0:
        return 0.0
    return dcg(grades_in_rank_order) / ideal


def strict_ranking(doc_ids):
    return Ranking(groups=tuple((d,) for d in doc_ids))


class TestNdcg:
    def test_ideal_order_scores_one(self):
        universe = make_universe(3)
        qrels = graded_qrels("q1", [3, 2, 0], universe)
        assert ndcg_at_k(strict_ranking(["1", "2", "3"]), qrels, "q1") == 1.0

    def test_worked_example_frozen(self):
        # ranked grades [0, 3, 2]; value frozen from brute_force_ndcg
        universe = make_universe(3)
        qrels = graded_qrels("q1", [0, 3, 2], universe)
        got = ndcg_at_k(strict_ranking(["1", "2", "3"]), qrels, "q1")
        assert got == pytest.approx(0.6653152460429406, abs=1e-12)
        assert got == pytest.approx(brute_force_ndcg([0, 3, 2], 10), abs=1e-15)

    def test_all_zero_grades_score_zero(self):
        universe = make_universe(3)
        qrels = Qrels(judgments={})
        assert ndcg_at_k(strict_ranking(["1", "2", "3"]), qrels, "q1") == 0.0

    def test_ties_flatten_stably(self):
        universe = make_universe(3)
        qrels = graded_qrels("q1", [0, 3, 2], universe)
        tied = Ranking(groups=(("1", "2"), ("3",)))
        assert ndcg_at_k(tied, qrels, "q1") == ndcg_at_k(strict_ranking(["1", "2", "3"]), qrels, "q1")

    def test_cutoff_applies(self):
        universe = make_universe(4)
        qrels = graded_qrels("q1", [0, 0, 0, 3], universe)
        # with k=2 neither DCG nor IDCG... IDCG still sorts all grades desc
        got = ndcg_at_k(strict_ranking(["1", "2", "3", "4"]), qrels, "q1", k=2)
        assert got == 0.0
        got_full = ndcg_at_k(strict_ranking(["4", "1", "2", "3"]), qrels, "q1", k=2)
        assert got_full == 1.0

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(2, 8)
            grades = [rng.randint(0, 3) for _ in range(n)]
            order = rng.sample(range(n), n)
            u1 = make_universe(n)
            qrels1 = graded_qrels("q1", grades, u1)
            ranked1 = strict_ranking([str(i + 1) for i in order])
            # relabel doc i -> f"doc-{i}"
            relabeled = Qrels(judgments={("q1", f"doc-{d}"): g for (_, d), g in qrels1.judgments.items()})
            ranked2 = strict_ranking([f"doc-{i + 1}" for i in order])
            assert ndcg_at_k(ranked1, qrels1, "q1") == pytest.approx(
                ndcg_at_k(ranked2, relabeled, "q1"), abs=1e-15)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            ndcg_at_k(strict_ranking(["1"]), Qrels(judgments={}), "q1", k=0)


def _seq(labels):
    """Ranking sequence from single-letter labels; equal labels compare equal."""
    return [Ranking(groups=((label,),)) for label in labels]


class TestRedundancy:
    def test_trr_examples(self):
        assert tail_repeat_ratio(_seq("A")) == 0.0
        assert tail_repeat_ratio(_seq("ABAA")) == 0.5
        assert tail_repeat_ratio(_seq("ABC")) == 0.0
        assert tail_repeat_ratio([]) == 0.0

    def test_mor_examples(self):
        assert multi_occurrence_ratio(_seq("ABAA")) == 0.5
        assert multi_occurrence_ratio(_seq("ABC")) == 0.0
        assert multi_occurrence_ratio([]) == 0.0

    def test_tie_structure_distinguishes_rankings(self):
        tied = Ranking(groups=(("a", "b"),))
        strict = Ranking(groups=(("a",), ("b",)))
        seq = [strict, tied, strict]
        # tied != strict, so the last strict is a repeat but tied is novel
        assert tail_repeat_ratio(seq) == pytest.approx(1 / 3)
        assert multi_occurrence_ratio(seq) == 0.5

    def test_metrics_bundle(self):
        rm = redundancy_metrics(_seq("ABAA"))
        assert (rm.seq_len, rm.t_star, rm.trr, rm.mor) == (4, 2, 0.5, 0.5)
        rm0 = redundancy_metrics([])
        assert (rm0.seq_len, rm0.t_star, rm0.trr, rm0.mor) == (0, 0, 0.0, 0.0)

    def test_trr_zero_iff_last_element_novel(self):
        rng = random.Random(5)
        for _ in range(200):
            labels = [rng.choice("ABC") for _ in range(rng.randint(1, 8))]
            seq = _seq(labels)
            novel_last = labels[-1] not in labels[:-1]
            assert (tail_repeat_ratio(seq) == 0.0) == novel_last


class TestLengthNormalizedNll:
    def test_single_sequence(self):
        assert length_normalized_nll([[-1.0, -2.0, -3.0]]) == 2.0

    def test_all_zero_logprobs(self):
        assert length_normalized_nll([[0.0, 0.0], [0.0]]) == 0.0

    def test_two_sequences(self):
        assert length_normalized_nll([[-2.0], [-4.0, -4.0]]) == 3.0

    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            length_normalized_nll([[-1.0, 0.5]])

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            length_normalized_nll([])
        with pytest.raises(ValueError):
            length_normalized_nll([[]])

    @settings(max_examples=100)
    @given(st.lists(
        st.lists(st.floats(min_value=-50, max_value=0, allow_nan=False), min_size=1, max_size=6),
        min_size=1, max_size=5,
    ), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, batch, rng):
        expected = length_normalized_nll(batch)
        shuffled_batch = list(batch)
        rng.shuffle(shuffled_batch)
        shuffled_batch = [list(seq) for seq in shuffled_batch]
        for seq in shuffled_batch:
            rng.shuffle(seq)
        assert length_normalized_nll(shuffled_batch) == pytest.approx(expected, abs=1e-12)


class TestAggregateReport:
    def test_single_ideal_query(self):
        universe = make_universe(3)
        qrels = graded_qrels("q1", [3, 2, 0], universe)
        report = aggregate_report({"q1": (strict_ranking(["1", "2", "3"]), 100)}, qrels, bucket_count=2)
        assert report.mean_ndcg10 == 1.0
        assert report.mean_len == 100
        assert report.per_query["q1"] == (1.0, 100)

    def test_two_query_means(self):
        u = make_universe(2)
        qrels = Qrels(judgments={("a", "1"): 1, ("b", "1"): 1})
        run = {
            "a": (strict_ranking(["2", "1"]), 100),   # relevant doc second
            "b": (strict_ranking(["1", "2"]), 300),   # relevant doc first
        }
        report = aggregate_report(run, qrels, bucket_count=2)
        expected_a = brute_force_ndcg([0, 1], 10)
        assert report.mean_ndcg10 == pytest.approx((expected_a + 1.0) / 2)
        assert report.mean_len == 200

    def test_bucket_rule(self):
        u = make_universe(2)
        qrels = Qrels(judgments={("a", "1"): 1, ("b", "1"): 1})
        run = {"a": (strict_ranking(["1", "2"]), 100), "b": (strict_ranking(["1", "2"]), 300)}
        report = aggregate_report(run, qrels, bucket_count=2)
        (b0, b1) = report.length_buckets
        assert (b0.lo, b0.hi, b0.count) == (100.0, 200.0, 1)
        assert (b1.lo, b1.hi, b1.count) == (200.0, 300.0, 1)

    def test_degenerate_single_length(self):
        buckets = length_buckets({"a": (0.5, 100), "b": (0.7, 100)}, 4)
        assert len(buckets) == 1
        assert buckets[0].count == 2
        assert buckets[0].mean_ndcg10 == pytest.approx(0.6)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_report({}, Qrels(judgments={}), bucket_count=2)

    def test_unjudged_query_warns_not_fatal(self, caplog):
        with caplog.at_level(logging.WARNING):
            report = aggregate_report(
                {"mystery": (strict_ranking(["1", "2"]), 10)}, Qrels(judgments={}), bucket_count=1)
        assert "no judgments" in caplog.text
        assert report.per_query["mystery"] == (0.0, 10)


class TestAttachScores:
    def test_scores_valid_samples_only(self):
        from rerank_distill.models import TrajectorySample
        universe = make_universe(2)
        qrels = graded_qrels("q1", [1, 0], universe)
        valid = TrajectorySample(
            query_id="q1", sample_index=1, raw_text="[1] > [2]", reasoning_text="",
            final_ranking=strict_ranking(["1", "2"]), ranking_sequence=(),
            token_len=3, token_len_source="approximated")
        invalid = TrajectorySample(
            query_id="q1", sample_index=2, raw_text="", reasoning_text="",
            final_ranking=None, ranking_sequence=(), token_len=0,
            token_len_source="approximated", valid=False, error="no ranking")
        scored = attach_scores([valid, invalid], qrels)
        assert scored[0].score == 1.0
        assert scored[1].score is None

    def test_metric_is_looked_up_at_call_time(self, monkeypatch):
        # The benchmark's traced run wraps metrics.ndcg_at_k in place; a
        # default argument bound at import would bypass the wrapper.
        from rerank_distill import metrics
        from rerank_distill.models import TrajectorySample
        calls = []
        monkeypatch.setattr(metrics, "ndcg_at_k", lambda ranking, qrels, qid: calls.append(qid) or 0.5)
        sample = TrajectorySample(
            query_id="q1", sample_index=1, raw_text="[1] > [2]", reasoning_text="",
            final_ranking=strict_ranking(["1", "2"]), ranking_sequence=(),
            token_len=3, token_len_source="approximated")
        assert attach_scores([sample], Qrels(judgments={}))[0].score == 0.5
        assert calls == ["q1"]
