import json
import math
import random
from fractions import Fraction

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

from conftest import examples, graded_qrels, make_universe


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


@st.composite
def _tie_structures(draw, docs=("1", "2", "3")):
    """The groups of a Ranking over `docs`: an order, cut into tie groups."""
    order = draw(st.permutations(docs))
    cuts = draw(st.lists(st.booleans(), min_size=len(docs) - 1, max_size=len(docs) - 1))
    groups, group = [], [order[0]]
    for doc, cut in zip(order[1:], cuts):
        if cut:
            groups.append(tuple(group))
            group = []
        group.append(doc)
    return (*groups, tuple(group))


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
        assert redundancy_metrics(_seq("ABAA")) == {"seq_len": 4, "t_star": 2, "trr": 0.5, "mor": 0.5}
        assert redundancy_metrics([]) == {"seq_len": 0, "t_star": 0, "trr": 0.0, "mor": 0.0}

    def test_bundle_finds_t_star_once_and_equals_the_separate_metrics(self):
        rng = random.Random(11)
        for _ in range(200):
            seq = _seq([rng.choice("ABCD") for _ in range(rng.randint(0, 9))])
            # t*: the 1-based position of the last element no earlier one equals.
            t_star = max((i + 1 for i, r in enumerate(seq) if r not in seq[:i]), default=0)
            rm = redundancy_metrics(seq)
            assert (rm["seq_len"], rm["t_star"], rm["mor"]) == (len(seq), t_star, multi_occurrence_ratio(seq))
            assert rm["trr"] == tail_repeat_ratio(seq)  # the same float, not an approximation

    @settings(max_examples=examples(300))
    @given(st.data())
    def test_bundle_equals_brute_force_definitions(self, data):
        # A pool of tie structures over three docs, some of them equal; each
        # element is a pool member's shared Ranking or an equal one built anew.
        pool = data.draw(st.lists(_tie_structures(), min_size=1, max_size=4))
        shared = [Ranking(groups=groups) for groups in pool]
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=12))
        seq = [shared[i] if reuse else Ranking(groups=tuple(tuple(list(g)) for g in pool[i]))
               for i, reuse in picks]

        # Brute force: equality of group tuples only, no hashing.
        t = len(seq)
        novel = [i for i in range(t) if all(seq[j].groups != seq[i].groups for j in range(i))]
        t_star = novel[-1] + 1 if novel else 0
        distinct = [seq[i].groups for i in novel]
        recurring = [g for g in distinct if sum(r.groups == g for r in seq) >= 2]
        trr = (t - t_star) / t if t > 1 else 0.0
        mor = len(recurring) / len(distinct) if distinct else 0.0

        assert redundancy_metrics(seq) == {"seq_len": t, "t_star": t_star, "trr": trr, "mor": mor}
        assert (tail_repeat_ratio(seq), multi_occurrence_ratio(seq)) == (trr, mor)

    def test_bundle_values_stay_within_their_ranges(self):
        rng = random.Random(13)
        for _ in range(200):
            rm = redundancy_metrics(_seq([rng.choice("ABCD") for _ in range(rng.randint(0, 9))]))
            assert 0 <= rm["t_star"] <= rm["seq_len"]
            assert (rm["t_star"] == 0) == (rm["seq_len"] == 0)
            assert 0.0 <= rm["trr"] < 1.0 and 0.0 <= rm["mor"] <= 1.0
            assert rm["trr"] == ((rm["seq_len"] - rm["t_star"]) / rm["seq_len"] if rm["seq_len"] > 1 else 0.0)

    def test_bundle_has_the_report_row_keys_and_reads_back_from_json(self):
        for labels in ("", "A", "ABAA", "ABC"):
            rm = redundancy_metrics(_seq(labels))
            assert list(rm) == ["seq_len", "t_star", "trr", "mor"]
            assert [type(rm[key]) for key in rm] == [int, int, float, float]
            assert json.loads(json.dumps(rm)) == rm

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

    @settings(max_examples=examples(100))
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
        report = aggregate_report({"q1": (ndcg_at_k(strict_ranking(["1", "2", "3"]), qrels, "q1"), 100)})
        assert report.mean_ndcg10 == 1.0
        assert report.mean_len == 100
        assert report.per_query["q1"] == (1.0, 100)

    def test_two_query_means(self):
        qrels = Qrels(judgments={("a", "1"): 1, ("b", "1"): 1})
        per_query = {
            "a": (ndcg_at_k(strict_ranking(["2", "1"]), qrels, "a"), 100),   # relevant doc second
            "b": (ndcg_at_k(strict_ranking(["1", "2"]), qrels, "b"), 300),   # relevant doc first
        }
        report = aggregate_report(per_query)
        expected_a = brute_force_ndcg([0, 1], 10)
        assert report.mean_ndcg10 == pytest.approx((expected_a + 1.0) / 2)
        assert report.mean_len == 200

    def test_per_query_in_query_id_order(self):
        report = aggregate_report({"b": (0.5, 300), "a": (1.0, 100)})
        assert list(report.per_query.items()) == [("a", (1.0, 100)), ("b", (0.5, 300))]

    def test_bucket_rule(self):
        assert length_buckets({"a": (1.0, 100), "b": (0.5, 300)}, 2) == [
            {"lo": 100.0, "hi": 200.0, "mean_ndcg10": 1.0, "count": 1},
            {"lo": 200.0, "hi": 300.0, "mean_ndcg10": 0.5, "count": 1}]

    def test_length_on_a_lower_edge_is_in_that_bucket(self):
        # (109 - 100) / (18 / 14) is 6.999... in floats; 109 is bucket 7's lower edge.
        buckets = length_buckets({"a": (0.1, 100), "b": (0.2, 109), "c": (0.3, 118)}, 14)
        assert [i for i, b in enumerate(buckets) if b["count"]] == [0, 7, 13]
        assert buckets[7]["mean_ndcg10"] == 0.2
        assert buckets[1]["mean_ndcg10"] is None

    @settings(max_examples=examples(300))
    @given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=2, max_size=8, unique=True),
           st.integers(min_value=1, max_value=50))
    def test_bucket_is_the_exact_floor(self, lengths, bucket_count):
        lo, hi = min(lengths), max(lengths)
        # Every length that sits exactly on a bucket edge, where a rounded
        # quotient can fall on either side.
        lengths = sorted(set(lengths) | {lo + i * (hi - lo) // bucket_count for i in range(bucket_count)
                                         if i * (hi - lo) % bucket_count == 0})
        per_query = {f"q{i}": (0.5, length) for i, length in enumerate(lengths)}
        expected = [0] * bucket_count
        for length in lengths:
            expected[min(math.floor(Fraction(length - lo) * bucket_count / (hi - lo)), bucket_count - 1)] += 1
        assert [b["count"] for b in length_buckets(per_query, bucket_count)] == expected

    def test_degenerate_single_length(self):
        buckets = length_buckets({"a": (0.5, 100), "b": (0.7, 100)}, 4)
        assert len(buckets) == 1
        assert (buckets[0]["lo"], buckets[0]["hi"], buckets[0]["count"]) == (100.0, 100.0, 2)
        assert buckets[0]["mean_ndcg10"] == pytest.approx(0.6)

    @pytest.mark.parametrize("lengths", [(100, 100), (100, 200)])
    @pytest.mark.parametrize("bucket_count", [0, -2])
    def test_bucket_count_below_one_rejected(self, lengths, bucket_count):
        with pytest.raises(ValueError, match="bucket_count must be >= 1"):
            length_buckets({"a": (0.5, lengths[0]), "b": (0.7, lengths[1])}, bucket_count)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            aggregate_report({})


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
            token_len_source="approximated", score=0.5, valid=False, error="no ranking")
        assert attach_scores([valid, invalid], qrels) == [1.0, None]

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
        assert attach_scores([sample], Qrels(judgments={})) == [0.5]
        assert calls == ["q1"]

    def test_each_distinct_final_ranking_of_a_query_is_scored_once(self, monkeypatch):
        from rerank_distill import metrics
        from rerank_distill.models import TrajectorySample

        def sample(query_id, k, ranking):
            return TrajectorySample(
                query_id=query_id, sample_index=k, raw_text="", reasoning_text="",
                final_ranking=ranking, ranking_sequence=(), token_len=3, token_len_source="approximated",
                valid=ranking is not None, error=None if ranking is not None else "no ranking")

        forward, backward = strict_ranking(["1", "2", "3"]), strict_ranking(["3", "2", "1"])
        samples = [
            sample("q1", 1, forward),
            sample("q1", 2, strict_ranking(["1", "2", "3"])),  # equal to forward, another object
            sample("q1", 3, backward),
            sample("q1", 4, None),
            sample("q1", 5, forward),
            sample("q2", 1, forward),  # the same ranking of another query
        ]
        qrels = Qrels(judgments={("q1", "1"): 2, ("q1", "3"): 1, ("q2", "3"): 3})
        expected = [ndcg_at_k(s.final_ranking, qrels, s.query_id) if s.valid else None for s in samples]
        calls = []

        def spy(ranking, qrels, query_id):
            calls.append((query_id, ranking.groups))
            return ndcg_at_k(ranking, qrels, query_id)

        monkeypatch.setattr(metrics, "ndcg_at_k", spy)
        assert attach_scores(samples, qrels) == expected
        assert calls == [("q1", forward.groups), ("q1", backward.groups), ("q2", forward.groups)]
