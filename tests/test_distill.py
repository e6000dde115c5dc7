import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerank_distill.distill import (
    build_corpus,
    efficient_set,
    query_stats,
    retention_rate,
    select_target,
    valid_subset,
)
from rerank_distill.models import Ranking, TrajectorySample

from conftest import examples, make_query, make_universe


def sample(idx, score=None, token_len=100, valid=True, qid="q1"):
    ranking = Ranking(groups=(("1",), ("2",))) if valid else None
    return TrajectorySample(
        query_id=qid, sample_index=idx, raw_text=f"trace {idx}", reasoning_text="",
        final_ranking=ranking, ranking_sequence=(), token_len=token_len,
        token_len_source="approximated", score=score, valid=valid,
        error=None if valid else "unparseable",
    )


def exhaustive_filter(pairs):
    """Independent checker: recompute means and test every sample's
    predicate directly."""
    mu_s = sum(s for s, _ in pairs) / len(pairs)
    mu_l = sum(l for _, l in pairs) / len(pairs)
    return [i for i, (s, l) in enumerate(pairs) if s >= mu_s and l < mu_l]


class TestValidSubset:
    def test_filters_on_validity_and_positive_score(self):
        samples = [sample(1, score=0.8), sample(2, score=0.0), sample(3, valid=False)]
        assert valid_subset(samples) == [samples[0]]

    def test_all_invalid(self):
        assert valid_subset([sample(1, valid=False), sample(2, valid=False)]) == []

    def test_identity_when_all_qualify(self):
        samples = [sample(1, score=0.5), sample(2, score=0.9)]
        assert valid_subset(samples) == samples

    def test_unscored_valid_sample_is_a_bug(self):
        with pytest.raises(ValueError, match="unscored"):
            valid_subset([sample(1, score=None)])


class TestQueryStats:
    def test_worked_example(self):
        samples = [sample(1, 0.8, 100), sample(2, 0.8, 300), sample(3, 0.5, 120)]
        mu_s, mu_l = query_stats(samples)
        assert mu_s == pytest.approx(0.7)
        assert mu_l == pytest.approx(520 / 3)

    def test_singleton(self):
        assert query_stats([sample(1, 0.6, 200)]) == (0.6, 200.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            query_stats([])


class TestEfficientSet:
    def test_worked_example_survivor(self):
        samples = [sample(1, 0.8, 100), sample(2, 0.8, 300), sample(3, 0.5, 120)]
        mu_s, mu_l = query_stats(samples)
        survivors = efficient_set(samples, mu_s, mu_l)
        assert [(s.score, s.token_len) for s in survivors] == [(0.8, 100)]

    def test_all_identical_yields_empty(self):
        samples = [sample(i, 0.6, 150) for i in range(1, 4)]
        mu_s, mu_l = query_stats(samples)
        assert efficient_set(samples, mu_s, mu_l) == []

    def test_singleton_yields_empty(self):
        samples = [sample(1, 0.9, 80)]
        mu_s, mu_l = query_stats(samples)
        assert efficient_set(samples, mu_s, mu_l) == []


class TestSelectTarget:
    def test_argmin_length(self):
        samples = [sample(1, 0.8, 120), sample(2, 0.8, 100)]
        assert select_target(samples) is samples[1]

    def test_empty_returns_none(self):
        assert select_target([]) is None

    def test_tie_break_higher_score_then_lower_index(self):
        a = sample(1, 0.7, 100)
        b = sample(2, 0.9, 100)
        assert select_target([a, b]) is b
        c = sample(3, 0.9, 100)
        assert select_target([b, c]) is b


class TestBuildCorpus:
    def test_retention_counting(self):
        q, u = make_query("a"), make_universe(2, "a")
        q2, u2 = make_query("b"), make_universe(2, "b")
        retained = [sample(1, 0.9, 50, qid="a"), sample(2, 0.5, 200, qid="a")]
        discarded = [sample(1, 0.6, 100, qid="b")]
        targets, rows = build_corpus({"a": (q, u, retained), "b": (q2, u2, discarded)})
        assert retention_rate(rows) == 0.5
        assert targets == [(q, u, retained[0])]

    def test_all_empty_efficient_sets(self):
        q, u = make_query("a"), make_universe(2, "a")
        targets, rows = build_corpus({"a": (q, u, [sample(1, 0.6, 100, qid="a")])})
        assert targets == []
        assert retention_rate(rows) == 0.0
        assert rows == [{"query_id": "a", "n_sampled": 1, "n_valid": 1, "mean_score": 0.6, "mean_len": 100.0,
                         "efficient_indices": [], "retained": False}]

    def test_stats_row_per_query_and_ordering(self):
        per_query = {}
        for qid in ("b", "a", "c"):
            per_query[qid] = (make_query(qid), make_universe(2, qid),
                              [sample(1, 0.9, 50, qid=qid), sample(2, 0.5, 300, qid=qid)])
        targets, rows = build_corpus(per_query)
        assert [row["query_id"] for row in rows] == ["a", "b", "c"]
        assert [query.id for query, _, _ in targets] == ["a", "b", "c"]
        assert [row["efficient_indices"] for row in rows] == [[1]] * 3

    def test_no_valid_samples_gives_zero_means(self):
        q, u = make_query("a"), make_universe(2, "a")
        _, rows = build_corpus({"a": (q, u, [sample(1, valid=False)])})
        assert rows == [{"query_id": "a", "n_sampled": 1, "n_valid": 0, "mean_score": 0.0, "mean_len": 0.0,
                         "efficient_indices": [], "retained": False}]
        assert retention_rate(rows) == 0.0


class TestFilterProperties:
    def test_matches_exhaustive_checker_on_random_sets(self):
        rng = random.Random(42)
        for _ in range(300):
            k = rng.randint(1, 16)
            pairs = [(round(rng.random(), 3), rng.randint(10, 500)) for _ in range(k)]
            samples = [sample(i + 1, s, l) for i, (s, l) in enumerate(pairs)]
            mu_s, mu_l = query_stats(samples)
            got = [s.sample_index - 1 for s in efficient_set(samples, mu_s, mu_l)]
            assert got == exhaustive_filter(pairs)

    def test_out_of_subset_samples_never_move_the_means(self):
        rng = random.Random(7)
        for _ in range(100):
            valid = [sample(i + 1, 0.2 + 0.7 * rng.random(), rng.randint(50, 400)) for i in range(4)]
            noise = [sample(9, score=0.0, token_len=rng.randint(1, 10_000)),
                     sample(10, valid=False, token_len=rng.randint(1, 10_000))]
            with_noise = valid_subset(valid + noise)
            assert query_stats(with_noise) == query_stats(valid)
            target_a = select_target(efficient_set(valid, *query_stats(valid)))
            target_b = select_target(efficient_set(with_noise, *query_stats(with_noise)))
            assert target_a is target_b

    def test_dominant_sample_always_wins(self):
        rng = random.Random(9)
        for _ in range(100):
            base = [sample(i + 1, 0.1 + 0.8 * rng.random(), rng.randint(50, 400)) for i in range(3)]
            dominant = sample(4, 1.0, 1)
            valid = valid_subset(base + [dominant])
            mu_s, mu_l = query_stats(valid)
            target = select_target(efficient_set(valid, mu_s, mu_l))
            assert target is dominant


# Few distinct scores and lengths, so that a query's efficient samples
# often tie on length with different scores.
_SCORES = st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.0, 1.0)
_LENGTHS = st.sampled_from([0, 1, 2, 1000])


@st.composite
def _query_samples(draw, qid):
    """One query's samples in any order: valid ones scored, invalid ones
    scored or not."""
    samples = []
    for idx in draw(st.permutations(range(1, draw(st.integers(1, 16)) + 1))):
        valid = draw(st.sampled_from([True, True, True, False]))
        score = draw(_SCORES if valid else st.none() | _SCORES)
        samples.append(sample(idx, score=score, token_len=draw(_LENGTHS), valid=valid, qid=qid))
    return samples


def dominates(a, b) -> bool:
    """Whether `a` is Pareto-better than `b`: a score at least as high and
    a length no longer, and better on one of them."""
    return (a.score >= b.score and a.token_len <= b.token_len
            and (a.score > b.score or a.token_len < b.token_len))


class TestParetoTarget:
    """The filter is Pareto-inspired: its target is on the front of (score
    up, length down) over the query's valid scored samples."""

    @settings(max_examples=examples(200), deadline=None)
    @given(st.data())
    def test_target_is_never_dominated(self, data):
        qids = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
        per_query = {qid: (make_query(qid), make_universe(2, qid), data.draw(_query_samples(qid))) for qid in qids}
        triples, rows = build_corpus(per_query)
        targets = {query.id: target for query, _, target in triples}
        assert [row["query_id"] for row in rows if row["retained"]] == sorted(targets)
        for qid, target in targets.items():
            samples = per_query[qid][2]
            assert any(s is target for s in samples)
            scored = [s for s in samples if s.valid and s.score is not None]
            assert not any(dominates(s, target) for s in scored)


def _per_query(data):
    qids = data.draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    return {qid: (make_query(qid), make_universe(2, qid), data.draw(_query_samples(qid))) for qid in qids}


class TestFilterStatsRows:
    """`build_corpus`'s rows are `corpus.stats.json`'s rows, and what a row
    says of its query holds of the query's samples and target."""

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_a_row_counts_its_valid_samples_among_the_sampled_ones(self, data):
        per_query = _per_query(data)
        _, rows = build_corpus(per_query)
        for row in rows:
            samples = per_query[row["query_id"]][2]
            assert row["n_sampled"] == len(samples)
            assert row["n_valid"] == len(valid_subset(samples)) <= row["n_sampled"]

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_a_row_is_retained_exactly_when_it_has_efficient_samples(self, data):
        per_query = _per_query(data)
        triples, rows = build_corpus(per_query)
        targets = {query.id: target for query, _, target in triples}
        for row in rows:
            valid = {s.sample_index for s in valid_subset(per_query[row["query_id"]][2])}
            assert set(row["efficient_indices"]) <= valid
            assert row["retained"] == bool(row["efficient_indices"]) == (row["query_id"] in targets)
            if row["retained"]:
                assert targets[row["query_id"]].sample_index in row["efficient_indices"]

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_every_target_is_an_input_sample_scoring_above_zero(self, data):
        per_query = _per_query(data)
        triples, _ = build_corpus(per_query)
        for query, candidates, target in triples:
            given_query, given_candidates, samples = per_query[query.id]
            assert query is given_query and candidates is given_candidates
            assert any(s is target for s in samples)
            assert target.valid and target.score > 0.0

    def test_zero_scoring_samples_leave_a_query_unretained(self):
        q, u = make_query("a"), make_universe(2, "a")
        samples = [sample(1, 0.0, 10, qid="a"), sample(2, 0.0, 500, qid="a"), sample(3, 0.0, 900, qid="a")]
        targets, rows = build_corpus({"a": (q, u, samples)})
        assert targets == []
        assert rows == [{"query_id": "a", "n_sampled": 3, "n_valid": 0, "mean_score": 0.0, "mean_len": 0.0,
                         "efficient_indices": [], "retained": False}]

    @settings(max_examples=examples(100), deadline=None)
    @given(st.data())
    def test_a_row_has_the_stats_file_keys_and_reads_back_from_json(self, data):
        _, rows = build_corpus(_per_query(data))
        for row in rows:
            assert list(row) == ["query_id", "n_sampled", "n_valid", "mean_score", "mean_len",
                                 "efficient_indices", "retained"]
            assert [type(row[key]) for key in row] == [str, int, int, float, float, list, bool]
            assert json.loads(json.dumps(row)) == row
