import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rerank_distill.models import Ranking
from rerank_distill.parsing import (
    count_tokens,
    extract_rankings,
    parse_final_ranking,
    render_ranking,
    split_reasoning,
)

from conftest import make_universe, random_ranking


class TestExtractRankings:
    def test_trace_style_ranking_with_tie(self):
        universe = make_universe(20)
        matches = extract_rankings("[13] > [14] > [19] > [3] = [6]", universe)
        assert len(matches) == 1
        assert matches[0].ranking.groups == (("13",), ("14",), ("19",), ("3", "6"))

    def test_no_pattern(self):
        assert extract_rankings("no brackets here", make_universe(3)) == []

    def test_two_matches_in_text_order(self):
        matches = extract_rankings("[1] > [2] ... later ... [2] > [1]", make_universe(2))
        assert [m.ranking.groups for m in matches] == [(("1",), ("2",)), (("2",), ("1",))]
        assert matches[0].span[1] <= matches[1].span[0]

    def test_out_of_universe_aliases_are_dropped(self):
        matches = extract_rankings("[1] > [99] > [2]", make_universe(3))
        assert [m.ranking.groups for m in matches] == [(("1",), ("2",))]

    def test_zero_is_out_of_universe(self):
        assert extract_rankings("[0] > [1]", make_universe(3)) == []

    def test_repeated_alias_keeps_first_occurrence(self):
        matches = extract_rankings("[2] > [1] > [2] > [3]", make_universe(3))
        assert matches[0].ranking.groups == (("2",), ("1",), ("3",))

    def test_singletons_are_not_rankings(self):
        universe = make_universe(20)
        assert extract_rankings("passage [13] says it best", universe) == []
        # one survivor after discarding is still a singleton
        assert extract_rankings("[1] > [99]", make_universe(3)) == []

    def test_tie_group_shrinks_when_member_is_hallucinated(self):
        matches = extract_rankings("[1] = [99] > [2]", make_universe(3))
        assert matches[0].ranking.groups == (("1",), ("2",))

    def test_whitespace_variants(self):
        universe = make_universe(4)
        for text in ("[1]>[2]", "[1] >[2]", "[1]\n> [2]", "[1]  =  [2]", "[1]\t=\u3000[2]", "[1]\x1c>\xa0[2]"):
            assert len(extract_rankings(text, universe)) == 1
            assert extract_rankings(text, universe)[0].span == (0, len(text))

    def test_tie_with_hallucinated_and_repeated_members(self):
        matches = extract_rankings("[9] = [1] > [1] = [2]", make_universe(3))
        assert matches[0].ranking.groups == (("1",), ("2",))
        matches = extract_rankings("[9] = [1] > [1] = [2]", make_universe(9))
        assert matches[0].ranking.groups == (("9", "1"), ("2",))

    def test_tie_group_that_drops_entirely(self):
        matches = extract_rankings("[1] > [98] = [99] = [1] > [2]", make_universe(3))
        assert matches[0].ranking.groups == (("1",), ("2",))

    def test_overlong_identifier_is_dropped(self):
        # int() refuses strings past 4300 digits; such an id is out of range
        matches = extract_rankings("[1] > [" + "9" * 5000 + "] > [2]", make_universe(5))
        assert [m.ranking.groups for m in matches] == [(("1",), ("2",))]

    def test_leading_zeros_are_aliases(self):
        universe = make_universe(5)
        for padded in ("0002", "0" * 5000 + "2", "\u0660" * 5000 + "2"):
            matches = extract_rankings(f"[{padded}] > [1]", universe)
            assert matches[0].ranking.groups == (("2",), ("1",))
        assert extract_rankings("[" + "0" * 5000 + "] > [1]", universe) == []

    def test_non_ascii_digits_are_aliases(self):
        matches = extract_rankings("[\u0663] > [1]", make_universe(5))
        assert matches[0].ranking.groups == (("3",), ("1",))

    def test_spans_are_ascending_and_non_overlapping(self):
        text = "[1] > [2] mid [3] > [1] = [2] tail [2] > [3]"
        matches = extract_rankings(text, make_universe(3))
        spans = [m.span for m in matches]
        assert spans == sorted(spans)
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert b <= c


class TestParseFinalRanking:
    def test_repair_appends_missing_docs_in_candidate_order(self):
        result = parse_final_ranking('noise [2] > [1] noise', make_universe(3))
        assert result is not None
        ranking, coverage = result
        assert ranking.groups == (("2",), ("1",), ("3",))
        assert coverage == pytest.approx(2 / 3)

    def test_complete_ranking_has_full_coverage(self):
        n = 5
        text = " > ".join(f"[{i}]" for i in range(1, n + 1))
        ranking, coverage = parse_final_ranking(text, make_universe(n))
        assert ranking.flatten() == tuple(str(i) for i in range(1, n + 1))
        assert coverage == 1.0

    def test_unparseable_is_invalid(self):
        assert parse_final_ranking("nothing to see", make_universe(3)) is None

    def test_last_match_wins(self):
        text = "first guess [1] > [2] > [3] but finally [3] > [2] > [1]"
        ranking, _ = parse_final_ranking(text, make_universe(3))
        assert ranking.flatten() == ("3", "2", "1")


class TestSplitReasoning:
    def test_delimited(self):
        assert split_reasoning("<think>blah</think>[1] > [2]") == ("blah", "[1] > [2]")

    def test_fallback_on_last_pattern(self):
        assert split_reasoning("blah blah [1] > [2]") == ("blah blah ", "[1] > [2]")

    def test_empty(self):
        assert split_reasoning("") == ("", "")

    def test_no_pattern_is_all_reasoning(self):
        assert split_reasoning("just musings") == ("just musings", "")

    def test_unclosed_marker_falls_back(self):
        reasoning, answer = split_reasoning("<think>going on [1] > [2]")
        assert answer == "[1] > [2]"

    def test_custom_markers(self):
        got = split_reasoning("<r>why</r>[2] > [1]", markers=("<r>", "</r>"))
        assert got == ("why", "[2] > [1]")

    def test_fallback_ignores_singleton_citations(self):
        reasoning, answer = split_reasoning("see [3] for detail")
        assert (reasoning, answer) == ("see [3] for detail", "")


class TestCountTokens:
    def test_endpoint_reported_is_verbatim(self):
        assert count_tokens("ignored", endpoint_count=2284) == 2284

    def test_negative_endpoint_count_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            count_tokens("x", endpoint_count=-1)

    def test_empty_string(self):
        assert count_tokens("") == 0

    def test_class_boundary_rule_golden(self):
        # frozen from a character-class scanning oracle:
        # "[", "13", "]", ">", "[", "14", "]"
        assert count_tokens("[13] > [14]") == 7

    def test_mixed_classes(self):
        assert count_tokens("hello, world") == 3
        assert count_tokens("a1b") == 3
        assert count_tokens("<think>ok</think>") == 7

    def test_class_rule_outside_plain_ascii(self):
        assert count_tokens("a\x1cb") == 2  # \x1c-\x1f are whitespace to str.isspace
        assert count_tokens("x\x1f\x1d9") == 2
        assert count_tokens("2\xb2") == 1  # superscript two is a digit, though not a decimal
        assert count_tokens("x\xb2") == 2
        assert count_tokens("a\u3000b") == 2
        assert count_tokens("7\u0663 [\u0663]") == 4
        assert count_tokens("caf\xe9 42") == 2


def _char_class_tokens(text: str) -> int:
    """Reference token count: a token starts at each non-whitespace
    character whose class (whitespace, letter, digit, other, as the str
    predicates decide) differs from the previous character's."""
    def cls(c):
        return "ws" if c.isspace() else "alpha" if c.isalpha() else "digit" if c.isdigit() else "other"

    classes = ["ws"] + [cls(c) for c in text]
    return sum(1 for prev, cur in zip(classes, classes[1:]) if cur != "ws" and cur != prev)


def _reference_parse_run(run_text, universe):
    """Token-by-token reading of one ranking run, kept as the reference
    for the parser."""
    groups, current, seen = [], [], set()
    for m in re.finditer(r"\[(\d+)\]|([>=])", run_text):
        if m.group(2) == ">":
            if current:
                groups.append(tuple(current))
            current = []
        elif m.group(1) is not None:
            alias = int(m.group(1))
            if 1 <= alias <= len(universe) and alias not in seen:
                seen.add(alias)
                current.append(universe.docs[alias - 1].doc_id)
    if current:
        groups.append(tuple(current))
    return groups if len(seen) >= 2 else None


class TestProperties:
    @settings(max_examples=200)
    @given(st.data())
    def test_render_parse_round_trip(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        universe = make_universe(n)
        ranking = random_ranking(random.Random(seed), universe)
        text = render_ranking(ranking, universe)
        matches = extract_rankings(text, universe)
        assert len(matches) == 1
        assert matches[0].ranking == ranking

    @settings(max_examples=200)
    @given(
        st.integers(min_value=1, max_value=10),
        st.text(
            alphabet=st.sampled_from(list("[]>=0123456789 abcx\n")),
            max_size=60,
        ),
    )
    def test_repair_totality(self, n, text):
        universe = make_universe(n)
        result = parse_final_ranking(text, universe)
        if result is not None:
            ranking, coverage = result
            assert sorted(ranking.flatten()) == sorted(universe.doc_ids)
            assert 0 < coverage <= 1

    @settings(max_examples=500)
    @given(st.one_of(st.text(), st.text(alphabet=st.characters(max_codepoint=127))))
    def test_count_tokens_matches_char_class_rule(self, text):
        assert count_tokens(text) == _char_class_tokens(text)

    @settings(max_examples=300)
    @given(
        st.integers(min_value=1, max_value=12),
        st.lists(
            st.tuples(
                st.sampled_from([">", "=", " > ", " = ", "\n>\t", "\u3000=\x1c"]),
                st.one_of(st.integers(min_value=0, max_value=15).map(str),
                          st.sampled_from(["007", "\u0663", "00", "99999999999999999999"])),
            ),
            min_size=1, max_size=16,
        ),
    )
    def test_parse_matches_token_reference(self, n, items):
        universe = make_universe(n)
        text = "".join(f"{sep}[{digits}]" for sep, digits in items)[len(items[0][0]):]
        matches = extract_rankings(text, universe)
        expected = _reference_parse_run(text, universe)
        if expected is None:
            assert matches == []
        else:
            assert [m.ranking.groups for m in matches] == [tuple(expected)]
            assert matches[0].span == (0, len(text))

    @settings(max_examples=100)
    @given(st.text(alphabet=st.sampled_from(list("[]>=12345 ab\n")), max_size=80))
    def test_determinism_and_span_order(self, text):
        universe = make_universe(5)
        first = extract_rankings(text, universe)
        second = extract_rankings(text, universe)
        assert [(m.span, m.ranking) for m in first] == [(m.span, m.ranking) for m in second]
        spans = [m.span for m in first]
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))
