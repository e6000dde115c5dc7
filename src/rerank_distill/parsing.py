"""Turn raw generated text into ranking statements, a final ranking, and a
reasoning/answer split; count tokens.

A ranking statement is a maximal run of bracketed integers joined by '>'
(strictly above) or '=' (tied), e.g. "[13] > [14] > [19] > [3] = [6]".
Integers address candidates by 1-based position; anything outside
[1, n] is treated as a hallucinated identifier and silently dropped. A run
only counts as a ranking when at least two distinct in-universe identifiers
survive, so bare passage citations like "[13]" are ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .models import CandidateSet, Ranking

DEFAULT_THINK_MARKERS = ("<think>", "</think>")

# Maximal syntactic run: bracketed integers joined by > or = with optional
# whitespace. Greedy matching makes every finditer hit maximal.
_RANKING_RUN = re.compile(r"\[\d+\](?:\s*[>=]\s*\[\d+\])*")
# More significant digits than any candidate list needs. int() refuses
# strings past sys.get_int_max_str_digits(), so longer ones are never
# converted.
_MAX_ALIAS_DIGITS = 18


@dataclass(frozen=True)
class RankingPatternMatch:
    """One ranking statement found in text, with its character span."""

    span: tuple[int, int]
    ranking: Ranking


def _alias(digits: str) -> int:
    """The integer a bracketed identifier spells, leading zeros of any
    script ignored; 0, which no candidate has, when it is too long to be
    an alias."""
    if len(digits) > _MAX_ALIAS_DIGITS:
        start = 0
        while start < len(digits) and int(digits[start]) == 0:
            start += 1
        if len(digits) - start > _MAX_ALIAS_DIGITS:
            return 0
        digits = digits[start:] or "0"
    return int(digits)


def _parse_run(run_text: str, universe: CandidateSet) -> Ranking | None:
    """Interpret one syntactic run against the candidate universe.

    Returns None when fewer than two distinct in-universe identifiers
    survive discarding and de-duplication.
    """
    docs = universe.docs
    n = len(docs)
    groups: list[tuple[str, ...]] = []
    seen: set[int] = set()
    # Without whitespace the run reads "[a]>[b]=[c]...": drop the outer
    # brackets and split at the separators.
    for part in "".join(run_text.split())[1:-1].split("]>["):
        group = []
        for digits in part.split("]=["):
            alias = _alias(digits)
            if 1 <= alias <= n and alias not in seen:
                seen.add(alias)
                group.append(docs[alias - 1].doc_id)
        if group:
            groups.append(tuple(group))
    if len(seen) < 2:
        return None
    return Ranking(groups=tuple(groups))


def extract_rankings(
    text: str,
    universe: CandidateSet,
    parsed_runs: dict[str, Ranking | None] | None = None,
) -> list[RankingPatternMatch]:
    """Find every ranking statement in `text`, in ascending span order.

    Spans are the full syntactic runs, so they never overlap.

    `parsed_runs` maps run text to what it parses to under `universe` (a
    Ranking, or None when it is not one), and gains every run seen here.
    Passing the same dict for several texts over one candidate list parses
    each distinct run once; it must not be shared with another candidate
    list, under which the same text names other docs.
    """
    if parsed_runs is None:
        parsed_runs = {}
    matches = []
    for m in _RANKING_RUN.finditer(text):
        run = m.group(0)
        if run in parsed_runs:
            ranking = parsed_runs[run]
        else:
            ranking = parsed_runs[run] = _parse_run(run, universe)
        if ranking is not None:
            matches.append(RankingPatternMatch(span=m.span(), ranking=ranking))
    return matches


def repair_ranking(ranking: Ranking, universe: CandidateSet) -> Ranking:
    """Make `ranking` total over `universe` by appending every unmentioned
    candidate, in original candidate order, as trailing singleton groups.
    A ranking that already mentions every candidate is returned as is."""
    mentioned = set(ranking.flatten())
    tail = tuple((d.doc_id,) for d in universe.docs if d.doc_id not in mentioned)
    if not tail:
        return ranking
    return Ranking(groups=ranking.groups + tail)


def parse_final_ranking(
    text: str,
    universe: CandidateSet,
    matches: list[RankingPatternMatch] | None = None,
) -> tuple[Ranking, float] | None:
    """Take the last ranking statement as the model's decision and repair it
    to a total ranking.

    `matches` is `extract_rankings(text, universe)` when the caller has
    already computed it; the text is scanned only when it is None.

    Returns (ranking, coverage) where coverage is the fraction of the
    universe the statement mentioned before repair, or None when the text
    contains no ranking statement at all.
    """
    if matches is None:
        matches = extract_rankings(text, universe)
    if not matches:
        return None
    last = matches[-1].ranking
    coverage = len(last.flatten()) / len(universe)
    return repair_ranking(last, universe), coverage


def split_reasoning(
    raw_text: str,
    markers: tuple[str, str] = DEFAULT_THINK_MARKERS,
) -> tuple[str, str]:
    """Split a generation into (reasoning, answer).

    When the open/close marker pair is present, reasoning is the delimited
    content and answer is everything outside it. Otherwise the text before
    the last syntactic ranking run is reasoning and the run onward is the
    answer; with no run at all, the whole text is reasoning.
    """
    open_marker, close_marker = markers
    if open_marker and close_marker:
        start = raw_text.find(open_marker)
        if start != -1:
            end = raw_text.find(close_marker, start + len(open_marker))
            if end != -1:
                reasoning = raw_text[start + len(open_marker):end]
                answer = raw_text[:start] + raw_text[end + len(close_marker):]
                return reasoning, answer
    last_run = None
    for m in _RANKING_RUN.finditer(raw_text):
        if m.group(0).count("[") >= 2:  # two items, so a separator between them
            last_run = m
    if last_run is None:
        return raw_text, ""
    return raw_text[:last_run.start()], raw_text[last_run.start():]


def _char_class(c: str) -> str:
    """One letter per token class: whitespace, alpha, digit or other."""
    if c.isspace():
        return "w"
    if c.isalpha():
        return "a"
    if c.isdigit():
        return "d"
    return "o"


class _ClassTable(dict):
    """Code point -> `_char_class` letter, for `str.translate`. Each code
    point is classified the first time a text contains it, so the table
    holds only code points already seen."""

    def __missing__(self, code_point: int) -> str:
        cls = self[code_point] = _char_class(chr(code_point))
        return cls


# Shared by sampling worker threads: a store only ever writes the same
# letter for the same code point, and a dict store is atomic.
_CLASS_TABLE = _ClassTable()
# A token starts wherever a non-whitespace class follows a different one.
# Each pair has two different letters, so its occurrences never overlap
# and str.count finds every one.
_TOKEN_STARTS = tuple(prev + cls for cls in "ado" for prev in "wado" if prev != cls)


def count_tokens(text: str, endpoint_count: int | None = None) -> int:
    """Token length of a generation.

    With `endpoint_count` given (the inference server's usage metadata),
    returns it verbatim; negative counts are corrupt and rejected.
    Otherwise approximates: the text is split at whitespace and at
    letter/digit/punctuation class boundaries, and the surviving runs are
    counted. Deterministic, no model tokenizer involved. The runs are
    counted as class changes in the text's string of class letters.
    """
    if endpoint_count is not None:
        if endpoint_count < 0:
            raise ValueError(f"endpoint-reported token count is negative: {endpoint_count}")
        return endpoint_count
    classes = "w" + text.translate(_CLASS_TABLE)
    return sum(map(classes.count, _TOKEN_STARTS))


def render_ranking(ranking: Ranking, universe: CandidateSet) -> str:
    """Render a Ranking back to "[a] > [b] = [c]" syntax using 1-based
    candidate aliases. Inverse of parsing for rankings over `universe`."""
    alias = {d.doc_id: i for i, d in enumerate(universe.docs, start=1)}
    parts = []
    for group in ranking.groups:
        try:
            rendered = " = ".join(f"[{alias[doc_id]}]" for doc_id in group)
        except KeyError as exc:
            raise ValueError(f"doc_id {exc.args[0]!r} is not in the candidate set") from None
        parts.append(rendered)
    return " > ".join(parts)
