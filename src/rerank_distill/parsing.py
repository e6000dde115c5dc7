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
from typing import NamedTuple

from .models import CandidateSet, Ranking

# The teacher's reasoning delimiters.
THINK_MARKERS = ("<think>", "</think>")

# Maximal syntactic run: bracketed integers joined by > or = with optional
# whitespace. Greedy matching makes every finditer hit maximal. Every
# quantifier is possessive: nothing follows the repeated group, and \d and
# \s never match the "]", separator or "[" after them, so giving back what
# one took could never lead to a match, and the engine does not try.
_RANKING_RUN = re.compile(r"\[\d++\](?:\s*+[>=]\s*+\[\d++\])*+")
# More significant digits than any candidate list needs. int() refuses
# strings past sys.get_int_max_str_digits(), so longer ones are never
# converted.
_MAX_ALIAS_DIGITS = 18
# What `extract_rankings` reads from its `parsed_runs` for a run it has not
# parsed yet; None there is a run that is no ranking.
_UNPARSED = object()


class RankingPatternMatch(NamedTuple):
    """One ranking statement found in text, with its character span. A
    NamedTuple, not a value type of `models`: a trace states several, and a
    tuple costs less to build."""

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
    doc_ids = universe.doc_ids
    n = len(doc_ids)
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
                group.append(doc_ids[alias - 1])
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
    parsed = parsed_runs.get
    matches = []
    for m in _RANKING_RUN.finditer(text):
        run = m[0]
        ranking = parsed(run, _UNPARSED)
        if ranking is _UNPARSED:
            ranking = parsed_runs[run] = _parse_run(run, universe)
        if ranking is not None:
            matches.append(RankingPatternMatch(m.span(), ranking))
    return matches


def repair_ranking(ranking: Ranking, universe: CandidateSet) -> Ranking:
    """Make `ranking` total over `universe` by appending every unmentioned
    candidate, in original candidate order, as trailing singleton groups.
    A ranking that already mentions every candidate is returned as is."""
    mentioned = set(ranking.flatten())
    tail = tuple((doc_id,) for doc_id in universe.doc_ids if doc_id not in mentioned)
    if not tail:
        return ranking
    return Ranking(groups=ranking.groups + tail)


def parse_final_ranking(
    text: str,
    universe: CandidateSet,
    matches: list[RankingPatternMatch] | None = None,
    repaired: dict[Ranking, tuple[Ranking, float]] | None = None,
) -> tuple[Ranking, float] | None:
    """Take the last ranking statement as the model's decision and repair it
    to a total ranking.

    `matches` is `extract_rankings(text, universe)` when the caller has
    already computed it; the text is scanned only when it is None.

    Returns (ranking, coverage) where coverage is the fraction of the
    universe the statement mentioned before repair, or None when the text
    contains no ranking statement at all.

    `repaired` maps each final statement to what it returns for it, and
    gains the statement seen here. Passing the same dict for several texts
    over one candidate list repairs each distinct statement once, and their
    samples share one repaired Ranking; like `extract_rankings`'
    `parsed_runs`, it must not be shared with another candidate list.
    """
    if matches is None:
        matches = extract_rankings(text, universe)
    if not matches:
        return None
    if repaired is None:
        repaired = {}
    last = matches[-1].ranking
    result = repaired.get(last)
    if result is None:
        result = repaired[last] = repair_ranking(last, universe), len(last.flatten()) / len(universe)
    return result


def split_reasoning(raw_text: str) -> tuple[str, str]:
    """Split a generation into (reasoning, answer).

    When the THINK_MARKERS pair is present, reasoning is the delimited
    content and answer is everything outside it. Otherwise the text before
    the last syntactic ranking run is reasoning and the run onward is the
    answer; with no run at all, the whole text is reasoning.
    """
    open_marker, close_marker = THINK_MARKERS
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
    """A one-byte code per token class: whitespace 0, and a single bit for
    each other class: alpha 1, digit 2, other 4."""
    if c.isspace():
        return "\0"
    if c.isalpha():
        return "\1"
    if c.isdigit():
        return "\2"
    return "\4"


class _ClassTable(dict):
    """Code point -> `_char_class` code, for `str.translate`. Each code
    point is classified the first time a text contains it, so the table
    holds only code points already seen."""

    def __missing__(self, code_point: int) -> str:
        cls = self[code_point] = _char_class(chr(code_point))
        return cls


# Shared by sampling worker threads: a store only ever writes the same
# code for the same code point, and a dict store is atomic.
_CLASS_TABLE = _ClassTable()


def count_tokens(text: str) -> int:
    """Approximate token length of a generation, for when the endpoint
    reports none: the text is split at whitespace and at
    letter/digit/punctuation class boundaries, and the surviving runs are
    counted. Deterministic, no model tokenizer involved.

    The text's class codes, one byte per character, are read as one
    little-endian integer. Shifted left by a byte, it puts each previous
    character's code under the next (whitespace, 0, before the first). A
    token starts where a character's code has a bit the previous code
    lacks, which holds exactly when its class is not whitespace and
    differs from the previous class. Each such byte keeps one bit, so the
    popcount is the count.
    """
    codes = int.from_bytes(text.translate(_CLASS_TABLE).encode("latin-1"), "little")
    return (codes ^ (codes & (codes << 8))).bit_count()


def render_ranking(ranking: Ranking, universe: CandidateSet) -> str:
    """Render a Ranking back to "[a] > [b] = [c]" syntax using 1-based
    candidate aliases. Inverse of parsing for rankings over `universe`."""
    alias = dict(zip(universe.doc_ids, range(1, len(universe) + 1)))
    parts = []
    for group in ranking.groups:
        try:
            rendered = " = ".join(f"[{alias[doc_id]}]" for doc_id in group)
        except KeyError as exc:
            raise ValueError(f"doc_id {exc.args[0]!r} is not in the candidate set") from None
        parts.append(rendered)
    return " > ".join(parts)
