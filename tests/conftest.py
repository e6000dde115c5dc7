"""Shared builders for tests."""

from __future__ import annotations

import random
from pathlib import Path

from hypothesis import settings

from rerank_distill import io as rio
from rerank_distill.io import atomic_write, iter_samples, write_samples
from rerank_distill.models import CandidateSet, Qrels, Query, Ranking, TrajectorySample


# Hypothesis's default profile runs 100 examples a property, and "ci" ten
# times that. The store-reader, store-writer and sample-constructor
# properties of tests/test_io.py, the Pareto-target property of
# tests/test_distill.py, the redundancy- and eval-reference properties of
# tests/test_cli.py, and every property of tests/test_parsing.py (token
# counting, the ranking-run pattern) and tests/test_metrics.py (the
# redundancy bundle among them) scale their example counts by the loaded
# profile (`examples`); CI runs them again with `--hypothesis-profile ci`.
settings.register_profile("ci", max_examples=1000)


def examples(count: int) -> int:
    """`count` examples under the default profile, scaled to the loaded one."""
    return count * settings().max_examples // settings.get_profile("default").max_examples


def make_universe(n: int, query_id: str = "q1") -> CandidateSet:
    """Candidate set whose doc_ids equal their 1-based alias, so parsed
    group structures can be compared against bracket numbers literally."""
    doc_ids = tuple(str(i) for i in range(1, n + 1))
    return CandidateSet(query_id=query_id, doc_ids=doc_ids, texts=tuple(f"passage {i}" for i in doc_ids))


def write_store(samples: list[TrajectorySample], path) -> None:
    """Write `samples` as a whole sample store at `path`."""
    with atomic_write(str(path)) as fh:
        write_samples(samples, fh)


def read_store(path) -> list[TrajectorySample]:
    """Every sample of the store at `path`, in store order."""
    return [sample for _, samples in iter_samples(str(path)) for sample in samples]


def splits(line: str) -> bool:
    """Whether the store reader can read `line` from its cut-out ranking
    texts, as it reads every line in the layout `write_samples` writes."""
    cut = rio._cut_rankings(line)
    return cut is not None and rio._split_sample(cut, {}, {}) is not None


def make_query(query_id: str = "q1") -> Query:
    return Query(id=query_id, text=f"what does query {query_id} ask")


def graded_qrels(query_id: str, grades: list[int], universe: CandidateSet) -> Qrels:
    """Grade universe docs in candidate order."""
    return Qrels(judgments={
        (query_id, doc_id): grade for doc_id, grade in zip(universe.doc_ids, grades)
    })


def random_ranking(rng: random.Random, universe: CandidateSet, total: bool = False) -> Ranking:
    """Random tie-structured ranking over a subset (or all) of the universe."""
    ids = list(universe.doc_ids)
    rng.shuffle(ids)
    if not total:
        size = rng.randint(2, len(ids))
        ids = ids[:size]
    groups: list[list[str]] = [[ids[0]]]
    for doc_id in ids[1:]:
        if rng.random() < 0.3:
            groups[-1].append(doc_id)
        else:
            groups.append([doc_id])
    return Ranking(groups=tuple(tuple(g) for g in groups))


MIXED_MODES_YAML = """\
mock:
  name: mixed
  modes:
    - {quality: ideal, filler_sentences: 4, restatements: 0, revert_loops: 0}
    - {quality: ideal, filler_sentences: 80, restatements: 2, revert_loops: 2}
    - {quality: worst, filler_sentences: 4, restatements: 1, revert_loops: 1}
"""


def write_pipeline_workspace(
    root: Path,
    n_queries: int = 3,
    n_docs: int = 10,
    config_extra: str = MIXED_MODES_YAML,
) -> dict[str, str]:
    """Write topics/run/corpus/qrels/config files for a mock pipeline run.

    Grades descend in run order, so the run order is the ideal ranking and
    a reversed ranking still scores above zero.
    """
    qids = [f"q{i:03d}" for i in range(1, n_queries + 1)]
    topics = "".join(f"{qid}\thow does topic {qid} work\n" for qid in qids)
    run_lines = []
    qrels_lines = []
    corpus_lines = []
    for qid in qids:
        for rank in range(1, n_docs + 1):
            doc_id = f"{qid}-d{rank:02d}"
            run_lines.append(f"{qid} Q0 {doc_id} {rank} {float(n_docs - rank + 1)} seedrun\n")
            qrels_lines.append(f"{qid} 0 {doc_id} {max(0, 4 - rank)}\n")
            corpus_lines.append(f"{doc_id}\tpassage {rank} about topic {qid}\n")
    paths = {
        "topics": str(root / "topics.tsv"),
        "run": str(root / "run.txt"),
        "corpus": str(root / "corpus.tsv"),
        "qrels": str(root / "qrels.txt"),
        "config": str(root / "config.yaml"),
    }
    (root / "topics.tsv").write_text(topics)
    (root / "run.txt").write_text("".join(run_lines))
    (root / "corpus.tsv").write_text("".join(corpus_lines))
    (root / "qrels.txt").write_text("".join(qrels_lines))
    (root / "config.yaml").write_text(config_extra)
    return paths
