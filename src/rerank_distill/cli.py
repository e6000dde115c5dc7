"""Stage-oriented command line: sample -> evaluate -> build-corpus ->
analyze-redundancy -> report.

Stages communicate only through files, so the expensive sampling stage runs
once and the filtering/analysis stages iterate offline. Rerunning any stage
with identical inputs and seed produces byte-identical outputs. Each
offline stage holds one query's samples at a time. So does `sample` with
a backend that never waits, as the mock: it samples one query at a time on
its own thread. With a backend that waits, as an endpoint, it holds at
most 8 × max_in_flight queries' samples. Every stage writes each output
file through a temp file that takes the output's place only once it is
complete.

Exit codes: 0 success, 1 validation or config error, 2 runtime/backend
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import deque
from functools import partial
from itertools import islice
from pathlib import Path

from . import io as rio
from .config import PipelineConfig, load_config
from .distill import build_corpus, retention_rate
from .errors import BackendError, BackendUnreachableError, ConfigError, ParseError
from .metrics import aggregate_report, attach_scores, check_bucket_count, length_buckets, redundancy_metrics
from .sampling import (
    GenerationBackend,
    HttpChatBackend,
    MockBackend,
    PromptTemplate,
    default_template,
    load_template,
    sample_trajectories,
)

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ConfigError so the exit-code
    contract (1 for validation errors) holds."""

    def error(self, message: str):
        raise ConfigError(message)


def _backend_for(args, config: PipelineConfig) -> GenerationBackend:
    if args.backend == "mock":
        qrels = rio.read_qrels(args.qrels) if getattr(args, "qrels", None) else None
        return MockBackend(profile=config.mock, qrels=qrels)
    return HttpChatBackend(config.endpoint)


def _read_inputs(args) -> tuple[dict[str, rio.Query], dict[str, rio.CandidateSet], PromptTemplate]:
    """What `sample` and `build-corpus` both read: the topics by id, each
    query's candidates to `--depth` from the run file and corpus, and the
    prompt template (`--template`, else the packaged one). The template is
    read first: a bad one fails before the corpus is read."""
    template = load_template(args.template) if args.template else default_template()
    queries = {q.id: q for q in rio.read_topics(args.topics)}
    run = rio.read_run(args.run_file, depth=args.depth)
    texts = rio.read_corpus_texts(args.corpus, {doc_id for docs in run.values() for doc_id in docs})
    return queries, rio.candidates_from_run(run, texts), template


def _stage_inputs(args) -> list[tuple[str, str | None]]:
    """(flag, path) of each input `sample` and `build-corpus` share: the
    topics, run file, corpus, config and template."""
    return [("--topics", args.topics), ("--run-file", args.run_file), ("--corpus", args.corpus),
            ("--config", args.config), ("--template", args.template)]


def cmd_sample(args) -> int:
    config = load_config(args.config)
    _distinct_files("--out", args.out, _stage_inputs(args) + [("--qrels", args.qrels)])
    sampling_config = config.sampling_config(args.profile, seed=args.seed)
    backend = _backend_for(args, config)
    queries, candidates, template = _read_inputs(args)

    missing = sorted(set(candidates) - set(queries))
    if missing:
        raise ConfigError(f"run file contains queries absent from the topics file: {missing}")

    for qid, cand in sorted(candidates.items()):
        if len(cand) < args.depth:
            logger.warning("query %s has only %d candidates (requested depth %d)", qid, len(cand), args.depth)

    def sample(qid: str):
        return sample_trajectories(queries[qid], candidates[qid], sampling_config, backend, template=template)

    qids = sorted(candidates)
    if backend.waits:
        results = _pooled(sample, qids, sampling_config.max_in_flight)
    else:
        # Nothing to overlap: each query is sampled on this thread when the
        # loop below asks for it, and written before the next is sampled.
        # A pool here made its threads only hand the interpreter lock to
        # one another: on distill-mock, 145-151 voluntary context switches
        # a stage against 0-2 without it, which took 19 % less CPU.
        results = ((qid, partial(sample, qid)) for qid in qids)
    written = 0
    failed_queries = []
    try:
        with rio.atomic_write(args.out) as fh:
            for done, (qid, result) in enumerate(results, start=1):
                try:
                    samples = result()
                except BackendUnreachableError as exc:
                    logger.error("query %s failed: %s", qid, exc)
                    failed_queries.append(qid)
                    continue
                rio.write_samples(samples, fh)
                written += len(samples)
                logger.info("sampled query %s (%d/%d): %d/%d valid", qid, done, len(candidates),
                            sum(s.valid for s in samples), len(samples))
    finally:
        # An exception above leaves a pool's queued queries unsent.
        results.close()
        backend.close()

    print(f"wrote {written} samples for {len(candidates) - len(failed_queries)} queries to {args.out}")
    if failed_queries:
        print(f"{len(failed_queries)} queries failed at the backend: {failed_queries}", file=sys.stderr)
        return 2
    return 0


def _pooled(sample, qids: list[str], max_in_flight: int):
    """Yield `(qid, result)` for each of `qids` in turn, where `result()`
    waits for `sample(qid)` alone and returns it or raises what it raised.
    `max_in_flight` worker threads sample the queries, one query per
    worker.

    One rule keeps at most a window of W = 8 × `max_in_flight` queries
    submitted and not yet written: whenever at most W/2 are, submit
    queries until W are. So the samples held in memory do not grow with
    the number of queries, the store stays in query order, and a finished
    query is written as soon as every query before it has been written.
    Refilling one query per written query instead cost `sample` 8 % more
    CPU on distill-latency. Closing the generator cancels the queries not
    yet started and waits for the running ones.
    """
    # Only a backend that waits needs a pool; the other stages and a mock
    # `sample` do without the import.
    from concurrent.futures import ThreadPoolExecutor

    window = 8 * max_in_flight
    unsent = iter(qids)
    pending = deque()
    pool = ThreadPoolExecutor(max_workers=max_in_flight)
    try:
        while True:
            if len(pending) <= window // 2:
                pending.extend((qid, pool.submit(sample, qid)) for qid in islice(unsent, window - len(pending)))
            if not pending:
                return
            qid, future = pending.popleft()
            yield qid, future.result
    finally:
        pool.shutdown(cancel_futures=True)


def _distinct_files(flag: str, path: str, others: list[tuple[str, str | None]]) -> None:
    """Refuse an output that names the same file as one of `others`, each
    a `(flag, path)` the stage reads or writes. Output over input would
    replace what the stage reads; two outputs on one path would share one
    temp file, and the stage would fail after the inner writer had
    replaced the path."""
    resolved = Path(path).resolve()
    for other_flag, other in others:
        if other is not None and Path(other).resolve() == resolved:
            raise ConfigError(f"{flag} and {other_flag} name the same file {path!r}")


def cmd_evaluate(args) -> int:
    scored_out = args.scored_out or str(Path(args.samples).with_suffix(".scored.jsonl"))
    _distinct_files("--out", args.out, [("--scored-out", scored_out), ("--samples", args.samples),
                                        ("--qrels", args.qrels)])
    # A store may be scored in place.
    _distinct_files("--scored-out", scored_out, [("--qrels", args.qrels)])
    qrels = rio.read_qrels(args.qrels)
    judged = qrels.query_ids()
    # The report takes each query's lowest-index valid sample, matching the
    # one-generation-per-query evaluation protocol when K=1.
    per_query = {}
    skipped = []
    n_scored = 0
    with rio.atomic_write(scored_out) as fh:
        for lines, samples in rio.iter_samples(args.samples):
            scores = attach_scores(samples, qrels)
            rio.write_scored_samples(lines, samples, scores, fh)
            n_scored += len(samples)
            first = min((i for i, score in enumerate(scores) if score is not None),
                        key=lambda i: samples[i].sample_index, default=None)
            qid = samples[0].query_id
            if first is None:
                skipped.append(qid)
                continue
            if qid not in judged:
                logger.warning("query %s has no judgments; scoring against grade 0", qid)
            per_query[qid] = (scores[first], samples[first].token_len)
        if skipped:
            logger.warning("%d queries have no valid sample and are absent from the report: %s",
                           len(skipped), skipped)
        # Inside the block: a run whose report cannot be built or written
        # leaves the scored store as it was.
        report = aggregate_report(per_query)
        # eval.json keeps a 10-bucket curve; `report` redraws it at any count.
        rio.write_report(rio.eval_report_payload(report, length_buckets(report.per_query, 10)), args.out,
                         format="json")
    print(f"scored {n_scored} samples -> {scored_out}")
    print(f"report: mean nDCG@10 {report.mean_ndcg10:.4f}, mean length {report.mean_len:.1f} -> {args.out}")
    return 0


def cmd_build_corpus(args) -> int:
    stats_out = args.stats or str(Path(args.out).with_suffix(".stats.json"))
    # The stage reads nothing of the config, but a bad one fails here as it
    # does in `sample`.
    load_config(args.config)
    inputs = [("--samples", args.samples)] + _stage_inputs(args)
    _distinct_files("--out", args.out, [("--stats", stats_out)] + inputs)
    _distinct_files("--stats", stats_out, inputs)
    queries, candidates, template = _read_inputs(args)

    rows = []

    def targets():
        for _, samples in rio.iter_samples(args.samples):
            qid = samples[0].query_id
            if qid not in queries:
                raise ConfigError(f"sampled query {qid!r} is missing from the topics file")
            if qid not in candidates:
                raise ConfigError(f"sampled query {qid!r} is missing from the run file")
            query_targets, query_rows = build_corpus({qid: (queries[qid], candidates[qid], samples)})
            rows.extend(query_rows)
            yield from query_targets

    with rio.atomic_write(args.out) as fh:
        # Each target is written as soon as its query is filtered: a target
        # is one of its query's samples, and the stage keeps no list of them.
        rio.write_sft_corpus(targets(), template, fh)
        rate = retention_rate(rows)
        # Inside the block: stats that cannot be written leave the corpus as it was.
        rio.write_report(rio.filter_stats_report(rows, rate), stats_out, format="json")
    retained = sum(row["retained"] for row in rows)
    print(f"corpus: {retained} records from {len(rows)} queries (retention {rate:.3f}) -> {args.out}")
    print(f"filter stats -> {stats_out}")
    return 0


def cmd_analyze_redundancy(args) -> int:
    _distinct_files("--out", args.out, [("--samples", args.samples)])
    per_sample = []
    traced = []
    for _, samples in rio.iter_samples(args.samples):
        for sample in samples:
            row = {"query_id": sample.query_id, "sample_index": sample.sample_index,
                   **redundancy_metrics(sample.ranking_sequence)}
            per_sample.append(row)
            if row["seq_len"] >= 1:
                traced.append(row)
    if not per_sample:
        raise ConfigError(f"no samples in {args.samples}")
    if not traced:
        raise ConfigError("no sample contains any ranking statement; nothing to average")
    rows = [{
        "model_tag": args.model_tag,
        "avg_trr": sum(row["trr"] for row in traced) / len(traced),
        "avg_mor": sum(row["mor"] for row in traced) / len(traced),
        "n_traces": len(traced),
    }]
    rio.write_report(rio.redundancy_report(rows, per_sample), args.out, format=args.format)
    print(f"{args.model_tag}: avg TRR {rows[0]['avg_trr']:.4f}, avg MOR {rows[0]['avg_mor']:.4f} "
          f"over {len(traced)} traces -> {args.out}")
    return 0


def cmd_report(args) -> int:
    check_bucket_count(args.bucket_count)
    inputs = []
    for spec_arg in args.inputs:
        tag, eq, path = spec_arg.partition("=")
        if not tag or not eq:
            raise ConfigError(f"report inputs must be tag=path, got {spec_arg!r}")
        _distinct_files("--out", args.out, [(spec_arg, path)])
        if any(tag == seen for seen, _ in inputs):
            raise ConfigError(f"report tag {tag!r} is given twice")
        inputs.append((tag, rio.read_eval_report(path)))

    reference_tag, reference = inputs[0]
    ref_queries = set(reference.per_query)
    for tag, report in inputs[1:]:
        queries = set(report.per_query)
        if queries != ref_queries:
            only_ref = sorted(ref_queries - queries)
            only_here = sorted(queries - ref_queries)
            raise ConfigError(
                f"query sets differ between {reference_tag!r} and {tag!r}: "
                f"only in {reference_tag!r}: {only_ref}; only in {tag!r}: {only_here}"
            )

    # Each file's stored means: a mean of its 6-decimal per-query values
    # can round otherwise.
    rows = [{"tag": tag, "mean_ndcg10": report.mean_ndcg10, "mean_len": report.mean_len} for tag, report in inputs]
    curves = {tag: length_buckets(report.per_query, args.bucket_count) for tag, report in inputs}
    merged = {"kind": "comparison", "rows": rows, "curves": curves}
    rio.write_report(merged, args.out, format=args.format)
    for row in rows:
        print(f"{row['tag']}: nDCG@10 {row['mean_ndcg10']:.4f}, mean length {row['mean_len']:.1f}")
    print(f"comparison -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rerank-distill",
                     description="Sample, score, filter, and analyze listwise-reranker reasoning traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--topics", required=True, help="tab-separated qid<TAB>query text")
    inputs.add_argument("--run-file", required=True, help="TREC run file with first-stage candidates")
    inputs.add_argument("--corpus", required=True, help="tab-separated docid<TAB>passage text")
    inputs.add_argument("--config", default=None)
    inputs.add_argument("--depth", type=int, default=10, help="candidate list depth")
    inputs.add_argument("--template", default=None, help="prompt template path (default: packaged)")

    p = sub.add_parser("sample", parents=[inputs], help="draw K trajectories per query and persist them")
    p.add_argument("--out", required=True, help="samples JSONL to write")
    p.add_argument("--backend", choices=("mock", "http"), default="mock")
    p.add_argument("--profile", default="distill", help="sampling profile name (distill or eval)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--qrels", default=None, help="lets the mock backend target grade-aware orderings")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score samples against qrels and emit an eval report")
    p.add_argument("--samples", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="eval report JSON to write")
    p.add_argument("--scored-out", default=None, help="scored samples JSONL (default: <samples>.scored.jsonl)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("build-corpus", parents=[inputs], help="filter scored samples into an SFT corpus")
    p.add_argument("--samples", required=True, help="scored samples JSONL")
    p.add_argument("--out", required=True, help="SFT corpus JSONL to write")
    p.add_argument("--stats", default=None, help="filter stats JSON (default: <out>.stats.json)")
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("analyze-redundancy", help="per-sample TRR/MOR plus model averages")
    p.add_argument("--samples", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--model-tag", default="model")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_analyze_redundancy)

    p = sub.add_parser("report", help="merge eval reports into comparison rows and length curves")
    p.add_argument("inputs", nargs="+", metavar="TAG=PATH", help="eval report files, tagged")
    p.add_argument("--out", required=True)
    p.add_argument("--bucket-count", type=int, default=10)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConfigError, ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BackendError as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
