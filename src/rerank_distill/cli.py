"""Stage-oriented command line: sample -> evaluate -> build-corpus ->
analyze-redundancy -> report.

Stages communicate only through files, so the expensive sampling stage runs
once and the filtering/analysis stages iterate offline. Rerunning any stage
with identical inputs and seed produces byte-identical outputs.

Exit codes: 0 success, 1 validation or config error, 2 runtime/backend
failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import io as rio
from .config import PipelineConfig, load_config
from .distill import build_corpus
from .errors import BackendError, BackendUnreachableError, ConfigError, ParseError
from .metrics import aggregate_report, attach_scores, length_buckets, redundancy_metrics
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


def _template_for(config: PipelineConfig, override: str | None) -> PromptTemplate:
    path = override or config.prompt_template
    return load_template(path) if path else default_template()


def _backend_for(args, config: PipelineConfig) -> GenerationBackend:
    if args.backend == "mock":
        qrels = rio.read_qrels(args.qrels) if getattr(args, "qrels", None) else None
        return MockBackend(profile=config.mock, qrels=qrels)
    ep = config.endpoint
    if not ep.url:
        raise ConfigError("http backend selected but endpoint.url is not configured")
    return HttpChatBackend(
        ep.url,
        auth_env=ep.auth_env,
        timeout_s=ep.timeout_s,
        max_retries=ep.max_retries,
        backoff_base_s=ep.backoff_base_s,
    )


def _load_candidates(args, config: PipelineConfig) -> dict[str, rio.CandidateSet]:
    run_path = args.run_file or config.paths.get("run")
    if not run_path:
        raise ConfigError("no run file given (use --run-file or paths.run in the config)")
    corpus_path = args.corpus or config.paths.get("corpus")
    if not corpus_path:
        raise ConfigError("no passage corpus given (use --corpus or paths.corpus in the config)")
    run = rio.read_run(run_path, depth=args.depth)
    texts = rio.read_corpus_texts(corpus_path)
    return rio.candidates_from_run(run, texts)


def cmd_sample(args) -> int:
    config = load_config(args.config)
    sampling_config = config.sampling_config(args.profile, seed=args.seed)
    backend = _backend_for(args, config)
    template = _template_for(config, args.template)
    queries = {q.id: q for q in rio.read_topics(args.topics)}
    candidates = _load_candidates(args, config)

    missing = sorted(set(candidates) - set(queries))
    if missing:
        raise ConfigError(f"run file contains queries absent from the topics file: {missing}")

    # One worker per query in flight, each sending its K requests in turn;
    # results are read in submission order, so the store stays in query order.
    pool = ThreadPoolExecutor(max_workers=sampling_config.max_in_flight)
    try:
        futures = {}
        for qid in sorted(candidates):
            cand = candidates[qid]
            if len(cand) < args.depth:
                logger.warning("query %s has only %d candidates (requested depth %d)", qid, len(cand), args.depth)
            futures[qid] = pool.submit(
                sample_trajectories,
                queries[qid],
                cand,
                sampling_config,
                backend,
                template=template,
                think_markers=config.think_markers,
                token_mode=config.tokenizer_mode,
            )
        all_samples = []
        failed_queries = []
        for i, (qid, future) in enumerate(futures.items(), start=1):
            try:
                samples = future.result()
            except BackendUnreachableError as exc:
                logger.error("query %s failed: %s", qid, exc)
                failed_queries.append(qid)
                continue
            all_samples.extend(samples)
            logger.info("sampled query %s (%d/%d): %d/%d valid",
                        qid, i, len(candidates), sum(s.valid for s in samples), len(samples))
    finally:
        # An exception above leaves queued queries unsent.
        pool.shutdown(cancel_futures=True)

    rio.write_samples(all_samples, args.out)
    print(f"wrote {len(all_samples)} samples for {len(candidates) - len(failed_queries)} queries to {args.out}")
    if failed_queries:
        print(f"{len(failed_queries)} queries failed at the backend: {failed_queries}", file=sys.stderr)
        return 2
    return 0


def cmd_evaluate(args) -> int:
    samples = rio.read_samples(args.samples)
    qrels = rio.read_qrels(args.qrels)
    scored = attach_scores(samples, qrels)
    scored_out = args.scored_out or str(Path(args.samples).with_suffix(".scored.jsonl"))
    rio.write_samples(scored, scored_out)

    # The report takes each query's lowest-index valid sample, matching the
    # one-generation-per-query evaluation protocol when K=1.
    first_valid = {}
    for sample in scored:
        if sample.valid and sample.final_ranking is not None:
            current = first_valid.get(sample.query_id)
            if current is None or sample.sample_index < current.sample_index:
                first_valid[sample.query_id] = sample
    skipped = {s.query_id for s in scored} - set(first_valid)
    if skipped:
        logger.warning("%d queries have no valid sample and are absent from the report: %s",
                       len(skipped), sorted(skipped))
    run = {qid: (s.final_ranking, s.token_len) for qid, s in first_valid.items()}
    report = aggregate_report(run, qrels, bucket_count=args.bucket_count)
    rio.write_report(report, args.out, format="json")
    print(f"scored {len(scored)} samples -> {scored_out}")
    print(f"report: mean nDCG@10 {report.mean_ndcg10:.4f}, mean length {report.mean_len:.1f} -> {args.out}")
    return 0


def cmd_build_corpus(args) -> int:
    config = load_config(args.config)
    samples = rio.read_samples(args.samples)
    queries = {q.id: q for q in rio.read_topics(args.topics)}
    candidates = _load_candidates(args, config)
    template = _template_for(config, args.template)

    by_query = defaultdict(list)
    for sample in samples:
        by_query[sample.query_id].append(sample)
    per_query = {}
    for qid, qsamples in by_query.items():
        if qid not in queries:
            raise ConfigError(f"sampled query {qid!r} is missing from the topics file")
        if qid not in candidates:
            raise ConfigError(f"sampled query {qid!r} is missing from the run file")
        per_query[qid] = (queries[qid], candidates[qid], qsamples)

    records, stats, retention_rate = build_corpus(per_query)
    rio.write_sft_corpus(records, template, args.out)
    stats_out = args.stats or str(Path(args.out).with_suffix(".stats.json"))
    rio.write_report(rio.filter_stats_report(stats, retention_rate), stats_out, format="json")
    print(f"corpus: {len(records)} records from {len(per_query)} queries "
          f"(retention {retention_rate:.3f}) -> {args.out}")
    print(f"filter stats -> {stats_out}")
    return 0


def cmd_analyze_redundancy(args) -> int:
    samples = rio.read_samples(args.samples)
    if not samples:
        raise ConfigError(f"no samples in {args.samples}")
    per_sample = []
    traced = []
    for sample in samples:
        rm = redundancy_metrics(sample.ranking_sequence)
        per_sample.append({
            "query_id": sample.query_id,
            "sample_index": sample.sample_index,
            "seq_len": rm.seq_len,
            "t_star": rm.t_star,
            "trr": rm.trr,
            "mor": rm.mor,
        })
        if rm.seq_len >= 1:
            traced.append(rm)
    if not traced:
        raise ConfigError("no sample contains any ranking statement; nothing to average")
    rows = [{
        "model_tag": args.model_tag,
        "avg_trr": sum(m.trr for m in traced) / len(traced),
        "avg_mor": sum(m.mor for m in traced) / len(traced),
        "n_traces": len(traced),
    }]
    rio.write_report(rio.redundancy_report(rows, per_sample), args.out, format=args.format)
    print(f"{args.model_tag}: avg TRR {rows[0]['avg_trr']:.4f}, avg MOR {rows[0]['avg_mor']:.4f} "
          f"over {len(traced)} traces -> {args.out}")
    return 0


def cmd_report(args) -> int:
    inputs = []
    for spec_arg in args.inputs:
        if "=" not in spec_arg:
            raise ConfigError(f"report inputs must be tag=path, got {spec_arg!r}")
        tag, path = spec_arg.split("=", 1)
        payload = rio.read_report(path)
        if payload.get("kind") != "eval":
            raise ConfigError(f"{path} is a {payload.get('kind')!r} report; report merges eval reports")
        inputs.append((tag, payload))

    reference_tag, reference = inputs[0]
    ref_queries = set(reference["per_query"])
    for tag, payload in inputs[1:]:
        queries = set(payload["per_query"])
        if queries != ref_queries:
            only_ref = sorted(ref_queries - queries)
            only_here = sorted(queries - ref_queries)
            raise ConfigError(
                f"query sets differ between {reference_tag!r} and {tag!r}: "
                f"only in {reference_tag!r}: {only_ref}; only in {tag!r}: {only_here}"
            )

    rows = []
    curves = {}
    for tag, payload in inputs:
        per_query = {
            qid: (entry["ndcg10"], entry["gen_len"])
            for qid, entry in payload["per_query"].items()
        }
        rows.append({
            "tag": tag,
            "mean_ndcg10": payload["mean_ndcg10"],
            "mean_len": payload["mean_len"],
        })
        curves[tag] = [
            {"lo": b.lo, "hi": b.hi, "mean_ndcg10": b.mean_ndcg10, "count": b.count}
            for b in length_buckets(per_query, args.bucket_count)
        ]
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

    p = sub.add_parser("sample", parents=[], help="draw K trajectories per query and persist them")
    p.add_argument("--topics", required=True, help="tab-separated qid<TAB>query text")
    p.add_argument("--run-file", default=None, help="TREC run file with first-stage candidates")
    p.add_argument("--corpus", default=None, help="tab-separated docid<TAB>passage text")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="samples JSONL to write")
    p.add_argument("--backend", choices=("mock", "http"), default="mock")
    p.add_argument("--profile", default="distill", help="sampling profile name (distill or eval)")
    p.add_argument("--depth", type=int, default=10, help="candidate list depth")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--qrels", default=None, help="lets the mock backend target grade-aware orderings")
    p.add_argument("--template", default=None, help="prompt template path (default: packaged)")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("evaluate", help="score samples against qrels and emit an eval report")
    p.add_argument("--samples", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--out", required=True, help="eval report JSON to write")
    p.add_argument("--scored-out", default=None, help="scored samples JSONL (default: <samples>.scored.jsonl)")
    p.add_argument("--bucket-count", type=int, default=10)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("build-corpus", help="filter scored samples into an SFT corpus")
    p.add_argument("--samples", required=True, help="scored samples JSONL")
    p.add_argument("--topics", required=True)
    p.add_argument("--run-file", default=None)
    p.add_argument("--corpus", default=None)
    p.add_argument("--config", default=None)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--out", required=True, help="SFT corpus JSONL to write")
    p.add_argument("--stats", default=None, help="filter stats JSON (default: <out>.stats.json)")
    p.add_argument("--template", default=None)
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
