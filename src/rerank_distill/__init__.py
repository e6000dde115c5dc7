"""Toolkit for distilling concise listwise-reranker reasoning.

Pipeline: sample diverse reasoning trajectories from a chat-completions
endpoint (or a deterministic mock), score their final rankings with
nDCG@10, keep per query the trajectories that score at or above the mean
while running shorter than the mean, and emit the shortest survivor per
query as a supervised fine-tuning corpus. Redundancy diagnostics (tail
repeat ratio, multi-occurrence ratio) and length-vs-quality reports
quantify how much reasoning the traces actually needed.
"""

from .distill import build_corpus, efficient_set, query_stats, retention_rate, select_target, valid_subset
from .metrics import (
    aggregate_report,
    attach_scores,
    length_normalized_nll,
    multi_occurrence_ratio,
    ndcg_at_k,
    redundancy_metrics,
    tail_repeat_ratio,
)
from .models import (
    CandidateSet,
    EvalReport,
    Qrels,
    Query,
    Ranking,
    SamplingConfig,
    TrajectorySample,
)
from .parsing import (
    RankingPatternMatch,
    count_tokens,
    extract_rankings,
    parse_final_ranking,
    render_ranking,
    repair_ranking,
    split_reasoning,
)
from .sampling import (
    EndpointSettings,
    GenerationBackend,
    GenerationResult,
    HttpChatBackend,
    MockBackend,
    MockMode,
    MockProfile,
    PromptTemplate,
    build_prompt,
    default_template,
    load_template,
    mock_generate,
    sample_trajectories,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet",
    "EndpointSettings",
    "EvalReport",
    "GenerationBackend",
    "GenerationResult",
    "HttpChatBackend",
    "MockBackend",
    "MockMode",
    "MockProfile",
    "PromptTemplate",
    "Qrels",
    "Query",
    "Ranking",
    "RankingPatternMatch",
    "SamplingConfig",
    "TrajectorySample",
    "aggregate_report",
    "attach_scores",
    "build_corpus",
    "build_prompt",
    "count_tokens",
    "default_template",
    "efficient_set",
    "extract_rankings",
    "length_normalized_nll",
    "load_template",
    "mock_generate",
    "multi_occurrence_ratio",
    "ndcg_at_k",
    "parse_final_ranking",
    "query_stats",
    "redundancy_metrics",
    "render_ranking",
    "repair_ranking",
    "retention_rate",
    "sample_trajectories",
    "select_target",
    "split_reasoning",
    "tail_repeat_ratio",
    "valid_subset",
]
