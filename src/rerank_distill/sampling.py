"""Prompt construction and stochastic trajectory sampling.

Two interchangeable generation backends: an HTTP client speaking the
chat-completions wire protocol, and a deterministic mock for tests and
offline pipeline runs. `sample_trajectories` draws K generations per query
under a bounded-concurrency contract and parses each one into a
TrajectorySample; output order is always sample_index order, regardless of
completion order.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import random
import time
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Literal, Mapping, Sequence

import requests
import yaml

from .errors import BackendUnreachableError, ConfigError, MalformedResponseError, TransportError
from .models import CandidateSet, Qrels, Query, Ranking, SamplingConfig, TrajectorySample
from .parsing import DEFAULT_THINK_MARKERS, count_tokens, extract_rankings, parse_final_ranking, split_reasoning

logger = logging.getLogger(__name__)

Message = Mapping[str, str]


@dataclass(frozen=True)
class GenerationResult:
    """One raw generation as returned by a backend."""

    raw_text: str
    endpoint_token_count: int | None
    finish_reason: Literal["stop", "length", "error"]
    latency_ms: int

    def __post_init__(self) -> None:
        if self.endpoint_token_count is not None and self.endpoint_token_count < 0:
            raise ValueError("endpoint_token_count must be >= 0 when present")


@dataclass(frozen=True)
class PromptTemplate:
    """Versioned prompt artifact. The user text must contain the
    {passages} and {query} placeholders; {num} is optional."""

    name: str
    system: str
    user: str


def default_template() -> PromptTemplate:
    """The template shipped with the package."""
    path = resources.files("rerank_distill").joinpath("templates/listwise_v1.yaml")
    return _template_from_mapping(yaml.safe_load(path.read_text(encoding="utf-8")), "packaged default")


def load_template(path: str) -> PromptTemplate:
    with open(path, encoding="utf-8") as fh:
        return _template_from_mapping(yaml.safe_load(fh), path)


def _template_from_mapping(raw: object, source: str) -> PromptTemplate:
    if not isinstance(raw, dict) or not {"name", "system", "user"} <= raw.keys():
        raise ConfigError(f"prompt template {source} must define name, system, and user")
    return PromptTemplate(name=str(raw["name"]), system=str(raw["system"]), user=str(raw["user"]))


def build_prompt(
    query: Query,
    candidates: CandidateSet,
    template: PromptTemplate,
) -> list[dict[str, str]]:
    """Render the system+user message pair for one query.

    Passages are enumerated "[i] <text>" in candidate order (1-based);
    rendering is deterministic.
    """
    if len(candidates) < 1:
        raise ValueError("cannot build a prompt over an empty candidate set")
    for placeholder in ("{passages}", "{query}"):
        if placeholder not in template.user:
            raise ConfigError(f"template {template.name!r} is missing the {placeholder} placeholder")
    passages = "\n".join(f"[{i}] {doc.text}" for i, doc in enumerate(candidates.docs, start=1))
    try:
        user = template.user.format(passages=passages, query=query.text, num=len(candidates))
    except (KeyError, IndexError) as exc:
        raise ConfigError(f"template {template.name!r} uses an unknown placeholder: {exc}") from None
    return [
        {"role": "system", "content": template.system},
        {"role": "user", "content": user},
    ]


def hash_messages(messages: Sequence[Message]) -> str:
    """Stable digest of a rendered prompt, stored with each sample so a
    corpus writer can verify it is pairing targets with the prompt that
    produced them."""
    blob = json.dumps([dict(m) for m in messages], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stable_u64(*parts: object) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(base_seed: int, query_id: str, sample_index: int) -> int:
    """Per-request seed so endpoints that honor seeds still draw K distinct
    samples."""
    return _stable_u64(base_seed, query_id, sample_index) % (2 ** 31)


@dataclass(frozen=True)
class GenerationRequest:
    """One generation call. `candidates` rides along for backends (the mock)
    that synthesize output from the candidate list."""

    query_id: str
    sample_index: int
    messages: tuple[dict[str, str], ...]
    candidates: CandidateSet
    model: str
    temperature: float
    top_p: float
    max_tokens: int
    seed: int | None = None


class GenerationBackend(ABC):
    """A source of generations: HTTP endpoint or deterministic mock."""

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Produce one generation; raises TransportError after retry
        exhaustion and MalformedResponseError on non-retryable replies."""


class HttpChatBackend(GenerationBackend):
    """Chat-completions client: POSTs {model, messages, temperature, top_p,
    max_tokens[, seed]} and reads the generated text plus
    usage.completion_tokens.

    Transient failures (timeouts, connection errors, HTTP 429 and 5xx) are
    retried with exponential backoff up to `max_retries`; other failures are
    not retried. Bearer auth comes from the environment variable named in
    `auth_env`, when given.
    """

    def __init__(
        self,
        endpoint_url: str,
        *,
        auth_env: str | None = None,
        timeout_s: float = 120.0,
        max_retries: int = 3,
        backoff_base_s: float = 0.5,
        session: requests.Session | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if not endpoint_url:
            raise ConfigError("HTTP backend requires an endpoint URL")
        self.endpoint_url = endpoint_url
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self._session = session or requests.Session()
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if auth_env:
            token = os.environ.get(auth_env)
            if token is None:
                raise ConfigError(f"auth environment variable {auth_env!r} is not set")
            self._headers["Authorization"] = f"Bearer {token}"

    def generate(self, request: GenerationRequest) -> GenerationResult:
        payload: dict[str, object] = {
            "model": request.model,
            "messages": list(request.messages),
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            payload["seed"] = derive_seed(request.seed, request.query_id, request.sample_index)
        last_error: TransportError | None = None
        for attempt in range(self.max_retries + 1):
            if attempt > 0:
                self._sleep(self.backoff_base_s * 2 ** (attempt - 1))
            started = time.monotonic()
            try:
                response = self._session.post(
                    self.endpoint_url, json=payload, headers=self._headers, timeout=self.timeout_s,
                )
            except (requests.Timeout, requests.ConnectionError) as exc:
                last_error = TransportError(f"{self.endpoint_url}: {exc}")
                logger.warning("transient transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"{self.endpoint_url}: HTTP {response.status_code}")
                logger.warning("transient HTTP %d (attempt %d)", response.status_code, attempt + 1)
                continue
            latency_ms = int((time.monotonic() - started) * 1000)
            if response.status_code != 200:
                raise MalformedResponseError(
                    f"{self.endpoint_url}: HTTP {response.status_code}: {response.text[:200]}"
                )
            return self._parse_response(response, latency_ms)
        assert last_error is not None
        raise last_error

    def _parse_response(self, response: requests.Response, latency_ms: int) -> GenerationResult:
        try:
            body = response.json()
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedResponseError(f"{self.endpoint_url}: unexpected response shape: {exc}") from None
        if not isinstance(text, str):
            raise MalformedResponseError(f"{self.endpoint_url}: message content is not text")
        finish = choice.get("finish_reason")
        usage = body.get("usage") or {}
        completion_tokens = usage.get("completion_tokens")
        return GenerationResult(
            raw_text=text,
            endpoint_token_count=completion_tokens if isinstance(completion_tokens, int) else None,
            finish_reason=finish if finish in ("stop", "length") else "error",
            latency_ms=latency_ms,
        )


# --- deterministic mock -----------------------------------------------------

_FILLER_POOL = (
    "Relevance here depends on how directly a passage answers the query.",
    "Some passages restate the same fact with slightly different emphasis.",
    "A passage that names the specific detail should outrank one that merely alludes to it.",
    "Background context matters less than a direct statement of the answer.",
    "Two of the passages overlap heavily, so their order is debatable.",
    "The phrasing of the query suggests the user wants a concrete fact.",
    "Skimming the remaining passages turns up no stronger evidence.",
    "One candidate is topically close but never addresses the question itself.",
    "Comparing the strongest candidates again to be sure of the order.",
    "The rest of the passages only repeat partial context.",
)

_QUALITY_VALUES = ("ideal", "worst", "shuffled", "forward")


@dataclass(frozen=True)
class MockMode:
    """Controls one sample's quality and verbosity.

    quality: "ideal" ranks by descending grade (candidate order when no
    qrels are supplied), "worst" reverses that, "shuffled" permutes
    pseudo-randomly, "forward" keeps candidate order regardless of qrels.
    restatements: times the final ranking is restated inside the reasoning.
    revert_loops: times the reasoning states a perturbed ranking and then
    reverts to the settled one, the vacillation that drives up TRR and MOR.
    """

    quality: str = "ideal"
    filler_sentences: int = 3
    restatements: int = 0
    revert_loops: int = 0

    def __post_init__(self) -> None:
        if self.quality not in _QUALITY_VALUES:
            raise ConfigError(f"unknown mock quality {self.quality!r}; expected one of {_QUALITY_VALUES}")
        if min(self.filler_sentences, self.restatements, self.revert_loops) < 0:
            raise ConfigError("mock mode counts must be >= 0")


@dataclass(frozen=True)
class MockProfile:
    """A cycle of modes assigned to samples by index: sample k gets
    modes[(k - 1) % len(modes)]."""

    name: str = "default"
    modes: tuple[MockMode, ...] = (MockMode(),)

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigError("mock profile needs at least one mode")

    def mode_for(self, sample_index: int) -> MockMode:
        return self.modes[(sample_index - 1) % len(self.modes)]


def _alias_text(aliases: Sequence[int], ties: Sequence[bool] = ()) -> str:
    parts = [f"[{aliases[0]}]"]
    for i, alias in enumerate(aliases[1:]):
        sep = " = " if i < len(ties) and ties[i] else " > "
        parts.append(f"{sep}[{alias}]")
    return "".join(parts)


def mock_generate(
    query_id: str,
    candidates: CandidateSet,
    sample_index: int,
    seed: int,
    profile: MockProfile,
    qrels: Qrels | None = None,
) -> GenerationResult:
    """Deterministic pseudo-random trajectory: filler prose interleaved with
    ranking statements, ending in a final ranking whose quality is set by
    the sample's mode. Byte-identical for identical (seed, query_id,
    sample_index, profile, qrels)."""
    rng = random.Random(_stable_u64(seed, query_id, sample_index))
    mode = profile.mode_for(sample_index)
    n = len(candidates)

    by_grade = sorted(
        range(1, n + 1),
        key=lambda alias: (-(qrels.grade(query_id, candidates.docs[alias - 1].doc_id) if qrels else 0), alias),
    )
    if mode.quality == "ideal":
        final = by_grade
    elif mode.quality == "worst":
        final = list(reversed(by_grade))
    elif mode.quality == "forward":
        final = list(range(1, n + 1))
    else:
        final = rng.sample(range(1, n + 1), n)

    final_text = _alias_text(final)
    statements = [f"So the ranking would be: {final_text}." for _ in range(mode.restatements)]
    for loop in range(mode.revert_loops):
        if n >= 2:
            if loop % 2 == 0:
                variant = _alias_text([final[1], final[0]] + final[2:])
            else:
                variant = _alias_text(final, ties=[True])
            statements.append(f"But wait, maybe: {variant}.")
            statements.append(f"On reflection I will keep: {final_text}.")

    filler = [rng.choice(_FILLER_POOL) for _ in range(mode.filler_sentences)]
    gaps: list[list[str]] = [[] for _ in range(len(statements) + 1)]
    for i, sentence in enumerate(filler):
        gaps[i % len(gaps)].append(sentence)

    pieces = [" ".join(gaps[0])]
    for stmt, gap in zip(statements, gaps[1:]):
        pieces.append(stmt)
        pieces.append(" ".join(gap))
    reasoning = "\n".join(p for p in pieces if p)
    raw_text = f"<think>\n{reasoning}\n</think>\nFinal ranking: {final_text}"
    return GenerationResult(raw_text=raw_text, endpoint_token_count=None, finish_reason="stop", latency_ms=0)


class MockBackend(GenerationBackend):
    """Serves mock_generate output; never fails."""

    def __init__(self, profile: MockProfile | None = None, qrels: Qrels | None = None):
        self.profile = profile or MockProfile()
        self.qrels = qrels

    def generate(self, request: GenerationRequest) -> GenerationResult:
        return mock_generate(
            request.query_id,
            request.candidates,
            request.sample_index,
            request.seed if request.seed is not None else 0,
            self.profile,
            qrels=self.qrels,
        )


# --- trajectory sampling ----------------------------------------------------

def sample_trajectories(
    query: Query,
    candidates: CandidateSet,
    config: SamplingConfig,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
    think_markers: tuple[str, str] = DEFAULT_THINK_MARKERS,
    token_mode: Literal["auto", "approximate"] = "auto",
) -> list[TrajectorySample]:
    """Draw K stochastic trajectories for one query and parse each one.

    At most `config.max_in_flight` requests are outstanding at any instant.
    Individual failures become invalid samples carrying the error string;
    only a query where every sample fails at the transport level raises.
    """
    template = template or default_template()
    messages = tuple(build_prompt(query, candidates, template))
    prompt_hash = hash_messages(messages)

    def run_one(sample_index: int) -> tuple[str, GenerationResult | str]:
        request = GenerationRequest(
            query_id=query.id,
            sample_index=sample_index,
            messages=messages,
            candidates=candidates,
            model=config.model_name,
            temperature=config.temperature,
            top_p=config.top_p,
            max_tokens=config.max_tokens,
            seed=config.seed,
        )
        try:
            return "ok", backend.generate(request)
        except TransportError as exc:
            logger.error("query %s sample %d: transport failure: %s", query.id, sample_index, exc)
            return "transport", str(exc)
        except MalformedResponseError as exc:
            logger.error("query %s sample %d: malformed response: %s", query.id, sample_index, exc)
            return "malformed", str(exc)

    indices = range(1, config.k_samples + 1)
    with ThreadPoolExecutor(max_workers=config.max_in_flight) as executor:
        outcomes = list(executor.map(run_one, indices))

    if all(kind == "transport" for kind, _ in outcomes):
        raise BackendUnreachableError(
            f"endpoint {config.endpoint_url or type(backend).__name__} unreachable: "
            f"all {config.k_samples} samples for query {query.id} failed after retries"
        )

    return [
        _parse_sample(query.id, sample_index, payload, candidates, think_markers, token_mode, prompt_hash)
        for sample_index, (_kind, payload) in zip(indices, outcomes)
    ]


def _parse_sample(
    query_id: str,
    sample_index: int,
    outcome: GenerationResult | str,
    candidates: CandidateSet,
    think_markers: tuple[str, str],
    token_mode: str,
    prompt_hash: str,
) -> TrajectorySample:
    """Parse one generation, scanning it for ranking statements once.
    `outcome` is the error message when the backend call failed."""
    raw_text = reasoning = ""
    sequence: tuple[Ranking, ...] = ()
    final_ranking = coverage = None
    token_len = 0
    source: Literal["endpoint-reported", "approximated"] = "approximated"
    error: str | None = None
    if isinstance(outcome, str):
        error = outcome
    else:
        raw_text = outcome.raw_text
        reasoning, _answer = split_reasoning(raw_text, think_markers)
        matches = extract_rankings(raw_text, candidates)
        sequence = tuple(m.ranking for m in matches)
        parsed = parse_final_ranking(raw_text, candidates, matches=matches)
        if token_mode == "auto" and outcome.endpoint_token_count is not None:
            token_len = count_tokens(raw_text, endpoint_count=outcome.endpoint_token_count)
            source = "endpoint-reported"
        else:
            token_len = count_tokens(raw_text)
        if parsed is None:
            error = "no parseable ranking in generation"
        else:
            final_ranking, coverage = parsed
    return TrajectorySample(
        query_id=query_id,
        sample_index=sample_index,
        raw_text=raw_text,
        reasoning_text=reasoning,
        final_ranking=final_ranking,
        ranking_sequence=sequence,
        token_len=token_len,
        token_len_source=source,
        valid=final_ranking is not None,
        coverage=coverage,
        error=error,
        prompt_hash=prompt_hash,
    )
