"""Prompt construction and stochastic trajectory sampling.

Two interchangeable generation backends: an HTTP client speaking the
chat-completions wire protocol, and a deterministic mock for tests and
offline pipeline runs. `sample_trajectories` draws a query's K generations
one after another, then parses them into TrajectorySamples in one pass, in
sample_index order. It starts no threads: the `sample` stage decides how
many queries are sampled at once.

PyYAML is imported by the two functions that read a prompt template, and
hashlib by the two that hash, not with this module, so only `sample` and
`build-corpus`, the stages that read a config or template and hash a
prompt, pay their import. The packaged template is read by path rather
than through `importlib.resources`, which from Python 3.12 on imports
`inspect`.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import random
import threading
import time
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Literal, Mapping, NamedTuple, Sequence

from .errors import BackendUnreachableError, ConfigError, MalformedResponseError, TransportError
from .models import CandidateSet, Qrels, Query, Ranking, SamplingConfig, TrajectorySample, _fill, _Value
from .parsing import count_tokens, extract_rankings, parse_final_ranking, split_reasoning

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

Message = Mapping[str, str]


class GenerationResult(_Value):
    """One raw generation as returned by a backend."""

    raw_text: str
    endpoint_token_count: int | None
    finish_reason: Literal["stop", "length", "error"]
    latency_ms: int

    def __init__(self, raw_text: str, endpoint_token_count: int | None,
                 finish_reason: Literal["stop", "length", "error"], latency_ms: int) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if self.endpoint_token_count is not None and self.endpoint_token_count < 0:
            raise ValueError("endpoint_token_count must be >= 0 when present")


class PromptTemplate(_Value):
    """Versioned prompt artifact. The user text must contain the
    {passages} and {query} placeholders; {num} is optional. A template
    that lacks one, names another or is not a format string is a
    ConfigError that names it, raised when it is built, so `build_prompt`
    only renders."""

    name: str
    system: str
    user: str

    def __init__(self, name: str, system: str, user: str) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        for placeholder in ("{passages}", "{query}"):
            if placeholder not in self.user:
                raise ConfigError(f"template {self.name!r} is missing the {placeholder} placeholder")
        try:
            self.user.format(passages="", query="", num=1)
        except (KeyError, IndexError) as exc:
            raise ConfigError(f"template {self.name!r} uses an unknown placeholder: {exc}") from None
        except (ValueError, TypeError, AttributeError) as exc:
            raise ConfigError(f"template {self.name!r} does not render: {exc}") from None


@functools.cache
def default_template() -> PromptTemplate:
    """The template shipped with the package, read from the `templates`
    package data beside this module once per process: a template is
    immutable, so every call returns the same one."""
    import yaml

    path = os.path.join(os.path.dirname(__file__), "templates", "listwise_v1.yaml")
    with open(path, encoding="utf-8") as fh:
        return _template_from_mapping(yaml.safe_load(fh), "packaged default")


def load_template(path: str) -> PromptTemplate:
    import yaml

    with open(path, encoding="utf-8") as fh:
        try:
            return _template_from_mapping(yaml.safe_load(fh), path)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"prompt template {path} is not UTF-8 text ({exc.reason})") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"prompt template {path} is not valid YAML: {exc}") from None


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
    passages = "\n".join(f"[{i}] {text}" for i, text in enumerate(candidates.texts, start=1))
    return [
        {"role": "system", "content": template.system},
        {"role": "user", "content": template.user.format(passages=passages, query=query.text, num=len(candidates))},
    ]


def hash_messages(messages: Sequence[Message]) -> str:
    """Stable digest of a rendered prompt, stored with each sample so a
    corpus writer can verify it is pairing targets with the prompt that
    produced them."""
    import hashlib

    blob = json.dumps([dict(m) for m in messages], sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _stable_u64(*parts: object) -> int:
    import hashlib

    digest = hashlib.sha256("|".join(map(str, parts)).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def derive_seed(base_seed: int, query_id: str, sample_index: int) -> int:
    """Per-request seed so endpoints that honor seeds still draw K distinct
    samples."""
    return _stable_u64(base_seed, query_id, sample_index) % (2 ** 31)


class GenerationRequest(NamedTuple):
    """One generation call. `candidates` rides along for backends (the mock)
    that synthesize output from the candidate list.

    A NamedTuple, not a value type: a query sends K of them, backends only
    read their attributes, and a tuple costs less to build.
    `GenerationResult` stays a value type because it checks its values
    when built, which a NamedTuple cannot do."""

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
    """A source of generations: HTTP endpoint or deterministic mock.

    `waits` says whether `generate` waits on something outside the
    process, as an endpoint's reply. The `sample` stage overlaps such waits
    with a thread pool, and samples a backend that never waits on its own
    thread, where a pool's threads would only hand the interpreter lock to
    one another. True by default, so a backend that wraps another keeps
    the pool.
    """

    waits = True

    @abstractmethod
    def generate(self, request: GenerationRequest) -> GenerationResult:
        """Produce one generation; raises TransportError after retry
        exhaustion and MalformedResponseError on non-retryable replies."""

    def close(self) -> None:
        """Release what the backend opened; called once no request is
        outstanding. Nothing to release by default."""


class EndpointSettings(_Value):
    """What `HttpChatBackend` reads: the URL, the model name, the variable
    naming its bearer token, the timeout and the retry policy. Checked
    here, so a config with a setting out of range fails when it loads,
    whichever backend samples; only the HTTP backend needs a URL."""

    url: str
    model: str
    auth_env: str | None
    timeout_s: float
    max_retries: int
    backoff_base_s: float

    def __init__(self, url: str = "", model: str = "", auth_env: str | None = None, timeout_s: float = 120.0,
                 max_retries: int = 3, backoff_base_s: float = 0.5) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(f"endpoint max_retries must be >= 0, got {self.max_retries}")
        for name, seconds in (("backoff_base_s", self.backoff_base_s), ("timeout_s", self.timeout_s)):
            if not math.isfinite(seconds):
                raise ConfigError(f"endpoint {name} must be a finite number, got {seconds}")
        if self.backoff_base_s < 0:
            raise ConfigError(f"endpoint backoff_base_s must be >= 0, got {self.backoff_base_s}")
        if self.timeout_s <= 0:
            raise ConfigError(f"endpoint timeout_s must be > 0, got {self.timeout_s}")


class HttpChatBackend(GenerationBackend):
    """Chat-completions client for `endpoint.url`: POSTs {model, messages,
    temperature, top_p, max_tokens[, seed]} and reads the generated text
    plus usage.completion_tokens.

    Transient failures (timeouts, connection errors, a reply body cut off
    mid-transfer, HTTP 429 and 5xx) are retried with exponential backoff up
    to `endpoint.max_retries`; other failures are not retried. A 429 or 503
    whose Retry-After header gives a number of seconds waits that long
    instead of the backoff delay. Bearer auth comes from the environment
    variable named in `endpoint.auth_env`, when given.

    Without an injected `session`, each thread that calls `generate` gets
    its own `requests.Session`: a Session is not documented as thread-safe.
    `close` closes those sessions. An injected session is used as given,
    from every thread, and left open.

    `requests` is imported on the first request, not with this module: it
    is most of the package's import time, and only this backend uses it.
    """

    def __init__(self, endpoint: EndpointSettings, *, session: requests.Session | None = None,
                 sleep: Callable[[float], None] = time.sleep):
        if not endpoint.url:
            raise ConfigError("http backend selected but endpoint.url is not configured")
        self.endpoint = endpoint
        self._session = session
        self._thread_sessions = threading.local()
        self._made_sessions: list[requests.Session] = []
        self._made_lock = threading.Lock()
        self._sleep = sleep
        self._headers = {"Content-Type": "application/json"}
        if endpoint.auth_env:
            token = os.environ.get(endpoint.auth_env)
            if token is None:
                raise ConfigError(f"auth environment variable {endpoint.auth_env!r} is not set")
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
        import requests

        session = self._session or self._thread_session()
        endpoint = self.endpoint
        last_error: TransportError | None = None
        retry_after: float | None = None
        for attempt in range(endpoint.max_retries + 1):
            if attempt > 0:
                self._sleep(endpoint.backoff_base_s * 2 ** (attempt - 1) if retry_after is None else retry_after)
            retry_after = None
            started = time.monotonic()
            try:
                response = session.post(endpoint.url, json=payload, headers=self._headers, timeout=endpoint.timeout_s)
            except (requests.Timeout, requests.ConnectionError, requests.exceptions.ChunkedEncodingError) as exc:
                last_error = TransportError(f"{endpoint.url}: {exc}")
                logger.warning("transient transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if response.status_code == 429 or response.status_code >= 500:
                last_error = TransportError(f"{endpoint.url}: HTTP {response.status_code}")
                logger.warning("transient HTTP %d (attempt %d)", response.status_code, attempt + 1)
                if response.status_code in (429, 503):
                    retry_after = _retry_after_s(response.headers.get("Retry-After"))
                continue
            latency_ms = int((time.monotonic() - started) * 1000)
            if response.status_code != 200:
                raise MalformedResponseError(f"{endpoint.url}: HTTP {response.status_code}: {response.text[:200]}")
            return self._parse_response(response, latency_ms)
        assert last_error is not None
        raise last_error

    def _thread_session(self) -> requests.Session:
        session = getattr(self._thread_sessions, "session", None)
        if session is None:
            import requests

            session = self._thread_sessions.session = requests.Session()
            with self._made_lock:
                self._made_sessions.append(session)
        return session

    def close(self) -> None:
        """Close the sessions this backend made; a later request makes new
        ones."""
        with self._made_lock:
            made, self._made_sessions = self._made_sessions, []
            self._thread_sessions = threading.local()
        for session in made:
            session.close()

    def _parse_response(self, response: requests.Response, latency_ms: int) -> GenerationResult:
        try:
            body = response.json()
            choice = body["choices"][0]
            text = choice["message"]["content"]
        except (ValueError, LookupError, TypeError) as exc:
            raise MalformedResponseError(f"{self.endpoint.url}: unexpected response shape: {exc}") from None
        if not isinstance(text, str):
            raise MalformedResponseError(f"{self.endpoint.url}: message content is not text")
        finish = choice.get("finish_reason")
        usage = body.get("usage")
        completion_tokens = usage.get("completion_tokens") if isinstance(usage, dict) else None
        # A count is reported only as a non-negative int in a usage object:
        # a bool is an int to isinstance, and a negative count is corrupt.
        reported = type(completion_tokens) is int and completion_tokens >= 0
        return GenerationResult(
            raw_text=text,
            endpoint_token_count=completion_tokens if reported else None,
            finish_reason=finish if finish in ("stop", "length") else "error",
            latency_ms=latency_ms,
        )


def _retry_after_s(value: str | None) -> float | None:
    """Seconds a Retry-After header asks the client to wait, when it gives
    them as a number; None for an absent header or an HTTP date."""
    try:
        seconds = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    return seconds if 0.0 <= seconds < math.inf else None


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


class MockMode(_Value):
    """Controls one sample's quality and verbosity.

    quality: "ideal" ranks by descending grade (candidate order when no
    qrels are supplied), "worst" reverses that, "shuffled" permutes
    pseudo-randomly, "forward" keeps candidate order regardless of qrels.
    restatements: times the final ranking is restated inside the reasoning.
    revert_loops: times the reasoning states a perturbed ranking and then
    reverts to the settled one, the vacillation that drives up TRR and MOR.
    """

    quality: str
    filler_sentences: int
    restatements: int
    revert_loops: int

    def __init__(self, quality: str = "ideal", filler_sentences: int = 3, restatements: int = 0,
                 revert_loops: int = 0) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if self.quality not in _QUALITY_VALUES:
            raise ConfigError(f"unknown mock quality {self.quality!r}; expected one of {_QUALITY_VALUES}")
        if min(self.filler_sentences, self.restatements, self.revert_loops) < 0:
            raise ConfigError("mock mode counts must be >= 0")


class MockProfile(_Value):
    """A cycle of modes assigned to samples by index: sample k gets
    modes[(k - 1) % len(modes)]."""

    modes: tuple[MockMode, ...]

    def __init__(self, modes: tuple[MockMode, ...] = (MockMode(),)) -> None:
        _fill(self, locals())

    def __post_init__(self) -> None:
        if not self.modes:
            raise ConfigError("mock profile needs at least one mode")

    def mode_for(self, sample_index: int) -> MockMode:
        return self.modes[(sample_index - 1) % len(self.modes)]


def _alias_text(aliases: Sequence[int]) -> str:
    return "[" + "] > [".join(map(str, aliases)) + "]"


def _statements(final: list[int], mode: MockMode) -> tuple[str, list[str]]:
    """The final ranking's text and the reasoning's ranking statements, in
    order: the restatements, then per revert loop a perturbed ranking (the
    first two aliases swapped, or on odd loops tied) and the revert."""
    final_text = _alias_text(final)
    statements = [f"So the ranking would be: {final_text}."] * mode.restatements
    if mode.revert_loops and len(final) >= 2:
        variants = (_alias_text([final[1], final[0], *final[2:]]), f"[{final[0]}] = {_alias_text(final[1:])}")
        keep = f"On reflection I will keep: {final_text}."
        for loop in range(mode.revert_loops):
            statements += (f"But wait, maybe: {variants[loop % 2]}.", keep)
    return final_text, statements


# Random.choice(_FILLER_POOL) draws getrandbits(_FILLER_BITS) until the
# value is below the pool's size; the mock draws the same way, inline.
_FILLER_BITS = len(_FILLER_POOL).bit_length()


class _MockPlan:
    """What the samples of one query share under one mode. When the query
    alone decides the final ranking (ideal, worst, forward), that is the
    ranking's text and the reasoning's statements; a shuffled sample draws
    its own. `draw` does a sample's seeded work."""

    __slots__ = ("query_id", "mode", "n", "final_text", "statements")

    def __init__(self, query_id: str, candidates: CandidateSet, mode: MockMode, qrels: Qrels | None):
        self.query_id = query_id
        self.mode = mode
        self.n = n = len(candidates)
        self.final_text: str | None = None
        self.statements: list[str] | None = None
        if mode.quality == "shuffled":
            return
        final = list(range(1, n + 1))
        if mode.quality != "forward" and qrels is not None:
            grade = qrels.judgments.get
            grades = [grade((query_id, doc_id), 0) for doc_id in candidates.doc_ids]
            # By descending grade; the sort is stable, so equal grades keep
            # candidate order.
            final = [i + 1 for i in sorted(range(n), key=grades.__getitem__, reverse=True)]
        if mode.quality == "worst":
            final.reverse()
        self.final_text, self.statements = _statements(final, mode)

    def draw(self, seed: int, sample_index: int, rng: random.Random) -> GenerationResult:
        """The sample's generation, drawn from `rng` reseeded for it:
        reseeding costs less than building a generator per sample."""
        rng.seed(_stable_u64(seed, self.query_id, sample_index))
        if self.statements is None:
            final_text, statements = _statements(rng.sample(range(1, self.n + 1), self.n), self.mode)
        else:
            final_text, statements = self.final_text, self.statements
        getrandbits = rng.getrandbits
        filler = []
        for _ in range(self.mode.filler_sentences):
            pick = getrandbits(_FILLER_BITS)
            while pick >= len(_FILLER_POOL):
                pick = getrandbits(_FILLER_BITS)
            filler.append(_FILLER_POOL[pick])
        # Filler sentence i goes to gap i % gaps: gap 0 opens the reasoning
        # and gap j follows statement j. Empty gaps are left out.
        gaps = len(statements) + 1
        pieces = [" ".join(filler[0::gaps])]
        for i, statement in enumerate(statements, start=1):
            pieces += (statement, " ".join(filler[i::gaps]))
        reasoning = "\n".join(filter(None, pieces))
        return GenerationResult(
            raw_text=f"<think>\n{reasoning}\n</think>\nFinal ranking: {final_text}",
            endpoint_token_count=None, finish_reason="stop", latency_ms=0,
        )


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
    plan = _MockPlan(query_id, candidates, profile.mode_for(sample_index), qrels)
    return plan.draw(seed, sample_index, random.Random(0))


class _Served(threading.local):
    """What each thread that a MockBackend serves keeps: the query it served
    last, with its plans, and one RNG that every draw on the thread
    reseeds. One per plan would be built anew for each query, and would
    cost more than it saves."""

    def __init__(self) -> None:
        self.query_id: str | None = None
        self.candidates: CandidateSet | None = None
        self.plans: list[_MockPlan | None] = []
        # A constant seed: `random.Random()` seeds from os.urandom, twice
        # the cost (9 against 4 us), and each draw reseeds it anyway.
        self.rng = random.Random(0)


class MockBackend(GenerationBackend):
    """Serves mock_generate output; never fails, and never waits.

    Each thread keeps the plans of the query it served last, one per mode
    of the profile, and reuses them while requests carry that query id and
    the same CandidateSet object. Identity, because hashing a CandidateSet
    costs 0.7 us at 20 docs and 1.3 at 100, and comparing it with an equal
    one 1.0 and 1.3, against 0.03 for identity and about 11 for a mock call
    from a plan (2-vCPU VM, Python 3.11.7, `timeit`, min of 7). Holding the
    set keeps its id from being reused by another. So the plans need no
    lock, and there are at most as many as threads times modes. Each thread
    also keeps one RNG, which each of its draws reseeds.
    """

    waits = False

    def __init__(self, profile: MockProfile | None = None, qrels: Qrels | None = None):
        self.profile = profile or MockProfile()
        self.qrels = qrels
        self._served = _Served()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        served = self._served
        if served.candidates is not request.candidates or served.query_id != request.query_id:
            served.query_id, served.candidates = request.query_id, request.candidates
            served.plans = [None] * len(self.profile.modes)
        slot = (request.sample_index - 1) % len(served.plans)
        plan = served.plans[slot]
        if plan is None:
            plan = served.plans[slot] = _MockPlan(
                request.query_id, request.candidates, self.profile.modes[slot], self.qrels)
        return plan.draw(request.seed if request.seed is not None else 0, request.sample_index, served.rng)


# --- trajectory sampling ----------------------------------------------------

def sample_trajectories(
    query: Query,
    candidates: CandidateSet,
    config: SamplingConfig,
    backend: GenerationBackend,
    *,
    template: PromptTemplate | None = None,
) -> list[TrajectorySample]:
    """Draw K stochastic trajectories for one query, one request at a time,
    then parse the K generations in one pass, in sample_index order.

    Individual failures, and generations cut off at `max_tokens`, become
    invalid samples carrying the error string; only a query where every
    sample fails at the transport level raises BackendUnreachableError. Any
    other exception from the backend propagates. Ranking statements that
    recur across the K generations are parsed once, and final statements
    that recur are repaired once.

    Parsing after the last request, rather than after each one, cost less
    thread CPU per generation on a mock behind a 20 ms delay: 47-49 against
    192-217 us (2-vCPU VM). Why was not isolated; real HTTP traffic was not
    measured.
    """
    template = template or default_template()
    messages = tuple(build_prompt(query, candidates, template))
    prompt_hash = hash_messages(messages)
    outcomes: list[GenerationResult | str] = []
    transport_failures = 0
    for sample_index in range(1, config.k_samples + 1):
        # Positional, in field order: half the cost of binding keywords.
        request = GenerationRequest(query.id, sample_index, messages, candidates, config.model_name,
                                    config.temperature, config.top_p, config.max_tokens, config.seed)
        try:
            outcomes.append(backend.generate(request))
        except TransportError as exc:
            logger.error("query %s sample %d: transport failure: %s", query.id, sample_index, exc)
            outcomes.append(str(exc))
            transport_failures += 1
        except MalformedResponseError as exc:
            logger.error("query %s sample %d: malformed response: %s", query.id, sample_index, exc)
            outcomes.append(str(exc))

    if transport_failures == config.k_samples:
        raise BackendUnreachableError(
            f"backend unreachable: all {config.k_samples} samples for query {query.id} failed after retries, "
            f"the last with: {outcomes[-1]}"
        )
    # One of each per query: under another candidate list the same run
    # text names other docs.
    parsed_runs: dict[str, Ranking | None] = {}
    repaired: dict[Ranking, tuple[Ranking, float]] = {}
    return [_parse_sample(query.id, sample_index, outcome, candidates, prompt_hash, parsed_runs, repaired)
            for sample_index, outcome in enumerate(outcomes, start=1)]


def _parse_sample(
    query_id: str,
    sample_index: int,
    outcome: GenerationResult | str,
    candidates: CandidateSet,
    prompt_hash: str,
    parsed_runs: dict[str, Ranking | None],
    repaired: dict[Ranking, tuple[Ranking, float]],
) -> TrajectorySample:
    """Parse one generation, scanning it for ranking statements once;
    `parsed_runs` and `repaired` are the query's caches for
    `extract_rankings` and `parse_final_ranking`.
    `outcome` is the error message when the backend call failed. A
    generation cut off at `max_tokens` keeps its ranking sequence and token
    length but is invalid: its last statement is not a decision. The token
    length is the endpoint's count when it reported one, else
    `count_tokens`' approximation."""
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
        reasoning, _answer = split_reasoning(raw_text)
        matches = extract_rankings(raw_text, candidates, parsed_runs)
        sequence = tuple(m.ranking for m in matches)
        parsed = parse_final_ranking(raw_text, candidates, matches=matches, repaired=repaired)
        if outcome.endpoint_token_count is not None:
            token_len = outcome.endpoint_token_count
            source = "endpoint-reported"
        else:
            token_len = count_tokens(raw_text)
        if outcome.finish_reason == "length":
            error = "truncated at max_tokens"
        elif parsed is None:
            error = "no parseable ranking in generation"
        else:
            final_ranking, coverage = parsed
    return TrajectorySample.from_fields({
        "query_id": query_id,
        "sample_index": sample_index,
        "raw_text": raw_text,
        "reasoning_text": reasoning,
        "final_ranking": final_ranking,
        "ranking_sequence": sequence,
        "token_len": token_len,
        "token_len_source": source,
        "score": None,
        "valid": final_ranking is not None,
        "coverage": coverage,
        "error": error,
        "prompt_hash": prompt_hash,
    })
