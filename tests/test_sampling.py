import hashlib
import json
import math
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
import requests

from rerank_distill.errors import (
    BackendUnreachableError,
    ConfigError,
    MalformedResponseError,
    TransportError,
)
from rerank_distill.metrics import ndcg_at_k
from rerank_distill import parsing, sampling
from rerank_distill.models import CandidateSet, Qrels, Ranking, SamplingConfig, TrajectorySample
from rerank_distill.sampling import (
    EndpointSettings,
    GenerationBackend,
    GenerationRequest,
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

from conftest import graded_qrels, make_query, make_universe


def config(**overrides):
    base = dict(k_samples=3, temperature=0.7, top_p=0.95, max_tokens=8192,
                seed=7, max_in_flight=4, model_name="mock-model")
    base.update(overrides)
    return SamplingConfig(**base)


class TestBuildPrompt:
    def test_structure(self):
        query = make_query()
        universe = make_universe(2)
        messages = build_prompt(query, universe, default_template())
        assert [m["role"] for m in messages] == ["system", "user"]
        user = messages[1]["content"]
        assert user.count("[1] ") == 1
        assert user.count("[2] ") == 1
        assert user.count(query.text) == 1

    def test_deterministic(self):
        query, universe = make_query(), make_universe(3)
        a = build_prompt(query, universe, default_template())
        b = build_prompt(query, universe, default_template())
        assert a == b

    def test_missing_placeholder_rejected(self):
        with pytest.raises(ConfigError, match="placeholder"):
            PromptTemplate(name="bad", system="s", user="no slots here")

    def test_unknown_placeholder_rejected(self):
        with pytest.raises(ConfigError, match="unknown placeholder"):
            PromptTemplate(name="bad", system="s", user="{passages} {query} {wat}")


class TestMockGenerate:
    def test_byte_identical_for_same_inputs(self):
        universe = make_universe(4)
        profile = MockProfile(modes=(MockMode(filler_sentences=5, restatements=2, revert_loops=1),))
        a = mock_generate("q1", universe, 2, 99, profile)
        b = mock_generate("q1", universe, 2, 99, profile)
        assert a == b
        c = mock_generate("q1", universe, 3, 99, profile)
        assert c.raw_text != a.raw_text

    def test_zero_restatements_yield_single_ranking(self):
        universe = make_universe(3)
        profile = MockProfile(modes=(MockMode(restatements=0, revert_loops=0),))
        result = mock_generate("q1", universe, 1, 0, profile)
        from rerank_distill.parsing import extract_rankings
        assert len(extract_rankings(result.raw_text, universe)) == 1

    def test_ideal_quality_scores_one_downstream(self):
        universe = make_universe(4)
        qrels = graded_qrels("q1", [1, 3, 0, 2], universe)
        profile = MockProfile(modes=(MockMode(quality="ideal"),))
        result = mock_generate("q1", universe, 1, 0, profile, qrels=qrels)
        from rerank_distill.parsing import parse_final_ranking
        ranking, _ = parse_final_ranking(result.raw_text, universe)
        assert ndcg_at_k(ranking, qrels, "q1") == 1.0

    def test_worst_quality_scores_below_ideal(self):
        universe = make_universe(4)
        qrels = graded_qrels("q1", [3, 2, 1, 0], universe)
        profile = MockProfile(modes=(MockMode(quality="worst"),))
        result = mock_generate("q1", universe, 1, 0, profile, qrels=qrels)
        from rerank_distill.parsing import parse_final_ranking
        ranking, _ = parse_final_ranking(result.raw_text, universe)
        score = ndcg_at_k(ranking, qrels, "q1")
        assert 0 < score < 1

    def test_unknown_quality_rejected(self):
        with pytest.raises(ConfigError, match="quality"):
            MockMode(quality="amazing")

    def test_golden_outputs_of_every_mode_shape(self):
        """The bytes of every quality, with and without qrels, over 0-2
        restatements, 0-3 revert loops (odd loops state a tie) and filler
        that leaves gaps empty, fills them once or wraps around them."""
        texts = []
        for n in (1, 2, 20):
            universe = make_universe(n)
            # Tied grades and unjudged docs, so the grade order's tie-break shows.
            grades = {("q1", doc_id): i * 7 % 4 for i, doc_id in enumerate(universe.doc_ids) if i * 7 % 4}
            for qrels in (None, Qrels(judgments={**grades, ("q2", "1"): 3})):
                for quality in ("ideal", "worst", "shuffled", "forward"):
                    for restatements in range(3):
                        for revert_loops in range(4):
                            for filler in (0, 3, 11):
                                profile = MockProfile(modes=(MockMode(quality, filler, restatements, revert_loops),))
                                for sample_index in (1, 2):
                                    result = mock_generate("q1", universe, sample_index, 11, profile, qrels=qrels)
                                    assert (result.endpoint_token_count, result.finish_reason) == (None, "stop")
                                    texts.append(result.raw_text)
        digest = hashlib.sha256("\x00".join(texts).encode()).hexdigest()
        assert digest == GOLDEN_MODES_DIGEST


class TestMockBackendPlans:
    """MockBackend reuses a query's plans on the thread that built them; its
    generations are mock_generate's."""

    PROFILE = MockProfile(modes=(
        MockMode("ideal", 4, 0, 0), MockMode("worst", 6, 1, 2), MockMode("shuffled", 3, 1, 1),
    ))

    @staticmethod
    def request(candidates, sample_index):
        return GenerationRequest(
            query_id=candidates.query_id, sample_index=sample_index, messages=(), candidates=candidates,
            model="mock-model", temperature=0.7, top_p=0.95, max_tokens=8192, seed=5)

    def expected(self, candidates, sample_index, qrels):
        return mock_generate(candidates.query_id, candidates, sample_index, 5, self.PROFILE, qrels=qrels)

    def test_interleaved_threads_and_a_reused_query_id(self):
        q1, q2 = make_universe(5, "q1"), make_universe(4, "q2")
        # The same query id over other docs: a stale plan would rank these
        # by q1's grades and name the wrong aliases.
        q1_again = CandidateSet(query_id="q1", doc_ids=("9", "3", "7", "1"),
                                texts=("passage 9", "passage 3", "passage 7", "passage 1"))
        qrels = Qrels(judgments={("q1", "1"): 1, ("q1", "4"): 3, ("q1", "7"): 2, ("q2", "3"): 2})
        assert self.expected(q1_again, 2, qrels) != self.expected(q1, 2, qrels)
        backend = MockBackend(self.PROFILE, qrels)
        orders = (
            [(q1, 1), (q1, 2), (q2, 1), (q1, 3), (q1_again, 2), (q1, 2), (q2, 4), (q2, 5), (q1_again, 1)],
            [(q2, 1), (q1_again, 2), (q1, 2), (q1, 4), (q2, 2), (q1_again, 3), (q1, 1), (q1, 5), (q2, 3)],
        )
        step = threading.Barrier(2, timeout=10)
        results = [[], []]

        def serve(worker):
            for candidates, sample_index in orders[worker]:
                step.wait()
                results[worker].append(backend.generate(self.request(candidates, sample_index)))

        threads = [threading.Thread(target=serve, args=(worker,)) for worker in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        for order, got in zip(orders, results):
            assert got == [self.expected(candidates, sample_index, qrels) for candidates, sample_index in order]

    def test_a_query_builds_one_plan_per_mode(self, monkeypatch):
        built = []

        class SpyPlan(sampling._MockPlan):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[2])
                super().__init__(*args)

        monkeypatch.setattr(sampling, "_MockPlan", SpyPlan)
        universe = make_universe(20)
        qrels = graded_qrels("q1", [i % 4 for i in range(20)], universe)
        backend = MockBackend(self.PROFILE, qrels)
        got = [backend.generate(self.request(universe, k)) for k in range(1, 17)]
        assert sorted(built, key=self.PROFILE.modes.index) == list(self.PROFILE.modes)
        assert got == [self.expected(universe, k, qrels) for k in range(1, 17)]


class TestSampleTrajectories:
    def test_mock_k3_deterministic_golden(self):
        query, universe = make_query(), make_universe(5)
        backend = MockBackend(MockProfile(modes=(
            MockMode(filler_sentences=3, restatements=1, revert_loops=1),
        )))
        samples = sample_trajectories(query, universe, config(), backend)
        assert [s.sample_index for s in samples] == [1, 2, 3]
        assert all(s.valid for s in samples)
        again = sample_trajectories(query, universe, config(), backend)
        assert [s.raw_text for s in samples] == [s.raw_text for s in again]
        digest = hashlib.sha256("\x00".join(s.raw_text for s in samples).encode()).hexdigest()
        # frozen golden: regenerate by printing `digest` if the mock prose changes
        assert digest == GOLDEN_K3_DIGEST

    def test_k1_singleton(self):
        samples = sample_trajectories(make_query(), make_universe(3), config(k_samples=1), MockBackend())
        assert len(samples) == 1
        assert samples[0].sample_index == 1

    def test_all_timeouts_raise_query_level_error(self):
        class AlwaysDown(GenerationBackend):
            def generate(self, request):
                raise TransportError("endpoint http://down.example: timed out")

        with pytest.raises(BackendUnreachableError, match="http://down.example|unreachable"):
            sample_trajectories(make_query(), make_universe(3), config(k_samples=4), AlwaysDown())

    def test_partial_failures_become_invalid_samples(self):
        class FlakyBackend(GenerationBackend):
            def generate(self, request):
                if request.sample_index == 2:
                    raise MalformedResponseError("bad payload")
                return MockBackend().generate(request)

        samples = sample_trajectories(make_query(), make_universe(3), config(), FlakyBackend())
        assert [s.valid for s in samples] == [True, False, True]
        assert "bad payload" in samples[1].error

    def test_failed_and_unparseable_samples(self):
        class Mixed(GenerationBackend):
            def generate(self, request):
                if request.sample_index == 1:
                    raise TransportError("endpoint timed out")
                if request.sample_index == 2:
                    return GenerationResult("no ranking here [2]", None, "stop", 0)
                return GenerationResult("[2] > [1]", 9, "stop", 0)

        failed, unparsed, ok = sample_trajectories(make_query(), make_universe(3), config(), Mixed())
        prompt_hash = failed.prompt_hash
        assert prompt_hash
        assert failed == TrajectorySample(
            query_id="q1", sample_index=1, raw_text="", reasoning_text="", final_ranking=None,
            ranking_sequence=(), token_len=0, token_len_source="approximated", valid=False,
            error="endpoint timed out", prompt_hash=prompt_hash)
        assert unparsed == TrajectorySample(
            query_id="q1", sample_index=2, raw_text="no ranking here [2]",
            reasoning_text="no ranking here [2]", final_ranking=None, ranking_sequence=(),
            token_len=6, token_len_source="approximated", valid=False,
            error="no parseable ranking in generation", prompt_hash=prompt_hash)
        assert ok == TrajectorySample(
            query_id="q1", sample_index=3, raw_text="[2] > [1]", reasoning_text="",
            final_ranking=Ranking(groups=(("2",), ("1",), ("3",))),
            ranking_sequence=(Ranking(groups=(("2",), ("1",))),), token_len=9,
            token_len_source="endpoint-reported", valid=True, coverage=2 / 3,
            prompt_hash=prompt_hash)

    @pytest.mark.parametrize("completion_tokens", [True, -3, 4.0, "9"])
    def test_count_that_is_not_a_non_negative_int_is_approximated(self, completion_tokens):
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1"),
                                  session=_ReplySession(_FakeResponse(usage=completion_tokens)))
        [sample] = sample_trajectories(make_query(), make_universe(3), config(k_samples=1), backend)
        assert sample == TrajectorySample(
            query_id="q1", sample_index=1, raw_text="[1] > [2]", reasoning_text="",
            final_ranking=Ranking(groups=(("1",), ("2",), ("3",))),
            ranking_sequence=(Ranking(groups=(("1",), ("2",))),),
            token_len=parsing.count_tokens("[1] > [2]"), token_len_source="approximated",
            valid=True, coverage=2 / 3, prompt_hash=sample.prompt_hash)

    def test_truncated_generation_is_invalid_and_keeps_its_sequence(self):
        class CutOff(GenerationBackend):
            def generate(self, request):
                return GenerationResult("[2] > [1] and then [1] > [3", 9, "length", 0)

        [sample] = sample_trajectories(make_query(), make_universe(3), config(k_samples=1), CutOff())
        assert sample == TrajectorySample(
            query_id="q1", sample_index=1, raw_text="[2] > [1] and then [1] > [3",
            reasoning_text="", final_ranking=None,
            ranking_sequence=(Ranking(groups=(("2",), ("1",))),), token_len=9,
            token_len_source="endpoint-reported", valid=False, coverage=None,
            error="truncated at max_tokens", prompt_hash=sample.prompt_hash)

    def test_same_text_under_other_candidates_names_other_docs(self):
        class SameText(GenerationBackend):
            def generate(self, request):
                return GenerationResult("[2] > [1]", None, "stop", 0)

        def universe(query_id, prefix):
            return CandidateSet(query_id=query_id, doc_ids=(f"{prefix}1", f"{prefix}2"),
                                texts=("passage 1", "passage 2"))

        first = sample_trajectories(make_query("q1"), universe("q1", "a"), config(k_samples=2), SameText())
        second = sample_trajectories(make_query("q2"), universe("q2", "b"), config(k_samples=2), SameText())
        assert [s.final_ranking.groups for s in first] == [(("a2",), ("a1",))] * 2
        assert [s.final_ranking.groups for s in second] == [(("b2",), ("b1",))] * 2

    def test_recurring_statements_are_parsed_once_per_query(self, monkeypatch):
        runs = []
        original = parsing._parse_run

        def counting(run_text, universe):
            runs.append(run_text)
            return original(run_text, universe)

        monkeypatch.setattr(parsing, "_parse_run", counting)
        profile = MockProfile(modes=(MockMode(restatements=2, revert_loops=2),))
        samples = sample_trajectories(make_query(), make_universe(5), config(k_samples=4), MockBackend(profile))
        stated = [r for s in samples for r in s.ranking_sequence]
        assert len(stated) > len(set(stated))
        assert sorted(runs) == sorted(set(runs))
        assert len({id(r) for r in stated}) == len(set(stated))

    def test_one_ranking_scan_per_generation(self, monkeypatch):
        calls = []
        original = parsing.extract_rankings

        def counting(text, universe, *args, **kwargs):
            calls.append(text)
            return original(text, universe, *args, **kwargs)

        monkeypatch.setattr(sampling, "extract_rankings", counting)
        monkeypatch.setattr(parsing, "extract_rankings", counting)
        profile = MockProfile(modes=(MockMode(restatements=2, revert_loops=1),))
        samples = sample_trajectories(make_query(), make_universe(5), config(k_samples=4), MockBackend(profile))
        assert all(s.valid for s in samples)
        assert calls == [s.raw_text for s in samples]

    def test_repeated_final_statement_is_repaired_once(self, monkeypatch):
        class SameDecision(GenerationBackend):
            def generate(self, request):
                text = "[2] > [1]" if request.sample_index % 2 else "first [1] > [2], then [2]>[1]"
                return GenerationResult(text, None, "stop", 0)

        repairs = []
        original = parsing.repair_ranking
        monkeypatch.setattr(parsing, "repair_ranking", lambda r, u: repairs.append(r) or original(r, u))
        samples = sample_trajectories(make_query(), make_universe(3), config(k_samples=4), SameDecision())
        assert [s.final_ranking.groups for s in samples] == [(("2",), ("1",), ("3",))] * 4
        assert len({id(s.final_ranking) for s in samples}) == 1
        assert [s.coverage for s in samples] == [2 / 3] * 4
        assert repairs == [Ranking(groups=(("2",), ("1",)))]

    def test_prompt_hash_attached(self):
        samples = sample_trajectories(make_query(), make_universe(3), config(), MockBackend())
        assert len({s.prompt_hash for s in samples}) == 1
        assert samples[0].prompt_hash


class _Scripted(GenerationBackend):
    """The mock's generations, but for the sample indices `script` maps to
    an exception, which it raises. Records each sample index asked for."""

    def __init__(self, script):
        self.script = script
        self.asked = []
        self.mock = MockBackend(MockProfile(modes=(MockMode(restatements=1, revert_loops=1),)))

    def generate(self, request):
        self.asked.append(request.sample_index)
        if request.sample_index in self.script:
            raise self.script[request.sample_index]
        return self.mock.generate(request)


class TestBatchedParsing:
    """The K generations are parsed after the last request returns; the
    samples are those parsing each one as it returned would give."""

    def test_failures_keep_their_place_and_errors(self):
        script = {2: TransportError("sample 2 timed out"), 3: MalformedResponseError("bad payload"),
                  5: TransportError("sample 5 reset")}
        backend = _Scripted(script)
        samples = sample_trajectories(make_query(), make_universe(5), config(k_samples=6), backend)
        plain = sample_trajectories(make_query(), make_universe(5), config(k_samples=6), _Scripted({}))
        assert backend.asked == [1, 2, 3, 4, 5, 6]
        assert [s.sample_index for s in samples] == [1, 2, 3, 4, 5, 6]
        for sample, expected in zip(samples, plain):
            if sample.sample_index in script:
                assert sample == TrajectorySample(
                    query_id="q1", sample_index=sample.sample_index, raw_text="", reasoning_text="",
                    final_ranking=None, ranking_sequence=(), token_len=0, token_len_source="approximated",
                    valid=False, error=str(script[sample.sample_index]), prompt_hash=expected.prompt_hash)
            else:
                assert sample == expected

    def test_unreachable_only_when_every_sample_failed_at_the_transport(self):
        down = {k: TransportError(f"sample {k} timed out") for k in (1, 2, 3)}
        with pytest.raises(BackendUnreachableError, match="all 3 samples for query q1"):
            sample_trajectories(make_query(), make_universe(3), config(), _Scripted(down))
        down[3] = MalformedResponseError("bad payload")
        samples = sample_trajectories(make_query(), make_universe(3), config(), _Scripted(down))
        assert [s.error for s in samples] == ["sample 1 timed out", "sample 2 timed out", "bad payload"]

    def test_unexpected_exception_propagates_before_any_parse(self, monkeypatch):
        scans = []
        monkeypatch.setattr(sampling, "extract_rankings", lambda *args, **kwargs: scans.append(args))
        backend = _Scripted({2: TransportError("timed out"), 3: RuntimeError("backend bug")})
        with pytest.raises(RuntimeError, match="backend bug"):
            sample_trajectories(make_query(), make_universe(3), config(k_samples=5), backend)
        assert backend.asked == [1, 2, 3]
        assert scans == []


class TestGenerationRequest:
    FIELDS = dict(query_id="q1", sample_index=2, messages=({"role": "user", "content": "hi"},),
                  candidates=make_universe(2), model="m", temperature=0.7, top_p=0.95, max_tokens=64)

    def test_builds_by_keyword_and_by_position(self):
        by_keyword = GenerationRequest(**self.FIELDS, seed=5)
        by_position = GenerationRequest(*self.FIELDS.values(), 5)
        assert by_keyword == by_position
        assert [getattr(by_position, name) for name in self.FIELDS] == list(self.FIELDS.values())
        assert by_position.seed == 5

    def test_seed_defaults_to_none(self):
        assert GenerationRequest(**self.FIELDS).seed is None

    @pytest.mark.parametrize("name", ["sample_index", "seed", "messages"])
    def test_attributes_cannot_be_set(self, name):
        request = GenerationRequest(**self.FIELDS)
        with pytest.raises(AttributeError):
            setattr(request, name, None)

    def test_a_query_sends_k_requests_that_share_its_messages(self):
        class Recording(GenerationBackend):
            def __init__(self):
                self.requests = []

            def generate(self, request):
                self.requests.append(request)
                return MockBackend().generate(request)

        backend, universe = Recording(), make_universe(3)
        sample_trajectories(make_query(), universe, config(k_samples=4), backend)
        assert [r.sample_index for r in backend.requests] == [1, 2, 3, 4]
        first = backend.requests[0]
        assert all(r.messages is first.messages for r in backend.requests)
        assert first.messages == tuple(build_prompt(make_query(), universe, default_template()))
        assert {(r.query_id, r.candidates, r.model, r.temperature, r.top_p, r.max_tokens, r.seed)
                for r in backend.requests} == {("q1", universe, "mock-model", 0.7, 0.95, 8192, 7)}


class _ScriptedHandler(BaseHTTPRequestHandler):
    script = []
    requests_seen = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append({"body": body, "auth": self.headers.get("Authorization")})
        status, payload = self.script.pop(0) if self.script else (200, self._ok(body))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(payload).encode())

    @staticmethod
    def _ok(body):
        return {
            "choices": [{"message": {"content": "thinking... [1] > [2]"}, "finish_reason": "stop"}],
            "usage": {"completion_tokens": 42},
        }

    def log_message(self, *args):
        pass


@pytest.fixture
def http_endpoint():
    _ScriptedHandler.script = []
    _ScriptedHandler.requests_seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _ScriptedHandler
    server.shutdown()
    server.server_close()


@pytest.fixture
def closing():
    """Registers backends to close when the test ends, so no test leaves
    its sessions' sockets open."""
    backends = []
    yield lambda backend: backends.append(backend) or backend
    for backend in backends:
        backend.close()


def _request(seed=None):
    query, universe = make_query(), make_universe(2)
    messages = tuple(build_prompt(query, universe, default_template()))
    return GenerationRequest(query_id=query.id, sample_index=1, messages=messages,
                             candidates=universe, model="m", temperature=0.5,
                             top_p=0.95, max_tokens=100, seed=seed)


class _FakeResponse:
    def __init__(self, status_code=200, headers=None, usage=None):
        self.status_code = status_code
        self.headers = headers or {}
        self.usage = usage

    def json(self):
        body = {"choices": [{"message": {"content": "[1] > [2]"}, "finish_reason": "stop"}]}
        if self.usage is not None:
            body["usage"] = {"completion_tokens": self.usage}
        return body


class _ReplySession:
    """Answers every POST with the same response."""

    def __init__(self, response):
        self.response = response

    def post(self, url, **kwargs):
        return self.response


def _generate_from_two_threads(backend):
    """Two generate calls on each of two threads that are alive at once."""
    both_started = threading.Barrier(2, timeout=10)
    results = []

    def work():
        both_started.wait()
        results.extend(backend.generate(_request()) for _ in range(2))

    threads = [threading.Thread(target=work) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 4


class TestHttpChatBackend:
    def test_wire_protocol_fields_and_usage(self, http_endpoint, closing, monkeypatch):
        url, handler = http_endpoint
        monkeypatch.setenv("RD_TOKEN", "sekrit")
        backend = closing(HttpChatBackend(EndpointSettings(url, auth_env="RD_TOKEN")))
        result = backend.generate(_request(seed=3))
        assert result.raw_text == "thinking... [1] > [2]"
        assert result.endpoint_token_count == 42
        assert result.finish_reason == "stop"
        body = handler.requests_seen[0]["body"]
        assert set(body) == {"model", "messages", "temperature", "top_p", "max_tokens", "seed"}
        assert handler.requests_seen[0]["auth"] == "Bearer sekrit"

    def test_transient_statuses_are_retried(self, http_endpoint, closing):
        url, handler = http_endpoint
        handler.script = [(429, {"error": "slow down"}), (500, {"error": "oops"})]
        backend = closing(HttpChatBackend(EndpointSettings(url, max_retries=3), sleep=lambda s: None))
        result = backend.generate(_request())
        assert result.raw_text
        assert len(handler.requests_seen) == 3

    def test_retry_exhaustion_is_transport_error(self, http_endpoint, closing):
        url, handler = http_endpoint
        handler.script = [(503, {})] * 10
        backend = closing(HttpChatBackend(EndpointSettings(url, max_retries=2), sleep=lambda s: None))
        with pytest.raises(TransportError, match="HTTP 503"):
            backend.generate(_request())
        assert len(handler.requests_seen) == 3  # initial try + 2 retries

    def test_non_transient_status_not_retried(self, http_endpoint, closing):
        url, handler = http_endpoint
        handler.script = [(400, {"error": "bad request"})]
        backend = closing(HttpChatBackend(EndpointSettings(url, max_retries=5), sleep=lambda s: None))
        with pytest.raises(MalformedResponseError, match="HTTP 400"):
            backend.generate(_request())
        assert len(handler.requests_seen) == 1

    def test_malformed_body_rejected(self, http_endpoint, closing):
        url, handler = http_endpoint
        handler.script = [(200, {"not": "a chat response"})]
        backend = closing(HttpChatBackend(EndpointSettings(url), sleep=lambda s: None))
        with pytest.raises(MalformedResponseError, match="shape"):
            backend.generate(_request())

    def test_connection_refused_becomes_transport_error(self, closing):
        backend = closing(HttpChatBackend(EndpointSettings("http://127.0.0.1:1/never", max_retries=1, timeout_s=0.2),
                                          sleep=lambda s: None))
        with pytest.raises(TransportError):
            backend.generate(_request())

    def test_each_thread_gets_its_own_session(self, monkeypatch):
        made = []

        class RecordingSession:
            def __init__(self):
                made.append(self)
                self.threads = set()

            def post(self, url, **kwargs):
                self.threads.add(threading.get_ident())
                return _FakeResponse()

        monkeypatch.setattr(requests, "Session", RecordingSession)
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1"), sleep=lambda s: None)
        _generate_from_two_threads(backend)
        assert len(made) == 2
        assert [len(session.threads) for session in made] == [1, 1]
        assert made[0].threads != made[1].threads

    def test_close_closes_the_sessions_it_made(self, monkeypatch):
        made = []

        class ClosableSession(_ReplySession):
            def __init__(self):
                super().__init__(_FakeResponse())
                self.closed = False
                made.append(self)

            def close(self):
                self.closed = True

        monkeypatch.setattr(requests, "Session", ClosableSession)
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1"), sleep=lambda s: None)
        _generate_from_two_threads(backend)
        backend.close()
        assert [session.closed for session in made] == [True, True]
        backend.generate(_request())  # a request after close makes a new session
        backend.close()
        assert [session.closed for session in made] == [True, True, True]

    def test_close_leaves_an_injected_session_open(self):
        class InjectedSession(_ReplySession):
            def close(self):
                raise AssertionError("the backend closed a session it did not make")

        backend = HttpChatBackend(EndpointSettings("http://x.example/v1"), session=InjectedSession(_FakeResponse()))
        backend.generate(_request())
        backend.close()

    def test_a_dropped_reply_body_is_retried(self):
        class DropsFirstBody(_ReplySession):
            posts = 0

            def post(self, url, **kwargs):
                self.posts += 1
                if self.posts == 1:
                    raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")
                return self.response

        session = DropsFirstBody(_FakeResponse())
        sleeps = []
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1", max_retries=3, backoff_base_s=0.25),
                                  session=session, sleep=sleeps.append)
        assert backend.generate(_request()).raw_text == "[1] > [2]"
        assert session.posts == 2
        assert sleeps == [0.25]

    def test_a_body_dropped_every_time_is_transport_error(self):
        class DropsEveryBody(_ReplySession):
            posts = 0

            def post(self, url, **kwargs):
                self.posts += 1
                raise requests.exceptions.ChunkedEncodingError("connection broken mid-body")

        session = DropsEveryBody(_FakeResponse())
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1", max_retries=2), session=session,
                                  sleep=lambda s: None)
        with pytest.raises(TransportError, match="connection broken mid-body"):
            backend.generate(_request())
        assert session.posts == 3  # initial try + 2 retries

    @pytest.mark.parametrize("usage", [["n/a"], "n/a", 5])
    def test_usage_that_is_not_an_object_reports_no_count(self, usage):
        class UsageResponse(_FakeResponse):
            def json(self):
                return {**super().json(), "usage": usage}

        backend = HttpChatBackend(EndpointSettings("http://x.example/v1"), session=_ReplySession(UsageResponse()))
        result = backend.generate(_request())
        assert result.raw_text == "[1] > [2]"
        assert result.endpoint_token_count is None

    def test_injected_session_is_used_from_every_thread(self, monkeypatch):
        made = []
        monkeypatch.setattr(requests, "Session", lambda: made.append(1))

        class SharedSession:
            def __init__(self):
                self.threads = set()

            def post(self, url, **kwargs):
                self.threads.add(threading.get_ident())
                return _FakeResponse()

        shared = SharedSession()
        _generate_from_two_threads(HttpChatBackend(EndpointSettings("http://x.example/v1"), session=shared))
        assert made == []
        assert len(shared.threads) == 2

    @pytest.mark.parametrize("replies, slept", [
        ([(429, "7")], [7.0]),
        ([(503, "0.5")], [0.5]),
        ([(429, "7"), (500, None)], [7.0, 0.5]),
        ([(503, None)], [0.25]),
        ([(500, "7")], [0.25]),
        ([(429, "Wed, 21 Oct 2015 07:28:00 GMT")], [0.25]),
        ([(429, "-1")], [0.25]),
        # A delay that is not finite would put the worker to sleep forever.
        ([(429, "inf")], [0.25]),
        ([(503, "nan")], [0.25]),
        ([(429, "1e999")], [0.25]),
    ])
    def test_numeric_retry_after_replaces_the_backoff_delay(self, replies, slept):
        class ScriptedSession:
            def __init__(self):
                self.replies = [_FakeResponse(status, {} if header is None else {"Retry-After": header})
                                for status, header in replies]

            def post(self, url, **kwargs):
                return self.replies.pop(0) if self.replies else _FakeResponse()

        sleeps = []
        backend = HttpChatBackend(EndpointSettings("http://x.example/v1", max_retries=3, backoff_base_s=0.25),
                                  session=ScriptedSession(), sleep=sleeps.append)
        assert backend.generate(_request()).raw_text == "[1] > [2]"
        assert sleeps == slept

    def test_missing_auth_env_fails_fast(self):
        with pytest.raises(ConfigError, match="NOT_A_REAL_VAR"):
            HttpChatBackend(EndpointSettings("http://x.example", auth_env="NOT_A_REAL_VAR"))

    @pytest.mark.parametrize("setting, message", [
        ({"max_retries": -1}, "max_retries must be >= 0, got -1"),
        ({"backoff_base_s": -0.5}, "backoff_base_s must be >= 0, got -0.5"),
        ({"timeout_s": 0}, "timeout_s must be > 0, got 0"),
        ({"timeout_s": -1.0}, "timeout_s must be > 0, got -1.0"),
        ({"backoff_base_s": math.nan}, "backoff_base_s must be a finite number, got nan"),
        ({"timeout_s": math.inf}, "timeout_s must be a finite number, got inf"),
    ])
    def test_out_of_range_retry_settings_are_config_errors(self, setting, message):
        with pytest.raises(ConfigError, match=message):
            EndpointSettings("http://x.example", **setting)


GOLDEN_K3_DIGEST = "a26f7753903d2966a9b8b1c71f2f305dc2b2de95c156f59ba31c722e1a2ac66a"
GOLDEN_MODES_DIGEST = "e1529ae9579708ddf496d6228f3a6c5ea97e7d945c4584c2ebae2f6484d53f19"


def test_template_that_is_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "template.yaml"
    path.write_bytes(b'name: t\nsystem: "caf\xe9"\nuser: "{passages} {query}"\n')
    with pytest.raises(ConfigError, match=r"prompt template .*template\.yaml is not UTF-8 text"):
        load_template(str(path))


@pytest.mark.parametrize("user, message", [
    ("{passages} {query} {", "does not render: Single '{' encountered in format string"),
    ("{passages} {query} }", "does not render: Single '}' encountered in format string"),
    ("{passages} {query} {num:q}", "does not render: Unknown format code 'q'"),
    ("{passages} {query} {0}", "uses an unknown placeholder"),
    ("{passages} {extra}", "is missing the {query} placeholder"),
])
def test_a_template_that_does_not_render_is_refused_when_loaded(tmp_path, user, message):
    """Before any prompt is built, as a ConfigError that names the template."""
    path = tmp_path / "template.yaml"
    path.write_text(f"name: stray\nsystem: s\nuser: {json.dumps(user)}\n")
    with pytest.raises(ConfigError, match=rf"^template 'stray' {re.escape(message)}"):
        load_template(str(path))


def test_the_packaged_template_is_read_once():
    assert default_template() is default_template()


def test_http_backend_without_url_is_config_error():
    with pytest.raises(ConfigError, match="endpoint.url is not configured"):
        HttpChatBackend(EndpointSettings(model="teacher"))


def test_only_the_mock_never_waits():
    """The `sample` stage samples a backend that waits through its pool,
    and one that never waits on its own thread; a wrapper waits unless it
    says otherwise."""

    class Wrapper(GenerationBackend):
        def generate(self, request):
            raise NotImplementedError

    assert HttpChatBackend.waits and Wrapper.waits and not MockBackend.waits
