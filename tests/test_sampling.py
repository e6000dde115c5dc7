import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rerank_distill.errors import (
    BackendUnreachableError,
    ConfigError,
    MalformedResponseError,
    TransportError,
)
from rerank_distill.metrics import ndcg_at_k
from rerank_distill import parsing, sampling
from rerank_distill.models import Ranking, SamplingConfig, TrajectorySample
from rerank_distill.sampling import (
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
    mock_generate,
    sample_trajectories,
)

from conftest import graded_qrels, make_query, make_universe


def config(**overrides):
    base = dict(k_samples=3, temperature=0.7, top_p=0.95, max_tokens=8192,
                seed=7, max_in_flight=4, endpoint_url="", model_name="mock-model")
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
        bad = PromptTemplate(name="bad", system="s", user="no slots here")
        with pytest.raises(ConfigError, match="placeholder"):
            build_prompt(make_query(), make_universe(2), bad)

    def test_unknown_placeholder_rejected(self):
        bad = PromptTemplate(name="bad", system="s", user="{passages} {query} {wat}")
        with pytest.raises(ConfigError, match="unknown placeholder"):
            build_prompt(make_query(), make_universe(2), bad)


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
            sample_trajectories(
                make_query(), make_universe(3),
                config(k_samples=4, endpoint_url="http://down.example"), AlwaysDown())

    def test_partial_failures_become_invalid_samples(self):
        class FlakyBackend(GenerationBackend):
            def generate(self, request):
                if request.sample_index == 2:
                    raise MalformedResponseError("bad payload")
                return MockBackend().generate(request)

        samples = sample_trajectories(make_query(), make_universe(3), config(), FlakyBackend())
        assert [s.valid for s in samples] == [True, False, True]
        assert "bad payload" in samples[1].error

    def test_bounded_concurrency(self):
        lock = threading.Lock()
        state = {"in_flight": 0, "peak": 0}

        class Instrumented(GenerationBackend):
            def generate(self, request):
                with lock:
                    state["in_flight"] += 1
                    state["peak"] = max(state["peak"], state["in_flight"])
                time.sleep(0.02)
                with lock:
                    state["in_flight"] -= 1
                return MockBackend().generate(request)

        sample_trajectories(make_query(), make_universe(3),
                            config(k_samples=12, max_in_flight=3), Instrumented())
        assert 1 <= state["peak"] <= 3

    def test_output_order_is_stable_under_jitter(self):
        class Jittery(GenerationBackend):
            def generate(self, request):
                time.sleep(0.03 if request.sample_index % 2 else 0.0)
                return MockBackend().generate(request)

        samples = sample_trajectories(make_query(), make_universe(3),
                                      config(k_samples=6, max_in_flight=6), Jittery())
        assert [s.sample_index for s in samples] == [1, 2, 3, 4, 5, 6]

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

    def test_one_ranking_scan_per_generation(self, monkeypatch):
        calls = []
        original = parsing.extract_rankings

        def counting(text, universe):
            calls.append(text)
            return original(text, universe)

        monkeypatch.setattr(sampling, "extract_rankings", counting)
        monkeypatch.setattr(parsing, "extract_rankings", counting)
        profile = MockProfile(modes=(MockMode(restatements=2, revert_loops=1),))
        samples = sample_trajectories(make_query(), make_universe(5), config(k_samples=4), MockBackend(profile))
        assert all(s.valid for s in samples)
        assert calls == [s.raw_text for s in samples]

    def test_prompt_hash_attached(self):
        samples = sample_trajectories(make_query(), make_universe(3), config(), MockBackend())
        assert len({s.prompt_hash for s in samples}) == 1
        assert samples[0].prompt_hash


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


def _request(seed=None):
    query, universe = make_query(), make_universe(2)
    messages = tuple(build_prompt(query, universe, default_template()))
    return GenerationRequest(query_id=query.id, sample_index=1, messages=messages,
                             candidates=universe, model="m", temperature=0.5,
                             top_p=0.95, max_tokens=100, seed=seed)


class TestHttpChatBackend:
    def test_wire_protocol_fields_and_usage(self, http_endpoint, monkeypatch):
        url, handler = http_endpoint
        monkeypatch.setenv("RD_TOKEN", "sekrit")
        backend = HttpChatBackend(url, auth_env="RD_TOKEN")
        result = backend.generate(_request(seed=3))
        assert result.raw_text == "thinking... [1] > [2]"
        assert result.endpoint_token_count == 42
        assert result.finish_reason == "stop"
        body = handler.requests_seen[0]["body"]
        assert set(body) == {"model", "messages", "temperature", "top_p", "max_tokens", "seed"}
        assert handler.requests_seen[0]["auth"] == "Bearer sekrit"

    def test_transient_statuses_are_retried(self, http_endpoint):
        url, handler = http_endpoint
        handler.script = [(429, {"error": "slow down"}), (500, {"error": "oops"})]
        backend = HttpChatBackend(url, max_retries=3, sleep=lambda s: None)
        result = backend.generate(_request())
        assert result.raw_text
        assert len(handler.requests_seen) == 3

    def test_retry_exhaustion_is_transport_error(self, http_endpoint):
        url, handler = http_endpoint
        handler.script = [(503, {})] * 10
        backend = HttpChatBackend(url, max_retries=2, sleep=lambda s: None)
        with pytest.raises(TransportError, match="HTTP 503"):
            backend.generate(_request())
        assert len(handler.requests_seen) == 3  # initial try + 2 retries

    def test_non_transient_status_not_retried(self, http_endpoint):
        url, handler = http_endpoint
        handler.script = [(400, {"error": "bad request"})]
        backend = HttpChatBackend(url, max_retries=5, sleep=lambda s: None)
        with pytest.raises(MalformedResponseError, match="HTTP 400"):
            backend.generate(_request())
        assert len(handler.requests_seen) == 1

    def test_malformed_body_rejected(self, http_endpoint):
        url, handler = http_endpoint
        handler.script = [(200, {"not": "a chat response"})]
        backend = HttpChatBackend(url, sleep=lambda s: None)
        with pytest.raises(MalformedResponseError, match="shape"):
            backend.generate(_request())

    def test_connection_refused_becomes_transport_error(self):
        backend = HttpChatBackend("http://127.0.0.1:1/never", max_retries=1,
                                  timeout_s=0.2, sleep=lambda s: None)
        with pytest.raises(TransportError):
            backend.generate(_request())

    def test_missing_auth_env_fails_fast(self):
        with pytest.raises(ConfigError, match="NOT_A_REAL_VAR"):
            HttpChatBackend("http://x.example", auth_env="NOT_A_REAL_VAR")


GOLDEN_K3_DIGEST = "a26f7753903d2966a9b8b1c71f2f305dc2b2de95c156f59ba31c722e1a2ac66a"
