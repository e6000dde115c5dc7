from pathlib import Path

import pytest

from rerank_distill.config import DEFAULT_PROFILES, load_config
from rerank_distill.errors import ConfigError
from rerank_distill.sampling import MockMode, MockProfile


def _load(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return load_config(str(path))


def test_partial_profile_keeps_the_other_defaults(tmp_path):
    config = _load(tmp_path, "profiles: {eval: {k_samples: 3}}\n").sampling_config("eval")
    assert (config.k_samples, config.temperature) == (3, DEFAULT_PROFILES["eval"]["temperature"])


def test_new_profile_starts_from_distill(tmp_path):
    config = _load(tmp_path, "profiles: {fast: {max_tokens: 512}}\n").sampling_config("fast")
    assert (config.k_samples, config.max_tokens) == (DEFAULT_PROFILES["distill"]["k_samples"], 512)


def test_null_sections_are_empty(tmp_path):
    config = _load(tmp_path, "profiles: {distill: null}\nmock: null\npaths: null\n")
    assert config.sampling_config("distill").k_samples == DEFAULT_PROFILES["distill"]["k_samples"]
    assert config.paths == {}


def test_mock_name_is_ignored(tmp_path):
    config = _load(tmp_path, "mock: {name: bench, modes: [{quality: worst}]}\n")
    assert config.mock == MockProfile(modes=(MockMode(quality="worst"),))


@pytest.mark.parametrize("text, message", [
    # os.path.exists(0) and os.path.exists(1) test file descriptors, which are open.
    ("prompt_template: 0\n", "prompt_template must be str or null, got int"),
    ("paths: {run: 1}\n", "configured path 'run' must be a path string, got int"),
])
def test_non_string_path_is_config_error(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        _load(tmp_path, text)


def test_fixed_token_settings_still_load(tmp_path):
    _load(tmp_path, 'tokenizer_mode: auto\nthink_markers: ["<think>", "</think>"]\n')


@pytest.mark.parametrize("text, key", [
    ("tokenizer_mode: approximate\n", "tokenizer_mode"),
    ('think_markers: ["<r>", "</r>"]\n', "think_markers"),
])
def test_other_token_settings_are_config_errors(tmp_path, text, key):
    with pytest.raises(ConfigError, match=key):
        _load(tmp_path, text)


def test_example_config_loads():
    config = load_config(str(Path(__file__).parent.parent / "configs" / "example.yaml"))
    assert (config.endpoint.max_retries, len(config.mock.modes), config.seed) == (3, 3, 7)


@pytest.mark.parametrize("setting, message", [
    ('max_retries: "3"', "endpoint.max_retries must be int, got str"),
    ("max_retries: true", "endpoint.max_retries must be int, got bool"),
    ("max_retries: 2.0", "endpoint.max_retries must be int, got float"),
    ('timeout_s: "30"', "endpoint.timeout_s must be int or float, got str"),
    ("backoff_base_s: false", "endpoint.backoff_base_s must be int or float, got bool"),
    ("url: 8080", "endpoint.url must be str, got int"),
    ("model: [m]", "endpoint.model must be str, got list"),
    ("auth_env: {name: TOKEN}", "endpoint.auth_env must be str or null, got dict"),
])
def test_endpoint_setting_of_another_type_is_config_error(tmp_path, setting, message):
    with pytest.raises(ConfigError, match=message):
        _load(tmp_path, f"endpoint: {{{setting}}}\n")


def test_endpoint_numbers_may_be_ints(tmp_path):
    endpoint = _load(tmp_path, "endpoint: {timeout_s: 30, backoff_base_s: 0, auth_env: null}\n").endpoint
    assert (endpoint.timeout_s, endpoint.backoff_base_s, endpoint.auth_env) == (30, 0, None)


@pytest.mark.parametrize("text, message", [
    ("profiles: {distill: {k_samples: 2.5}}", "profiles.distill.k_samples must be int, got float 2.5"),
    ("profiles: {distill: {k_samples: true}}", "profiles.distill.k_samples must be int, got bool True"),
    ("profiles: {eval: {max_in_flight: 1.5}}", "profiles.eval.max_in_flight must be int, got float 1.5"),
    ('profiles: {fast: {temperature: "0.7"}}', "profiles.fast.temperature must be int or float, got str"),
    ("profiles: {distill: {top_p: false}}", "profiles.distill.top_p must be int or float, got bool"),
    ("mock: {modes: [{filler_sentences: 2.5}]}", r"mock.modes\[0\].filler_sentences must be int, got float 2.5"),
    ("mock: {modes: [{}, {revert_loops: true}]}", r"mock.modes\[1\].revert_loops must be int, got bool"),
    ("mock: {modes: [{quality: 1}]}", r"mock.modes\[0\].quality must be str, got int"),
    ("mock: {modes: [ideal]}", r"mock.modes\[0\] must be a mapping, got str"),
    ("seed: 1.5", "seed must be int or null, got float 1.5"),
    ("seed: true", "seed must be int or null, got bool"),
    ('seed: "7"', "seed must be int or null, got str"),
])
def test_sampling_setting_of_another_type_is_config_error(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        _load(tmp_path, text + "\n")


def test_sampling_floats_may_be_ints(tmp_path):
    config = _load(tmp_path, "profiles: {eval: {temperature: 0, top_p: 1}}\nseed: null\n")
    sampling = config.sampling_config("eval")
    assert (sampling.temperature, sampling.top_p, config.seed) == (0, 1, None)


def test_null_mock_mode_is_the_default_mode(tmp_path):
    assert _load(tmp_path, "mock: {modes: [null, {quality: worst}]}\n").mock == MockProfile(
        modes=(MockMode(), MockMode(quality="worst")))
