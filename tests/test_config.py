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
    config = _load(tmp_path, "profiles: {distill: null}\nmock: null\n")
    assert config.sampling_config("distill").k_samples == DEFAULT_PROFILES["distill"]["k_samples"]


def test_mock_name_is_ignored(tmp_path):
    config = _load(tmp_path, "mock: {name: bench, modes: [{quality: worst}]}\n")
    assert config.mock == MockProfile(modes=(MockMode(quality="worst"),))


@pytest.mark.parametrize("text", ["profile: {distill: {k_samples: 2}}\n", "seeed: 3\n", "promt_template: foo.yaml\n",
                                  "paths: {run: run.txt, corpus: corpus.tsv}\n", "prompt_template: foo.yaml\n"],
                         ids=["profile", "seeed", "promt_template", "paths", "prompt_template"])
def test_an_unknown_top_level_key_is_config_error(tmp_path, text):
    """A misspelt key would otherwise be ignored: `profile` would sample K=16.
    A config names no data file: `paths` would leave the stages reading the
    files their flags name, and `prompt_template` the template `--template`
    names."""
    key = text.split(":")[0]
    with pytest.raises(ConfigError, match=rf"unknown config key '{key}'; a config takes only \['endpoint', "
                                          r"'profiles', 'mock', 'seed', "
                                          r"'tokenizer_mode', 'think_markers'\]"):
        _load(tmp_path, text)


@pytest.mark.parametrize("text", ["0\n", "false\n", "[]\n", "''\n", "- a\n"])
def test_a_top_level_that_is_not_a_mapping_is_config_error(tmp_path, text):
    """Falsy documents included: they are no more a config than `- a`."""
    with pytest.raises(ConfigError, match=r"config .*config\.yaml must be a mapping at top level"):
        _load(tmp_path, text)


@pytest.mark.parametrize("text", ["", "# nothing set\n"])
def test_an_empty_document_is_the_default_config(tmp_path, text):
    assert _load(tmp_path, text) == load_config(None)


def test_config_that_is_not_utf8_is_config_error(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"seed: 1\nendpoint: {model: caf\xe9}\n")
    with pytest.raises(ConfigError, match=r"config .*config\.yaml is not UTF-8 text \(invalid continuation byte\)"):
        load_config(str(path))


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


@pytest.mark.parametrize("setting, message", [
    ("max_retries: -1", "endpoint max_retries must be >= 0, got -1"),
    ("backoff_base_s: -0.5", "endpoint backoff_base_s must be >= 0, got -0.5"),
    ("timeout_s: 0", "endpoint timeout_s must be > 0, got 0"),
])
def test_out_of_range_endpoint_setting_is_refused_at_load(tmp_path, setting, message):
    """With no URL too: the config is refused whichever backend samples."""
    with pytest.raises(ConfigError, match=f"^{message}$"):
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


@pytest.mark.parametrize("text, message", [
    ("endpoint: {retries: 2}", r"^invalid endpoint section: .*unexpected keyword argument 'retries'"),
    ("mock: {modes: [{quality: worst, loops: 2}]}", r"^invalid mock section: .*unexpected keyword argument 'loops'"),
    ("mock: {modes: [{quality: best}]}", "^unknown mock quality 'best'"),
    ("mock: {modes: []}", "^mock profile needs at least one mode$"),
    ("profiles: {distill: {k_samples: 0}}", r"^invalid sampling profile 'distill': "),
    ("profiles: {distill: {top_k: 40}}", r"^invalid sampling profile 'distill': .*unexpected keyword argument 'top_k'"),
])
def test_a_section_that_does_not_build_is_config_error(tmp_path, text, message):
    """Each message names the section, or the field, at fault."""
    with pytest.raises(ConfigError, match=message):
        _load(tmp_path, text + "\n")


def test_null_mock_mode_is_the_default_mode(tmp_path):
    assert _load(tmp_path, "mock: {modes: [null, {quality: worst}]}\n").mock == MockProfile(
        modes=(MockMode(), MockMode(quality="worst")))


@pytest.mark.parametrize("text, key", [
    ("profiles: {distill: {temperature: .nan}}", "profiles.distill.temperature"),
    ("profiles: {eval: {temperature: .inf}}", "profiles.eval.temperature"),
    ("profiles: {fast: {top_p: -.inf}}", "profiles.fast.top_p"),
    ("endpoint: {backoff_base_s: .nan}", "endpoint.backoff_base_s"),
    ("endpoint: {backoff_base_s: .inf}", "endpoint.backoff_base_s"),
    ("endpoint: {timeout_s: .inf}", "endpoint.timeout_s"),
    ("endpoint: {timeout_s: .NaN}", "endpoint.timeout_s"),
])
def test_non_finite_number_is_config_error(tmp_path, text, key):
    """No range check refuses NaN, and an endpoint's retry would sleep NaN
    or infinite seconds."""
    with pytest.raises(ConfigError, match=rf"^{key} must be a finite number, got -?(nan|inf)$"):
        _load(tmp_path, text + "\n")
