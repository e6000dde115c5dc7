from rerank_distill.config import DEFAULT_PROFILES, load_config


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
