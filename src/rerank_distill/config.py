"""Pipeline configuration: one YAML file with environment-variable
interpolation for secrets.

String values may embed ${VAR}; the variable must be set at load time.
The two built-in sampling profiles mirror the corpus-construction and
evaluation decoding setups (distill: K=16, t=0.7, p=0.95, 8192 max tokens;
eval: K=1, t=0.5, p=0.95).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Mapping, get_type_hints

import yaml

from .errors import ConfigError
from .models import SamplingConfig, text_types, type_message
from .parsing import THINK_MARKERS
from .sampling import MockMode, MockProfile

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

DEFAULT_PROFILES: dict[str, dict] = {
    "distill": {"k_samples": 16, "temperature": 0.7, "top_p": 0.95, "max_tokens": 8192, "max_in_flight": 4},
    "eval": {"k_samples": 1, "temperature": 0.5, "top_p": 0.95, "max_tokens": 8192, "max_in_flight": 4},
}

# Keys with one accepted value. Any other value is refused, not ignored: it
# would ask for another token length or reasoning split than the one stored.
_FIXED_KEYS = {"tokenizer_mode": "auto", "think_markers": list(THINK_MARKERS)}


@dataclass(frozen=True)
class EndpointSettings:
    url: str = ""
    model: str = ""
    auth_env: str | None = None
    timeout_s: float = 120.0
    max_retries: int = 3
    backoff_base_s: float = 0.5


@dataclass(frozen=True)
class PipelineConfig:
    endpoint: EndpointSettings = field(default_factory=EndpointSettings)
    profiles: Mapping[str, Mapping] = field(default_factory=lambda: dict(DEFAULT_PROFILES))
    prompt_template: str | None = None
    paths: Mapping[str, str] = field(default_factory=dict)
    mock: MockProfile = field(default_factory=MockProfile)
    seed: int | None = None

    def __post_init__(self) -> None:
        # os.path.exists takes an int as a file descriptor, so a path must be
        # a string before it is looked up.
        _check_types({"seed": self.seed, "prompt_template": self.prompt_template}, PipelineConfig, "")
        for name in self.profiles:
            self.sampling_config(name)  # raises ConfigError on invalid profiles
        if self.prompt_template is not None and not os.path.exists(self.prompt_template):
            raise ConfigError(f"prompt template file does not exist: {self.prompt_template}")
        for key, path in self.paths.items():
            if not isinstance(path, str):
                raise ConfigError(f"configured path {key!r} must be a path string, got {type(path).__name__}")
            if not os.path.exists(path):
                raise ConfigError(f"configured path {key!r} does not exist: {path}")

    def sampling_config(self, profile: str, seed: int | None = None) -> SamplingConfig:
        """The named profile's settings over the built-in ones of the same
        name; a profile of another name starts from distill's."""
        if profile not in self.profiles:
            raise ConfigError(f"unknown sampling profile {profile!r}; have {sorted(self.profiles)}")
        settings = {**DEFAULT_PROFILES.get(profile, DEFAULT_PROFILES["distill"]),
                    **_mapping(self.profiles[profile], f"sampling profile {profile!r}")}
        _check_types(settings, SamplingConfig, f"profiles.{profile}.")
        try:
            return SamplingConfig(
                endpoint_url=self.endpoint.url,
                model_name=self.endpoint.model,
                seed=seed if seed is not None else self.seed,
                **settings,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid sampling profile {profile!r}: {exc}") from None


def _mapping(value: object, what: str) -> Mapping:
    """A config section; a missing or null one is empty."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ConfigError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _interpolate(value: object) -> object:
    if isinstance(value, str):
        def substitute(match: re.Match) -> str:
            name = match.group(1)
            if name not in os.environ:
                raise ConfigError(f"environment variable {name!r} referenced in config is not set")
            return os.environ[name]
        return _ENV_PATTERN.sub(substitute, value)
    if isinstance(value, dict):
        return {k: _interpolate(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_interpolate(v) for v in value]
    return value


def _check_types(settings: Mapping, cls: type, prefix: str) -> None:
    """Refuse each setting of `settings` that names a field of the dataclass
    `cls` but has a type its annotation does not accept (`text_types`); the
    error names it as `prefix` + field name. Others are left to `cls`."""
    for name, hint in get_type_hints(cls).items():
        kinds = text_types(hint)
        if name in settings and type(settings[name]) not in kinds:
            raise ConfigError(f"{type_message(prefix + name, settings[name], kinds)} {settings[name]!r}")


def _endpoint_settings(raw: Mapping) -> EndpointSettings:
    _check_types(raw, EndpointSettings, "endpoint.")
    try:
        return EndpointSettings(**raw)
    except TypeError as exc:
        raise ConfigError(f"invalid endpoint section: {exc}") from None


def _mock_profile(raw: Mapping) -> MockProfile:
    modes = []
    for i, mode in enumerate(raw.get("modes", [{}])):
        mode = _mapping(mode, f"mock.modes[{i}]")
        _check_types(mode, MockMode, f"mock.modes[{i}].")
        modes.append(MockMode(**mode))
    return MockProfile(modes=tuple(modes))


def load_config(path: str | None) -> PipelineConfig:
    """Load and validate a pipeline config; None yields mock-friendly
    defaults."""
    if path is None:
        return PipelineConfig()
    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    raw = _interpolate(raw)

    endpoint = _endpoint_settings(_mapping(raw.get("endpoint"), "endpoint section"))
    for key, fixed in _FIXED_KEYS.items():
        if key in raw and raw[key] != fixed:
            raise ConfigError(f"{key} must be {fixed!r}, the only supported value, got {raw[key]!r}")
    try:
        mock = _mock_profile(_mapping(raw.get("mock"), "mock section"))
    except TypeError as exc:
        raise ConfigError(f"invalid mock section: {exc}") from None

    return PipelineConfig(
        endpoint=endpoint,
        profiles={**DEFAULT_PROFILES, **_mapping(raw.get("profiles"), "profiles section")},
        prompt_template=raw.get("prompt_template"),
        paths=dict(_mapping(raw.get("paths"), "paths section")),
        mock=mock,
        seed=raw.get("seed"),
    )
