"""Pipeline configuration: one YAML file with environment-variable
interpolation for secrets.

String values may embed ${VAR}; the variable must be set at load time.
The two built-in sampling profiles mirror the corpus-construction and
evaluation decoding setups (distill: K=16, t=0.7, p=0.95, 8192 max tokens;
eval: K=1, t=0.5, p=0.95).

PyYAML is imported by `load_config` when it reads a file, not with this
module: only `sample` and `build-corpus` read a config or prompt template,
and the other stages do not pay its import.
"""

from __future__ import annotations

import math
import os
import re
from typing import Mapping, TypeVar, get_type_hints

from .errors import ConfigError
from .models import SamplingConfig, _fill, _Value, text_types, type_message
from .parsing import THINK_MARKERS
from .sampling import EndpointSettings, MockMode, MockProfile

_T = TypeVar("_T")

_ENV_PATTERN = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")

DEFAULT_PROFILES: dict[str, dict] = {
    "distill": {"k_samples": 16, "temperature": 0.7, "top_p": 0.95, "max_tokens": 8192, "max_in_flight": 4},
    "eval": {"k_samples": 1, "temperature": 0.5, "top_p": 0.95, "max_tokens": 8192, "max_in_flight": 4},
}

# Keys with one accepted value. Any other value is refused, not ignored: it
# would ask for another token length or reasoning split than the one stored.
_FIXED_KEYS = {"tokenizer_mode": "auto", "think_markers": list(THINK_MARKERS)}


class PipelineConfig(_Value):
    """A loaded config. An endpoint, profiles or mock of None stands for its
    default: `EndpointSettings()`, a copy of `DEFAULT_PROFILES` and
    `MockProfile()`."""

    endpoint: EndpointSettings
    profiles: Mapping[str, Mapping]
    mock: MockProfile
    seed: int | None

    def __init__(self, endpoint: EndpointSettings | None = None, profiles: Mapping[str, Mapping] | None = None,
                 mock: MockProfile | None = None, seed: int | None = None) -> None:
        endpoint = EndpointSettings() if endpoint is None else endpoint
        profiles = dict(DEFAULT_PROFILES) if profiles is None else profiles
        mock = MockProfile() if mock is None else mock
        _fill(self, locals())

    def __post_init__(self) -> None:
        _check_types({"seed": self.seed}, PipelineConfig, "")
        for name in self.profiles:
            self.sampling_config(name)  # raises ConfigError on invalid profiles

    def sampling_config(self, profile: str, seed: int | None = None) -> SamplingConfig:
        """The named profile's settings over the built-in ones of the same
        name; a profile of another name starts from distill's."""
        if profile not in self.profiles:
            raise ConfigError(f"unknown sampling profile {profile!r}; have {sorted(self.profiles)}")
        settings = {**DEFAULT_PROFILES.get(profile, DEFAULT_PROFILES["distill"]),
                    **_mapping(self.profiles[profile], f"sampling profile {profile!r}")}
        return _build(SamplingConfig, settings, f"profiles.{profile}.", f"sampling profile {profile!r}",
                      model_name=self.endpoint.model, seed=seed if seed is not None else self.seed)


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
    """Refuse each setting of `settings` that names a field of the value type
    `cls` but has a type its annotation does not accept (`text_types`), or
    is a float that is not finite (YAML's .nan and .inf: no range check
    refuses NaN, and an endpoint's backoff would sleep NaN or infinite
    seconds); the error names it as `prefix` + field name. Others are left
    to `cls`."""
    for name, hint in get_type_hints(cls).items():
        if name not in settings:
            continue
        value, kinds = settings[name], text_types(hint)
        if type(value) not in kinds:
            raise ConfigError(f"{type_message(prefix + name, value, kinds)} {value!r}")
        if type(value) is float and not math.isfinite(value):
            raise ConfigError(f"{prefix}{name} must be a finite number, got {value!r}")


def _build(cls: type[_T], settings: Mapping, prefix: str, section: str, **given: object) -> _T:
    """The value `cls(**given, **settings)`, built from one config section:
    a setting of a type its field does not take is refused by
    `_check_types`, and a TypeError or ValueError from the constructor, as
    an unknown key, becomes a ConfigError that names `section`."""
    _check_types(settings, cls, prefix)
    try:
        return cls(**given, **settings)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {section}: {exc}") from None


def load_config(path: str | None) -> PipelineConfig:
    """Load and validate a pipeline config; None yields mock-friendly
    defaults."""
    if path is None:
        return PipelineConfig()
    import yaml

    try:
        with open(path, encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text ({exc.reason})") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from None
    raw = {} if raw is None else raw  # an empty document; 0, false, [] and '' are refused below
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    # Any other key is refused, not ignored: a misspelt `profiles` or `seed`
    # would sample with the defaults.
    keys = [*PipelineConfig._fields, *_FIXED_KEYS]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}; a config takes only {keys}")
    raw = _interpolate(raw)

    endpoint = _build(EndpointSettings, _mapping(raw.get("endpoint"), "endpoint section"), "endpoint.",
                      "endpoint section")
    for key, fixed in _FIXED_KEYS.items():
        if key in raw and raw[key] != fixed:
            raise ConfigError(f"{key} must be {fixed!r}, the only supported value, got {raw[key]!r}")
    modes = _mapping(raw.get("mock"), "mock section").get("modes", [{}])
    if not isinstance(modes, list):
        raise ConfigError(f"mock.modes must be a list, got {type(modes).__name__}")
    mock = MockProfile(modes=tuple(
        _build(MockMode, _mapping(mode, f"mock.modes[{i}]"), f"mock.modes[{i}].", "mock section")
        for i, mode in enumerate(modes)))

    return PipelineConfig(
        endpoint=endpoint,
        profiles={**DEFAULT_PROFILES, **_mapping(raw.get("profiles"), "profiles section")},
        mock=mock,
        seed=raw.get("seed"),
    )
