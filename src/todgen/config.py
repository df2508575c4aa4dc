"""Pipeline configuration: defaults, YAML loading, and validation."""

from __future__ import annotations

import datetime as dt
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

import yaml

from .llm import BackendConfig, RetryPolicy

__all__ = ["PipelineConfig", "ConfigError", "load_config", "data_path"]


class ConfigError(ValueError):
    pass


def data_path(*parts: str) -> Path:
    """Path to a bundled data file (schemas, tables, templates)."""
    root = resources.files("todgen").joinpath("/".join(parts))
    return Path(str(root))


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 0
    schema_manifest: str = ""
    output_dir: str = "out"
    dialog_count: int = 100
    services: tuple[str, ...] = ()  # empty = all services in the manifest

    # personas
    persona_pool_size: int = 500
    surname_table: str = ""
    industry_table: str = ""
    work_status_weights: tuple[float, float, float] = (0.6, 0.2, 0.2)

    # sampler
    kind_ratios: tuple[float, float, float] = (0.405, 0.209, 0.386)
    self_correction_rate: float = 0.19
    complex_referral_rate: float = 0.151
    no_context_probability: float = 0.33
    optional_slot_probability: float = 0.5

    # contexts
    record_count_range: tuple[int, int] = (1, 5)
    time_window: tuple[str, str] = ("2025-01-01", "2026-12-31")

    # backends
    user_backend: BackendConfig = BackendConfig(kind="mock")
    system_backend: BackendConfig = BackendConfig(kind="mock")
    evaluator_backend: BackendConfig = BackendConfig(kind="mock")
    max_concurrency: int = 4  # dialogs in flight per stage (see runner.py)
    temperature: float = 0.7
    max_tokens: int = 512
    content_retries: int = 3

    # split
    test_fraction: float = 0.10
    held_out_service: str = "banking"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _has_type_of(value, f.default):
                raise ConfigError(
                    f"{f.name}: expected {_kind(f.default)}, got {value!r}")
        for name in ("kind_ratios", "work_status_weights"):
            weights = getattr(self, name)
            if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
                raise ConfigError(
                    f"{name} must be non-negative and sum to 1, got {weights}")
        # an empty pool or corpus only fails stages later (contexts, split)
        for name in ("persona_pool_size", "dialog_count"):
            if getattr(self, name) < 1:
                raise ConfigError(
                    f"{name} must be at least 1, got {getattr(self, name)}")
        try:
            start, end = (dt.date.fromisoformat(d) for d in self.time_window)
            ordered = start <= end
        except (TypeError, ValueError):
            ordered = False
        if not ordered:
            raise ConfigError(
                "time_window must be two quoted ISO dates with start <= end, "
                f"got {self.time_window}")
        for name in ("self_correction_rate", "complex_referral_rate",
                     "no_context_probability", "optional_slot_probability",
                     "test_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.max_concurrency < 1:
            raise ConfigError(
                f"max_concurrency must be at least 1, got {self.max_concurrency}"
            )
        if self.content_retries < 1:
            raise ConfigError(
                f"content_retries must be at least 1, got {self.content_retries}"
            )
        # at least one record: the sampler gives context-requiring intents
        # to every dialog and fails on an empty context
        r = self.record_count_range
        if not (len(r) == 2 and 1 <= r[0] <= r[1]):
            raise ConfigError(
                f"record_count_range must be (lo, hi) with 1 <= lo <= hi, "
                f"got {r}"
            )
        if self.services and self.held_out_service not in self.services:
            raise ConfigError(
                f"held_out_service {self.held_out_service!r} is not in the "
                f"services subset {list(self.services)}"
            )
        for name in _BACKEND_FIELDS:
            _check_backend(name, getattr(self, name))

    @property
    def schema_manifest_path(self) -> Path:
        if self.schema_manifest:
            return Path(self.schema_manifest)
        return data_path("data", "schemas", "manifest.txt")

    @property
    def surname_table_path(self) -> Path:
        if self.surname_table:
            return Path(self.surname_table)
        return data_path("data", "tables", "surnames.csv")

    @property
    def industry_table_path(self) -> Path:
        if self.industry_table:
            return Path(self.industry_table)
        return data_path("data", "tables", "industries.csv")


# per type of a field's default: the types its value may have, and their name
_TYPES = {int: ((int,), "integer"), float: ((int, float), "number"),
          str: ((str, os.PathLike), "string"), tuple: ((tuple,), "list")}


def _has_type_of(value, default) -> bool:
    """Whether ``value`` has the type of a field's ``default``: an int passes
    for a float and a ``Path`` for a string, a bool for nothing. A tuple of
    numbers is checked item by item; strings in a tuple are left to the
    field's own check."""
    types = _TYPES.get(type(default), ((type(default),),))[0]
    if isinstance(value, bool) or not isinstance(value, types):
        return False
    item = _number_item(default)
    return item is None or all(_has_type_of(v, item) for v in value)


def _number_item(default):
    """The first item of a tuple default of numbers, else None."""
    if isinstance(default, tuple) and default and not isinstance(default[0], str):
        return default[0]
    return None


def _kind(default) -> str:
    """The type of ``default`` as a config error message names it."""
    item = _number_item(default)
    if item is not None:
        return f"list of {_kind(item)}s"
    return _TYPES.get(type(default), (None, "mapping"))[1]


_BACKEND_FIELDS = ("user_backend", "system_backend", "evaluator_backend")
_BACKEND_KEYS = {"kind", "endpoint", "model", "auth_env", "timeout", "retry"}
_RETRY_KEYS = {"max_attempts", "backoff"}


def _check_backend(name: str, b: BackendConfig) -> None:
    """Reject a backend config that could only fail at its first completion,
    or that would be retried as if the failure were transient."""
    if b.kind not in ("mock", "http"):
        raise ConfigError(f"{name}.kind must be 'mock' or 'http', got {b.kind!r}")
    if b.kind == "http":
        try:
            url = urlsplit(b.endpoint)
            ok = url.scheme in ("http", "https") and bool(url.hostname)
        except ValueError:
            ok = False
        if not ok:
            raise ConfigError(
                f"{name}.endpoint must be an absolute http:// or https:// URL "
                f"with a host, got {b.endpoint!r}"
            )
    if not b.timeout > 0:
        raise ConfigError(f"{name}.timeout must be > 0, got {b.timeout}")
    if b.retry.max_attempts < 1:
        raise ConfigError(
            f"{name}.retry.max_attempts must be at least 1, "
            f"got {b.retry.max_attempts}"
        )
    if not b.retry.backoff >= 0:
        raise ConfigError(
            f"{name}.retry.backoff must be >= 0, got {b.retry.backoff}"
        )


# backend values a YAML file may give as another type; the rest pass as given
_BACKEND_CASTS = {"timeout": float, "max_attempts": int, "backoff": float}


def _cast(mapping: dict) -> dict:
    return {k: _BACKEND_CASTS[k](v) if k in _BACKEND_CASTS else v
            for k, v in mapping.items()}


def _backend_from_dict(name: str, obj: dict) -> BackendConfig:
    """A backend built from the keys ``obj`` gives; the dataclass defaults
    fill the rest."""
    retry = obj.get("retry", {})
    if not isinstance(retry, dict):
        raise ConfigError(f"{name}.retry must be a mapping, got {retry!r}")
    unknown = sorted(set(obj) - _BACKEND_KEYS) + sorted(
        f"retry.{k}" for k in set(retry) - _RETRY_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {unknown}")
    try:
        fields = _cast({k: v for k, v in obj.items() if k != "retry"})
        return BackendConfig(**fields, retry=RetryPolicy(**_cast(retry)))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{name}: {e}") from e


_TUPLE_FIELDS = {
    "work_status_weights",
    "kind_ratios",
    "record_count_range",
    "time_window",
    "services",
}


def load_config(path: Optional[str] = None, **overrides) -> PipelineConfig:
    """Load a YAML config file and apply keyword overrides."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        raw = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a mapping: {p}")
        values.update(raw)
    values.update({k: v for k, v in overrides.items() if v is not None})
    for key in _BACKEND_FIELDS:
        if isinstance(values.get(key), dict):
            values[key] = _backend_from_dict(key, values[key])
    for key in _TUPLE_FIELDS:
        if isinstance(values.get(key), list):
            values[key] = tuple(values[key])
    known = set(PipelineConfig.__dataclass_fields__)
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return PipelineConfig(**values)
