"""Pipeline configuration: defaults, YAML loading, and validation."""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Optional

import yaml

from .llm import BackendConfig
from .schema import SchemaSet, load_schema_set
from .typed import BuildError, build

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

    @property
    def schema_manifest_path(self) -> Path:
        if self.schema_manifest:
            return Path(self.schema_manifest)
        return data_path("data", "schemas", "manifest.txt")

    @cached_property
    def schemas(self) -> SchemaSet:
        """The schema set of ``schema_manifest_path``, cut to ``services``
        when they are given; loaded on first use, once per config."""
        schemas = load_schema_set(self.schema_manifest_path)
        return schemas.subset(self.services) if self.services else schemas

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


def load_config(path: Optional[str] = None, **overrides) -> PipelineConfig:
    """Load a YAML config file and apply keyword overrides, a mapping merged
    into the mapping it overrides; both are checked by one rule,
    ``typed.build``'s, at every level."""
    values: dict = {}
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        raw = yaml.safe_load(p.read_text(encoding="utf-8")) or {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config root must be a mapping: {p}")
        values.update(raw)
    for k, v in overrides.items():
        if isinstance(v, dict):
            # merged into the YAML mapping; a YAML value that is no mapping
            # is kept, so that the builder reports it
            old = values.get(k, {})
            v = {**old, **v} if isinstance(old, dict) else old
        if v is not None:
            values[k] = v
    try:
        return build(PipelineConfig, values)
    except BuildError as e:
        if not e.unknown:
            raise ConfigError(str(e)) from e
        if not e.path:
            raise ConfigError(f"unknown config keys: {list(e.unknown)}") from e
        head, *rest = e.path  # each key named by its path inside ``head``
        raise ConfigError(f"unknown keys in {head}: "
                          f"{['.'.join([*rest, k]) for k in e.unknown]}") from e
