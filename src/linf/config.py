"""Flat `key = value` config files with [section] prefixes.

No structured-markup dependency: blank lines and #-comments are ignored,
`[section]` prefixes subsequent keys as `section.key`, values are parsed by
the declared type of the target field. Unknown keys are rejected by name.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import get_type_hints

from .errors import ConfigError
from .model import ModelConfig
from .training import TrainConfig


@dataclass
class DataConfig:
    corpus: str = "toy"  # "toy" or a directory of images
    corpus_count: int = 32
    corpus_size: int = 96
    out_dir: str = "runs/default"

    def __post_init__(self):
        for name in ("corpus", "out_dir"):
            if not getattr(self, name):
                raise ConfigError(f"data.{name} must not be empty")
        for name in ("corpus_count", "corpus_size"):
            if getattr(self, name) < 1:
                raise ConfigError(f"data.{name} must be >= 1, got {getattr(self, name)}")


_SECTIONS = {"model": ModelConfig, "train": TrainConfig, "data": DataConfig}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        full = f"{section}.{key.strip()}" if section else key.strip()
        values[full] = value.split("#", 1)[0].strip()
    return values


def _convert(raw: str, kind):
    """Parse one raw value as the declared type of its field."""
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if kind in (int, float, str):
        return kind(raw)
    if kind == int | None:
        return int(raw)
    if kind == tuple[int, ...]:  # comma- or space-separated, may be empty
        return tuple(int(tok) for tok in raw.replace(",", " ").split())
    raise TypeError(f"no config parser for field type {kind!r}")


_FIELD_TYPES = {name: get_type_hints(cls) for name, cls in _SECTIONS.items()}


def build_configs(values: dict[str, str]) -> tuple[ModelConfig, TrainConfig, DataConfig]:
    """Materialize the three config dataclasses, rejecting unknown keys."""
    buckets: dict[str, dict] = {name: {} for name in _SECTIONS}
    for full_key, raw in values.items():
        section, _, key = full_key.partition(".")
        kinds = _FIELD_TYPES.get(section, {})
        if key not in kinds:
            raise ConfigError(f"unknown config key {full_key!r}")
        try:
            buckets[section][key] = _convert(raw, kinds[key])
        except ValueError as exc:
            raise ConfigError(f"bad value for {full_key!r}: {exc}") from exc
    try:
        return (
            ModelConfig(**buckets["model"]),
            TrainConfig(**buckets["train"]),
            DataConfig(**buckets["data"]),
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> tuple[ModelConfig, TrainConfig, DataConfig]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return build_configs(parse_config_text(fh.read(), source=path))
