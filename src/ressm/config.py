"""Flat typed key-value configuration.

Files are `section.key = value` lines with `#` comments; the command
line can override any key with repeated `--set section.key=value`.
Every command declares a schema of known keys with types and defaults;
anything outside the schema, and any value that does not parse or is a
non-finite float, is an error that names the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["ConfigError", "Field", "parse_config_text", "load_config",
           "apply_overrides", "resolve"]


class ConfigError(ValueError):
    """Bad key, bad value, or unusable file."""


@dataclass(frozen=True)
class Field:
    parse: Callable[[str], Any]
    default: Any


def parse_float_list(s: str) -> list[float]:
    return [float(p.strip()) for p in s.split(",") if p.strip()]


def parse_branches(s: str) -> list[float | None]:
    """Branch compression list: 'base' marks the uncompressed branch,
    numbers are compression rates, e.g. 'base,0.5,0.2'."""
    out: list[float | None] = []
    for p in s.split(","):
        p = p.strip()
        if not p:
            continue
        out.append(None if p == "base" else float(p))
    if not out:
        raise ValueError("empty branch list")
    return out


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{ln}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{ln}: empty key")
        raw[key] = value.strip()
    return raw


def load_config(path) -> dict[str, str]:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config_text(text, source=str(path))


def apply_overrides(raw: dict[str, str], overrides: list[str]) -> dict[str, str]:
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def resolve(raw: dict[str, str], schema: dict[str, Field]) -> dict[str, Any]:
    """Type and default every schema key; reject anything else, and any
    non-finite float (alone or in a list), by name."""
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown config key '{key}'")
    out: dict[str, Any] = {}
    for key, fld in schema.items():
        if key in raw:
            try:
                out[key] = fld.parse(raw[key])
            except (ValueError, TypeError) as e:
                raise ConfigError(f"bad value for config key '{key}': {e}") from e
            items = out[key] if isinstance(out[key], list) else [out[key]]
            if any(isinstance(v, float) and not math.isfinite(v) for v in items):
                raise ConfigError(f"bad value for config key '{key}': "
                                  f"{raw[key]!r} is not finite")
        else:
            out[key] = fld.default
    return out
