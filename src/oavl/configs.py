"""Checks shared by the JSON readers: records, configs, checkpoints and the CLI."""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Type


def is_json_type(value, *kinds: type) -> bool:
    """Whether ``value``'s type is exactly one of ``kinds``, the one type rule
    of every JSON reader: a bool is no number, and an int also passes as a float.
    """
    kind = type(value)
    return kind in kinds or (kind is int and float in kinds)


def check_field_types(config, error: Type[ValueError]) -> None:
    """Raise ``error`` naming the first field whose value is not of its default's
    type, under :func:`is_json_type`."""
    for f in fields(config):
        value, kind = getattr(config, f.name), type(f.default)
        if not is_json_type(value, kind):
            raise error(f"{f.name} must be {kind.__name__}, got {value!r}")


def _config_key_error(key: str, problem: str) -> ValueError:
    return ValueError(f"{problem} config key {key!r}")


def check_json_keys(
    cls, obj: dict, error: Callable[[str, str], Exception] = _config_key_error
) -> None:
    """Raise ``error(key, problem)`` unless the JSON object holds exactly
    ``cls``'s fields: the first unknown key in sorted order ("unknown"), else
    the first missing field in field order ("missing").

    A missing field is refused, not filled with its default: a checkpoint
    holds every field, and a default differing from the saved run's value
    would load a different model or training run.
    """
    names = [f.name for f in fields(cls)]
    extra = set(obj) - set(names)
    if extra:
        raise error(sorted(extra)[0], "unknown")
    missing = [name for name in names if name not in obj]
    if missing:
        raise error(missing[0], "missing")
