"""Configuration helpers.

Experiment and model configuration throughout the library is expressed with
plain dataclasses; this module provides the small amount of shared machinery
those dataclasses need (choice validation, dict views, error type).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping


class ConfigError(ValueError):
    """Raised when a configuration value is invalid or inconsistent."""


def validate_choice(name: str, value: Any, choices: Iterable[Any]) -> Any:
    """Validate that ``value`` is one of ``choices``; return it unchanged.

    Raises
    ------
    ConfigError
        If ``value`` is not in ``choices``.
    """
    choices = list(choices)
    if value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
    return value


def as_dict(obj: Any) -> dict:
    """Convert a dataclass-like config object to a plain dictionary.

    Falls back to ``vars(obj)`` for simple objects so that experiment
    configurations can always be serialised into report headers.
    """
    if hasattr(obj, "__dataclass_fields__"):
        return {name: getattr(obj, name) for name in obj.__dataclass_fields__}
    if isinstance(obj, Mapping):
        return dict(obj)
    return dict(vars(obj))
