"""Configuration helpers.

Experiment and model configuration throughout the library is expressed with
plain dataclasses; this module provides the small amount of shared machinery
those dataclasses need (choice validation, error type).
"""

from __future__ import annotations

from typing import Any, Iterable


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
