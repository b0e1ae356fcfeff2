"""Utility helpers shared across the reproduction.

The :mod:`repro.utils` package bundles small, dependency-free helpers:

* :mod:`repro.utils.rng` -- deterministic random-number-generator management,
* :mod:`repro.utils.logging` -- lightweight structured logging,
* :mod:`repro.utils.config` -- configuration dataclasses and validation,
* :mod:`repro.utils.serialization` -- saving/loading trained models,
* :mod:`repro.utils.validation` -- argument validation helpers.
"""

from repro.utils.rng import default_rng, derive_rng
from repro.utils.logging import get_logger, set_verbosity
from repro.utils.config import ConfigError, validate_choice
from repro.utils.serialization import (
    load_arrays,
    load_json,
    save_arrays,
    save_json,
)
from repro.utils.validation import (
    check_positive,
    check_probability,
    check_non_negative,
)

__all__ = [
    "default_rng",
    "derive_rng",
    "get_logger",
    "set_verbosity",
    "ConfigError",
    "validate_choice",
    "load_arrays",
    "load_json",
    "save_arrays",
    "save_json",
    "check_positive",
    "check_probability",
    "check_non_negative",
]
