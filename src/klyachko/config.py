"""Size caps and environment knobs.

Defaults guarantee desk-scale runs; both caps can be raised explicitly
by callers or through the environment variables honoured by the CLI.
"""

from __future__ import annotations

import os

from .errors import UsageError

DEFAULT_MAX_Q = 16
DEFAULT_MAX_ELEMENTS = 10**7

ENV_CACHE_DIR = "KLYACHKO_CACHE_DIR"
ENV_MAX_ELEMENTS = "KLYACHKO_MAX_ELEMENTS"


def max_elements_from_env(default: int = DEFAULT_MAX_ELEMENTS) -> int:
    raw = os.environ.get(ENV_MAX_ELEMENTS)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{ENV_MAX_ELEMENTS} must be an integer, got {raw!r}") from None


def cache_dir_from_env() -> str | None:
    return os.environ.get(ENV_CACHE_DIR)
