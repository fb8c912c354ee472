"""The semantics registry: named, pluggable recovery semantics.

The registry is the single resolution point for every surface that
names a mode — the CLI ``--semantics`` flag and the service's
per-request ``semantics`` field both funnel through
:func:`get_semantics`, so an unknown name fails identically everywhere
with the registered alternatives listed.

Third-party strategies register with :func:`register_semantics`; the
two built-in modes (``paper``, ``exchange_repairs``) are registered by
:mod:`repro.semantics` at import time.
"""

from __future__ import annotations

import threading
from typing import Optional

from ..errors import ReproError
from .base import SemanticsStrategy


class UnknownSemanticsError(ReproError):
    """A semantics mode name that no registered strategy answers to."""

    def __init__(self, name: object, known: tuple[str, ...]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown semantics mode {name!r}; registered modes: "
            + ", ".join(known)
        )


_LOCK = threading.Lock()
_STRATEGIES: dict[str, SemanticsStrategy] = {}


def register_semantics(
    strategy: SemanticsStrategy, *, replace: bool = False
) -> SemanticsStrategy:
    """Register a strategy under its ``name``; returns it for chaining.

    Re-registering a taken name raises ``ValueError`` unless
    ``replace=True`` — a silent overwrite could reroute every live
    surface (CLI, service) mid-process.
    """
    name = getattr(strategy, "name", "")
    if not isinstance(name, str) or not name:
        raise ValueError("semantics strategy must expose a non-empty name")
    with _LOCK:
        if not replace and name in _STRATEGIES:
            raise ValueError(f"semantics mode {name!r} is already registered")
        _STRATEGIES[name] = strategy
    return strategy


def get_semantics(name: Optional[str] = None) -> SemanticsStrategy:
    """Resolve a mode by name (default: ``"paper"``).

    :raises UnknownSemanticsError: for names no strategy answers to.
    """
    if name is None:
        name = "paper"
    with _LOCK:
        strategy = _STRATEGIES.get(name)  # type: ignore[arg-type]
        known = tuple(sorted(_STRATEGIES))
    if strategy is None:
        raise UnknownSemanticsError(name, known)
    return strategy


def semantics_names() -> tuple[str, ...]:
    """The registered mode names, sorted."""
    with _LOCK:
        return tuple(sorted(_STRATEGIES))


def describe_semantics() -> list[dict]:
    """``describe()`` of every registered mode, in name order."""
    with _LOCK:
        strategies = [_STRATEGIES[name] for name in sorted(_STRATEGIES)]
    return [strategy.describe() for strategy in strategies]
