"""Pluggable recovery semantics (ROADMAP open item 5).

The package decouples *which* semantics the stack answers under from
*how* the answer is computed: :class:`~repro.semantics.base.SemanticsStrategy`
names the four policy axes (solution space, justification test,
certainty evaluation, repair notion), the registry resolves modes by
name, and every surface — the CLI ``--semantics`` flag, the
service's per-request ``semantics`` field — routes through
:func:`get_semantics`.

Two modes ship built in:

* ``paper`` (default) — the source paper's instance-based semantics,
  delegating bit-identically to :mod:`repro.core`;
* ``exchange_repairs`` — the Exchange-Repairs adaptation
  (arXiv 1509.06390): invalid targets are replaced by their
  subset-maximal valid subsets, solutions are recoveries of some
  repair, XR-certain answers hold under every repair.
"""

from __future__ import annotations

from .base import BaseSemantics, SemanticsStrategy
from .exchange_repairs import ExchangeRepairsSemantics
from .paper import PaperSemantics
from .registry import (
    UnknownSemanticsError,
    describe_semantics,
    get_semantics,
    register_semantics,
    semantics_names,
)

#: The built-in strategies, registered at import time.
PAPER = register_semantics(PaperSemantics())
EXCHANGE_REPAIRS = register_semantics(ExchangeRepairsSemantics())

__all__ = [
    "BaseSemantics",
    "SemanticsStrategy",
    "PaperSemantics",
    "ExchangeRepairsSemantics",
    "UnknownSemanticsError",
    "describe_semantics",
    "get_semantics",
    "register_semantics",
    "semantics_names",
    "PAPER",
    "EXCHANGE_REPAIRS",
]
