"""The paper's instance-based semantics as the default strategy.

Pure delegation: every method forwards to the exact core entry point
the pre-strategy code paths called, with identical defaults, so the
``paper`` mode is bit-identical to calling the core layer directly —
the differential suite in ``tests/semantics`` pins this on the shared
fixtures over both storage backends.  The only
additions are the per-mode span/counter wrappers from
:class:`~repro.semantics.base.BaseSemantics`, which observe results
without touching them.
"""

from __future__ import annotations

from typing import Optional

from ..core.certain import certain_answer
from ..core.inverse_chase import inverse_chase
from ..core.repair import repair_target, repairs
from ..core.semantics import is_recovery as _is_recovery
from ..core.validity import is_valid_for_recovery
from ..data.instances import Instance
from ..logic.queries import Query
from ..logic.tgds import Mapping
from ..resilience import AnytimeResult
from .base import BaseSemantics


class PaperSemantics(BaseSemantics):
    """Definitions 1-4 of the source paper, unchanged."""

    name = "paper"
    description = (
        "the paper's instance-based semantics: justified targets, "
        "Chase^{-1} recovery sets, UCQ certain answers (Definitions 1-4)"
    )
    repair_notion = (
        "none within the semantics — invalid targets have an empty "
        "recovery set; subset-maximal target repair is a separate, "
        "explicit operation (/repair, `repro repair`)"
    )

    def recoveries(self, mapping: Mapping, target: Instance, **options):
        with self.observe("recoveries"):
            return inverse_chase(mapping, target, **options)

    def certain(self, query: Query, mapping: Mapping, target: Instance, **options):
        with self.observe("certain"):
            return certain_answer(query, mapping, target, **options)

    def is_recovery(
        self, mapping: Mapping, source: Instance, target: Instance, **options
    ) -> bool:
        with self.observe("is_recovery"):
            return _is_recovery(mapping, source, target, **options)

    def is_valid(self, mapping: Mapping, target: Instance, **options) -> bool:
        with self.observe("is_valid"):
            return is_valid_for_recovery(mapping, target, **options)

    def repairs_of(
        self, mapping: Mapping, target: Instance, **options
    ) -> list[Instance]:
        """Subset-maximal valid subsets (the paper's closing open problem).

        Not part of the recovery semantics proper — ``recoveries`` of
        an invalid target is simply empty — but exposed so the repair
        workflow is reachable uniformly through the strategy interface.
        A valid target is its own (only) repair.
        """
        with self.observe("repairs"):
            if is_valid_for_recovery(
                mapping,
                target,
                max_covers=options.pop("max_covers", 2000),
                deadline=options.get("deadline"),
            ):
                return [target]
            return list(repairs(mapping, target, **options))

    def repair_and_recover(self, mapping: Mapping, target: Instance, **options):
        """One subset-maximal repair plus its recovery set.

        Mirrors :func:`repro.core.repair.recover_after_alteration`
        (first repair wins), keeping the ``/repair`` endpoint's
        pre-strategy behavior byte-for-byte.
        """
        with self.observe("repair_and_recover"):
            max_recoveries = options.pop("max_recoveries", 1000)
            deadline = options.pop("deadline", None)
            mode = options.pop("mode", "raise")
            repaired: Optional[Instance] = repair_target(
                mapping, target, deadline=deadline, **options
            )
            if repaired is None:
                empty: list[Instance] = []
                outcome = (
                    AnytimeResult(
                        empty,
                        "exact",
                        "enumeration",
                        detail="no repair found within the removal budget",
                    )
                    if mode == "degrade"
                    else empty
                )
                return [], outcome
            outcome = inverse_chase(
                mapping,
                repaired,
                max_recoveries=max_recoveries,
                deadline=deadline,
                mode=mode,
            )
            return [repaired], outcome
