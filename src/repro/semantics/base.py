"""The semantics-strategy contract: what a recovery semantics must answer.

A *semantics* fixes four things the rest of the stack treats as
interchangeable policy (ROADMAP open item 5):

* the **solution space** — which source instances count as recoveries
  of a target instance (:meth:`SemanticsStrategy.recoveries`);
* the **justification test** — when a single source instance is a
  member of that space (:meth:`SemanticsStrategy.is_recovery`);
* the **certainty evaluation** — what it means for a query answer to
  be certain over the space (:meth:`SemanticsStrategy.certain`);
* the **repair notion** — what happens to targets outside the
  semantics' domain of validity (:meth:`SemanticsStrategy.repairs_of`
  and :meth:`SemanticsStrategy.repair_and_recover`).

Every method takes the same resource-governance keywords the core
entry points take (``deadline``, ``mode``, enumeration budgets), so a
strategy composes with the resilience ladder instead of sidestepping
it: ``mode="degrade"`` must return an
:class:`~repro.resilience.AnytimeResult` with honest ``status``/
``rung`` provenance, exactly like the paper pipeline does.

Strategies are looked up by name through :mod:`repro.semantics.registry`
and observed uniformly: :meth:`BaseSemantics.observe` wraps each
operation in a ``semantics.<name>.<op>`` span and bumps a
``semantics[<name>].<op>`` counter, so ``/metrics`` and ``--trace``
attribute work to the mode that caused it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Protocol, runtime_checkable

from ..observability.metrics import METRICS
from ..observability.spans import TRACER

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from ..data.instances import Instance
    from ..logic.queries import Query
    from ..logic.tgds import Mapping


@runtime_checkable
class SemanticsStrategy(Protocol):
    """The pluggable recovery/certainty semantics interface.

    Implementations are stateless policy objects; one shared instance
    serves every caller (they must therefore be thread-safe, which
    stateless delegation to the core entry points gives for free).
    """

    #: Registry key and wire value (``--semantics`` / request field).
    name: str
    #: One-line human description shown in ``describe()`` output.
    description: str

    def recoveries(self, mapping: "Mapping", target: "Instance", **options):
        """The solution space: recoveries of ``target`` under this mode.

        Returns a ``list[Instance]`` (or, with ``mode="degrade"``, an
        :class:`~repro.resilience.AnytimeResult` wrapping one).  An
        empty list means the target admits no solution under this
        semantics within the given budgets.
        """
        ...

    def certain(self, query: "Query", mapping: "Mapping", target: "Instance", **options):
        """Certain answers of ``query`` over the solution space.

        Raises :class:`~repro.errors.NotRecoverableError` when the
        space is empty (certainty undefined); with ``mode="degrade"``
        returns an :class:`~repro.resilience.AnytimeResult`.
        """
        ...

    def is_recovery(
        self, mapping: "Mapping", source: "Instance", target: "Instance", **options
    ) -> bool:
        """Membership test: does ``source`` belong to the solution space?"""
        ...

    def is_valid(self, mapping: "Mapping", target: "Instance", **options) -> bool:
        """Whether the target admits a non-empty solution space."""
        ...

    def repairs_of(
        self, mapping: "Mapping", target: "Instance", **options
    ) -> list["Instance"]:
        """The repair notion: target instances this mode recovers from.

        For a target already inside the semantics' validity domain this
        is ``[target]`` itself; otherwise the mode's notion of repaired
        variants (possibly empty when repairing is out of budget).
        """
        ...

    def repair_and_recover(self, mapping: "Mapping", target: "Instance", **options):
        """``(repairs, recoveries)`` — the ``/repair`` endpoint's contract."""
        ...

    def describe(self) -> dict:
        """A JSON-friendly summary (name, description, repair notion)."""
        ...


class BaseSemantics:
    """Shared observability plumbing for concrete strategies."""

    name: str = ""
    description: str = ""
    #: Human phrase for the mode's repair notion (``describe()``).
    repair_notion: str = ""

    @contextmanager
    def observe(self, op: str) -> Iterator[None]:
        """Attribute one strategy operation to this mode.

        Bumps ``semantics[<name>].<op>`` and opens a
        ``semantics.<name>.<op>`` span, so per-mode work shows up in
        ``/metrics`` documents and ``--trace`` trees without the
        strategies threading counters by hand.
        """
        METRICS.inc(f"semantics[{self.name}].{op}")
        with TRACER.span(f"semantics.{self.name}.{op}"):
            yield

    def describe(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "repair_notion": self.repair_notion,
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
