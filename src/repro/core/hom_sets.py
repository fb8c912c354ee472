"""``HOM(Sigma, J)``: homomorphisms from tgd heads into the target.

Section 4 of the paper.  For an s-t tgd ``xi`` with head ``beta(x, z)``
and a target instance ``J``::

    HOM(xi, J) = { h : h(beta(x, z)) subseteq J }

where ``h`` is defined on the variables of the head.  Because the tgds
of a mapping share no variables, every homomorphism uniquely identifies
the dependency it belongs to (the paper's ``xi_h``); we make that
pairing explicit in :class:`TargetHomomorphism`.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.substitutions import Substitution
from ..data.terms import Term
from ..engine.cache import PartitionedLRUCache
from ..logic.homomorphisms import homomorphisms
from ..logic.tgds import TGD, Mapping
from ..observability.spans import TRACER
from ..resilience import Deadline


class TargetHomomorphism:
    """An element ``h`` of ``HOM(Sigma, J)`` together with its tgd ``xi_h``."""

    __slots__ = ("_tgd", "_substitution", "_covered", "_hash")

    def __init__(self, tgd: TGD, substitution: Substitution):
        covered = frozenset(substitution.apply_atoms(tgd.head))
        object.__setattr__(self, "_tgd", tgd)
        object.__setattr__(self, "_substitution", substitution)
        object.__setattr__(self, "_covered", covered)
        object.__setattr__(self, "_hash", hash((tgd, substitution)))

    @property
    def tgd(self) -> TGD:
        """The dependency ``xi_h`` this homomorphism belongs to."""
        return self._tgd

    @property
    def substitution(self) -> Substitution:
        """The variable assignment (defined on the head variables)."""
        return self._substitution

    @property
    def covered(self) -> frozenset[Atom]:
        """``J_h = h(head(xi_h))``: the target facts this homomorphism covers."""
        return self._covered

    def image(self, term: Term) -> Term:
        return self._substitution.image(term)

    @property
    def reverse_trigger(self) -> tuple[TGD, Substitution]:
        """The trigger ``(xi_h^{-1}, h)`` used by ``Chase_H(Sigma^{-1}, J)``."""
        return (self._tgd.reverse(), self._substitution)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetHomomorphism):
            return NotImplemented
        return self._tgd == other._tgd and self._substitution == other._substitution

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "TargetHomomorphism") -> bool:
        if not isinstance(other, TargetHomomorphism):
            return NotImplemented
        return (self._tgd.name or "", repr(self._substitution)) < (
            other._tgd.name or "",
            repr(other._substitution),
        )

    def __reduce__(self):
        return (TargetHomomorphism, (self._tgd, self._substitution))

    def __repr__(self) -> str:
        return f"<{self._tgd.name or 'tgd'} {self._substitution}>"

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("TargetHomomorphism is immutable")


def tgd_homomorphisms(
    tgd: TGD, target: Instance, deadline: Optional[Deadline] = None
) -> Iterator[TargetHomomorphism]:
    """``HOM(xi, J)``: all head-into-target homomorphisms of one tgd.

    ``deadline`` bounds the underlying backtracking search
    cooperatively; expiry raises
    :class:`~repro.errors.DeadlineExceededError`.
    """
    head_vars = sorted(tgd.head_variables)
    seen: set[tuple[Term, ...]] = set()
    # Projecting onto the head variables lets the join kernel
    # deduplicate assignments per plan component instead of
    # materializing one binding per redundant combination.
    for hom in homomorphisms(
        tgd.head, target, deadline=deadline, project=tgd.head_variables
    ):
        restricted = hom.restrict(tgd.head_variables)
        key = tuple(restricted.image(v) for v in head_vars)
        if key in seen:
            continue
        seen.add(key)
        yield TargetHomomorphism(tgd, restricted)


#: LRU capacity of the hom-set memo (per cache partition).
HOM_SET_CACHE_SIZE = 256

#: Memo for ``HOM(Sigma, J)``, keyed by the (hashable, immutable)
#: mapping/target pair.  The inverse chase, the certainty pipeline and
#: the baselines all recompute the same hom-set for a scenario; caching
#: it removes that redundancy.  Partitioned so multi-tenant callers
#: (the service layer) keep per-tenant warm state that no other tenant
#: can evict.
_HOM_SET_CACHE = PartitionedLRUCache("hom_set", maxsize=HOM_SET_CACHE_SIZE)


def hom_set(
    mapping: Mapping, target: Instance, deadline: Optional[Deadline] = None
) -> list[TargetHomomorphism]:
    """``HOM(Sigma, J)``: the union over all tgds, deterministically ordered.

    ``deadline`` bounds the computation; an interrupted computation is
    never cached, and a cached hit returns instantly regardless of the
    deadline (the result does not depend on it).
    """

    def compute() -> tuple[TargetHomomorphism, ...]:
        with TRACER.span("core.hom_set.compute", aggregate=True):
            homs: list[TargetHomomorphism] = []
            for tgd in mapping:
                homs.extend(tgd_homomorphisms(tgd, target, deadline))
            # Same order as TargetHomomorphism.__lt__, but the repr is
            # built once per homomorphism instead of once per pairwise
            # comparison — at 10⁵ homomorphisms the difference is the
            # whole sort.
            homs.sort(key=lambda h: (h.tgd.name or "", repr(h.substitution)))
            return tuple(homs)

    return list(_HOM_SET_CACHE.get_or_compute((mapping, target), compute))


def seed_hom_set(
    mapping: Mapping, target: Instance, homs: Sequence[TargetHomomorphism]
) -> None:
    """Warm the hom-set cache with a precomputed ``HOM(Sigma, J)``.

    The checkpoint resume path calls this with the hom-set recorded in a
    validated snapshot (the snapshot's mapping/target fingerprints were
    checked first, so the seed is known to belong to this pair), letting
    a restarted process skip the full recomputation; a
    :class:`~repro.incremental.RecoveryState` epoch that falls back to
    the cold enumeration seeds its maintained set the same way.  A no-op
    when ``homs`` is empty or the entry is already present.
    """
    if not homs:
        return
    _HOM_SET_CACHE.get_or_compute((mapping, target), lambda: tuple(homs))


def covered_by(homs: Sequence[TargetHomomorphism]) -> frozenset[Atom]:
    """``J_H``: the union of the facts covered by a set of homomorphisms."""
    facts: set[Atom] = set()
    for hom in homs:
        facts |= hom.covered
    return frozenset(facts)
