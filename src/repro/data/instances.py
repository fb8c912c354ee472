"""Instances: immutable, indexed sets of facts.

An :class:`Instance` stores a finite set of facts (atoms over constants
and labeled nulls).  It maintains two indexes used heavily by the
homomorphism engine:

* a per-relation index (``facts_for``), and
* a per-``(relation, position, term)`` index (``facts_matching``),
  which answers "all ``R``-facts whose ``i``-th argument is ``t``"
  in O(1) + output time.

Instances are immutable; the algebraic operations (union, difference,
substitution application) return new instances.  This keeps the many
intermediate instances of the inverse chase safe to share and to use
as dictionary keys.

Two optimisations keep chase-heavy loops from going quadratic in
index work:

* **lazy indexing** — the indexes are built on first lookup, not at
  construction.  Most intermediate instances (recovery images,
  justification candidates) are only hashed and compared, so their
  indexes are never built at all;
* **incremental maintenance** — ``union`` / ``with_facts`` /
  ``without_facts`` on an instance whose indexes exist reuse them
  through :class:`InstanceBuilder`, re-freezing only the touched
  ``(relation, position, term)`` entries and sharing the rest.

Instances of at least :data:`COLUMNAR_MIN_FACTS` facts also offer an
interned columnar sidecar (:meth:`Instance.columnar_store`) that the
vectorized join executor runs on; smaller ones stay on the object
path.  Both backends compute identical results, so size is the only
selector.
"""

from __future__ import annotations

from itertools import count
from typing import Callable, Iterable, Iterator, Mapping, Optional

from ..observability.metrics import METRICS
from ..errors import SchemaError
from .atoms import Atom
from .columnar import _BUILD_LOCK, ColumnarStore
from .schema import Schema
from .terms import Constant, Null, Term, Variable


#: Process-wide epoch source.  Every instance construction draws a
#: fresh epoch, so ``(anything, epoch)`` cache keys can never alias a
#: different fact set — including after unpickling, where the rebuilt
#: instance gets that process's next epoch (caches are per-process).  This replaces identity-based (``id()``) invalidation,
#: which is unsound across object reuse.
_EPOCHS = count(1)

#: Instances with fewer facts never build a columnar store: at micro
#: scale interning and column builds cost more than the per-object
#: overhead they remove, so the object path serves them.
COLUMNAR_MIN_FACTS = 1024


def _fact_order(fact: Atom) -> tuple:
    """The sort key of ``Atom.__lt__``'s order, flattened.

    ``(relation, rank₀, str(key₀), rank₁, …)`` — each argument by its
    :attr:`~repro.data.terms.Term.sort_key` — so sorting a fact set
    compares plain tuples instead of calling ``Atom.__lt__`` and
    ``Term.__lt__`` (which re-stringifies keys) per comparison.
    """
    key = [fact.relation]
    for term in fact.args:
        key += term.sort_key
    return tuple(key)


class InstanceDelta:
    """Epoch lineage of an evolved instance: parent plus fact delta.

    ``Instance.evolve`` stamps its child with one of these, so
    incremental maintenance (:mod:`repro.incremental`) reads the facts
    that separate the child from its parent epoch instead of diffing
    the two instances.
    """

    __slots__ = ("parent_epoch", "added", "removed")

    def __init__(
        self,
        parent_epoch: int,
        added: frozenset[Atom],
        removed: frozenset[Atom],
    ):
        self.parent_epoch = parent_epoch
        self.added = added
        self.removed = removed

    def __repr__(self) -> str:
        return (
            f"InstanceDelta(parent_epoch={self.parent_epoch}, "
            f"+{len(self.added)}, -{len(self.removed)})"
        )


class Instance:
    """An immutable set of facts with lookup indexes."""

    __slots__ = (
        "_facts",
        "_by_relation",
        "_position_index",
        "_hash",
        "_epoch",
        "_store",
        "_lineage",
        "__weakref__",
    )

    def __init__(self, facts: Iterable[Atom] = (), schema: Optional[Schema] = None):
        fact_set = frozenset(facts)
        for fact in fact_set:
            if not fact.is_fact:
                raise SchemaError(
                    f"instances may not contain variables, got {fact}"
                )
            if schema is not None:
                schema.validate_atom(fact)
        object.__setattr__(self, "_facts", fact_set)
        object.__setattr__(self, "_by_relation", None)
        object.__setattr__(self, "_position_index", None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_epoch", next(_EPOCHS))
        object.__setattr__(self, "_store", None)
        object.__setattr__(self, "_lineage", None)
        METRICS.inc("instances_built")

    # -- constructors --------------------------------------------------------

    @classmethod
    def empty(cls) -> "Instance":
        return _EMPTY

    @classmethod
    def of(cls, *facts: Atom) -> "Instance":
        """Variadic constructor: ``Instance.of(atom(...), atom(...))``."""
        return cls(facts)

    @classmethod
    def _from_validated(cls, fact_set: frozenset[Atom]) -> "Instance":
        """Internal: wrap facts known to be valid, skipping re-validation."""
        if not fact_set:
            return _EMPTY
        inst = object.__new__(cls)
        object.__setattr__(inst, "_facts", fact_set)
        object.__setattr__(inst, "_by_relation", None)
        object.__setattr__(inst, "_position_index", None)
        object.__setattr__(inst, "_hash", None)
        object.__setattr__(inst, "_epoch", next(_EPOCHS))
        object.__setattr__(inst, "_store", None)
        object.__setattr__(inst, "_lineage", None)
        METRICS.inc("instances_built")
        return inst

    @classmethod
    def _from_parts(
        cls,
        fact_set: frozenset[Atom],
        by_relation: dict[str, frozenset[Atom]],
        position_index: Optional[dict[tuple[str, int, Term], frozenset[Atom]]],
    ) -> "Instance":
        """Internal: adopt prebuilt indexes (the :class:`InstanceBuilder` path).

        ``position_index`` may be ``None`` when the base never built its
        positional tier; the result builds it lazily on first probe.
        """
        inst = object.__new__(cls)
        object.__setattr__(inst, "_facts", fact_set)
        object.__setattr__(inst, "_by_relation", by_relation)
        object.__setattr__(inst, "_position_index", position_index)
        object.__setattr__(inst, "_hash", None)
        object.__setattr__(inst, "_epoch", next(_EPOCHS))
        object.__setattr__(inst, "_store", None)
        object.__setattr__(inst, "_lineage", None)
        METRICS.inc("instances_built")
        return inst

    # -- indexing ------------------------------------------------------------

    def _ensure_relation_index(self) -> None:
        """Build the cheap by-relation tier only (idempotent).

        Lookups by relation name alone (``facts_for``, and through it
        single-atom homomorphism searches) are far more common than
        positional lookups; grouping facts by relation costs one pass,
        while the positional tier costs one entry per argument.  The
        tiers build independently so throwaway instances — e.g. the
        recoveries a certain-answer intersection sweeps over — never
        pay for positions they will not probe.
        """
        if self._by_relation is not None:
            return
        grouped: dict[str, set[Atom]] = {}
        for fact in self._facts:
            grouped.setdefault(fact.relation, set()).add(fact)
        object.__setattr__(
            self,
            "_by_relation",
            {name: frozenset(facts) for name, facts in grouped.items()},
        )

    def _ensure_indexes(self) -> None:
        """Build both index tiers (idempotent; lazy by default)."""
        self._ensure_relation_index()
        if self._position_index is not None:
            return
        position_index: dict[tuple[str, int, Term], set[Atom]] = {}
        for fact in self._facts:
            for i, term in enumerate(fact.args):
                position_index.setdefault((fact.relation, i, term), set()).add(fact)
        METRICS.inc("facts_indexed", len(self._facts))
        object.__setattr__(
            self,
            "_position_index",
            {k: frozenset(v) for k, v in position_index.items()},
        )

    @property
    def _indexes_built(self) -> bool:
        return self._by_relation is not None

    def columnar_store(self) -> Optional[ColumnarStore]:
        """The columnar sidecar of this instance, or ``None`` when inactive.

        Built on first demand once the instance holds at least
        :data:`COLUMNAR_MIN_FACTS` facts; the vectorized join executor
        (:mod:`repro.planner.vectorized`) takes over whenever a target
        offers a store.  Both backends compute identical results, so
        size alone picks one.  The ``frozenset`` of atoms stays the
        source of truth — equality, hashing and pickling never consult
        the store.
        """
        if len(self._facts) < COLUMNAR_MIN_FACTS:
            return None
        store = self._store
        if store is None:
            with _BUILD_LOCK:
                store = self._store
                if store is None:
                    store = ColumnarStore.build(self._facts)
                    object.__setattr__(self, "_store", store)
        return store

    @property
    def lineage(self) -> Optional[InstanceDelta]:
        """The delta this instance was evolved from, or ``None``.

        Only :meth:`evolve` records lineage; every other construction
        path (including unpickling) yields a root instance.
        """
        return self._lineage

    def evolve(
        self, *, add: Iterable[Atom] = (), remove: Iterable[Atom] = ()
    ) -> "Instance":
        """A child instance with ``add`` inserted and ``remove`` retracted.

        The child records epoch lineage (:class:`InstanceDelta`), shares
        the receiver's incrementally-patched indexes, and — when the
        receiver already built a columnar store — adopts a delta-evolved
        store (bit-identical to a cold build) instead of re-sorting
        every row.  A fact listed in both ``add`` and ``remove`` ends up
        present (adds win); an empty effective delta returns ``self``.
        """
        added = frozenset(add) - self._facts
        removed = (frozenset(remove) & self._facts) - frozenset(add)
        if not added and not removed:
            return self
        for fact in added:
            if not fact.is_fact:
                raise SchemaError(
                    f"instances may not contain variables, got {fact}"
                )
        # Build (and thereby share) the indexes up front: churn workloads
        # probe the child immediately, and the builder can only patch
        # index tiers that exist.
        self._ensure_indexes()
        builder = InstanceBuilder(self)
        builder.discard_all(removed)
        builder.add_validated(added)
        child = builder.build()
        object.__setattr__(
            child, "_lineage", InstanceDelta(self._epoch, added, removed)
        )
        parent_store = self._store
        if parent_store is not None:
            object.__setattr__(
                child, "_store", parent_store.evolved(added, removed)
            )
        METRICS.inc("incremental_evolves")
        METRICS.inc("incremental_facts_added", len(added))
        METRICS.inc("incremental_facts_removed", len(removed))
        return child

    @property
    def epoch(self) -> int:
        """A process-unique construction stamp for cache keys.

        Distinct instance objects never share an epoch (even when they
        hold equal fact sets), so keying a cache on
        ``(..., instance.epoch)`` is always sound: an entry can only be
        served for the very object it was computed against, and
        immutability guarantees that object never changes.
        """
        return self._epoch

    # -- basic queries ---------------------------------------------------------

    @property
    def facts(self) -> frozenset[Atom]:
        return self._facts

    @property
    def relation_names(self) -> frozenset[str]:
        self._ensure_relation_index()
        return frozenset(self._by_relation)

    def facts_for(self, relation: str) -> frozenset[Atom]:
        """All facts of one relation (empty set when absent)."""
        self._ensure_relation_index()
        return self._by_relation.get(relation, _EMPTY_FACTS)

    def facts_matching(self, relation: str, position: int, term: Term) -> frozenset[Atom]:
        """All ``relation``-facts whose ``position``-th argument equals ``term``."""
        self._ensure_indexes()
        return self._position_index.get((relation, position, term), _EMPTY_FACTS)

    def candidates(
        self,
        pattern: Atom,
        binding: Mapping[Term, Term],
        mappable: Optional[Callable[[Term], bool]] = None,
    ) -> frozenset[Atom]:
        """Facts that could match ``pattern`` under the partial ``binding``.

        Uses the most selective bound position of the pattern: rigid
        terms, or mappable terms already bound, narrow the candidate
        set through the position index.  An unconstrained pattern falls
        back to the full relation.  ``mappable`` decides which pattern
        terms the caller's homomorphism may remap (default: variables).
        """
        if mappable is None:
            mappable = lambda term: isinstance(term, Variable)  # noqa: E731
        best: Optional[frozenset[Atom]] = None
        for i, term in enumerate(pattern.args):
            lookup: Optional[Term]
            if mappable(term):
                lookup = binding.get(term)
            else:
                lookup = term
            if lookup is None:
                continue
            found = self.facts_matching(pattern.relation, i, lookup)
            if best is None or len(found) < len(best):
                best = found
                if not best:
                    return best
        if best is None:
            return self.facts_for(pattern.relation)
        return best

    # -- domain --------------------------------------------------------------------

    def domain(self) -> set[Term]:
        """``dom(I)``: all constants and nulls occurring in the instance."""
        result: set[Term] = set()
        for fact in self._facts:
            result.update(fact.args)
        return result

    def nulls(self) -> set[Null]:
        """All labeled nulls occurring in the instance."""
        return {t for t in self.domain() if isinstance(t, Null)}

    def constants(self) -> set[Constant]:
        """All constants occurring in the instance."""
        return {t for t in self.domain() if isinstance(t, Constant)}

    @property
    def is_ground(self) -> bool:
        """True when ``dom(I)`` contains only constants."""
        return all(fact.is_ground for fact in self._facts)

    @property
    def is_empty(self) -> bool:
        return not self._facts

    # -- algebra ------------------------------------------------------------------------

    def union(self, other: "Instance") -> "Instance":
        if not other._facts:
            return self
        if not self._facts:
            return other
        # Grow from the side whose indexes already exist (prefer the
        # larger one when both do); the other side's facts are the delta
        # the builder re-indexes.
        base, extra = self, other
        if (other._indexes_built, len(other)) > (self._indexes_built, len(self)):
            base, extra = other, self
        if base._indexes_built:
            builder = InstanceBuilder(base)
            builder.add_validated(extra._facts)
            return builder.build()
        return Instance._from_validated(self._facts | other._facts)

    def difference(self, other: "Instance") -> "Instance":
        return self.without_facts(other._facts)

    def intersection(self, other: "Instance") -> "Instance":
        return Instance._from_validated(self._facts & other._facts)

    def with_facts(self, extra: Iterable[Atom]) -> "Instance":
        extra = frozenset(extra) - self._facts
        if not extra:
            return self
        for fact in extra:
            if not fact.is_fact:
                raise SchemaError(
                    f"instances may not contain variables, got {fact}"
                )
        if self._indexes_built:
            builder = InstanceBuilder(self)
            builder.add_validated(extra)
            return builder.build()
        return Instance._from_validated(self._facts | extra)

    def without_facts(self, removed: Iterable[Atom]) -> "Instance":
        removed = frozenset(removed) & self._facts
        if not removed:
            return self
        if self._indexes_built:
            builder = InstanceBuilder(self)
            for fact in removed:
                builder.discard(fact)
            return builder.build()
        return Instance._from_validated(self._facts - removed)

    def restrict_to_schema(self, schema: Schema) -> "Instance":
        """Keep only the facts whose relation belongs to ``schema``."""
        return Instance._from_validated(
            frozenset(f for f in self._facts if f.relation in schema)
        )

    def apply(self, mapping: Mapping[Term, Term]) -> "Instance":
        """Apply a term mapping to every fact (e.g. a homomorphism image)."""
        if not mapping:
            # An empty mapping is the identity; returning self keeps the
            # epoch stable, so compiled plans and columnar stores keyed
            # on it survive (the inverse chase applies the finishing
            # homomorphism this way whenever it is the identity off
            # dom(J)).
            return self
        if not any(isinstance(v, Variable) for v in mapping.values()):
            # A variable-free range keeps every image a storable fact,
            # so the per-fact validation of the constructor is skipped.
            return Instance._from_validated(
                frozenset(fact.apply(mapping) for fact in self._facts)
            )
        return Instance(fact.apply(mapping) for fact in self._facts)

    def map_terms(self, fn: Callable[[Term], Term]) -> "Instance":
        return Instance(fact.map_terms(fn) for fact in self._facts)

    def issubset(self, other: "Instance") -> bool:
        return self._facts <= other._facts

    def builder(self) -> "InstanceBuilder":
        """An :class:`InstanceBuilder` seeded with this instance's facts."""
        return InstanceBuilder(self)

    # -- dunder --------------------------------------------------------------------------

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    def __sub__(self, other: "Instance") -> "Instance":
        return self.difference(other)

    def __and__(self, other: "Instance") -> "Instance":
        return self.intersection(other)

    def __le__(self, other: "Instance") -> bool:
        return self.issubset(other)

    def __lt__(self, other: "Instance") -> bool:
        return self._facts < other._facts

    def __contains__(self, fact: Atom) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self._facts, key=_fact_order))

    def __len__(self) -> int:
        return len(self._facts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return self._facts == other._facts

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._facts)
            object.__setattr__(self, "_hash", cached)
        return cached

    def __repr__(self) -> str:
        inner = ", ".join(str(f) for f in self)
        return "{" + inner + "}"

    def __reduce__(self):
        # Indexes are rebuilt lazily on the other side of the pickle
        # boundary (checkpoint snapshots pickle instances).
        return (_restore_instance, (tuple(self._facts),))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Instance is immutable")


def _restore_instance(facts: tuple[Atom, ...]) -> Instance:
    return Instance._from_validated(frozenset(facts))


_EMPTY = Instance()
_EMPTY_FACTS: frozenset[Atom] = frozenset()


class InstanceBuilder:
    """A mutable fact accumulator with incremental index maintenance.

    Chase loops repeatedly extend or shrink an instance by a small
    delta; rebuilding the full per-position index each time makes them
    quadratic.  A builder tracks the delta against an optional base
    instance and, when the base's indexes exist, :meth:`build` merges
    the delta into *copies* of them — re-freezing only the touched
    ``(relation, position, term)`` entries and sharing every untouched
    frozen set with the base (index sharing for unchanged relations).

    Builders validate facts on entry (no variables), so :meth:`build`
    can skip the validation pass entirely.
    """

    __slots__ = ("_base", "_added", "_removed")

    def __init__(self, base: Optional[Instance] = None):
        self._base = base if base is not None and base._facts else None
        self._added: set[Atom] = set()
        self._removed: set[Atom] = set()

    @classmethod
    def from_instance(cls, base: Instance) -> "InstanceBuilder":
        return cls(base)

    # -- mutation ------------------------------------------------------------

    def add(self, fact: Atom) -> "InstanceBuilder":
        """Add one fact (validating it); returns ``self`` for chaining."""
        if not fact.is_fact:
            raise SchemaError(f"instances may not contain variables, got {fact}")
        self._removed.discard(fact)
        if self._base is None or fact not in self._base._facts:
            self._added.add(fact)
        return self

    def add_all(self, facts: Iterable[Atom]) -> "InstanceBuilder":
        for fact in facts:
            self.add(fact)
        return self

    def add_validated(self, facts: Iterable[Atom]) -> "InstanceBuilder":
        """Add facts known to be valid (e.g. drawn from another instance)."""
        base_facts = self._base._facts if self._base is not None else _EMPTY_FACTS
        for fact in facts:
            self._removed.discard(fact)
            if fact not in base_facts:
                self._added.add(fact)
        return self

    def update(self, instance: Instance) -> "InstanceBuilder":
        """Merge every fact of ``instance`` into the builder."""
        return self.add_validated(instance._facts)

    def discard(self, fact: Atom) -> "InstanceBuilder":
        """Remove a fact if present (no error otherwise)."""
        self._added.discard(fact)
        if self._base is not None and fact in self._base._facts:
            self._removed.add(fact)
        return self

    def discard_all(self, facts: Iterable[Atom]) -> "InstanceBuilder":
        for fact in facts:
            self.discard(fact)
        return self

    # -- inspection ----------------------------------------------------------

    def facts(self) -> frozenset[Atom]:
        """The current fact set the builder would freeze."""
        base_facts = self._base._facts if self._base is not None else _EMPTY_FACTS
        if not self._added and not self._removed:
            return base_facts
        return (base_facts - self._removed) | self._added

    def __contains__(self, fact: Atom) -> bool:
        if fact in self._added:
            return True
        if self._base is None or fact in self._removed:
            return False
        return fact in self._base._facts

    def __len__(self) -> int:
        base = len(self._base._facts) if self._base is not None else 0
        return base - len(self._removed) + len(self._added)

    def __iter__(self) -> Iterator[Atom]:
        return iter(sorted(self.facts(), key=_fact_order))

    # -- freezing ------------------------------------------------------------

    def build(self) -> Instance:
        """Freeze the builder into an :class:`Instance`.

        When the base instance's indexes exist, the result adopts merged
        copies of them instead of re-indexing from scratch.
        """
        base = self._base
        if base is not None and not self._added and not self._removed:
            return base
        fact_set = self.facts()
        if base is None or not base._indexes_built:
            return Instance._from_validated(fact_set)

        by_relation = dict(base._by_relation)
        # The positional tier is only carried forward when the base built
        # it; otherwise the result inherits its laziness.
        has_positions = base._position_index is not None
        position_index = dict(base._position_index) if has_positions else None
        # Group the delta so every touched index entry is re-frozen once.
        relation_delta: dict[str, tuple[set[Atom], set[Atom]]] = {}
        key_delta: dict[tuple[str, int, Term], tuple[set[Atom], set[Atom]]] = {}
        for fact, adding in [(f, True) for f in self._added] + [
            (f, False) for f in self._removed
        ]:
            rel_add, rel_del = relation_delta.setdefault(
                fact.relation, (set(), set())
            )
            (rel_add if adding else rel_del).add(fact)
            if not has_positions:
                continue
            for i, term in enumerate(fact.args):
                key_add, key_del = key_delta.setdefault(
                    (fact.relation, i, term), (set(), set())
                )
                (key_add if adding else key_del).add(fact)
        for relation, (added, removed) in relation_delta.items():
            merged = (by_relation.get(relation, _EMPTY_FACTS) - removed) | added
            if merged:
                by_relation[relation] = merged
            else:
                by_relation.pop(relation, None)
        if has_positions:
            for key, (added, removed) in key_delta.items():
                merged = (position_index.get(key, _EMPTY_FACTS) - removed) | added
                if merged:
                    position_index[key] = merged
                else:
                    position_index.pop(key, None)
        METRICS.inc("facts_indexed", len(self._added) + len(self._removed))
        METRICS.inc("instances_shared")
        return Instance._from_parts(fact_set, by_relation, position_index)


def instance(*facts: Atom) -> Instance:
    """Shorthand: ``instance(atom("R", "a"), atom("S", "b"))``."""
    return Instance(facts)
