"""Terms: the values that populate atoms and instances.

The paper works over three pairwise-disjoint alphabets:

* ``Cons`` — a countably infinite set of *constants*,
* ``Nulls`` — a countably infinite set of *labeled nulls*, and
* variables, used inside dependencies and queries.

We model each alphabet with its own immutable class.  All three share
the :class:`Term` base so that atoms, substitutions and the
homomorphism engine can treat them uniformly.  Identity of a term is
purely structural (kind + name/value), so two ``Constant("a")`` objects
are interchangeable everywhere.

Fresh nulls are minted through :class:`NullFactory`.  The chase and the
inverse chase each carry their own factory so that independently
constructed instances never accidentally share labeled nulls, which
would wrongly join them under the semantics.
"""

from __future__ import annotations

import itertools
import threading
from typing import Iterable, Union


class Term:
    """Base class of :class:`Constant`, :class:`Null` and :class:`Variable`.

    Terms are immutable value objects: equality and hashing are
    structural, comparison orders terms deterministically (used to make
    printed instances and enumeration orders reproducible).
    """

    __slots__ = ("_key", "_hash")

    #: Sort rank of the concrete class; constants < nulls < variables.
    _rank = 0

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)

    @property
    def is_null(self) -> bool:
        return isinstance(self, Null)

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    @property
    def sort_key(self) -> tuple[int, str]:
        """A precomputable key inducing the same order as ``<``.

        ``sorted(terms)`` compares terms pairwise and re-stringifies
        ``_key`` on every comparison; ``sorted(terms, key=...)``
        stringifies each term once.  For the large candidate pools the
        planner sorts, that difference is the whole ballgame.
        """
        return (self._rank, str(self._key))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Term):
            return NotImplemented
        return self._rank == other._rank and self._key == other._key

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self._rank, self._key))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        if self._rank != other._rank:
            return self._rank < other._rank
        return str(self._key) < str(other._key)

    def __le__(self, other: "Term") -> bool:
        return self == other or self < other


class Constant(Term):
    """An element of ``Cons``.  Homomorphisms are the identity on these."""

    __slots__ = ()
    _rank = 0

    def __init__(self, value: Union[str, int]):
        object.__setattr__(self, "_key", value)
        object.__setattr__(self, "_hash", None)

    @property
    def value(self) -> Union[str, int]:
        """The payload carried by the constant (a string or an int)."""
        return self._key

    def __reduce__(self):
        return (Constant, (self._key,))

    def __repr__(self) -> str:
        return f"Constant({self._key!r})"

    def __str__(self) -> str:
        if isinstance(self._key, int):
            return str(self._key)
        text = str(self._key)
        # Quote anything the DSL would not read back as this constant:
        # an identifier is a letter followed by letters, digits or "_".
        if text and text[0].isalpha() and text.replace("_", "a").isalnum():
            return text
        return f"'{text}'"

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Constant is immutable")


class Null(Term):
    """A labeled null — an element of ``Nulls``.

    Nulls behave like existentially quantified placeholders: a
    homomorphism may map a null to any term, whereas constants are
    fixed.  Each null carries a string label; labels are globally
    meaningful, i.e. two nulls with equal labels are the *same* null.
    """

    __slots__ = ()
    _rank = 1

    def __init__(self, label: str):
        object.__setattr__(self, "_key", label)
        object.__setattr__(self, "_hash", None)

    @property
    def label(self) -> str:
        """The identifying label of this null."""
        return self._key

    def __reduce__(self):
        return (Null, (self._key,))

    def __repr__(self) -> str:
        return f"Null({self._key!r})"

    def __str__(self) -> str:
        return f"?{self._key}"

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Null is immutable")


class Variable(Term):
    """A variable, used in dependencies and queries (never in instances)."""

    __slots__ = ()
    _rank = 2

    def __init__(self, name: str):
        object.__setattr__(self, "_key", name)
        object.__setattr__(self, "_hash", None)

    @property
    def name(self) -> str:
        """The name of the variable as written in the dependency."""
        return self._key

    def __reduce__(self):
        return (Variable, (self._key,))

    def __repr__(self) -> str:
        return f"Variable({self._key!r})"

    def __str__(self) -> str:
        return self._key

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Variable is immutable")


class NullFactory:
    """Mints fresh labeled nulls with a common prefix.

    The factory is thread-safe and deterministic: the ``k``-th null it
    produces is always ``<prefix><k>``.  Use :meth:`fresh` during a
    chase so every invented value is new, and :meth:`avoid` to make
    sure labels already present in an instance are never reissued.
    """

    def __init__(self, prefix: str = "N"):
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._lock = threading.Lock()
        self._used: set[str] = set()

    @property
    def prefix(self) -> str:
        return self._prefix

    def fresh(self) -> Null:
        """Return a null whose label has never been produced or reserved."""
        with self._lock:
            while True:
                label = f"{self._prefix}{next(self._counter)}"
                if label not in self._used:
                    self._used.add(label)
                    return Null(label)

    def fresh_many(self, count: int) -> list[Null]:
        """Return ``count`` distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]

    def avoid(self, terms: Iterable[Term]) -> "NullFactory":
        """Reserve the labels of all nulls in ``terms`` so they are not reused."""
        with self._lock:
            for term in terms:
                if isinstance(term, Null):
                    self._used.add(term.label)
        return self


def constant(value: Union[str, int]) -> Constant:
    """Shorthand constructor used throughout tests and examples."""
    return Constant(value)


def null(label: str) -> Null:
    """Shorthand constructor for a labeled null."""
    return Null(label)


def variable(name: str) -> Variable:
    """Shorthand constructor for a variable."""
    return Variable(name)


def constants_in(terms: Iterable[Term]) -> set[Constant]:
    """The set of constants among ``terms``."""
    return {t for t in terms if isinstance(t, Constant)}


def nulls_in(terms: Iterable[Term]) -> set[Null]:
    """The set of labeled nulls among ``terms``."""
    return {t for t in terms if isinstance(t, Null)}


def variables_in(terms: Iterable[Term]) -> set[Variable]:
    """The set of variables among ``terms``."""
    return {t for t in terms if isinstance(t, Variable)}
