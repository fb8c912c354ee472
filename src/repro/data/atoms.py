"""Relational atoms.

An :class:`Atom` is a relation symbol applied to a tuple of terms,
e.g. ``R(a, ?N1, x)``.  Atoms appear in three roles:

* *facts* — atoms over constants and nulls, stored in instances;
* *patterns* — atoms that may contain variables, appearing in the
  bodies and heads of dependencies and in queries;
* *frozen patterns* — patterns whose variables have been replaced by
  nulls, used when a conjunction of atoms is viewed "as an instance
  where each variable corresponds to a null value" (paper, §2).

Atoms are immutable and hashable, so instances can store them in sets
and the homomorphism engine can memoize on them.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .terms import Constant, Null, Term, Variable

TermLike = Union[Term, str, int]


def _coerce(term: TermLike) -> Term:
    """Turn bare strings/ints into terms using the textual convention.

    * an ``int`` or a string that does not match the rules below is a
      :class:`Constant`;
    * a string starting with ``?`` or ``_`` is a :class:`Null`
      (label = remainder);
    * a string starting with ``$`` is a :class:`Variable`
      (name = remainder).

    Explicit :class:`Term` objects pass through unchanged, so callers
    who need full control simply construct terms directly.
    """
    if isinstance(term, Term):
        return term
    if isinstance(term, int):
        return Constant(term)
    if isinstance(term, str):
        if term.startswith("?") or term.startswith("_"):
            return Null(term[1:])
        if term.startswith("$"):
            return Variable(term[1:])
        return Constant(term)
    raise TypeError(f"cannot interpret {term!r} as a term")


class Atom:
    """An immutable relational atom ``relation(args...)``."""

    __slots__ = ("_relation", "_args", "_hash")

    def __init__(self, relation: str, args: Sequence[TermLike]):
        if not relation:
            raise ValueError("relation name must be non-empty")
        coerced = tuple(_coerce(a) for a in args)
        object.__setattr__(self, "_relation", relation)
        object.__setattr__(self, "_args", coerced)
        object.__setattr__(self, "_hash", hash((relation, coerced)))

    @classmethod
    def _of_terms(cls, relation: str, args: tuple[Term, ...]) -> "Atom":
        """Internal: wrap arguments already known to be terms, uncoerced."""
        atom = object.__new__(cls)
        object.__setattr__(atom, "_relation", relation)
        object.__setattr__(atom, "_args", args)
        object.__setattr__(atom, "_hash", hash((relation, args)))
        return atom

    @property
    def relation(self) -> str:
        """The relation symbol of the atom."""
        return self._relation

    @property
    def args(self) -> tuple[Term, ...]:
        """The argument tuple of the atom."""
        return self._args

    @property
    def arity(self) -> int:
        return len(self._args)

    # -- term classification ------------------------------------------------

    def terms(self) -> Iterator[Term]:
        """Iterate over the arguments (with repetitions)."""
        return iter(self._args)

    @property
    def variables(self) -> set[Variable]:
        """All variables occurring in the atom."""
        return {t for t in self._args if isinstance(t, Variable)}

    @property
    def nulls(self) -> set[Null]:
        """All labeled nulls occurring in the atom."""
        return {t for t in self._args if isinstance(t, Null)}

    @property
    def constants(self) -> set[Constant]:
        """All constants occurring in the atom."""
        return {t for t in self._args if isinstance(t, Constant)}

    @property
    def is_fact(self) -> bool:
        """True when the atom contains no variables (it can be stored)."""
        return not any(isinstance(t, Variable) for t in self._args)

    @property
    def is_ground(self) -> bool:
        """True when every argument is a constant."""
        return all(isinstance(t, Constant) for t in self._args)

    # -- transformation ------------------------------------------------------

    def apply(self, mapping: Mapping[Term, Term]) -> "Atom":
        """Replace arguments by their image in ``mapping`` (missing = keep)."""
        # The images of a term-to-term mapping need no coercion.
        return Atom._of_terms(
            self._relation, tuple(mapping.get(t, t) for t in self._args)
        )

    def map_terms(self, fn: Callable[[Term], Term]) -> "Atom":
        """Apply ``fn`` to every argument."""
        return Atom(self._relation, tuple(fn(t) for t in self._args))

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._relation == other._relation
            and self._args == other._args
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Atom") -> bool:
        if not isinstance(other, Atom):
            return NotImplemented
        if self._relation != other._relation:
            return self._relation < other._relation
        return list(self._args) < list(other._args)

    def __reduce__(self):
        return (Atom, (self._relation, self._args))

    def __repr__(self) -> str:
        return f"Atom({self._relation!r}, {self._args!r})"

    def __str__(self) -> str:
        inner = ", ".join(str(t) for t in self._args)
        return f"{self._relation}({inner})"

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Atom is immutable")


def atom(relation: str, *args: TermLike) -> Atom:
    """Convenience constructor: ``atom("R", "a", "?N", "$x")``."""
    return Atom(relation, args)


def atoms_variables(atoms: Iterable[Atom]) -> set[Variable]:
    """All variables occurring in a conjunction of atoms."""
    result: set[Variable] = set()
    for a in atoms:
        result |= a.variables
    return result


def atoms_nulls(atoms: Iterable[Atom]) -> set[Null]:
    """All nulls occurring in a conjunction of atoms."""
    result: set[Null] = set()
    for a in atoms:
        result |= a.nulls
    return result


def atoms_constants(atoms: Iterable[Atom]) -> set[Constant]:
    """All constants occurring in a conjunction of atoms."""
    result: set[Constant] = set()
    for a in atoms:
        result |= a.constants
    return result


def freeze_atoms(
    atoms: Iterable[Atom], rename: Callable[[Variable], Null] | None = None
) -> tuple[list[Atom], dict[Variable, Null]]:
    """Freeze a conjunction: replace each variable by a null.

    Returns the frozen atoms together with the variable-to-null mapping
    used, so callers can translate answers back.  By default the null
    reuses the variable's name, which is safe because frozen patterns
    are only ever compared against instances, never merged into them.
    """
    mapping: dict[Variable, Null] = {}

    def default_rename(v: Variable) -> Null:
        return Null(f"v_{v.name}")

    rename = rename or default_rename
    frozen: list[Atom] = []
    for a in atoms:
        new_args: list[Term] = []
        for t in a.args:
            if isinstance(t, Variable):
                if t not in mapping:
                    mapping[t] = rename(t)
                new_args.append(mapping[t])
            else:
                new_args.append(t)
        frozen.append(Atom(a.relation, new_args))
    return frozen, mapping
