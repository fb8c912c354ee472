"""A CQ-maximum recovery mapping deriver (baseline for Theorem 10).

The paper compares its ``I_{Sigma,J}`` construction against chasing
the target with the *CQ-maximum recovery mapping* of Arenas et al.
[6].  That compilation is not restated in the paper; we reconstruct it
with a greatest-lower-bound argument that provably under-approximates
it and coincides with it on every example the paper gives:

For each target relation ``A`` take the generic fact
``A(p_1, ..., p_k)`` over rigid position markers.  Every tgd whose
head contains an ``A``-atom is a *producer*: if the fact was produced
by it, the producer's body holds with the head variables bound to the
corresponding position markers (repeated head variables are sound to
split across their positions, because any fact this producer made has
equal values there) and every other body variable existentially
quantified.  What is certain regardless of the producer is the
information common to all producers — their homomorphic greatest
lower bound.  A non-empty glb becomes the target-to-source dependency
``A(x_1, ..., x_k) -> exists ... glb``.

On Example 13 this yields exactly ``{T(x) -> exists z R(x, z)}`` —
including the non-obvious *omission* of any rule for ``S`` — and on
equation (1) and Example 8 it reproduces the paper's stated mappings.
"""

from __future__ import annotations

from typing import Optional

from ..data.atoms import Atom
from ..data.instances import Instance
from ..data.terms import Constant, NullFactory, Null, Term, Variable
from ..logic.tgds import Mapping
from ..chase.disjunctive import DisjunctiveTGD
from ..core.glb import glb
from .recovery_mappings import RecoveryMapping

#: Prefix of the rigid position-marker constants used during derivation.
_MARKER_PREFIX = "@pos"


def _position_marker(position: int) -> Constant:
    return Constant(f"{_MARKER_PREFIX}{position}")


def _producer_canonical_body(
    tgd, head_atom: Atom, factory: NullFactory
) -> Instance:
    """The producer's certain source content, anchored on position markers."""
    binding: dict[Term, Term] = {}
    for position, term in enumerate(head_atom.args):
        if isinstance(term, Variable) and term not in binding:
            binding[term] = _position_marker(position)
    for var in sorted(tgd.body_variables):
        if var not in binding:
            binding[var] = factory.fresh()
    return Instance(atom.apply(binding) for atom in tgd.body)


def derive_cq_max_recovery(mapping: Mapping) -> Optional[RecoveryMapping]:
    """Derive the CQ-maximum recovery mapping of ``Sigma``.

    Returns ``None`` when no target relation retains any certain
    source content (the derived mapping would be empty).
    """
    producers: dict[str, list[Instance]] = {}
    arities: dict[str, int] = {}
    factory = NullFactory(prefix="M")
    for tgd in mapping:
        for head_atom in tgd.head:
            arities[head_atom.relation] = head_atom.arity
            producers.setdefault(head_atom.relation, []).append(
                _producer_canonical_body(tgd, head_atom, factory)
            )

    dependencies: list[DisjunctiveTGD] = []
    for relation in sorted(producers):
        certain = glb(producers[relation])
        if certain.is_empty:
            continue
        body_atom = Atom(
            relation,
            tuple(Variable(f"x{i}") for i in range(arities[relation])),
        )
        translation: dict[Term, Term] = {
            _position_marker(i): Variable(f"x{i}")
            for i in range(arities[relation])
        }
        fresh = 0
        for term in sorted(certain.domain()):
            if isinstance(term, Null):
                fresh += 1
                translation[term] = Variable(f"e{fresh}")
        head_atoms = [fact.apply(translation) for fact in sorted(certain.facts)]
        dependencies.append(
            DisjunctiveTGD([body_atom], [head_atoms], name=f"inv_{relation}")
        )
    if not dependencies:
        return None
    return RecoveryMapping(dependencies)


def cq_max_recovery_chase(mapping: Mapping, target: Instance) -> Instance:
    """``Chase(Sigma', J)`` for the derived CQ-maximum recovery ``Sigma'``.

    Returns the empty instance when the derived mapping is empty —
    chasing with no dependencies recovers nothing.
    """
    recovery = derive_cq_max_recovery(mapping)
    if recovery is None:
        return Instance.empty()
    return recovery.apply_single(target)
