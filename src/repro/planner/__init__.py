"""The join-plan homomorphism kernel.

A backtracking matcher re-derives atom order and candidate sets from
scratch on every call.  This package
compiles a pattern once into a :class:`~repro.planner.plan.Plan` — a
join plan with a static atom order, per-atom candidate lists pruned by
semi-join (arc-consistency) passes, and a decomposition into connected
components — caches the plan in an LRU keyed on the pattern's canonical
form and the target's epoch, and evaluates it with early projection and
an existence-only mode.

Every homomorphism search of the engine runs here, through
:func:`repro.logic.homomorphisms.homomorphisms`.  The backtracking
matcher kept in that module is not a fallback: it is the oracle the
kernel is differentially tested against.
"""

from .plan import Plan, canonicalize, compile_plan, plan_for
from .evaluate import kernel_has_homomorphism, kernel_homomorphisms
from .vectorized import (
    VectorPlan,
    compile_vector_plan,
    vector_has_homomorphism,
    vector_homomorphisms,
    vector_query_tuples,
)
from .warm import collect_warm_keys, warm_plan_caches

__all__ = [
    "Plan",
    "VectorPlan",
    "canonicalize",
    "collect_warm_keys",
    "compile_plan",
    "compile_vector_plan",
    "plan_for",
    "kernel_has_homomorphism",
    "kernel_homomorphisms",
    "vector_has_homomorphism",
    "vector_homomorphisms",
    "vector_query_tuples",
    "warm_plan_caches",
]
