"""Engine-independent expected outputs, and parsers for program output.

Nothing here imports ``repro``: the expected recoveries and answers are
derived from the generated inputs with plain Python, and the CLI and
service outputs are read back as text.

* E->F (``E(x0, x1) -> F(x0, x1)``): the only recovery is the E-copy of
  the F facts, and the path-3 answers (``q(p0) :- E(p0,p1), E(p1,p2),
  E(p2,p3)``) are the vertices that start a directed walk of length 3.
* Lemma 1 (``R(x,y) -> S(x); R(u,v) -> T(v)``): the inverse chase has
  one covering; its backward instance gives every S-constant ``a`` a
  fact ``R(a, ?)`` and every T-constant ``b`` a fact ``R(?, b)``, and
  the finishing homomorphisms send each ``?`` to a constant of the
  other side.  The recoveries are therefore the distinct edge sets
  ``{(a, f(a))} | {(g(b), b)}`` over all ``f: S -> T`` and ``g: T -> S``
  (1 398 of them for 3 S- and 4 T-facts), and ``q(x) :- R(x, y)`` is
  certain exactly on the S-constants.
"""

from __future__ import annotations

import itertools
import re

_FACT = re.compile(r"([A-Za-z_]\w*)\(([^()]*)\)")
_TUPLE = re.compile(r"\(([^()]*)\)")

Fact = tuple[str, tuple[str, ...]]


def parse_facts(text: str) -> frozenset[Fact]:
    """Every ``Rel(t1, .., tn)`` in ``text`` as ``(rel, (t1, .., tn))``."""
    return frozenset(
        (rel, tuple(t.strip() for t in args.split(",")))
        for rel, args in _FACT.findall(text)
    )


# -- E -> F ---------------------------------------------------------------


def ef_recovery(edges) -> frozenset[Fact]:
    return frozenset(("E", (f"c{u}", f"c{v}")) for u, v in edges)


def path3_answers(edges) -> frozenset[tuple[str, ...]]:
    """Vertices starting a walk of 3 edges, as 1-tuples of constants."""
    succ: dict[int, set[int]] = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    walks = set(succ)  # walk of length 1
    for _ in range(2):
        walks = {u for u, vs in succ.items() if not vs.isdisjoint(walks)}
    return frozenset((f"c{u}",) for u in walks)


# -- Lemma 1 --------------------------------------------------------------


def lemma1_recoveries(a: list[str], b: list[str]) -> frozenset[frozenset[Fact]]:
    out = set()
    for f in itertools.product(b, repeat=len(a)):
        left = {(x, y) for x, y in zip(a, f)}
        for g in itertools.product(a, repeat=len(b)):
            edges = left | {(x, y) for x, y in zip(g, b)}
            out.add(frozenset(("R", e) for e in edges))
    return frozenset(out)


def lemma1_answers(a: list[str]) -> frozenset[tuple[str, ...]]:
    return frozenset((x,) for x in a)


# -- reading program output -----------------------------------------------


def cli_recoveries(stdout: str) -> list[frozenset[Fact]]:
    """``repro recover`` stdout: a count line, then one ``{..}`` per line."""
    lines = stdout.splitlines()
    header = re.match(r"(\d+) recovery\(ies\):", lines[0]) if lines else None
    if header is None:
        raise ValueError(f"unexpected recover output: {stdout[:200]!r}")
    recoveries = [parse_facts(line) for line in lines[1:] if line.strip()]
    if len(recoveries) != int(header.group(1)):
        raise ValueError("recover output count disagrees with its header")
    return recoveries


def cli_answers(stdout: str) -> frozenset[tuple[str, ...]]:
    """``repro certain`` stdout: ``{(t1, ..), (..)}`` on one line."""
    line = stdout.strip()
    if not (line.startswith("{") and line.endswith("}")):
        raise ValueError(f"unexpected certain output: {stdout[:200]!r}")
    return frozenset(
        tuple(t.strip() for t in inner.split(",")) if inner else ()
        for inner in _TUPLE.findall(line)
    )


def service_recoveries(result: dict) -> list[frozenset[Fact]]:
    return [parse_facts(" ".join(facts)) for facts in result["recoveries"]]


def service_answers(result: dict) -> frozenset[tuple[str, ...]]:
    return frozenset(tuple(answer) for answer in result["answers"])


def same_recoveries(got: list[frozenset[Fact]], expected) -> bool:
    """Equal as sets, with no recovery listed twice."""
    return len(got) == len(set(got)) and set(got) == set(expected)
