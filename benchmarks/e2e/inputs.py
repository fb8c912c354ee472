"""Seeded input generators for the end-to-end benchmark.

Every input the benchmark feeds the program comes from here, as DSL
text, so a change to ``repro.workloads`` cannot move the benchmark's
inputs.  The same seed always yields the same text; ``input_digest``
hashes a workload's inputs so that drift in this file fails loudly
(``input_hashes.json`` records the digests at ``DEFAULT_SEED``).

The module imports nothing from ``repro``.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

EF_MAPPING = "E(x0, x1) -> F(x0, x1)\n"
PATH3_QUERY = "q(p0) :- E(p0, p1), E(p1, p2), E(p2, p3)\n"
LEMMA1_MAPPING = "R(x, y) -> S(x)\nR(u, v) -> T(v)\n"
LEMMA1_QUERY = "q(x) :- R(x, y)\n"

#: Share of graph vertices generated without out-edges.  They are not
#: path-3 answers, so the certain answer is a proper subset of the
#: vertices and an edge inserted from one of them changes the answer.
SINK_SHARE = 0.25

# Workload sizes.  ``degree`` is facts per vertex, so the vertex count
# is ``facts // degree``.
CLI_SCALE_FACTS, CLI_SCALE_DEGREE = 10_000, 16
VIEW_CHURN_FACTS, VIEW_CHURN_DEGREE = 5_000, 16
# Service targets stay below the engine's columnar threshold (1024
# facts), so service_mix exercises the object storage path.
SERVICE_FACTS, SERVICE_DEGREE = 500, 4
SERVICE_TENANTS = ("t0", "t1")
#: Hot targets per tenant.  Each tenant's cache partitions hold 64
#: entries by default, so the hot set (and its 2 x 8 result entries)
#: fits; fresh targets never repeat and always miss.
SERVICE_HOT = 8
SERVICE_ZIPF = 1.2
SERVICE_FRESH_PER_10 = 1
#: Phase-1 arrival rate (requests/s).  Fixed, so the offered load
#: never changes with the code under test.
SERVICE_RATE = 10.0
#: Phase-2 (cold requests only) capacity in requests/s, measured at the
#: commit that introduced the benchmark; it sizes that phase.
SERVICE_CAPACITY = 8.0


@dataclass(frozen=True)
class Graph:
    """A random digraph over ``c0 .. c{vertices-1}`` as an edge list."""

    edges: tuple[tuple[int, int], ...]
    vertices: int
    sinks: frozenset[int]

    def text(self) -> str:
        """The DSL text of the F-facts, one per line."""
        return "".join(f"F(c{u}, c{v})\n" for u, v in self.edges)


def graph(rng: random.Random, facts: int, degree: int) -> Graph:
    """``facts`` distinct edges over ``facts // degree`` vertices.

    Edges leave only non-sink vertices; heads are uniform.
    """
    vertices = facts // degree
    sinks = frozenset(rng.sample(range(vertices), int(vertices * SINK_SHARE)))
    tails = [v for v in range(vertices) if v not in sinks]
    if facts > len(tails) * vertices:
        raise ValueError(f"{facts} edges do not fit on {vertices} vertices")
    edges: set[tuple[int, int]] = set()
    while len(edges) < facts:
        edges.add((rng.choice(tails), rng.randrange(vertices)))
    return Graph(tuple(sorted(edges)), vertices, sinks)


def lemma1_target(rng: random.Random) -> tuple[str, list[str], list[str]]:
    """The Lemma-1 fixture: 3 S-facts and 4 T-facts, seeded names.

    Returns ``(text, s_constants, t_constants)``.
    """
    a = [f"a{i}" for i in rng.sample(range(100), 3)]
    b = [f"b{i}" for i in rng.sample(range(100), 4)]
    facts = [f"S({x})" for x in a] + [f"T({y})" for y in b]
    rng.shuffle(facts)
    return "".join(f + "\n" for f in facts), a, b


@dataclass(frozen=True)
class Request:
    """One service request: ``target`` is a hot-set index or None (fresh)."""

    due: float
    tenant: str
    endpoint: str
    target: int | None


class ServiceInputs:
    """Hot targets per tenant plus a seeded request stream.

    Requests come in blocks of ten with exactly ``SERVICE_FRESH_PER_10``
    fresh targets and five of each endpoint, shuffled within the block,
    and fresh requests alternate endpoints, so every seed offers the
    same mix.  Hot targets are drawn by
    Zipf(``SERVICE_ZIPF``) rank.  Arrival gaps are exponential at
    ``rate`` (Poisson arrivals); closed-loop consumers ignore ``due``.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(f"service-{seed}")
        self._fresh_rng = random.Random(f"service-fresh-{seed}")
        self.hot = {
            tenant: [
                graph(self._rng, SERVICE_FACTS, SERVICE_DEGREE)
                for _ in range(SERVICE_HOT)
            ]
            for tenant in SERVICE_TENANTS
        }
        self._weights = [
            1.0 / (rank + 1) ** SERVICE_ZIPF for rank in range(SERVICE_HOT)
        ]
        self._clock = 0.0
        self._fresh = 0

    def fresh_target(self) -> Graph:
        """The next never-repeated target (its own seeded sequence)."""
        return graph(self._fresh_rng, SERVICE_FACTS, SERVICE_DEGREE)

    def requests(
        self, count: int, rate: float, fresh_per_10: int = SERVICE_FRESH_PER_10
    ) -> list[Request]:
        """The next ``count`` requests (a multiple of ten)."""
        rng = self._rng
        out: list[Request] = []
        while len(out) < count:
            # Fresh requests alternate endpoints across the stream, hot
            # ones take the rest of the block's five of each.
            fresh = [
                "certain" if (self._fresh + i) % 2 else "recover"
                for i in range(fresh_per_10)
            ]
            self._fresh += fresh_per_10
            hot = ["recover"] * (5 - fresh.count("recover")) + ["certain"] * (
                5 - fresh.count("certain")
            )
            rng.shuffle(hot)
            block = [(True, e) for e in fresh] + [(False, e) for e in hot]
            rng.shuffle(block)
            for is_fresh, endpoint in block:
                self._clock += rng.expovariate(rate)
                tenant = rng.choice(SERVICE_TENANTS)
                target = (
                    None
                    if is_fresh
                    else rng.choices(range(SERVICE_HOT), self._weights)[0]
                )
                out.append(Request(self._clock, tenant, endpoint, target))
        return out


class DeltaStream:
    """Single-fact deltas for view churn, tracking the live edge set.

    Even steps insert an edge from a vertex that currently has no
    out-edge to one that has, over existing constants, which makes the
    tail a new path-3 answer in the common case.  Odd steps delete a
    uniformly chosen live edge.
    """

    def __init__(self, seed: int, g: Graph):
        self._rng = random.Random(f"delta-{seed}")
        self._live = list(g.edges)
        self._pos = {e: i for i, e in enumerate(self._live)}
        self._vertices = g.vertices
        self._out = [0] * g.vertices
        for u, _ in g.edges:
            self._out[u] += 1
        self._step = 0

    @property
    def live(self) -> list[tuple[int, int]]:
        return self._live

    def next(self) -> tuple[str, tuple[int, int]]:
        """``("add" | "remove", (u, v))``, already applied to ``live``."""
        rng = self._rng
        self._step += 1
        if self._step % 2:
            sinks = [v for v in range(self._vertices) if not self._out[v]]
            heads = [v for v in range(self._vertices) if self._out[v]]
            while True:
                u = rng.choice(sinks) if sinks else rng.randrange(self._vertices)
                edge = (u, rng.choice(heads))
                if edge not in self._pos:
                    break
            self._pos[edge] = len(self._live)
            self._live.append(edge)
            self._out[edge[0]] += 1
            return "add", edge
        i = rng.randrange(len(self._live))
        edge = self._live[i]
        last = self._live.pop()
        if last != edge:
            self._live[i] = last
            self._pos[last] = i
        del self._pos[edge]
        self._out[edge[0]] -= 1
        return "remove", edge


def cli_scale_target(seed: int) -> Graph:
    return graph(random.Random(f"cli_scale-{seed}"), CLI_SCALE_FACTS, CLI_SCALE_DEGREE)


def cli_blowup_target(seed: int) -> tuple[str, list[str], list[str]]:
    return lemma1_target(random.Random(f"cli_blowup-{seed}"))


def view_churn_target(seed: int) -> Graph:
    return graph(random.Random(f"view_churn-{seed}"), VIEW_CHURN_FACTS, VIEW_CHURN_DEGREE)


def input_digest(workload: str, seed: int) -> str:
    """SHA-256 over everything ``workload`` sends the program at ``seed``.

    Streams are hashed over a fixed prefix (200 requests, 100 deltas).
    """
    h = hashlib.sha256()
    if workload == "cli_scale":
        parts = [EF_MAPPING, PATH3_QUERY, cli_scale_target(seed).text()]
    elif workload == "cli_blowup":
        parts = [LEMMA1_MAPPING, LEMMA1_QUERY, cli_blowup_target(seed)[0]]
    elif workload == "service_mix":
        inputs = ServiceInputs(seed)
        parts = [EF_MAPPING, PATH3_QUERY]
        for tenant in SERVICE_TENANTS:
            parts.extend(g.text() for g in inputs.hot[tenant])
        for r in inputs.requests(200, SERVICE_RATE):
            parts.append(f"{r.due:.9f} {r.tenant} {r.endpoint} {r.target}")
        parts.extend(inputs.fresh_target().text() for _ in range(60))
    elif workload == "view_churn":
        g = view_churn_target(seed)
        stream = DeltaStream(seed, g)
        parts = [EF_MAPPING, PATH3_QUERY, g.text()]
        parts.extend(f"{op} {u} {v}" for op, (u, v) in (stream.next() for _ in range(100)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for part in parts:
        h.update(part.encode())
        h.update(b"\0")
    return h.hexdigest()
