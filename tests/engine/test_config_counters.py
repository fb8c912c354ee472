"""Engine counters, caches and their reporting."""

from __future__ import annotations

import pytest

from repro.core.hom_sets import hom_set
from repro.engine.cache import LRUCache, clear_registered_caches
from repro.engine.counters import snapshot
from repro.logic.parser import parse_instance, parse_tgds
from repro.logic.tgds import Mapping
from repro.observability import METRICS
from repro.reporting import format_counters


class TestLRUCache:
    def test_hit_miss_accounting(self):
        cache = LRUCache("t1", maxsize=4)
        assert cache.get_or_compute("a", lambda: 1) == 1
        assert cache.get_or_compute("a", lambda: 2) == 1
        assert cache.misses == 1 and cache.hits == 1

    def test_eviction_is_lru(self):
        cache = LRUCache("t2", maxsize=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh "a"
        cache.get_or_compute("c", lambda: 3)  # evicts "b"
        assert cache.get_or_compute("b", lambda: 9) == 9

    def test_resize_shrinks(self):
        cache = LRUCache("t3", maxsize=8)
        for i in range(8):
            cache.get_or_compute(i, lambda i=i: i)
        cache.resize(2)
        assert cache.maxsize == 2
        assert len(cache) <= 2


class TestMemoization:
    @pytest.fixture
    def pipeline(self):
        mapping = Mapping(parse_tgds("R(x, y) -> S(x), P(y)"))
        target = parse_instance("S(a), P(b1), P(b2)")
        return mapping, target

    def test_hom_set_is_memoized(self, pipeline):
        mapping, target = pipeline
        clear_registered_caches()
        first = hom_set(mapping, target)
        second = hom_set(mapping, target)
        assert first == second
        assert snapshot()["hom_set_cache_hits"] >= 1

    def test_disabled_memoization_matches_enabled(self, pipeline):
        mapping, target = pipeline
        memoized = hom_set(mapping, target)
        clear_registered_caches()
        fresh = hom_set(mapping, target)
        assert fresh == memoized


class TestValueFastpaths:
    def test_atom_apply_matches_validating_path(self):
        from repro.data.atoms import Atom
        from repro.data.terms import Constant, Null, Variable

        atom = Atom("R", (Variable("x"), Constant("a"), Null("N")))
        mapping = {Variable("x"): Constant("b"), Null("N"): Null("M")}
        expected = Atom("R", (Constant("b"), Constant("a"), Null("M")))
        fast = atom.apply(mapping)
        assert fast == expected and hash(fast) == hash(expected)

    def test_instance_apply_matches_validating_path(self):
        from repro.data.atoms import Atom
        from repro.data.instances import Instance
        from repro.data.terms import Constant, Null
        from repro.logic.parser import parse_instance

        inst = parse_instance("R(a, ?N1), S(?N1)")
        mapping = {Null("N1"): Constant("c")}
        expected = Instance(
            [
                Atom("R", (Constant("a"), Constant("c"))),
                Atom("S", (Constant("c"),)),
            ]
        )
        fast = inst.apply(mapping)
        assert fast == expected and hash(fast) == hash(expected)

    def test_instance_apply_still_validates_variable_ranges(self):
        from repro.data.terms import Null, Variable
        from repro.errors import SchemaError
        from repro.logic.parser import parse_instance

        inst = parse_instance("R(a, ?N1)")
        with pytest.raises(SchemaError):
            inst.apply({Null("N1"): Variable("x")})

    def test_term_hashes_are_stable_across_modes(self):
        from repro.data.terms import Constant

        term = Constant("a")
        first = hash(term)
        assert hash(term) == first  # cached second call
        assert hash(Constant("a")) == first  # an equal, fresh term


class TestCounters:
    def test_reset_zeroes_everything(self):
        METRICS.inc("homomorphisms_explored", 5)
        METRICS.reset()
        assert METRICS.get("homomorphisms_explored") == 0
        assert set(snapshot().values()) == {0}

    def test_snapshot_includes_cache_stats(self):
        stats = snapshot()
        assert "homomorphisms_explored" in stats
        assert "hom_set_cache_hits" in stats
        assert "subsumers_cache_misses" in stats

    def test_work_is_counted(self, running_example):
        from repro.core.inverse_chase import inverse_chase

        METRICS.reset()
        inverse_chase(running_example.mapping, running_example.target)
        assert METRICS.get("coverings_evaluated") >= 1
        assert METRICS.get("recoveries_emitted") >= 1
        assert METRICS.get("homomorphisms_explored") > 0
        assert METRICS.get("instances_built") > 0

    def test_format_counters_renders_sorted_table(self):
        text = format_counters({"b_counter": 2, "a_counter": 1})
        assert "engine counters" in text
        assert text.index("a_counter") < text.index("b_counter")
