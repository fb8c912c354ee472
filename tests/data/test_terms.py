"""Unit tests for the term alphabet (constants, nulls, variables)."""

import threading

import pytest

from repro.data.terms import (
    Constant,
    Null,
    NullFactory,
    Variable,
    constant,
    constants_in,
    null,
    nulls_in,
    variable,
    variables_in,
)


class TestTermIdentity:
    def test_constants_are_structurally_equal(self):
        assert Constant("a") == Constant("a")

    def test_distinct_constants_differ(self):
        assert Constant("a") != Constant("b")

    def test_int_and_str_payloads_both_work(self):
        assert Constant(1) == Constant(1)
        assert Constant(1) != Constant("1")

    def test_nulls_are_structurally_equal(self):
        assert Null("N1") == Null("N1")

    def test_variables_are_structurally_equal(self):
        assert Variable("x") == Variable("x")

    def test_kinds_never_collide(self):
        assert Constant("x") != Variable("x")
        assert Constant("x") != Null("x")
        assert Null("x") != Variable("x")

    def test_hash_agrees_with_equality(self):
        assert hash(Constant("a")) == hash(Constant("a"))
        assert hash(Null("n")) == hash(Null("n"))
        terms = {Constant("a"), Constant("a"), Null("a"), Variable("a")}
        assert len(terms) == 3

    def test_equality_with_non_terms(self):
        assert Constant("a") != "a"
        assert not (Constant("a") == 42)


class TestTermOrdering:
    def test_constants_sort_before_nulls_before_variables(self):
        ordered = sorted([Variable("a"), Null("a"), Constant("a")])
        assert [type(t) for t in ordered] == [Constant, Null, Variable]

    def test_same_kind_sorts_by_name(self):
        assert Constant("a") < Constant("b")
        assert Null("A") < Null("B")
        assert Variable("x") < Variable("y")

    def test_le_is_reflexive(self):
        assert Constant("a") <= Constant("a")


class TestTermPredicates:
    def test_is_constant(self):
        assert Constant("a").is_constant
        assert not Null("a").is_constant
        assert not Variable("a").is_constant

    def test_is_null(self):
        assert Null("a").is_null
        assert not Constant("a").is_null

    def test_is_variable(self):
        assert Variable("a").is_variable
        assert not Null("a").is_variable


class TestImmutability:
    def test_constant_rejects_mutation(self):
        with pytest.raises(AttributeError):
            Constant("a").value = "b"

    def test_null_rejects_mutation(self):
        with pytest.raises(AttributeError):
            Null("n").label = "m"

    def test_variable_rejects_mutation(self):
        with pytest.raises(AttributeError):
            Variable("x").name = "y"


class TestAccessors:
    def test_constant_value(self):
        assert Constant("a").value == "a"

    def test_null_label_and_str(self):
        n = Null("N7")
        assert n.label == "N7"
        assert str(n) == "?N7"

    @pytest.mark.parametrize(
        "value, text",
        [
            ("a", "a"),
            ("a_b1", "a_b1"),
            ("ä", "ä"),
            ("_a", "'_a'"),
            ("1a", "'1a'"),
            ("a-b", "'a-b'"),
            ("a b", "'a b'"),
            ("", "''"),
            (7, "7"),
        ],
    )
    def test_constant_str_quotes_non_identifiers(self, value, text):
        assert str(Constant(value)) == text

    def test_variable_name(self):
        assert Variable("x").name == "x"

    def test_reprs_are_informative(self):
        assert "a" in repr(Constant("a"))
        assert "N" in repr(Null("N"))
        assert "x" in repr(Variable("x"))


class TestNullFactory:
    def test_fresh_nulls_are_distinct(self):
        factory = NullFactory()
        produced = [factory.fresh() for _ in range(100)]
        assert len(set(produced)) == 100

    def test_prefix_is_respected(self):
        factory = NullFactory(prefix="Z")
        assert factory.fresh().label.startswith("Z")

    def test_deterministic_sequence(self):
        assert [n.label for n in NullFactory().fresh_many(3)] == ["N1", "N2", "N3"]

    def test_avoid_skips_reserved_labels(self):
        factory = NullFactory()
        factory.avoid([Null("N1"), Null("N3"), Constant("N2")])
        labels = [factory.fresh().label for _ in range(3)]
        assert "N1" not in labels
        assert "N3" not in labels
        # Constants do not reserve labels.
        assert "N2" in labels

    def test_avoid_returns_self_for_chaining(self):
        factory = NullFactory()
        assert factory.avoid([]) is factory

    def test_concurrent_fresh_never_duplicates(self):
        factory = NullFactory()
        produced: list[Null] = []

        def mint():
            for _ in range(200):
                produced.append(factory.fresh())

        threads = [threading.Thread(target=mint) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(produced)) == 800


class TestHelpers:
    def test_shorthand_constructors(self):
        assert constant("a") == Constant("a")
        assert null("n") == Null("n")
        assert variable("x") == Variable("x")

    def test_classifiers(self):
        terms = [Constant("a"), Null("n"), Variable("x"), Constant("b")]
        assert constants_in(terms) == {Constant("a"), Constant("b")}
        assert nulls_in(terms) == {Null("n")}
        assert variables_in(terms) == {Variable("x")}
