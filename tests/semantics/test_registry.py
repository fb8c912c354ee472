"""Unit tests for the semantics-strategy registry."""

import pytest

from repro.errors import ReproError
from repro.semantics import (
    BaseSemantics,
    SemanticsStrategy,
    UnknownSemanticsError,
    describe_semantics,
    get_semantics,
    register_semantics,
    semantics_names,
)


class TestResolution:
    def test_builtin_modes_registered(self):
        assert semantics_names() == ("exchange_repairs", "paper")

    def test_lookup_by_name(self):
        assert get_semantics("paper").name == "paper"
        assert get_semantics("exchange_repairs").name == "exchange_repairs"

    def test_default_is_paper(self):
        assert get_semantics() is get_semantics("paper")

    def test_unknown_mode_rejected_with_alternatives(self):
        with pytest.raises(UnknownSemanticsError, match="registered modes"):
            get_semantics("no_such_mode")

    def test_unknown_mode_error_is_repro_error(self):
        # The CLI maps ReproError to exit code 2; the service catches it
        # specifically for the 422 — both rely on this subclassing.
        assert issubclass(UnknownSemanticsError, ReproError)

    def test_strategies_satisfy_protocol(self):
        for name in semantics_names():
            assert isinstance(get_semantics(name), SemanticsStrategy)


class TestRegistration:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_semantics(get_semantics("paper"))

    def test_replace_allows_reregistration(self):
        paper = get_semantics("paper")
        assert register_semantics(paper, replace=True) is paper
        assert get_semantics("paper") is paper

    def test_nameless_strategy_rejected(self):
        class Nameless(BaseSemantics):
            name = ""

        with pytest.raises(ValueError, match="non-empty name"):
            register_semantics(Nameless())


class TestDescribe:
    def test_describe_lists_all_modes_in_order(self):
        described = describe_semantics()
        assert [entry["name"] for entry in described] == list(semantics_names())
        for entry in described:
            assert entry["description"]
            assert entry["repair_notion"]
