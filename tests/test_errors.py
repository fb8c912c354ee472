"""Unit tests for the exception hierarchy."""

import pickle
import random

import pytest

from repro.errors import (
    BudgetExceededError,
    ChaseError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    DeadlineExceededError,
    DependencyError,
    NotRecoverableError,
    ParseError,
    ReproError,
    SchemaError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "error_type",
        [
            SchemaError,
            DependencyError,
            NotRecoverableError,
            ChaseError,
        ],
    )
    def test_all_derive_from_repro_error(self, error_type):
        assert issubclass(error_type, ReproError)

    def test_parse_error_carries_position(self):
        error = ParseError("bad token", text="R(a) @@", position=5)
        assert error.position == 5
        assert "offset 5" in str(error)

    def test_parse_error_without_position(self):
        error = ParseError("empty input")
        assert error.position == -1
        assert str(error) == "empty input"

    def test_budget_error_carries_limit(self):
        error = BudgetExceededError("coverings", 100)
        assert error.limit == 100
        assert error.what == "coverings"
        assert "100" in str(error)

    def test_catching_the_base_class(self):
        with pytest.raises(ReproError):
            raise BudgetExceededError("anything", 1)

    def test_checkpoint_errors_derive_from_checkpoint_error(self):
        assert issubclass(CheckpointCorruptError, CheckpointError)
        assert issubclass(CheckpointMismatchError, CheckpointError)
        assert issubclass(CheckpointError, ReproError)


def roundtrip(error):
    return pickle.loads(pickle.dumps(error))


class TestPickleRoundTrips:
    """Every library error must survive a pickle round-trip intact.

    An error that loses attributes (or fails to unpickle outright, the
    default for exceptions with non-trivial constructors) would turn a
    precise failure into a crash or a silently degraded one.
    """

    @pytest.mark.parametrize(
        "error_type",
        [
            ReproError,
            SchemaError,
            DependencyError,
            NotRecoverableError,
            ChaseError,
            CheckpointError,
        ],
    )
    def test_plain_errors_roundtrip(self, error_type):
        clone = roundtrip(error_type("something went wrong"))
        assert type(clone) is error_type
        assert str(clone) == "something went wrong"

    def test_parse_error_roundtrip_preserves_location(self):
        clone = roundtrip(ParseError("bad token", text="R(a) @@", position=5))
        assert type(clone) is ParseError
        assert clone.text == "R(a) @@"
        assert clone.position == 5
        # The formatted message must not double-append the offset.
        assert str(clone).count("offset 5") == 1

    def test_parse_error_roundtrip_without_position(self):
        clone = roundtrip(ParseError("empty input"))
        assert str(clone) == "empty input"
        assert clone.position == -1

    def test_budget_error_roundtrip_keeps_enrichment(self):
        error = BudgetExceededError("coverings", 100, partial=["a", "b"])
        error.progress["covers_seen"] = 41
        clone = roundtrip(error)
        assert clone.what == "coverings"
        assert clone.limit == 100
        assert clone.partial == ["a", "b"]
        assert clone.progress == {"covers_seen": 41}
        assert str(clone) == str(error)

    def test_deadline_error_roundtrip_keeps_enrichment(self):
        error = DeadlineExceededError(
            "inverse chase",
            "wall clock 50ms",
            progress={"recoveries_emitted": 3},
            partial=[1, 2, 3],
        )
        clone = roundtrip(error)
        assert clone.what == "inverse chase"
        assert clone.limit == "wall clock 50ms"
        assert clone.progress == {"recoveries_emitted": 3}
        assert clone.partial == [1, 2, 3]
        assert str(clone) == str(error)

    def test_checkpoint_corrupt_roundtrip(self):
        clone = roundtrip(CheckpointCorruptError("/tmp/snap", "bad crc32"))
        assert clone.path == "/tmp/snap"
        assert clone.reason == "bad crc32"
        assert "bad crc32" in str(clone)

    def test_checkpoint_mismatch_roundtrip(self):
        clone = roundtrip(
            CheckpointMismatchError("/tmp/snap", "mapping_fp", "abc", "def")
        )
        assert clone.path == "/tmp/snap"
        assert clone.field == "mapping_fp"
        assert clone.expected == "abc"
        assert clone.found == "def"

    def test_randomized_roundtrips(self):
        """Property sweep: random payloads, every pickle protocol."""
        rng = random.Random(2026)
        for _ in range(100):
            what = "".join(rng.choices("abcdefgh ", k=rng.randint(1, 20)))
            progress = {
                f"k{i}": rng.randint(0, 10**9)
                for i in range(rng.randint(0, 5))
            }
            partial = [rng.randint(0, 999) for _ in range(rng.randint(0, 8))]
            errors = [
                BudgetExceededError(what, rng.randint(1, 10**6), partial=partial),
                DeadlineExceededError(what, "steps", progress=progress, partial=partial),
                ParseError(what, text=what * 2, position=rng.randint(-1, 30)),
                CheckpointCorruptError(what, "footer missing"),
                CheckpointMismatchError(what, "epoch", "1", "2"),
            ]
            protocol = rng.randint(2, pickle.HIGHEST_PROTOCOL)
            for error in errors:
                clone = pickle.loads(pickle.dumps(error, protocol))
                assert type(clone) is type(error)
                assert str(clone) == str(error)
                assert clone.__dict__ == error.__dict__
