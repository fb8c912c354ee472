"""Unit and integration tests for the checkpoint/resume layer."""

import os

import pytest

from repro.core.inverse_chase import inverse_chase, inverse_chase_candidates
from repro.errors import (
    BudgetExceededError,
    CheckpointCorruptError,
    CheckpointMismatchError,
    DeadlineExceededError,
)
from repro.observability.metrics import METRICS
from repro.resilience import (
    CheckpointManager,
    Deadline,
    instance_fingerprint,
    mapping_fingerprint,
    options_fingerprint,
    read_snapshot,
    write_snapshot,
)
from repro.workloads.generators import scaled_recovery_workload
from tests.conftest import storage_backend

SEMANTIC = (
    "coverings_evaluated",
    "recoveries_emitted",
    "justification_hits",
    "justification_misses",
)
WORK = SEMANTIC + ("covers_enumerated",)


@pytest.fixture(scope="module")
def workload():
    return scaled_recovery_workload(7, facts=40, ambiguous_facts=5, domain_size=16)


@pytest.fixture(scope="module")
def reference(workload):
    mapping, target = workload
    base = METRICS.snapshot()
    result = inverse_chase(mapping, target)
    delta = METRICS.delta_since(base)
    return result, {k: delta.get(k, 0) for k in WORK}


def work_delta(base):
    delta = METRICS.delta_since(base)
    return {k: delta.get(k, 0) for k in WORK}


# -- snapshot format --------------------------------------------------------


class TestSnapshotFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "snap"
        payloads = {"numbers": [1, 2, 3], "mapping": {"a": (1, 2)}}
        write_snapshot(path, kind="t", scope={"mapping_fp": "x"}, payloads=payloads)
        header, loaded = read_snapshot(path)
        assert loaded == payloads
        assert header["kind"] == "t"
        assert header["mapping_fp"] == "x"
        assert header["complete"] is False

    def test_complete_flag(self, tmp_path):
        path = tmp_path / "snap"
        write_snapshot(path, kind="t", scope={}, payloads={}, complete=True)
        header, _ = read_snapshot(path)
        assert header["complete"] is True

    def test_atomic_overwrite_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "snap"
        for i in range(3):
            write_snapshot(path, kind="t", scope={}, payloads={"i": i})
        assert [p.name for p in tmp_path.iterdir()] == ["snap"]
        _, loaded = read_snapshot(path)
        assert loaded == {"i": 2}

    def test_missing_file_is_corrupt(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(tmp_path / "absent")

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "snap"
        write_snapshot(path, kind="t", scope={}, payloads={"a": 1, "b": 2})
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop record + footer
        with pytest.raises(CheckpointCorruptError, match="footer"):
            read_snapshot(path)

    def test_bit_flip_is_corrupt(self, tmp_path):
        path = tmp_path / "snap"
        write_snapshot(path, kind="t", scope={}, payloads={"a": list(range(64))})
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointCorruptError):
            read_snapshot(path)

    def test_non_checkpoint_file_is_corrupt(self, tmp_path):
        path = tmp_path / "snap"
        path.write_text('{"some": "json"}\n')
        with pytest.raises(CheckpointCorruptError, match="not a repro checkpoint"):
            read_snapshot(path)


# -- fingerprints -----------------------------------------------------------


class TestFingerprints:
    def test_instance_fingerprint_is_content_based(self, workload):
        _, target = workload
        from repro.data.instances import Instance

        clone = Instance(set(target.facts))
        assert clone.epoch != target.epoch
        assert instance_fingerprint(clone) == instance_fingerprint(target)

    def test_different_instances_differ(self, workload):
        mapping, target = workload
        _, other = scaled_recovery_workload(8, facts=40, domain_size=16)
        assert instance_fingerprint(other) != instance_fingerprint(target)

    def test_mapping_fingerprint(self, workload):
        mapping, _ = workload
        # ambiguous_facts=0 drops the A/B -> D dependencies, so the
        # mapping is structurally different (seeds only vary the facts).
        other, _ = scaled_recovery_workload(8, facts=10, ambiguous_facts=0)
        assert mapping_fingerprint(mapping) == mapping_fingerprint(mapping)
        assert mapping_fingerprint(mapping) != mapping_fingerprint(other)

    def test_options_fingerprint_order_insensitive(self):
        assert options_fingerprint({"a": 1, "b": 2}) == options_fingerprint(
            {"b": 2, "a": 1}
        )
        assert options_fingerprint({"a": 1}) != options_fingerprint({"a": 2})


# -- the manager ------------------------------------------------------------


class TestCheckpointManager:
    def test_rejects_nonpositive_cadence(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointManager(tmp_path / "snap", every_ms=0)

    def test_due_follows_clock(self, tmp_path):
        now = [0.0]
        mgr = CheckpointManager(
            tmp_path / "snap", every_ms=1000.0, clock=lambda: now[0]
        )
        mgr.begin("t", scope={})
        assert not mgr.due()
        now[0] += 0.5
        assert not mgr.due()
        now[0] += 0.6
        assert mgr.due()
        mgr.save({})
        assert not mgr.due()

    def test_save_before_begin_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            CheckpointManager(tmp_path / "snap").save({})

    def test_mismatch_detection(self, tmp_path):
        path = tmp_path / "snap"
        mgr = CheckpointManager(path)
        mgr.begin("t", scope={"mapping_fp": "A", "options_fp": "O"})
        mgr.save({"x": 1})
        with pytest.raises(CheckpointMismatchError, match="mapping_fp"):
            CheckpointManager(path).load(
                kind="t", scope={"mapping_fp": "B", "options_fp": "O"}
            )
        with pytest.raises(CheckpointMismatchError, match="kind"):
            CheckpointManager(path).load(kind="u", scope={"mapping_fp": "A"})

    def test_resume_outcomes(self, tmp_path):
        path = tmp_path / "snap"
        fresh = CheckpointManager(path, resume=True)
        assert fresh.begin("t", scope={"options_fp": "O"}) is None
        assert fresh.resume_outcome == "no-snapshot"
        fresh.save({"x": 1})

        good = CheckpointManager(path, resume=True)
        payloads = good.begin("t", scope={"options_fp": "O"})
        assert payloads is not None and payloads["x"] == 1
        assert good.resume_outcome == "resumed"

        wrong = CheckpointManager(path, resume=True)
        assert wrong.begin("t", scope={"options_fp": "Q"}) is None
        assert wrong.resume_outcome == "rejected-mismatch"

        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        corrupt = CheckpointManager(path, resume=True)
        assert corrupt.begin("t", scope={"options_fp": "O"}) is None
        assert corrupt.resume_outcome == "rejected-corrupt"

    def test_counters_roundtrip(self, tmp_path):
        mgr = CheckpointManager(tmp_path / "snap")
        mgr.begin("t", scope={})
        METRICS.inc("recoveries_emitted", 3)
        delta = mgr.counters_delta()
        assert delta["recoveries_emitted"] == 3
        base = METRICS.snapshot()
        mgr.merge_counters(delta)
        assert METRICS.delta_since(base)["recoveries_emitted"] == 3


# -- inverse-chase integration ---------------------------------------------


class TestInverseChaseResume:
    def interrupt(self, mapping, target, path, steps=20, **options):
        mgr = CheckpointManager(path, every_ms=0.0001)
        with pytest.raises(DeadlineExceededError):
            inverse_chase(
                mapping,
                target,
                checkpoint=mgr,
                deadline=Deadline(max_steps=steps),
                **options,
            )
        return mgr

    def test_complete_run_then_instant_resume(self, tmp_path, workload, reference):
        mapping, target = workload
        ref, ref_delta = reference
        path = tmp_path / "snap"
        out = inverse_chase(
            mapping, target, checkpoint=CheckpointManager(path, every_ms=0.0001)
        )
        assert out == ref
        base = METRICS.snapshot()
        mgr = CheckpointManager(path, resume=True)
        out2 = inverse_chase(mapping, target, checkpoint=mgr)
        assert out2 == ref
        assert mgr.resume_outcome == "complete"
        delta = work_delta(base)
        # A complete snapshot replays without re-enumerating; the
        # merged semantic counters still equal the uninterrupted run.
        assert delta["covers_enumerated"] == 0
        for key in SEMANTIC:
            assert delta[key] == ref_delta[key]

    @pytest.mark.parametrize("steps", [5, 15, 40, 70])
    def test_crash_resume_bit_identical_with_parity(
        self, tmp_path, workload, reference, steps
    ):
        mapping, target = workload
        ref, ref_delta = reference
        path = tmp_path / "snap"
        self.interrupt(mapping, target, path, steps=steps)
        base = METRICS.snapshot()
        mgr = CheckpointManager(path, resume=True)
        out = inverse_chase(mapping, target, checkpoint=mgr)
        assert out == ref
        if mgr.resume_outcome != "complete":
            assert work_delta(base) == ref_delta

    def test_resumed_budget_counts_replayed_recoveries(
        self, tmp_path, workload, reference
    ):
        # Every covering of this workload yields one new recovery, so a
        # resume that forgot the replayed ones would finish in budget.
        mapping, target = workload
        ref, _ = reference
        budget = len(ref) - 1
        path = tmp_path / "snap"
        # 800 steps emit about half the recoveries before the crash.
        self.interrupt(mapping, target, path, steps=800, max_recoveries=budget)
        mgr = CheckpointManager(path, resume=True)
        with pytest.raises(BudgetExceededError) as excinfo:
            inverse_chase(mapping, target, checkpoint=mgr, max_recoveries=budget)
        assert mgr.resume_outcome == "resumed"
        assert excinfo.value.partial == ref[:budget]

    def test_candidate_stream_resumes_in_order(self, tmp_path, workload):
        mapping, target = workload
        ref = list(inverse_chase_candidates(mapping, target))
        path = tmp_path / "snap"
        collected = []
        mgr = CheckpointManager(path, every_ms=0.0001)
        with pytest.raises(DeadlineExceededError):
            for cand in inverse_chase_candidates(
                mapping, target, checkpoint=mgr, deadline=Deadline(max_steps=25)
            ):
                collected.append(cand)
        resumed = list(
            inverse_chase_candidates(
                mapping, target, checkpoint=CheckpointManager(path, resume=True)
            )
        )
        assert [c.recovery for c in resumed] == [c.recovery for c in ref]
        assert [c.covering for c in resumed] == [c.covering for c in ref]

    def test_option_change_falls_back_cold(self, tmp_path, workload, reference):
        mapping, target = workload
        ref, _ = reference
        path = tmp_path / "snap"
        self.interrupt(mapping, target, path)
        mgr = CheckpointManager(path, resume=True)
        out = inverse_chase(
            mapping, target, checkpoint=mgr, max_recoveries=10_000
        )
        assert mgr.resume_outcome == "rejected-mismatch"
        assert out == ref

    def test_corruption_falls_back_cold(self, tmp_path, workload, reference):
        mapping, target = workload
        ref, _ = reference
        path = tmp_path / "snap"
        self.interrupt(mapping, target, path)
        data = bytearray(path.read_bytes())
        data[len(data) // 3] ^= 0xFF
        path.write_bytes(bytes(data))
        mgr = CheckpointManager(path, resume=True)
        out = inverse_chase(mapping, target, checkpoint=mgr)
        assert mgr.resume_outcome == "rejected-corrupt"
        assert out == ref

    def test_checkpoint_counters_and_file_exist(self, tmp_path, workload):
        mapping, target = workload
        path = tmp_path / "snap"
        base = METRICS.snapshot()
        inverse_chase(
            mapping, target, checkpoint=CheckpointManager(path, every_ms=0.0001)
        )
        delta = METRICS.delta_since(base)
        assert delta.get("checkpoint_saves", 0) >= 1
        assert delta.get("checkpoint_bytes_written", 0) > 0
        assert os.path.exists(path)
        mgr = CheckpointManager(path, resume=True)
        base = METRICS.snapshot()
        inverse_chase(mapping, target, checkpoint=mgr)
        assert METRICS.delta_since(base).get("checkpoint_restores", 0) == 1

    def test_columnar_backend_resume(self, tmp_path, workload, reference):
        mapping, target = workload
        ref, _ = reference
        path = tmp_path / "snap"
        with storage_backend("columnar"):
            self.interrupt(mapping, target, path)
            mgr = CheckpointManager(path, resume=True)
            out = inverse_chase(mapping, target, checkpoint=mgr)
        assert out == ref

    def test_degrade_mode_checkpoints_first_rung(self, tmp_path, workload):
        mapping, target = workload
        path = tmp_path / "snap"
        base = METRICS.snapshot()
        result = inverse_chase(
            mapping,
            target,
            mode="degrade",
            checkpoint=CheckpointManager(path, every_ms=0.0001),
        )
        assert METRICS.delta_since(base).get("checkpoint_saves", 0) >= 1
        assert result.status == "exact"


class TestWarmStarts:
    def test_hom_set_and_plans_travel(self, tmp_path, workload, reference):
        mapping, target = workload
        ref, _ = reference
        path = tmp_path / "snap"
        mgr = CheckpointManager(path, every_ms=0.0001)
        with pytest.raises(DeadlineExceededError):
            inverse_chase(
                mapping,
                target,
                checkpoint=mgr,
                deadline=Deadline(max_steps=30),
            )
        _, payloads = read_snapshot(path)
        hom_state = payloads["homs"]
        assert hom_state["hom_set"], "snapshot should carry the hom-set"
        assert "plan_keys" in hom_state
        base = METRICS.snapshot()
        out = inverse_chase(
            mapping, target, checkpoint=CheckpointManager(path, resume=True)
        )
        assert out == ref
        delta = METRICS.delta_since(base)
        if hom_state["plan_keys"].get("object") or hom_state["plan_keys"].get(
            "vector"
        ):
            assert delta.get("plans_prewarmed", 0) >= 1
