"""Chaos property suite: randomized fault schedules must never change results.

The headline property: for ANY seeded schedule of crashes, snapshot
corruption and clock skew, driving the inverse chase through
crash-and-resume lineages yields results bit-identical to an
uninterrupted run, with parity-clean semantic counters — on both the
object and the columnar backend.  200 randomized schedules run here
(100 per backend), in batches to keep each test comfortably under the
suite timeout.
"""

import pytest

from repro.core.inverse_chase import inverse_chase
from repro.errors import DeadlineExceededError
from repro.observability.metrics import METRICS
from repro.resilience import CheckpointManager, Deadline
from repro.workloads.generators import scaled_recovery_workload
from tests.conftest import storage_backend
from tests.resilience.chaos import (
    ChaoticCheckpointManager,
    Fault,
    FaultSchedule,
    InjectedCrash,
    chaos_run,
)

SEMANTIC = (
    "coverings_evaluated",
    "recoveries_emitted",
    "justification_hits",
    "justification_misses",
)
WORK = SEMANTIC + ("covers_enumerated",)

BACKENDS = ("columnar", "object")

SEEDS_PER_BATCH = 25
BATCHES = range(4)  # 4 batches x 25 seeds x 2 backends = 200 schedules


@pytest.fixture(scope="module")
def workload():
    return scaled_recovery_workload(11, facts=24, ambiguous_facts=4, domain_size=12)


@pytest.fixture(scope="module")
def references(workload):
    """Uninterrupted result + work-counter delta, per backend."""
    mapping, target = workload
    refs = {}
    for name in BACKENDS:
        with storage_backend(name):
            base = METRICS.snapshot()
            result = inverse_chase(mapping, target)
            delta = METRICS.delta_since(base)
        refs[name] = (result, {k: delta.get(k, 0) for k in WORK})
    # The two backends must agree before chaos even starts.
    assert refs["object"][0] == refs["columnar"][0]
    return refs


def assert_parity(report, ref_delta):
    delta = {k: report.final_delta.get(k, 0) for k in WORK}
    if report.resume_outcomes and report.resume_outcomes[-1] == "complete":
        # A complete snapshot short-circuits enumeration entirely; the
        # semantic counters still carry the full run via the merge.
        for key in SEMANTIC:
            assert delta[key] == ref_delta[key], (key, delta, ref_delta)
    else:
        assert delta == ref_delta


class TestFaultScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a, b = FaultSchedule(42), FaultSchedule(42)
        assert a.faults == b.faults
        assert a.every_ms == b.every_ms

    def test_different_seeds_vary(self):
        schedules = {FaultSchedule(seed).faults for seed in range(30)}
        assert len(schedules) > 20

    def test_crash_boundaries_strictly_increase(self):
        for seed in range(50):
            crashes = [f.at for f in FaultSchedule(seed).crashes()]
            assert crashes == sorted(set(crashes))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSchedule(1, kinds=("meteor",))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("batch", BATCHES)
class TestChaosProperty:
    def test_randomized_schedules_bit_identical(
        self, tmp_path, workload, references, backend, batch
    ):
        mapping, target = workload
        ref, ref_delta = references[backend]
        failures = []
        for offset in range(SEEDS_PER_BATCH):
            seed = batch * SEEDS_PER_BATCH + offset
            schedule = FaultSchedule(seed)
            path = tmp_path / f"snap-{seed}"
            with storage_backend(backend):
                report = chaos_run(
                    lambda mgr: inverse_chase(mapping, target, checkpoint=mgr),
                    schedule=schedule,
                    checkpoint_path=path,
                )
            try:
                assert report.result == ref, "results differ"
                assert_parity(report, ref_delta)
                # A lineage that resumed past the scheduled boundary
                # finishes before its crash fires, so <= rather than ==.
                assert report.crashes <= len(schedule.crashes())
                assert report.lineages == report.crashes + 1
            except AssertionError as exc:
                failures.append((seed, schedule, str(exc)))
        assert not failures, failures


class TestClockSkew:
    def test_skewed_cadence_clock_stays_correct(
        self, tmp_path, workload, references
    ):
        mapping, target = workload
        ref, ref_delta = references["object"]
        schedule = FaultSchedule(5, kinds=("crash", "clock_skew"), max_crashes=3)
        report = chaos_run(
            lambda mgr: inverse_chase(mapping, target, checkpoint=mgr),
            schedule=schedule,
            checkpoint_path=tmp_path / "snap",
        )
        assert report.result == ref
        assert_parity(report, ref_delta)

    def test_deadline_skewed_backward_saves_and_resumes(
        self, tmp_path, workload, references
    ):
        """Clock skew that expires a deadline mid-run: the error-path
        snapshot still lands and the next lineage finishes the work."""
        mapping, target = workload
        ref, _ = references["object"]
        path = tmp_path / "snap"
        deadline = Deadline(wall_ms=60_000)
        mgr = ChaoticCheckpointManager(path, every_ms=0.0001)
        # Simulate the skew: the deadline's absolute expiry jumps into
        # the past, as a clock_skew fault does to a live deadline.
        deadline._expires_at -= 120.0
        with pytest.raises(DeadlineExceededError):
            inverse_chase(mapping, target, checkpoint=mgr, deadline=deadline)
        out = inverse_chase(
            mapping, target, checkpoint=CheckpointManager(path, resume=True)
        )
        assert out == ref


class TestCrashWithoutAnySave:
    def test_crash_before_first_save_resumes_cold(
        self, tmp_path, workload, references
    ):
        mapping, target = workload
        ref, ref_delta = references["object"]
        path = tmp_path / "snap"
        # A cadence so long the run never saves: the crash loses
        # everything and the resume must silently cold-start.
        mgr = ChaoticCheckpointManager(path, every_ms=3_600_000, crash_after=1)
        with pytest.raises(InjectedCrash):
            inverse_chase(mapping, target, checkpoint=mgr)
        resumed = CheckpointManager(path, resume=True)
        base = METRICS.snapshot()
        out = inverse_chase(mapping, target, checkpoint=resumed)
        assert out == ref
        assert resumed.resume_outcome == "no-snapshot"
        delta = {k: METRICS.delta_since(base).get(k, 0) for k in WORK}
        assert delta == ref_delta


class TestCorruptionEveryLineage:
    def test_always_corrupted_schedule_still_converges(
        self, tmp_path, workload, references
    ):
        """Worst case: every snapshot is corrupted before its resume.
        Every lineage cold-starts, yet the run converges and the final
        lineage is an ordinary uninterrupted computation."""
        mapping, target = workload
        ref, ref_delta = references["object"]

        class AlwaysCorrupt(FaultSchedule):
            def __init__(self):
                super().__init__(17, kinds=("crash",), max_crashes=3)
                # Save at every boundary so there is always a snapshot
                # on disk for the corruption fault to destroy.
                self.every_ms = 0.0001
                self.faults = tuple(
                    list(self.faults)
                    + [
                        Fault("corrupt_checkpoint", lineage, 4)
                        for lineage in range(1, 5)
                    ]
                )

        report = chaos_run(
            lambda mgr: inverse_chase(mapping, target, checkpoint=mgr),
            schedule=AlwaysCorrupt(),
            checkpoint_path=tmp_path / "snap",
        )
        assert report.result == ref
        assert report.corruptions >= 1
        assert_parity(report, ref_delta)
