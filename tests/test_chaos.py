"""Tests for the chaos harness and the seeded transient-fault suite."""

from __future__ import annotations

from repro.recovery import Suite, check_last_writer, run_case, run_suite
from repro.recovery.harness import Case
from repro.service.chaos import SERVICE

from .chaos_pins import assert_pinned


class TestChaosChecker:
    def test_smoke_cases_hold_the_robustness_contract(self):
        # Each case injects seeded faults into a fresh mix and asserts
        # zero leaked locks/handles, committed-visible, uncommitted-gone
        # and a bit-identical double run.
        results = run_suite(SERVICE, 8, base_seed=0)
        assert len(results) == 8
        for r in results:
            assert r.ok, f"seed {r.seed}: {r.failures}"
        # The grid actually exercised the machinery somewhere.
        assert sum(r.row["Committed"] for r in results) > 0
        assert any(r.row["Storms"] for r in results)

    def test_case_digest_is_reproducible(self):
        a = run_case(SERVICE, 3, check_determinism=False)
        b = run_case(SERVICE, 3, check_determinism=False)
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert a.row == b.row

    def test_pinned_digests_do_not_move(self):
        assert_pinned(
            "service",
            {
                str(s): run_case(SERVICE, s, check_determinism=False)
                for s in range(25)
            },
        )

    def test_faults_are_actually_injected_somewhere(self):
        results = run_suite(SERVICE, 8, base_seed=0, check_determinism=False)
        assert sum(r.row["IOFaults"] for r in results) >= 1

    def test_summarize_reports_the_aggregate(self):
        def row(clients, rate, storms, committed, aborted, io_faults):
            return {
                "Clients": clients, "Ops": 2, "FaultRate": rate,
                "Storms": storms, "Iso": "2pl", "Committed": committed,
                "Aborted": aborted, "Retries": aborted, "Conflicts": 0,
                "IOFaults": io_faults,
            }

        results = [
            Case(0, (), row(2, 0.01, True, 4, 0, 1), (), []),
            Case(1, (), row(3, 0.05, False, 5, 1, 0), (), ["1 locks leaked"]),
        ]
        text = str(SERVICE.summarize(results))
        assert "1/2 cases clean" in text
        assert "9 commits" in text
        assert "FAIL" in text


def _toy_suite(digests, invariants=()):
    """A suite whose successive executions report ``digests`` in turn."""
    stream = iter(digests)

    def execute(seed):
        return {"Seen": seed}, next(stream), f"evidence-{seed}"

    return Suite(
        "toy", execute, list(invariants),
        title="Toy: {n} cases", note=lambda cases: "nothing to add",
    )


class TestHarness:
    def test_differing_rerun_digest_is_a_determinism_failure(self):
        result = run_case(_toy_suite([(1,), (2,)]), 7)
        assert result.failures == [
            "seed 7: re-run produced a different digest "
            "(determinism violated)"
        ]

    def test_identical_rerun_digest_is_clean(self):
        assert run_case(_toy_suite([(1,), (1,)]), 7).failures == []
        # Without the check the case runs once (one digest suffices).
        single = run_case(_toy_suite([(1,)]), 7, check_determinism=False)
        assert single.failures == []

    def test_every_invariant_sees_the_evidence_of_every_seed(self):
        seen = []

        def leaky(evidence):
            seen.append(evidence)
            return [f"{evidence} leaked"]

        suite = _toy_suite([()] * 3, invariants=[leaky, lambda ev: []])
        results = run_suite(suite, 3, base_seed=5, check_determinism=False)
        assert [r.seed for r in results] == [5, 6, 7]
        assert seen == ["evidence-5", "evidence-6", "evidence-7"]
        assert results[1].failures == ["evidence-6 leaked"]

    def test_an_invariant_broken_only_on_the_rerun_fails_the_case(self):
        runs = []

        def flaky(evidence):
            runs.append(evidence)
            return ["stale lock"] if len(runs) == 2 else []

        suite = _toy_suite([(1,), (1,)], invariants=[flaky])
        case = run_case(suite, 7)
        assert not case.ok
        assert case.failures == ["re-run: stale lock"]

    def test_a_failure_seen_on_both_runs_is_reported_once(self):
        suite = _toy_suite([(1,), (1,)], invariants=[lambda ev: ["leak"]])
        assert run_case(suite, 7).failures == ["leak"]

    def test_summarize_renders_one_row_per_case(self):
        suite = _toy_suite([])
        text = str(suite.summarize([
            Case(3, (), {"Seen": True}, (), []),
            Case(4, (), {"Seen": False}, (), ["x"]),
        ]))
        assert text.startswith("Toy: 2 cases\n")
        assert "3    | yes  | ok" in text
        assert "4    | no   | FAIL" in text
        assert "1/2 cases clean; nothing to add" in text


class TestLastWriterOracle:
    """The oracle must kill the bug classes it exists for."""

    PRELOAD = {"a": 10, "b": 20}

    def test_last_acked_and_staged_writes_are_the_expected_state(self):
        assert check_last_writer(
            self.PRELOAD,
            write_log=[("a", 11), ("a", 12)],
            staged=[("b", 21)],
            final={"a": 12, "b": 21},
        ) == []

    def test_lost_acked_write(self):
        assert check_last_writer(
            self.PRELOAD, [("a", 11)], final={"a": 10, "b": 20}
        ) == ["'a': expected 11, durable value 10 (lost update)"]

    def test_never_committed_value(self):
        failures = check_last_writer(
            self.PRELOAD, [("a", 11)], final={"a": 11, "b": 99}
        )
        assert (
            "'b': durable value 99 was never committed (dirty write survived)"
            in failures
        )

    def test_created_record_that_should_be_gone(self):
        # The recovery suite watches every record its workload created,
        # preloaded as None (gone): a loser's create that survived
        # recovery reads back a value nobody committed.
        assert check_last_writer(
            {"a": 10, "c": None}, [("a", 11)], final={"a": 11, "c": 7}
        ) == [
            "'c': expected None, durable value 7 (lost update)",
            "'c': durable value 7 was never committed (dirty write survived)",
        ]

    def test_missing_decided_but_unacked_write(self):
        assert check_last_writer(
            self.PRELOAD, [], final={"a": 10, "b": 20}, staged=[("b", 21)]
        ) == ["'b': expected 21, durable value 20 (lost update)"]

    def test_lossy_shard_tolerates_loss_but_never_a_dirty_write(self):
        def lossy(key):
            return key != "a"  # "a" sits on an async shard that lost records

        # The acked write to "a" is gone: the documented bounded loss.
        assert check_last_writer(
            self.PRELOAD, [("a", 11)], final={"a": 10, "b": 20}, exact=lossy
        ) == []
        # A value nobody ever committed is not a loss, it is corruption.
        assert check_last_writer(
            self.PRELOAD, [("a", 11)], final={"a": 99, "b": 20}, exact=lossy
        ) == ["'a': durable value 99 was never committed (dirty write survived)"]

    def test_write_outside_the_watched_set_is_reported(self):
        assert check_last_writer(
            self.PRELOAD, [("z", 1)], final=dict(self.PRELOAD)
        ) == ["'z': acked write outside the watched set"]
