"""Tests for the seeded transient-fault chaos checker."""

from __future__ import annotations

from repro.service.chaos import ChaosResult, run_case, run_chaos, summarize

from .chaos_pins import assert_pinned


class TestChaosChecker:
    def test_smoke_cases_hold_the_robustness_contract(self):
        # Each case injects seeded faults into a fresh mix and asserts
        # zero leaked locks/handles, committed-visible, uncommitted-gone
        # and a bit-identical double run.
        results = run_chaos(8, base_seed=0)
        assert len(results) == 8
        for r in results:
            assert r.ok, f"seed {r.seed}: {r.failures}"
        # The grid actually exercised the machinery somewhere.
        assert sum(r.committed for r in results) > 0
        assert any(r.storms for r in results)

    def test_case_digest_is_reproducible(self):
        a = run_case(3, check_determinism=False)
        b = run_case(3, check_determinism=False)
        assert a.ok and b.ok
        assert a.digest == b.digest
        assert (a.committed, a.aborted, a.retries, a.io_faults) == (
            b.committed, b.aborted, b.retries, b.io_faults
        )

    def test_pinned_digests_do_not_move(self):
        assert_pinned(
            "service",
            {str(s): run_case(s, check_determinism=False) for s in range(25)},
        )

    def test_faults_are_actually_injected_somewhere(self):
        results = run_chaos(8, base_seed=0, check_determinism=False)
        assert sum(r.io_faults for r in results) >= 1

    def test_summarize_reports_the_aggregate(self):
        results = [
            ChaosResult(
                seed=0, clients=2, ops_per_client=2, read_fault_rate=0.01,
                storms=True, committed=4, aborted=0, retries=0,
                io_faults=1,
            ),
            ChaosResult(
                seed=1, clients=3, ops_per_client=2, read_fault_rate=0.05,
                storms=False, committed=5, aborted=1, retries=1,
                io_faults=0, failures=["1 locks leaked"],
            ),
        ]
        text = str(summarize(results))
        assert "1/2 cases clean" in text
        assert "9 commits" in text
        assert "FAIL" in text
