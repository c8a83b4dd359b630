"""Stateful (model-based) testing of the B+-tree against a reference
implementation, using hypothesis rule-based state machines."""

from __future__ import annotations

import bisect

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.index import BTreeIndex
from repro.storage import DirectPager, DiskManager, Rid

_KEYS = st.integers(min_value=-1000, max_value=1000)


class BTreeMachine(RuleBasedStateMachine):
    """Drive the B+-tree with random inserts/removes/scans and compare
    every observable against a sorted-list reference model."""

    @initialize()
    def setup(self):
        disk = DiskManager()
        from repro.storage import StorageFile

        index_file = StorageFile(disk, DirectPager(disk))
        # A small leaf capacity exercises splits constantly.
        self.index = BTreeIndex("model", 1, index_file, int, leaf_capacity=8)
        self.model: list[tuple[int, Rid]] = []
        self.counter = 0

    @rule(key=_KEYS)
    def insert(self, key):
        rid = Rid(0, self.counter, 0)
        self.counter += 1
        self.index.insert(key, rid)
        bisect.insort(self.model, (key, rid))

    @rule(key=_KEYS)
    def remove_one(self, key):
        matches = [pair for pair in self.model if pair[0] == key]
        if matches:
            assert self.index.remove(key, matches[0][1])
            self.model.remove(matches[0])
        else:
            assert not self.index.remove(key, Rid(0, 999_999, 0))

    @rule(key=_KEYS)
    def lookup(self, key):
        expected = [rid for k, rid in self.model if k == key]
        assert self.index.lookup(key) == expected

    @rule(low=_KEYS, high=_KEYS)
    def range_scan(self, low, high):
        if low > high:
            low, high = high, low
        expected = [(k, r) for k, r in self.model if low <= k <= high]
        scanned = list(self.index.range_scan(low, high))
        assert scanned == expected

    @invariant()
    def count_matches(self):
        if hasattr(self, "model"):
            assert self.index.entry_count == len(self.model)

    @invariant()
    def full_scan_is_sorted_model(self):
        if hasattr(self, "model"):
            scanned = list(self.index.range_scan())
            assert scanned == self.model


BTreeMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=40, deadline=None
)
TestBTreeStateful = BTreeMachine.TestCase
