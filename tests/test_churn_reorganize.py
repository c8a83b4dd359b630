"""Tests for update churn and dump-and-reload reorganization."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.bench import ExperimentRunner
from repro.cluster import load_derby
from repro.cluster.churn import register_new_patients
from repro.cluster.reorganize import dump_and_reload, dump_logical
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.simtime import CostParams


def comp_config(**overrides) -> DerbyConfig:
    return DerbyConfig(
        n_providers=20,
        n_patients=1000,
        clustering=Clustering.COMPOSITION,
        scale=0.002,
        params=CostParams().scaled(0.002),
        **overrides,
    )


class TestChurn:
    def test_registration_extends_everything(self):
        derby = load_derby(comp_config())
        report = register_new_patients(derby, 60)
        assert report.new_patients == 60
        assert len(derby.patient_rids) == 1060
        assert len(derby.patients) == 1060
        assert derby.by_mrn.entry_count == 1060
        assert derby.by_num.entry_count == 1060

    def test_new_patients_query_correctly(self):
        derby = load_derby(comp_config())
        register_new_patients(derby, 40)
        om = derby.db.manager
        # Every new patient is reachable through the mrn index and
        # back-references a real provider.
        for mrn in range(1001, 1041):
            (rid,) = derby.by_mrn.lookup(mrn)
            owner = om.get_attr_at(rid, "primary_care_provider")
            assert om.get_attr_at(owner, "upin") >= 1

    def test_new_patients_join_in_clients_sets(self):
        derby = load_derby(comp_config())
        register_new_patients(derby, 30)
        db, om = derby.db, derby.db.manager
        members = set()
        for provider_rid in derby.provider_rids:
            handle = om.load(provider_rid)
            clients = om.get_attr(handle, "clients")
            om.unref(handle)
            members.update(db.iter_set_rids(clients))
        assert members == set(derby.patient_rids)

    def test_churn_fragments_composition_clustering(self):
        derby = load_derby(comp_config())
        runner = ExperimentRunner(derby)
        before = runner.run_join("NL", 90, 90).elapsed_s
        register_new_patients(derby, 500)  # +50% tail-appended patients
        after = runner.run_join("NL", 90, 90).elapsed_s
        assert after > before * 1.1

    def test_negative_count_rejected(self):
        derby = load_derby(comp_config())
        with pytest.raises(ValueError):
            register_new_patients(derby, -1)


class TestDumpReload:
    def test_dump_recovers_logical_content(self):
        config = comp_config()
        derby = load_derby(config)
        logical = generate(config)
        dumped = dump_logical(derby)
        assert list(dumped.upin) == list(logical.upin)
        assert list(dumped.mrn) == list(logical.mrn)
        assert dumped.random_integer == logical.random_integer
        assert [
            dumped.patients_of(i) for i in range(dumped.n_providers)
        ] == [logical.patients_of(i) for i in range(logical.n_providers)]

    def test_dump_charges_io(self):
        derby = load_derby(comp_config())
        derby.start_cold_run()
        dump_logical(derby)
        assert derby.db.counters.disk_reads > 0

    def test_reload_preserves_query_answers(self):
        derby = load_derby(comp_config())
        register_new_patients(derby, 100)
        before = ExperimentRunner(derby).run_join("PHJ", 50, 50)
        fresh, __ = dump_and_reload(derby)
        after = ExperimentRunner(fresh).run_join("PHJ", 50, 50)
        assert before.rows == after.rows  # same row count pre/post reload

    def test_reload_restores_navigation_performance(self):
        """The paper's maintenance advice, measured: churn degrades NL
        under composition clustering; dump-and-reload restores it."""
        derby = load_derby(comp_config())
        runner = ExperimentRunner(derby)
        pristine = runner.run_join("NL", 90, 90).elapsed_s
        register_new_patients(derby, 500)
        fragmented = runner.run_join("NL", 90, 90).elapsed_s
        fresh, report = dump_and_reload(derby)
        restored = ExperimentRunner(fresh).run_join("NL", 90, 90).elapsed_s
        assert fragmented > pristine
        # The reloaded database has 1.5x the data, so compare per-row.
        assert restored < fragmented
        assert report.dump_seconds > 0
        assert report.reload_seconds > 0

    def test_reload_can_convert_clustering(self):
        """The dump is the logical database, whatever the organization:
        loading it under another strategy converts the database -- the
        way the paper built its three representations of one logical
        database."""
        derby = load_derby(comp_config())
        logical = dump_logical(derby)
        config = replace(logical.config, clustering=Clustering.CLASS)
        fresh = load_derby(config, logical=replace(logical, config=config))
        assert fresh.config.clustering is Clustering.CLASS
        assert fresh.db.has_file("providers")
        # Same answers under the new organization.
        a = ExperimentRunner(derby).run_join("PHJ", 30, 30)
        b = ExperimentRunner(fresh).run_join("PHJ", 30, 30)
        assert a.rows == b.rows
