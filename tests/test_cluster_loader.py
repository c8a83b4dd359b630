"""Integration tests for the clustering loaders.

These build small but complete Derby databases under every physical
organization and verify both correctness (every reference resolves, sets
match the logical association) and the physical properties the paper's
experiments rely on (placement order, index clustering ratios).
"""

from __future__ import annotations

import pytest

from repro.cluster import DerbyDatabase, load_derby
from repro.cluster.strategies import placement_order
from repro.derby import DerbyConfig, generate
from repro.derby.config import Clustering
from repro.objects.codec import InlineSet, OverflowSet


def tiny_config(clustering=Clustering.CLASS, **overrides) -> DerbyConfig:
    return DerbyConfig(
        n_providers=20,
        n_patients=600,
        clustering=clustering,
        scale=0.001,
        params=DerbyConfig.db_1to3(scale=0.001).params,
        **overrides,
    )


@pytest.fixture(scope="module")
def class_db() -> DerbyDatabase:
    return load_derby(tiny_config(Clustering.CLASS))


@pytest.fixture(scope="module")
def comp_db() -> DerbyDatabase:
    return load_derby(tiny_config(Clustering.COMPOSITION))


@pytest.fixture(scope="module")
def random_db() -> DerbyDatabase:
    return load_derby(tiny_config(Clustering.RANDOM))


class TestPlacementOrder:
    def test_class_order_is_providers_then_patients(self):
        logical = generate(tiny_config())
        steps = list(placement_order(logical, Clustering.CLASS))
        kinds = [k for k, __, ___ in steps]
        assert kinds == ["P"] * 20 + ["p"] * 600

    def test_composition_interleaves_by_owner(self):
        logical = generate(tiny_config())
        steps = list(placement_order(logical, Clustering.COMPOSITION))
        owner = None
        for kind, idx, __ in steps:
            if kind == "P":
                owner = idx
            else:
                assert logical.patients[idx].provider_idx == owner

    def test_random_order_is_shuffled_but_complete(self):
        logical = generate(tiny_config())
        steps = list(placement_order(logical, Clustering.RANDOM))
        assert len(steps) == 620
        kinds = [k for k, __, ___ in steps]
        assert kinds != ["P"] * 20 + ["p"] * 600
        assert sorted(i for k, i, __ in steps if k == "P") == list(range(20))
        assert sorted(i for k, i, __ in steps if k == "p") == list(range(600))

    def test_association_uses_two_files(self):
        logical = generate(tiny_config())
        steps = list(placement_order(logical, Clustering.ASSOCIATION))
        files = {k: {f for kk, __, f in steps if kk == k} for k in ("P", "p")}
        assert files["P"] == {"providers"}
        assert files["p"] == {"patients"}


class TestLoadedDatabase:
    def test_counts(self, class_db):
        assert len(class_db.provider_rids) == 20
        assert len(class_db.patient_rids) == 600
        assert len(class_db.providers) == 20
        assert len(class_db.patients) == 600

    def test_every_patient_references_its_provider(self, class_db):
        logical = generate(class_db.config)
        om = class_db.db.manager
        for j, prid in enumerate(class_db.patient_rids):
            owner_rid = om.get_attr_at(prid, "primary_care_provider")
            owner_upin = om.get_attr_at(owner_rid, "upin")
            assert owner_upin == logical.patients[j].random_integer

    def test_clients_sets_match_association(self, class_db):
        logical = generate(class_db.config)
        om = class_db.db.manager
        db = class_db.db
        for i in range(20):
            handle = om.load(class_db.provider_rids[i])
            clients = om.get_attr(handle, "clients")
            om.unref(handle)
            members = set(db.iter_set_rids(clients))
            expected = {
                class_db.patient_rids[j]
                for j in logical.providers[i].patient_idxs
            }
            assert members == expected

    def test_indexes_complete(self, class_db):
        assert class_db.by_mrn.entry_count == 600
        assert class_db.by_upin.entry_count == 20
        assert class_db.by_num.entry_count == 600

    def test_index_lookup_returns_right_object(self, class_db):
        om = class_db.db.manager
        rids = class_db.by_mrn.lookup(42)
        assert len(rids) == 1
        assert om.get_attr_at(rids[0], "mrn") == 42

    def test_mrn_index_clustered_in_class_layout(self, class_db):
        """mrn follows creation order, which class clustering preserves."""
        assert class_db.by_mrn.clustering_ratio > 0.95

    def test_num_index_unclustered(self, class_db):
        """num is a random key: ~half the adjacent pairs are out of order."""
        assert class_db.by_num.clustering_ratio < 0.65

    def test_mrn_index_unclustered_in_composition_layout(self, comp_db):
        """Composition reorders patients by provider, so mrn order no
        longer matches physical order — the effect behind Figure 13's
        slow NOJOIN."""
        assert comp_db.by_mrn.clustering_ratio < 0.65

    def test_upin_index_clustered_everywhere_but_random(
        self, class_db, comp_db, random_db
    ):
        assert class_db.by_upin.clustering_ratio > 0.9
        assert comp_db.by_upin.clustering_ratio > 0.9
        assert random_db.by_upin.clustering_ratio < 0.75

    def test_class_layout_uses_two_data_files(self, class_db):
        assert class_db.db.has_file("providers")
        assert class_db.db.has_file("patients")

    def test_composition_layout_uses_one_data_file(self, comp_db):
        assert comp_db.db.has_file("objects")
        assert not comp_db.db.has_file("providers")

    def test_load_report(self, class_db):
        report = class_db.load_report
        assert report.objects_created == 620
        assert report.seconds > 0
        assert report.commits >= 1
        assert report.disk_pages > 0

    def test_start_cold_run(self, class_db):
        class_db.start_cold_run()
        assert class_db.db.clock.elapsed_s == 0.0
        assert class_db.db.counters.disk_reads == 0
        assert len(class_db.db.system.client_cache) == 0


class TestSetSpilling:
    def test_1to1000_clients_spill(self):
        cfg = DerbyConfig(
            n_providers=2,
            n_patients=1200,
            clustering=Clustering.CLASS,
            scale=0.001,
        )
        derby = load_derby(cfg)
        om = derby.db.manager
        handle = om.load(derby.provider_rids[0])
        clients = om.get_attr(handle, "clients")
        om.unref(handle)
        assert isinstance(clients, OverflowSet)
        assert clients.count > 400

    def test_1to3_clients_inline(self, class_db):
        om = class_db.db.manager
        handle = om.load(class_db.provider_rids[0])
        clients = om.get_attr(handle, "clients")
        om.unref(handle)
        assert isinstance(clients, InlineSet)


class TestLoadingModes:
    def test_logged_load_costs_more(self):
        fast = load_derby(tiny_config(logged_load=False)).load_report.seconds
        slow = load_derby(tiny_config(logged_load=True)).load_report.seconds
        assert slow > fast

    def test_index_after_load_rewrites_headers(self):
        derby = load_derby(tiny_config(index_first=False))
        reports = derby.load_report.index_reports
        assert set(reports) == {
            "Providers_by_upin",
            "Patients_by_mrn",
            "Patients_by_num",
        }
        # First patient index grows every header...
        assert reports["Patients_by_mrn"].headers_grown == 600
        # ...the second one finds free slots.
        assert reports["Patients_by_num"].headers_grown == 0

    def test_index_first_avoids_record_moves_from_indexing(self):
        first = load_derby(tiny_config(index_first=True))
        after = load_derby(tiny_config(index_first=False))
        assert (
            after.load_report.records_moved > first.load_report.records_moved
        )

    def test_commit_batching(self):
        derby = load_derby(tiny_config(commit_batch=100))
        assert derby.load_report.commits >= 6

    def test_queries_agree_across_clusterings(self, class_db, comp_db, random_db):
        """Three physical representations of the same logical database
        must answer the same question identically."""
        def ages(derby: DerbyDatabase) -> list[int]:
            om = derby.db.manager
            out = []
            for __, rid in derby.by_mrn.range_scan(None, 50):
                out.append(om.get_attr_at(rid, "age"))
            return out

        assert ages(class_db) == ages(comp_db) == ages(random_db)
