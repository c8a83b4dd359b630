"""Unit tests for the Derby workload: lrand48, schema, generator, config."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.derby import DerbyConfig, Lrand48, build_derby_schema, generate
from repro.derby.config import Clustering
from repro.objects import AttrKind
from repro.objects.codec import RecordCodec
from repro.objects.header import ObjectHeader


class TestLrand48:
    def test_known_sequence_seed_zero(self):
        """First values of lrand48 after srand48(0), verified against
        glibc (gcc-compiled reference run)."""
        rng = Lrand48(0)
        assert [rng.lrand48() for __ in range(5)] == [
            366850414,
            1610402240,
            206956554,
            1869309841,
            1239749840,
        ]

    def test_known_sequence_seed_one(self):
        rng = Lrand48(1)
        first = rng.lrand48()
        assert 0 <= first < 2**31
        rng2 = Lrand48(1)
        assert rng2.lrand48() == first

    def test_reseeding_restarts_stream(self):
        rng = Lrand48(7)
        a = [rng.lrand48() for __ in range(3)]
        rng.srand48(7)
        assert [rng.lrand48() for __ in range(3)] == a

    def test_randint_1_to_bounds(self):
        rng = Lrand48(3)
        draws = [rng.randint_1_to(10) for __ in range(1000)]
        assert min(draws) == 1
        assert max(draws) == 10

    def test_randrange_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Lrand48(0).randrange(0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50)
    def test_property_output_range(self, seed):
        rng = Lrand48(seed)
        for __ in range(10):
            assert 0 <= rng.lrand48() < 2**31


class TestDerbySchema:
    def test_classes_and_attributes(self):
        schema = build_derby_schema()
        provider = schema.cls("Provider")
        patient = schema.cls("Patient")
        assert provider.attribute("clients").is_variable
        assert patient.attribute("primary_care_provider").target == "Provider"
        assert patient.attribute("sex").kind is AttrKind.CHAR

    def test_object_sizes_match_paper(self):
        """Paper §2: providers ~120 bytes, patients ~60 bytes."""
        schema = build_derby_schema()
        provider_codec = RecordCodec(schema.cls("Provider"))
        patient_codec = RecordCodec(schema.cls("Patient"))
        header = ObjectHeader.for_new_object(1, in_indexed_collection=True)
        provider = provider_codec.encode(
            header, {"name": "x", "upin": 1, "clients": [(0, 0, 0)] and None}
        )
        patient = patient_codec.encode(header, {"name": "y", "mrn": 1})
        assert 90 <= len(provider) + 3 * 8 <= 130   # with 3 inline clients
        assert 50 <= len(patient) <= 70


class TestDerbyConfig:
    def test_paper_databases_at_scale(self):
        cfg = DerbyConfig.db_1to1000(scale=0.01)
        assert cfg.n_providers == 20
        assert cfg.n_patients == 20_000
        cfg = DerbyConfig.db_1to3(scale=0.01)
        assert cfg.n_providers == 10_000
        assert cfg.n_patients == 30_000

    def test_memory_scales_with_database(self):
        cfg = DerbyConfig.db_1to3(scale=0.01)
        assert cfg.params.memory.client_cache_pages == pytest.approx(82, abs=3)

    def test_thresholds(self):
        cfg = DerbyConfig.db_1to1000(scale=0.01)
        assert cfg.mrn_threshold(10) == 2001
        assert cfg.upin_threshold(50) == 11
        assert cfg.num_threshold(10) == 17999

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DerbyConfig(n_providers=0, n_patients=5)

    def test_avg_children(self):
        assert DerbyConfig.db_1to3(scale=0.01).avg_children == pytest.approx(3.0)


class TestGenerator:
    def test_deterministic(self):
        cfg = DerbyConfig(n_providers=10, n_patients=30, scale=1.0)
        a, b = generate(cfg), generate(cfg)
        assert a.random_integer == b.random_integer

    def test_ranks_are_creation_order(self):
        cfg = DerbyConfig(n_providers=5, n_patients=20, scale=1.0)
        logical = generate(cfg)
        assert list(logical.upin) == [1, 2, 3, 4, 5]
        assert list(logical.mrn) == list(range(1, 21))

    def test_assignment_consistency(self):
        cfg = DerbyConfig(n_providers=7, n_patients=50, scale=1.0)
        logical = generate(cfg)
        for i in range(logical.n_providers):
            for j in logical.patients_of(i):
                assert logical.owner[j] == i
        total = sum(len(logical.patients_of(i)) for i in range(logical.n_providers))
        assert total == 50

    def test_random_integer_in_provider_range(self):
        cfg = DerbyConfig(n_providers=9, n_patients=200, scale=1.0)
        logical = generate(cfg)
        assert all(1 <= r <= 9 for r in logical.random_integer)

    def test_num_in_patient_range(self):
        cfg = DerbyConfig(n_providers=3, n_patients=100, scale=1.0)
        logical = generate(cfg)
        assert all(0 <= num < 100 for num in logical.num)

    def test_average_children_close_to_ratio(self):
        cfg = DerbyConfig(n_providers=50, n_patients=5000, scale=1.0)
        logical = generate(cfg)
        sizes = [len(logical.patients_of(i)) for i in range(logical.n_providers)]
        assert sum(sizes) / len(sizes) == pytest.approx(100.0)
        # lrand48 is uniform: no provider should be wildly off.
        assert min(sizes) > 50
        assert max(sizes) < 160
