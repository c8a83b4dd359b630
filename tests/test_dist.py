"""Tests for the sharding subsystem: partitioning, the distributed
coordinator, cross-shard deadlocks and two-phase commit."""

from __future__ import annotations

import pytest

from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.generator import generate
from repro.dist import (
    TWOPC,
    TWOPC_CRASH_POINTS,
    Coordinator,
    ShardedMixConfig,
    ShardedWorkload,
    TwoPCInjector,
    hash_shard,
    load_sharded,
    range_shard,
    split_logical,
)
from repro.errors import (
    DeadlockError,
    DistPlanError,
    RecoveryError,
    SimulatedCrashError,
    TwoPCError,
)
from repro.oql import Catalog, OQLEngine
from repro.recovery import TransientFaultInjector, run_case
from repro.service import CooperativeScheduler

from .chaos_pins import assert_pinned

TINY = 0.00001   # 10 providers / 30 patients
SMALL = 0.0002   # 200 providers / 600 patients


@pytest.fixture(scope="module")
def small_logical():
    return generate(DerbyConfig.db_1to3(scale=SMALL))


@pytest.fixture(scope="module")
def small_single(small_logical):
    derby = load_derby(small_logical.config, logical=small_logical)
    return derby, OQLEngine(Catalog.from_derby(derby))


def make_cluster(n_shards, scale=TINY, scheme="hash", **kwargs):
    return load_sharded(
        DerbyConfig.db_1to3(scale=scale), n_shards, scheme=scheme, **kwargs
    )


# -- partitioning --------------------------------------------------------


def test_hash_shard_is_deterministic_and_in_range():
    for upin in range(1, 200):
        shard = hash_shard(upin, 4)
        assert shard == hash_shard(upin, 4)
        assert 0 <= shard < 4


def test_range_shard_covers_all_shards_in_order():
    shards = [range_shard(upin, 100, 4) for upin in range(1, 101)]
    assert shards == sorted(shards)
    assert set(shards) == {0, 1, 2, 3}


@pytest.mark.parametrize("scheme", ["hash", "range"])
def test_split_assigns_every_object_once(scheme):
    logical = generate(DerbyConfig.db_1to3(scale=TINY))
    part, views = split_logical(logical, 3, scheme)
    sizes = part.shard_sizes()
    assert sum(p for p, __ in sizes) == len(logical.providers)
    assert sum(q for __, q in sizes) == len(logical.patients)
    for shard_id, view in enumerate(views):
        assert len(view.providers) == sizes[shard_id][0]
        assert len(view.patients) == sizes[shard_id][1]


def test_patients_are_colocated_with_their_provider():
    logical = generate(DerbyConfig.db_1to3(scale=TINY))
    part, __ = split_logical(logical, 4, "hash")
    for idx, patient in enumerate(logical.patients):
        provider_idx = patient.random_integer - 1
        assert part.patient_shard[idx] == part.provider_shard[provider_idx]


def test_one_shard_split_reproduces_original_placement():
    logical = generate(DerbyConfig.db_1to3(scale=TINY))
    part, views = split_logical(logical, 1, "hash")
    assert part.shard_sizes() == [(len(logical.providers),
                                   len(logical.patients))]
    view = views[0]
    assert [p.upin for p in view.providers] == [
        p.upin for p in logical.providers
    ]
    assert [q.mrn for q in view.patients] == [q.mrn for q in logical.patients]


def test_split_rejects_bad_scheme_and_shard_count():
    from repro.errors import PartitionError

    logical = generate(DerbyConfig.db_1to3(scale=TINY))
    with pytest.raises(PartitionError):
        split_logical(logical, 0, "hash")
    with pytest.raises(PartitionError):
        split_logical(logical, 2, "round-robin")


# -- distributed queries -------------------------------------------------

EQUIVALENCE_QUERIES = [
    "select p.age from p in Patients",
    "select p.age from p in Patients where p.num > {thr}",
    "select tuple(a: p.age, n: p.num) from p in Patients where p.num > {thr}",
    "select distinct p.age from p in Patients where p.num > {thr}",
    "select p.age from p in Patients where p.num > {thr} "
    "order by p.age desc limit 10",
    "select tuple(a: p.age, m: p.mrn) from p in Patients "
    "where p.num > {thr} order by p.mrn limit 7",
    "select count(*) from p in Patients",
    "select count(*) from p in Patients where p.num > {thr}",
    "select sum(p.age) from p in Patients where p.num <= {thr}",
    "select avg(p.age) from p in Patients where p.num > {thr}",
    "select min(p.mrn) from p in Patients where p.num > {thr}",
    "select max(p.age) from p in Patients",
    "select tuple(u: d.upin, a: p.age) from d in Providers, p in d.clients "
    "where d.upin < {pthr} and p.num < {thr}",
]


@pytest.mark.parametrize("n_shards", [1, 3])
def test_distributed_answers_match_single_node(
    small_logical, small_single, n_shards
):
    derby, engine = small_single
    config = small_logical.config
    cluster = load_sharded(config, n_shards, logical=small_logical)
    coordinator = Coordinator(cluster)
    thr = config.num_threshold(30.0)
    pthr = config.upin_threshold(50.0)
    for template in EQUIVALENCE_QUERIES:
        query = template.format(thr=thr, pthr=pthr)
        base = engine.execute(query)
        rows = coordinator.execute(query)
        if "order by" in query:
            assert rows == base, query
        else:
            assert sorted(rows, key=repr) == sorted(base, key=repr), query


def test_exchange_scales_elapsed_below_single_shard(small_logical):
    config = small_logical.config
    thr = config.num_threshold(50.0)
    query = f"select p.age from p in Patients where p.num > {thr}"
    elapsed = {}
    for n_shards in (1, 4):
        cluster = load_sharded(config, n_shards, logical=small_logical)
        cluster.start_cold()
        rows = Coordinator(cluster).execute(query)
        elapsed[n_shards] = cluster.elapsed_s
        assert len(rows) > 0
    # Virtual parallelism: four shards scanning a quarter each must beat
    # one shard scanning everything.
    assert elapsed[4] < elapsed[1]


def test_execute_iter_streams_batches(small_logical):
    config = small_logical.config
    cluster = load_sharded(config, 2, logical=small_logical)
    coordinator = Coordinator(cluster)
    pulls = []
    cursor = coordinator.execute_iter(
        "select p.age from p in Patients",
        on_batch=lambda: pulls.append(1),
        batch_size=64,
    )
    rows = []
    for batch in cursor.batches():
        rows.extend(batch)
    assert len(rows) == len(small_logical.patients)
    assert len(pulls) > 2  # one per shard pull, not one per drain


def test_execute_iter_rejects_aggregates(small_logical):
    cluster = load_sharded(small_logical.config, 2, logical=small_logical)
    coordinator = Coordinator(cluster)
    with pytest.raises(DistPlanError):
        coordinator.execute_iter("select count(*) from p in Patients")


# -- cross-shard deadlocks -----------------------------------------------


def _patient_on(cluster, shard_id, slot=0):
    node = cluster.nodes[shard_id]
    return node.derby.patient_rids[slot]


def _ring_deadlock(n_shards):
    """Run an n-transaction lock ring spanning n shards; returns
    (victim global ids, per-shard local victims, elapsed_s)."""
    cluster = make_cluster(n_shards)
    rids = [(sid, _patient_on(cluster, sid)) for sid in range(n_shards)]
    scheduler = CooperativeScheduler(cluster.clock, cluster.lock_table)
    dtxs = [cluster.begin() for __ in range(n_shards)]
    victims = []
    local_victims = []

    def body(i):
        def run():
            dtx = dtxs[i]
            first = rids[i]
            second = rids[(i + 1) % n_shards]
            try:
                dtx.branch(first[0]).write_lock(first[1])
                scheduler.yield_point()
                # Before blocking, no single shard sees a local cycle.
                local_victims.append(
                    cluster.nodes[second[0]].locks.find_deadlock_victim()
                )
                dtx.branch(second[0]).write_lock(second[1])
                dtx.commit()
                return "committed"
            except DeadlockError:
                victims.append(dtx.global_id)
                dtx.abort()
                return "victim"
        return run

    for i in range(n_shards):
        scheduler.spawn(f"t{i}", body(i))
    tasks = scheduler.run()
    for task in tasks:
        if task.error is not None:
            raise task.error
    assert cluster.lock_table.lock_count == 0
    assert cluster.lock_table.waiting_count == 0
    assert cluster.active_count == 0
    return victims, local_victims, cluster.elapsed_s


@pytest.mark.parametrize("n_shards", [2, 3])
def test_cross_shard_deadlock_aborts_youngest(n_shards):
    victims, local_victims, __ = _ring_deadlock(n_shards)
    # Breaking an n-cycle needs exactly one victim: the youngest
    # (highest global id) distributed transaction.
    assert victims == [n_shards]
    # No shard-local detector could have seen the cycle.
    assert all(v is None for v in local_victims)


def test_deadlock_resolution_is_deterministic():
    first = _ring_deadlock(3)
    second = _ring_deadlock(3)
    assert first == second


# -- two-phase commit ----------------------------------------------------


def _cluster_with_write_targets():
    """A 2-shard cluster plus one patient rid per shard and preloads."""
    cluster = make_cluster(2)
    targets = [(sid, _patient_on(cluster, sid)) for sid in (0, 1)]
    preload = {
        (sid, rid): int(cluster.nodes[sid].db.manager.get_attr_at(rid, "age"))
        for sid, rid in targets
    }
    return cluster, targets, preload


def _ages(cluster, targets):
    return {
        (sid, rid): int(cluster.nodes[sid].db.manager.get_attr_at(rid, "age"))
        for sid, rid in targets
    }


def test_two_phase_commit_commits_on_every_shard():
    cluster, targets, preload = _cluster_with_write_targets()
    dtx = cluster.begin()
    for sid, rid in targets:
        dtx.update_scalar(sid, rid, "age", 111)
    dtx.commit()
    assert dtx.state == "committed"
    assert all(v == 111 for v in _ages(cluster, targets).values())
    # Multi-participant: the decision record is durable and names both
    # branches.
    assert len(cluster.decided_branches()) == 2
    assert cluster.committed == 1


def test_single_participant_uses_one_phase_commit():
    cluster, targets, __ = _cluster_with_write_targets()
    sid, rid = targets[0]
    dtx = cluster.begin()
    dtx.update_scalar(sid, rid, "age", 42)
    dtx.commit()
    # One-phase: no decision record, no prepare on the shard log.
    assert cluster.decided_branches() == set()
    kinds = [r.kind for r in cluster.nodes[sid].txm.log.durable_records()]
    assert "prepare" not in kinds
    assert _ages(cluster, targets[:1]) == {(sid, rid): 42}


def test_abort_rolls_back_every_branch():
    cluster, targets, preload = _cluster_with_write_targets()
    dtx = cluster.begin()
    for sid, rid in targets:
        dtx.update_scalar(sid, rid, "age", 99)
    dtx.abort()
    assert dtx.state == "aborted"
    assert _ages(cluster, targets) == preload
    with pytest.raises(TwoPCError):
        dtx.commit()


def test_context_manager_commits_and_aborts():
    cluster, targets, preload = _cluster_with_write_targets()
    sid, rid = targets[0]
    with cluster.begin() as dtx:
        dtx.update_scalar(sid, rid, "age", 77)
    assert _ages(cluster, targets[:1]) == {(sid, rid): 77}
    with pytest.raises(RuntimeError):
        with cluster.begin() as dtx:
            dtx.update_scalar(sid, rid, "age", 78)
            raise RuntimeError("client bug")
    assert _ages(cluster, targets[:1]) == {(sid, rid): 77}


#: Crash point -> do the writes survive recovery?
_POINT_SURVIVES = {
    "2pc-before-prepare": False,
    "2pc-mid-prepare": False,
    "2pc-before-decision": False,
    "2pc-after-decision": True,
    "2pc-mid-commit": True,
}


@pytest.mark.parametrize("point", TWOPC_CRASH_POINTS)
def test_crash_recovery_at_every_protocol_point(point):
    cluster, targets, preload = _cluster_with_write_targets()
    injector = TwoPCInjector(point)
    injector.arm(cluster)
    dtx = cluster.begin()
    for sid, rid in targets:
        dtx.update_scalar(sid, rid, "age", 123)
    with pytest.raises(SimulatedCrashError):
        dtx.commit()
    assert injector.fired
    # The cluster is down: durable mutation refuses service.
    with pytest.raises(SimulatedCrashError):
        cluster.nodes[0].txm.log.append(999, "update", 8)
    cluster.crash()
    reports = cluster.recover()
    survives = _POINT_SURVIVES[point]
    expected = (
        {key: 123 for key in preload} if survives else preload
    )
    assert _ages(cluster, targets) == expected
    if survives:
        assert sum(r.txns_resolved_commit for r in reports) >= 1
    for node in cluster.nodes:
        assert node.txm.active_count == 0


def test_injector_rejects_unknown_point():
    with pytest.raises(RecoveryError):
        TwoPCInjector("2pc-nonsense")
    with pytest.raises(RecoveryError):
        TwoPCInjector("2pc-mid-commit", occurrence=0)


def test_in_doubt_branches_follow_the_resolver():
    """A prepared branch is in doubt at restart; the resolver decides."""
    cluster, targets, preload = _cluster_with_write_targets()
    injector = TwoPCInjector("2pc-after-decision")
    injector.arm(cluster)
    dtx = cluster.begin()
    for sid, rid in targets:
        dtx.update_scalar(sid, rid, "age", 55)
    with pytest.raises(SimulatedCrashError):
        dtx.commit()
    cluster.crash()
    decided = cluster.decided_branches()
    assert len(decided) == 2  # both branches named by the decision record
    reports = cluster.recover()
    assert sum(r.txns_resolved_commit for r in reports) == 2
    assert [r.txns_in_doubt for r in reports] != [(), ()]
    assert all(v == 55 for v in _ages(cluster, targets).values())


# -- sharded workloads ---------------------------------------------------


def _mix_digest(report, cluster):
    return (
        tuple(
            (s.name, s.metrics.committed, s.metrics.aborted,
             s.metrics.retries, s.metrics.deadlocks)
            for s in report.sessions
        ),
        round(report.elapsed_s, 9),
        report.context_switches,
        cluster.msgs,
    )


def test_sharded_workload_runs_and_is_deterministic():
    config = ShardedMixConfig(
        scanners=1, updaters=2, ops_per_client=3, seed=5
    )
    digests = []
    for __ in range(2):
        cluster = make_cluster(3)
        report = ShardedWorkload(cluster, config).run()
        assert not report.crashed
        assert report.committed > 0
        assert cluster.lock_table.lock_count == 0
        assert cluster.active_count == 0
        digests.append(_mix_digest(report, cluster))
    assert digests[0] == digests[1]


def test_sharded_workload_acked_writes_are_visible():
    cluster = make_cluster(2)
    config = ShardedMixConfig(scanners=0, updaters=3, ops_per_client=3, seed=9)
    workload = ShardedWorkload(cluster, config)
    report = workload.run()
    assert report.committed > 0
    assert workload.write_log, "updaters committed but logged no writes"
    last = {}
    for home, value in workload.write_log:
        last[home] = value
    for (sid, rid), value in last.items():
        durable = int(cluster.nodes[sid].db.manager.get_attr_at(rid, "age"))
        assert durable == value


def test_for_node_fault_streams_are_independent():
    base = TransientFaultInjector(seed=3, read_fault_rate=0.5)
    child_a = base.for_node(0)
    child_b = base.for_node(1)
    again_a = base.for_node(0)
    draws_a = [child_a.read_fails(0, p, 0) for p in range(64)]
    draws_b = [child_b.read_fails(0, p, 0) for p in range(64)]
    draws_again = [again_a.read_fails(0, p, 0) for p in range(64)]
    assert draws_a == draws_again  # same (seed, node) -> same schedule
    assert draws_a != draws_b      # different nodes -> different schedule
    assert child_a.read_fault_rate == base.read_fault_rate


# -- 2PC chaos -----------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 8])
def test_2pc_chaos_cases_pass(seed):
    result = run_case(TWOPC, seed, check_determinism=True)
    assert result.ok, result.failures


def test_2pc_chaos_pinned_digests_do_not_move():
    assert_pinned(
        "2pc",
        {
            str(s): run_case(TWOPC, s, check_determinism=False)
            for s in range(25)
        },
    )
