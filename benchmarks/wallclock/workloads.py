"""The four workloads: what each pass runs, through public functions only.

Every workload is a closed loop with one client -- the harness issues
the next op when the previous one returns -- over an op list that is
identical in every pass.  An op is one harness call into ``repro``; it
returns an :class:`OpResult` holding the *simulated* outcome (rows,
checksum, simulated seconds, meter snapshot), which must be identical in
every pass and, at the default seed, equal to ``expected.json``.

The op lists are FROZEN: changing one is a new benchmark issue and
re-baselines every committed number (README.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, field, replace
from random import Random
from typing import Callable

from repro.bench import SELECTIVITY_GRID, ExperimentRunner
from repro.bench.figures import PAPER_ALGORITHMS
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.derby.generator import generate
from repro.dist import Coordinator, ShardedMixConfig, ShardedWorkload, load_sharded
from repro.exec import ALGORITHMS
from repro.exec.operators.base import Cursor
from repro.opt import CostBasedOptimizer
from repro.oql import Catalog, OQLEngine
from repro.oql.ast_nodes import AnalyzeStmt, ExplainStmt
from repro.oql.parser import parse_statement
from repro.recovery import CrashInjector
from repro.service import MixConfig, WorkloadMixer
from repro.simtime import Bucket

#: The harness call class that is timed but is not a unit of work.
COLD_RESTART = "bench.cold_restart_s"

#: Every class of harness call, ``<layer>.<what>_s``.  Set-up classes
#: sum to ``setup_s``; the rest sum to their workload's ``host_s``.
OP_CLASSES = (
    "harness.import_s", "derby.generate_s", "cluster.setup_load_s",
    "opt.analyze_s", "harness.warmup_s",
    "cluster.load_class_s", "cluster.load_composition_s",
    "cluster.load_random_s", "cluster.load_index_after_s",
    "cluster.load_logged_s",
    COLD_RESTART,
    "exec.join_nl_s", "exec.join_nojoin_s", "exec.join_phj_s",
    "exec.join_chj_s", "exec.join_smj_s", "exec.join_phj_hybrid_s",
    "oql.stmt_heuristic_s", "oql.stmt_cost_s",
    "service.mix_2pl_s", "service.mix_si_s", "service.mix_crash_s",
    "dist.mix_s", "dist.query_s", "recovery.restart_s",
)

#: Spans the traced ``oql_selection`` pass splits a statement into.
STATEMENT_STAGES = (
    "oql.parse", "oql.plan", "opt.plan", "oql.compile", "exec.drain",
)

BUCKETS = tuple(bucket.value for bucket in Bucket)

#: Additive counters ops report in ``OpResult.layer``, with their unit.
LAYER_COUNTERS = {
    "exec.rows_out": "count",
    "exec.batches": "count",
    "txn.commits": "count",
    "txn.aborts": "count",
    "txn.deadlocks": "count",
    "txn.lock_timeouts": "count",
    "txn.write_conflicts": "count",
    "txn.retries": "count",
    "txn.lock_waits": "count",
    "txn.wal_flushed_pages": "pages",
    "txn.wal_forced_flushes": "count",
    "service.context_switches": "count",
    "service.gave_up": "count",
    "recovery.records_redone": "count",
    "recovery.records_undone": "count",
    "recovery.restart_sim_s": "s",
    "dist.msgs": "count",
    "dist.msg_bytes": "bytes",
    "dist.remote_wait_s": "s",
}


@dataclass
class OpResult:
    """The simulated outcome of one op -- the semantic check."""

    #: Result size in the op's own terms (rows, objects, commits).
    rows: int
    #: Simulated seconds the op cost.
    elapsed_s: float
    #: ``CounterSet`` values attributable to the op.
    meters: dict[str, int]
    #: Simulated seconds by ``Bucket``; sums to ``elapsed_s``.
    breakdown: dict[str, float]
    #: Order-insensitive fingerprint of the rows, where the public
    #: function hands them back.
    checksum: str | None = None
    #: Work units completed (the workload's throughput unit).
    units: int = 0
    #: Client operations inside this op (mixes run many).
    attempted: int = 1
    failed: int = 0
    #: Additive per-layer counters, ``<layer>.<metric>`` -> value.
    layer: dict[str, float] = field(default_factory=dict)
    #: ``PipelineStats.peak_rows`` (a high-water mark, not additive).
    peak_live_rows: int = 0

    def digest(self) -> list:
        """What must repeat exactly, in ``expected.json``'s layout."""
        return [
            self.rows,
            self.checksum,
            self.elapsed_s,
            [self.meters[k] for k in sorted(self.meters)],
        ]


@dataclass
class Op:
    """One harness call.  ``run`` is the timed form; ``staged``, when
    present, is the traced form: the same work issued stage by stage,
    each stage wrapped by the ``span`` callable it is given."""

    name: str
    klass: str
    run: Callable[[], OpResult | None]
    staged: Callable[[Callable], OpResult] | None = None

    @property
    def is_work(self) -> bool:
        return self.klass != COLD_RESTART


def checksum(rows: list) -> str:
    """Order-insensitive row-set fingerprint."""
    text = "\n".join(sorted(repr(r) for r in rows))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _delta(db, clock_before, meters_before) -> tuple[float, dict, dict]:
    """Simulated cost since a ``(clock.snapshot(), counters.snapshot())``
    pair, for ops that do not reset the meters themselves."""
    spent = db.clock.since(clock_before)
    breakdown = {b.value: s for b, s in spent.items() if s}
    meters = asdict(db.counters.snapshot() - meters_before)
    return sum(spent.values()), breakdown, meters


class Workload:
    """Base: ``setup`` builds the databases through ``call`` (so set-up
    is timed call by call), ``ops`` is the frozen per-pass op list."""

    name = ""
    unit = ""
    #: Scale at full size; ``--smoke`` divides every scale by ten.
    scale = 0.0
    #: ``(heuristic, cost, comparable)`` results of the pass just run,
    #: for workloads that run each text under both planners.
    pairs: tuple | list = ()

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke

    def setup(self, call: Callable) -> None:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def _generate(self, call, maker, scale=None, **overrides):
        scale = scale or self.scale
        config = maker(
            scale=scale / 10.0 if self.smoke else scale,
            seed=self.seed, **overrides,
        )
        return config, call(
            "generate", "derby.generate_s", lambda: generate(config)
        )

    def _load(self, call, config, logical):
        return call(
            f"load {config.clustering.value}",
            "cluster.setup_load_s",
            lambda: load_derby(config, logical=logical),
        )


# ------------------------------------------------------------- bulk_load

class BulkLoad(Workload):
    """Eight ``load_derby`` calls from pre-generated logical databases:
    the only write path."""

    name = "bulk_load"
    unit = "objects"
    scale = 0.0018

    def setup(self, call) -> None:
        small, small_logical = self._generate(call, DerbyConfig.db_1to3)
        big, big_logical = self._generate(call, DerbyConfig.db_1to1000)
        self._loads = [
            ("1:3 class", "class", small, small_logical),
            ("1:3 composition", "composition",
             small.with_clustering(Clustering.COMPOSITION), small_logical),
            ("1:3 random", "random",
             small.with_clustering(Clustering.RANDOM), small_logical),
            ("1:3 class index-after", "index_after",
             replace(small, index_first=False), small_logical),
            ("1:3 class logged", "logged",
             replace(small, logged_load=True), small_logical),
            ("1:1000 class", "class", big, big_logical),
            ("1:1000 composition", "composition",
             big.with_clustering(Clustering.COMPOSITION), big_logical),
            ("1:1000 class index-after", "index_after",
             replace(big, index_first=False), big_logical),
        ]

    def ops(self) -> list[Op]:
        return [
            Op(f"load {label}", f"cluster.load_{kind}_s",
               lambda c=config, lg=logical: self._run_load(c, lg))
            for label, kind, config, logical in self._loads
        ]

    @staticmethod
    def _run_load(config, logical) -> OpResult:
        derby = load_derby(config, logical=logical)
        report = derby.load_report
        return OpResult(
            rows=report.objects_created,
            elapsed_s=report.seconds,
            meters=asdict(derby.db.counters.snapshot()),
            breakdown=derby.db.clock.breakdown(),
            checksum=f"{report.disk_pages}p{report.commits}c",
            units=report.objects_created,
        )


# ------------------------------------------------------------- tree_join

class TreeJoin(Workload):
    """The Section 5 tree query, cold per op, over both databases."""

    name = "tree_join"
    unit = "rows"
    scale = 0.0007
    #: The 1:1000 database needs more: below six providers the grid's
    #: 10 % provider cells select nobody.
    big_scale = 0.003

    def setup(self, call) -> None:
        small, small_logical = self._generate(call, DerbyConfig.db_1to3)
        big, big_logical = self._generate(
            call, DerbyConfig.db_1to1000, scale=self.big_scale,
            clustering=Clustering.COMPOSITION,
        )
        self._runs = [
            (ExperimentRunner(self._load(call, small, small_logical)),
             "1:3/class", tuple(ALGORITHMS)),
            (ExperimentRunner(self._load(call, big, big_logical)),
             "1:1000/composition", PAPER_ALGORITHMS),
        ]

    def ops(self) -> list[Op]:
        ops = []
        for runner, label, algorithms in self._runs:
            for sel_pat, sel_prov in SELECTIVITY_GRID:
                for algo in algorithms:
                    ops.append(Op(
                        f"cold restart {label}", COLD_RESTART,
                        runner.derby.start_cold_run,
                    ))
                    klass = algo.lower().replace("-", "_")
                    ops.append(Op(
                        f"{algo} {label} {sel_pat}/{sel_prov}",
                        f"exec.join_{klass}_s",
                        lambda r=runner, a=algo, p=sel_pat, q=sel_prov:
                            self._run_join(r, a, p, q),
                    ))
        return ops

    @staticmethod
    def _run_join(runner, algo, sel_pat, sel_prov) -> OpResult:
        # The harness has just called start_cold_run; cold=False only
        # zeroes the (already zero) meters.
        m = runner.run_join(algo, sel_pat, sel_prov, cold=False)
        return OpResult(
            rows=m.rows,
            elapsed_s=m.elapsed_s,
            meters=asdict(m.meters),
            breakdown=m.breakdown,
            units=m.rows,
        )


# --------------------------------------------------------- oql_selection

#: (share in twentieths, comparable across planners, template).  Every
#: statement is single-bound and short: a two-sided range on one
#: attribute costs 58 ms (heuristic) / 194 ms (cost-based) and would
#: swamp the mix.
_TEMPLATES = (
    (4, True, "select p.age from p in Patients where p.mrn < {mrn}"),
    (3, True, "select p.age from p in Patients where p.num > {num}"),
    (2, True, "select count(p) from p in Patients where p.mrn < {mrn}"),
    (2, True, "select avg(p.age) from p in Patients where p.num > {num}"),
    (2, True, "select p.age from p in Patients where p.mrn < {mrn} "
              "order by p.age desc"),
    (1, False, "select p.name from p in Patients where p.num > {num} "
               "limit 5"),
    (1, True, "select distinct p.sex from p in Patients where p.mrn < {mrn}"),
    (1, True, "select p.name from p in Providers where p.upin < {upin} "
              "and exists pa in p.clients : pa.age > 60"),
    (2, False, "explain select p.age from p in Patients where p.mrn < {mrn}"),
    (2, True, "select tuple(n: p.name, a: pa.age) "
              "from p in Providers, pa in p.clients "
              "where pa.mrn < {mrn} and p.upin < {upin}"),
)


class OqlSelection(Workload):
    """Seeded short OQL texts, each run by a heuristic engine and by a
    cost-based engine, warm after one cold restart per pass."""

    name = "oql_selection"
    unit = "statements"
    scale = 0.006
    texts = 600

    def setup(self, call) -> None:
        config, logical = self._generate(call, DerbyConfig.db_1to3)
        self._derby = self._load(call, config, logical)
        catalog = Catalog.from_derby(self._derby)
        self._engines = (
            ("heuristic", OQLEngine(catalog)),
            ("cost", OQLEngine(
                catalog,
                optimizer=CostBasedOptimizer(catalog, include_extensions=True),
            )),
        )
        call("analyze", "opt.analyze_s",
             lambda: self._engines[1][1].execute("analyze"))
        self._statements = self._draw(config)

    def _draw(self, config) -> list[tuple[str, bool]]:
        """``texts`` statements with bounds at <= 1 % selectivity.

        Stratified, so that the amount of work does not depend on the
        seed: every template appears a fixed number of times with its
        bounds on a fixed grid.  The seed decides the order the
        statements run in (and generates the database they run on)."""
        rng = Random(self.seed)
        per_share = (self.texts // 10 if self.smoke else self.texts) // 20
        top_patients = max(3, config.n_patients // 100)
        top_providers = max(3, config.n_providers // 100)
        statements = []
        for share, comparable, template in _TEMPLATES:
            count = share * per_share
            for j in range(count):
                grid = (j + 0.5) / count
                statements.append((
                    template.format(
                        mrn=2 + int(grid * (top_patients - 1)),
                        num=config.n_patients - 2
                        - int(grid * (top_patients - 1)),
                        upin=2 + int(grid * (top_providers - 1)),
                    ),
                    comparable,
                ))
        rng.shuffle(statements)
        return statements

    def ops(self) -> list[Op]:
        ops = [Op("cold restart", COLD_RESTART, self._derby.start_cold_run)]
        self.pairs = []
        for text, comparable in self._statements:
            pair: list[OpResult] = []
            for label, engine in self._engines:
                ops.append(Op(
                    f"{label}: {text}", f"oql.stmt_{label}_s",
                    lambda e=engine, t=text, p=pair, c=comparable:
                        self._collect(p, c, self._execute(e, t)),
                    lambda span, e=engine, t=text, p=pair, c=comparable:
                        self._collect(p, c, self._execute_staged(e, t, span)),
                ))
        return ops

    def _collect(self, pair, comparable, result: OpResult) -> OpResult:
        pair.append(result)
        if len(pair) == 2:
            self.pairs.append((pair[0], pair[1], comparable))
            pair.clear()
        return result

    def _execute(self, engine, text) -> OpResult:
        db = self._derby.db
        before = db.clock.snapshot(), db.counters.snapshot()
        rows = engine.execute(text)
        return self._result(db, before, rows, engine.last_stats)

    def _execute_staged(self, engine, text, span) -> OpResult:
        """``engine.execute`` taken apart: parse, plan, compile, drain."""
        db = self._derby.db
        before = db.clock.snapshot(), db.counters.snapshot()
        stmt = span("oql.parse", lambda: parse_statement(text))
        if isinstance(stmt, (ExplainStmt, AnalyzeStmt)):
            source = stmt
        else:
            planner = "opt" if engine is self._engines[1][1] else "oql"
            source = span(f"{planner}.plan",
                          lambda: engine.optimizer.plan(stmt))
        root = span("oql.compile", lambda: engine.compile(source))
        cursor = Cursor(root.ctx, root, engine.batch_size)
        rows = span("exec.drain", cursor.drain)
        return self._result(db, before, rows, cursor.stats)

    @staticmethod
    def _result(db, before, rows, stats) -> OpResult:
        elapsed_s, breakdown, meters = _delta(db, *before)
        return OpResult(
            rows=len(rows),
            elapsed_s=elapsed_s,
            meters=meters,
            breakdown=breakdown,
            checksum=checksum(rows),
            units=1,
            layer={"exec.rows_out": stats.rows, "exec.batches": stats.batches},
            peak_live_rows=stats.peak_rows,
        )


# ------------------------------------------------------------ client_mix

#: Cold distributed queries.  None reads ``age``: the sharded updaters
#: derive each new age from the old one, so ages drift from pass to pass
#: while every cost stays put.
_DIST_QUERIES = (
    "select count(p) from p in Patients where p.num > {num}",
    "select p.mrn from p in Patients where p.num > {num} order by p.mrn",
    "select tuple(n: p.name, m: pa.mrn) from p in Providers, "
    "pa in p.clients where pa.mrn < {mrn} and p.upin < {upin}",
    "select distinct p.sex from p in Patients where p.mrn < {mrn}",
)


class ClientMix(Workload):
    """Multi-client mixes under 2pl and si, a sharded mix with 2PC,
    cold distributed queries, and a crashed mix followed by restart."""

    name = "client_mix"
    unit = "commits"
    scale = 0.0011
    mixes = 4

    def setup(self, call) -> None:
        config, logical = self._generate(call, DerbyConfig.db_1to3)
        self._config = config
        self._derby_2pl = self._load(call, config, logical)
        self._derby_si = self._load(call, config, logical)
        self._cluster = call(
            "load_sharded", "cluster.setup_load_s",
            lambda: load_sharded(config, 4, logical=logical),
        )
        self._coordinator = Coordinator(self._cluster)

    def _mix_config(self, seed: int, isolation: str) -> MixConfig:
        # Generous retries: a client that gives up is a failed op, and
        # the workload is chosen so that none fails.
        return MixConfig(
            navigators=2, scanners=3, updaters=3,
            ops_per_client=2 if self.smoke else 8,
            seed=seed, recovery=True, update_values="keyed",
            isolation=isolation, max_retries=8,
        )

    def ops(self) -> list[Op]:
        ops = []
        n_mixes = 1 if self.smoke else self.mixes
        for i in range(n_mixes):
            seed = self.seed + i
            ops.append(Op(f"mix 2pl seed {seed}", "service.mix_2pl_s",
                          lambda s=seed: self._run_mix(
                              self._derby_2pl, self._mix_config(s, "2pl"))))
            ops.append(Op(f"mix si seed {seed}", "service.mix_si_s",
                          lambda s=seed: self._run_mix(
                              self._derby_si, self._mix_config(s, "si"))))
            ops.append(Op(f"sharded mix seed {seed}", "dist.mix_s",
                          lambda s=seed: self._run_sharded(s)))
        config = self._config
        bounds = {
            "num": config.num_threshold(10),
            "mrn": config.mrn_threshold(10),
            "upin": config.upin_threshold(50),
        }
        for template in _DIST_QUERIES:
            ops.append(Op("cold restart cluster", COLD_RESTART,
                          self._cluster.start_cold))
            ops.append(Op(f"dist: {template}", "dist.query_s",
                          lambda t=template.format(**bounds):
                              self._run_query(t)))
        ops.append(Op("mix killed mid-run", "service.mix_crash_s",
                      self._run_crash))
        ops.append(Op("restart", "recovery.restart_s", self._run_restart))
        return ops

    def _run_mix(self, derby, config, injector=None) -> OpResult:
        mixer = WorkloadMixer(derby, config, injector=injector)
        report = mixer.run()
        self._last_service = mixer.service
        wal = mixer.service.txm.log
        # A killed mix does not attempt the ops the crash cut off.
        attempted = (
            report.committed + report.gave_up if report.crashed
            else config.total_clients * config.ops_per_client
        )
        return OpResult(
            rows=report.committed,
            elapsed_s=report.elapsed_s,
            meters=asdict(derby.db.counters.snapshot()),
            breakdown=derby.db.clock.breakdown(),
            checksum=checksum(mixer.write_log),
            units=report.committed,
            attempted=attempted,
            failed=report.gave_up,
            layer={
                "txn.commits": report.committed,
                "txn.aborts": report.aborted,
                "txn.deadlocks": report.deadlocks,
                "txn.lock_timeouts": report.timeouts,
                "txn.write_conflicts": report.conflicts,
                "txn.retries": report.retries,
                "txn.lock_waits": report.lock_waits,
                "txn.wal_flushed_pages": wal.flushed_pages,
                "txn.wal_forced_flushes": wal.forced_flushes,
                "service.context_switches": report.context_switches,
                "service.gave_up": report.gave_up,
            },
        )

    def _run_sharded(self, seed: int) -> OpResult:
        cluster = self._cluster
        config = ShardedMixConfig(
            scanners=2, updaters=4,
            ops_per_client=2 if self.smoke else 8,
            seed=seed, max_retries=8,
        )
        report = ShardedWorkload(cluster, config).run()
        meters, dist = self._cluster_cost()
        return OpResult(
            rows=report.committed,
            elapsed_s=report.elapsed_s,
            meters=meters,
            breakdown=cluster.clock.breakdown(),
            units=report.committed,
            attempted=config.total_clients * config.ops_per_client,
            failed=report.gave_up,
            layer={
                "txn.commits": report.committed,
                "txn.aborts": report.aborted,
                "txn.deadlocks": report.deadlocks,
                "txn.lock_timeouts": report.timeouts,
                "txn.retries": report.retries,
                "service.context_switches": report.context_switches,
                "service.gave_up": report.gave_up,
                **dist,
            },
        )

    def _run_query(self, text: str) -> OpResult:
        rows = self._coordinator.execute(text)
        meters, dist = self._cluster_cost()
        return OpResult(
            rows=len(rows),
            elapsed_s=self._cluster.elapsed_s,
            meters=meters,
            breakdown=self._cluster.clock.breakdown(),
            checksum=checksum(rows),
            layer=dist,
        )

    def _cluster_cost(self) -> tuple[dict[str, int], dict[str, float]]:
        """Meters summed over the shards, and the coordinator's message
        counters, since the cluster's last ``start_cold``."""
        cluster = self._cluster
        meters: dict[str, int] = {}
        for node in cluster.nodes:
            for key, value in asdict(node.db.counters.snapshot()).items():
                meters[key] = meters.get(key, 0) + value
        return meters, {
            "dist.msgs": cluster.msgs,
            "dist.msg_bytes": cluster.msg_bytes,
            "dist.remote_wait_s": sum(n.remote_wait_s for n in cluster.nodes),
        }

    def _run_crash(self) -> OpResult:
        # Fires on a log append with several sessions in flight.
        injector = CrashInjector("mix-run", occurrence=12 if self.smoke else 60)
        result = self._run_mix(
            self._derby_2pl,
            self._mix_config(self.seed + self.mixes, "2pl"),
            injector=injector,
        )
        if not injector.fired:
            raise RuntimeError("the crash point was never reached")
        return result

    def _run_restart(self) -> OpResult:
        db = self._derby_2pl.db
        before = db.clock.snapshot(), db.counters.snapshot()
        report = self._last_service.recover()
        elapsed_s, breakdown, meters = _delta(db, *before)
        return OpResult(
            rows=report.records_redone + report.records_undone,
            elapsed_s=elapsed_s,
            meters=meters,
            breakdown=breakdown,
            checksum=f"{report.txns_committed}c{report.txns_undone}u",
            layer={
                "recovery.records_redone": report.records_redone,
                "recovery.records_undone": report.records_undone,
                "recovery.restart_sim_s": report.seconds,
            },
        )


WORKLOADS = {w.name: w for w in (BulkLoad, TreeJoin, OqlSelection, ClientMix)}
