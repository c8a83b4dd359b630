"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures``
    Build one (or all) of the paper's tables and print it: the names
    are the keys of :data:`repro.bench.figures.FIGURES`, and ``all``
    loads each database once, one at a time.
``load``
    Build a Derby database and print the loading report (the Section
    3.2 numbers).
``layout``
    Print the Figure 2 view of a freshly built database's files.
``shell``
    An interactive OQL shell over a freshly loaded Derby database:
    shows the optimizer's plan and the simulated meters for every query.
``serve``
    A multi-session shell over one shared server: open several client
    sessions, take locks, and watch conflicts happen (fail-fast mode).
``mix``
    Run a deterministic multi-client workload mix (navigators +
    scanners + updaters) through the query service and print
    per-session latency/throughput plus the aggregate.
``shard``
    ``shard demo`` partitions a database across N simulated nodes, runs
    a distributed query through the coordinator and a sharded workload
    mix (``--replicas 1`` pairs every shard with a warm standby).
``failover``
    ``failover demo`` kills a primary under load and narrates
    detection, fenced promotion and the availability window.
``chaos``
    The one entry to the seeded fault checkers: ``chaos --suite
    {recovery,service,2pc,failover}`` runs that suite's cases through
    the shared harness (every case twice, digests compared) and exits
    nonzero on any contract violation, printing each failing seed and
    the command that reproduces it.
``analyze``
    Collect optimizer statistics (extent cardinalities, equi-depth
    histograms, association fan-out) over a freshly built database,
    print the summary and the simulated cost, and persist the rows
    through the statistics database (``repro.stats``).
``info``
    Print the cost model and memory budgets in use.
``lint``
    Run simlint, the AST invariant linter, over the given paths
    (default: the installed ``repro`` package): checks
    determinism (DET), cost charging (CHARGE), the layering DAG
    (LAYER), paired resource release (PAIR), over-broad excepts (EXC)
    and, over the may-yield call graph, atomic sections (ATOM),
    protocol order (PROTO) and borrowed handles escaping their bracket
    (ESCAPE).  See ``docs/lint.md``.

Any :class:`~repro.errors.ReproError` a command lets escape — a mix
with no clients, a cluster with no shards — is printed as ``error: …``
on stderr and exits 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence, TextIO

from repro.bench.figures import FIGURES, FigureDriver
from repro.cluster import load_derby
from repro.derby import DerbyConfig
from repro.derby.config import Clustering
from repro.oql import Catalog, OQLEngine, Query, parse_statement
from repro.errors import ReproError
from repro.units import MB

def _make_config(args: argparse.Namespace) -> DerbyConfig:
    # --db spells the paper's "1:1000" / "1:3" without the colon.
    return DerbyConfig.paper_db(
        args.db.replace("to", ":"), args.clustering, args.scale
    )


def _load(args: argparse.Namespace, announce: TextIO | None = None):
    """Build the database the ``--db`` options name, first saying so on
    ``announce`` (``None``: silently)."""
    config = _make_config(args)
    if announce is not None:
        print(f"loading {config.n_providers} providers / "
              f"{config.n_patients} patients "
              f"({config.clustering.value} clustering) ...", file=announce)
    return load_derby(config)


def _positive(convert: type) -> Callable[[str], float]:
    """An argparse ``type=``: ``convert`` (``int`` or ``float``) the
    text, then insist the number is above zero."""
    def parse(text: str) -> float:
        try:
            value = convert(text)
            if value > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a positive {convert.__name__}, not {text!r}"
        )
    return parse


def _add_optimizer_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimizer", choices=("heuristic", "cost"), default="heuristic",
        help="query planner: the default heuristic planner, or the "
        "statistics-driven cost-based planner (run 'analyze' in the "
        "shell to feed it)",
    )


def _make_plan_optimizer(args: argparse.Namespace, catalog: Catalog):
    """The ``optimizer=`` argument for :class:`OQLEngine` (``None``
    keeps the engine's own heuristic planner)."""
    if args.optimizer == "cost":
        from repro.opt import CostBasedOptimizer

        return CostBasedOptimizer(catalog)
    return None


def _add_db_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--db", choices=("1to1000", "1to3"), default="1to1000",
        help="which of the paper's two databases to build",
    )
    parser.add_argument(
        "--clustering", choices=sorted(c.value for c in Clustering),
        default="class",
        help="physical organization (paper, Figure 2)",
    )
    parser.add_argument(
        "--scale", type=_positive(float), default=None,
        help="database scale factor (default: REPRO_SCALE or 0.01)",
    )


# ------------------------------------------------------------------ figures

def cmd_figures(args: argparse.Namespace) -> int:
    driver = FigureDriver(args.scale)
    for name in FIGURES if args.figure == "all" else [args.figure]:
        print(f"building {name} ...", file=sys.stderr)
        print(driver.build(name)[0])
    return 0


# ------------------------------------------------------------------ load

def cmd_load(args: argparse.Namespace) -> int:
    derby = _load(args)
    config = derby.config
    report = derby.load_report
    print(f"database        : {config.n_providers} providers, "
          f"{config.n_patients} patients")
    print(f"organization    : {config.clustering.value}")
    print(f"load time       : {report.seconds:.1f} simulated s")
    print(f"objects created : {report.objects_created}")
    print(f"commits         : {report.commits}")
    print(f"records moved   : {report.records_moved}")
    print(f"disk pages      : {report.disk_pages}")
    for name, build in report.index_reports.items():
        print(f"index {name}: grew {build.headers_grown} headers, "
              f"moved {build.records_moved} records")
    return 0


# ------------------------------------------------------------------ shell

def cmd_shell(args: argparse.Namespace) -> int:
    derby = _load(args, sys.stdout)
    catalog = Catalog.from_derby(derby)
    engine = OQLEngine(
        catalog, optimizer=_make_plan_optimizer(args, catalog)
    )
    print(f"OQL shell ({args.optimizer} planner) — try:")
    print("  select count(p) from p in Patients where p.mrn < 1000")
    print("  select tuple(n: p.name, a: pa.age) from p in Providers, "
          "pa in p.clients where pa.mrn < 500 and p.upin < 5")
    print("  analyze              -- collect optimizer statistics")
    print("  explain <query>      -- plan, run, compare estimates")
    print("Type 'quit' to exit.\n")
    while True:
        try:
            line = input("oql> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        if line.lower() in ("quit", "exit", r"\q"):
            return 0
        try:
            stmt = parse_statement(line)
            plan = engine.plan(stmt) if isinstance(stmt, Query) else None
            derby.start_cold_run()
            rows = engine.execute(stmt)
        except ReproError as exc:
            print(f"error: {exc}")
            continue
        if plan is not None:
            print(f"-- plan: {plan.description}")
        shown = rows[:20] if plan is not None else rows
        for row in shown:
            print(f"   {row}")
        if len(rows) > len(shown):
            print(f"   ... {len(rows) - len(shown)} more rows")
        meters = derby.db.counters.snapshot()
        print(f"-- {len(rows)} row(s); {derby.db.clock.elapsed_s:.3f} "
              f"simulated s; {meters.disk_reads} page reads; "
              f"{meters.rpcs} RPCs; client miss "
              f"{meters.client_miss_rate:.0%}\n")


# ------------------------------------------------------------------ serve

def cmd_serve(args: argparse.Namespace) -> int:
    """Multi-session shell: several clients against one shared server."""
    from repro.service import QueryService

    derby = _load(args, sys.stdout)
    service = QueryService(derby, optimizer=args.optimizer)
    current = service.open_session("main")
    print("Multi-session shell — one server cache, one lock table, a")
    print("private client cache per session.  Commands:")
    print(r"  \open NAME | \use NAME | \sessions")
    print(r"  \begin | \commit | \abort")
    print(r"  \lock r|w patients|providers INDEX")
    print(r"  any other line runs as OQL in the current session")
    print(r"  \quit to exit" + "\n")
    by_name = {current.name: current}
    while True:
        try:
            line = input(f"{current.name}> ").strip()
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        if not line:
            continue
        words = line.split()
        try:
            if words[0] in (r"\quit", "quit", "exit"):
                return 0
            if words[0] == r"\open":
                session = service.open_session(words[1])
                by_name[session.name] = session
                current = session
                continue
            if words[0] == r"\use":
                current = by_name[words[1]]
                continue
            if words[0] == r"\sessions":
                for name, session in by_name.items():
                    m = session.metrics
                    txn = session.txn
                    state = txn.state if txn is not None else "none"
                    print(f"  {name:10s} txn={state:9s} "
                          f"queries={m.queries} updates={m.updates} "
                          f"committed={m.committed} aborted={m.aborted} "
                          f"busy={m.busy_s:.3f}s")
                continue
            if words[0] == r"\begin":
                with service.immediate(current):
                    # simlint: ok[PROTO] interactive txn spans shell commands; \commit / \abort complete it
                    current.begin()
                continue
            if words[0] == r"\commit":
                with service.immediate(current):
                    current.commit()
                continue
            if words[0] == r"\abort":
                with service.immediate(current):
                    current.abort()
                continue
            if words[0] == r"\lock":
                mode, coll, idx = words[1], words[2], int(words[3])
                if mode not in ("r", "w"):
                    print(f"error: lock mode must be r or w, not {mode!r}")
                    continue
                rids = (derby.patient_rids if coll.startswith("pat")
                        else derby.provider_rids)
                if not 0 <= idx < len(rids):
                    print(f"error: {coll} index must be in "
                          f"0..{len(rids) - 1}, not {idx}")
                    continue
                with service.immediate(current):
                    if current.txn is None or current.txn.state != "active":
                        # simlint: ok[PROTO] auto-begin for \lock; the shell's \commit / \abort complete it
                        current.begin()
                    if mode == "w":
                        current.write_lock(rids[idx])
                    else:
                        current.read_lock(rids[idx])
                print(f"  {mode}-lock on {coll}[{idx}] granted")
                continue
            # -- OQL ----------------------------------------------------
            before_s = derby.db.clock.elapsed_s
            before_m = derby.db.counters.snapshot()
            with service.immediate(current):
                rows = current.execute(line)
            spent_s = derby.db.clock.elapsed_s - before_s
            delta = derby.db.counters.snapshot() - before_m
            for row in rows[:10]:
                print(f"   {row}")
            if len(rows) > 10:
                print(f"   ... {len(rows) - 10} more rows")
            print(f"-- {len(rows)} row(s); {spent_s:.3f} simulated s; "
                  f"{delta.disk_reads} page reads; {delta.rpcs} RPCs\n")
        except (ReproError, KeyError, IndexError, ValueError) as exc:
            print(f"error: {exc}")


# ------------------------------------------------------------------ mix

def cmd_mix(args: argparse.Namespace) -> int:
    """Run a multi-client mix and report per-session + aggregate costs."""
    from repro.service import MixConfig, WorkloadMixer
    from repro.stats import StatsDatabase, mix_to_csv, to_csv

    mix_config = MixConfig.from_clients(
        args.clients,
        ops_per_client=args.ops,
        seed=args.seed,
        lock_timeout_s=args.lock_timeout,
        batch_size=args.batch_size,
        budget_pages=args.budget_pages,
        max_active=args.max_active,
        optimizer=args.optimizer,
        isolation=args.isolation,
    )
    derby = _load(args, sys.stderr)
    stats = StatsDatabase()
    mixer = WorkloadMixer(derby, mix_config, stats=stats)
    report = mixer.run()
    print(report.table())
    print(f"stats database: {len(stats)} Stat row(s) recorded")
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(to_csv(stats.rows()))
        print(f"wrote {args.csv}")
    if args.sessions_csv:
        with open(args.sessions_csv, "w") as fh:
            fh.write(mix_to_csv(report))
        print(f"wrote {args.sessions_csv}")
    return 0


# ------------------------------------------------------------------ chaos

#: The seeded fault suites ``chaos --suite`` can run.
CHAOS_SUITES = ("recovery", "service", "2pc", "failover")


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run one seeded chaos suite through the shared harness."""
    from repro.dist.chaos import FAILOVER, TWOPC
    from repro.recovery import RECOVERY, run_suite
    from repro.service.chaos import SERVICE

    suite = {
        s.name: s for s in (RECOVERY, SERVICE, TWOPC, FAILOVER)
    }[args.suite]
    params = {}
    if args.ship_mode is not None:
        if args.suite != "failover":
            print("--ship-mode applies to --suite failover only",
                  file=sys.stderr)
            return 2
        params["ship_mode"] = args.ship_mode
    results = run_suite(
        suite,
        args.cases,
        base_seed=args.seed,
        **params,
    )
    print(suite.summarize(results))
    for r in results:
        for failure in r.failures:
            print(f"seed {r.seed}: {failure}", file=sys.stderr)
    mode = f" --ship-mode {args.ship_mode}" if args.ship_mode else ""
    for seed in sorted({r.seed for r in results if not r.ok}):
        print(f"reproduce: python -m repro chaos --suite {args.suite}"
              f"{mode} --seed {seed} --cases 1", file=sys.stderr)
    return 0 if all(r.ok for r in results) else 1


# ------------------------------------------------------------------ shard

def cmd_shard_demo(args: argparse.Namespace) -> int:
    """Partition a database, run a distributed query and a mix."""
    from repro.bench.report import Table
    from repro.dist import (
        Coordinator,
        ShardedMixConfig,
        ShardedWorkload,
        load_sharded,
        sharded_table,
    )

    config = _make_config(args)
    cluster = load_sharded(
        config,
        args.shards,
        scheme=args.scheme,
        replicas=args.replicas,
        ship_mode=args.ship_mode,
    )
    coordinator = Coordinator(cluster)
    cluster.start_cold()
    threshold = config.num_threshold(10.0)  # a 10 % selection
    query = f"select p.age from p in Patients where p.num > {threshold}"
    rows = coordinator.execute(query)
    plan = coordinator.last_plan
    assert plan is not None
    print(f"> {query}")
    print(f"  {plan.description()}")
    print(
        f"  {len(rows)} rows in {cluster.elapsed_s:.3f} simulated s "
        f"({cluster.total_busy_s:.3f} s of shard work, "
        f"{cluster.msgs} messages)"
    )
    table = Table(
        f"Per-shard meters ({args.shards}x{args.scheme})",
        ["Shard", "Providers", "Patients", "Busy (s)", "Wait (s)",
         "Msgs", "Pages read"],
    )
    for node, (providers, patients) in zip(
        cluster.nodes, cluster.part.shard_sizes()
    ):
        table.add(
            node.shard_id, providers, patients, node.busy_s,
            node.remote_wait_s, node.msgs,
            node.db.disk.counters.disk_reads,
        )
    print()
    print(table)
    print()
    mix = ShardedMixConfig.from_clients(
        args.clients, ops_per_client=args.ops, seed=args.seed
    )
    report = ShardedWorkload(cluster, mix).run()
    print(sharded_table(report, cluster))
    if cluster.links:
        ship = Table(
            f"WAL shipping ({args.ship_mode})",
            ["Shard", "Ship msgs", "Records", "Bytes", "Lag",
             "Ack wait (s)"],
        )
        for sid in sorted(cluster.links):
            link = cluster.links[sid]
            ship.add(
                sid, link.ship_msgs, link.shipped_records,
                link.shipped_bytes, link.lag_records(), link.ack_wait_s,
            )
        print()
        print(ship)
    return 0


# ------------------------------------------------------------------ failover

def cmd_failover_demo(args: argparse.Namespace) -> int:
    """Kill a primary under load and narrate the failover."""
    from repro.dist import (
        ShardedMixConfig,
        ShardedWorkload,
        load_sharded,
        sharded_table,
    )

    config = _make_config(args)
    cluster = load_sharded(
        config,
        args.shards,
        scheme=args.scheme,
        replicas=1,
        ship_mode=args.ship_mode,
    )
    cluster.start_cold()
    detector = cluster.detector
    assert detector is not None
    victim = 0  # the shard whose primary dies
    cluster.schedule_kill(victim, at_s=args.kill_at)
    print(
        f"{cluster!r}: killing shard {victim}'s primary at "
        f"t={args.kill_at:.3f}s (lease {detector.lease_s:.3f}s + grace "
        f"{detector.grace_s:.3f}s, {args.ship_mode} shipping)"
    )
    mix = ShardedMixConfig.from_clients(
        args.clients, ops_per_client=args.ops, seed=args.seed
    )
    report = ShardedWorkload(cluster, mix).run()
    print(sharded_table(report, cluster))
    print()
    print(f"kills {cluster.kills}, failovers {cluster.route.failovers}, "
          f"epochs {cluster.route.epochs}")
    print(f"shard {victim} unavailable "
          f"{cluster.shard_unavailable_s(victim):.4f} simulated s, "
          f"acked-loss window {cluster.loss_windows.get(victim, 0)} "
          "records")
    serving = cluster.route.node_for(victim)
    if serving.down:
        print(f"shard {victim} is still down (no promotable standby)",
              file=sys.stderr)
        return 1
    print(f"shard {victim} serving again from the promoted standby "
          f"(epoch {serving.epoch})")
    return 0


# ------------------------------------------------------------------ layout

def cmd_layout(args: argparse.Namespace) -> int:
    """Print the paper's Figure 2 for a freshly built database."""
    from repro.cluster.inspect import describe_derby_layout

    print(describe_derby_layout(_load(args), max_records=args.records))
    return 0


# ------------------------------------------------------------------ analyze

def cmd_analyze(args: argparse.Namespace) -> int:
    """Collect optimizer statistics and persist them (ANALYZE)."""
    from repro.opt import StatsCollector, save_table_stats, summarize
    from repro.stats import StatsDatabase

    derby = _load(args, sys.stderr)
    catalog = Catalog.from_derby(derby)
    start_s = derby.db.clock.elapsed_s
    stats = StatsCollector(catalog).collect(args.collections or None)
    spent_s = derby.db.clock.elapsed_s - start_s
    for line in summarize(stats):
        print(line)
    print(f"analyze cost {spent_s:.3f} simulated s")
    stats_db = StatsDatabase()
    n_rows = save_table_stats(stats_db, stats)
    print(f"persisted {n_rows} statistics row(s) through repro.stats")
    return 0


# ------------------------------------------------------------------ info

def cmd_info(args: argparse.Namespace) -> int:
    config = _make_config(args)
    params = config.params
    memory = params.memory
    print("cost model")
    print(f"  page read          : {params.page_read_ms} ms")
    print(f"  page transfer      : {params.page_transfer_ms} ms")
    print(f"  rpc overhead       : {params.rpc_overhead_ms} ms")
    print(f"  handle get/unref   : {params.handle_get_us}/"
          f"{params.handle_unref_us} us")
    print(f"  swap fault         : {params.swap_fault_ms} ms")
    print(f"  result element     : {params.result_append_txn_us} us (txn)")
    print("memory (scaled)")
    print(f"  ram                : {memory.ram_bytes / MB:.2f} MB")
    print(f"  server cache       : {memory.server_cache_bytes / MB:.2f} MB "
          f"({memory.server_cache_pages} pages)")
    print(f"  client cache       : {memory.client_cache_bytes / MB:.2f} MB "
          f"({memory.client_cache_pages} pages)")
    print(f"  query memory       : {memory.query_memory_bytes / MB:.2f} MB")
    print("database")
    print(f"  providers          : {config.n_providers}")
    print(f"  patients           : {config.n_patients}")
    print(f"  scale              : {config.scale:g}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run_lint

    return run_lint(args)


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Benchmarking Queries over Trees' "
        "(SIGMOD 2000)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="regenerate a paper figure")
    figures.add_argument(
        "figure",
        choices=[*FIGURES, "all"],
        help="which figure to build",
    )
    figures.add_argument("--scale", type=_positive(float), default=None)
    figures.set_defaults(func=cmd_figures)

    load_cmd = sub.add_parser("load", help="build a database, report costs")
    _add_db_options(load_cmd)
    load_cmd.set_defaults(func=cmd_load)

    shell = sub.add_parser("shell", help="interactive OQL shell")
    _add_db_options(shell)
    _add_optimizer_option(shell)
    shell.set_defaults(func=cmd_shell)

    serve = sub.add_parser(
        "serve", help="multi-session shell over one shared server"
    )
    _add_db_options(serve)
    _add_optimizer_option(serve)
    serve.set_defaults(func=cmd_serve)

    mix = sub.add_parser(
        "mix", help="run a deterministic multi-client workload mix"
    )
    _add_db_options(mix)
    mix.add_argument("--clients", type=int, default=4,
                     help="client count, dealt round-robin over "
                     "navigator/scanner/updater profiles")
    mix.add_argument("--ops", type=int, default=4,
                     help="operations (transactions) per client")
    mix.add_argument("--seed", type=int, default=1)
    mix.add_argument("--batch-size", type=int, default=None,
                     help="rows per operator batch for every session's "
                          "queries (default: engine default)")
    mix.add_argument("--lock-timeout", type=float, default=None,
                     help="lock wait bound in simulated seconds "
                     "(default: none, deadlock detection only)")
    mix.add_argument("--budget-pages", type=int, default=None,
                     help="per-statement client page-fault budget")
    mix.add_argument("--max-active", type=int, default=None,
                     help="admission control: sessions allowed to run an "
                          "op concurrently (others queue FIFO)")
    mix.add_argument("--isolation", choices=("2pl", "si"), default="2pl",
                     help="concurrency control: strict 2PL (readers take "
                          "S locks) or MVCC snapshot isolation (lock-free "
                          "snapshot reads, first-committer-wins writes; "
                          "implies physical logging)")
    _add_optimizer_option(mix)
    mix.add_argument("--csv", default=None,
                     help="also export the Stat rows as CSV to this path")
    mix.add_argument("--sessions-csv", default=None,
                     help="also export per-session metrics as CSV "
                     "to this path")
    mix.set_defaults(func=cmd_mix)

    chaos = sub.add_parser(
        "chaos",
        help="seeded chaos suites: crash-recovery fuzz, transient-fault "
             "mixes, 2PC cluster crashes, primary-kill failover",
    )
    chaos.add_argument("--suite", choices=CHAOS_SUITES, required=True,
                       help="which suite's cases and invariants to run "
                            "(recovery runs every seed at each crash point)")
    chaos.add_argument("--cases", type=_positive(int), default=25,
                       help="seeded cases to run (at least one: a run "
                            "that checked nothing must not pass)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed (case i uses seed base+i)")
    chaos.add_argument("--ship-mode", choices=("sync", "async"), default=None,
                       help="WAL shipping mode of the failover suite "
                            "(default: sync)")
    chaos.set_defaults(func=cmd_chaos)

    shard = sub.add_parser(
        "shard", help="horizontal-sharding demo"
    )
    shard_sub = shard.add_subparsers(dest="action", required=True)

    shard_demo = shard_sub.add_parser(
        "demo", help="partition a database, run a distributed query + mix"
    )
    _add_db_options(shard_demo)
    shard_demo.add_argument("--shards", type=int, default=4,
                            help="number of shard nodes")
    shard_demo.add_argument("--scheme", choices=("hash", "range"),
                            default="hash", help="partitioning scheme")
    shard_demo.add_argument("--clients", type=int, default=4,
                            help="clients in the sharded mix")
    shard_demo.add_argument("--ops", type=int, default=4,
                            help="operations per client")
    shard_demo.add_argument("--seed", type=int, default=1)
    shard_demo.add_argument("--replicas", type=int, choices=(0, 1),
                            default=0, help="warm standbys per shard")
    shard_demo.add_argument("--ship-mode", choices=("sync", "async"),
                            default="sync",
                            help="WAL shipping mode when replicated")
    shard_demo.set_defaults(func=cmd_shard_demo)

    failover = sub.add_parser(
        "failover",
        help="per-shard replication failover demo",
    )
    failover_sub = failover.add_subparsers(dest="action", required=True)

    failover_demo = failover_sub.add_parser(
        "demo",
        help="kill a primary under load, watch detection + promotion",
    )
    _add_db_options(failover_demo)
    failover_demo.add_argument("--shards", type=int, default=2,
                               help="number of shard nodes")
    failover_demo.add_argument("--scheme", choices=("hash", "range"),
                               default="hash", help="partitioning scheme")
    failover_demo.add_argument("--ship-mode", choices=("sync", "async"),
                               default="sync", help="WAL shipping mode")
    failover_demo.add_argument("--kill-at", type=float, default=0.05,
                               help="kill time on the simulated clock (s)")
    failover_demo.add_argument("--clients", type=int, default=4,
                               help="clients in the sharded mix")
    failover_demo.add_argument("--ops", type=int, default=4,
                               help="operations per client")
    failover_demo.add_argument("--seed", type=int, default=1)
    failover_demo.set_defaults(func=cmd_failover_demo)

    layout = sub.add_parser(
        "layout", help="print the Figure 2 view of a database's files"
    )
    _add_db_options(layout)
    layout.add_argument("--records", type=int, default=10,
                        help="records shown per file")
    layout.set_defaults(func=cmd_layout)

    analyze = sub.add_parser(
        "analyze",
        help="collect optimizer statistics (cardinalities, histograms, "
        "fan-out) and persist them",
    )
    _add_db_options(analyze)
    analyze.add_argument("collections", nargs="*",
                         help="collections to analyze (default: all)")
    analyze.set_defaults(func=cmd_analyze)

    info = sub.add_parser("info", help="print cost model and budgets")
    _add_db_options(info)
    info.set_defaults(func=cmd_info)

    from repro.lint.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run simlint, the invariant linter (determinism, cost "
        "charging, layering, pairing, exceptions, atomicity, protocols, "
        "handle escape)",
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=cmd_lint)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
