"""The benchmark-results database.

A :class:`StatsDatabase` is an instance of this library's own object
database holding the Figure 3 objects — the paper's own medicine, taken.
It has one writer and one reader: :meth:`~StatsDatabase.record` makes a
dict of attribute values persistent as an object of a schema class and
appends it to that class's extent; :meth:`~StatsDatabase.objects`
decodes an extent in recording order.  ``record_experiment`` turns one
measured run (metadata + meter snapshot + elapsed simulated time) into a
``Stat`` with its ``Query`` and ``System``; the query helpers do what the
paper praises a real query language for ("a query language can be used
to extract the information you are looking for").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.objects.database import Database, PersistentCollection
from repro.simtime import MeterSnapshot
from repro.stats.schema import (
    QUERY_CLASS,
    STAT_CLASS,
    SYSTEM_CLASS,
    build_stats_schema,
)
from repro.storage.rid import Rid
from repro.units import MB

_FILE = "stats"


@dataclass(frozen=True)
class StatRow:
    """One decoded Stat (plus its Query), flat for analysis/export."""

    numtest: int
    algo: str
    cluster: str
    selectivity: int
    selectivity_parents: int
    cold: bool
    projectiontype: str
    text: str
    elapsed_s: float
    rpcs: int
    rpc_mb: float
    d2sc_pages: int
    sc2cc_pages: int
    cc_faults: int
    cc_missrate: int
    sc_missrate: int
    #: Simulated milliseconds from query start to the first result row
    #: (0.0 when the run predates pipelining or produced no rows).
    first_row_ms: float = 0.0
    #: High-water mark of rows buffered across the operator tree.
    peak_rows: int = 0
    #: Statements retried after a deadlock/lock-timeout abort.
    retries: int = 0
    #: Cooperative cancellations delivered by the query service.
    cancelled: int = 0
    #: Statements aborted for exceeding a resource budget.
    over_budget: int = 0


class StatsDatabase:
    """Stores and queries experiment results."""

    def __init__(self) -> None:
        self.db = Database(build_stats_schema())
        self.db.create_file(_FILE)
        #: class name -> its extent, bound under that name by the class's
        #: first :meth:`record`.
        self._extents: dict[str, PersistentCollection] = {}

    # -- the one writer and the one reader ------------------------------------

    def record(self, class_name: str, values: dict[str, object]) -> Rid:
        """Persist ``values`` as a new ``class_name`` object and append it
        to that class's extent.  A set attribute takes a list of rids."""
        rid = self.db.create_object(class_name, values, _FILE)
        extent = self._extents.get(class_name)
        if extent is None:
            extent = self._extents[class_name] = self.db.new_collection(class_name)
        extent.append(rid)
        return rid

    def objects(self, class_name: str) -> list[dict]:
        """Every recorded ``class_name`` object, decoded, in recording
        order."""
        extent = self._extents.get(class_name)
        return [] if extent is None else [self.decode(rid) for rid in extent.iter_rids()]

    def decode(self, rid: Rid) -> dict:
        """The object at ``rid`` as the values :meth:`record` took: a ref
        is a rid, a set the list of its members' rids."""
        om = self.db.manager
        record, class_def = om.read_record(rid)
        values = om.codec(class_def).decode(record)
        for attr in class_def.set_attributes():
            values[attr.name] = list(self.db.iter_set_rids(values[attr.name]))
        return values

    # -- experiments ----------------------------------------------------------

    def record_experiment(
        self,
        algo: str,
        cluster: str,
        elapsed_s: float,
        meters: MeterSnapshot,
        text: str = "",
        selectivity: int = 0,
        selectivity_parents: int = 0,
        cold: bool = True,
        server_cache_bytes: int = 0,
        client_cache_bytes: int = 0,
        first_row_ms: float = 0.0,
        peak_rows: int = 0,
        retries: int = 0,
        cancelled: int = 0,
        over_budget: int = 0,
    ) -> Rid:
        """Persist one experiment; returns the Stat's rid."""
        system = self.record(SYSTEM_CLASS, {
            "servercachesize": server_cache_bytes,
            "clientcachesize": client_cache_bytes,
            "sameworkstation": True,
        })
        query = self.record(QUERY_CLASS, {
            "cold": cold,
            "projectiontype": "tuple",
            "selectivity": selectivity,
            "selectivityparents": selectivity_parents,
            "text": text,
        })
        return self.record(STAT_CLASS, {
            "numtest": len(self) + 1,
            "query": query,
            "cluster": cluster,
            "algo": algo,
            "system": system,
            "CCPagefaults": meters.client_faults,
            "ElapsedTime": elapsed_s,
            "RPCsnumber": meters.rpcs,
            "RPCstotalsize": meters.rpc_bytes / MB,
            "D2SCreadpages": meters.disk_reads,
            "SC2CCreadpages": meters.server_to_client,
            "CCMissrate": round(meters.client_miss_rate * 100),
            "SCMissrate": round(meters.server_miss_rate * 100),
            "FirstRowTime": first_row_ms,
            "PeakLiveRows": peak_rows,
            "Retries": retries,
            "Cancelled": cancelled,
            "OverBudget": over_budget,
        })

    def rows(
        self,
        algo: str | None = None,
        cluster: str | None = None,
        selectivity: int | None = None,
    ) -> list[StatRow]:
        """Decode (and filter) every stored Stat with its Query."""
        out: list[StatRow] = []
        for stat in self.objects(STAT_CLASS):
            query = self.decode(stat["query"])
            if (
                (algo is not None and stat["algo"] != algo)
                or (cluster is not None and stat["cluster"] != cluster)
                or (selectivity is not None and query["selectivity"] != selectivity)
            ):
                continue
            out.append(StatRow(
                numtest=stat["numtest"],
                algo=stat["algo"],
                cluster=stat["cluster"],
                selectivity=query["selectivity"],
                selectivity_parents=query["selectivityparents"],
                cold=query["cold"],
                projectiontype=query["projectiontype"],
                text=query["text"],
                elapsed_s=stat["ElapsedTime"],
                rpcs=stat["RPCsnumber"],
                rpc_mb=stat["RPCstotalsize"],
                d2sc_pages=stat["D2SCreadpages"],
                sc2cc_pages=stat["SC2CCreadpages"],
                cc_faults=stat["CCPagefaults"],
                cc_missrate=stat["CCMissrate"],
                sc_missrate=stat["SCMissrate"],
                first_row_ms=stat["FirstRowTime"],
                peak_rows=stat["PeakLiveRows"],
                retries=stat["Retries"],
                cancelled=stat["Cancelled"],
                over_budget=stat["OverBudget"],
            ))
        return out

    def best_algorithm(
        self, cluster: str, selectivity: int, selectivity_parents: int
    ) -> StatRow | None:
        """The fastest recorded algorithm for one experimental cell."""
        candidates = [
            row
            for row in self.rows(cluster=cluster, selectivity=selectivity)
            if row.selectivity_parents == selectivity_parents
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda row: row.elapsed_s)

    def __len__(self) -> int:
        return len(self._extents.get(STAT_CLASS, ()))
