"""The Figure 3 object schema for benchmark results.

Classes (attribute comments quote the paper's own annotations)::

    class Stat
        numtest, query: Query, database: {Extent}, cluster, algo,
        system: System,
        CCPagefaults      /* page faults in the client cache */
        ElapsedTime       /* elapsed time of the query */
        RPCsnumber        /* RPCs between client and server cache */
        RPCstotalsize     /* total size (Mb) of those messages */
        D2SCreadpages     /* pages read disk -> server cache */
        SC2CCreadpages    /* pages read server cache -> client cache */
        CCMissrate        /* client cache miss rate (percent) */
        SCMissrate        /* server cache miss rate (percent) */

    class Query:  cold, projectiontype, selectivity, text
    class Extent: classname, size, associations {[extent, linkratio]}
    class System: servercachesize, clientcachesize, sameworkstation

``Query`` also keeps the selectivity on the parents, which the Section 5
experiments vary beside the one Figure 3 gives it.  The optimizer's
statistics classes name their attributes after the fields of
:mod:`repro.opt.collector`'s dataclasses, so :mod:`repro.opt.persist`
maps them to and from plain dicts.
"""

from __future__ import annotations

from repro.objects.model import AttrKind, AttributeDef, Schema

STAT_CLASS = "Stat"
QUERY_CLASS = "Query"
EXTENT_CLASS = "Extent"
SYSTEM_CLASS = "System"
ASSOCIATION_CLASS = "Association"

# Optimizer-statistics classes (the ANALYZE pass persists its output
# through the same results database — see repro.opt.persist).
COLUMN_STAT_CLASS = "ColumnStat"
HIST_BUCKET_CLASS = "HistBucket"
EXTENT_STAT_CLASS = "ExtentStat"
FANOUT_STAT_CLASS = "FanoutStat"

#: Query text is longer than the default 16-byte strings.
_TEXT_WIDTH = 128


def build_stats_schema() -> Schema:
    """The Figure 3 schema, expressed in our object model."""
    schema = Schema()
    schema.define(
        SYSTEM_CLASS,
        [
            AttributeDef("servercachesize", AttrKind.INT32),
            AttributeDef("clientcachesize", AttrKind.INT32),
            AttributeDef("sameworkstation", AttrKind.BOOL),
        ],
    )
    schema.define(
        QUERY_CLASS,
        [
            AttributeDef("cold", AttrKind.BOOL),
            AttributeDef("projectiontype", AttrKind.STRING, width=32),
            AttributeDef("selectivity", AttrKind.INT32),
            AttributeDef("selectivityparents", AttrKind.INT32),
            AttributeDef("text", AttrKind.STRING, width=_TEXT_WIDTH),
        ],
    )
    schema.define(
        EXTENT_CLASS,
        [
            AttributeDef("classname", AttrKind.STRING, width=32),
            AttributeDef("size", AttrKind.INT32),
            AttributeDef("associations", AttrKind.REF_SET, target=ASSOCIATION_CLASS),
        ],
    )
    schema.define(
        ASSOCIATION_CLASS,
        [
            AttributeDef("extent", AttrKind.REF, target=EXTENT_CLASS),
            AttributeDef("linkratio", AttrKind.INT32),
        ],
    )
    schema.define(
        STAT_CLASS,
        [
            AttributeDef("numtest", AttrKind.INT32),
            AttributeDef("query", AttrKind.REF, target=QUERY_CLASS),
            AttributeDef("database", AttrKind.REF_SET, target=EXTENT_CLASS),
            AttributeDef("cluster", AttrKind.STRING, width=32),
            AttributeDef("algo", AttrKind.STRING, width=32),
            AttributeDef("system", AttrKind.REF, target=SYSTEM_CLASS),
            AttributeDef("CCPagefaults", AttrKind.INT32),
            AttributeDef("ElapsedTime", AttrKind.REAL64),
            AttributeDef("RPCsnumber", AttrKind.INT32),
            AttributeDef("RPCstotalsize", AttrKind.REAL64),
            AttributeDef("D2SCreadpages", AttrKind.INT32),
            AttributeDef("SC2CCreadpages", AttrKind.INT32),
            AttributeDef("CCMissrate", AttrKind.INT32),
            AttributeDef("SCMissrate", AttrKind.INT32),
            # Pipeline instrumentation (post-paper extension): simulated
            # milliseconds to the first result row, and the high-water
            # mark of rows buffered across the operator tree.
            AttributeDef("FirstRowTime", AttrKind.REAL64),
            AttributeDef("PeakLiveRows", AttrKind.INT32),
            # Governor instrumentation: retried statements, cooperative
            # cancellations delivered, and budget-exceeded aborts.
            AttributeDef("Retries", AttrKind.INT32),
            AttributeDef("Cancelled", AttrKind.INT32),
            AttributeDef("OverBudget", AttrKind.INT32),
        ],
    )
    # Optimizer statistics: what an ANALYZE pass learns about one
    # database, in the same spirit as the Figure 3 result classes.
    schema.define(
        HIST_BUCKET_CLASS,
        [
            AttributeDef("upper", AttrKind.REAL64),
            AttributeDef("count", AttrKind.INT32),
        ],
    )
    schema.define(
        COLUMN_STAT_CLASS,
        [
            AttributeDef("collection", AttrKind.STRING, width=32),
            AttributeDef("attr", AttrKind.STRING, width=32),
            AttributeDef("lo", AttrKind.REAL64),
            AttributeDef("min_value", AttrKind.REAL64),
            AttributeDef("max_value", AttrKind.REAL64),
            AttributeDef("n_distinct", AttrKind.INT32),
            AttributeDef("buckets", AttrKind.REF_SET, target=HIST_BUCKET_CLASS),
        ],
    )
    schema.define(
        EXTENT_STAT_CLASS,
        [
            AttributeDef("collection", AttrKind.STRING, width=32),
            AttributeDef("n_objects", AttrKind.INT32),
            AttributeDef("file_pages", AttrKind.INT32),
            AttributeDef("extent_pages", AttrKind.INT32),
            AttributeDef("sampled", AttrKind.INT32),
        ],
    )
    schema.define(
        FANOUT_STAT_CLASS,
        [
            AttributeDef("parent_collection", AttrKind.STRING, width=32),
            AttributeDef("set_attr", AttrKind.STRING, width=32),
            AttributeDef("child_collection", AttrKind.STRING, width=32),
            AttributeDef("sampled", AttrKind.INT32),
            AttributeDef("avg_children", AttrKind.REAL64),
            AttributeDef("max_children", AttrKind.INT32),
            AttributeDef("frac_with_children", AttrKind.REAL64),
        ],
    )
    return schema
