"""Figure 2, generated: dump a database's physical organization.

The paper's Figure 2 shows the three layouts as annotated file listings
("@d1 'Donald Duck' ... {p14, p22, p50}").  :func:`describe_layout`
produces the same picture from a live database — records in physical
order, with names and references — which makes clustering effects
visible at a glance and gives tests something concrete to assert about
placement.

Inspection is *unaccounted*: it peeks at pages without charging the
clock or counters (it is tooling, not workload).
"""

from __future__ import annotations

import io
import struct

from repro.cluster.loader import DerbyDatabase
from repro.errors import SchemaError
from repro.objects.codec import InlineSet, OverflowSet
from repro.objects.database import Database
from repro.storage.rid import Rid


def describe_layout(
    db: Database,
    file_names: list[str],
    max_records: int = 8,
) -> str:
    """Render the first records of each file in physical order."""
    out = io.StringIO()
    for fname in file_names:
        sfile = db.file(fname)
        out.write(
            f"{fname} file: {sfile.num_pages} pages, "
            f"{sfile.record_count} records\n"
        )
        shown = 0
        for page in db.disk.iter_pages(sfile.file_id):
            for slot in page.slots():
                if shown >= max_records:
                    break
                rid = Rid(sfile.file_id, page.page_no, slot)
                out.write(f"  {rid}  {_describe_record(db, page.read(slot))}\n")
                shown += 1
            if shown >= max_records:
                break
        if sfile.record_count > max_records:
            out.write(f"  ... {sfile.record_count - max_records} more\n")
    return out.getvalue()


def describe_derby_layout(derby: DerbyDatabase, max_records: int = 8) -> str:
    """Figure 2 for a loaded Derby database, whatever its organization."""
    names = [
        fname
        for fname in ("providers", "patients", "objects")
        if derby.db.has_file(fname)
    ]
    header = (
        f"Physical organization: {derby.config.clustering.value} "
        f"({derby.config.n_providers} providers, "
        f"{derby.config.n_patients} patients)\n"
    )
    return header + describe_layout(derby.db, names, max_records)


def _describe_record(db: Database, record: bytes) -> str:
    try:
        class_def = db.manager.class_of(record)
    except (SchemaError, struct.error, IndexError):
        # Not a decodable object record (free space, torn bytes): show
        # it opaquely.  Anything else — aborts, lock errors — must
        # propagate.
        return f"<{len(record)}-byte record>"
    codec = db.manager.codec(class_def)
    values = codec.decode(record)
    parts = [class_def.name]
    name = values.get("name")
    if isinstance(name, str) and name:
        parts.append(f"{name!r}")
    for attr in ("upin", "mrn", "id"):
        if attr in values:
            parts.append(f"{attr}={values[attr]}")
            break
    for attr, value in values.items():
        if isinstance(value, Rid):
            parts.append(f"{attr}->{value}")
        elif isinstance(value, InlineSet) and value.count:
            rids = ", ".join(repr(r) for r in value.rids[:4])
            suffix = ", ..." if value.count > 4 else ""
            parts.append(f"{attr}={{{rids}{suffix}}}")
        elif isinstance(value, OverflowSet):
            parts.append(
                f"{attr}=<{value.count} elements via {value.head}>"
            )
    return " ".join(parts)
