#!/usr/bin/env python
"""Querying XML-style document trees: the paper's motivating scenario.

The paper opens with hierarchical structures "very popular nowadays,
thanks to XML": follow links node to node (the title of the first
section of one document) or run associative accesses (the titles of a
large collection of documents).  This example builds a document/section
hierarchy on the object store — a different schema from Derby — and
shows that the same four algorithms and the same clustering trade-offs
apply.  A catalog registers the schema's collections, indexes and
parent/child relationship, so the tree query runs as OQL text, once per
algorithm with that algorithm forced.

Run:  python examples/xml_document_tree.py
"""

from __future__ import annotations

import random

from repro.index import IndexManager
from repro.objects import AttrKind, AttributeDef, Database, Schema
from repro.oql import Catalog, OQLEngine
from repro.oql.catalog import RelationshipInfo
from repro.simtime import CostParams

N_DOCUMENTS = 300
SECTIONS_PER_DOC = 12
SCALE = 0.01


def build_schema() -> Schema:
    schema = Schema()
    schema.define(
        "Document",
        [
            AttributeDef("title", AttrKind.STRING, width=24),
            AttributeDef("docid", AttrKind.INT32),
            AttributeDef("year", AttrKind.INT32),
            AttributeDef("sections", AttrKind.REF_SET, target="Section"),
        ],
    )
    schema.define(
        "Section",
        [
            AttributeDef("title", AttrKind.STRING, width=24),
            AttributeDef("secid", AttrKind.INT32),
            AttributeDef("words", AttrKind.INT32),
            AttributeDef("document", AttrKind.REF, target="Document"),
        ],
    )
    return schema


def build_corpus(db: Database) -> Catalog:
    """Documents followed by their sections (composition clustering),
    registered in a catalog for the query engine."""
    rng = random.Random(42)
    db.create_file("corpus")
    documents = db.new_collection("Documents")
    sections = db.new_collection("Sections")
    manager = IndexManager(db)
    by_docid, __ = manager.create_index("by_docid", documents, "docid")
    by_secid, __ = manager.create_index("by_secid", sections, "secid")

    doc_pairs, sec_pairs = [], []
    secid = 0
    for docid in range(1, N_DOCUMENTS + 1):
        doc_rid = db.create_object(
            "Document",
            {"title": f"doc-{docid}", "docid": docid,
             "year": 1995 + docid % 6},
            "corpus",
            index_ids=(by_docid.index_id,),
        )
        documents.append(doc_rid)
        doc_pairs.append((docid, doc_rid))
        children = []
        for __ in range(SECTIONS_PER_DOC):
            secid += 1
            sec_rid = db.create_object(
                "Section",
                {"title": f"sec-{secid}", "secid": secid,
                 "words": rng.randrange(5000), "document": doc_rid},
                "corpus",
                index_ids=(by_secid.index_id,),
            )
            sections.append(sec_rid)
            sec_pairs.append((secid, sec_rid))
            children.append(sec_rid)
        db.manager.update_set(doc_rid, "sections", db.prepare_set(children))
    documents.flush()
    sections.flush()
    by_docid.bulk_build(doc_pairs)
    by_secid.bulk_build(sec_pairs)
    db.shutdown()

    catalog = Catalog(db)
    catalog.register_collection("Documents", documents, "Document", "corpus")
    catalog.register_collection("Sections", sections, "Section", "corpus")
    catalog.register_index("Documents", "docid", by_docid)
    catalog.register_index("Sections", "secid", by_secid)
    catalog.register_relationship(RelationshipInfo(
        parent_collection="Documents",
        set_attr="sections",
        child_collection="Sections",
        child_ref="document",
        children_with_parents=True,
    ))
    return catalog


def navigation_access(db: Database, by_docid) -> str:
    """Follow links: the title of the first section of document 17."""
    om = db.manager
    (doc_rid,) = by_docid.lookup(17)
    doc = om.load(doc_rid)
    sections = om.get_attr(doc, "sections")
    first = next(iter(db.iter_set_rids(sections)))
    om.unref(doc)
    return om.get_attr_at(first, "title")


def main() -> None:
    db = Database(build_schema(), CostParams().scaled(SCALE))
    catalog = build_corpus(db)
    print(f"Corpus: {N_DOCUMENTS} documents, "
          f"{N_DOCUMENTS * SECTIONS_PER_DOC} sections, "
          f"{db.disk.total_pages()} pages\n")

    # -- navigation: node-to-node link following --------------------
    db.restart_cold()
    db.reset_meters()
    title = navigation_access(db, catalog.index_for("Documents", "docid"))
    print(f"Navigation: first section of document 17 is {title!r} "
          f"({db.clock.elapsed_s * 1000:.1f} simulated ms)\n")

    # -- associative access: the tree query over the whole corpus ----
    half_the_documents = N_DOCUMENTS // 2
    early_sections = N_DOCUMENTS * SECTIONS_PER_DOC // 10 + 1  # 10%
    text = (
        "select tuple(d: d.title, s: s.title) "
        "from d in Documents, s in d.sections "
        f"where s.secid < {early_sections} and d.docid < {half_the_documents}"
    )
    engine = OQLEngine(catalog)
    print("Associative: titles of early sections of the first half of "
          "the corpus, by algorithm:")
    timings = {}
    for algo in ("NL", "NOJOIN", "PHJ", "CHJ"):
        db.restart_cold()
        db.reset_meters()
        rows = engine.execute_iter(engine.plan(text, force=algo)).drain()
        timings[algo] = db.clock.elapsed_s
        print(f"  {algo:7s} {db.clock.elapsed_s:8.3f} simulated s, "
              f"{db.counters.disk_reads:5d} page reads, "
              f"{len(rows)} rows")
    winner = min(timings, key=timings.get)
    print(f"\nWinner here: {winner}.  The same four strategies and the "
          "same clustering trade-offs\nthe paper measured on Derby "
          "(Figures 11-14) apply to any parent/child hierarchy.")


if __name__ == "__main__":
    main()
