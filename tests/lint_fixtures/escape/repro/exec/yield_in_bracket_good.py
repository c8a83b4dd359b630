"""ESCAPE fixture: rows built inside the bracket, yielded after it."""


def rows(om, rids):
    for rid in rids:
        row = None
        with om.borrow(rid) as handle:
            if om.get_attr(handle, "age") < 50:
                row = om.get_attr(handle, "name")
        if row is not None:
            yield row


def delegates(om, rid, db):
    with om.borrow(rid) as handle:
        children = om.get_attr(handle, "clients")
    yield from db.iter_set_rids(children)

