"""ESCAPE fixture: a row generator that suspends inside its bracket."""


def rows(om, rids):
    for rid in rids:
        with om.borrow(rid) as handle:
            row = om.get_attr(handle, "age")
            yield row                      # line 8 -> ESCAPE


def delegates(om, rid, db):
    with om.borrow(rid) as handle:
        children = om.get_attr(handle, "clients")
        yield from db.iter_set_rids(children)   # line 14 -> ESCAPE
