"""ESCAPE fixtures: handles consumed while still pinned."""


def derives_value(om, rid):
    with om.borrow(rid) as handle:
        return om.get_attr(handle, "name")  # derived value, handle consumed


def collects_derived(om, rids, out):
    for rid in rids:
        with om.borrow(rid) as handle:
            out.append(om.get_attr(handle, "name"))


def accumulates(om, rids):
    total = 0
    for rid in rids:
        with om.borrow(rid) as handle:
            total += om.get_attr(handle, "size")
    return total


def fetches_values(om, rids, out):
    om.fetch(rids, lambda om, handle: om.get_attr(handle, "name"), out)
