"""ESCAPE fixtures: a kernel's row function answering its handle."""


def fetches_handles(om, rids, out):
    om.fetch(rids, lambda om, handle: handle, out)  # line 5 -> ESCAPE


def fetches_some_handles(om, rids):
    om.fetch(rids, row_fn=lambda o, h: h if h else 0)  # line 9 -> ESCAPE
