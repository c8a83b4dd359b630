"""Per-layer attribution of the traced pass.

The traced pass runs under ``cProfile``.  Self time and call counts are
summed per ``repro.<layer>`` package; a function outside ``repro`` (a
builtin, the stdlib) is charged to the layer of its *direct caller*,
edge by edge, and to ``other`` when the caller is not in ``repro``
either.

Calls into ``threading.py`` and whatever it calls are set aside as
*waits*, and so is the main thread's ``CooperativeScheduler.run``, which
sleeps on a ``Condition`` and re-checks ``any(task not done)`` at every
wake-up.  ``repro.service``'s scheduler hands a baton between OS
threads, so how often a parked thread wakes to find the baton elsewhere
-- and how long it then blocks -- is the kernel's business, not the
program's.  Leaving them out is what makes ``host_calls`` repeat exactly
on the threaded workload.
"""

from __future__ import annotations

import cProfile
import threading
from dataclasses import dataclass, field

#: The ``src/repro`` packages that are layers, in report order.
LAYERS = (
    "derby", "cluster", "storage", "buffer", "objects", "index", "simtime",
    "exec", "oql", "opt", "txn", "recovery", "service", "dist",
)

#: Named hot spots: metric -> (file suffix, qualified-name prefix).
HOT_SPOTS = {
    "simtime.charge_calls": ("repro/simtime/clock.py", "SimClock.charge_"),
    "simtime.enum_hash_calls": ("/enum.py", "Enum.__hash__"),
    "objects.get_attr_calls": (
        "repro/objects/manager.py", "ObjectManager.get_attr"),
    "objects.decode_attr_calls": (
        "repro/objects/codec.py", "RecordCodec.decode_attr"),
    "objects.borrow_calls": ("repro/objects/manager.py", "ObjectManager.borrow"),
    "buffer.get_page_calls": (
        "repro/buffer/client_server.py", "ClientServerSystem.get_page"),
}


class ThreadedProfile:
    """``cProfile`` that follows the scheduler's session threads.

    ``cProfile`` profiles one thread; the mixes run every client session
    in its own.  ``threading.setprofile`` installs a hook in each new
    thread, and the hook's first event swaps itself for a profiler of
    that thread's own."""

    def __init__(self) -> None:
        self._main = cProfile.Profile()
        self._threads: list[cProfile.Profile] = []

    def _hook(self, frame, event, arg) -> None:
        profile = cProfile.Profile()
        self._threads.append(profile)
        profile.enable()

    def enable(self) -> None:
        threading.setprofile(self._hook)
        self._main.enable()

    def disable(self) -> None:
        self._main.disable()
        threading.setprofile(None)

    def entries(self) -> list:
        """Every thread's ``getstats()`` rows.  Not ``pstats``: its table
        is keyed by ``(file, line, name)``, under which every dataclass
        ``__init__`` is ``("<string>", 2, "__init__")`` and all but one
        are silently dropped."""
        return [
            entry
            for profile in (self._main, *self._threads)
            for entry in profile.getstats()
        ]


def _where(code) -> tuple[str, str]:
    """``(filename, qualified name)`` of a profiler row's ``code``,
    which is a code object, or a string for a builtin."""
    if isinstance(code, str):
        return "~", code
    return code.co_filename, code.co_qualname


def layer_of(filename: str) -> str | None:
    """``repro.<layer>`` for a source file, ``other`` for the rest of
    ``repro``, ``None`` for code outside it."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    package = filename[at + len(marker):].split("/", 1)[0]
    return package if package in LAYERS else "other"


def _is_wait(filename: str, qualname: str) -> bool:
    return filename.endswith("/threading.py") or (
        filename.endswith("repro/service/scheduler.py")
        and qualname.startswith("CooperativeScheduler.run")
    )


@dataclass
class LayerTable:
    """Calls and self seconds per layer (plus ``other``)."""

    calls: dict[str, int] = field(default_factory=dict)
    self_s: dict[str, float] = field(default_factory=dict)
    hot: dict[str, int] = field(default_factory=dict)
    #: Calls and seconds set aside as thread hand-off waits.
    wait_calls: int = 0
    wait_s: float = 0.0

    @property
    def total_calls(self) -> int:
        return sum(self.calls.values())

    def share(self, layer: str) -> float:
        total = sum(self.self_s.values())
        return self.self_s.get(layer, 0.0) / total if total else 0.0

    def _add(self, where: str | None, calls: int, seconds: float) -> None:
        """Charge to a layer, or to the waits when ``where`` is None."""
        if where is None:
            self.wait_calls += calls
            self.wait_s += seconds
        else:
            self.calls[where] = self.calls.get(where, 0) + calls
            self.self_s[where] = self.self_s.get(where, 0.0) + seconds


def attribute(entries: list) -> LayerTable:
    """Fold ``cProfile.Profile.getstats()`` rows into a
    :class:`LayerTable`.  A row has ``code``, ``callcount``,
    ``inlinetime`` (self seconds) and ``calls``: the same three fields
    for each function it called, as called from it."""
    table = LayerTable(hot={name: 0 for name in HOT_SPOTS})
    #: Calls and self seconds of each outside function not yet charged
    #: to a caller; what is left came from unprofiled frames.
    outside: dict[object, list] = {}

    def leftover(code, calls: int, seconds: float) -> None:
        left = outside.setdefault(code, [0, 0.0])
        left[0] += calls
        left[1] += seconds

    for entry in entries:
        filename, qualname = _where(entry.code)
        for metric, (suffix, prefix) in HOT_SPOTS.items():
            if filename.endswith(suffix) and qualname.startswith(prefix):
                table.hot[metric] += entry.callcount
        layer = layer_of(filename)
        # Where this function's own calls, and its calls out of repro, go.
        home = None if _is_wait(filename, qualname) else layer or "other"
        if layer is None:
            leftover(entry.code, entry.callcount, entry.inlinetime)
        else:
            table._add(home, entry.callcount, entry.inlinetime)
        for edge in entry.calls or ():
            callee = _where(edge.code)
            if layer_of(callee[0]) is None:
                table._add(
                    None if _is_wait(*callee) else home,
                    edge.callcount, edge.inlinetime,
                )
                leftover(edge.code, -edge.callcount, -edge.inlinetime)
    for code, (calls, seconds) in outside.items():
        if calls:
            table._add(
                None if _is_wait(*_where(code)) else "other",
                calls, max(0.0, seconds),
            )
    return table
