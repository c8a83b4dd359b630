"""The one chaos harness: suite shape, seeded runner, last-writer oracle.

A chaos **suite** is a seeded case generator plus a list of invariant
checks.  The generator (:attr:`Suite.execute`) draws one case from its
seed, drives it through its fault — and through recovery or failover,
where the fault is fatal — and hands back the suite's result record
together with the *evidence* the invariants inspect.  Every invariant is
a function ``evidence -> [failure, ...]`` naming each clause of the
contract it found broken; a new fault scenario is one generator plus at
most one new invariant.

What the four suites (``recovery``, ``service``, ``2pc``, ``failover``)
used to re-implement lives here once:

* :func:`run_suite` / :func:`run_case` own the ``base_seed + i`` seed
  walk and the **determinism** clause — every case runs twice on fresh
  state and the two digests must be identical;
* :func:`check_last_writer` is the **committed-visible /
  uncommitted-gone** oracle over a workload's acked ``write_log``.

The module sits in :mod:`repro.recovery`, the lowest of the three layers
that define suites, so :mod:`repro.service` and :mod:`repro.dist` import
it downward.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping


@dataclass
class Suite:
    """A case generator plus the invariants every case must hold."""

    name: str
    #: ``execute(seed, *variant, **params) -> (result, evidence)``.  The
    #: result carries at least ``seed``, ``failures`` (a list the
    #: harness extends) and ``digest`` (the canonical simulated outcome
    #: the determinism clause compares).
    execute: Callable[..., tuple[Any, Any]]
    #: ``check(evidence) -> [failure, ...]``, run in order.
    invariants: list[Callable[[Any], list[str]]]
    #: ``summarize(results)`` renders a run for the terminal.
    summarize: Callable[[list], object]
    #: Extra positional arguments every seed is run under, one case per
    #: entry (the recovery suite runs each seed at every crash point).
    variants: tuple[tuple, ...] = ((),)

    def run_once(self, seed: int, *variant, **params):
        """One execution of one case, checked against every invariant."""
        result, evidence = self.execute(seed, *variant, **params)
        for check in self.invariants:
            result.failures.extend(check(evidence))
        return result


def run_case(
    suite: Suite, seed: int, *variant, check_determinism: bool = True, **params
):
    """Run one seeded case; with ``check_determinism`` run it twice, on
    fresh state each time, and require identical digests."""
    result = suite.run_once(seed, *variant, **params)
    if check_determinism:
        again = suite.run_once(seed, *variant, **params)
        if again.digest != result.digest:
            result.failures.append(
                f"seed {seed}: re-run produced a different digest "
                "(determinism violated)"
            )
    return result


def run_suite(
    suite: Suite,
    cases: int,
    base_seed: int = 0,
    check_determinism: bool = True,
    **params,
) -> list:
    """Run seeds ``base_seed .. base_seed + cases - 1`` under every
    variant of the suite; each case is independent."""
    return [
        run_case(
            suite, base_seed + i, *variant,
            check_determinism=check_determinism, **params,
        )
        for variant in suite.variants
        for i in range(cases)
    ]


def suite_fingerprint(results: Iterable) -> str:
    """One sha256 over the cases' ``repr(digest)`` in run order: what a
    report keeps of a suite run in place of every case record."""
    sha = hashlib.sha256()
    for result in results:
        sha.update(repr(result.digest).encode())
    return sha.hexdigest()


def check_last_writer(
    preload: Mapping[Hashable, int],
    write_log: Iterable[tuple[Hashable, int]],
    final: Mapping[Hashable, int],
    staged: Iterable[tuple[Hashable, int]] = (),
    exact: Callable[[Any], bool] = lambda key: True,
    describe: Callable[[Any], str] = repr,
) -> list[str]:
    """The committed-visible / uncommitted-gone oracle.

    ``preload`` is every watched record's value before the run (the
    recovery suite watches the records its workload creates as ``None``,
    the value of a record that is gone);
    ``write_log`` the acked writes ``(key, value)`` in ack order — the
    single deterministic timeline totally orders commits, so the last
    write per key is the value that must be durable; ``staged`` the
    writes of transactions whose commit *won* without any client hearing
    the ack (a durable 2PC decision, a commit record on a promoted
    replica), applied after the acked ones; ``final`` the durable values
    read back (unreadable keys are simply absent).

    * **lost update** — a durable value differs from the last write.
      ``exact(key)`` is false for keys on an async-shipped shard that
      reported a loss window: there a lost acked write is the documented
      bounded loss and is tolerated;
    * **dirty write survived** — a durable value is neither the preload
      value nor any acked or staged write.  Never tolerated.
    """
    failures: list[str] = []
    expected = dict(preload)
    legal = {key: {value} for key, value in preload.items()}
    for key, value in [*write_log, *staged]:
        if key not in legal:
            failures.append(
                f"{describe(key)}: acked write outside the watched set"
            )
            continue
        expected[key] = value
        legal[key].add(value)
    for key, value in final.items():
        if exact(key) and value != expected[key]:
            failures.append(
                f"{describe(key)}: expected {expected[key]}, durable "
                f"value {value} (lost update)"
            )
        if value not in legal[key]:
            failures.append(
                f"{describe(key)}: durable value {value} was never "
                "committed (dirty write survived)"
            )
    return failures
