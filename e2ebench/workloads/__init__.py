"""The benchmark's workloads, one module each.

Every module defines ``Workload(seed)``:

* the constructor generates the seed's inputs (the set-up ``setup_s``
  times);
* ``run_pass()`` runs one whole round of the workload's operations
  from fresh routers and returns their ``Outcome``s;
* ``check(outcomes, problems)`` records what is wrong in a pass's
  outputs, and ``digest(outcomes)`` gives the bytes two passes of one
  run must share;
* ``finish(outcomes, problems, traced)`` makes the once-per-run checks
  and returns any host-time extras for the traced run.

A module imports only what its workload needs, so ``setup_s`` sees the
import cost of the runs it stands for.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

NAMES = ("table3", "storm", "topo", "regress")


class OperationFailed(Exception):
    """An operation ran to its end without doing its work (a stall, a
    packet left unprocessed, a failed grid cell)."""


@dataclass(slots=True)
class Outcome:
    """One operation of a pass: its transactions and its output, or the
    error that stopped it."""

    name: str
    transactions: int = 0
    value: object = None
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None


def attempt(name: str, operation) -> Outcome:
    """Run ``operation() -> (transactions, value)``; a raised error of
    any kind is a failed operation, never a crash of the benchmark."""
    try:
        transactions, value = operation()
    except Exception as error:  # noqa: BLE001 — every failure is counted
        return Outcome(name, error=f"{type(error).__name__}: {error}")
    return Outcome(name, transactions, value)


@dataclass(slots=True)
class Problems:
    """Correctness problems found by a workload's checks."""

    items: list[str] = field(default_factory=list)

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.items.append(message)


def canonical(value: object) -> str:
    """Byte form used to compare the outputs of two passes."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))
