"""``regress``: ``run_grid`` over the committed goldens, then ``compare``.

The ``grid-small`` (32 scenario cells) and ``topo-small`` (4 topology
cells) goldens run with the cache off on the default executor (a
process pool of 2 workers, fewer if the machine has fewer CPUs), and
their results are diffed against the goldens as ``bgpbench regress``
does. Per-cell work is small, so pool start-up, pickling and the
compare dominate: this is the workload that measures the ``grid``
layer. Its inputs are the committed goldens, so the seed changes
nothing: shuffling the cells by seed would move the pool's load
balance, and with it the wall time, by up to 20% between seeds. One
operation is one regress pass.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

from repro.grid import compare, enumerate_grid, load_golden, run_grid
from repro.topo import TopoCell

from workloads import OperationFailed, Outcome, Problems, attempt

GOLDEN_DIR = Path(__file__).resolve().parents[2] / "benchmarks" / "golden"
GOLDENS = ("grid-small.json", "topo-small.json")
WORKERS = min(2, os.cpu_count() or 1)


def _cells(grid: dict) -> list:
    if grid.get("kind") == "topo":
        return [TopoCell.from_spec(spec) for spec in grid["cells"]]
    return enumerate_grid(
        scenarios=grid["scenarios"],
        platforms=grid["platforms"],
        seeds=grid["seeds"],
        table_sizes=grid["table_sizes"],
    )


class Workload:
    def __init__(self, seed: int):
        self.goldens = [load_golden(GOLDEN_DIR / name) for name in GOLDENS]
        self.cells = [cell for golden in self.goldens for cell in _cells(golden["grid"])]

    def _regress(self):
        start = time.perf_counter()
        report = run_grid(self.cells, workers=WORKERS)
        if not report.ok:
            raise OperationFailed(f"failed cells: {sorted(report.failures)}")
        compared = time.perf_counter()
        verdicts = [
            compare(
                golden["cells"],
                {cell_id: report.results[cell_id] for cell_id in golden["cells"] if cell_id in report.results},
                golden["tolerance"],
            )
            for golden in self.goldens
        ]
        end = time.perf_counter()
        transactions = sum(result["transactions"] for result in report.results.values())
        return transactions, {
            "report": report,
            "verdicts": verdicts,
            "wall_s": end - start,
            "compare_s": end - compared,
        }

    def run_pass(self) -> "list[Outcome]":
        return [attempt("regress", self._regress)]

    def check(self, outcomes: "list[Outcome]", problems: Problems) -> None:
        for outcome in outcomes:
            if outcome.ok:
                for name, verdict in zip(GOLDENS, outcome.value["verdicts"]):
                    problems.expect(verdict.ok, f"{name}: {verdict.format()}")

    def digest(self, outcomes: "list[Outcome]") -> str:
        return "\n".join(
            o.value["report"].to_json() if o.ok else str(o.error) for o in outcomes
        )

    def finish(
        self, outcomes: "list[Outcome]", problems: Problems, traced: bool
    ) -> "dict[str, float]":
        """Run the same cells in-process and require the pooled results
        to be byte-identical to them."""
        start = time.perf_counter()
        serial = run_grid(self.cells, workers=1)
        cells_s = time.perf_counter() - start
        problems.expect(serial.ok, f"in-process run failed cells: {sorted(serial.failures)}")
        if not outcomes[0].ok:
            return {"grid.cells_s": cells_s}
        pooled = outcomes[0].value
        problems.expect(
            serial.to_json() == pooled["report"].to_json(),
            "pooled results differ from the same cells run in-process",
        )
        return {
            "grid.cells_s": cells_s,
            "grid.overhead_s": pooled["wall_s"] - cells_s / WORKERS,
            "grid.compare_s": pooled["compare_s"],
        }
