"""``topo``: serial ``run_topo_cell`` on a 345-AS Gao-Rexford hierarchy.

Convergence with several origins, a withdraw storm after convergence,
and churn with MRAI and flap damping. The BGP speaker, attribute,
codec and RIB layers and ``repro.topo`` do the work; the fluid CPU
model does almost none, so a change to it should leave this workload
unmoved. One operation is one cell.
"""

from __future__ import annotations

import time
from functools import partial

from repro.topo import TopoCell, build_harness, origin_prefix, pick_origins, run_topo_cell
from repro.workload.astopo import valley_free_paths

from workloads import OperationFailed, Outcome, Problems, attempt, canonical

#: 5 tier-1, 40 tier-2 and 300 stub ASes: 345 in all.
SHAPE = {"tier1": 5, "tier2": 40, "stubs": 300}
FAMILIES = (
    {"family": "convergence", "origins": 12},
    {"family": "withdraw", "origins": 4},
    {"family": "churn", "origins": 3, "flaps": 3, "mrai": 30.0, "damping": True},
)


class Workload:
    def __init__(self, seed: int):
        self.cells = [TopoCell(seed=seed, **SHAPE, **family) for family in FAMILIES]

    @staticmethod
    def _cell(cell: TopoCell):
        result = run_topo_cell(cell)
        if not result["completed"]:
            raise OperationFailed(f"{cell.cell_id} did not reach quiescence")
        return result["transactions"], result

    def run_pass(self) -> "list[Outcome]":
        return [attempt(cell.cell_id, partial(self._cell, cell)) for cell in self.cells]

    def check(self, outcomes: "list[Outcome]", problems: Problems) -> None:
        for outcome, cell in zip(outcomes, self.cells):
            if not outcome.ok or cell.family != "withdraw":
                continue
            holding = [node["asn"] for node in outcome.value["nodes"] if node["loc_rib_size"]]
            problems.expect(
                not holding and outcome.value["fib_size_after"] == 0,
                f"{outcome.name}: ASes {holding[:5]} still hold routes after the withdraw",
            )

    def digest(self, outcomes: "list[Outcome]") -> str:
        return canonical([[o.name, o.value if o.ok else o.error] for o in outcomes])

    def finish(
        self, outcomes: "list[Outcome]", problems: Problems, traced: bool
    ) -> "dict[str, float]":
        """Re-run the convergence cell on the public harness and compare
        every AS's best path to every origin with the abstract
        valley-free prediction, and the measured cell's per-AS route
        counts with the prediction's."""
        cell = self.cells[0]
        harness = build_harness(cell)
        origins = pick_origins(harness.topology, cell.origins, cell.seed)
        for asn in origins:
            harness.sim.schedule(0.0, partial(harness.nodes[asn].originate, origin_prefix(asn)))
        harness.run()
        problems.expect(harness.quiescent(), f"{cell.cell_id}: harness not quiescent")
        wrong = 0
        reachable = dict.fromkeys(harness.nodes, 0)
        for origin in origins:
            predicted = valley_free_paths(harness.topology, origin)
            prefix = origin_prefix(origin)
            for asn, node in harness.nodes.items():
                reachable[asn] += asn in predicted
                if asn != origin and node.best_path(prefix) != predicted.get(asn):
                    wrong += 1
        problems.expect(
            wrong == 0,
            f"{cell.cell_id}: {wrong} best paths differ from valley_free_paths",
        )
        if outcomes[0].ok:
            measured = {node["asn"]: node["loc_rib_size"] for node in outcomes[0].value["nodes"]}
            problems.expect(
                measured == reachable,
                f"{cell.cell_id}: measured per-AS route counts differ from the prediction",
            )
        return {"parallel.speedup_2": self.parallel_speedup(problems)} if traced else {}

    def parallel_speedup(self, problems: Problems) -> float:
        """Serial over ``--shards 2`` wall time on the convergence cell;
        0 once the parallel engine is gone."""
        try:
            import repro.parallel  # noqa: F401
        except ImportError:
            return 0.0
        cell = self.cells[0]
        start = time.perf_counter()
        serial = run_topo_cell(cell)
        middle = time.perf_counter()
        sharded = run_topo_cell(cell, shards=2)
        end = time.perf_counter()
        problems.expect(
            canonical(serial) == canonical(sharded),
            f"{cell.cell_id}: the --shards 2 result differs from the serial one",
        )
        return (middle - start) / (end - middle)
