#!/usr/bin/env python3
"""End-to-end benchmark of the runs people do with this reproduction.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload table3 --seed 1 --seconds 20 --trace 0

Workloads: ``table3``, ``storm``, ``topo``, ``regress`` (see
``e2ebench/README.md``). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` sets up, then runs whole passes of the workload until
they have taken ``--seconds`` in all, each from fresh routers and cold
codec caches, and reports the end-to-end metrics as medians over the passes:

* ``tx_per_s`` / ``tx_per_cpu_s``: simulated prefix-level transactions
  per host wall / CPU second (CPU of this process plus its reaped
  children);
* ``peak_rss_mb``: peak resident set of this process or any child;
* ``setup_s``: median over fresh interpreters of start-up, imports and
  input generation, timed between the passes.

``--trace 1`` runs one untraced and one profiled pass and reports the
per-layer metrics instead; the layer table, the top functions and the
layer map go to ``.e2ebench-out/trace-<workload>-seed<n>.json``.

Either mode checks the program's outputs; the run exits 1 after
printing ``"correct": false`` when a check fails, and 2 without a
result when the program cannot be found or set up.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NoReturn

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".e2ebench-out"
#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 7

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import NAMES, Problems  # noqa: E402


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only import and generate the inputs, then exit (times setup_s)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def fail(message: str) -> NoReturn:
    print(f"e2ebench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup(name: str, seed: int):
    """Import the program and build the workload's inputs; returns the
    workload and the (import, input) seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    try:
        module = importlib.import_module(f"workloads.{name}")
        import repro.bgp  # noqa: F401 — reset_caches() is used before every pass
    except ImportError as error:
        fail(f"cannot import the program: {error}")
    imported = time.perf_counter()
    if not Path(sys.modules["repro"].__file__).resolve().is_relative_to(SRC):
        fail(f"repro imported from {sys.modules['repro'].__file__}, not {SRC}")
    try:
        workload = module.Workload(seed)
    except (OSError, ValueError, KeyError) as error:
        fail(f"cannot build the {name} inputs: {error}")
    return workload, imported - start, time.perf_counter() - imported


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed_pass(workload):
    import repro.bgp

    repro.bgp.reset_caches()
    cpu, wall = cpu_seconds(), time.perf_counter()
    outcomes = workload.run_pass()
    wall, cpu = time.perf_counter() - wall, cpu_seconds() - cpu
    return outcomes, wall, cpu


def setup_probe(args: argparse.Namespace) -> float:
    """Time one fresh interpreter that only sets the workload up."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1",
    ]
    start = time.perf_counter()
    probe = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
    if probe.returncode != 0:
        fail(f"set-up probe exited {probe.returncode}")
    return time.perf_counter() - start


class Run:
    """Accounting and checks over the passes of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.problems = Problems()
        self.attempted = 0
        self.failed = 0
        self.digest: "str | None" = None

    def record(self, outcomes: list) -> int:
        """Check one pass; returns its completed transactions."""
        self.attempted += len(outcomes)
        for outcome in outcomes:
            if not outcome.ok:
                self.failed += 1
                print(f"e2ebench: {outcome.name} failed: {outcome.error}", file=sys.stderr)
        self.workload.check(outcomes, self.problems)
        digest = self.workload.digest(outcomes)
        if self.digest is None:
            self.digest = digest
        self.problems.expect(digest == self.digest, "outputs differ between passes of one run")
        return sum(outcome.transactions for outcome in outcomes if outcome.ok)


def measure(args: argparse.Namespace) -> "tuple[Run, dict[str, dict]]":
    setup_times = [setup_probe(args)]
    workload, _import_s, _inputs_s = setup(args.workload, args.seed)
    run = Run(workload)
    per_wall, per_cpu = [], []
    measured = 0.0
    while True:
        # Free the previous pass's routers before the next one starts,
        # so neither its memory nor its garbage lands in the next pass.
        outcomes = None
        gc.collect()
        outcomes, wall, cpu = timed_pass(workload)
        transactions = run.record(outcomes)
        per_wall.append(transactions / wall)
        per_cpu.append(transactions / cpu if cpu > 0 else 0.0)
        measured += wall
        # The host's speed drifts within a run: probes spread over the
        # passes sample the same stretch of it as the passes do, where a
        # burst of probes at the start would sample one moment.
        while len(setup_times) < SETUP_REPEATS * min(1.0, measured / args.seconds):
            setup_times.append(setup_probe(args))
        if measured >= args.seconds:
            break
    peak = peak_rss_mb()  # before the once-per-run checks add their own
    workload.finish(outcomes, run.problems, traced=False)
    print(f"e2ebench: {args.workload} seed {args.seed}: {len(per_wall)} passes", file=sys.stderr)
    return run, {
        "tx_per_s": {"value": statistics.median(per_wall), "unit": "tx/s"},
        "tx_per_cpu_s": {"value": statistics.median(per_cpu), "unit": "tx/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def trace(args: argparse.Namespace) -> "tuple[Run, dict[str, dict]]":
    from layers import ALL_LAYERS, LAYERS, LayerProfile

    workload, import_s, inputs_s = setup(args.workload, args.seed)
    from repro.bgp.attributes import codec_cache_stats
    from repro.sim import engine

    run = Run(workload)
    gc.collect()
    untraced, untraced_wall, _cpu = timed_pass(workload)
    run.record(untraced)
    gc.collect()

    # Count fired events on every simulator the traced pass creates.
    simulators = []
    original_init = engine.Simulator.__init__

    def register(simulator, *args, **kwargs):
        original_init(simulator, *args, **kwargs)
        simulators.append(simulator)

    profile = cProfile.Profile()
    engine.Simulator.__init__ = register
    try:
        profile.enable()
        outcomes, traced_wall, _cpu = timed_pass(workload)
        profile.disable()
    finally:
        engine.Simulator.__init__ = original_init
    run.record(outcomes)
    codec = codec_cache_stats()
    events = sum(simulator.events_fired for simulator in simulators)
    del simulators
    extras = workload.finish(untraced, run.problems, traced=True)

    layers = LayerProfile(profile, SRC)
    table = layers.layers()
    total = layers.total_s()
    attributed = sum(row["self_s"] for row in table.values())
    run.problems.expect(
        abs(attributed - total) <= 1e-9 * max(total, 1.0),
        f"layer self times sum to {attributed}, profiled total is {total}",
    )
    replans, replan_s = layers.function("repro/sim/cpu.py", "compute_rates")
    replace_calls, replace_s = layers.function("dataclasses.py", "replace")
    _observe_calls, observe_s = layers.function("repro/topo/network.py", "observe_paths")
    lookups = codec["decode_hits"] + codec["decode_misses"]

    metrics: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    for layer in ALL_LAYERS:
        put(f"{layer}.self_s", table[layer]["self_s"], "s")
        put(f"{layer}.calls", table[layer]["calls"], "count")
    put("sim.engine.events", events, "count")
    put("sim.engine.us_per_event", 1e6 * table["sim.engine"]["self_s"] / events if events else 0.0, "us")
    put("sim.cpu.replans", replans, "count")
    put("sim.cpu.us_per_replan", 1e6 * replan_s / replans if replans else 0.0, "us")
    put("bgp.codec.cache_hit_ratio", codec["decode_hits"] / lookups if lookups else 0.0, "ratio")
    put("bgp.attributes.interned", codec["interned_size"], "count")
    put("topo.observe_paths_s", observe_s, "s")
    put("dataclasses.replace.calls", replace_calls, "count")
    put("dataclasses.replace.s", replace_s, "s")
    for name in ("grid.cells_s", "grid.overhead_s", "grid.compare_s"):
        put(name, extras.get(name, 0.0), "s")
    put("setup.import_s", import_s, "s")
    put("setup.inputs_s", inputs_s, "s")
    put("trace.total_s", total, "s")
    put("trace.overhead_s", traced_wall - untraced_wall, "s")
    put("parallel.speedup_2", extras.get("parallel.speedup_2", 0.0), "x")

    OUT_DIR.mkdir(exist_ok=True)
    detail = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    detail.write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "untraced_pass_s": untraced_wall,
        "traced_pass_s": traced_wall,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
        "layer_map": {layer: list(modules) for layer, modules in LAYERS.items()},
        "top_functions": layers.top(),
    }, indent=2) + "\n")
    print(f"e2ebench: layer table written to {detail}", file=sys.stderr)
    return run, metrics


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'repro'}")
    if args.setup_probe:
        setup(args.workload, args.seed)
        return 0
    run, metrics = trace(args) if args.trace else measure(args)
    for problem in run.problems.items:
        print(f"e2ebench: check failed: {problem}", file=sys.stderr)
    correct = not run.problems.items
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
