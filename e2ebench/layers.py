"""Per-layer host time from a cProfile run and a module-to-layer map.

A ``repro`` function's self time goes to the layer its module maps to.
The self time of every other function (stdlib, builtins, code generated
by ``dataclasses``) is charged to the layer of the ``repro`` functions
that called it, split in proportion to the time each caller spent in
it and followed up through non-``repro`` callers. What reaches no
``repro`` caller (the benchmark's own code) is ``e2ebench``, and
``repro`` modules outside the map are ``other``, so the layers' self
times always sum to the profiled total.
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import Path

#: Layer name -> the ``repro`` modules (and their submodules) it holds.
LAYERS: "dict[str, tuple[str, ...]]" = {
    "sim.engine": ("repro.sim.engine",),
    "sim.cpu": ("repro.sim.cpu",),
    "sim.monitor": ("repro.sim.monitor", "repro.telemetry.buckets"),
    "systems": ("repro.systems",),
    "bgp.codec": ("repro.bgp.messages",),
    "bgp.attributes": ("repro.bgp.attributes",),
    "bgp.speaker": (
        "repro.bgp.speaker",
        "repro.bgp.fsm",
        "repro.bgp.policy",
        "repro.bgp.decision",
        "repro.bgp.mrai",
        "repro.bgp.damping",
    ),
    "bgp.rib": ("repro.bgp.rib", "repro.perf.triemap"),
    "forwarding": ("repro.forwarding",),
    "workload": ("repro.workload",),
    "topo": ("repro.topo",),
    "grid": ("repro.grid",),
    "benchmark": ("repro.benchmark",),
    "net": ("repro.net",),
}
OTHER = "other"
BENCH = "e2ebench"
ALL_LAYERS = (*LAYERS, OTHER, BENCH)


def module_of(filename: str, src: Path) -> "str | None":
    """Dotted ``repro`` module name of a source file, or None."""
    try:
        relative = Path(filename).resolve().relative_to(src)
    except ValueError:
        return None
    parts = relative.with_suffix("").parts
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def layer_of_module(module: str) -> str:
    best, best_length = OTHER, 0
    for layer, prefixes in LAYERS.items():
        for prefix in prefixes:
            if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > best_length:
                best, best_length = layer, len(prefix)
    return best


class LayerProfile:
    """Layer attribution of one ``cProfile.Profile``."""

    def __init__(self, profile: cProfile.Profile, src: Path):
        self.stats = pstats.Stats(profile).stats
        self._own: dict[tuple, "str | None"] = {}
        modules: dict[str, "str | None"] = {}
        for func in self.stats:
            filename = func[0]
            if filename not in modules:
                module = module_of(filename, src) if filename[:1] not in ("~", "<") else None
                modules[filename] = None if module is None else layer_of_module(module)
            self._own[func] = modules[filename]
        self._owners: dict[tuple, dict[str, float]] = {}

    def _split(self, func: tuple, column: int, visiting: frozenset) -> "dict[str, float]":
        """Share out one unit of *func*'s time over the layers of its
        callers, weighting each caller by its *column* of the profile's
        caller table (2 = self time, 3 = cumulative time), or by call
        count when those read 0. Callers already on the walk (recursion,
        as in ``hash`` -> ``__hash__`` -> ``hash``) are left out."""
        visiting = visiting | {func}
        callers = {
            caller: entry
            for caller, entry in (self.stats[func][4] if func in self.stats else {}).items()
            if caller not in visiting
        }
        if not callers:
            return {BENCH: 1.0}
        weights = {caller: entry[column] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        shares: dict[str, float] = {}
        for caller, weight in weights.items():
            for layer, share in self._owner(caller, visiting).items():
                shares[layer] = shares.get(layer, 0.0) + share * weight / total
        return shares

    def _owner(self, func: tuple, visiting: frozenset) -> "dict[str, float]":
        """Layers that own the time spent inside *func*."""
        own = self._own.get(func)
        if own is not None:
            return {own: 1.0}
        if func not in self._owners:
            self._owners[func] = self._split(func, 3, visiting)
        return self._owners[func]

    def self_shares(self, func: tuple) -> "dict[str, float]":
        """Fractions of *func*'s self time charged to each layer."""
        own = self._own.get(func)
        return {own: 1.0} if own is not None else self._split(func, 2, frozenset())

    def layers(self) -> "dict[str, dict[str, float]]":
        """``{layer: {"self_s": ..., "calls": ...}}``; calls count only
        the layer's own ``repro`` functions."""
        out = {layer: {"self_s": 0.0, "calls": 0} for layer in ALL_LAYERS}
        for func, (_cc, calls, self_s, _cum, _callers) in self.stats.items():
            own = self._own[func]
            if own is not None:
                out[own]["calls"] += calls
            for layer, share in self.self_shares(func).items():
                out[layer]["self_s"] += self_s * share
        return out

    def total_s(self) -> float:
        return sum(entry[2] for entry in self.stats.values())

    def function(self, file_suffix: str, name: str) -> "tuple[int, float]":
        """(calls, cumulative seconds) of the functions called *name*
        whose file ends with *file_suffix*."""
        calls, cumulative = 0, 0.0
        for (filename, _line, funcname), entry in self.stats.items():
            if funcname == name and filename.replace("\\", "/").endswith(file_suffix):
                calls += entry[1]
                cumulative += entry[3]
        return calls, cumulative

    def top(self, count: int = 25) -> "list[dict[str, object]]":
        """The functions with the most self time, with their layers."""
        rows = sorted(self.stats.items(), key=lambda item: item[1][2], reverse=True)
        return [
            {
                "function": f"{Path(func[0]).name}:{func[1]}:{func[2]}",
                "layer": max(self.self_shares(func).items(), key=lambda item: item[1])[0],
                "calls": entry[1],
                "self_s": entry[2],
                "cumulative_s": entry[3],
            }
            for func, entry in rows[:count]
        ]
