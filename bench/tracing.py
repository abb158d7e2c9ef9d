"""Span tracing of one gridpanel command, installed from outside the package.

Run as a script, this installs timing wrappers on gridpanel's public
functions, calls ``gridpanel.cli.main(argv)`` in this process and writes
the spans and counts as JSON when the command has finished:

    python bench/tracing.py --run-id r0 --spans-out spans.json -- panel --nodes ...

Each wrapper replaces every module attribute that names the original
function, because callers resolve the name in their own module at call
time: ``gridpanel.metrics.apsp_summary`` serves ``metric_row`` and
``small_world_sigma``, ``gridpanel.generators.apsp_summary`` serves
``_measure``, and the names ``gridpanel.cli`` imported serve the CLI. The
``Graph`` constructor is wrapped only where ``records`` and ``generators``
look it up; ``gridpanel.graph.Graph`` itself stays the class, because
``as_graph`` type-checks against it.

A span is ``[name, start, end, parent, run_id]`` with ``parent`` the index
of the enclosing span. Counts computed at a wrapper are timed in a span
named ``trace`` so that their cost lands in no layer's self time.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from math import comb
from typing import Any, Callable

LAYERS = ("records", "graph", "metrics", "motifs", "temporal", "generators")
ROOT_SPAN = "cli"
TRACE_SPAN = "trace"

# as_graph is a type dispatch that every kernel calls on entry; wrapping it
# would add a span per kernel call without marking a layer boundary.
UNWRAPPED = frozenset({"graph.as_graph"})
GENERATED_GRAPHS = frozenset({"generators.gen_erdos_renyi", "generators.gen_watts_strogatz", "generators.gen_ring_lattice"})


def edge_visits(n_nodes: int, n_edges: int) -> int:
    """Adjacency entries one all-sources BFS sweep reads: ``n * 2m``."""
    return n_nodes * 2 * n_edges


def wedges(graph: Any) -> int:
    """Neighbour pairs over all centres: ``sum of C(deg, 2)``."""
    return sum(comb(graph.degree(v), 2) for v in graph.nodes)


def records_scanned(records: Any) -> int:
    """Node plus edge records one snapshot scan walks through."""
    return len(records.nodes) + len(records.edges)


def _graph_of(g: Any) -> Any:
    return getattr(g, "graph", g)


class Tracer:
    """Spans and counts of one traced command, kept in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        # Graphs measured by apsp_summary, held so that their ids stay unique.
        self._apsp_graphs: dict[int, Any] = {}
        self._lattice_args: set[tuple] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span called ``name``."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                self.call(TRACE_SPAN, hook, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever gridpanel
        binds it, and the Graph constructor in records and generators."""
        package = importlib.import_module("gridpanel")
        modules = {layer: importlib.import_module(f"gridpanel.{layer}") for layer in LAYERS}
        loaded = [package, importlib.import_module("gridpanel.cli"), *modules.values()]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                name = f"{layer}.{attr}"
                if attr.startswith("_") or name in UNWRAPPED:
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.wrap(name, fn, self._hook(name, fn))
                for target in loaded:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            self._patch(target, bound, wrapper)
        graph_class = modules["graph"].Graph
        wrapper = self.wrap("graph.Graph", graph_class, self._count_edges_built)
        for layer in ("records", "generators"):
            self._patch(modules[layer], "Graph", wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _patch(self, module: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _hook(self, name: str, fn: Callable) -> Callable | None:
        if name == "records.snapshot_at":
            return lambda args, kwargs, result: self._add("records.records_scanned", records_scanned(args[0]))
        if name == "graph.ring_lattice":
            return self._count_edges_built
        if name == "metrics.apsp_summary":
            return self._count_apsp
        if name == "metrics.lattice_clustering":
            signature = inspect.signature(fn)
            return lambda args, kwargs, result: self._lattice_args.add(
                tuple(signature.bind(*args, **kwargs).arguments.values())
            )
        if name == "motifs.count_four_cycles":
            return lambda args, kwargs, result: self._add("motifs.wedges", wedges(_graph_of(args[0])))
        if name in GENERATED_GRAPHS:
            return lambda args, kwargs, result: self._add("generators.graphs", 1)
        if name == "generators.efficiency_comparison":
            return self._count_replicates
        return None

    def _add(self, key: str, amount: int) -> None:
        self.counts[key] += amount

    def _count_edges_built(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._add("graph.edges_built", result.n_edges)

    def _count_apsp(self, args: tuple, kwargs: dict, result: Any) -> None:
        graph = _graph_of(args[0])
        self._apsp_graphs[id(graph)] = graph
        self._add("metrics.apsp_summary.edge_visits", edge_visits(graph.n_nodes, graph.n_edges))

    def _count_replicates(self, args: tuple, kwargs: dict, result: Any) -> None:
        for ensemble in result.values():
            self._add("generators.replicate_rows", len(ensemble.rows))
            self._add("generators.sigma_rows", sum(1 for row in ensemble.rows if "sigma" in row))

    def dump(self) -> dict:
        counts = dict(self.counts)
        counts["metrics.apsp_summary.distinct_graphs"] = len(self._apsp_graphs)
        counts["metrics.lattice_clustering.distinct_args"] = len(self._lattice_args)
        return {"spans": self.spans, "counts": counts}


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[3]
        if parent is not None:
            children.setdefault(parent, []).append((span[1], span[2]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--spans-out", required=True, help="JSON file for spans and counts")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="gridpanel arguments after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    from gridpanel import cli

    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        code = tracer.call(ROOT_SPAN, cli.main, command)
    finally:
        tracer.uninstall()
    with open(args.spans_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.dump(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
