"""Outside-in layer tracer for the solve benchmark.

The solver imports its layers by name (``from .reductions import
reduce_exhaustive``), so each hook replaces the attribute in the namespace
where the caller looks it up, for example ``fvskit.solver.reduce_exhaustive``
or ``fvskit.cutcount.count_tables_two_way``.  Every wrapped call records a
span (layer, parent span, start, end, solve id) in flat arrays kept in
memory; self time is a span's duration minus the spans it encloses.

Hooks are resolved when the tracer is built.  A hook whose target is gone
marks its layer missing: the layer's metrics are left out of the result and
named in ``missing``, and the rest of the trace runs as usual.  Nothing here
touches the timed (untraced) runs.
"""
from __future__ import annotations

import array
import functools
import importlib
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# namespaces that import the multigraph helpers by name
_GRAPH_CALLERS = ("fvskit.solver", "fvskit.cutcount", "fvskit.separators")

#: layer -> the (module, attribute) pairs it wraps
HOOKS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "reductions.reduce_exhaustive": (("fvskit.solver", "reduce_exhaustive"),),
    "reductions.sample": (("fvskit.solver", "sample_degree_weighted"),
                          ("fvskit.solver", "sample_uniform")),
    "solver.fvs_trial": (("fvskit.solver", "fvs_trial"),),
    "solver.iterative_compression": (("fvskit.solver", "iterative_compression"),),
    "separators.separation": (("fvskit.solver", "two_way_separation"),
                              ("fvskit.solver", "three_way_separation")),
    "cutcount.decide": (("fvskit.solver", "count_simple_separation"),
                        ("fvskit.solver", "count_three_way")),
    "cutcount.table": (("fvskit.cutcount", "count_tables_two_way"),
                       ("fvskit.cutcount", "count_tables_three_way")),
    "cutcount.reconstruct_witness": (("fvskit.solver", "reconstruct_witness"),),
    "multigraph.minus": tuple((m, "minus") for m in _GRAPH_CALLERS),
    "multigraph.induced": tuple((m, "induced") for m in _GRAPH_CALLERS),
    "multigraph.is_forest": tuple((m, "is_forest") for m in _GRAPH_CALLERS),
}
_GRAPH_LAYERS = ("multigraph.minus", "multigraph.induced", "multigraph.is_forest")


def _vertices_removed(args, kwargs, result) -> Dict[str, int]:
    return {"vertices_removed": args[0].n - result.graph.n}


def _sample_drawn(args, kwargs, result) -> Dict[str, int]:
    # degree-weighted sampling returns None on a 3-regular graph
    return {"drawn": int(result is not None)}


def _separator_size(args, kwargs, result) -> Dict[str, int]:
    # two-way: |S|; three-way: every vertex outside the singleton classes
    if hasattr(result, "s123"):
        size = len(result.s12) + len(result.s13) + len(result.s23) + len(result.s123)
    else:
        size = len(result.s)
    return {"s_size": size}


def _decide_outcome(args, kwargs, result) -> Dict[str, int]:
    return {"accepts": int(result.accepted),
            "probe_calls": int(bool(kwargs.get("forced")))}


def _table_entries(args, kwargs, result) -> Dict[str, int]:
    return {"entries": len(result[0])}


#: per-layer readers of a call's arguments and result into exact counts
EXTRACTORS: Dict[str, Callable[[tuple, dict, Any], Dict[str, int]]] = {
    "reductions.reduce_exhaustive": _vertices_removed,
    "reductions.sample": _sample_drawn,
    "separators.separation": _separator_size,
    "cutcount.decide": _decide_outcome,
    "cutcount.table": _table_entries,
}


class Tracer:
    """Installs the hooks, records spans per solve and aggregates them."""

    def __init__(self) -> None:
        self.layers: List[str] = list(HOOKS)
        self.targets: List[Tuple[Any, str, Callable, int]] = []
        self.missing: Dict[str, List[str]] = {}
        for idx, (layer, pairs) in enumerate(HOOKS.items()):
            found = []
            for mod_name, attr in pairs:
                try:
                    mod = importlib.import_module(mod_name)
                except ImportError:
                    mod = None
                fn = getattr(mod, attr, None)
                if callable(fn):
                    found.append((mod, attr, fn, idx))
                else:
                    self.missing.setdefault(layer, []).append(f"{mod_name}.{attr}")
            if layer not in self.missing:
                self.targets.extend(found)
        n = len(self.layers)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.extra: Dict[str, int] = {}
        self.extract_failed: Dict[str, str] = {}
        self.trials = 0          # fvs_trial spans directly under a solve
        self.verify_ns = 0       # graph-helper spans directly under a solve
        self.solve_ns = 0
        self.solves = 0
        self._graph_idx = {self.layers.index(g) for g in _GRAPH_LAYERS}
        self._trial_idx = self.layers.index("solver.fvs_trial")
        # spans, in the order they end: id, layer, parent id, start and end
        # ns, solve id
        self.span_id = array.array("q")
        self.span_layer = array.array("h")
        self.span_parent = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_solve = array.array("q")
        self._next_id = 1
        self._root: Optional[list] = None
        self._stack: List[list] = [[0, 0]]  # frames: [child ns, span id]
        self._wrappers = [self._wrap(fn, idx) for _, _, fn, idx in self.targets]

    # ------------------------------------------------------------------

    def _wrap(self, fn: Callable, idx: int) -> Callable:
        tracer = self
        layer = self.layers[idx]
        extract = EXTRACTORS.get(layer)
        clock = time.perf_counter_ns
        stack = self._stack
        calls, self_ns = self.calls, self.self_ns
        graph_idx, trial_idx = self._graph_idx, self._trial_idx
        rec = self._recorders()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, tracer._next_id]
            tracer._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                calls[idx] += 1
                self_ns[idx] += dur - frame[0]
                if parent is tracer._root:
                    if idx == trial_idx:
                        tracer.trials += 1
                    elif idx in graph_idx:
                        tracer.verify_ns += dur
                rec[0](frame[1])
                rec[1](idx)
                rec[2](parent[1])
                rec[3](t0)
                rec[4](t1)
                rec[5](tracer.solves)
            if extract is not None and layer not in tracer.extract_failed:
                try:
                    for key, val in extract(args, kwargs, result).items():
                        name = f"{layer}.{key}"
                        tracer.extra[name] = tracer.extra.get(name, 0) + val
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    tracer.extract_failed[layer] = repr(exc)
            return result

        return wrapper

    def _recorders(self) -> Tuple[Callable, ...]:
        return (self.span_id.append, self.span_layer.append, self.span_parent.append,
                self.span_start.append, self.span_end.append, self.span_solve.append)

    def install(self) -> None:
        for (mod, attr, _, _), wrapper in zip(self.targets, self._wrappers):
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn, _ in self.targets:
            setattr(mod, attr, fn)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------

    def solve(self, call: Callable[[], Any]) -> Tuple[Any, float]:
        """Run one solve under a root span; returns (result, wall seconds)."""
        self.solves += 1
        root = [0, self._next_id]
        self._next_id += 1
        self._root = root
        self._stack.append(root)
        t0 = time.perf_counter_ns()
        try:
            result = call()
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._root = None
            self.solve_ns += t1 - t0
            for rec, val in zip(self._recorders(), (root[1], -1, 0, t0, t1, self.solves)):
                rec(val)
        return result, (t1 - t0) / 1e9

    def counts(self) -> Dict[str, int]:
        """Every exact count the trace holds; equal seeds must give equal
        counts."""
        out = {f"{layer}.calls": self.calls[i] for i, layer in enumerate(self.layers)
               if layer not in self.missing}
        out.update(self.extra)
        out["solver.trials"] = self.trials
        out["solves"] = self.solves
        return dict(sorted(out.items()))

    def layer_self_s(self, layer: str) -> Optional[float]:
        if layer in self.missing:
            return None
        return self.self_ns[self.layers.index(layer)] / 1e9

    def coverage(self) -> float:
        """Wrapped self time over traced solve wall time."""
        covered = sum(self.self_ns[i] for i, layer in enumerate(self.layers)
                      if layer not in self.missing)
        return covered / self.solve_ns if self.solve_ns else 0.0

    def save(self, path: str) -> None:
        """Write every span; layer -1 is the solve root span."""
        import numpy as np

        np.savez_compressed(
            path,
            layer_names=np.array(self.layers),
            span=np.frombuffer(self.span_id, dtype=np.int64),
            layer=np.frombuffer(self.span_layer, dtype=np.int16),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            solve=np.frombuffer(self.span_solve, dtype=np.int64),
        )
