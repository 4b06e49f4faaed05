"""In-memory span tracing for the traced repetition of a workload.

Spans are recorded from outside the program: the harness brackets its
own calls (:meth:`Tracer.push` / :meth:`Tracer.pop`) and installs timing wrappers on the
layers' public callables (:func:`install_wrappers`).  Nothing here runs
in an untraced repetition, which is where every end-to-end number comes
from.

A span is (name, start, end, parent); the parent is whatever span was
open when it started, so a layer's *self* time is its duration minus the
durations of its direct children (:meth:`Tracer.self_times`).
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

ROOT_SPAN = "bench.root"


class Tracer:
    """Span stack of one traced run (single-threaded, like the program).

    Spans live in four parallel lists rather than one object each: a
    traced sweep records ~10^5 of them, and that many live containers
    would make the program's own garbage collections slower.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = [-1]
        #: Plain call counters kept beside the spans (no timing).
        self.counts: Dict[str, int] = {}
        #: Wrapper targets that did not resolve: (target, span name).
        self.missing: List[Tuple[str, str]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def push(self, name: str) -> None:
        self.name_ids.append(self.name_id(name))
        self.parents.append(self._stack[-1])
        self._stack.append(len(self.starts))
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())

    def pop(self) -> None:
        self.ends[self._stack.pop()] = time.perf_counter()

    def timed(self, fn: Callable, span: str) -> Callable:
        """``fn`` wrapped in a span; ``{scheme}`` in its name is the receiver's scheme."""
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack, clock = self._stack, time.perf_counter
        per_scheme = "{scheme}" in span
        fixed_id = None if per_scheme else self.name_id(span)
        scheme_ids: Dict[str, int] = {}

        def wrapper(*args, **kwargs):
            nid = fixed_id
            if per_scheme:
                scheme = getattr(args[0], "scheme_name", None) or getattr(args[0], "name", "")
                nid = scheme_ids.get(scheme)
                if nid is None:
                    nid = scheme_ids[scheme] = self.name_id(span.replace("{scheme}", scheme))
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            stack.append(index)
            ends.append(0.0)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    def counted(self, fn: Callable, counter: str) -> Callable:
        """``fn`` with a call counter and no span (for cheap, frequent calls)."""
        counts = self.counts
        counts.setdefault(counter, 0)

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- reduction -------------------------------------------------------

    def durations(self, name: str) -> List[float]:
        nid = self._name_ids.get(name)
        return [e - s for n, s, e in zip(self.name_ids, self.starts, self.ends) if n == nid]

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``span name -> (summed self seconds, span count)``."""
        self_s = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                self_s[parent] -= self.ends[index] - self.starts[index]
        out: Dict[str, Tuple[float, int]] = {}
        for nid, own in zip(self.name_ids, self_s):
            name = self.names[nid]
            total, count = out.get(name, (0.0, 0))
            out[name] = (total + own, count + 1)
        return out

    def write(self, path: str) -> None:
        """Dump every span as four parallel columns."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "run_id": self.run_id,
                    "names": self.names,
                    "name": self.name_ids,
                    "start": self.starts,
                    "end": self.ends,
                    "parent": self.parents,
                },
                handle,
                separators=(",", ":"),
            )


# ----------------------------------------------------------------------
# Wrapper installation
# ----------------------------------------------------------------------

#: Module-level public functions: (module, attribute, span name).  Most
#: callers bind these with ``from ... import``, so the wrapper replaces
#: the function in every loaded ``repro`` namespace that holds it.
FUNCTION_TARGETS = (
    ("repro.geometry.planarity", "compute_cross_links", "geometry.cross_links"),
    ("repro.routing.dijkstra", "shortest_path_tree", "routing.spt"),
    ("repro.routing.dijkstra", "reverse_shortest_path_tree", "routing.spt"),
    ("repro.routing.dijkstra", "penalized_shortest_path_tree", "routing.penalized"),
    ("repro.routing.incremental", "updated_tree", "routing.incremental"),
    ("repro.core.phase1", "run_phase1", "core.phase1"),
    ("repro.traffic.capacity", "provision_capacities", "traffic.provision"),
    ("repro.traffic.engine", "classify_pairs", "traffic.classify"),
)

#: Public methods: (module, class, attribute, span name).  ``{scheme}`` in
#: a span name is filled from the receiver, so one wrapper on the base
#: class times every registered scheme under its own name.
METHOD_TARGETS = (
    ("repro.routing.cache", "SPTCache", "forward_tree", "routing.spt"),
    ("repro.routing.cache", "SPTCache", "reverse_tree", "routing.spt"),
    ("repro.routing.tables", "RoutingTable", "edge_loads_to", "routing.edge_loads"),
    ("repro.routing.tables", "RoutingTable", "warm", "routing.table_warm"),
    ("repro.simulator.batch", "WalkBatch", "execute", "simulator.walk_execute"),
    ("repro.core.phase2", "Phase2Engine", "tree", "core.phase2_tree"),
    ("repro.schemes.base", "RecoveryScheme", "prepare", "schemes.{scheme}.prepare"),
    ("repro.schemes.base", "RecoveryScheme", "instantiate", "schemes.{scheme}.instantiate"),
    ("repro.schemes.base", "SchemeInstance", "plan", "schemes.{scheme}.recover"),
    ("repro.schemes.base", "SchemeInstance", "recover", "schemes.{scheme}.recover"),
    ("repro.eval.runner", "EvaluationRunner", "run", "eval.run"),
    ("repro.te.penalty", "LinkPenalty", "from_loads", "te.penalty"),
)

#: Public methods that are only counted: (module, class, attribute, counter).
COUNT_TARGETS = (("repro.simulator.batch", "WalkBatch", "add", "simulator.walks"),)


def resolve(module: str, *attrs: str) -> Optional[object]:
    try:
        target: object = importlib.import_module(module)
        for attr in attrs:
            target = getattr(target, attr)
    except (ImportError, AttributeError):
        return None
    return target


def _repro_namespaces() -> List[object]:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every target that resolves; record the ones that do not.

    Call after every ``repro`` module the workload uses is imported.
    The process is a one-shot benchmark child, so nothing is restored.
    """
    for module, attr, span in FUNCTION_TARGETS:
        original = resolve(module, attr)
        if original is None:
            tracer.missing.append((f"{module}.{attr}", span))
            continue
        wrapper = tracer.timed(original, span)
        for namespace in _repro_namespaces():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapper)
    for module, cls_name, attr, span in METHOD_TARGETS:
        _wrap_method(tracer, module, cls_name, attr, span, timed=True)
    for module, cls_name, attr, counter in COUNT_TARGETS:
        _wrap_method(tracer, module, cls_name, attr, counter, timed=False)


def _wrap_method(
    tracer: Tracer, module: str, cls_name: str, attr: str, label: str, timed: bool
) -> None:
    cls = resolve(module, cls_name)
    raw = vars(cls).get(attr) if cls is not None else None
    if raw is None:
        tracer.missing.append((f"{module}.{cls_name}.{attr}", label))
        return
    is_classmethod = isinstance(raw, classmethod)
    fn = raw.__func__ if is_classmethod else raw
    wrapper = tracer.timed(fn, label) if timed else tracer.counted(fn, label)
    setattr(cls, attr, classmethod(wrapper) if is_classmethod else wrapper)
