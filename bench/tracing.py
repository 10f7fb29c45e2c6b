"""Spans around the calls the benchmark makes into each wirecat module.

The tracer replaces chosen functions and methods of a freshly imported
wirecat with wrappers that record one span per call: its name, start, end,
parent span and task.  Spans are kept in compact arrays in memory and written
out once, when the run ends.  A span is recorded only while a task or a set-up
is running, so the benchmark's own output checks add nothing to the trace.

A function imported by name into another module (``wprop`` imports
``loose_canonical_form`` from ``graphs``, ``cli`` imports ``wd_to_graph``)
is replaced in every module that holds it, or the calls made through that
name would go unseen.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute).  "Class.method" patches the class, which is
# shared by every module that imported it.  Module-level shims over a method
# (``graphs.validate``, ``wiring.compose``) are not wrapped: the method is.
# A target that wirecat no longer has is skipped, and its metrics read 0.
TARGETS = (
    ("graphs.validate", "graphs", "DirectedGraph.validate"),
    ("graphs.canonical_form", "graphs", "canonical_form"),
    ("graphs.loose_canonical_form", "graphs", "loose_canonical_form"),
    ("graphs.substitute", "graphs", "substitute"),
    ("wprop.flatten", "wprop", "flatten"),
    ("wprop.horizontal", "wprop", "horizontal"),
    ("wprop.contract", "wprop", "contract"),
    ("wprop.relabel", "wprop", "relabel"),
    ("wprop.wd_action", "wprop", "wd_action"),
    ("endo.Tensor", "endo", "Tensor.__init__"),
    ("endo.tensor_product", "endo", "tensor_product"),
    ("endo.trace_contract", "endo", "trace_contract"),
    ("endo.evaluate_graph", "endo", "evaluate_graph"),
    ("lie.lie_dim", "lie", "lie_dim"),
    ("lie.TraceSpace", "lie", "TraceSpace.__init__"),
    ("lie.reduce", "lie", "Eliminator.reduce"),
    ("lie.add", "lie", "Eliminator.add"),
    ("wiring.compose", "wiring", "WiringDiagram.compose"),
    ("wiring.WiringDiagram", "wiring", "WiringDiagram.__init__"),
    ("translate.wd_to_graph", "translate", "wd_to_graph"),
    ("translate.graph_to_wd", "translate", "graph_to_wd"),
    ("cli.main", "cli", "main"),
    ("cli.build_parser", "cli", "build_parser"),
)

#: Every public function of ``wirecat.sampling`` records under this name.
SAMPLING_SPAN = "sampling.generate"


class Tracer:
    """Records nested spans; one instance per benchmark run."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.tasks = []
        self.task = -1          # index into ``tasks``; -1 records nothing
        self._stack = []
        self.name = array("i")
        self.parent = array("i")
        self.task_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = Counter()
        self.t0 = time.perf_counter()

    # -- recording --

    def begin_task(self, label: str):
        self.tasks.append(label)
        self.task = len(self.tasks) - 1

    def end_task(self):
        self.task = -1

    def _nid(self, span_name):
        if span_name not in self._name_id:
            self._name_id[span_name] = len(self.names)
            self.names.append(span_name)
        return self._name_id[span_name]

    def wrap(self, span_name, fn, on_return=None):
        nid = self._nid(span_name)
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.task < 0:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.task_of.append(tracer.task)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def install(self, mods):
        """Wrap the targets in the wirecat modules held by namespace ``mods``."""
        modules = list(vars(mods).values())

        def replace_everywhere(orig, wrapped):
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

        hooks = {
            "Tensor.__init__": self._count_tensor,
            "Eliminator.add": self._count_row,
        }
        for span_name, mod_name, attr in TARGETS:
            scope = getattr(mods, mod_name)
            owner, _, name = attr.rpartition(".")
            if owner:
                scope = getattr(scope, owner, None)
            orig = vars(scope).get(name) if scope is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(span_name, orig, hooks.get(attr))
            if owner:
                setattr(scope, name, wrapped)
            else:
                replace_everywhere(orig, wrapped)
        sampling = mods.sampling
        for attr, fn in list(vars(sampling).items()):
            if (inspect.isfunction(fn) and not attr.startswith("_")
                    and fn.__module__ == sampling.__name__):
                replace_everywhere(fn, self.wrap(SAMPLING_SPAN, fn))

    def _count_tensor(self, args, _result):
        t = args[0]
        self.counters["endo.entries_built"] += t.data.size
        if len(t.axes) > self.counters["endo.peak_axes"]:
            self.counters["endo.peak_axes"] = len(t.axes)

    def _count_row(self, _args, independent):
        self.counters["lie.rows_offered"] += 1
        self.counters["lie.rows_independent"] += bool(independent)

    def count(self, key, amount):
        if self.task >= 0:
            self.counters[key] += amount

    # -- summarising --

    def self_times(self, task_ids):
        """Per span name: (count, self seconds), over spans of ``task_ids``."""
        n = len(self.start)
        if not n:
            return {}
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        covered = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        own = dur - covered
        keep = np.isin(np.frombuffer(self.task_of, dtype=np.int32),
                       np.fromiter(task_ids, dtype=np.int32))
        counts = np.bincount(name[keep], minlength=len(self.names))
        sums = np.bincount(name[keep], weights=own[keep],
                           minlength=len(self.names))
        return {nm: (int(counts[i]), float(sums[i]))
                for i, nm in enumerate(self.names)}

    def child_count(self, child_name, parent_name, task_ids):
        """Spans named ``child_name`` whose parent span is ``parent_name``."""
        if child_name not in self._name_id or parent_name not in self._name_id:
            return 0
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        keep = np.isin(np.frombuffer(self.task_of, dtype=np.int32),
                       np.fromiter(task_ids, dtype=np.int32))
        sel = keep & (name == self._name_id[child_name]) & (parent >= 0)
        return int(np.sum(name[parent[sel]] == self._name_id[parent_name]))

    def write(self, path):
        """Write every span as one JSON line: name, start, end, parent, task.

        Times are seconds since the tracer was made.
        """
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "tasks": self.tasks}) + "\n")
            t0 = self.t0
            for i in range(len(self.start)):
                fh.write("[%d,%.7f,%.7f,%d,%d]\n" % (
                    self.name[i], self.start[i] - t0, self.end[i] - t0,
                    self.parent[i], self.task_of[i]))
