"""Span recorder that wraps ofbmkit's public functions from outside the package.

A span is one call of a wrapped function: its id, the id of the span that
caused it, a name, the operation it belongs to, the thread, start and end
(``time.perf_counter``, which is system-wide monotonic on Linux, so spans from
CLI subprocesses line up with the parent's), and a small ``info`` value taken
from the call's arguments or result (a seed, a window start, an array size).

Spans stay in memory; :meth:`Recorder.dump` writes them out when a run ends.
Appends are guarded by a lock because ``run_mc`` calls the wrapped functions
from its worker threads.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name) for every wrapped module-level function.  The
# wrapper replaces the function wherever an ofbmkit module holds a reference
# to it, because modules bind each other's names at import time.
FUNCTIONS = (
    ("ofbmkit.synthesis", "gaussian_variates", "synthesis.noise"),
    ("ofbmkit.synthesis", "path_to_csv", "synthesis.csv_write"),
    ("ofbmkit.synthesis", "path_from_csv", "synthesis.csv_read"),
    ("ofbmkit.wavelet", "dwt", "wavelet.dwt"),
    ("ofbmkit.wavelet", "spectrum_set", "wavelet.spectrum_set"),
    ("ofbmkit.wavelet", "windowed_spectra", "wavelet.windowed_spectra"),
    ("ofbmkit.estimation", "analyze", "estimation.analyze"),
    ("ofbmkit.estimation", "sorted_eigenvalues", "estimation.sorted_eigenvalues"),
    ("ofbmkit.estimation", "averaged_log_eigenvalues", "estimation.averaged_log_eigenvalues"),
    ("ofbmkit.estimation", "regression_weights", "estimation.regression_weights"),
    ("ofbmkit.analysis", "run_mc", "analysis.run_mc"),
    ("ofbmkit.analysis", "sliding_window_estimates", "analysis.sliding_window_estimates"),
    ("ofbmkit.analysis", "wilcoxon_ranksum", "analysis.wilcoxon_ranksum"),
    ("ofbmkit.analysis", "chi2_quantiles", "analysis.chi2_quantiles"),
    ("ofbmkit.model", "load_params", "model.load_params"),
)
# (class, method, span name) for CirculantEmbedding, patched on the class.
METHODS = (
    ("__init__", "synthesis.embedding_build"),
    ("sample", "synthesis.sample"),
)
# Spans under which spans from threads with an empty stack are parented:
# the run_mc worker threads have no caller span of their own.
ROOTS = ("analysis.run_mc", "analysis.sliding_window_estimates")


def _info(name, args, kwargs, result):
    """Exact count or identifier recorded with a span, from shapes and sizes."""
    if name == "synthesis.noise":
        return int(np.prod(args[1]))  # normals drawn
    if name == "synthesis.sample":
        return int(args[1] if len(args) > 1 else kwargs["seed"])  # seed
    if name == "synthesis.embedding_build":
        return int(args[0].size)  # embedding size
    if name == "synthesis.csv_write":
        return int(args[1].tell())  # bytes written so far
    if name == "estimation.averaged_log_eigenvalues":
        return int(np.shape(args[0])[0])  # matrices decomposed
    if name == "estimation.sorted_eigenvalues":
        return 1
    if name == "estimation.analyze":
        return kwargs.get("t_start")
    if name == "analysis.run_mc":
        return int(kwargs.get("threads", args[1] if len(args) > 1 else 1))
    return None


class Recorder:
    """Collects spans; ``install`` wraps ofbmkit, ``uninstall`` restores it.

    ``op_spans`` names the spans that start a new operation on their thread
    (``synthesis.sample`` for a realization, ``estimation.analyze`` with a
    window start for a window); later spans on that thread carry its id until
    the next one starts.  :meth:`set_op` sets the id explicitly, as the CLI
    driver does with the command name.
    """

    def __init__(self, op_spans=()):
        self.spans = []  # [sid, parent, name, op, thread, start, end, info]
        self._op_spans = frozenset(op_spans)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._restore = []

    def set_op(self, op):
        self._local.op = op

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if name in self._op_spans:
                op = _info(name, args, kwargs, None)
                if op is not None:
                    self._local.op = op
            op = getattr(self._local, "op", None)
            is_root = name in ROOTS
            if is_root:
                outer_root, self._root = self._root, sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_root:
                    self._root = outer_root
            info = _info(name, args, kwargs, result)
            with self._lock:
                self.spans.append([sid, parent, name, op, threading.get_ident(), start, end, info])
            return result

        return wrapper

    def record(self, name, start, end, op=None, info=None):
        """Add a span measured by the caller (no parent)."""
        with self._lock:
            self.spans.append([next(self._ids), None, name, op, 0, start, end, info])

    def install(self):
        from ofbmkit.synthesis import CirculantEmbedding

        for mod_name, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self.wrap(name, orig)
            for key, mod in list(sys.modules.items()):
                if key.split(".")[0] == "ofbmkit" and getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapped)
                    self._restore.append((mod, attr, orig))
        for attr, name in METHODS:
            orig = CirculantEmbedding.__dict__[attr]
            setattr(CirculantEmbedding, attr, self.wrap(name, orig))
            self._restore.append((CirculantEmbedding, attr, orig))

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def merge(spans, more):
    """Append spans from another recorder (e.g. a subprocess), renumbering ids."""
    offset = max((s[0] for s in spans), default=0)
    for s in more:
        spans.append([s[0] + offset, None if s[1] is None else s[1] + offset] + list(s[2:]))


class SpanTable:
    """Per-name durations and self times of a list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.by_name = defaultdict(list)
        child_time = defaultdict(float)
        self.children = defaultdict(list)
        for s in spans:
            self.by_name[s[2]].append(s)
            parent = self.by_id.get(s[1])
            if parent is not None:
                self.children[parent[0]].append(s)
                # only same-thread children block their parent; worker-thread
                # children of run_mc run beside it
                if parent[4] == s[4]:
                    child_time[parent[0]] += s[6] - s[5]
        self.self_time = {s[0]: (s[6] - s[5]) - child_time[s[0]] for s in spans}

    def calls(self, name) -> int:
        return len(self.by_name[name])

    def total(self, name) -> float:
        return sum(s[6] - s[5] for s in self.by_name[name])

    def self_total(self, name) -> float:
        return sum(self.self_time[s[0]] for s in self.by_name[name])

    def info_total(self, name) -> int:
        return sum(s[7] or 0 for s in self.by_name[name])

    def mean(self, name) -> float:
        n = self.calls(name)
        return self.total(name) / n if n else 0.0

    def self_mean(self, name) -> float:
        n = self.calls(name)
        return self.self_total(name) / n if n else 0.0
