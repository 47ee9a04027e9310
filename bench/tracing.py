"""Spans around the public functions each layer of invartest exposes.

The wrappers replace the names that the calling modules look up (a module
global such as ``experiments.decide``, or a method on its class such as
``GroupAction.randomize``). They are installed only by the traced run, for
the part of the round being traced, and removed afterwards. Spans are kept
in memory and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children; over one tree the self times add up to the root's duration.
"""

from __future__ import annotations

import gzip
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        # (span id, parent id or -1, name, scope, start ns, end ns)
        self.spans: list[tuple[int, int, str, str, int, int]] = []
        self.scope = ""
        self._stack: list[int] = []
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, name, self.scope, start, end))

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def install(self, targets) -> None:
        """Wrap every (owner, attribute, span name) in ``targets``."""
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict, dict]:
        """Self time (ns) and call count per (scope, span name)."""
        child_ns: dict[int, int] = defaultdict(int)
        for sid, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: dict[tuple[str, str], int] = defaultdict(int)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        for sid, _, name, scope, start, end in self.spans:
            self_ns[(scope, name)] += end - start - child_ns[sid]
            calls[(scope, name)] += 1
        return self_ns, calls

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,scope,start_ns,end_ns\n")
            for span in self.spans:
                fh.write("%d,%d,%s,%s,%d,%d\n" % span)


def scenario_targets():
    """Layers a scenario unit goes through: streams, noise, decision, and
    the two helpers that t_test and the regression notes call."""
    from invartest import experiments, numerics
    return [
        (numerics.RngStream, "generator", "numerics.generator"),
        (experiments, "sample_noise", "noise.sample_noise"),
        (experiments, "decide", "engine.decide"),
        (experiments, "student_t_quantile", "numerics.student_t_quantile"),
        (experiments, "bernoulli_bound_design", "theory.bernoulli_bound"),
        (experiments, "bernoulli_bound_regression", "theory.bernoulli_bound"),
    ]


def engine_targets():
    """Layers a generic randomization test goes through."""
    from invartest import engine, groups, statistics
    return [
        (engine, "run_randomization_test", "engine.run_randomization_test"),
        (groups.GroupAction, "randomize", "groups.randomize"),
        (statistics.TestStatistic, "__call__", "statistics.eval"),
        (groups, "qr_orthonormalize", "numerics.qr_orthonormalize"),
    ]
