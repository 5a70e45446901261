"""Spans around the public functions of each saproute layer.

``Tracer.installed()`` replaces each traced function, in every module that
bound it by name, with a wrapper that records one span (name, start, end,
parent span, solve id) and the call's work counts; the originals are put
back on exit.  ``saproute.oracle`` is left alone: it is the correctness
judge and runs outside the timed solves.  Spans recorded inside forked pool
workers stay in the workers, so at two threads only the parent's share of
``detour_frontiers`` (pool start-up, IPC, relabelling) is seen.
"""
from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import saproute
from saproute import cli, dominance, mcsp, network, psychmodels, solvers, synthetic

# Every module whose namespace may hold a traced function under its own name.
BINDING_MODULES = (saproute, network, dominance, mcsp, psychmodels, solvers,
                   synthetic, cli)


def _fixed(name):
    return lambda args, kwargs: name


def _detour_name(args, kwargs):
    threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
    return f"solvers.detour_frontiers.t{threads}"


def _labels_per_target(args, result):
    return {"labels_out": sum(len(front) for front in result.values())}


def _labels(args, result):
    return {"labels_out": len(result)}


def _cull(args, result):
    return {"in": len(args[0]), "kept": len(result)}


def _join(args, result):
    return {"pairs": len(args[0]) * len(args[1]), "joined": len(result)}


def _candidates(args, result):
    return {"candidates": len(args[0])}


# (span name, owner, attribute, leading positional arguments turned into
#  lists so they can be counted, work counts taken from arguments and result)
TRACED = (
    (_fixed("mcsp.mc_multi_target"), mcsp, "mc_multi_target", 0, _labels_per_target),
    (_fixed("mcsp.mc_shortest"), mcsp, "mc_shortest", 0, _labels),
    (_fixed("dominance.simple_cull"), dominance, "simple_cull", 1, _cull),
    (_fixed("dominance.reduced_join"), dominance, "reduced_join", 2, _join),
    (_fixed("dominance.label_path"), dominance, "label_path", 0, None),
    (_fixed("psychmodels.score"), psychmodels, "score", 1, _candidates),
    (_fixed("solvers.baseline_sp"), solvers, "baseline_sp", 0, None),
    (_fixed("solvers.transform_1d"), solvers, "transform_1d", 0, None),
    (_detour_name, solvers, "detour_frontiers", 0, None),
    (_fixed("solvers.solve"), solvers, "solve", 0, None),
    (_fixed("cli.run_report"), cli, "run_report", 0, None),
    (_fixed("network.drop_edges"), network.Network, "drop_edges", 0, None),
    (_fixed("network.Path.from_edges"), network.Path, "from_edges", 0, None),
)


class Tracer:
    """In-memory span recorder.

    A span opened while no other span is open starts a new solve id.  The
    benchmark calls ``take_pass`` after each pass to turn the spans into
    self times and counts.
    """

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, solve id]
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._solves = 0

    def _wrap(self, fn, name_of, n_lists, account):
        def traced(*args, **kwargs):
            if n_lists:
                args = tuple(list(a) for a in args[:n_lists]) + args[n_lists:]
            name = name_of(args, kwargs)
            parent = self._open[-1] if self._open else -1
            if parent < 0:
                self._solves += 1
            span = [name, 0.0, 0.0, parent, self._solves]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            self.counts[name + ".calls"] += 1
            if account is not None:
                for key, n in account(args, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result
        return traced

    @contextmanager
    def installed(self):
        undo = []
        try:
            for name_of, owner, attr, n_lists, account in TRACED:
                try:
                    raw = inspect.getattr_static(owner, attr)
                except AttributeError:  # gone from the program: its span reads 0
                    continue
                if isinstance(owner, type):
                    is_static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if is_static else raw
                    wrapped = self._wrap(fn, name_of, n_lists, account)
                    setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                    undo.append((owner, attr, raw))
                    continue
                wrapped = self._wrap(raw, name_of, n_lists, account)
                for module in BINDING_MODULES:
                    if vars(module).get(attr) is raw:
                        setattr(module, attr, wrapped)
                        undo.append((module, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def take_pass(self) -> tuple[dict, dict, list]:
        """Self seconds per (solve id, span name), work counts, and the raw
        spans recorded since the last call; clears them, and solve ids
        start from 1 again."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict = {}
        for i, (name, start, end, _, solve) in enumerate(self.spans):
            key = (solve, name)
            self_s[key] = self_s.get(key, 0.0) + (end - start - covered[i])
        counts, spans = dict(self.counts), self.spans
        self.spans, self.counts, self._solves = [], Counter(), 0
        return self_s, counts, spans


def write_spans(spans, path) -> None:
    """One JSON array per line: name, start, end, parent index, solve id."""
    with open(path, "w") as out:
        for span in spans:
            out.write(json.dumps(span))
            out.write("\n")
