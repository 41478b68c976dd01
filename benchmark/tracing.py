"""Spans around calls into qrpd's public functions, recorded from outside the
package.

Tracer.install() replaces each listed function in every loaded qrpd module
namespace that holds it (so names imported elsewhere, such as
nash.engine_meta_matrix or cli.detect_period, are timed too) and
Tracer.uninstall() puts the originals back.  Spans are kept in memory as
(id, name, start, end, parent, thread, measures) and written out at the end.

A span opened on a thread with no open span of its own (a scan's pool
worker) takes the innermost open span of the installing thread as parent.
Self time is a span's duration minus the union of its children's intervals.
"""
from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, span name); attribute "Class.method" wraps a method.
TARGETS = [
    ("qrpd.qcore", "make_unitary", "qcore.make_unitary"),
    ("qrpd.qcore", "round_operator", "qcore.round_operator"),
    ("qrpd.actions", "named_action", "actions.named_action"),
    ("qrpd.actions", "parse_action", "actions.parse_action"),
    ("qrpd.actions", "parse_angle", "actions.parse_angle"),
    ("qrpd.actions", "rational_of", "actions.rational_of"),
    ("qrpd.actions", "two_param_membership", "actions.two_param_membership"),
    ("qrpd.actions", "ActionTriple.unitary", "actions.ActionTriple.unitary"),
    ("qrpd.game", "four_action_entry", "game.four_action_entry"),
    ("qrpd.game", "one_shot_payoffs", "game.one_shot_payoffs"),
    ("qrpd.repeated", "trace", "repeated.trace"),
    ("qrpd.repeated", "truncated_payoff", "repeated.truncated_payoff"),
    ("qrpd.repeated", "detect_period", "repeated.detect_period"),
    ("qrpd.repeated", "periodic_payoff", "repeated.periodic_payoff"),
    ("qrpd.repeated", "engine_meta_matrix", "repeated.engine_meta_matrix"),
    ("qrpd.repeated", "closed_form_meta_matrix", "repeated.closed_form_meta_matrix"),
    ("qrpd.stochastic", "propagator_matrix", "stochastic.propagator_matrix"),
    ("qrpd.stochastic", "markov_value", "stochastic.markov_value"),
    ("qrpd.stochastic", "monte_carlo_payoff", "stochastic.monte_carlo_payoff"),
    ("qrpd.nash", "classify_codes", "nash.classify_codes"),
    ("qrpd.nash", "scan_region", "nash.scan_region"),
    ("qrpd.nash", "ScanGrid.write_csv", "nash.write_csv"),
    ("qrpd.cli", "write_svg", "cli.write_svg"),
    ("qrpd.cli", "main", "cli.main"),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _stream_pos(args, kwargs, index, name):
    stream = _arg(args, kwargs, index, name)
    try:
        return stream.tell()
    except (AttributeError, OSError, ValueError):
        return None


# Measures taken from a call's arguments and result, keyed by span name.
def _measure_trace(args, kwargs, result):
    return {"rounds": int(_arg(args, kwargs, 4, "rounds"))}


def _measure_truncated(args, kwargs, result):
    return {"rounds_used": int(result[2])}


def _measure_period(args, kwargs, result):
    return {"rounds_searched": int(result.rounds_searched)}


def _measure_mc(args, kwargs, result):
    return {"sampled_rounds": result.samples * result.rounds,
            "uniform_block_mb": result.samples * result.rounds * 8 / 1e6}


def _measure_scan(args, kwargs, result):
    return {"cells": int(result.codes.size)}


MEASURES = {
    "repeated.trace": _measure_trace,
    "repeated.truncated_payoff": _measure_truncated,
    "repeated.detect_period": _measure_period,
    "stochastic.monte_carlo_payoff": _measure_mc,
    "nash.scan_region": _measure_scan,
}

# Span names whose stream argument (index, keyword) is measured in bytes.
STREAM_ARGS = {"nash.write_csv": (1, "stream"), "cli.write_svg": (1, "stream")}


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home = None
        self._originals = []
        self._failures = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        tracer = self
        measure = MEASURES.get(name)
        stream_arg = STREAM_ARGS.get(name)

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home
                parent = home[-1] if home and home is not stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            pos = _stream_pos(args, kwargs, *stream_arg) if stream_arg else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                tracer._failures.setdefault(id(exc), (type(exc).__name__, exc))
                tracer.spans.append((span_id, name, start, end, parent,
                                     threading.get_ident(),
                                     {"raised": type(exc).__name__}))
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            extra = measure(args, kwargs, result) if measure else {}
            if pos is not None:
                after = _stream_pos(args, kwargs, *stream_arg)
                if after is not None:
                    extra["bytes"] = after - pos
            tracer.spans.append((span_id, name, start, end, parent,
                                 threading.get_ident(), extra))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every target in every qrpd module that refers to it."""
        self._home = self._stack()
        modules = [m for key, m in sys.modules.items()
                   if key == "qrpd" or key.startswith("qrpd.")]
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._originals.append((cls, meth, original))
                setattr(cls, meth, self._wrap(span_name, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(span_name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._originals):
            setattr(owner, key, original)
        self._originals.clear()

    def failures(self, type_name: str) -> int:
        """Distinct exceptions of the given type raised out of a span."""
        return sum(1 for name, _ in self._failures.values() if name == type_name)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, thread, extra in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "thread": thread,
                                     **extra}) + "\n")


def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per span name: calls, self time in ms, summed measures, and
    for nash.scan_region the busy time of its engine children."""
    children = defaultdict(list)
    by_id = {}
    for span in spans:
        by_id[span[0]] = span
        if span[4] is not None:
            children[span[4]].append(span)
    out = defaultdict(lambda: defaultdict(float))
    for span_id, name, start, end, parent, thread, extra in spans:
        kids = [(max(s[2], start), min(s[3], end)) for s in children[span_id]]
        covered = _union_length([k for k in kids if k[1] > k[0]])
        stats = out[name]
        stats["calls"] += 1
        stats["self_ms"] += (end - start - covered) * 1e3
        for key, value in extra.items():
            if isinstance(value, (int, float)):
                if key == "uniform_block_mb":
                    stats[key] = max(stats[key], value)
                else:
                    stats[key] += value
        if name == "nash.scan_region":
            stats["engine_busy_ms"] += sum(
                (s[3] - s[2]) * 1e3 for s in children[span_id]
                if s[1] == "repeated.engine_meta_matrix")
    return out
