"""Span recording around the calls into each groupeffect module.

The tracer replaces public functions in the namespaces their callers look
them up in (``groupeffect.cli.load_csv``, ``groupeffect.linalg.projector``,
``groupeffect.effects.group_summaries``, ...) with wrappers that record a
span, and puts the originals back afterwards. Nothing under ``src/`` is
edited. Spans are kept in memory as
``[name, start_ns, end_ns, parent_index, op_id, size]`` and written out by
the caller at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter_ns

from groupeffect import cli, distributions, effects, linalg, regression


def _rows_loaded(ds):
    return ds.n_rows + ds.dropped_rows, ds.dropped_rows


def _rows_in_column(result):
    values, dropped = result
    return len(values) + dropped, dropped


def _projector_rows(p):
    return p.shape[0]


# (namespace, attribute, span name, size of the result or None)
TARGETS = [
    (cli, "main", "cli.main", None),
    (cli, "load_csv", "dataio.load_csv", _rows_loaded),
    (cli, "load_column", "dataio.load_column", _rows_in_column),
    (cli, "histogram", "dataio.histogram", None),
    (cli, "build_design", "regression.build_design", None),
    (regression, "build_design", "regression.build_design", None),
    (cli, "fit_fwl", "regression.fit_fwl", None),
    (regression, "fit_fwl", "regression.fit_fwl", None),
    (cli, "fit_monolithic", "regression.fit_monolithic", None),
    (cli, "standard_errors", "regression.standard_errors", None),
    (cli, "group_summaries", "regression.group_summaries", None),
    (effects, "group_summaries", "regression.group_summaries", None),
    (cli, "effect_report", "effects.effect_report", None),
    (effects, "effect_report", "effects.effect_report", None),
    (cli, "t_two_sided_p", "distributions.t_two_sided_p", None),
    (effects, "t_two_sided_p", "distributions.t_two_sided_p", None),
    (cli, "f_upper_p", "distributions.f_upper_p", None),
    (distributions, "f_upper_p", "distributions.f_upper_p", None),
    (linalg, "projector", "linalg.projector", _projector_rows),
    (linalg, "qr_least_squares", "linalg.qr_least_squares", None),
    (linalg, "require_full_column_rank", "linalg.require_full_column_rank", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op_id = -1
        self._open: list[int] = []

    def wrap(self, name: str, fn, size=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, self._open[-1] if self._open else -1, self.op_id, None]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                self._open.pop()
            if size is not None:
                record[5] = size(result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for namespace, attr, name, size in TARGETS:
                original = getattr(namespace, attr)
                saved.append((namespace, attr, original))
                setattr(namespace, attr, self.wrap(name, original, size))
            yield self
        finally:
            for namespace, attr, original in reversed(saved):
                setattr(namespace, attr, original)

    def run_op(self, op_id: int, fn):
        """Run one op under a root span named "op"."""
        self.op_id = op_id
        return self.wrap("op", fn)()

    def clear(self):
        self.spans.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id, size in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op_id, "size": size}) + "\n")


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total self time (ns) and summed sizes.

    A span's self time is its duration minus the time its direct children
    cover; children never overlap because calls nest on one thread.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_ns": 0, "size": 0, "size2": 0, "dropped": 0})
    for i, (name, start, end, _, _, size) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["self_ns"] += end - start - child_ns[i]
        if isinstance(size, tuple):
            entry["size"] += size[0]
            entry["dropped"] += size[1]
        elif size is not None:
            entry["size"] += size
            entry["size2"] += size * size
    return out
