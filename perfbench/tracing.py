"""Spans around calls into ringmul, installed from outside the library.

`installed` replaces module and class attributes of the imported library
with timing wrappers for the length of a `with` block and puts the
originals back afterwards.  No file of the library changes.  Spans stay
in memory; `write` saves them when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
from collections import defaultdict
from time import perf_counter_ns


class Tracer:
    """Spans as [name, start_ns, end_ns, parent index or -1].

    A span without a parent opens a request; its index is the request id
    of every span under it.
    """

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()

        return traced

    def totals(self):
        """Per span name: (inclusive ns, self ns, calls)."""
        child_ns = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = defaultdict(lambda: [0, 0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            t = out[name]
            t[0] += end - start
            t[1] += end - start - child_ns[i]
            t[2] += 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": self.spans}, fh)


#: (submodule or class of the ringmul package, attribute, span name) of each traced name.
TARGETS = (
    ("baseline", "waksman_even", "baseline.waksman_even"),
    ("general", "core3_times_3xm", "general.core3_times_3xm"),
    ("general", "mat_add", "general.mat_add"),
    ("CountedRing", "lift", "rings.lift"),
    ("CountedRing", "unwrap", "rings.unwrap"),
    ("Matrix", "slice_rows", "matrices.slice_rows"),
    ("Matrix", "slice_cols", "matrices.slice_cols"),
    ("Matrix", "__add__", "matrices.add"),
)


@contextlib.contextmanager
def installed(tracer, rm):
    """Wrap the traced names of `rm` (the ringmul package) inside the block.

    The kernel that `dispatch.kernel_for` returns is wrapped as
    ``kernel.<strategy>``.  A name the library no longer has is skipped,
    so its layer reads 0 instead of stopping the run.
    """
    saved = []
    try:
        for owner_name, attr, name in TARGETS:
            owner = getattr(rm, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        kernel_for = rm.dispatch.kernel_for
        saved.append((rm.dispatch, "kernel_for", kernel_for))
        rm.dispatch.kernel_for = lambda s: tracer.wrap(kernel_for(s), "kernel." + s.value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
