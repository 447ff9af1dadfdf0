"""In-memory spans around pvseval's public functions, recorded from outside.

`Tracer.installed()` replaces each function named in PATCHES, in the module
that calls it, with a wrapper that records a span (name, start, end, parent,
op) and, for some layers, exact work counts. Count and comparator work runs
inside a `trace.bookkeeping` span, which `layer_totals` subtracts from every
enclosing span, so it never shows up as layer time.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from scipy import ndimage

BOOKKEEPING = "trace.bookkeeping"
SCIPY_STRUCTURE = {c: ndimage.generate_binary_structure(3, r) for c, r in ((6, 1), (18, 2), (26, 3))}


def file_bytes(path) -> tuple[int, int]:
    """(bytes on disk, bytes after decompression); gzip keeps the latter,
    mod 2**32, in its last four bytes."""
    size = os.path.getsize(path)
    with open(path, "rb") as fh:
        if fh.read(2) != b"\x1f\x8b":
            return size, size
        fh.seek(-4, os.SEEK_END)
        return size, int.from_bytes(fh.read(4), "little")


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_read(tracer, args, kwargs, result):
    packed, raw = file_bytes(_arg(args, kwargs, 0, "path"))
    tracer.add("nifti.read_volume.bytes_in", packed)
    tracer.add("nifti.read_volume.raw_bytes", raw)


def _count_write(tracer, args, kwargs, result):
    packed, raw = file_bytes(_arg(args, kwargs, 1, "path"))
    tracer.add("nifti.write_volume.bytes_out", packed)
    tracer.add("nifti.write_volume.raw_bytes", raw)


def _count_label(tracer, args, kwargs, lm):
    data = _arg(args, kwargs, 0, "mask").data
    connectivity = _arg(args, kwargs, 1, "connectivity", 26)
    tracer.add("ccl.grid_voxels", data.size)
    tracer.add("ccl.fg_voxels", int(lm.component_sizes.sum()))
    tracer.add("ccl.components", lm.component_count)
    # x is the fastest axis: a run starts at every foreground voxel whose
    # x-predecessor is background or off the grid
    tracer.add("ccl.runs", int(np.count_nonzero(data[0]))
               + int(np.count_nonzero(data[1:] & ~data[:-1])))
    if tracer.parent_name() == "morphology.contrast_stat_per_cluster":
        tracer.add("morphology.clusters_contrasted", lm.component_count)
    start = perf_counter()
    ndimage.label(data, structure=SCIPY_STRUCTURE[connectivity])
    tracer.add("ccl.scipy_ms", (perf_counter() - start) * 1e3)


def _count_wilcoxon(tracer, args, kwargs, result):
    tracer.add("stats.wilcoxon.exact", result.method == "exact")


# (module that calls the function, attribute, span name, counter)
PATCHES = (
    ("pvseval.cli", "read_volume", "nifti.read_volume", _count_read),
    ("pvseval.harness", "read_volume", "nifti.read_volume", _count_read),
    ("pvseval.cli", "write_volume", "nifti.write_volume", _count_write),
    ("pvseval.metrics", "intersect", "volume.intersect", None),
    ("pvseval.cli", "label_components", "ccl.label_components", _count_label),
    ("pvseval.metrics", "label_components", "ccl.label_components", _count_label),
    ("pvseval.morphology", "label_components", "ccl.label_components", _count_label),
    ("pvseval.cli", "size_histogram", "ccl.size_histogram", None),
    ("pvseval.cli", "evaluate_subject", "metrics.evaluate_subject", None),
    ("pvseval.harness", "evaluate_subject", "metrics.evaluate_subject", None),
    ("pvseval.metrics", "voxel_metrics", "metrics.voxel_metrics", None),
    ("pvseval.metrics", "cluster_metrics", "metrics.cluster_metrics", None),
    ("pvseval.cli", "contrast_stat", "morphology.contrast_stat", None),
    ("pvseval.cli", "contrast_stat_per_cluster", "morphology.contrast_stat_per_cluster", None),
    ("pvseval.cli", "read_manifest", "harness.read_manifest", None),
    ("pvseval.cli", "evaluate_manifest", "harness.evaluate_manifest", None),
    ("pvseval.harness", "evaluate_record", "harness.evaluate_record", None),
    ("pvseval.cli", "aggregate", "harness.aggregate", None),
    ("pvseval.cli", "losocv_table", "harness.losocv_table", None),
    ("pvseval.cli", "make_folds", "harness.make_folds", None),
    ("pvseval.cli", "compare_models", "stats.compare_models", None),
    ("pvseval.stats", "wilcoxon_signed_rank", "stats.wilcoxon_signed_rank", _count_wilcoxon),
    ("pvseval.stats", "bh_fdr", "stats.bh_fdr", None),
)


class Tracer:
    """Spans of one process, kept in parallel lists until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.stack: list[int] = []
        self.op = -1  # id shared by every span of one command
        self.op_labels: dict[int, str] = {}
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def start_op(self, label: str) -> None:
        self.op = len(self.op_labels)
        self.op_labels[self.op] = label

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.ends[index] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def parent_name(self) -> str | None:
        """Name of the innermost open span other than bookkeeping."""
        names = [self.names[i] for i in self.stack if self.names[i] != BOOKKEEPING]
        return names[-1] if names else None

    def add(self, key: str, value: float) -> None:
        self.counts[self.op][key] += value

    def wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                with self.span(BOOKKEEPING):
                    counter(self, args, kwargs, result)
            return result
        return traced

    @contextmanager
    def installed(self, patches=PATCHES):
        saved = []
        try:
            for module_name, attr, name, counter in patches:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.wrap(name, getattr(module, attr), counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def layer_totals(self, first: int = 0) -> dict[str, dict[str, float]]:
        """Per span name over spans[first:]: calls, ms (duration less the
        bookkeeping inside it) and self_ms (duration less child spans)."""
        n = len(self.names)
        child = [0.0] * n
        booked = [0.0] * n
        for i in range(first, n):
            duration = self.ends[i] - self.starts[i]
            parent = self.parents[i]
            if parent >= 0:
                child[parent] += duration
            if self.names[i] == BOOKKEEPING:
                while parent >= 0:
                    booked[parent] += duration
                    parent = self.parents[parent]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for i in range(first, n):
            duration = self.ends[i] - self.starts[i]
            t = totals[self.names[i]]
            t["calls"] += 1
            t["ms"] += (duration - booked[i]) * 1e3
            t["self_ms"] += (duration - child[i]) * 1e3
        return totals

    def spans(self) -> list[dict]:
        return [
            {"name": self.names[i], "start": self.starts[i], "end": self.ends[i],
             "parent": self.parents[i], "op": self.ops[i],
             "command": self.op_labels.get(self.ops[i])}
            for i in range(len(self.names))
        ]
