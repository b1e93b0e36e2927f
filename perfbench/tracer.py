"""Outside-in span tracer for the flexdog benchmark.

Spans are recorded without touching the program: ``install`` rebinds module
attributes such as ``flexdog.pipeline.cell_response`` to wrappers, so every
call the program makes through that name is timed.  Callers (the benchmark and
the program itself) must call through the module attribute for a span to be
seen; the package re-exports in ``flexdog/__init__`` are never patched.

A span is ``[name, start, end, parent, op]``: start and end come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from child processes
nest inside the parent's), ``parent`` is the index of the enclosing span or -1,
and ``op`` is the benchmark operation the span belongs to.  Spans stay in
memory and are written out with ``dump`` at the end of a run.  A layer's self
time is its span duration minus the part of that interval its child spans
cover (``self_times``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np

OP_SPAN = "bench.op"


def _analog_macs(args, kwargs, result):
    # analog_convolve(frame, pk, sample): one multiply-accumulate per cell per output
    oh, ow = np.shape(result.currents)
    kh, kw = np.shape(args[1].dv_grid)
    return {"macs": oh * ow * kh * kw}


def _correlate_macs(args, kwargs, result):
    oh, ow = np.shape(result)
    kh, kw = np.shape(args[1])
    return {"macs": oh * ow * kh * kw}


def _cell_elems(args, kwargs, result):
    return {"elems": int(np.size(result))}


def _idx_bytes_read(args, kwargs, result):
    # load_idx_image reads the 16-byte header and one image's pixels
    return {"bytes_read": 16 + int(np.size(result.pixels))}


def _file_bytes_read(args, kwargs, result):
    return {"bytes_read": os.path.getsize(args[0])}


def _bytes_written(args, kwargs, result):
    return {"bytes_written": os.path.getsize(args[0])}


# (module, attribute, span name, counter).  The span name is
# <defining module>.<function>; the same function bound under two names
# (``pipeline.reference_dog`` and ``cli.dog``) shares one span name.
BOUNDARIES = (
    ("flexdog.pipeline", "monte_carlo", "pipeline.monte_carlo", None),
    ("flexdog.pipeline", "run_dog_pipeline", "pipeline.run_dog_pipeline", None),
    ("flexdog.pipeline", "draw_variation", "pipeline.draw_variation", None),
    ("flexdog.pipeline", "sense", "pipeline.sense", None),
    ("flexdog.pipeline", "analog_convolve", "pipeline.analog_convolve", _analog_macs),
    ("flexdog.pipeline", "to_voltage", "pipeline.to_voltage", None),
    ("flexdog.pipeline", "quantize", "pipeline.quantize", None),
    ("flexdog.pipeline", "saturation_count", "pipeline.saturation_count", None),
    ("flexdog.pipeline", "edge_map", "pipeline.edge_map", None),
    ("flexdog.pipeline", "cell_response", "cell.cell_response", _cell_elems),
    ("flexdog.pipeline", "program_kernel", "cell.program_kernel", None),
    ("flexdog.pipeline", "reference_dog", "dog.dog", None),
    ("flexdog.pipeline", "build_report", "perf.build_report", None),
    ("flexdog.dog", "correlate_valid", "dog.correlate_valid", _correlate_macs),
    ("flexdog.cli", "main", "cli.main", None),
    ("flexdog.cli", "write_json", "cli.write_json", None),
    ("flexdog.cli", "run_dog_pipeline", "pipeline.run_dog_pipeline", None),
    ("flexdog.cli", "dog", "dog.dog", None),
    ("flexdog.cli", "load_idx_image", "imageio.load_idx_image", _idx_bytes_read),
    ("flexdog.cli", "read_pgm", "imageio.read_pgm", _file_bytes_read),
    ("flexdog.cli", "write_pgm", "imageio.write_pgm", _bytes_written),
    ("flexdog.cli", "codes_to_gray", "imageio.codes_to_gray", None),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = defaultdict(float)  # "<span name>.<counter>" -> total
        self.errors = defaultdict(int)  # module layer -> exceptions raised in it
        self.absent = []  # boundaries (or their counters) that no longer fit the program
        self.op = -1
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, counter=None):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an exception once, in the innermost span that raised
                # it, not again at every boundary it passes on its way out
                if not getattr(exc, "_perfbench_counted", False):
                    self.errors[layer] += 1
                    exc._perfbench_counted = True
                raise
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if counter is not None:
                try:
                    for key, value in counter(args, kwargs, result).items():
                        self.counts[f"{name}.{key}"] += value
                except (AttributeError, TypeError, ValueError, IndexError, OSError):
                    # the boundary changed shape: report the counter absent
                    if f"{name} counter" not in self.absent:
                        self.absent.append(f"{name} counter")
            return result

        return traced

    def install(self, module_names):
        """Patch every boundary that lives in one of ``module_names``."""
        # import every module first: a module imported after its dependency
        # was patched would copy the wrapper and wrap it a second time
        modules = {name: importlib.import_module(name) for name in sorted(module_names)}
        for module_name, attr, name, counter in BOUNDARIES:
            if module_name not in modules:
                continue
            module = modules[module_name]
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn, self.wrap(name, fn, counter)))
        self.reapply()

    def restore(self):
        """Put the original functions back; ``reapply`` re-installs the wrappers."""
        for module, attr, fn, _ in reversed(self._patches):
            setattr(module, attr, fn)

    def reapply(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def begin_op(self, op):
        """Open the root span of benchmark operation ``op``; returns its id."""
        self.op = op
        self._stack.append(len(self.spans))
        self.spans.append([OP_SPAN, self.clock(), 0.0, -1, op])
        return self._stack[-1]

    def end_op(self):
        self.spans[self._stack.pop()][2] = self.clock()

    def adopt(self, doc, parent):
        """Append spans another process recorded under span ``parent``."""
        offset = len(self.spans)
        for name, start, end, par, _ in doc["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else par + offset, self.op])
        for key, value in doc["counts"].items():
            self.counts[key] += value
        for key, value in doc["errors"].items():
            self.errors[key] += value
        self.absent.extend(a for a in doc["absent"] if a not in self.absent)

    def to_doc(self):
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "errors": dict(self.errors),
            "absent": self.absent,
        }

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for sid, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
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


def self_times(spans):
    """Per span: duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ()) if e > start and s < end]
        out.append((end - start) - _covered(kids))
    return out


def layer_totals(spans):
    """{span name: (self seconds, calls)} summed over all spans."""
    totals = defaultdict(lambda: [0.0, 0])
    for (name, *_), self_s in zip(spans, self_times(spans)):
        totals[name][0] += self_s
        totals[name][1] += 1
    return {name: tuple(v) for name, v in totals.items()}
