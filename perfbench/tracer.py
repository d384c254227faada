"""Spans and counts around the calls into normplane's layers.

The tracer wraps public functions and methods from outside the package:
module functions are replaced in every normplane module that binds them
(cli imports its functions by name), methods on their classes, and the
metric view's callables through the holders a workload hands over.  A
wrapper records a span (name, start, end, parent, operation id) in
arrays kept in memory, plus counts taken at the same boundary; the file
is written once, at the end of the run.

Calls that stay inside one layer are not new calls into it: a
Pushforward's value() calling its base's value(), or structure()
evaluating the norm, runs without a span of its own, and so does a
function calling itself.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc
from array import array
from collections import Counter

import numpy as np

# (metric, unit, better); counts and self times are per traced operation
PER_LAYER = [
    ("diffdetect.dist.pairs", "count", "lower"),
    ("diffdetect.nd_classify_metric.self_s", "s", "lower"),
    ("diffdetect.ball_sampler.calls", "count", "lower"),
    ("curves.locate.calls", "count", "lower"),
    ("curves.locate.self_s", "s", "lower"),
    ("curves.point_at.calls", "count", "lower"),
    ("curves.point_at.self_s", "s", "lower"),
    ("birkhoff.orth_cone.self_s", "s", "lower"),
    ("birkhoff.orth_cone.value_rows", "count", "lower"),
    ("norms.value.calls", "count", "lower"),
    ("norms.value.rows", "count", "lower"),
    ("norms.value.rows_per_call", "rows/call", "higher"),
    ("norms.value.self_s", "s", "lower"),
    ("norms.structure.calls", "count", "lower"),
    ("norms.structure.self_s", "s", "lower"),
    ("curves.extreme_points.calls", "count", "lower"),
    ("curves.line_crossings.calls", "count", "lower"),
    ("curves.line_crossings.self_s", "s", "lower"),
    ("curves.build_natural_param.calls", "count", "lower"),
    ("curves.build_natural_param.self_s", "s", "lower"),
    ("isometry.linear_map.self_s", "s", "lower"),
    ("isometry.table_map.self_s", "s", "lower"),
    ("isometry.distortion_profile.self_s", "s", "lower"),
    ("isometry.check_antipodes.self_s", "s", "lower"),
    ("isometry.fit_linear.self_s", "s", "lower"),
    ("isometry.fit_affine.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("isometry.chord_triple.self_s", "s", "lower"),
    ("isometry.zigzag.self_s", "s", "lower"),
    ("isometry.equilateral_triples.self_s", "s", "lower"),
    ("isometry.equilateral_triples.peak_alloc_mb", "MB", "lower"),
]

MODULE_FUNCTIONS = {
    "curves": ("build_natural_param", "extreme_points", "line_crossings"),
    "birkhoff": ("orth_cone",),
    "diffdetect": ("nd_classify_metric",),
    "isometry": ("linear_map", "table_map", "distortion_profile", "check_antipodes",
                 "fit_linear", "fit_affine", "chord_triple", "zigzag", "equilateral_triples"),
    "cli": ("main",),
}
NORM_CLASSES = ("PNorm", "PolygonGauge", "Hexagonal", "DiskIntersection", "Pushforward")
NORM_SPANS = ("norms.value", "norms.structure")


class Tracer:
    def __init__(self, mods, hooks):
        self.names = []
        self._ids = {}
        self.nid = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()
        self.peak_alloc = 0.0
        self.op_id = -1
        self._patches = self._plan(mods, hooks)

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ------------------------------------------------------

    def wrap(self, name, fn, kind=None):
        nid = self._id(name)
        merge = {self._id(n) for n in NORM_SPANS} if name in NORM_SPANS else {nid}
        cone = self._id("birkhoff.orth_cone")
        stack, depth, counts = self.stack, self.depth, self.counts

        def wrapper(*args, **kwargs):
            if stack and self.nid[stack[-1]] in merge:
                return fn(*args, **kwargs)
            if kind == "rows":
                rows = np.size(args[1]) // 2
                counts[name + ".rows"] += rows
                if depth[cone]:
                    counts["birkhoff.orth_cone.value_rows"] += rows
            elif kind == "pairs":
                shape = np.broadcast_shapes(np.shape(args[0]), np.shape(args[1]))
                counts[name + ".pairs"] += int(np.prod(shape[:-1]))
            idx = self._open(nid)
            depth[nid] += 1
            if kind == "alloc":
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                if kind == "alloc":
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    self.peak_alloc = max(self.peak_alloc, peak)
                depth[nid] -= 1
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1

        return wrapper

    def _open(self, nid):
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _plan(self, mods, hooks):
        """(holder, attribute, original, wrapper) for every patch point."""
        plan = []
        loaded = [m for key, m in sys.modules.items()
                  if key == "normplane" or key.startswith("normplane.")]
        for layer, names in MODULE_FUNCTIONS.items():
            for fname in names:
                fn = getattr(getattr(mods, layer), fname)
                kind = "alloc" if fname == "equilateral_triples" else None
                w = self.wrap("%s.%s" % (layer, fname), fn, kind)
                for mod in loaded:
                    for attr, val in list(vars(mod).items()):
                        if val is fn:
                            plan.append((mod, attr, fn, w))
        for cname in NORM_CLASSES:
            cls = getattr(mods.norms, cname)
            for meth, span, kind in (("value", "norms.value", "rows"),
                                     ("structure", "norms.structure", None)):
                fn = cls.__dict__[meth]
                plan.append((cls, meth, fn, self.wrap(span, fn, kind)))
        cls = mods.curves.NaturalParam
        for meth in ("locate", "point_at"):
            fn = cls.__dict__[meth]
            plan.append((cls, meth, fn, self.wrap("curves." + meth, fn)))
        for holder, attr, span, kind in hooks:
            fn = getattr(holder, attr)
            plan.append((holder, attr, fn, self.wrap(span, fn, kind)))
        return plan

    # -- running -------------------------------------------------------

    def run_op(self, op_id, fn):
        """Run one operation under a root span, with the wrappers in place."""
        for holder, attr, _, w in self._patches:
            setattr(holder, attr, w)
        self.op_id = op_id
        idx = self._open(self._id("op"))
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
            self.op_id = -1
            for holder, attr, fn0, _ in reversed(self._patches):
                setattr(holder, attr, fn0)

    # -- results -------------------------------------------------------

    def arrays(self):
        return {
            "name_id": np.asarray(self.nid, dtype=np.int64),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "op": np.asarray(self.op, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
        }

    def totals(self):
        """Calls and self seconds per span name over the whole run."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.zeros(len(dur))
        np.add.at(children, a["parent"][has_parent], dur[has_parent])
        width = len(self.names)
        calls = np.bincount(a["name_id"], minlength=width)
        self_s = np.bincount(a["name_id"], weights=dur - children, minlength=width)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def per_layer(self, n_ops):
        """Every PER_LAYER metric, normalised per traced operation."""
        totals = self.totals()
        out = {}
        for metric, unit, _ in PER_LAYER:
            span, qty = metric.rsplit(".", 1)
            calls, self_s = totals.get(span, (0, 0.0))
            if qty == "calls":
                value = calls / n_ops
            elif qty == "self_s":
                value = self_s / n_ops
            elif qty == "rows_per_call":
                value = self.counts[span + ".rows"] / calls if calls else 0.0
            elif qty == "peak_alloc_mb":
                value = self.peak_alloc
            else:
                value = self.counts[metric] / n_ops
            out[metric] = {"value": value, "unit": unit}
        return out

    def save(self, path, extra):
        """Spans as arrays in path (.npz), names, counts and extra in JSON."""
        np.savez(path, **self.arrays())
        meta = dict(extra, names=self.names, counts=dict(self.counts),
                    totals=self.totals(), peak_alloc_mb=self.peak_alloc)
        with open(str(path) + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1, sort_keys=True)
