"""Span tracing of one loewylab command, from outside the library.

`install()` wraps the public functions (`__all__`) of each loewylab module
and patches every wrapper into each loewylab namespace that bound the
original at import time, so calls made through `from .lattice import pair`
are caught too.  A wrapped call opens a span on a stack; closed spans are
kept in memory as tuples

    (span_id, parent_id, layer, name, start, end, leaf_s)

and a layer's self time is its spans' durations minus the time their child
spans cover.  The lattice layer is the hot leaf under every other layer
(`pair` alone runs over a million times in one `jantzen` call), so its
calls, `Weight` construction and arithmetic included, open no span: each
outermost lattice call is timed and its time is added to the `leaf_s` of
the enclosing span, where it counts as lattice self time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("lattice", "weyl", "block", "chardim", "loewy", "ext", "projective", "cli")
LEAF_LAYER = "lattice"
WEIGHT_METHODS = ("__init__", "__add__", "__sub__", "__neg__", "__rmul__")

real_dumps = json.dumps


def self_times(spans) -> dict[str, float]:
    """Self time per layer, in seconds, from a list of span tuples.

    A span's self time is its duration minus the durations of its direct
    children and minus the leaf time aggregated into it; the leaf time is
    credited to the lattice layer.  The values therefore sum to the total
    duration of the root spans.
    """
    children: dict[int, float] = {}
    for _sid, parent, _layer, _name, start, end, _leaf in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    out = dict.fromkeys(LAYERS, 0.0)
    for sid, _parent, layer, _name, start, end, leaf_s in spans:
        out[layer] = out.get(layer, 0.0) + (end - start) - children.get(sid, 0.0) - leaf_s
        out[LEAF_LAYER] += leaf_s
    return out


class Tracer:
    """Span stack, closed spans and counters for one traced command."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [span_id, start, leaf_s, name]
        self.in_leaf = False
        self.counts: dict[str, list] = {}  # one-element cells, cheap to bump
        self.patterns: set[tuple[int, int]] = set()
        self._next_id = 0

    def cell(self, key: str) -> list:
        return self.counts.setdefault(key, [0])

    def span(self, layer: str, name: str, fn, after=None):
        """Wrap `fn` so each call records a span.  `after(args, result,
        parent_frame, seconds)` runs once the span has closed."""
        calls = self.cell(f"{layer}.{name}.calls")
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            calls[0] += 1
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [self._next_id, perf_counter(), 0.0, name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (frame[0], parent and parent[0], layer, name, frame[1], end, frame[2])
                )
            if after is not None:
                after(args, result, parent, end - frame[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, key: str, fn):
        """Wrap a lattice callable: counted under `key` on every call, timed
        only at the outermost lattice call, into the enclosing span."""
        calls = self.cell(key)
        stack = self.stack

        def wrapper(*args, **kwargs):
            calls[0] += 1
            if self.in_leaf or not stack:
                return fn(*args, **kwargs)
            self.in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stack[-1][2] += perf_counter() - start
                self.in_leaf = False

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Self time per layer, root span time, and every counter."""
        return {
            "self_s": self_times(self.spans),
            "root_s": sum(s[5] - s[4] for s in self.spans if s[1] is None),
            "spans": len(self.spans),
            "patterns": len(self.patterns),
            "counts": {key: cell[0] for key, cell in self.counts.items()},
        }


def install() -> Tracer:
    """Wrap loewylab's public functions with a fresh tracer and return it.

    Modules or functions that a later version of the library no longer has
    are skipped; their metrics then read zero.
    """
    tracer = Tracer()
    cell = tracer.cell
    labels_built, rad_s = cell("loewy.labels_built"), cell("loewy.rad_inclusive_s")
    stacked = cell("projective.labels_stacked")
    entries = cell("projective.verma_support.entries")
    valid = cell("chardim.cert_valid")
    render_s = cell("cli.render_s")

    def after_rad(args, result, parent, seconds):
        labels = sum(len(layer) for layer in result)
        labels_built[0] += labels
        rad_s[0] += seconds
        tracer.patterns.add((args[0].n, args[1]))
        if parent is not None and parent[3] == "rad_layers_qhat":
            stacked[0] += labels

    def after_support(args, result, parent, seconds):
        entries[0] += len(result)

    def after_verify(args, result, parent, seconds):
        valid[0] += bool(result)

    def after_render(args, result, parent, seconds):
        render_s[0] += seconds

    after = {
        ("loewy", "rad_layers_z_g1t"): after_rad,
        ("projective", "verma_support"): after_support,
        ("chardim", "verify_certificate"): after_verify,
    }

    wrappers: dict[int, object] = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"loewylab.{layer}")
        except ImportError:
            continue
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if layer == LEAF_LAYER:
                wrappers[id(fn)] = tracer.leaf(f"{layer}.{name}.calls", fn)
            else:
                wrappers[id(fn)] = tracer.span(layer, name, fn, after.get((layer, name)))
        weight = getattr(module, "Weight", None) if layer == LEAF_LAYER else None
        if inspect.isclass(weight):
            for method in WEIGHT_METHODS:
                fn = weight.__dict__.get(method)
                if fn is not None:
                    key = "lattice.weights_built" if method == "__init__" else (
                        f"lattice.Weight.{method.strip('_')}.calls"
                    )
                    setattr(weight, method, tracer.leaf(key, fn))

    for mod_name, module in list(sys.modules.items()):
        if module is None or mod_name.split(".")[0] != "loewylab":
            continue
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None and wrapper.__wrapped__ is value:
                setattr(module, attr, wrapper)

    json.dumps = tracer.span("cli", "render", real_dumps, after_render)
    return tracer
