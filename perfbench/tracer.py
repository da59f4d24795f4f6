"""Span tracer installed into a balkit process by perfbench/child.py.

`install` wraps the public functions of every balkit module, and the
multiply / power / inverse methods of the field tower, so that each call
records one span: name, layer, start, end and parent.  The tracer adds
each span's self time to its layer and its duration to its name when it
closes, so the summary written at exit needs no second pass.

Two kinds of call are counted but get no span:
- field-tower calls made from inside the field tower.  They are the inner
  loop of the convolution closed forms, and a span each would make the
  tracer the dominant cost;
- every call in a process forked from the traced one, such as the workers of
  the identity pool.  The parent's time inside the pool is the `pool` layer,
  which is time spent waiting.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

clock = time.perf_counter

LAYERS = ("sequences", "quadfield", "genfunc", "identities", "convolutions", "tailfloors", "cli")
FIELD_CLASSES = ("QuadRat", "GaussQuad")
FIELD_METHODS = ("__mul__", "__rmul__", "__pow__", "inverse")
FAMILY_LETTER = {"balancing": "B", "lucas-balancing": "C", "fibonacci": "F", "lucas": "L"}

# Span record fields.
NAME, LAYER, START, END, PARENT, CHILD_TIME, OUTER = range(7)


def balkit_modules():
    return [importlib.import_module(m) for m in ["balkit"] + [f"balkit.{l}" for l in LAYERS]]


def replace_function(old, new) -> None:
    """Point every balkit module-level name bound to `old` at `new`."""
    for mod in balkit_modules():
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


class Tracer:
    def __init__(self, start: float):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.calls: Counter = Counter()
        self.layer_self: defaultdict = defaultdict(float)
        self.inclusive: defaultdict = defaultdict(float)
        self.values_terms = 0
        self.report_bytes = 0
        self.max_terms = 0
        self.active = True
        os.register_at_fork(after_in_child=self._forked)
        self.root = self.open("bench.process", "bench", start)

    def _forked(self) -> None:
        self.active = False

    def open(self, name: str, layer: str, start: float | None = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        outer = self.open_names[name] == 0
        self.open_names[name] += 1
        self.spans.append([name, layer, clock() if start is None else start, None,
                           parent, 0.0, outer])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span[END] = end = clock()
        self.stack.pop()
        self.open_names[span[NAME]] -= 1
        dur = end - span[START]
        self.layer_self[span[LAYER]] += dur - span[CHILD_TIME]
        if span[OUTER]:
            self.inclusive[span[NAME]] += dur
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_TIME] += dur

    def wrap(self, fn, name: str, layer: str, hot: bool = False, label=None, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if hot and self.spans[self.stack[-1]][LAYER] == layer:
                return fn(*args, **kwargs)
            idx = self.open(name if label is None else label(args), layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(result)
            return result
        return traced

    # -- observers: counts taken from results at the layer boundary ------------

    def _count_values(self, result) -> None:
        self.values_terms += len(result)

    def _count_report(self, text) -> None:
        self.report_bytes += len(text.encode("utf-8"))

    def _note_terms(self, cert) -> None:
        self.max_terms = max(self.max_terms, cert.terms)

    def install(self) -> None:
        """Wrap the public functions of each layer and the field-tower methods."""
        special = {
            "convolutions.closed_form_raw": {
                "label": lambda a: f"convolutions.closed_form_raw.{FAMILY_LETTER.get(a[0].key, '?')}"},
            "sequences.values": {"observe": self._count_values},
            "cli.render_json": {"observe": self._count_report},
            "tailfloors.certify_floor": {"observe": self._note_terms},
        }
        for layer in LAYERS:
            mod = importlib.import_module(f"balkit.{layer}")
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                replace_function(fn, self.wrap(fn, name, layer, **special.get(name, {})))
        quadfield = importlib.import_module("balkit.quadfield")
        for cls_name in FIELD_CLASSES:
            cls = getattr(quadfield, cls_name)
            for meth in FIELD_METHODS:
                fn = vars(cls)[meth]
                setattr(cls, meth, self.wrap(fn, f"quadfield.{cls_name}.{meth}", "quadfield", hot=True))
        cli = importlib.import_module("balkit.cli")
        cli.ProcessPoolExecutor = self._pool_class(cli.ProcessPoolExecutor)

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """The pool's lifetime, from entry to shutdown, is one `pool` span."""

            def __enter__(self):
                self._span = tracer.open("cli.pool_wait", "pool")
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._span)

        return TracedPool

    def summary(self) -> dict:
        while self.stack:
            self.close(self.stack[-1])
        root = self.spans[self.root]
        return {
            "start": root[START],
            "end": root[END],
            "spans": len(self.spans),
            "layer_self": dict(self.layer_self),
            "inclusive": dict(self.inclusive),
            "calls": dict(self.calls),
            "values_terms": self.values_terms,
            "report_bytes": self.report_bytes,
            "max_terms": self.max_terms,
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh)
