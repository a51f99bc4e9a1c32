"""Span recording around the public functions of each conewalk module.

The wrappers are installed from the benchmark, not from the program: each
target function is replaced by a module attribute that records a span
(name, start, end, parent, iteration) and then calls the original.  Call
sites that look the function up on its module at call time (which every
internal call in conewalk does) are therefore traced; the originals are
restored by ``uninstall``.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

# (module, attribute, span name, parameters copied into the span's meta)
TARGETS = (
    ("cli", "run_report", "cli.run_report", ()),
    ("cli", "load_model", "model.load", ()),
    ("model", "load_model", "model.load", ()),
    ("model", "build_model", "model.build", ()),
    ("laplace", "analyze", "laplace.analyze", ()),
    ("laplace", "laplace_eval", "laplace.eval", ()),
    ("exact_dp", "survival_sequence", "exact_dp.survival", ("model", "n")),
    ("exact_dp", "excursion_sequence", "exact_dp.excursion", ("model", "n")),
    ("exact_dp", "escape_probability_bounds", "exact_dp.bounds", ("model", "n")),
    ("exact_dp", "tilted_survival_functional", "exact_dp.tilted", ("model", "n")),
    ("seqlab", "sequence_verdict", "seqlab.verdict", ()),
    ("seqlab", "detect_period", "seqlab.detect_period", ()),
    ("seqlab", "excursion_exponent_fit", "seqlab.exponent_fit", ()),
    ("mc", "simulate_survival", "mc.plain", ("model", "n", "samples", "workers")),
    ("mc", "simulate_tilted", "mc.tilted", ("model", "n", "samples", "workers")),
    ("report", "base_report", "report.base", ()),
    ("report", "laplace_block", "report.laplace_block", ()),
    ("report", "sequence_block", "report.sequence_block", ()),
    ("report", "verdict_block", "report.verdict_block", ()),
    ("report", "bounds_block", "report.bounds_block", ()),
    ("report", "mc_block", "report.mc_block", ()),
    ("report", "assumption_checklist", "report.assumptions", ()),
    ("report", "regime_tags", "report.regime_tags", ()),
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "iteration", "meta")

    def __init__(self, sid, name, start, parent, iteration, meta):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.iteration = iteration
        self.meta = meta

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        meta = {k: v for k, v in self.meta.items()
                if isinstance(v, (bool, int, float, str))}
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent,
                "iteration": self.iteration, "meta": meta}


class Tracer:
    """In-memory span recorder; one per benchmark process, main thread only."""

    def __init__(self):
        self.spans: list[Span] = []
        self.iteration: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, meta: dict | None = None) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, parent, self.iteration,
                    meta or {})
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, params):
        sig = inspect.signature(fn) if params else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                meta = {p: bound.arguments[p] for p in params}
            span = self.open(name, meta)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hasattr(result, "mean") and hasattr(result, "std_error"):
                meta["mean"] = result.mean
                meta["std_error"] = result.std_error
            return result

        return traced

    def install(self) -> None:
        """Replace every target attribute with its traced wrapper."""
        if self._saved:
            return
        for mod_name, attr, name, params in TARGETS:
            module = importlib.import_module(f"conewalk.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, params))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def children(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = {}
        for s in self.spans:
            out.setdefault(s.parent, []).append(s)
        return out

    def self_seconds(self, iteration: int | None) -> dict[str, float]:
        """Per-layer self time: span duration minus its child spans."""
        kids = self.children()
        out: dict[str, float] = {}
        for s in self.spans:
            if s.iteration != iteration:
                continue
            own = s.seconds - sum(c.seconds for c in kids.get(s.id, ()))
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def write(self, path, extra: dict) -> None:
        doc = {"spans": [s.to_json() for s in self.spans],
               "unwrapped": self.missing, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
