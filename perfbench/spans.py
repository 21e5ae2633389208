"""Tracing for the benchmark's traced run, applied from outside the program.

Each traced public function is replaced, for the duration of
``Tracer.installed()``, at the name its caller looks it up by: ``cli`` and
``montecarlo`` bind ``closure_batch``, ``closure_fast``,
``fill_probability``, ``from_text`` and ``to_text`` into their own
namespaces, so patching ``bootgrid.rules.closure_fast`` would miss them.
A wrapper records a span (name, start, end, parent, run id) and the counts
its layer does, keyed by per-layer metric name.  The traced run is
single-threaded, so one stack gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from contextlib import contextmanager


# (module, attribute at the call site, span name, counts from (arguments, result))
TRACE_POINTS = [
    ("bootgrid.rng", "Stream.uniform_block", "rng.uniform_block",
     lambda a, r: {"rng.uniform_block.bytes_out": a["n_children"] * a["count"] * 8}),
    ("bootgrid.montecarlo", "closure_batch", "rules.closure_batch",
     lambda a, r: {"rules.closure_batch.configs": len(a["occ"]),
                   "montecarlo.trials_closed": len(a["occ"])}),
    ("bootgrid.montecarlo", "closure_fast", "rules.closure_fast",
     lambda a, r: {"rules.closure_fast.cells": a["config"].grid.cells,
                   "montecarlo.trials_closed": 1}),
    ("bootgrid.cli", "closure_fast", "rules.closure_fast",
     lambda a, r: {"rules.closure_fast.cells": a["config"].grid.cells}),
    ("bootgrid.montecarlo", "fill_probability", "montecarlo.fill_probability",
     lambda a, r: {"montecarlo.trials_requested": a["trials"]}),
    ("bootgrid.cli", "fill_probability", "montecarlo.fill_probability",
     lambda a, r: {"montecarlo.trials_requested": a["trials"]}),
    ("bootgrid.cli", "estimate_pc", "montecarlo.estimate_pc", None),
    ("bootgrid.cli", "from_text", "lattice.from_text",
     lambda a, r: {"lattice.text_bytes": len(a["text"])}),
    ("bootgrid.cli", "to_text", "lattice.to_text", lambda a, r: {"lattice.text_bytes": len(r)}),
    ("bootgrid.cli", "growth_polynomial", "growth.growth_polynomial",
     lambda a, r: {"growth.growth_polynomial.configs": 2 ** a["spec"].helper_cells}),
    ("bootgrid.cli", "estimate_growth_mc", "growth.estimate_growth_mc",
     lambda a, r: {"growth.estimate_growth_mc.trials": a["trials"]}),
]


class Tracer:
    """Spans kept in memory, written out once at the end of the run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run: str | None = None
        self.missing: set[str] = set()  # trace points the program no longer has
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counts is not None:
                rec["counts"] = counts(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self, points=TRACE_POINTS):
        """Patch every trace point; restore the originals on exit.

        A point the program no longer has is recorded in ``missing`` and
        skipped, so its spans and counts read zero instead of the run failing.
        """
        saved = []
        try:
            for module_name, attr, name, counts in points:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                original = getattr(owner, "__dict__", {}).get(leaf)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(original, name, counts))
            yield self
        finally:
            for owner, leaf, original in reversed(saved):
                setattr(owner, leaf, original)

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for rec in self.spans:
                fp.write(json.dumps(rec) + "\n")


def read_spans(path) -> list[dict]:
    with open(path) as fp:
        return [json.loads(line) for line in fp]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    own = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        own[s["id"]] = (s["end"] - s["start"]) - covered
    return own


def layer_totals(spans: list[dict]) -> dict[str, float]:
    """Per-layer sums over one run's spans: ``<span>.calls``, ``<span>.self_s``
    and every count the wrappers recorded."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(int)
    for s in spans:
        totals[s["name"] + ".calls"] += 1
        totals[s["name"] + ".self_s"] += own[s["id"]]
        for key, value in s["counts"].items():
            totals[key] += value
    return totals
