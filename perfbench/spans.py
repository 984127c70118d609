"""Spans around calls into the program's public functions, kept in memory.

The benchmark's own code installs the tracer by replacing each public
function or method named in ``TARGETS`` wherever the ``isoreduce`` package
binds it, so calls between the program's modules are caught too.  Nothing
under ``src/isoreduce`` changes.  Spans are written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from statistics import median

#: ``(module, qualified name)`` of every traced callable; the span name is
#: ``<module>.<last name part>``, and ``update.session`` for the constructor.
TARGETS = (
    ("update", "UpdateSession.__init__"),
    ("update", "UpdateSession.apply"),
    ("update", "UpdateSession.refresh"),
    ("update", "UpdateSession.commit"),
    ("update", "StoredState.from_graph"),
    ("graph", "find_structural_set"),
    ("graph", "compute_depths"),
    ("graph", "validate_structural"),
    ("reduction", "enumerate_branches"),
    ("reduction", "extended_reduced_matrix"),
    ("reduction", "reduced_matrix"),
    ("spectral", "is_primitive"),
    ("spectral", "power_iteration"),
    ("spectral", "lift_eigenvector"),
    ("markov", "reduced_matrix_of_chain"),
    ("io", "save_state"),
    ("io", "load_state"),
)

#: Modules whose self time is reported; ``other`` is the time an operation
#: spends outside every traced call (the benchmark's root span ``op``).
LAYERS = ("update", "graph", "reduction", "spectral", "markov", "io", "other")


def _counts(name: str, result) -> dict:
    """Work counts read off a traced call's result."""
    if name == "spectral.power_iteration":
        return {"iterations": result.iterations}
    if name == "reduction.enumerate_branches":
        return {"branches": len(result)}
    return {}


class Tracer:
    """Span recorder.  A span is ``[name, start, end, parent, op, counts]``.

    ``op`` is the operation the span belongs to, set by the workload with
    :meth:`operation`, so spans of one operation share an identifier.
    Inside :meth:`pause` (baselines) nothing is recorded.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op: str | None = None
        self.paused = False

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    @contextmanager
    def span(self, name: str):
        if self.paused:
            yield
            return
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else None, self.op, {}]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    @contextmanager
    def operation(self, op: str):
        """Mark an operation and record its root span ``op``."""
        self.op = op
        try:
            with self.span("op"):
                yield
        finally:
            self.op = None

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                rec[5] = _counts(name, result)
                return result
        return traced

    def install(self) -> None:
        """Replace every target wherever a loaded ``isoreduce`` module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "isoreduce" or k.startswith("isoreduce."))]
        for mod_name, qual in TARGETS:
            owner = sys.modules[f"isoreduce.{mod_name}"]
            last = qual.split(".")[-1]
            name = f"{mod_name}.{'session' if last == '__init__' else last}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, self._wrap(name, raw))
                continue
            original = getattr(owner, qual)
            wrapped = self._wrap(name, original)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapped)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] is not None:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def call_median(self, name: str) -> float:
        """Median inclusive duration of the spans named ``name`` (0 if none)."""
        vals = [rec[2] - rec[1] for rec in self.spans if rec[0] == name]
        return median(vals) if vals else 0.0

    def op_sums(self, names) -> dict[str, float]:
        """Per operation, the summed duration of its spans named in ``names``."""
        sums: dict[str, float] = {}
        for rec in self.spans:
            if rec[4] is not None and rec[0] in names:
                sums[rec[4]] = sums.get(rec[4], 0.0) + rec[2] - rec[1]
        return sums

    def count_median(self, name: str, key: str) -> float:
        vals = [rec[5][key] for rec in self.spans if rec[0] == name and key in rec[5]]
        return float(median(vals)) if vals else 0.0

    def layer_self_means(self) -> dict[str, float]:
        """Mean over operations of each layer's self time within the operation.

        A mean, not a median, so a layer entered by only some operations
        (a checkpoint every k updates) shows its share of every operation.
        """
        self_t = self.self_times()
        per_op: dict[str, dict[str, float]] = {}
        for rec, t in zip(self.spans, self_t):
            if rec[4] is None:
                continue
            layer = "other" if rec[0] == "op" else rec[0].split(".")[0]
            bucket = per_op.setdefault(rec[4], {})
            bucket[layer] = bucket.get(layer, 0.0) + t
        n_ops = max(len(per_op), 1)
        return {layer: sum(b.get(layer, 0.0) for b in per_op.values()) / n_ops
                for layer in LAYERS}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "counts"],
                       "spans": self.spans}, fh)
