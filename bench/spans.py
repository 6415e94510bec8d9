"""Spans and counters around the calls into each signedcut module.

The tracer wraps module-level functions and two methods from outside the
package: every binding of a wrapped function in any ``signedcut`` module is
replaced, so calls through ``from .x import f`` names are seen too.  The
Laplacian operator is wrapped in a counting :class:`SymmetricOperator` that
keeps ``.dense()``.  Spans are kept in memory as (name, start, end, parent,
op) and written once, when the benchmark ends.

:class:`SolveLog` is lighter and stays installed for the whole run, traced
or not: one record per ``lobpcg_smallest`` call, so that the outcome of
every iterative solve can be judged.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# (module, attribute, span name).  Span names are "<layer>.<function>".
FUNCTIONS = (
    ("io", "load_graph", "io.load_graph"),
    ("io", "save_graph", "io.save_graph"),
    ("graph", "graph_from_edges", "graph.graph_from_edges"),
    ("graph", "connected_in_absolute_value", "graph.connected"),
    ("graph", "degrees", "graph.degrees"),
    ("graph", "negate_weights", "graph.transform"),
    ("graph", "nullify_negative", "graph.transform"),
    ("graph", "scale_weights", "graph.transform"),
    ("generators", "path_string", "generators.build"),
    ("generators", "noisy_string", "generators.build"),
    ("generators", "cobra", "generators.build"),
    ("generators", "dumbbell", "generators.build"),
    ("eigen", "dense_spectrum", "eigen.dense"),
    ("eigen", "dense_spectrum_deflated", "eigen.dense_deflated"),
    ("eigen", "lobpcg_smallest", "eigen.lobpcg"),
    ("eigen", "estimate_largest_eigenvalue", "eigen.power"),
    ("partition", "fiedler", "partition.fiedler"),
    ("partition", "bisect", "partition.bisect"),
    ("partition", "confidence", "partition.confidence"),
    ("partition", "cut_metrics", "partition.cut_metrics"),
    ("partition", "partition_json", "partition.json"),
    ("experiments", "gap_study", "experiments.gap_study"),
    ("experiments", "truncated_iteration_study", "experiments.truncated_iteration_study"),
)
# laplacian.laplacian gets its "laplacian.build" span from Tracer.install.


class Patcher:
    """Rebinds signedcut functions and methods, and undoes it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _rebind(self, orig, replacement) -> None:
        """Replace every binding of orig in the signedcut modules."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "signedcut" and not mod_name.startswith("signedcut."):
                continue
            for name, value in list(vars(module).items()):
                if value is orig:
                    self._patch(module, name, replacement)


class SolveLog(Patcher):
    """One record per ``lobpcg_smallest`` call: op id, iterations, outcome.

    While a tracer is active, the record also gets the block matvec calls and
    columns of the solve, and the tracer gets the eigen.lobpcg_* counters.
    Outside a traced pass the cost is one Python call per solve.
    """

    def __init__(self):
        super().__init__()
        self.records: list[dict] = []
        self.op = -1
        self.tracer: Tracer | None = None

    def install(self) -> None:
        orig = sys.modules["signedcut.eigen"].lobpcg_smallest
        log = self

        def lobpcg_smallest(*args, **kwargs):
            tracer = log.tracer
            before = dict(tracer.counts[tracer.op]) if tracer else None
            spectrum, trace = orig(*args, **kwargs)
            log._record(spectrum, trace, before)
            return spectrum, trace

        lobpcg_smallest.__wrapped__ = orig
        self._rebind(orig, lobpcg_smallest)

    def of(self, op_id: int) -> list[dict]:
        return [r for r in self.records if r["op"] == op_id]

    def _record(self, spectrum, trace, before: dict | None) -> None:
        converged = [bool(c) for c in np.asarray(spectrum.converged)]
        rec = {
            "op": self.op,
            "n": int(np.shape(spectrum.eigenvectors)[0]),
            "k": len(converged),
            "iterations": len(trace),
            "converged": converged,
            "residuals": [float(r) for r in np.asarray(spectrum.residual_norms)],
        }
        tracer = self.tracer
        if tracer is not None:
            after = tracer.counts[tracer.op]
            for key in ("matmat_calls", "matmat_columns"):
                name = f"laplacian.{key}"
                rec[key] = int(after.get(name, 0) - before.get(name, 0))
            tracer.count("eigen.lobpcg_solves")
            tracer.count("eigen.lobpcg_iterations", len(trace))
            tracer.count("eigen.lobpcg_unconverged", 0 if all(converged) else 1)
        self.records.append(rec)


class Tracer(Patcher):
    """In-memory span recorder with a stack for parent links."""

    def __init__(self):
        super().__init__()
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list[int] = []

    # -- recording -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; the span is recorded even if fn raises."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, 0.0, 0.0, parent, self.op))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[self.op][name] += value

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the listed functions, the graph edge arrays and the operator."""
        for mod_name, attr, span in FUNCTIONS:
            module = sys.modules.get(f"signedcut.{mod_name}")
            orig = getattr(module, attr, None)
            if orig is None:
                continue
            self._rebind(orig, self._wrap(orig, span, attr))
        graph_cls = getattr(sys.modules["signedcut.graph"], "SignedGraph", None)
        if graph_cls is not None and hasattr(graph_cls, "edge_arrays"):
            self._patch(graph_cls, "edge_arrays", self._wrap(graph_cls.edge_arrays, "graph.edge_arrays"))
        lap_mod = sys.modules["signedcut.laplacian"]
        build = lap_mod.laplacian
        if hasattr(lap_mod, "SymmetricOperator"):
            self._rebind(build, self._counting_laplacian(build, lap_mod.SymmetricOperator))
        else:
            self._rebind(build, self._wrap(build, "laplacian.build"))

    def _wrap(self, fn, span: str, attr: str = ""):
        tracer = self

        if attr == "load_graph":
            def wrapper(path, *args, **kwargs):
                out = tracer.call(span, fn, path, *args, **kwargs)
                tracer.count("io.bytes_read", os.path.getsize(path))
                return out
        elif attr == "save_graph":
            def wrapper(g, path, *args, **kwargs):
                out = tracer.call(span, fn, g, path, *args, **kwargs)
                tracer.count("io.bytes_written", os.path.getsize(path))
                return out
        else:
            def wrapper(*args, **kwargs):
                return tracer.call(span, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _counting_laplacian(self, build, base_cls):
        tracer = self

        class CountingOperator(base_cls):
            """Delegates to the real operator, counting block matvecs."""

            def __init__(self, inner):
                object.__setattr__(self, "_inner", inner)
                object.__setattr__(self, "n", inner.n)

            def matmat(self, X):
                cols = 1 if np.ndim(X) == 1 else np.shape(X)[1]
                tracer.count("laplacian.matmat_calls")
                tracer.count("laplacian.matmat_columns", cols)
                return tracer.call("laplacian.matmat", self._inner.matmat, X)

            def dense(self):
                return tracer.call("laplacian.dense", self._inner.dense)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        def wrapper(*args, **kwargs):
            op = tracer.call("laplacian.build", build, *args, **kwargs)
            return CountingOperator(op) if isinstance(op, base_cls) else op

        wrapper.__wrapped__ = build
        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[k] for k, (_, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self, ops: set[int]) -> dict[str, float]:
        """Per-layer totals over the spans and counters of the given ops."""
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _, op), own in zip(self.spans, self.self_times()):
            if op not in ops:
                continue
            layer = name.split(".", 1)[0]
            out[f"{layer}.self_s"] += own
            out[f"{name}_self_s"] += own
            out[f"{name}_s"] += end - start
        for op in ops:
            for name, value in self.counts.get(op, {}).items():
                out[name] += value
        return out

    def per_pass(self, passes) -> dict[str, float]:
        """Mean over passes of each per-pass layer total."""
        totals = [self.layer_metrics({a.op_id for a in done}) for done in passes]
        names = set().union(*totals)
        return {k: statistics.fmean(t.get(k, 0.0) for t in totals) for k in names}

    def write(self, path: str, meta: dict, solves: list[dict]) -> None:
        """Write every span and the given solve records as one JSON document."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({
                "meta": meta,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": self.spans,
                "solves": solves,
            }, fh)
