"""Run one hyperspec CLI invocation with a timing span around every layer call.

Usage: python bench/traced.py SPANS.npz -- <hyperspec arguments>

The package is left untouched: after importing it, this script replaces each
public function of the measured modules, under every name any of those
modules holds it by, with a wrapper that records a span, then calls
``hyperspec.cli.main``.  Spans (name, start, end, parent, last descendant
and a work count) stay in memory and are written to SPANS.npz on exit.
Standard output is the CLI's own, byte for byte.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

STARTED = time.perf_counter()
import hyperspec.cli  # noqa: E402  (the import is what cli.startup_s times)

IMPORTED = time.perf_counter()

import numpy as np  # noqa: E402

# the production path; ``oracle`` is a test-only cross-check and is not measured
LAYERS = ("hypergraph", "tensor_ops", "eigen", "connectivity", "report", "cli")

# per-call helpers no metric needs; spans around them would only inflate their callers
UNTRACED = {
    "tensor_ops.as_vector",
    "tensor_ops.elementwise_power",
    "eigen.normalize_eigenvector",
    "eigen.make_check",
    "report.format_float",
}


def _apply_entries(args, kwargs, result) -> float:
    h = args[1] if len(args) > 1 else kwargs["h"]
    return float(h.m * h.k)


def _power_iterations(args, kwargs, result) -> float:
    return float(sum(c.iterations for c in result.components))


# extra per-span work counts, read from a call's arguments or its result
WORK = {
    "tensor_ops.apply": _apply_entries,
    "eigen.spectral_radius": _power_iterations,
}


class Recorder:
    """Spans in flat arrays; a span's index is its entry order, so parents precede children."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.last = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.stack: list[int] = []
        self.open: set[int] = set()

    def wrap(self, label: str, fn):
        label_id = len(self.labels)
        self.labels.append(label)
        work = WORK.get(label)
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if label_id in rec.open:  # recursion: only the outermost call is a span
                return fn(*args, **kwargs)
            i = len(rec.start)
            rec.name.append(label_id)
            rec.parent.append(rec.stack[-1] if rec.stack else -1)
            rec.last.append(i)
            rec.work.append(0.0)
            rec.end.append(0.0)
            rec.stack.append(i)
            rec.open.add(label_id)
            rec.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end[i] = time.perf_counter()
                rec.last[i] = len(rec.start) - 1
                rec.stack.pop()
                rec.open.discard(label_id)
            if work is not None:
                rec.work[i] = work(args, kwargs, result)
            return result

        return traced

    def save(self, path: str) -> None:
        np.savez(
            path,
            labels=np.array(self.labels, dtype=str),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            last=np.frombuffer(self.last, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            work=np.frombuffer(self.work, dtype=np.float64),
            startup_s=IMPORTED - STARTED,
        )


def install(rec: Recorder) -> None:
    modules = {layer: sys.modules[f"hyperspec.{layer}"] for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            label = f"{layer}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and label not in UNTRACED
            ):
                wrapped[obj] = rec.wrap(label, obj)
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    graph_cls = modules["hypergraph"].Hypergraph
    from_edges = graph_cls.__dict__["from_edges"].__func__
    graph_cls.from_edges = classmethod(rec.wrap("hypergraph.from_edges", from_edges))


def main() -> int:
    spans_path, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS.npz -- <hyperspec arguments>")
    rec = Recorder()
    install(rec)
    try:
        return hyperspec.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main())
