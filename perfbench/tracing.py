"""Spans around the public callables of xbarprune, kept in memory.

The traced run replaces each callable where its caller looks it up (for
example ``mapping.CrossbarSystem``, because ``mapping`` imports the class
by name, and ``circuit.splu``, which separates factorization from
assembly). Every call records a span with its name, start, end and
parent; per-module metrics are derived from the spans afterwards. Nothing
in the package itself is edited.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from xbarprune import circuit, mapping, nn, pruning


@dataclass
class Span:
    name: str
    parent: int                 # index of the enclosing span, -1 at a root
    start: float = 0.0
    end: float = 0.0
    work: float | None = None   # samples, tiles or LU non-zeros, by span name

    @property
    def duration(self) -> float:
        return self.end - self.start


def _train_samples(args, kwargs, result):
    return len(args[1]) * args[2].epochs


def _wct_samples(args, kwargs, result):
    return len(args[1]) * (args[2].wct or nn.WctConfig()).epochs


def _eval_samples(args, kwargs, result):
    return len(args[1])


def _tiles(args, kwargs, result):
    return len(result.record.tile_placements)


def _lu_nnz(args, kwargs, lu):
    return lu.L.nnz + lu.U.nnz


# (owner, attribute, span name, work counter)
TARGETS = (
    (nn, "train", "nn.train", _train_samples),
    (nn, "wct_train", "nn.wct", _wct_samples),
    (nn, "evaluate", "nn.evaluate", _eval_samples),
    (pruning, "gen_mask_cf", "pruning.mask", None),
    (pruning, "gen_mask_xcs", "pruning.mask", None),
    (pruning, "gen_mask_xrs", "pruning.mask", None),
    (pruning, "cf_compaction", "pruning.compact", None),
    (pruning, "compact_xcs", "pruning.compact", None),
    (pruning, "compact_xrs", "pruning.compact", None),
    (mapping, "simulate_layer", "mapping.simulate", _tiles),
    (mapping, "layer_nf", "mapping.layer_nf", None),
    (mapping, "weights_to_conductances", "mapping.encode", None),
    (mapping, "conductances_to_weights", "mapping.decode", None),
    (mapping, "recombine", "mapping.recombine", None),
    (mapping, "rearrange_columns", "mapping.rearrange", None),
    (mapping, "apply_device_variation", "circuit.variation", None),
    (mapping, "CrossbarSystem", "circuit.build", None),
    (circuit.CrossbarSystem, "effective_conductance", "circuit.geff", None),
    (circuit.CrossbarSystem, "solve", "circuit.solve", None),
    (circuit, "splu", "circuit.factorize", _lu_nnz),
)


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(name, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result
        return traced

    @contextmanager
    def patched(self):
        saved = []
        try:
            for owner, attr, name, work in TARGETS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, work))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


@contextmanager
def phase(tracer: Tracer | None, name: str):
    """A root span with every target wrapped, or nothing when untraced."""
    if tracer is None:
        yield
        return
    with tracer.patched(), tracer.span(name):
        yield


# ------------------------------------------------------------- summaries

# metric -> (span name, prefix of direct children whose time is excluded)
PER_CALL_MS = {
    "circuit.build_ms": ("circuit.build", None),
    "circuit.assemble_ms": ("circuit.build", "circuit.factorize"),
    "circuit.factorize_ms": ("circuit.factorize", None),
    "circuit.geff_ms": ("circuit.geff", None),
    "circuit.solve_ms": ("circuit.solve", None),
    "circuit.variation_ms": ("circuit.variation", None),
}
PER_PASS_S = {
    "mapping.simulate_s": ("mapping.simulate", None),
    "mapping.self_s": ("mapping.simulate", "circuit."),
    "mapping.encode_s": ("mapping.encode", None),
    "mapping.decode_s": ("mapping.decode", None),
    "mapping.recombine_s": ("mapping.recombine", None),
    "mapping.rearrange_s": ("mapping.rearrange", None),
    "mapping.layer_nf_s": ("mapping.layer_nf", None),
    "nn.train_s": ("nn.train", None),
    "nn.wct_s": ("nn.wct", None),
    "nn.evaluate_s": ("nn.evaluate", None),
}
PER_SETUP_S = {
    "pruning.mask_s": ("pruning.mask", None),
    "pruning.compact_s": ("pruning.compact", None),
}
PER_PASS_CALLS = {
    "circuit.systems_built": "circuit.build",
    "circuit.solves": "circuit.solve",
    "circuit.geff_calls": "circuit.geff",
}
SAMPLE_RATES = {
    "nn.train_samples_per_s": "nn.train",
    "nn.eval_samples_per_s": "nn.evaluate",
}


def tail_percentile(values) -> tuple[str, float]:
    """Highest whole percentile with at least ten samples above it, or the
    maximum when there are too few samples for one."""
    x = np.sort(np.asarray(values, dtype=float))
    for p in range(99, 0, -1):
        v = float(np.percentile(x, p))
        if np.count_nonzero(x > v) >= 10:
            return f"p{p}", v
    return "max", float(x[-1])


class SpanTree:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.root = []
        self.children: list[list[int]] = [[] for _ in spans]
        for i, s in enumerate(spans):   # parents precede their children
            self.root.append(i if s.parent < 0 else self.root[s.parent])
            if s.parent >= 0:
                self.children[s.parent].append(i)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent < 0 and s.name == name]

    def named(self, name: str, roots: list[int]) -> list[int]:
        keep = set(roots)
        return [i for i, s in enumerate(self.spans)
                if s.name == name and self.root[i] in keep]

    def exclusive(self, i: int, prefix: str | None) -> float:
        """Duration minus the direct children whose name starts with prefix."""
        t = self.spans[i].duration
        if prefix is not None:
            t -= sum(self.spans[c].duration for c in self.children[i]
                     if self.spans[c].name.startswith(prefix))
        return t

    def per_root_total(self, name: str, prefix: str | None, roots: list[int]) -> float:
        """Median over the given roots of the summed span time under each."""
        totals = {r: 0.0 for r in roots}
        for i in self.named(name, roots):
            totals[self.root[i]] += self.exclusive(i, prefix)
        return statistics.median(totals.values())


def summarize(spans: list[Span], expected: set[str]):
    """Per-module metrics from the spans under the "pass" and "setup"
    roots. A metric whose stage is in ``expected`` but recorded no span is
    None and its stage is listed as missing; a stage the workload does not
    call reads 0. Returns (metrics, tail labels, missing stages)."""
    tree = SpanTree(spans)
    passes, setups = tree.roots("pass"), tree.roots("setup")
    measured = set(passes) | set(setups)
    seen = {s.name for i, s in enumerate(spans) if tree.root[i] in measured}
    missing = sorted(expected - seen)
    gone = set(missing)
    metrics: dict[str, float | None] = {}
    tails: dict[str, str] = {}

    for metric, (name, prefix) in PER_CALL_MS.items():
        ms = [tree.exclusive(i, prefix) * 1e3 for i in tree.named(name, passes)]
        if name in gone:
            p50 = tail = None
        elif ms:
            p50 = statistics.median(ms)
            tails[metric], tail = tail_percentile(ms)
        else:
            p50 = tail = 0.0
        metrics[f"{metric}.p50"] = p50
        metrics[f"{metric}.tail"] = tail
        metrics[f"{metric}.count"] = None if name in gone else len(ms)

    for table, roots in ((PER_PASS_S, passes), (PER_SETUP_S, setups)):
        for metric, (name, prefix) in table.items():
            metrics[metric] = (None if name in gone
                               else tree.per_root_total(name, prefix, roots))

    for metric, name in PER_PASS_CALLS.items():
        metrics[metric] = (None if name in gone
                           else len(tree.named(name, passes)) / len(passes))

    factorized = [spans[i].work for i in tree.named("circuit.factorize", passes)]
    metrics["circuit.lu_nnz"] = (None if "circuit.factorize" in gone
                                 else statistics.median(factorized) if factorized else 0)

    simulated = tree.named("mapping.simulate", passes)
    tiles = sum(spans[i].work for i in simulated)
    solves = sum(1 for i in simulated for c in tree.children[i]
                 if spans[c].name == "circuit.solve")
    metrics["circuit.solves_per_tile"] = (None if "mapping.simulate" in gone
                                          else solves / tiles if tiles else 0.0)

    for metric, name in SAMPLE_RATES.items():
        done = tree.named(name, passes)
        busy = sum(spans[i].duration for i in done)
        metrics[metric] = (None if name in gone
                           else sum(spans[i].work for i in done) / busy if busy else 0.0)
    return metrics, tails, missing
