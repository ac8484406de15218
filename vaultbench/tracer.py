"""Outside-in span tracer for the traced benchmark run.

Spans are recorded by swapping the module attributes each layer is
called through for a timing wrapper, from the benchmark's side; the
package itself is not edited.  The untraced run never calls install().

A span is [name, start, end, parent, op].  The benchmark drives one
closed-loop client with one request in flight, so spans nest strictly
even across the client thread and the service's handler thread, and a
single stack gives every span its parent.

On a reject nothing but counts and timings is recorded: wrappers never
keep arguments or results, only how many bases a kernel call covered
and the counters a MatchResult already exposes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

NAME, START, END, PARENT, OP = range(5)


def _count_bases(tracer, args, kwargs, result):
    bases = args[3] if len(args) > 3 else kwargs["vault_bases"]
    tracer.add("aligner.match_margins.bases", len(bases))


def _count_match(tracer, args, kwargs, result):
    vault = args[0]
    tracer.add("decoder.bases_tried", result.bases_tried)
    tracer.add("decoder.candidate_sets", result.candidate_sets_evaluated)
    # decode_vault pairs every selected probe minutia (genuine_count of
    # them) with every vault point before the orientation gate.
    tracer.add("aligner.basis_pairs", vault.params.genuine_count * len(vault.points))


def _count_unlock(tracer, args, kwargs, result):
    tracer.add("decoder.accepts", int(result is not None))


@dataclass(frozen=True)
class Layer:
    name: str
    targets: tuple[tuple[str, str], ...]  # (module, attribute) the layer is called through
    count: Callable | None = None


# The layer -> wrap point table from the benchmark's README.
LAYERS = (
    Layer("minutiae.read_template", (("fuzzyvault.client", "read_template"),)),
    Layer("minutiae.select_minutiae",
          (("fuzzyvault.vault", "select_minutiae"), ("fuzzyvault.decoder", "select_minutiae"))),
    Layer("vault.generate_chaff", (("fuzzyvault.vault", "generate_chaff"),)),
    Layer("vault.encode_vault", (("fuzzyvault.client", "encode_vault"),)),
    Layer("gf32.poly_eval", (("fuzzyvault.gf32", "poly_eval"),)),
    Layer("gf32.lagrange_interpolate", (("fuzzyvault.gf32", "lagrange_interpolate"),)),
    Layer("aligner.geometric_table", (("fuzzyvault.decoder", "build_geometric_table"),)),
    Layer("aligner.match_margins", (("fuzzyvault.decoder", "match_margins_many"),), _count_bases),
    Layer("decoder.decode_vault", (("fuzzyvault.client", "decode_vault"),), _count_match),
    Layer("decoder.try_unlock", (("fuzzyvault.decoder", "try_unlock"),), _count_unlock),
    Layer("service.post", (("requests", "post"),)),
    Layer("service.get", (("requests", "get"),)),
    Layer("client.self", (("fuzzyvault.client", "enroll"), ("fuzzyvault.client", "verify"))),
)

STORE_LAYERS = (Layer("store.put", ((None, "put"),)), Layer("store.fetch", ((None, "fetch"),)))

_MISSING = object()


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(int)))
    op_lane: dict = field(default_factory=dict)
    absent: dict = field(default_factory=dict)  # layer -> the names it could not find
    op: int | None = None
    _stack: list = field(default_factory=list)
    _undo: list = field(default_factory=list)

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][END] = time.perf_counter()
        self._stack.pop()

    def add(self, key: str, value: int) -> None:
        self.counts[self.op][key] += value

    def start_op(self, op: int, lane: str) -> int:
        self.op = op
        self.op_lane[op] = lane
        return self.open(f"op.{lane}")

    def end_op(self, sid: int) -> None:
        self.close(sid)
        self.op = None

    def wrap(self, fn: Callable, layer: Layer) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None:  # untimed work between operations
                return fn(*args, **kwargs)
            sid = tracer.open(layer.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if layer.count is not None:
                layer.count(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, layers=LAYERS, store=None) -> None:
        """Wrap every target that exists; a layer none of whose names exist is absent."""
        for layer in tuple(layers) + (STORE_LAYERS if store is not None else ()):
            missing = []
            for module_name, attr in layer.targets:
                owner = store if module_name is None else _import(module_name)
                original = _MISSING if owner is None else getattr(owner, attr, _MISSING)
                if original is _MISSING:
                    missing.append(f"{module_name or 'store'}.{attr}")
                    continue
                own = attr in vars(owner)
                setattr(owner, attr, self.wrap(original, layer))
                self._undo.append((owner, attr, original if own else _MISSING))
            if len(missing) == len(layer.targets):
                self.absent[layer.name] = missing

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)  # the instance falls back to its class method
            else:
                setattr(owner, attr, original)


def _import(name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sid, span in enumerate(spans):
        if span[PARENT] is not None:
            children[span[PARENT]].append(sid)
    out = []
    for sid, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for c in sorted(children[sid], key=lambda c: spans[c][START]):
            lo, hi = max(spans[c][START], reach), min(spans[c][END], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


@dataclass(frozen=True)
class LayerStats:
    ops: int  # operations of the lane
    op_ms: float  # traced wall time per operation
    ms: dict  # layer -> self ms per operation
    calls: dict  # layer -> calls per operation
    counts: dict  # counter -> total over the lane's operations


def layer_stats(tracer: Tracer, lanes=None) -> LayerStats:
    """Per-operation self time and call counts over the given lanes (all by default)."""
    ops = {op for op, lane in tracer.op_lane.items() if lanes is None or lane in lanes}
    if not ops:
        raise ValueError("no traced operations")
    selfs = self_times(tracer.spans)
    ms = defaultdict(float)
    calls = defaultdict(int)
    op_total = 0.0
    for span, own in zip(tracer.spans, selfs):
        if span[OP] not in ops:
            continue
        name = span[NAME]
        if name.startswith("op."):
            op_total += span[END] - span[START]
            name = "bench.self"
        ms[name] += own * 1000.0
        calls[name] += 1
    counts = defaultdict(int)
    for op in ops:
        for key, value in tracer.counts.get(op, {}).items():
            counts[key] += value
    n = len(ops)
    return LayerStats(
        ops=n,
        op_ms=op_total * 1000.0 / n,
        ms={k: v / n for k, v in ms.items()},
        calls={k: v / n for k, v in calls.items()},
        counts=dict(counts),
    )
