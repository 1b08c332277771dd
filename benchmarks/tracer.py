"""Spans around the public functions of avcil's modules, from outside the package.

`instrument(tracer)` replaces each wrapped function, in every avcil module
namespace that holds it, with a timing wrapper, and returns a callable that
restores the originals. Nothing under `src/` changes.

Each span records its name, its duration, the time its child spans covered,
and the span that called it. Spans are aggregated as they close, so a run
keeps per-name totals and per-(parent, child) call counts in memory rather
than one record per call. A span's self time is its duration minus the time
of its child spans.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# The tracer's own work (graph walks) is recorded under this name and left
# out of every layer's time.
OWN_SPAN = "trace.count_nodes"


class Tracer:
    def __init__(self):
        self._stack: List[list] = []           # open spans: [name, child seconds]
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.edges: Counter = Counter()        # (parent name, child name) -> calls
        self.counts: Counter = Counter()       # counters with no time attached

    def open_names(self) -> Tuple[str, ...]:
        return tuple(frame[0] for frame in self._stack)

    def run(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.total[name] += dt
            self.self_time[name] += dt - frame[1]
            self.calls[name] += 1
            self.edges[(parent, name)] += 1
            if self._stack:
                self._stack[-1][1] += dt

    def wrap(self, name, fn: Callable, before: Optional[Callable] = None) -> Callable:
        """`name` is a span name or a function of the call's args giving one;
        `before(args)` runs ahead of the span, outside its time."""
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            span = name(args) if callable(name) else name
            return tracer.run(span, fn, args, kwargs)

        return traced

    def layer_self_times(self) -> Dict[str, float]:
        """Self seconds per layer, the layer being the span name's prefix."""
        out: Dict[str, float] = defaultdict(float)
        for name, secs in self.self_time.items():
            if name != OWN_SPAN:
                out[name.split(".", 1)[0]] += secs
        return dict(out)


class _Patches:
    """Records every replaced binding so all of them can be put back."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def function(self, owner, attr: str, wrapper_for: Callable[[Callable], Callable]):
        """Replace `owner.attr` and every other avcil-module binding of the same object."""
        original = getattr(owner, attr)
        wrapper = wrapper_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "avcil" or mod_name.startswith("avcil.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        if getattr(owner, attr) is not wrapper:        # a class attribute
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


class _ShortfallCounter(logging.Handler):
    """Counts the replay-memory shortfall warnings of `avcil.protocol`."""

    def __init__(self, tracer: Tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        if "candidates for a quota" in record.msg:
            self.tracer.counts["protocol.memory_shortfall_classes"] += 1


def count_graph_nodes(loss) -> int:
    """Tracked (gradient-carrying) nodes reachable from `loss`."""
    seen = set()
    tracked = 0
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        tracked += node.requires_grad
        stack.extend(node._parents)
    return tracked


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap avcil's public layer functions; returns the function that unwraps them."""
    import avcil.baselines as baselines
    import avcil.datasets as datasets
    import avcil.diffmath as dm
    import avcil.harness as harness
    import avcil.metrics as metrics
    import avcil.model as model
    import avcil.objectives as objectives
    import avcil.protocol as protocol

    patches = _Patches()

    def span(owner, attr, name, before=None):
        patches.function(owner, attr, lambda fn: tracer.wrap(name, fn, before))

    # diffmath: backward, the optimizer, and the forward primitives
    def before_backward(args):
        nodes = tracer.run(OWN_SPAN, count_graph_nodes, args, {})
        tracer.counts["diffmath.graph_nodes"] += nodes

    span(dm, "backward", "diffmath.backward", before_backward)
    span(dm, "adam_step", "diffmath.adam_step")
    for op in ("matmul", "tanh", "softmax", "kl_rows", "take", "slice_axis", "exp", "log"):
        span(dm, op, f"diffmath.{op}")

    # model: one forward function, told apart by caller and by whether the
    # parameters train (student) or are frozen (teacher)
    def forward_kind(args):
        if "metrics.evaluate" in tracer.open_names():
            return "model.eval_forward"
        return "model.forward" if args[0].w_audio.requires_grad else "model.teacher_forward"

    span(model, "forward", forward_kind)

    # objectives and baselines: the strategy composer and the loss terms
    for term in ("ss_ce", "tkd", "i_avss", "c_avss", "vad"):
        span(objectives, term, f"objectives.{term}")

    def traced_get_strategy(fn):
        def get_strategy(tag):
            strategy = fn(tag)
            return dataclasses.replace(
                strategy, compose=tracer.wrap("objectives.compose", strategy.compose))
        return get_strategy

    patches.function(baselines, "get_strategy", traced_get_strategy)

    # protocol
    span(protocol, "run_incremental", "protocol.run_incremental")
    span(protocol, "train_step", "protocol.train_step")
    span(protocol, "update_memory", "protocol.update_memory")

    # datasets
    span(datasets, "generate_synthetic", "datasets.generate")
    span(datasets, "load_dataset", "datasets.load")
    span(datasets.FeatureDataset, "of_class", "datasets.of_class")

    # metrics
    def before_evaluate(args):
        tracer.counts["metrics.eval_samples"] += len(args[1])

    span(metrics, "evaluate", "metrics.evaluate", before_evaluate)
    span(metrics, "nme_classify", "metrics.nme")

    # harness: jobs and result writing
    span(harness, "run_one_seed", "harness.run_one_seed")
    span(harness, "write_json", "harness.write")
    span(harness, "write_run_log", "harness.write")

    def before_write(args):
        tracer.counts["harness.bytes_written"] += len(args[1])

    span(harness, "write_atomic", "harness.write_atomic", before_write)

    log = logging.getLogger("avcil.protocol")
    handler = _ShortfallCounter(tracer)
    log.addHandler(handler)

    def undo():
        log.removeHandler(handler)
        patches.restore()

    return undo
