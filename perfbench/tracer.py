"""In-memory tracing of calls into parkhanoi's layers, from outside the package.

``Tracer.install`` replaces every public function of the layer modules,
in every module namespace that holds it, with a wrapper, and wraps the
constructors of ``PreferenceVector`` and ``HanoiState``.  No file of the
package changes; the wrappers live only in the tracing process.

Every wrapped call pushes a frame.  When it returns, its duration goes
to the name's inclusive time, the duration minus its children's goes to
the name's self time, and the whole duration counts as child time of
the enclosing frame.  So the self times of all frames add up exactly to
the time covered by the outermost frames.

Calls that return an iterator are followed into the iterator: each
``next`` runs in a frame of the same name, so a lazy enumerator's work
lands on it rather than on its consumer.

Names in ``AGGREGATED`` run per item (millions of times in a scan); they
keep counts and times only, as do iterator steps.  Every other call is
also kept as a span (id, parent id, name, start, end) and written out by
``dump_spans``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from collections.abc import Iterator

LAYERS = ("parking", "enumeration", "hanoi", "bijection", "cli")
TRACED_CLASSES = {"parking": ("PreferenceVector",), "hanoi": ("HanoiState",)}
AGGREGATED = frozenset(
    {
        "parking.PreferenceVector",
        "parking.as_preference_vector",
        "parking.park",
        "parking.is_parking_function",
        "parking.displacement",
        "parking.displacement_one_violation",
        "parking.is_displacement_one_characterized",
        "parking.doubled_preference",
        "hanoi.HanoiState",
        "hanoi.as_state",
        "hanoi.legal_moves",
        "hanoi.apply_move",
        "hanoi.is_ideal_state",
        "hanoi.ideal_witness",
        "bijection.th_to_pf",
        "bijection.pf_to_th",
        "bijection.make_record",
        "cli.render_state",
    }
)
MAX_SPANS = 200_000


class Stat:
    __slots__ = ("calls", "incl", "self", "first_item", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.first_item = 0.0
        self.items = 0


class Tracer:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list] = []  # [name, start, child_time, span_id]
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        self.top_level = 0.0
        self._next_id = 1

    # --- frames ---------------------------------------------------------------

    def _enter(self, name: str, span: bool = True) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        self.edges[(parent[0] if parent else "", name)] += 1
        frame = [name, 0.0, 0.0, 0]
        if span and name not in AGGREGATED:
            frame[3] = self._next_id
            self._next_id += 1
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def _exit(self, frame: list) -> float:
        end = self.clock()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        stat = self.stats[name]
        stat.incl += duration
        stat.self += duration - child
        if stack:
            stack[-1][2] += duration
        else:
            self.top_level += duration
        if span_id:
            if len(self.spans) < MAX_SPANS:
                parent_id = next((f[3] for f in reversed(stack) if f[3]), 0)
                self.spans.append((span_id, parent_id, name, start, end))
            else:
                self.spans_dropped += 1
        return duration

    # --- wrappers ---------------------------------------------------------------

    def _wrap_function(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            tracer.stats[name].calls += 1
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = tracer._exit(frame)
            if isinstance(result, Iterator):
                return _TracedIterator(tracer, name, result, duration)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_init(self, name: str, init):
        tracer = self

        def traced_init(obj, *args, **kwargs):
            tracer.stats[name].calls += 1
            frame = tracer._enter(name)
            try:
                init(obj, *args, **kwargs)
            finally:
                tracer._exit(frame)

        traced_init.__wrapped__ = init
        return traced_init

    def install(self, package: str = "parkhanoi") -> None:
        """Wrap the public functions and traced constructors of every layer."""
        modules = [sys.modules[package]] + [sys.modules[f"{package}.{m}"] for m in LAYERS]
        replacements = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    replacements[id(value)] = self._wrap_function(f"{layer}.{attr}", value)
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name)
                cls.__init__ = self._wrap_init(f"{layer}.{cls_name}", cls.__init__)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, attr, replacements[id(value)])

    # --- results ----------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, stat in self.stats.items():
            totals[name.split(".", 1)[0]] += stat.self
        return totals

    def dump_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "parent", "name", "start_s", "end_s"],
                    "dropped": self.spans_dropped,
                    "spans": self.spans,
                },
                fh,
            )


class _TracedIterator:
    """Runs each ``next`` of a returned iterator inside a frame of its function."""

    __slots__ = ("tracer", "name", "it", "first_pending", "call_time")

    def __init__(self, tracer: Tracer, name: str, it: Iterator, call_time: float) -> None:
        self.tracer = tracer
        self.name = name
        self.it = it
        self.first_pending = True
        self.call_time = call_time

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self.tracer
        frame = tracer._enter(self.name, span=False)
        try:
            item = next(self.it)
        finally:
            duration = tracer._exit(frame)
            if self.first_pending:
                self.first_pending = False
                tracer.stats[self.name].first_item += self.call_time + duration
        tracer.stats[self.name].items += 1
        return item
