"""Span recording around calls into the pairrank modules.

The benchmark traces the program from the outside: it replaces the public
functions of each layer module (and two ``SimulatedElectorate`` methods)
with wrappers that record one span per call. Nothing inside ``src/``
changes. A span is ``(name, parent, unit, start, end, counts)``; spans of
one unit of benchmark work share the unit id, and ``parent`` is the index
of the span that was open when the call started (-1 for none). Calls are
synchronous on one thread, so child spans never overlap and a span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("metrics", "protocol", "voters", "experiment")
# Methods are not module attributes, so they are listed by hand.
METHODS = {"voters": ("SimulatedElectorate.vote_batch", "SimulatedElectorate.__init__")}


def _n_pairs(args):
    n = len(args[0])
    return n * (n - 1) // 2


def _dense_bytes(args):
    # kendall and weighted_kendall each build five N x N float64 arrays per
    # call: two differences, two sign matrices and their product. Computed
    # from N, not measured.
    n = len(args[0])
    return 5 * 8 * n * n


def _bytes_written(args, kwargs, result):
    return sum(p.stat().st_size for p in result.iterdir() if p.is_file())


# Work counts taken at span boundaries: function name -> (args, kwargs, result) -> {count: value}.
COUNTERS = {
    "SimulatedElectorate.vote_batch": lambda a, k, r: {"votes": len(r)},
    "generate_ballot_pairs": lambda a, k, r: {"comparisons": len(r.pairs), "items_scored": len(r.items)},
    "generate_uniform_plan": lambda a, k, r: {"comparisons": len(r.pairs), "items_scored": len(r.items)},
    "run_protocol": lambda a, k, r: {"ballots": len(r.ballots)},
    "kendall": lambda a, k, r: {"rank_pairs": _n_pairs(a), "dense_bytes": _dense_bytes(a)},
    "weighted_kendall": lambda a, k, r: {"rank_pairs": _n_pairs(a), "dense_bytes": _dense_bytes(a)},
    "write_outputs": lambda a, k, r: {"bytes_written": _bytes_written(a, k, r)},
    "run_experiment": lambda a, k, r: {
        "tables_retained": sum(rep.table is not None for rep in r.replicates)
    },
}


class Tracer:
    """Records spans while ``active``; wrappers stay installed between units."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.active = False
        self.unit = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, parent, self.unit, start, end, None)
            if counter is not None:
                self.spans[index] = self.spans[index][:5] + (counter(args, kwargs, result),)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every public function of the layer modules, wherever it is bound."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for name in module.__all__:
                original = getattr(module, name)
                if not inspect.isfunction(original):
                    continue
                wrapper = self.wrap(name, original)
                for holder in modules:
                    if getattr(holder, name, None) is original:
                        self._restore.append((holder, name, original))
                        setattr(holder, name, wrapper)
            for qualified in METHODS.get(layer, ()):
                cls_name, method = qualified.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self.wrap(qualified, original))

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()


class SpanStats:
    """Per-name totals over a list of finished spans."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for name, parent, _, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.spans = spans
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        for index, (name, parent, _, start, end, counts) in enumerate(spans):
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[index]
            self.calls[name] += 1
            for key, value in (counts or {}).items():
                self.counts[key] += value

    def group_time(self, names) -> float:
        """Time inside any of ``names``, counting a span nested in another of them once."""
        names = set(names)
        total = 0.0
        for name, parent, _, start, end, _ in self.spans:
            if name not in names:
                continue
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] not in names:
                ancestor = self.spans[ancestor][1]
            if ancestor < 0:
                total += end - start
        return total

    def children_time(self, parent_name: str, child_name: str) -> float:
        """Total duration of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        return sum(
            end - start
            for name, parent, _, start, end, _ in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )
