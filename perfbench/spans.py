"""In-memory spans around the program's layer boundaries.

:func:`instrument` wraps public entry points of each layer for the
duration of one traced pass and restores the originals afterwards, so
untraced passes run the program untouched.  Every span records its name,
start, end, parent and run id; spans stay in memory until the pass ends.
A layer's self time is its spans' durations minus their children's.

A hook whose target no longer exists is skipped and listed in
``Recorder.missing``: that layer then reads as zero instead of breaking
the benchmark.
"""

from __future__ import annotations

import json
import pathlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

clock = time.perf_counter

#: Span name -> the layer its self time is charged to.
LAYER_OF = {
    "graphs": "graphs",
    "local": "local",
    "referee": "referee",
    "global": "global",
    "campaign": "engine",
    "run": "engine",
    "persist": "persist",
    "results.load": "results",
    "results.aggregate": "results",
}
LAYERS = ("graphs", "local", "referee", "global", "engine", "persist", "results")

_MISSING = object()


class Recorder:
    """Spans of one traced pass: ``[name, start, end, parent, run]`` rows."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run: int | None = None
        self._runs = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.run])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def timed(self, name: str, fn, on_result=None, new_run: bool = False):
        """``fn`` wrapped in a ``name`` span; exceptions count as errors."""

        def wrapper(*args, **kwargs):
            outer_run = self.run
            if new_run:
                self._runs += 1
                self.run = self._runs
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index)
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                self.run = outer_run
            self.close(index)
            if on_result is not None:
                on_result(result)
            return result

        wrapper._perfbench_span = name
        return wrapper

    def count(self, name: str) -> int:
        return sum(1 for row in self.spans if row[0] == name)

    def duration(self, name: str) -> float:
        return sum(row[2] - row[1] for row in self.spans if row[0] == name)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self time per layer, grouped by the root span each one sits under.

        Root spans are the benchmark's ``step.*`` spans; the self time of
        a root itself (benchmark glue plus unhooked program code) is
        charged to ``other``.
        """
        children = [0.0] * len(self.spans)
        roots = [0] * len(self.spans)
        for i, (_name, start, end, parent, _run) in enumerate(self.spans):
            if parent >= 0:
                children[parent] += end - start
                roots[i] = roots[parent]
            else:
                roots[i] = i
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            root = self.spans[roots[i]][0]
            out[root][LAYER_OF.get(name, "other")] += end - start - children[i]
        return out

    def dump(self, path: pathlib.Path) -> None:
        with path.open("w") as fh:
            for row in self.spans:
                fh.write(json.dumps(row) + "\n")


class _Patches:
    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        current = getattr(owner, attr, None)
        if current is None:
            self.recorder.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if getattr(current, "_perfbench_span", None):
            return  # inherited from a class wrapped earlier this pass
        self.saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, make(current))

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self.saved.clear()


@contextmanager
def instrument(rec: Recorder):
    """Hook every layer boundary into ``rec`` for the body of the block."""
    import repro.engine.campaign as campaign
    import repro.engine.scenario as scenario
    import repro.engine.shard as shard
    import repro.model.referee as referee

    patches = _Patches(rec)

    def on_graph(g) -> None:
        rec.counts["graphs.edges"] += g.m

    def on_message(msg) -> None:
        rec.counts["local.bits"] += msg.bits

    def on_protocol(protocol) -> None:
        cls = type(protocol)
        patches.wrap(cls, "local", lambda fn: rec.timed("local", fn, on_message))
        patches.wrap(cls, "global_", lambda fn: rec.timed("global", fn))

    def on_write(_result) -> None:
        rec.counts["persist.records"] += 1

    def passthrough(name, on_result=None, new_run=False):
        return lambda fn: rec.timed(name, fn, on_result, new_run)

    try:
        patches.wrap(scenario.RunSpec, "build_graph", passthrough("graphs", on_graph))
        # Protocol classes are hooked on first construction, whatever they are.
        patches.wrap(scenario.RunSpec, "build_protocol",
                     lambda fn: _after(fn, on_protocol))
        patches.wrap(referee.Referee, "run", passthrough("referee"))
        patches.wrap(campaign, "execute_run", passthrough("run", new_run=True))
        patches.wrap(campaign.Campaign, "run", passthrough("campaign"))
        for owner, attr in (
            (shard.JsonlStreamWriter, "__init__"),
            (shard.JsonlStreamWriter, "close"),
            (shard.ShardManifest, "write"),
            (campaign, "atomic_write_json"),
            (campaign, "atomic_write_jsonl"),
            (campaign.Campaign, "_cache_store"),
            (campaign.Campaign, "_cache_load"),
        ):
            patches.wrap(owner, attr, passthrough("persist"))
        patches.wrap(shard.JsonlStreamWriter, "write", passthrough("persist", on_write))
        yield rec
    finally:
        patches.restore()


def _after(fn, hook):
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    return wrapper
