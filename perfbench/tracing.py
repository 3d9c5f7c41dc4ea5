"""In-memory spans around the benchmark's calls into hypermachine layers.

A span is (name, start, end, parent, op): ``name`` is ``<module>.<function>``
for a layer call or ``op`` for one benchmark operation, ``parent`` the index of
the enclosing span (-1 for none) and ``op`` the id of the operation the span
belongs to.  Spans are kept in a list and written out when the run ends.
Counts (steps, rows, bytes, ...) are added by the caller next to the span
that produced them, so ratios are taken where the work happens.

``NullTracer`` has the same interface and records nothing; the untimed
``--trace 0`` runs use it, so their only cost is one extra call frame.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class NullTracer:
    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id):
        pass

    def end_op(self):
        pass

    def add(self, key, value):
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, perf_counter(), 0.0, parent, self.op_id))
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent, op = self.spans[index]
        self.spans[index] = (name, start, perf_counter(), parent, op)

    def call(self, name, fn, *args):
        index = self._open(name)
        try:
            return fn(*args)
        except Exception:
            self.counts[name + ".errors"] += 1
            raise
        finally:
            self._close(index)

    def begin_op(self, op_id) -> None:
        self.op_id = op_id
        self._open("op")

    def end_op(self) -> None:
        self._close(self._stack[-1])
        self.op_id = -1

    def add(self, key: str, value: float) -> None:
        self.counts[key] += value

    def summary(self) -> dict[str, float]:
        """Per function: calls and busy seconds; per module: self seconds.

        Self time is a span's duration minus the time its direct children
        cover; children run inside their parent, one at a time.
        """
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name + ".calls"] += 1
            out[name + ".busy_s"] += end - start
            module = name.split(".", 1)[0]
            out[module + ".self_s"] += end - start - child_time[index]
        for key, value in self.counts.items():
            out[key] += value
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
