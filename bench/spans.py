"""In-memory spans for the traced run.

A span is (name, start_ns, end_ns, parent, eval_id, error): `parent` is the
index of the enclosing span (-1 at top level), `eval_id` groups the spans
of one evaluation and `error` is the SphBaryError tag that ended the call,
if any.  Spans are recorded only around the benchmark's own calls into the
package's public functions; nothing is instrumented inside the package.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns

from sphbary.errors import SphBaryError


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, eval_id: str = ""):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, perf_counter_ns(), 0, parent, eval_id, None]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        except SphBaryError as exc:
            record[5] = exc.name
            raise
        finally:
            record[2] = perf_counter_ns()
            self._stack.pop()

    def self_us(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start - c) / 1e3 for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def write(self, path: Path) -> None:
        selfs = self.self_us()
        rows = [
            {"name": n, "start_ns": s, "end_ns": e, "parent": p, "eval_id": i, "error": err, "self_us": su}
            for (n, s, e, p, i, err), su in zip(self.spans, selfs)
        ]
        path.write_text(json.dumps(rows) + "\n")


class NullTracer:
    """The untraced path: same call sites, no recording."""

    def span(self, name: str, eval_id: str = ""):
        return nullcontext()
