"""In-memory span recorder for the benchmark's traced runs.

Spans are taken only in the benchmark's own files, around the calls it makes
into ``neckslime``; the package itself is never patched.  Every span records
its name, start, end and parent; spans below one root share that root's id
as their request id.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NO_SPAN = nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {
            "id": len(self.spans),
            "parent": None if parent is None else parent["id"],
            "request": len(self.spans) if parent is None else parent["request"],
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": self.spans}) + "\n")


def span_or_nothing(tracer: Tracer | None, name: str, **attrs):
    """A span under ``tracer``, or a shared no-op context when untraced."""
    return _NO_SPAN if tracer is None else tracer.span(name, **attrs)
