"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: for a traced run it rebinds the
names that `harness`, `service` and `protocol` look up at call time to
timing wrappers, and puts the originals back afterwards.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, NamedTuple

from benchlib import self_time

_clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes of one host


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top
    step: int    # control step (device) or request ordinal (service)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from one thread of calls; `step` is the shared id."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.sizes: dict[str, list[int]] = {}
        self.step = 0
        self.step_marks: list[float] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, t0: float, t1: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = Span(name, t0, t1, parent, self.step)

    def wrap(self, name: str, fn: Callable, size_of_result: bool = False) -> Callable:
        def traced(*args, **kwargs):
            idx = self._open()
            t0 = _clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, name, t0, _clock())
            if size_of_result:
                self.sizes.setdefault(name, []).append(len(out))
            return out

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner: object, attr: str, name: str, size_of_result: bool = False) -> None:
        """Rebind owner.attr to a traced wrapper until restore()."""
        orig = getattr(owner, attr)
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, self.wrap(name, orig, size_of_result))

    def patch_parse(self, protocol, requests_are_steps: bool = False) -> None:
        """Trace protocol.parse_counted_ciphertexts as parse_request or parse_response.

        One function parses both directions; the expected ciphertext count
        tells them apart. With `requests_are_steps` (the service side, which
        cannot see the control step) each request parsed opens the next step.
        """
        orig = protocol.parse_counted_ciphertexts
        req = self.wrap("protocol.parse_request", orig)
        resp = self.wrap("protocol.parse_response", orig)

        def parse(payload, expected):
            if expected == protocol.REQUEST_COUNT:
                if requests_are_steps:
                    self.step += 1
                return req(payload, expected)
            return resp(payload, expected)

        self._undo.append((protocol, "parse_counted_ciphertexts", orig))
        protocol.parse_counted_ciphertexts = parse

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        t0 = _clock()
        try:
            yield idx
        finally:
            self._close(idx, name, t0, _clock())

    def on_step(self, k: int, _controller) -> None:
        """run_closed_loop's per-step hook: closes step k, opens step k + 1."""
        self.step_marks.append(_clock())
        self.step = k + 1


class NullTracer:
    """Stand-in for untraced runs: spans cost one context manager."""

    @contextmanager
    def span(self, name: str):
        yield -1


def step_self_times(spans: list[Span], marks: list[float], parent: int) -> list[float]:
    """Per-step self time of the loop: each interval between two step marks
    minus the spans directly under `parent` that lie inside it.

    The first step is skipped; its interval would include the warm-up.
    """
    top = sorted((s.start, s.end) for s in spans if s.parent == parent)
    out = []
    i = 0
    for a, b in zip(marks, marks[1:]):
        while i < len(top) and top[i][0] < a:
            i += 1
        j = i
        while j < len(top) and top[j][1] <= b:
            j += 1
        out.append(self_time(a, b, top[i:j]))
        i = j
    return out
