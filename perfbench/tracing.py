"""In-memory span tracing installed from outside the program.

The benchmark wraps public functions at the points where one layer of
agribench calls another, in the namespace the caller imported them into
(``agribench.cli.load_dataset``, ``agribench.evaluate.train``, ...). Each
call then records a span: name, start, end, parent span and the run id.
Spans stay in memory and are written out once, when the run ends.

Per-sample hot functions (``hourly_temp``, ``compute_index``,
``time_fraction``) are never wrapped: a span costs about a microsecond,
which would distort the layers they sit in.
"""

import importlib
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    cpu: float = 0.0  # process CPU seconds (all threads) spent inside the span
    failed: bool = False
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for one run; nesting is tracked per thread."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording a span per call.

        ``count(args, kwargs, result)`` may return a dict of counts to attach
        to the span; it runs after the span has ended, so it is not timed.
        """
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run_id)
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            cpu0 = time.process_time()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result is never negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def resolve(target: str):
    """Split ``pkg.module.Attr.attr`` into (owner object, attribute name).

    Returns None when any part of the path no longer exists.
    """
    parts = target.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr, None)
            if owner is None:
                return None
        if not hasattr(owner, parts[-1]):
            return None
        return owner, parts[-1]
    return None


def install(tracer: Tracer, targets) -> tuple[list, list[str]]:
    """Wrap every target; returns (undo records, targets that do not exist).

    ``targets`` is an iterable of (dotted path, span name, count function).
    """
    undo = []
    missing = []
    for path, name, count in targets:
        found = resolve(path)
        if found is None:
            missing.append(path)
            continue
        owner, attr = found
        original = getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, count))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
