"""In-memory span tracer that times calls into trslab's public functions.

Nothing inside the package is edited.  A traced run rebinds each public
name in the namespace its caller looks it up in (for example
``trslab.gltr.extend_lanczos``) to a wrapper that records one span, and
wraps the ``apply`` method of individual operator instances.
``Tracer.restore`` undoes every rebind and operator wrap; an untraced run
never creates a tracer, so it installs no wrapper at all.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans
    op: int | None  # id of the top-level benchmark operation (one solve, one experiment)
    failed: bool = False  # the call raised
    info: tuple | None = None  # layer-specific annotation, e.g. Lanczos orders


class Tracer:
    """Records spans at layer boundaries.

    Spans stay in ``self.spans`` until the caller writes them out.  The
    parent of a span is the innermost span open when it started.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_op = 0
        self._current_op: int | None = None
        self._rebound: list[tuple[object, str, object]] = []
        self._wrapped_ops: list[object] = []

    # -- recording -----------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self._current_op))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index, failed=False, info=None):
        span = self.spans[index]
        span.end = self.clock()
        span.failed = failed
        span.info = info
        popped = self._stack.pop()
        if popped != index:  # pragma: no cover - would mean a wrapper leaked
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    def call(self, name, fn, *args, annotate=None, **kwargs):
        """Run fn(*args, **kwargs) inside one span and return its result."""
        index = self._open(name)
        failed = True
        info = None
        try:
            result = fn(*args, **kwargs)
            failed = False
            if annotate is not None:
                info = annotate(args, kwargs, result)
            return result
        finally:
            self._close(index, failed, info)

    def operation(self, name, fn, *args, **kwargs):
        """Run one top-level benchmark operation; its spans share a new op id."""
        self._current_op = self._next_op
        self._next_op += 1
        try:
            return self.call(name, fn, *args, **kwargs)
        finally:
            self._current_op = None

    # -- installing wrappers -------------------------------------------

    def wrap(self, name, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, annotate=annotate, **kwargs)

        return traced

    def rebind(self, namespace, attr, name, annotate=None):
        """Replace namespace.attr by a traced wrapper until restore()."""
        original = getattr(namespace, attr)
        self._rebound.append((namespace, attr, original))
        setattr(namespace, attr, self.wrap(name, original, annotate))

    def wrap_apply(self, operator):
        """Time every apply of one operator instance as a linalg.apply span."""
        if "apply" in vars(operator):
            return operator  # already wrapped by this tracer
        operator.apply = self.wrap("linalg.apply", operator.apply)
        self._wrapped_ops.append(operator)
        return operator

    def restore(self):
        """Undo every rebind and operator wrap, newest first."""
        while self._rebound:
            namespace, attr, original = self._rebound.pop()
            setattr(namespace, attr, original)
        while self._wrapped_ops:
            operator = self._wrapped_ops.pop()
            vars(operator).pop("apply", None)


def self_times(spans):
    """Per span: its duration minus the durations of its child spans.

    The tracer is single-threaded and stack-based, so the children of a
    span run one after another inside it and never overlap.
    """
    out = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            out[span.parent] -= span.end - span.start
    return out
