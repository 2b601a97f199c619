"""In-memory spans and counters around patched functions.

A :class:`Tracer` replaces a function attribute (a module global or a class
method) with a wrapper, at the place where callers look it up, and puts the
original back on :meth:`Tracer.restore`.  Span wrappers record
``[name, start, end, parent, note]`` in a list; the parent is the span that
was open when the call began, so the spans of one CLI call form a tree.
Count wrappers only bump a counter: they serve calls too short (under about
10 microseconds) for a clock read on either side to mean anything.

Nothing is written out while the program runs; :func:`self_times` turns the
span list into self times afterwards.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter

_MISSING = object()

# span record fields
NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()  # filled in by restore()
        self._counters: dict[object, itertools.count] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span_wrapper(self, name, fn, note=None, before=None, wrap_args=None):
        """Wrap ``fn`` so every call records one span named ``name``.

        ``before(args, kwargs)`` runs ahead of the call and its value is
        passed to ``note(args, kwargs, result, before_value)``, whose return
        value is kept with the span.  ``wrap_args(args, kwargs)`` may return
        replacement arguments (e.g. to count integrand evaluations).
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            pre = before(args, kwargs) if before is not None else None
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if note is not None:
                rec[NOTE] = note(args, kwargs, result, pre)
            return result

        return wrapper

    def _bump(self, key):
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = itertools.count()
        return counter.__next__

    def count_wrapper(self, key, fn, by_attr=None):
        """Wrap ``fn`` to count calls under ``key``, or under
        ``(key, first_arg.<by_attr>)`` when ``by_attr`` is given.

        These wrap hot calls, so they take positional arguments only and
        bump an ``itertools.count`` (about 0.1 us a call); the totals land
        in ``counts`` on :meth:`restore`.
        """
        if by_attr is None:
            bump = self._bump(key)

            def wrapper(*args):
                bump()
                return fn(*args)
        else:
            bumps: dict = {}

            def wrapper(first, *args):
                value = getattr(first, by_attr)
                bump = bumps.get(value)
                if bump is None:
                    bump = bumps[value] = self._bump((key, value))
                bump()
                return fn(first, *args)

        return wrapper

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace ``owner.attr`` by ``make_wrapper(original)``.

        The attribute must live in ``owner``'s own namespace (a module
        global or a method defined on that class), so restoring it is a
        plain assignment.
        """
        original = vars(owner).get(attr, _MISSING)
        if original is _MISSING:
            raise AttributeError(f"{owner!r} has no attribute {attr!r} of its own")
        self._patched.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def restore(self) -> list[tuple[object, str, object]]:
        """Put back every patched attribute, newest first, and total the
        counters into ``counts``.  Returns what was restored, as
        ``(owner, attr, original)``, for :func:`leftover_patches`."""
        restored = []
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        # next() on a fresh itertools.count returns how often it was bumped
        self.counts.update({key: next(c) for key, c in self._counters.items()})
        self._counters.clear()
        return restored

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a root span named ``name``."""
        return self.span_wrapper(name, fn)(*args, **kwargs)


def leftover_patches(saved: list[tuple[object, str, object]]) -> list[str]:
    """Names of attributes in ``saved`` that no longer hold their original."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, original in saved
        if vars(owner).get(attr, _MISSING) is not original
    ]


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children nest strictly
    inside their parent and never overlap each other.
    """
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out
