"""In-memory spans around the benchmark's calls into corrpeaks.

A span records a name, a start, an end and the span that was open when
it began.  Spans stay in memory and are written out once, when the run
ends.  With tracing off, ``Tracer.call`` is a plain function call.
"""

import contextlib
import time


class Tracer:
    def __init__(self, enabled=False):
        self.enabled = enabled
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        if not self.enabled:
            yield
            return
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` by a span-recording wrapper while active.

        The wrapper sits where the package's own callers look the name up,
        so calls made inside corrpeaks are recorded too.
        """
        saved = []
        try:
            for module, attr in targets:
                original = getattr(module, attr)
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

                def wrapper(*args, _fn=original, _name=name, **kwargs):
                    return self.call(_name, _fn, *args, **kwargs)

                saved.append((module, attr, original))
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def duration(span):
    return span["end"] - span["start"]


def self_times(spans, name):
    """Total self time of the named spans: duration minus direct children."""
    child = {}
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + duration(s)
    return sum(duration(s) - child.get(s["id"], 0.0) for s in spans if s["name"] == name)


def named(spans, name, parent_name=None):
    """Spans with the given name, optionally only those whose parent has parent_name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        if parent_name is not None:
            parent = by_id.get(s["parent"])
            if parent is None or parent["name"] != parent_name:
                continue
        out.append(s)
    return out
