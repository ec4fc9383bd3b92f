"""Spans recorded around calls into groverdfs, from outside the package.

A Tracer replaces a public function by a wrapper in every module that
holds it: `hamiltonian` and `experiments` import names directly, so
patching only the defining module would miss their calls. Methods
(`DenseOperator.__post_init__`, the `RunResult` writers) are patched on
the class. Spans are kept in memory as

    [name, start, end, parent index or None, unit id]

and written out once, when the run ends.
"""
from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.unit = None
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, after=None):
        """`fn` recording a span `name` while the tracer is active.

        `name` may be a callable of the call's arguments, for boundaries
        split by an argument. `after(result, *args)` runs after the call,
        inside the span, to update `self.counts`.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = [label, time.perf_counter(), None, parent, self.unit]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, *args)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install_function(self, modules, owner, attr, name=None, cached=False):
        """Wrap `owner.attr` in `owner` and in every module that bound it by name.

        For an lru-cached function (`cached=True`) the cache hits of each
        call are added to `counts["<name>.hits"]`.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        name = name or f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        fn = original
        if cached:
            @functools.wraps(original)
            def fn(*args, **kwargs):
                hits = original.cache_info().hits
                try:
                    return original(*args, **kwargs)
                finally:
                    self.counts[f"{name}.hits"] += original.cache_info().hits - hits
        wrapper = self.wrap(name, fn)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self.patch(module, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest strictly, so the children of a span cover
    disjoint parts of it and their durations add up.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
