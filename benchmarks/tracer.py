"""Span tracing around the library's layer boundaries, from outside.

The library calls its own layers through module attributes (search calls
``gf2poly._smallest_factor_degree_le``, zpoly calls its ``resultant``
global), so replacing those attributes with timing wrappers catches every
call made in this process.  Pool workers are not traced: a traced pass runs
its work in-process.

A span is (name, start_ns, end_ns, parent index).  Spans stay in memory
until :meth:`Tracer.write`.  A boundary's self time is its span durations
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path


def boundaries(lib) -> dict[str, list[tuple[object, str]]]:
    """Boundary name -> the (module, attribute) pairs it wraps."""
    swan_functions = [
        (lib.swan, name)
        for name in lib.swan.__all__
        if inspect.isfunction(getattr(lib.swan, name))
    ]
    return {
        # the small-factor prefilter entry that search.classify_shape calls
        "gf2poly.prefilter": [(lib.gf2poly, "_smallest_factor_degree_le")],
        "gf2poly.is_irreducible": [(lib.gf2poly, "is_irreducible")],
        "gf2poly.factor_count": [(lib.gf2poly, "factor_count")],
        "gf2poly.is_squarefree": [(lib.gf2poly, "is_squarefree")],
        "zpoly.discriminant_mod8": [(lib.zpoly, "discriminant_mod8")],
        "zpoly.resultant": [(lib.zpoly, "resultant")],
        "zpoly.power_sums": [(lib.zpoly, "power_sums")],
        "swan": swan_functions,
    }


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()

        return traced

    @contextmanager
    def installed(self, lib):
        """Wrap every boundary for the duration of the block.  A boundary
        whose attribute the library no longer has is listed in ``missing``
        and reports zero calls."""
        saved = []
        self.missing = []
        try:
            for name, targets in boundaries(lib).items():
                for module, attr in targets:
                    fn = getattr(module, attr, None)
                    if fn is None:
                        self.missing.append(f"{module.__name__}.{attr}")
                        continue
                    saved.append((module, attr, fn))
                    setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def totals(self, names) -> dict[str, tuple[int, float]]:
        """Boundary name -> (calls, self seconds)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: [0, 0] for name in names}
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            out[name][0] += 1
            out[name][1] += end - start - covered
        return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
