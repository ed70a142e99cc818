"""In-memory span recorder for the traced benchmark run.

A span is (id, parent, name, start, end, attrs).  Spans come from two
places: the benchmark's own calls into each layer (``Tracer.span``), and,
for the traced run only, wrappers installed over the public names through
which the layers call each other (``Tracer.install``).  Parents are tracked
per thread, so spans opened in worker threads are roots of their own.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
from time import perf_counter, thread_time

# (module, attribute, span name): names the layers call each other through.
FUNCTION_PATCHES = (
    ("postselect.construct", "check_projective_raw", "feasibility.check_raw"),
    ("postselect.construct", "close_polygon", "construct.close_polygon"),
    ("postselect.construct", "factor_amplitudes", "construct.factor_amplitudes"),
    ("postselect.oracle", "fuzz_projective", "oracle.fuzz_projective"),
    ("postselect.oracle", "projective_raw_slack_arrays", "feasibility.slack_arrays"),
    ("postselect.oracle", "merge_reports", "oracle.merge_reports"),
    ("postselect.feasibility", "ternary_disk_slack", "feasibility.region_slack"),
    ("postselect.feasibility", "dichotomic_slacks", "feasibility.region_slack"),
    ("postselect.feasibility", "ts_region_slacks", "feasibility.region_slack"),
)
# (module, class, span name): witness constructors, which validate their input.
INIT_PATCHES = (
    ("postselect.core", "ProjectiveWitness", "core.projective_validate"),
    ("postselect.core", "GeneralizedWitness", "core.generalized_validate"),
)
# Row counts recorded on the fuzz slack kernel's spans.
ROW_COUNTS = {"feasibility.slack_arrays": lambda args: len(args[0])}
# Spans that also record their thread's CPU time, since their wall time
# includes waiting for the interpreter lock held by the other fuzz workers.
CPU_TIMED = {"oracle.fuzz_projective"}


class NullTracer:
    """Tracing off: every span is the same reusable no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name, **attrs):
        return self._null


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    @contextlib.contextmanager
    def span(self, name, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = perf_counter()
        try:
            yield attrs
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, attrs))

    def _wrap(self, fn, name):
        count = ROW_COUNTS.get(name)
        cpu = name in CPU_TIMED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **({"rows": count(args)} if count else {})) as attrs:
                c0 = thread_time() if cpu else 0.0
                try:
                    return fn(*args, **kwargs)
                finally:
                    if cpu:
                        attrs["cpu_s"] = thread_time() - c0

        return wrapper

    def install(self) -> None:
        """Wrap the cross-layer names; ``uninstall`` puts the originals back."""
        for module, attr, name in FUNCTION_PATCHES:
            mod = importlib.import_module(module)
            orig = getattr(mod, attr)
            self._restore.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        for module, cls_name, name in INIT_PATCHES:
            cls = getattr(importlib.import_module(module), cls_name)
            orig = cls.__init__
            self._restore.append((cls, "__init__", orig))
            cls.__init__ = self._wrap(orig, name)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part of it covered by child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for sid, parent, _, start, end, _ in self.spans:
            if parent:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for sid, _, _, start, end, _ in self.spans:
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            out[sid] = (end - start) - covered
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
