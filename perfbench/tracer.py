"""Spans around calls into the program's layers, recorded from outside ``src/``.

A :class:`Tracer` replaces chosen functions and methods with thin wrappers
that record one span per call: entry-point name, start, end, the span that
was open when the call began (its parent) and the id of the benchmark
operation it belongs to.  Spans stay in memory; :meth:`Tracer.write_spans`
writes them out once the benchmark ends.  A layer's self time is the time
its spans cover minus the time their direct child spans cover, so the self
times of all layers, plus the self time of the root span, add up to the
root span's wall time exactly.

Patching has to reach every binding of a function.  A method is patched on
the class that defines it.  A module-level function is patched in its own
module *and* in every loaded ``repro`` module that bound it with
``from x import f`` (``repro.serving.simulation`` imports ``decode_message``
that way), because patching the defining module alone misses those names.
:meth:`Tracer.uninstall` puts every original back and :meth:`Tracer.leftovers`
proves that no wrapper is left anywhere.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Name of the benchmark's own span around one operation's timed phase.
ROOT = "op"
#: Layer that owns the root span: time in no listed layer lands here.
OTHER = "other"


@dataclass
class RunProfile:
    """What one operation's spans add up to, per layer and per entry point."""

    self_s: Dict[str, float] = field(default_factory=dict)
    layer_calls: Dict[str, int] = field(default_factory=dict)
    name_calls: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method of a layer to wrap.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``kind`` is
    ``"call"`` for plain calls, ``"gen"`` for generator functions (each
    ``next()`` is a span) or ``"cm"`` for ``@contextmanager`` functions
    (``__enter__`` and ``__exit__`` are spans; only entries count as calls).
    ``observe(counters, args, result)`` records counts at the boundary.
    """

    layer: str
    target: str
    kind: str = "call"
    observe: Optional[Callable[[Dict[str, float], tuple, object], None]] = None

    @property
    def name(self) -> str:
        return self.target.split(":", 1)[1]


def _resolve(target: str) -> Tuple[object, str]:
    module_name, path = target.split(":", 1)
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans and counters for the entry points it is installed on."""

    def __init__(self) -> None:
        self.names: List[str] = [ROOT]
        self.layers: List[str] = [OTHER]
        self.counted: List[bool] = [True]
        #: one ``[name_id, start, end, parent, run]`` list per call
        self.spans: List[list] = []
        #: counters recorded at the boundaries, per operation id
        self.run_counters: Dict[int, Dict[str, float]] = {}
        self.counters: Dict[str, float] = {}
        self.run_id = -1
        self._stack: List[int] = []
        #: index of each operation's first span (an operation's spans are contiguous)
        self._first_span: Dict[int, int] = {}
        #: (owner, attr, original raw attribute) for every patch applied
        self._patches: List[Tuple[object, str, object]] = []
        #: wrapper object -> original, to undo bindings made while installed
        self._originals: Dict[int, Tuple[object, object]] = {}

    # --------------------------------------------------------------- spans
    def _name_id(self, name: str, layer: str, counted: bool = True) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.counted.append(counted)
        return len(self.names) - 1

    def call(self, name_id: int, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside one span of entry point ``name_id``.

        Spans are recorded only inside an operation's root span, so calls
        made while constructing or checking an operation are not timed.
        """
        stack = self._stack
        if not stack and name_id:
            return fn(*args, **kwargs)
        span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def begin_run(self, run_id: int) -> None:
        """Start operation ``run_id``: its spans and counters are kept apart."""
        self.run_id = run_id
        self.counters = self.run_counters.setdefault(run_id, {})
        self._first_span[run_id] = len(self.spans)

    def root(self, fn: Callable, *args, **kwargs):
        """Run ``fn`` as the operation's root span (the timed phase)."""
        return self.call(0, fn, *args, **kwargs)

    # ------------------------------------------------------------- wrapping
    def _make_wrapper(self, entry: EntryPoint, fn: Callable) -> Callable:
        name_id = self._name_id(entry.name, entry.layer)
        observe = entry.observe
        tracer = self

        if entry.kind == "gen":
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                iterator = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer.call(name_id, next, iterator)
                    except StopIteration:
                        return
                    if observe is not None and tracer._stack:
                        observe(tracer.counters, args, item)
                    yield item
            return gen_wrapper

        if entry.kind == "cm":
            exit_id = self._name_id(entry.name + ".__exit__", entry.layer, counted=False)

            class _TimedContext:
                def __init__(self, inner) -> None:
                    self._inner = inner

                def __enter__(self):
                    return tracer.call(name_id, self._inner.__enter__)

                def __exit__(self, *exc):
                    return tracer.call(exit_id, self._inner.__exit__, *exc)

            @functools.wraps(fn)
            def cm_wrapper(*args, **kwargs):
                return _TimedContext(fn(*args, **kwargs))
            return cm_wrapper

        if entry.kind != "call":
            raise ValueError(f"unknown entry-point kind {entry.kind!r}")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name_id, fn, *args, **kwargs)
            if observe is not None and tracer._stack:
                observe(tracer.counters, args, result)
            return result
        return wrapper

    def install(self, entries: Sequence[EntryPoint]) -> None:
        """Wrap every entry point; see the module docstring for the rules."""
        for entry in entries:
            owner, attr = _resolve(entry.target)
            if inspect.ismodule(owner):
                original = getattr(owner, attr)
                wrapper = self._make_wrapper(entry, original)
                self._originals[id(wrapper)] = (wrapper, original)
                for module in _repro_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, name, original))
                            setattr(module, name, wrapper)
                continue
            if attr not in vars(owner):
                raise AttributeError(f"{entry.target}: {attr!r} is not defined on "
                                     f"{owner.__name__} itself; name the defining class")
            raw = vars(owner)[attr]
            if isinstance(raw, (staticmethod, classmethod)):
                patched = type(raw)(self._make_wrapper(entry, raw.__func__))
            else:
                patched = self._make_wrapper(entry, raw)
            self._originals[id(patched)] = (patched, raw)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, patched)

    def uninstall(self) -> None:
        """Put every original back, including bindings made while installed."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if self._is_wrapper(value):
                    setattr(module, name, self._originals[id(value)][1])

    def leftovers(self) -> List[str]:
        """Names still bound to one of this tracer's wrappers (empty = clean)."""
        found = []
        for module in _repro_modules():
            for name, value in vars(module).items():
                if self._is_wrapper(value):
                    found.append(f"{module.__name__}.{name}")
                if inspect.isclass(value) and value.__module__ == module.__name__:
                    found.extend(f"{module.__name__}.{name}.{attr}"
                                 for attr, raw in vars(value).items()
                                 if self._is_wrapper(raw))
        return found

    def _is_wrapper(self, value: object) -> bool:
        hit = self._originals.get(id(value))
        return hit is not None and hit[0] is value

    # ------------------------------------------------------------- results
    def profile(self, run_id: int) -> RunProfile:
        """Self seconds and calls per layer, calls per name and wall of one operation."""
        first = self._first_span.get(run_id, len(self.spans))
        spans = []
        for span in self.spans[first:]:
            if span[4] != run_id:
                break
            spans.append(span)
        child = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= first:
                child[parent - first] += end - start
        result = RunProfile()
        for index, (name_id, start, end, _, _) in enumerate(spans):
            layer = self.layers[name_id]
            result.self_s[layer] = result.self_s.get(layer, 0.0) + (end - start) - child[index]
            if name_id == 0:
                result.wall_s += end - start
            elif self.counted[name_id]:
                result.layer_calls[layer] = result.layer_calls.get(layer, 0) + 1
                name = self.names[name_id]
                result.name_calls[name] = result.name_calls.get(name, 0) + 1
        return result

    def write_spans(self, path: Path) -> None:
        """Write every span as gzipped CSV (times in seconds, parent -1 = none)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("span,run,parent,layer,name,start_s,end_s\n")
            for index, (name_id, start, end, parent, run) in enumerate(self.spans):
                out.write(f"{index},{run},{parent},{self.layers[name_id]},"
                          f"{self.names[name_id]},{start:.9f},{end:.9f}\n")


def _repro_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))]
