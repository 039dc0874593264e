"""In-memory span tracer that wraps the stockcast package from outside.

`Tracer.installed()` replaces every public module-level function of every
``stockcast`` module, plus the ``Adam.step`` method, with a wrapper that
records one span per call: (name, start, end, parent index, op id, note).
Names imported with ``from .x import y`` are separate bindings of the same
function object, so every module namespace is searched for the originals
and rebound too; otherwise a call through such a binding would go
unrecorded. Leaving the context restores the original objects, so the
package runs untraced again.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

NAME, START, END, PARENT, OP, NOTE = range(6)


def _clip_note(args, kwargs, result):
    max_norm = kwargs["max_norm"] if "max_norm" in kwargs else args[1]
    return result > max_norm


# span name -> note(args, kwargs, result) stored with the span
NOTES = {"lstm.clip_gradient_norm": _clip_note}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        import stockcast
        from stockcast import lstm

        modules = [stockcast] + [
            importlib.import_module(f"stockcast.{info.name}")
            for info in pkgutil.iter_modules(stockcast.__path__)
        ]
        wrappers = {}
        for module in modules[1:]:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        rebound = []
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    rebound.append((module, attr, obj))
                    setattr(module, attr, wrappers[obj])
        adam_step = lstm.Adam.step
        lstm.Adam.step = self.wrap("lstm.Adam.step", adam_step)
        try:
            yield self
        finally:
            lstm.Adam.step = adam_step
            for module, attr, obj in rebound:
                setattr(module, attr, obj)

    def absorb(self, spans) -> None:
        """Append spans recorded in another process, under the current op."""
        offset = len(self.spans)
        for span in spans:
            parent = span[PARENT] + offset if span[PARENT] >= 0 else -1
            self.spans.append([span[NAME], span[START], span[END], parent, self.op, span[NOTE]])

    def write(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, op, note."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[list]:
    with open(path) as src:
        return [json.loads(line) for line in src]


def children_of(spans) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            kids[span[PARENT]].append(index)
    return kids


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans, kids) -> list[float]:
    """Self time of each span: its duration minus the time spent in spans of
    other modules beneath it.

    The layers are the modules, so nested calls into the span's own module
    count as its own time: ``lstm.forward_batch`` is charged for its
    ``lstm.cell_forward`` steps and ``cli.main`` for its command handlers.
    A span is appended when its call starts, so children sit after their
    parent and a reverse pass sees every child first.
    """
    own = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        span = spans[i]
        total = span[END] - span[START]
        for c in kids[i]:
            child_dur = spans[c][END] - spans[c][START]
            if module_of(spans[c][NAME]) == module_of(span[NAME]):
                total -= child_dur - own[c]
            else:
                total -= child_dur
        own[i] = total
    return own


def count_below(spans, kids, root: int, name: str) -> int:
    """Number of spans called `name` in the subtree under `root`."""
    found, todo = 0, list(kids[root])
    while todo:
        index = todo.pop()
        found += spans[index][NAME] == name
        todo.extend(kids[index])
    return found
