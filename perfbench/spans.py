"""Span tracing at the layer boundaries of ``ixcap``, from outside the package.

Every public function defined in one of the traced modules is wrapped, and
the wrapper is bound in place of the original under every module attribute
that refers to it.  Several functions are imported by name into other
modules (``upper_bounds.lovasz_theta``, ``game.sender_graph``,
``lower_bounds.independence_number`` ...); wrapping only the defining module
would leave those calls between layers untimed.

Per-function statistics are aggregated online (calls, busy time, self time,
failures and a few work counters), so the cost of a traced run does not grow
with its length.  Raw spans (name, start, end, parent, job id) are kept in
memory only for the jobs passed to ``begin_job`` with ``keep_spans=True`` and
are written out once, at the end, by ``write_spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from dataclasses import dataclass

#: the layers, in report order; ``cli`` and ``errors`` are not timed
LAYERS = ("utility", "channel", "graphs", "theta", "lower_bounds", "upper_bounds", "game")


@dataclass
class FunctionStats:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    failed: int = 0
    # work counters, meaningful only for the functions that set them
    vertices: int = 0
    cells: int = 0
    repeats: int = 0
    optimal: int = 0


#: identity of the argument whose repetition within one job is counted
_REPEAT_KEYS = {
    "graphs.sender_graph": lambda args: (args[0].u, args[1]),
    "graphs.independence_number": lambda args: args[0].rows,
}


class Tracer:
    """Wraps the public functions of the traced modules while installed."""

    def __init__(self):
        self.stats: dict[str, FunctionStats] = {}
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [name, start_ns, child_ns, span_id]
        self._job = -1
        self._keep = False
        self._next_span = 0
        self._seen: dict[str, set] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------
    def install(self):
        pkg = importlib.import_module("ixcap")
        modules = {m: importlib.import_module(f"ixcap.{m}") for m in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    self.stats[name] = FunctionStats()
                    wrappers[id(obj)] = self._wrap(name, obj)
        for mod in (pkg, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._restore):
            setattr(mod, attr, obj)
        self._restore.clear()

    # -- jobs -------------------------------------------------------------
    def begin_job(self, job_id: int, keep_spans: bool):
        self._job = job_id
        self._keep = keep_spans
        self._seen = {}

    def _wrap(self, name, fn):
        stats = self.stats[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][3] if stack else None
            frame = [name, clock(), 0, span_id]
            stack.append(frame)
            failed = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                stats.calls += 1
                stats.busy_ns += dur
                stats.self_ns += dur - frame[2]
                if failed:
                    stats.failed += 1
                if stack:
                    stack[-1][2] += dur
                if self._keep:
                    self.spans.append(
                        (self._job, span_id, parent, name, frame[1], end, failed))
            self._count(name, stats, args, result)
            return result

        return wrapper

    def _count(self, name, stats, args, result):
        key_of = _REPEAT_KEYS.get(name)
        if key_of is not None:
            key = key_of(args)
            seen = self._seen.setdefault(name, set())
            if key in seen:
                stats.repeats += 1
            else:
                seen.add(key)
        if name == "graphs.sender_graph":
            stats.vertices += result.n_vertices
        elif name == "graphs.independence_number":
            stats.vertices += args[0].n_vertices
        elif name == "utility.block_utility_rows":
            stats.cells += len(result) ** 2
        elif name == "lower_bounds.gamma_n":
            stats.optimal += bool(result[1].optimal)

    # -- output -----------------------------------------------------------
    def layer_self_ns(self) -> dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_ns
        return out

    def write_spans(self, path):
        """Write the kept spans as JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("job", "span", "parent", "name", "start_ns", "end_ns", "failed")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
