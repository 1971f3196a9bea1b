"""Server bootstrap for the benchmark's traced runs.

``python perfbench/layer_boot.py <python -m repro arguments>`` wraps the
public functions of each layer, then calls the normal entry point
(``repro.__main__.main``) with the same arguments. Nothing in the
program changes; the wrappers measure it from outside.

Each wrapper records, under the trace id of the statement it ran for
(the ambient trace context the server installs), the calls, the total
time and the self time (total minus time in nested wrapped calls on the
same thread) of one layer, plus work counts where the layer has them.
The benchmark reads and clears these records over a small line-based
control socket whose address the bootstrap prints before the server's
own output: ``reset`` clears them and answers ``ok``; ``dump`` answers
them as one JSON line.
"""

from __future__ import annotations

import functools
import inspect
import json
import socket
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.__main__ as entry  # noqa: E402
import repro.core.command_log as command_log  # noqa: E402
import repro.core.database as database  # noqa: E402
import repro.graph.topology as topology  # noqa: E402
import repro.graph.traversal as traversal  # noqa: E402
import repro.planner.select_planner as select_planner  # noqa: E402
import repro.resilience.supervisor  # noqa: E402,F401  (lazily imported by the entry point)
import repro.server.server  # noqa: E402,F401
import repro.sharding.router  # noqa: E402,F401
import repro.sql.parser as parser  # noqa: E402
import repro.storage.index as index  # noqa: E402
import repro.storage.table as table  # noqa: E402
from repro.observability import tracing  # noqa: E402

_perf = time.perf_counter


class Recorder:
    """Per-trace, per-layer ``[calls, total_ms, self_ms, count_a,
    count_b]`` records; ``""`` collects calls made outside any trace."""

    def __init__(self):
        self.records = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer, total_ms, self_ms, count_a=0, count_b=0):
        context = tracing.current_trace()
        key = context.trace_id if context is not None else ""
        with self._lock:
            layers = self.records.get(key)
            if layers is None:
                layers = self.records[key] = {}
            record = layers.get(layer)
            if record is None:
                record = layers[layer] = [0, 0.0, 0.0, 0, 0]
            record[0] += 1
            record[1] += total_ms
            record[2] += self_ms
            record[3] += count_a
            record[4] += count_b

    def take(self, clear: bool) -> dict:
        with self._lock:
            records = self.records
            if clear:
                self.records = {}
            return records


RECORDER = Recorder()


def timed(layer, fn):
    """Wrap a plain function or method: one call is one frame."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = RECORDER.stack()
        stack.append(0.0)
        started = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = (_perf() - started) * 1000.0
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
            RECORDER.add(layer, elapsed, elapsed - nested)

    return wrapper


def counted_scan(fn):
    """Wrap ``Table.scan``: count the rows it yields."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rows = 0
        try:
            for item in fn(*args, **kwargs):
                rows += 1
                yield item
        finally:
            RECORDER.add("storage.scan", 0.0, 0.0, rows)

    return wrapper


def timed_traversal(fn):
    """Wrap a path-scan generator: time every step of the iteration (the
    consumer's work between steps is not the traversal's) and read its
    ``TraversalStats`` when it ends."""
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        stats = bound.arguments.get("stats")
        if stats is None:
            stats = bound.arguments["stats"] = traversal.TraversalStats()
        paths, edges = stats.paths_emitted, stats.edges_examined
        generator = fn(*bound.args, **bound.kwargs)
        stack = RECORDER.stack()
        total = own = 0.0
        try:
            while True:
                stack.append(0.0)
                started = _perf()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    elapsed = (_perf() - started) * 1000.0
                    nested = stack.pop()
                    if stack:
                        stack[-1] += elapsed
                    total += elapsed
                    own += elapsed - nested
                yield item
        finally:
            generator.close()
            RECORDER.add("graph.traversal", total, own,
                         stats.paths_emitted - paths,
                         stats.edges_examined - edges)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's reference to ``original`` at
    ``replacement`` (modules bind functions by name on import)."""
    for name, module in list(sys.modules.items()):
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    for name in ("parse_statement", "parse_script"):
        original = getattr(parser, name)
        _rebind(original, timed("sql.parse", original))
    for name in ("dfs_paths", "bfs_paths", "shortest_paths"):
        original = getattr(traversal, name)
        _rebind(original, timed_traversal(original))
    methods = [
        (select_planner.SelectPlanner, "plan", "planner.plan"),
        (table.Table, "insert", "storage.write"),
        (table.Table, "update", "storage.write"),
        (table.Table, "delete", "storage.write"),
        (database.Database, "execute", "core.execute"),
        (database.PreparedQuery, "execute", "core.execute"),
        (command_log._LogFile, "_fsync", "core.fsync"),
    ]
    for name in ("add_vertex", "add_edge", "remove_edge", "remove_vertex",
                 "rename_vertex", "rename_edge"):
        methods.append((topology.GraphTopology, name, "graph.maintenance"))
    for cls in (index.HashIndex, index.OrderedIndex):
        methods.append((cls, "lookup", "storage.lookup"))
    for cls, name, layer in methods:
        setattr(cls, name, timed(layer, getattr(cls, name)))
    table.Table.scan = counted_scan(table.Table.scan)


def _serve_control(listener: socket.socket) -> None:
    while True:
        connection, _ = listener.accept()
        with connection, connection.makefile("rw") as stream:
            for line in stream:
                command = line.strip()
                if command == "reset":
                    RECORDER.take(clear=True)
                    stream.write("ok\n")
                elif command == "dump":
                    stream.write(json.dumps(RECORDER.take(clear=False)) + "\n")
                else:
                    stream.write(json.dumps({"error": command}) + "\n")
                stream.flush()


def main() -> None:
    install()
    listener = socket.create_server(("127.0.0.1", 0))
    threading.Thread(target=_serve_control, args=(listener,),
                     name="perfbench-control", daemon=True).start()
    host, port = listener.getsockname()[:2]
    print(f"perfbench-control {host}:{port}", flush=True)
    entry.main(sys.argv[1:])


if __name__ == "__main__":
    main()
