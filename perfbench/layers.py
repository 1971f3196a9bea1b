"""The traced run's per-layer split.

Two sources, both read from outside the program:

* the spans the servers already record (``server.statement``,
  ``queue.wait``, ``db.execute``, ``log.fsync``, ``router.*``), drained
  with ``Client.traces()`` from every process often enough that the
  bounded span ring never evicts an op's spans;
* the per-trace layer records of the wrappers that ``layer_boot.py``
  installs in each server process.

Both are keyed by the trace id the client mints per statement, so each
op's time splits exactly: the client-observed latency is the outermost
server span plus the unattributed rest (client encode/decode, socket,
frame handling, and server work before the statement span opens), and
each server span is its queue wait, the self times of the wrapped
layers that ran under it, and its own remaining self time.
"""

from __future__ import annotations

import json
import socket
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.client import Client
from repro.observability import tracing

#: Ops between span drains. An op leaves at most ~6 spans per process,
#: so the last ``_DRAIN_LIMIT`` spans cover every op since the previous
#: drain and the 4096-span ring never evicts one first (an op whose
#: spans are lost fails the completeness check).
DRAIN_EVERY = 100
_DRAIN_LIMIT = DRAIN_EVERY * 12

GRAPH_CLASSES = ("graph", "count", "reach", "sp")


class _Control:
    """A connection to one bootstrap's control socket."""

    def __init__(self, address: Tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=30)
        self.stream = self.sock.makefile("rw")

    def ask(self, command: str) -> str:
        self.stream.write(command + "\n")
        self.stream.flush()
        return self.stream.readline()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class LayerTracer:
    """Collects spans and layer records for one traced deployment."""

    def __init__(self, deployment, client: Client):
        self.client = client
        self.routed = deployment.router is not None
        self.controls = {p.name: _Control(p.control)
                         for p in deployment.processes}
        self.admins = {p.name: Client(*p.address).connect()
                       for p in deployment.processes}
        self.collector = tracing.get_collector()
        self.ops: List[Tuple[str, str, float]] = []
        self.spans: Dict[str, Dict[str, dict]] = {
            name: {} for name in self.admins}
        self.setup_records: Dict[str, dict] = {}
        self.routing_before: Dict[str, int] = {}

    def begin(self) -> None:
        """Called after set-up and warm-up, right before timing."""
        self.setup_records = self._dump()
        self.routing_before = self._routing()
        for control in self.controls.values():
            control.ask("reset")

    def after_op(self, cls: str, latency_ms: float) -> None:
        span = self.collector.spans(limit=1)[-1]
        if span.name != "client.execute":
            raise RuntimeError(f"expected the op's client span, got {span}")
        self.ops.append((cls, span.trace_id, latency_ms))
        if len(self.ops) % DRAIN_EVERY == 0:
            self.drain()

    def drain(self) -> None:
        for name, admin in self.admins.items():
            for span in admin.traces(limit=_DRAIN_LIMIT):
                self.spans[name][span["span_id"] + span["name"]] = span

    def finish(self) -> Tuple[dict, dict, Dict[str, int]]:
        self.drain()
        routing_after = self._routing()
        routing = {tier: routing_after.get(tier, 0)
                   - self.routing_before.get(tier, 0)
                   for tier in routing_after}
        return self.setup_records, self._dump(), routing

    def close(self) -> None:
        for control in self.controls.values():
            control.close()
        for admin in self.admins.values():
            admin.close()

    def _dump(self) -> Dict[str, dict]:
        return {name: json.loads(control.ask("dump"))
                for name, control in self.controls.items()}

    def _routing(self) -> Dict[str, int]:
        if not self.routed:
            return {}
        return dict(self.client.shard_state().get("routing", {}))


def split(tracer: LayerTracer, setup_records, records, routing,
          cpu_ms_per_op: float, router_rss_mb: float,
          overhead_frac: float) -> Tuple[Dict[str, float], dict, List[str]]:
    """Per-layer metrics, the per-class breakdown, and the problems the
    completeness check found (empty when every op is fully attributed)."""
    problems: List[str] = []
    by_trace: Dict[str, Dict[str, List[dict]]] = defaultdict(
        lambda: defaultdict(list))
    for process, spans in tracer.spans.items():
        for span in spans.values():
            by_trace[span["trace_id"]][process].append(span)

    def span_ms(spans: List[dict], name: str) -> float:
        return sum(s["duration_ms"] for s in spans if s["name"] == name)

    def span_count(spans: List[dict], name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    entry = "router" if tracer.routed else "server"
    totals: Dict[str, float] = defaultdict(float)
    per_class: Dict[str, Dict[str, float]] = defaultdict(
        lambda: defaultdict(float))
    counts: Dict[str, int] = defaultdict(int)
    rows_scanned: Dict[str, int] = defaultdict(int)
    missing = 0
    root_name = "router.statement" if tracer.routed else "server.statement"
    for cls, trace_id, latency in tracer.ops:
        processes = by_trace.get(trace_id, {})
        root = span_ms(processes.get(entry, []), root_name)
        if not span_count(processes.get(entry, []), root_name):
            missing += 1
            continue
        counts[cls] += 1
        parts: Dict[str, float] = defaultdict(float)
        parts["client.unattributed"] = latency - root
        forward = shard_statements = 0.0
        for process, spans in processes.items():
            layers = records.get(process, {}).get(trace_id, {})
            layer_self = sum(record[2] for record in layers.values())
            for layer, record in layers.items():
                if layer == "storage.scan":
                    rows_scanned[cls] += record[3]
                else:
                    parts[layer] += record[2]
            queue = span_ms(spans, "queue.wait")
            parts["server.queue_wait"] += queue
            totals["log.fsync_ms"] += span_ms(spans, "log.fsync")
            totals["log.fsync_calls"] += span_count(spans, "log.fsync")
            if process == "router":
                forward = (span_ms(spans, "router.forward")
                           + span_ms(spans, "router.fanout"))
                totals["forward_ms"] += forward
                parts["sharding.router_self"] += (
                    root - forward - queue - layer_self)
            else:
                statement = span_ms(spans, "server.statement")
                shard_statements += statement
                parts["server.statement_self"] += (
                    statement - queue - layer_self)
        if tracer.routed:
            parts["sharding.forward_hop"] = forward - shard_statements
        for part, value in parts.items():
            per_class[cls][part] += value
            totals[part] += value
        per_class[cls]["latency"] += latency
        totals["latency"] += latency
    if missing:
        problems.append(f"{missing} ops have no {entry} statement span "
                        "(evicted from the span ring or never recorded)")

    n_ops = len(tracer.ops)
    n_read = counts.get("read", 0)
    n_write = counts.get("write", 0)
    n_graph = sum(counts.get(cls, 0) for cls in GRAPH_CLASSES)

    def layer_sum(source: Dict[str, dict], layer: str, field: int) -> float:
        return sum(record[layer][field]
                   for process in source.values()
                   for record in process.values() if layer in record)

    def per(value: float, n: int) -> float:
        return value / n if n else 0.0

    ops_routed = sum(routing.get(t, 0) for t in
                     ("fast_path", "scatter", "gather"))
    metrics = {
        "sql.parse_calls_per_op": per(layer_sum(records, "sql.parse", 0),
                                      n_ops),
        "sql.parse_ms_per_op": per(layer_sum(records, "sql.parse", 2), n_ops),
        "sql.setup_parse_s": layer_sum(setup_records, "sql.parse", 2) / 1e3,
        "planner.plan_calls_per_op": per(
            layer_sum(records, "planner.plan", 0), n_ops),
        "planner.plan_ms_per_op": per(layer_sum(records, "planner.plan", 2),
                                      n_ops),
        "storage.rows_scanned_per_read": per(rows_scanned["read"], n_read),
        "storage.index_probes_per_op": per(
            layer_sum(records, "storage.lookup", 0), n_ops),
        "storage.write_ms_per_write": per(
            layer_sum(records, "storage.write", 2), n_write),
        "graph.traversal_ms_per_query": per(
            layer_sum(records, "graph.traversal", 2), n_graph),
        "graph.paths_emitted_per_query": per(
            layer_sum(records, "graph.traversal", 3), n_graph),
        "graph.edges_examined_per_query": per(
            layer_sum(records, "graph.traversal", 4), n_graph),
        "graph.maintenance_ms_per_write": per(
            layer_sum(records, "graph.maintenance", 2), n_write),
        "core.execute_ms_per_op": per(layer_sum(records, "core.execute", 1),
                                      n_ops),
        "core.fsync_calls_per_write": per(totals["log.fsync_calls"], n_write),
        "core.fsync_ms_per_write": per(totals["log.fsync_ms"], n_write),
        "server.queue_wait_ms": per(totals["server.queue_wait"], n_write),
        "server.statement_self_ms": per(totals["server.statement_self"],
                                        n_ops),
        "server.cpu_ms_per_op": cpu_ms_per_op,
        "sharding.router_self_ms_per_op": per(
            totals["sharding.router_self"], n_ops),
        "sharding.forward_ms_per_op": per(totals["forward_ms"], n_ops),
        "sharding.fast_path_frac": per(routing.get("fast_path", 0),
                                       ops_routed),
        "sharding.scatter_frac": per(routing.get("scatter", 0), ops_routed),
        "sharding.gather_frac": per(routing.get("gather", 0), ops_routed),
        "sharding.router_rss_mb": router_rss_mb,
        "client.unattributed_ms_per_op": per(totals["client.unattributed"],
                                             n_ops),
        "client.unattributed_share": per(totals["client.unattributed"],
                                         totals["latency"]),
        "trace.overhead_frac": overhead_frac,
    }
    breakdown = {}
    for cls, parts in sorted(per_class.items()):
        n = counts[cls]
        means = {part: value / n for part, value in parts.items()}
        breakdown[cls] = means
        latency = means.pop("latency")
        attributed = sum(means.values())
        if abs(attributed - latency) > 1e-6 * max(1.0, latency):
            problems.append(f"{cls}: parts sum to {attributed:.4f} ms, "
                            f"client mean is {latency:.4f} ms")
        for part, value in means.items():
            if value < -0.01:
                problems.append(f"{cls}: {part} is negative ({value:.4f} ms)"
                                " — spans or layers overlap")
        means["latency"] = latency
    return metrics, breakdown, problems


def format_breakdown(breakdown: dict) -> List[str]:
    """Human-readable per-class split, unattributed share shown."""
    lines = []
    for cls, means in breakdown.items():
        latency = means["latency"]
        lines.append(f"  class {cls}: client mean {latency:.3f} ms")
        for part, value in sorted(means.items(), key=lambda kv: -kv[1]):
            if part == "latency":
                continue
            share = value / latency if latency else 0.0
            lines.append(f"    {part:<28} {value:8.3f} ms  {share:6.1%}")
    return lines
