"""The repository benchmark: one workload against real server processes.

    python3 perfbench/run.py --workload kv_oltp --seed 1 --seconds 10 --trace 0

Each server, router and shard runs in its own ``python -m repro``
process in the durable supervised mode (``--data-dir``, command log
fsynced per commit). The benchmark process is the only client: one
connection, closed loop, replaying a fixed seeded op sequence
(``workloads.py``) whose size is set by ``--seconds`` and never by a
clock. Inputs and expected answers are generated before timing; warm-up
ops run but are not timed; every answer is checked against the oracle.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
sequence twice on fresh servers, untraced and then traced through
``layer_boot.py``, and prints the per-layer split. The last line of
standard output is the JSON result (``--workload all`` runs every
workload in turn, each ending in its own JSON line); the exit code is
non-zero if any op failed or answered wrong, or a server process
outlived its run.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import signal
import statistics
import sys
import time
from collections import defaultdict
from typing import Dict, List, Optional

import procs
import workloads

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 5
#: Whole-run deadline: the benchmark must exit within 180 s.
DEADLINE_S = 170

# Metric names and units. The latency metrics are geometric means over
# the workload's op classes of each class's own mean and p90: classes
# are never pooled (a pooled percentile flips between the classes'
# modes), and a change to any one class moves the geometric mean by its
# share. This host's speed flips between two modes ~1.8x apart for
# seconds at a time; a class's p50 follows the flips between runs and
# its p99 follows rare stalls, while its mean and p90 repeat within a
# few percent. All four percentiles of every class are printed.
END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "class_mean_ms": "ms",
    "class_p90_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MB",
}
#: Per-layer metrics: unit, the latency the metric should move, and on
#: which workloads — the prediction a layer change is judged against.
#: The latencies are the per-class ones every run prints (``graph_*``
#: stands for the PATHS classes: ``graph``, or ``count``/``reach``/``sp``
#: on graph_reach); ``class_mean_ms`` and ``class_p90_ms`` combine them.
PER_LAYER = {
    "sql.parse_calls_per_op": (
        "count", "read_p50_ms, write_p50_ms", "kv_oltp (no change on graph_reach)"),
    "sql.parse_ms_per_op": (
        "ms", "read_p50_ms, write_p50_ms", "kv_oltp (no change on graph_reach)"),
    "sql.setup_parse_s": ("s", "setup_s", "all"),
    "planner.plan_calls_per_op": ("count", "read_p50_ms", "kv_oltp"),
    "planner.plan_ms_per_op": ("ms", "read_p50_ms", "kv_oltp"),
    "storage.rows_scanned_per_read": (
        "count", "read_p50_ms", "kv_oltp, routed_oltp"),
    "storage.index_probes_per_op": (
        "count", "read_p50_ms", "kv_oltp, routed_oltp"),
    "storage.write_ms_per_write": (
        "ms", "write_p50_ms", "kv_oltp, graph_update"),
    "graph.traversal_ms_per_query": ("ms", "graph_p50_ms", "graph_reach"),
    "graph.paths_emitted_per_query": ("count", "graph_p50_ms", "graph_reach"),
    "graph.edges_examined_per_query": ("count", "graph_p50_ms", "graph_reach"),
    "graph.maintenance_ms_per_write": ("ms", "write_p50_ms", "graph_update"),
    "core.execute_ms_per_op": ("ms", "write_p50_ms", "kv_oltp, graph_update"),
    "core.fsync_calls_per_write": (
        "count", "write_p50_ms", "kv_oltp, graph_update"),
    "core.fsync_ms_per_write": ("ms", "write_p50_ms", "kv_oltp, graph_update"),
    "server.queue_wait_ms": ("ms", "write_p99_ms", "kv_oltp, graph_update"),
    "server.statement_self_ms": ("ms", "read_p50_ms", "kv_oltp"),
    "server.cpu_ms_per_op": ("ms", "throughput_ops_s", "all"),
    "sharding.router_self_ms_per_op": ("ms", "write_p50_ms", "routed_oltp"),
    "sharding.forward_ms_per_op": ("ms", "write_p50_ms", "routed_oltp"),
    "sharding.fast_path_frac": (
        "frac", "read_p50_ms, graph_p50_ms", "routed_oltp"),
    "sharding.scatter_frac": (
        "frac", "read_p50_ms, graph_p50_ms", "routed_oltp"),
    "sharding.gather_frac": (
        "frac", "read_p50_ms, graph_p50_ms", "routed_oltp"),
    "sharding.router_rss_mb": ("MB", "server_rss_mb", "routed_oltp"),
    "client.unattributed_ms_per_op": ("ms", "all latencies", "all"),
    "client.unattributed_share": ("frac", "all latencies", "all"),
    "trace.overhead_frac": ("frac", "(cost of the traced run itself)", "all"),
}
PER_LAYER_UNITS = {name: spec[0] for name, spec in PER_LAYER.items()}


class Pass:
    """One deployment's run of the sequence: timings and failures."""

    def __init__(self):
        self.latencies: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.errors = 0
        self.mismatches = 0
        self.failures: List[str] = []
        self.elapsed_s = 0.0
        self.cpu_ms = 0.0
        self.rss_mb: Dict[str, float] = {}

    @property
    def failed(self) -> int:
        return self.errors + self.mismatches

    @property
    def timed_ops(self) -> int:
        return sum(len(v) for v in self.latencies.values())

    def note(self, message: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(message)


def setup(workload, traced: bool):
    """Spawn the servers, load the data over the wire, build the views
    and prepare the statements; returns (deployment, client, prepared,
    seconds)."""
    from repro.client import Client

    started = time.perf_counter()
    deployment = procs.Deployment(workload.topology, traced).start()
    try:
        client = Client(*deployment.entry).connect()
        for sql in workload.setup_sql:
            client.execute(sql)
        prepared = {name: client.prepare(sql)
                    for name, sql in workload.prepared.items()}
    except BaseException:
        deployment.close()
        raise
    return deployment, client, prepared, time.perf_counter() - started


def close(deployment, client) -> None:
    try:
        client.close()
    finally:
        deployment.close()
    strays = procs.stray_processes()
    if strays:
        raise RuntimeError(f"server processes outlived their run: {strays}")


def execute(client, prepared, op):
    if op[1] == "sql":
        return client.execute(op[2])
    return prepared[op[2]].execute(*op[3])


def replay(workload, deployment, client, prepared, tracer=None) -> Pass:
    """Warm-up (untimed), then the timed closed loop."""
    from repro.errors import DatabaseError

    result = Pass()

    def run(op):
        result.attempted += 1
        try:
            answer = execute(client, prepared, op)
        except DatabaseError as error:
            result.errors += 1
            result.note(f"{op[2]} {op[3]}: {type(error).__name__}: {error}")
            return False
        if not workloads.check(op, answer):
            result.mismatches += 1
            result.note(f"{op[2]} {op[3]}: got {answer.rows!r} "
                        f"rowcount={answer.rowcount}, expected {op[4]!r}")
        return True

    for op in workload.warmup:
        run(op)
    if tracer is not None:
        tracer.begin()
    cpu_before = sum(deployment.cpu_ms().values())
    paused = 0.0
    perf = time.perf_counter
    gc.collect()
    gc.disable()
    try:
        started = perf()
        for op in workload.measured:
            before = perf()
            ok = run(op)
            after = perf()
            if ok:
                result.latencies[op[0]].append(after - before)
                if tracer is not None:
                    tracer.after_op(op[0], (after - before) * 1000.0)
                    paused += perf() - after
        result.elapsed_s = perf() - started - paused
    finally:
        gc.enable()
    result.cpu_ms = sum(deployment.cpu_ms().values()) - cpu_before
    result.rss_mb = deployment.rss_mb()
    return result


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def class_lines(result: Pass) -> List[str]:
    lines = []
    for cls, values in sorted(result.latencies.items()):
        cells = [f"{cls}_mean_ms {statistics.mean(values) * 1e3:.4f}"] + [
            f"{cls}_p{q}_ms {percentile(values, q) * 1e3:.4f}"
            for q in (50, 90, 99)]
        lines.append("  " + "  ".join(cells) + f"  (n={len(values)})")
    return lines


def end_to_end(workload, out: List[str]):
    setups: List[float] = []
    deployment = client = None
    try:
        for _ in range(SETUPS):
            if deployment is not None:
                close(deployment, client)
                deployment = None
            deployment, client, prepared, seconds_taken = setup(
                workload, traced=False)
            setups.append(seconds_taken)
        result = replay(workload, deployment, client, prepared)
    finally:
        if deployment is not None:
            close(deployment, client)
    classes = result.latencies.values()
    metrics = {
        "throughput_ops_s": result.timed_ops / result.elapsed_s,
        "class_mean_ms": geomean([statistics.mean(v) * 1e3 for v in classes]),
        "class_p90_ms": geomean([percentile(v, 90) * 1e3 for v in classes]),
        "setup_s": statistics.median(setups),
        "server_rss_mb": sum(result.rss_mb.values()),
    }
    out.extend(class_lines(result))
    out.append(f"  setups_s          {' '.join(f'{s:.3f}' for s in setups)}")
    return metrics, END_TO_END_UNITS, [result]


def per_layer(workload, out: List[str]):
    import layers

    deployment, client, prepared, _ = setup(workload, traced=False)
    try:
        plain = replay(workload, deployment, client, prepared)
    finally:
        close(deployment, client)
    deployment, client, prepared, _ = setup(workload, traced=True)
    tracer = None
    try:
        tracer = layers.LayerTracer(deployment, client)
        traced = replay(workload, deployment, client, prepared, tracer)
        setup_records, records, routing = tracer.finish()
    finally:
        if tracer is not None:
            tracer.close()
        close(deployment, client)
    plain_tput = plain.timed_ops / plain.elapsed_s
    traced_tput = traced.timed_ops / traced.elapsed_s
    metrics, breakdown, problems = layers.split(
        tracer, setup_records, records, routing,
        cpu_ms_per_op=plain.cpu_ms / max(1, plain.timed_ops),
        router_rss_mb=plain.rss_mb.get("router", 0.0),
        overhead_frac=1.0 - traced_tput / plain_tput,
    )
    out.append(f"  untraced {plain_tput:.1f} ops/s, traced {traced_tput:.1f}"
               f" ops/s (overhead {metrics['trace.overhead_frac']:.1%})")
    out.extend(layers.format_breakdown(breakdown))
    for problem in problems:
        out.append(f"  INCOMPLETE: {problem}")
    traced.mismatches += len(problems)
    return metrics, PER_LAYER_UNITS, [plain, traced]


def run(name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, workload=None) -> dict:
    """Run one workload; returns the result object the command prints
    (plus a ``report`` list of human-readable lines)."""
    if workload is None:
        workload = workloads.generate(name, seed, seconds, tiny)
    out: List[str] = [f"workload {name} seed {seed}: "
                      f"{len(workload.warmup)} warm-up + "
                      f"{len(workload.measured)} timed ops"]
    measure = per_layer if trace else end_to_end
    try:
        metrics, units, passes = measure(workload, out)
    finally:
        procs.remove_run_root()
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for result in passes:
        for failure in result.failures:
            out.append(f"  FAILED: {failure}")
    out.append(f"  failed_frac      {failed / attempted:.6f} "
               f"({failed} of {attempted})")
    for metric, value in metrics.items():
        line = f"  {metric:<32} {value:12.4f} {units[metric]}"
        if metric in PER_LAYER:
            line += f"   -> {PER_LAYER[metric][1]} on {PER_LAYER[metric][2]}"
        out.append(line)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
        "report": out,
    }


class Aborted(BaseException):
    """Raised by the deadline and SIGTERM handlers. A BaseException, so
    no handler on the way (the client treats OSError as a dropped
    connection) swallows it before the teardown in ``finally`` runs."""


def _abort(signum, _frame):
    # once is enough: a second signal must not interrupt the teardown
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    raise Aborted(f"benchmark run stopped by {signal.Signals(signum).name}"
                  f" (deadline {DEADLINE_S} s)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (procs.SRC / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {procs.SRC}", file=sys.stderr)
        return 2
    for variable in procs.SHIPPED_DEFAULTS:
        os.environ.pop(variable, None)
    sys.path.insert(0, str(procs.SRC))
    signal.signal(signal.SIGALRM, _abort)
    signal.signal(signal.SIGTERM, _abort)
    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    correct = True
    for name in names:
        signal.alarm(DEADLINE_S)
        try:
            result = run(name, args.seed, args.seconds, bool(args.trace))
        finally:
            signal.alarm(0)
        for line in result.pop("report"):
            print(line)
        print(json.dumps(result), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
