"""Seeded workload generation: set-up SQL, the fixed op sequence, and the
oracle's expected answer for every op.

Everything here is a pure function of ``(workload, seed, seconds,
tiny)``: the same arguments give a byte-identical sequence
(:func:`sequence_bytes`), so every run and both sides of a comparison do
identical work, including how the data and the graph grow. A model of
the expected ``KV`` and edge state is replayed alongside the sequence,
so each expected answer reflects every write before it; graph answers
come from :mod:`oracle`. All of it runs before the clock starts.

An op is a list ``[cls, kind, text, params, expect]``: ``cls`` is the op
class its latency is kept under, ``kind`` is ``"sql"`` (ad-hoc literal
SQL in ``text``) or ``"prep"`` (the prepared statement named ``text``,
executed with ``params``), and ``expect`` is the oracle's answer.
"""

from __future__ import annotations

import json
import math
import random
from typing import Any, Dict, List, Optional, Tuple

import networkx as nx

import oracle

#: Ops per second of ``--seconds`` for each workload: the op count is
#: ``OPS_PER_SECOND * seconds``, fixed by the arguments, never by a
#: clock, so a faster program finishes the same work sooner.
OPS_PER_SECOND = {
    "kv_oltp": 390,
    "graph_reach": 450,
    "graph_update": 750,
    "routed_oltp": 500,
}

#: Share of each sequence run before timing starts.
WARMUP_SHARE = 0.05

LOAD_BATCH = 200  # rows per INSERT statement during set-up


class Workload:
    """Everything one run of one workload needs, generated up front."""

    def __init__(self, name: str, topology: str):
        self.name = name
        self.topology = topology
        self.setup_sql: List[str] = []
        self.prepared: Dict[str, str] = {}
        self.warmup: List[list] = []
        self.measured: List[list] = []

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "topology": self.topology,
            "setup_sql": self.setup_sql,
            "prepared": self.prepared,
            "warmup": self.warmup,
            "measured": self.measured,
        }


def generate(name: str, seed: int, seconds: float,
             tiny: bool = False) -> Workload:
    if name not in _GENERATORS:
        raise ValueError(f"unknown workload {name!r}; "
                         f"expected one of {sorted(_GENERATORS)}")
    total = max(20, int(OPS_PER_SECOND[name] * seconds))
    workload = _GENERATORS[name](random.Random(seed), total, tiny)
    warmup = max(10, int(total * WARMUP_SHARE))
    ops = workload.measured
    workload.warmup, workload.measured = ops[:warmup], ops[warmup:]
    return workload


def sequence_bytes(workload: Workload) -> bytes:
    return json.dumps(workload.to_json(), sort_keys=True,
                      separators=(",", ":")).encode()


def _insert_batches(table: str, rows: List[Tuple]) -> List[str]:
    return [
        f"INSERT INTO {table} VALUES "
        + ", ".join(_row_sql(row) for row in rows[i:i + LOAD_BATCH])
        for i in range(0, len(rows), LOAD_BATCH)
    ]


def _row_sql(row: Tuple) -> str:
    return "(" + ", ".join(
        f"'{value}'" if isinstance(value, str) else repr(value)
        for value in row
    ) + ")"


# ---------------------------------------------------------------------------
# key-value OLTP (single server and routed)
# ---------------------------------------------------------------------------


class _KvModel:
    """The expected ``KV`` contents, and the kv op mix drawn from it."""

    def __init__(self, rng: random.Random, rows: int):
        self.rng = rng
        self.values = {k: rng.randrange(1_000_000) for k in range(rows)}
        self.keys = list(self.values)
        self.next_key = rows

    def op(self, roll: float) -> list:
        """70% keyed read, 20% keyed update, 10% insert of a new key
        (``roll`` is uniform in [0, 1))."""
        rng = self.rng
        if roll < 0.7:
            k = rng.choice(self.keys)
            return ["read", "sql", f"SELECT v FROM KV WHERE k = {k}", [],
                    {"rows": [[self.values[k]]]}]
        if roll < 0.9:
            k = rng.choice(self.keys)
            v = rng.randrange(1_000_000)
            self.values[k] = v
            return ["write", "sql", f"UPDATE KV SET v = {v} WHERE k = {k}",
                    [], {"rowcount": 1}]
        self.next_key += rng.randint(1, 3)
        k, v = self.next_key, rng.randrange(1_000_000)
        self.values[k] = v
        self.keys.append(k)
        return ["write", "sql", f"INSERT INTO KV VALUES ({k}, {v})", [],
                {"rowcount": 1}]


def _kv_oltp(rng, total, tiny) -> Workload:
    workload = Workload("kv_oltp", "single")
    model = _KvModel(rng, 100 if tiny else 2000)
    workload.setup_sql = [
        "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER)"
    ] + _insert_batches("KV", sorted(model.values.items()))
    workload.measured = [model.op(rng.random()) for _ in range(total)]
    return workload


def _routed_oltp(rng, total, tiny) -> Workload:
    workload = Workload("routed_oltp", "routed")
    rows = 60 if tiny else 1000
    model = _KvModel(rng, rows)
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(model.keys)
    edges = []
    for src in model.keys:
        for _ in range(2):
            dst = rng.randrange(rows)
            if dst != src:
                edges.append((len(edges), src, dst))
                graph.add_edge(src, dst, key=len(edges) - 1)
    workload.setup_sql = [
        "CREATE TABLE KV (k INTEGER PRIMARY KEY, v INTEGER) PARTITION BY k",
        "CREATE TABLE KE (eid INTEGER PRIMARY KEY, src INTEGER, "
        "dst INTEGER) PARTITION BY src",
    ] + _insert_batches("KV", sorted(model.values.items())) \
      + _insert_batches("KE", edges) + [
        "CREATE DIRECTED GRAPH VIEW KG VERTEXES(ID = k, v = v) FROM KV "
        "EDGES(ID = eid, FROM = src, TO = dst) FROM KE",
    ]
    # keys inserted later are vertices without edges: counts are static
    two_hop = {k: oracle.count_paths(graph, k, 2) for k in model.keys}
    ops = []
    for _ in range(total):
        roll = rng.random()
        if roll < 0.2:
            k = rng.choice(model.keys)
            ops.append(["graph", "sql",
                        "SELECT COUNT(*) FROM KG.Paths PS WHERE "
                        f"PS.StartVertex.Id = {k} AND PS.Length = 2", [],
                        {"rows": [[two_hop.get(k, 0)]]}])
        else:
            ops.append(model.op((roll - 0.2) / 0.8))
    workload.measured = ops
    return workload


# ---------------------------------------------------------------------------
# graph workloads
# ---------------------------------------------------------------------------


#: The road grid is a fixed dataset, like the paper's; ``--seed`` draws
#: the queries and updates. A grid per seed would add the spread of the
#: graphs' shapes to the spread of the runs.
DATASET_SEED = 7


def _road_graph(side: int):
    """A bounded-degree road grid (degree <= 4), as engine rows and as
    the undirected networkx multigraph the oracle reads."""
    from repro.datasets import road_network

    dataset = road_network(width=side, height=side, seed=DATASET_SEED)
    graph = nx.MultiGraph()
    for vid, _label, vsel in dataset.vertices:
        graph.add_node(vid, vsel=vsel)
    for eid, src, dst, w, _label, esel in dataset.edges:
        graph.add_edge(src, dst, key=eid, w=w, esel=esel)
    return dataset, graph


_GRAPH_DDL = [
    "CREATE TABLE V (vid INTEGER PRIMARY KEY, vlabel VARCHAR, vsel INTEGER)",
    "CREATE TABLE E (eid INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, "
    "w FLOAT, elabel VARCHAR, esel INTEGER)",
]
_GRAPH_VIEW = (
    "CREATE UNDIRECTED GRAPH VIEW G "
    "VERTEXES(ID = vid, vlabel = vlabel, vsel = vsel) FROM V "
    "EDGES(ID = eid, FROM = src, TO = dst, w = w, elabel = elabel, "
    "esel = esel) FROM E"
)

REACH_ESEL = 85       # constrained reachability keeps edges with esel < 85
REACH_HOPS = 10       # ... between endpoints this many hops apart
SP_HOPS = 12          # shortest paths between endpoints this many hops apart
COUNT_LENGTH = 5      # fixed-length path count
PAIR_POOL = 300       # distinct endpoint pairs per pair query


def _pairs_at(graph, rng, hops: int, count: int) -> List[Tuple[int, int]]:
    """``count`` (source, target) pairs exactly ``hops`` hops apart."""
    vertices = sorted(graph.nodes)
    rng.shuffle(vertices)
    pairs = []
    for source in vertices:
        depth = nx.single_source_shortest_path_length(graph, source,
                                                      cutoff=hops)
        ring = sorted(v for v, d in depth.items() if d == hops)
        if ring:
            pairs.append((source, rng.choice(ring)))
            if len(pairs) == count:
                break
    return pairs


def _graph_reach(rng, total, tiny) -> Workload:
    workload = Workload("graph_reach", "single")
    dataset, graph = _road_graph(6 if tiny else 30)
    workload.setup_sql = _GRAPH_DDL + _insert_batches(
        "V", dataset.vertices) + _insert_batches("E", dataset.edges) \
        + [_GRAPH_VIEW]
    workload.prepared = {
        "count": "SELECT COUNT(*) FROM G.Paths PS WHERE "
                 f"PS.StartVertex.Id = ? AND PS.Length = {COUNT_LENGTH}",
        "reach": "SELECT PS.PathString FROM G.Paths PS WHERE "
                 "PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? "
                 "AND PS.Edges[0..*].esel < ? LIMIT 1",
        "sp": "SELECT PS.Cost FROM G.Paths PS HINT(SHORTESTPATH(w)) WHERE "
              "PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1",
    }
    shrink = 2 if tiny else 1  # the tiny grid is too small for 12 hops
    reach_pairs = _pairs_at(graph, rng, REACH_HOPS // shrink, PAIR_POOL)
    sp_pairs = _pairs_at(graph, rng, SP_HOPS // shrink, PAIR_POOL)
    reach_expect = {
        pair: oracle.reachable(graph, pair[0], pair[1], REACH_ESEL)
        for pair in reach_pairs
    }
    sp_expect = {pair: oracle.shortest_cost(graph, *pair)
                 for pair in sp_pairs}
    counts: Dict[int, int] = {}
    vertices = sorted(graph.nodes)
    ops = []
    for i in range(total):
        kind = ("count", "reach", "sp")[i % 3]
        if kind == "count":
            start = rng.choice(vertices)
            if start not in counts:
                counts[start] = oracle.count_paths(graph, start, COUNT_LENGTH)
            ops.append(["count", "prep", "count", [start],
                        {"rows": [[counts[start]]]}])
        elif kind == "reach":
            pair = rng.choice(reach_pairs)
            ops.append(["reach", "prep", "reach", [pair[0], pair[1],
                                                   REACH_ESEL],
                        {"path": reach_expect[pair], "ends": list(pair)}])
        else:
            pair = rng.choice(sp_pairs)
            ops.append(["sp", "prep", "sp", list(pair),
                        {"cost": sp_expect[pair]}])
    workload.measured = ops
    return workload


def _graph_update(rng, total, tiny) -> Workload:
    """Edge inserts and deletes kept balanced around the initial edge
    count, vertex-attribute updates, and 2-hop path counts answered from
    the replayed edge state."""
    workload = Workload("graph_update", "single")
    dataset, graph = _road_graph(5 if tiny else 20)
    workload.setup_sql = _GRAPH_DDL + _insert_batches(
        "V", dataset.vertices) + _insert_batches("E", dataset.edges) \
        + [_GRAPH_VIEW]
    vertices = sorted(graph.nodes)
    edges = {eid: (src, dst) for eid, src, dst, *_ in dataset.edges}
    edge_ids = sorted(edges)
    base = len(edges)
    next_eid = max(edges) + 1
    ops = []
    for _ in range(total):
        roll = rng.random()
        if roll < 0.5:
            grow = len(edges) < base or (len(edges) == base and roll < 0.25)
            if grow:
                src, dst = rng.sample(vertices, 2)
                while graph.has_edge(src, dst):
                    src, dst = rng.sample(vertices, 2)
                w = round(rng.uniform(0.2, 3.0), 3)
                esel = rng.randrange(100)
                edges[next_eid] = (src, dst)
                edge_ids.append(next_eid)
                graph.add_edge(src, dst, key=next_eid, w=w, esel=esel)
                ops.append(["write", "sql",
                            f"INSERT INTO E VALUES ({next_eid}, {src}, {dst}, "
                            f"{w!r}, 'local', {esel})", [], {"rowcount": 1}])
                next_eid += 1
            else:
                index = rng.randrange(len(edge_ids))
                edge_ids[index], edge_ids[-1] = edge_ids[-1], edge_ids[index]
                eid = edge_ids.pop()
                src, dst = edges.pop(eid)
                graph.remove_edge(src, dst, key=eid)
                ops.append(["write", "sql",
                            f"DELETE FROM E WHERE eid = {eid}", [],
                            {"rowcount": 1}])
        elif roll < 0.65:
            vid = rng.choice(vertices)
            ops.append(["write", "sql",
                        f"UPDATE V SET vsel = {rng.randrange(100)} "
                        f"WHERE vid = {vid}", [], {"rowcount": 1}])
        else:
            start = rng.choice(vertices)
            ops.append(["graph", "sql",
                        "SELECT COUNT(*) FROM G.Paths PS WHERE "
                        f"PS.StartVertex.Id = {start} AND PS.Length = 2", [],
                        {"rows": [[oracle.count_paths(graph, start, 2)]]}])
    workload.measured = ops
    return workload


_GENERATORS = {
    "kv_oltp": _kv_oltp,
    "graph_reach": _graph_reach,
    "graph_update": _graph_update,
    "routed_oltp": _routed_oltp,
}

WORKLOADS = tuple(_GENERATORS)


def check(op: list, result: Optional[Any]) -> bool:
    """Does ``result`` (a ResultSet) match the op's expected answer?"""
    expect = op[4]
    if "rows" in expect:
        return [list(row) for row in result.rows] == expect["rows"]
    if "rowcount" in expect:
        return result.rowcount == expect["rowcount"]
    if "cost" in expect:
        if len(result.rows) != 1:
            return False
        cost = result.rows[0][0]
        return math.isclose(cost, expect["cost"], rel_tol=1e-9, abs_tol=1e-9)
    if "path" in expect:
        if not expect["path"]:
            return not result.rows
        if len(result.rows) != 1:
            return False
        hops = str(result.rows[0][0]).split("->")
        return [int(hops[0]), int(hops[-1])] == expect["ends"]
    raise ValueError(f"op has no checkable expectation: {op!r}")
