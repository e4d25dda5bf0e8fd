"""The four benchmark workloads, built on the engine's public API only.

Each workload is seeded: ``setup`` and the op stream are pure functions of
the seed, so two runs with one seed send the engine identical inputs.  A
workload separates an op into three steps, and only the second is timed:

* ``make_op(index)`` generates the op's inputs (fresh graphs, scenes or a
  goal) and loads them into engine data structures;
* ``run(op)`` makes the public call(s) the op stands for;
* ``check(op, result)`` compares the answer with an independent oracle
  (:mod:`oracles`) and returns a failure reason or ``None``.

Op kinds name the latency series the report keeps apart: ``eval`` (one
``DatalogProgram.evaluate``), ``query``, ``insert``, ``retract`` and
``calc_dense``, ``calc_linear`` and ``calc_disk`` (one calculus query over
one kind of spatial scene).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import oracles
from oracles import HALF, Edge

from repro.constraints.dense_order import DenseOrderTheory, eq, le
from repro.constraints.real_poly import RealPolynomialTheory, poly_eq, poly_ge, poly_le
from repro.core import calculus
from repro.core.compile import PLAN_CACHE
from repro.core.datalog import DatalogProgram
from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple
from repro.core.ivm import MaterializedView
from repro.core.query import Engine
from repro.geometry.rectangles import Rect, intersecting_pairs_sweepline
from repro.logic import parser
from repro.poly.polynomial import Polynomial

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

STRATIFIED_RULES = TC_RULES + """
Hit(y) :- E(x, y).
Src(x) :- Node(x), not Hit(x).
Root(x, y) :- Src(x), T(x, y).
"""

GOLDEN = (5 ** 0.5 - 1) / 2

OVERLAP_QUERY = "exists x, y . {rel}(n1, x, y) and {rel}(n2, x, y) and n1 != n2"


@dataclass
class Op:
    """One op: its kind, its inputs and whatever the oracle needs."""

    kind: str
    inputs: dict[str, Any] = field(default_factory=dict)


def _rng(seed: int, *stream: object) -> random.Random:
    """An independent generator per (seed, stream) pair."""
    return random.Random(repr((seed,) + stream))


def random_dag(rng: random.Random, nodes: int, base: int, window: int) -> list[Edge]:
    """A point DAG on ``base .. base + nodes - 1``: each node gets up to two
    distinct successors within ``window`` ahead."""
    edges = []
    for node in range(nodes - 1):
        ahead = list(range(node + 1, min(nodes, node + window + 1)))
        for target in sorted(rng.sample(ahead, min(2, len(ahead)))):
            edges.append(Edge(base + node, base + target))
    return edges


def chain_dag(
    rng: random.Random, nodes: int, window: int, interval_share: float
) -> list[Edge]:
    """The path ``0 -> 1 -> ... -> nodes - 1`` plus one skip edge per node.

    Skip lengths run through seeded shuffles of ``2 .. window`` and one edge
    in each run of ``1 / interval_share`` consecutive edges, at a seeded
    place, gets an interval source.  Every node reaches every later node
    and both kinds of variation are spread evenly along the path, so the
    seed changes the derivations but hardly the closure's size or cost."""
    lengths: list[int] = []
    pairs = []
    for node in range(nodes - 1):
        pairs.append((node, node + 1))
        if not lengths:
            lengths = list(range(2, window + 1))
            rng.shuffle(lengths)
        skip = lengths.pop()
        if node + skip < nodes:
            pairs.append((node, node + skip))
    period = round(1 / interval_share)
    edges = []
    for start in range(0, len(pairs), period):
        run = pairs[start:start + period]
        pick = rng.randrange(len(run))
        edges.extend(Edge(a, b, k == pick) for k, (a, b) in enumerate(run))
    return edges


def edge_tuple(edge: Edge) -> GeneralizedTuple:
    if edge.interval:
        atoms = (le(edge.source, "x"), le("x", edge.source + HALF), eq("y", edge.target))
    else:
        atoms = (eq("x", edge.source), eq("y", edge.target))
    return GeneralizedTuple(("x", "y"), atoms)


def edge_database(
    theory: DenseOrderTheory, edges: list[Edge], nodes: range | None = None
) -> GeneralizedDatabase:
    database = GeneralizedDatabase(theory)
    relation = database.create_relation("E", ("x", "y"))
    for edge in edges:
        relation.add(edge_tuple(edge))
    if nodes is not None:
        node = database.create_relation("Node", ("x",))
        for value in nodes:
            node.add_point([value])
    return database


class Workload:
    """Base class: seeded set-up, op generation, timed call, oracle check."""

    name = ""
    #: ops of a traced run, and the op after which a timed run reads its
    #: peak memory: a fixed count, so per-layer counts repeat exactly and a
    #: faster engine, running more ops, is not charged for more memory
    fixed_ops = 1
    #: a timed run stops only after a multiple of this many ops
    round_ops = 1
    #: consecutive ops that make one request, the unit of the op_cost
    #: metrics; round_ops and fixed_ops are multiples of it
    request_ops = 1
    #: with request_ops > 1, the report names the request latency after this
    request_kind = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: (hits, misses) of theory caches the workload no longer holds
        self._retired = (0, 0)

    def setup(self) -> None:
        raise NotImplementedError

    def make_op(self, index: int) -> Op:
        raise NotImplementedError

    def run(self, op: Op) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any) -> str | None:
        raise NotImplementedError

    def theories(self) -> list[Any]:
        """The theory instances the workload holds (for cache counters)."""
        return []

    def retire(self, theory: Any) -> None:
        """Keep the cache counts of a theory the workload is dropping."""
        hits, misses = self._retired
        self._retired = (hits + theory.cache.stats.hits, misses + theory.cache.stats.misses)

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) of every theory cache the workload has used."""
        hits, misses = self._retired
        for theory in self.theories():
            hits += theory.cache.stats.hits
            misses += theory.cache.stats.misses
        return hits, misses

    def counters(self) -> dict[str, int]:
        """Per-layer counts read off engine objects rather than return values."""
        return {}

    def close(self) -> None:
        """Release executors and caches the set-up created."""


# ------------------------------------------------------------- fixpoints
class TcFixpoint(Workload):
    """``evaluate`` of dense-order TC over a fresh random point DAG per op.

    Each op's database gets its own theory instance, as a fresh request
    would: its constants are new, so a shared cache could only grow, not
    hit, and a run's later ops would pay for the earlier ops' garbage.
    The program keeps one theory, so its compiled plan stays warm."""

    name = "tc_fixpoint"
    rules = TC_RULES
    nodes = 30
    window = 5
    fixed_ops = 40

    def setup(self) -> None:
        PLAN_CACHE.clear()
        self.theory = DenseOrderTheory()
        self.data_theory: DenseOrderTheory | None = None
        self.program = DatalogProgram(parser.parse_rules(self.rules, self.theory), self.theory)
        warm = self.make_op(-1)
        self.check(warm, self.run(warm))

    def theories(self) -> list[Any]:
        return [self.theory] + ([self.data_theory] if self.data_theory else [])

    def _graph_nodes(self, base: int) -> range | None:
        return None

    def make_op(self, index: int) -> Op:
        # a fresh constant range per graph, so no two ops share solver work
        base = 1000 * (index + 2)
        edges = random_dag(_rng(self.seed, "graph", index), self.nodes, base, self.window)
        nodes = self._graph_nodes(base)
        if self.data_theory is not None:
            self.retire(self.data_theory)
        self.data_theory = DenseOrderTheory()
        database = edge_database(self.data_theory, edges, nodes)
        return Op("eval", {"edges": edges, "nodes": nodes, "database": database})

    def run(self, op: Op) -> Any:
        world, stats = self.program.evaluate(op.inputs["database"])
        return world, stats

    def check(self, op: Op, result: Any) -> str | None:
        world, stats = result
        if stats.incomplete:
            return "evaluation tagged incomplete"
        return oracles.check_closure(world.relation("T"), op.inputs["edges"])


class StratifiedFixpoint(TcFixpoint):
    """The same graphs through the stratified evaluation and the complement path.

    ``make_op`` is inherited and draws the graph from the same seeded stream,
    so both fixpoint workloads see identical graphs for one seed."""

    name = "stratified_fixpoint"
    rules = STRATIFIED_RULES
    fixed_ops = 12

    def _graph_nodes(self, base: int) -> range | None:
        return range(base, base + self.nodes)

    def check(self, op: Op, result: Any) -> str | None:
        world, stats = result
        if stats.incomplete:
            return "evaluation tagged incomplete"
        return oracles.check_stratified(world, op.inputs["edges"], op.inputs["nodes"])


# ---------------------------------------------------------- query/update
@dataclass(frozen=True)
class Goal:
    """``T(c, y)`` (``low == high``, not strict) or ``T(x, y), low < x, x < high``."""

    low: Fraction
    high: Fraction
    strict: bool

    def text(self) -> str:
        if not self.strict:
            return f"T({self.low}, y)"
        return f"T(x, y), {self.low} < x, x < {self.high}"


def constant_goal(node: int) -> Goal:
    return Goal(Fraction(node), Fraction(node), False)


def interval_goal(node: int, width: int) -> Goal:
    """Sources ``node .. node + width - 1`` plus the ends of their ranges."""
    quarter = Fraction(1, 4)
    return Goal(node - quarter, node + width - 1 + 3 * quarter, True)


class QueryUpdateMix(Workload):
    """Bound queries and edge updates over one live materialized TC view."""

    name = "query_update_mix"
    nodes = 26
    window = 5
    interval_share = 0.2
    #: one update per block of this many ops
    block = 10
    #: share of queries drawn from the hot set
    hot_share = 0.35
    round_ops = 20
    fixed_ops = 60

    def setup(self) -> None:
        PLAN_CACHE.clear()
        self.theory = DenseOrderTheory()
        rng = _rng(self.seed, self.name, "graph")
        self.edges = chain_dag(rng, self.nodes, self.window, self.interval_share)
        database = edge_database(self.theory, self.edges)
        program = DatalogProgram(parser.parse_rules(TC_RULES, self.theory), self.theory)
        self.view = MaterializedView(program, database)
        self.engine = Engine.from_view(self.view)
        # two hot clusters, a third and two thirds along the path: a wide
        # range, a narrower range inside it and constants inside both, so
        # exact and containment reuse can hit
        wide = self.nodes // 3 + rng.randint(-1, 1)
        other = 2 * self.nodes // 3 + rng.randint(-1, 1)
        self.hot = [
            interval_goal(wide, 4),
            constant_goal(wide + 1),
            interval_goal(wide + 1, 2),
            constant_goal(other),
            interval_goal(other, 3),
            constant_goal(wide + 2),
        ]
        self.hot_weights = [1 / (rank + 1) for rank in range(len(self.hot))]
        self.ops_rng = _rng(self.seed, self.name, "ops")
        self.retracted: tuple[int, Edge] | None = None
        self.stride = rng.random()
        warm = Op("query", {"goal": self.hot[0]})
        self.check(warm, self.run(warm))
        self.engine.cache.clear()

    def theories(self) -> list[Any]:
        return [self.theory]

    def counters(self) -> dict[str, int]:
        return {"query.invalidations": self.engine.cache.invalidations}

    def close(self) -> None:
        self.view.close()

    def _update_slot(self, block: int) -> int:
        return _rng(self.seed, self.name, "slot", block).randrange(self.block)

    def make_op(self, index: int) -> Op:
        rng = self.ops_rng
        if index % self.block == self._update_slot(index // self.block):
            # retract an edge, then put it back at the next update: inserts
            # and retracts stay equal and the graph stays the seeded one.
            # Golden-ratio strides spread the retracted edges evenly over the
            # path, so a run's mean retract cost varies little between seeds
            if self.retracted is None:
                self.stride += GOLDEN
                position = int(len(self.edges) * (self.stride % 1.0))
                self.retracted = (position, self.edges.pop(position))
                return Op("retract", {"edge": self.retracted[1]})
            (position, edge), self.retracted = self.retracted, None
            self.edges.insert(position, edge)
            return Op("insert", {"edge": edge})
        if rng.random() < self.hot_share:
            goal = rng.choices(self.hot, weights=self.hot_weights)[0]
        elif rng.random() < 0.5:
            goal = constant_goal(rng.randrange(self.nodes))
        else:
            goal = interval_goal(rng.randrange(self.nodes - 3), rng.randint(1, 3))
        return Op("query", {"goal": goal})

    def run(self, op: Op) -> Any:
        if op.kind == "query":
            return self.engine.query(op.inputs["goal"].text())
        item = edge_tuple(op.inputs["edge"])
        if op.kind == "insert":
            return self.view.insert("E", item)
        return self.view.retract("E", item)

    def check(self, op: Op, result: Any) -> str | None:
        if self.view.stale:
            return f"view stale: {self.view.stale_reason}"
        stats = result.stats if op.kind == "query" else result
        if stats.incomplete:
            return "result tagged incomplete"
        if op.kind == "query":
            goal = op.inputs["goal"]
            return oracles.check_bound_query(
                result.relation, self.edges, goal.low, goal.high, goal.strict
            )
        if len(self.view.relation("E")) != len(self.edges):
            return f"E holds {len(self.view.relation('E'))} edges, expected {len(self.edges)}"
        # the maintained closure itself, over every source
        return oracles.check_bound_query(
            self.view.relation("T"), self.edges, Fraction(-1), Fraction(self.nodes), True
        )


# -------------------------------------------------------------- spatial
def _poly_rect_atoms(rect: Rect) -> list[Any]:
    x, y, n = (Polynomial.variable(v) for v in ("x", "y", "n"))
    return [
        poly_eq(n, Polynomial.constant(Fraction(rect.name))),
        poly_ge(x, Polynomial.constant(rect.x1)),
        poly_le(x, Polynomial.constant(rect.x2)),
        poly_ge(y, Polynomial.constant(rect.y1)),
        poly_le(y, Polynomial.constant(rect.y2)),
    ]


def random_rects(rng: random.Random, count: int, universe: int, side: int) -> list[Rect]:
    rects = []
    for name in range(count):
        x1 = Fraction(rng.randrange(universe))
        y1 = Fraction(rng.randrange(universe))
        rects.append(
            Rect(name, x1, y1, x1 + rng.randrange(1, side), y1 + rng.randrange(1, side))
        )
    return rects


class SpatialCalculus(Workload):
    """Overlap requests over fresh scenes (Ex 1.1, Thm 2.3), one query per op.

    Every scene has a dense, a linear and a disk part; ops ``3k``, ``3k + 1``
    and ``3k + 2`` query the three parts of scene ``k`` and make one request.
    Each op is one ``evaluate_calculus`` call, so the runner can time the
    reference loop between the three queries of a request.  As in
    :class:`TcFixpoint`, each scene's databases get their own theory
    instances; the queries are parsed once at set-up."""

    name = "spatial_calculus"
    kinds = ("dense", "linear", "disk")
    dense_rects = 28
    linear_rects = 14
    disks = 3
    universe = 200
    side = 60
    fixed_ops = 24
    round_ops = 3
    request_ops = 3
    request_kind = "calc"

    def setup(self) -> None:
        PLAN_CACHE.clear()
        self.order = DenseOrderTheory()
        self.poly = RealPolynomialTheory()
        self.scene_theories: list[Any] = []
        self.scene: tuple[int, dict[str, Any]] | None = None
        self.queries = {
            "dense": parser.parse_query(OVERLAP_QUERY.format(rel="Rect"), self.order),
            "linear": parser.parse_query(OVERLAP_QUERY.format(rel="Rect"), self.poly),
            "disk": parser.parse_query(OVERLAP_QUERY.format(rel="Disk"), self.poly),
        }
        for index in range(-len(self.kinds), 0):
            warm = self.make_op(index)
            self.check(warm, self.run(warm))

    def theories(self) -> list[Any]:
        return [self.order, self.poly] + self.scene_theories

    def make_op(self, index: int) -> Op:
        number, part = divmod(index, len(self.kinds))
        if self.scene is None or self.scene[0] != number:
            self.scene = (number, self.make_scene(number))
        kind = self.kinds[part]
        return Op(f"calc_{kind}", {"kind": kind, **self.scene[1][kind]})

    def make_scene(self, number: int) -> dict[str, Any]:
        """The three parts of scene ``number``: databases and oracle inputs."""
        for theory in self.scene_theories:
            self.retire(theory)
        order, poly = DenseOrderTheory(), RealPolynomialTheory()
        self.scene_theories = [order, poly]
        rng = _rng(self.seed, self.name, number)
        dense = random_rects(rng, self.dense_rects, self.universe, self.side)
        linear = random_rects(rng, self.linear_rects, self.universe, self.side)
        dense_db = GeneralizedDatabase(order)
        relation = dense_db.create_relation("Rect", ("n", "x", "y"))
        for rect in dense:
            relation.add_tuple(
                [eq("n", rect.name), le(rect.x1, "x"), le("x", rect.x2),
                 le(rect.y1, "y"), le("y", rect.y2)]
            )
        linear_db = GeneralizedDatabase(poly)
        relation = linear_db.create_relation("Rect", ("n", "x", "y"))
        for rect in linear:
            relation.add_tuple(_poly_rect_atoms(rect))
        # disks of radius 1 with centres 3/2 apart along the x axis
        names = list(range(self.disks))
        rng.shuffle(names)
        cx = Fraction(rng.randrange(-50, 50))
        cy = Fraction(rng.randrange(-50, 50))
        disk_db = GeneralizedDatabase(poly)
        relation = disk_db.create_relation("Disk", ("n", "x", "y"))
        x, y, n = (Polynomial.variable(v) for v in ("x", "y", "n"))
        for position, name in enumerate(names):
            px = cx + position * Fraction(3, 2)
            relation.add_tuple([poly_eq(n, name), poly_le((x - px) ** 2 + (y - cy) ** 2, 1)])
        return {
            "dense": {
                "database": dense_db,
                "names": [r.name for r in dense],
                "pairs": intersecting_pairs_sweepline(dense),
            },
            "linear": {
                "database": linear_db,
                "names": [r.name for r in linear],
                "pairs": intersecting_pairs_sweepline(linear),
            },
            "disk": {
                "database": disk_db,
                "names": names,
                "pairs": oracles.adjacent_disk_pairs(names),
            },
        }

    def run(self, op: Op) -> Any:
        kind = op.inputs["kind"]
        return {
            kind: calculus.evaluate_calculus(
                self.queries[kind], op.inputs["database"], output=("n1", "n2"), name=kind
            )
        }

    def check(self, op: Op, result: Any) -> str | None:
        kind = op.inputs["kind"]
        reason = oracles.check_pairs(result[kind], op.inputs["names"], op.inputs["pairs"])
        return None if reason is None else f"{kind}: {reason}"


WORKLOADS: dict[str, Callable[[int], Workload]] = {
    cls.name: cls
    for cls in (TcFixpoint, StratifiedFixpoint, QueryUpdateMix, SpatialCalculus)
}
