"""The per-round join planner: order quality, determinism, delta safety."""

import random
from fractions import Fraction

from repro.constraints.dense_order import DenseOrderTheory
from repro.core.compile import plan_order
from repro.core.datalog import DatalogProgram, EngineOptions, EvaluationStats
from repro.core.generalized import GeneralizedDatabase
from repro.logic.parser import parse_rules
from repro.logic.syntax import RelationAtom

theory = DenseOrderTheory()


def _program(rules_text, **options):
    return DatalogProgram(
        parse_rules(rules_text, theory=theory),
        theory,
        options=EngineOptions(**options),
    )


class TestPlanOrder:
    def _plan(self, atoms, sizes, pinned=()):
        program = _program("T(x, y) :- E(x, y).")
        return program._plan(atoms, sizes, set(pinned), EvaluationStats())

    def test_smaller_source_first_when_disconnected(self):
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("u", "v"))]
        assert self._plan(atoms, [100, 3]) == [1, 0]

    def test_connectivity_beats_size(self):
        # after A(x,y), C shares y while B shares nothing -- C goes next
        # even though it is larger
        atoms = [
            RelationAtom("A", ("x", "y")),
            RelationAtom("B", ("u", "v")),
            RelationAtom("C", ("y", "z")),
        ]
        assert self._plan(atoms, [1, 2, 50]) == [0, 2, 1]

    def test_pinned_constants_seed_connectivity(self):
        # u is pinned by a constraint atom, so B counts as connected at the
        # root and leads despite equal sizes
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("u", "v"))]
        assert self._plan(atoms, [5, 5], pinned={"u"}) == [1, 0]

    def test_deterministic_tie_break(self):
        atoms = [RelationAtom("A", ("x", "y")), RelationAtom("B", ("x", "z"))]
        assert self._plan(atoms, [5, 5]) == [0, 1]

    def test_connectivity_tie_puts_delta_first(self):
        # T(x, z), E(z, y): nothing bound at the root, so both atoms tie on
        # connectivity; the delta leads even when it is the larger source
        args = [("x", "z"), ("z", "y")]
        assert plan_order(args, [76, 57], set(), delta=0) == [0, 1]
        assert plan_order(args, [57, 76], set(), delta=1) == [1, 0]
        # without a delta slot the smaller source still leads
        assert plan_order(args, [76, 57], set()) == [1, 0]

    def test_connectivity_beats_delta(self):
        # a pinned variable makes B the only connected atom at the root
        args = [("x", "y"), ("u", "v")]
        assert plan_order(args, [1, 9], {"u"}, delta=0) == [1, 0]

    def test_interpreter_plan_passes_delta(self):
        atoms = [RelationAtom("T", ("x", "z")), RelationAtom("E", ("z", "y"))]
        assert self._plan(atoms, [76, 57]) == [1, 0]
        program = _program("T(x, y) :- E(x, y).")
        stats = EvaluationStats()
        assert program._plan(atoms, [76, 57], set(), stats, 0) == [0, 1]

    def test_single_atom_not_counted_as_plan(self):
        stats = EvaluationStats()
        program = _program("T(x, y) :- E(x, y).")
        assert program._plan([RelationAtom("E", ("x", "y"))], [9], set(), stats) == [0]
        assert stats.plans_built == 0


class TestPlannerInEngine:
    RULES = """
    T(x, y) :- E(x, y).
    T(x, y) :- T(x, z), E(z, y).
    """

    def _chain(self, n):
        db = GeneralizedDatabase(theory)
        edges = db.create_relation("E", ("x", "y"))
        for i in range(n):
            edges.add_point([Fraction(i), Fraction(i + 1)])
        return db

    def test_replans_every_round_and_counts(self):
        program = _program(self.RULES, index_probes=False)
        _world, stats = self._run(program)
        # one plan per multi-atom rule firing per round
        assert stats.plans_built >= stats.iterations - 1
        assert stats.plan_reorders >= 0

    def test_delta_restriction_survives_reordering(self):
        # the recursive rule lists T first; whenever the planner moves E
        # ahead of the delta-bound T, the fixpoint must not change
        planned = _program(self.RULES)
        baseline = _program(self.RULES, join_planner=False)
        world_a, stats_a = self._run(planned)
        world_b, _stats_b = self._run(baseline)
        fp = lambda w: frozenset(t.atoms for t in w.relation("T"))
        assert fp(world_a) == fp(world_b)
        assert stats_a.plans_built > 0

    def _run(self, program):
        return program.evaluate(self._chain(8))


def _seeded_dag(seed, nodes=30, window=5):
    """Each node gets two distinct successors within ``window`` ahead."""
    rng = random.Random(seed)
    edges = []
    for node in range(nodes - 1):
        ahead = list(range(node + 1, min(nodes, node + window + 1)))
        for target in sorted(rng.sample(ahead, min(2, len(ahead)))):
            edges.append((node, target))
    return edges


class TestDeltaDrivenJoinCost:
    """Semi-naive TC costs in proportion to what it derives.

    With the delta scanned at the outermost level and ``E`` probed on the
    join variable, every join step meets a candidate that extends the
    match; a relation-first order rescans the delta per ``E`` tuple and
    prunes nearly every step on a pin conflict.
    """

    RULES = TestPlannerInEngine.RULES

    @staticmethod
    def _database(edges):
        db = GeneralizedDatabase(theory)
        relation = db.create_relation("E", ("x", "y"))
        for source, target in edges:
            relation.add_point([Fraction(source), Fraction(target)])
        return db

    def test_join_steps_within_twice_derived(self):
        edges = _seeded_dag(1)
        for compile_rules in (True, False):
            program = _program(self.RULES, compile_rules=compile_rules)
            world, stats = program.evaluate(self._database(edges))
            assert stats.join_steps <= 2 * stats.tuples_derived
            assert stats.pin_prunes == 0
            reach = {(s, t) for s, t in edges}
            while True:
                grown = reach | {
                    (a, d) for a, b in reach for c, d in edges if b == c
                }
                if grown == reach:
                    break
                reach = grown
            assert len(world.relation("T")) == len(reach)
