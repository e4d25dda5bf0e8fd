"""Graceful degradation of the Datalog fixpoint under budgets.

The soundness claim under test (see ``DatalogProgram.evaluate``): every
stage of the inflationary/semi-naive iteration is a subset of the final
fixpoint (Thm 3.14.2 semantics), so a budget-killed run in ``"fringe"``
mode returns a *sound under-approximation* -- every returned tuple is in
the unbudgeted answer.
"""

from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase
from repro.errors import BudgetExceededError
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget, metered
from repro.workloads.orders import chain_edges

order = DenseOrderTheory()

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


def _chain_db(n):
    db = GeneralizedDatabase(order)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    return db


def _atom_sets(relation):
    return {frozenset(item.atoms) for item in relation}


def _evaluate(db, budget=None, **evaluate_kwargs):
    rules = parse_rules(TC_RULES, theory=order)
    program = DatalogProgram(rules, order, options=EngineOptions(budget=budget))
    return program.evaluate(db, **evaluate_kwargs)


class TestRaiseMode:
    def test_rounds_budget_raises_with_report(self):
        with pytest.raises(BudgetExceededError) as info:
            _evaluate(_chain_db(20), budget=Budget(rounds=3))
        report = info.value.report
        assert report.budget_kind == "rounds"
        assert report.counts["round"] == 4

    def test_tuple_budget_raises(self):
        with pytest.raises(BudgetExceededError) as info:
            _evaluate(_chain_db(20), budget=Budget(tuples=10))
        assert info.value.report.budget_kind == "tuples"

    def test_generous_budget_changes_nothing(self):
        world, stats = _evaluate(
            _chain_db(6), budget=Budget(rounds=1000, tuples=100000)
        )
        baseline, _ = _evaluate(_chain_db(6))
        assert _atom_sets(world.relation("T")) == _atom_sets(
            baseline.relation("T")
        )
        assert not stats.incomplete


class TestFringeMode:
    def test_partial_is_sound_subset(self):
        full_world, full_stats = _evaluate(_chain_db(20))
        part_world, part_stats = _evaluate(
            _chain_db(20), budget=Budget(rounds=3, partial_results="fringe")
        )
        full = _atom_sets(full_world.relation("T"))
        part = _atom_sets(part_world.relation("T"))
        assert part < full  # strictly fewer tuples, all of them sound
        assert part_stats.incomplete
        assert not full_stats.incomplete
        assert part_stats.budget["budget_kind"] == "rounds"

    def test_partial_contains_all_base_edges(self):
        world, stats = _evaluate(
            _chain_db(12), budget=Budget(rounds=2, partial_results="fringe")
        )
        t = world.relation("T")
        for i in range(12):
            assert t.contains_values([Fraction(i), Fraction(i + 1)])
        assert stats.incomplete

    def test_stats_budget_payload_is_structured(self):
        _world, stats = _evaluate(
            _chain_db(20), budget=Budget(tuples=15, partial_results="fringe")
        )
        assert stats.incomplete
        payload = stats.budget
        assert payload["budget_kind"] == "tuples"
        assert payload["scope"] == "global"
        assert payload["counts"]["tuple"] >= 15
        assert stats.as_dict()["incomplete"] is True

    def test_fringe_mode_under_naive_order(self):
        full_world, _ = _evaluate(_chain_db(15))
        part_world, part_stats = _evaluate(
            _chain_db(15),
            budget=Budget(rounds=2, partial_results="fringe"),
            semi_naive=False,
        )
        assert _atom_sets(part_world.relation("T")) <= _atom_sets(
            full_world.relation("T")
        )
        assert part_stats.incomplete

    def test_interval_tuples_fringe_is_sound(self):
        db = GeneralizedDatabase(order)
        edge = db.create_relation("E", ("x", "y"))
        for i in range(8):
            edge.add_tuple([le(i, "x"), lt("x", "y"), le("y", i + 1)])
        full_world, _ = _evaluate(db)

        db2 = GeneralizedDatabase(order)
        edge2 = db2.create_relation("E", ("x", "y"))
        for i in range(8):
            edge2.add_tuple([le(i, "x"), lt("x", "y"), le("y", i + 1)])
        part_world, part_stats = _evaluate(
            db2, budget=Budget(rounds=2, partial_results="fringe")
        )
        assert part_stats.incomplete
        assert _atom_sets(part_world.relation("T")) <= _atom_sets(
            full_world.relation("T")
        )


class TestJoinBudget:
    """Join budgets on a program with a three-way join beside the closure."""

    RULES = TC_RULES + "S(x, w) :- E(x, y), T(y, z), E(z, w).\n"

    def _evaluate(self, n=10, budget=None):
        rules = parse_rules(self.RULES, theory=order)
        program = DatalogProgram(rules, order, options=EngineOptions(budget=budget))
        return program.evaluate(chain_edges(n))

    def test_join_budget_raises_with_report(self):
        with pytest.raises(BudgetExceededError) as excinfo:
            self._evaluate(budget=Budget(joins=40))
        assert excinfo.value.report.budget_kind == "joins"

    def test_join_fringe_is_sound_subset(self):
        budget = Budget(joins=40, partial_results="fringe")
        world, stats = self._evaluate(budget=budget)
        assert stats.incomplete
        assert stats.budget["budget_kind"] == "joins"
        full, _ = self._evaluate()
        for name in ("T", "S"):
            assert _atom_sets(world.relation(name)) <= _atom_sets(full.relation(name))

    def test_join_ticks_reach_shared_meter(self):
        # built outside the meter: construction-time analysis ticks too
        rules = parse_rules(self.RULES, theory=order)
        program = DatalogProgram(rules, order, options=EngineOptions())
        meter = Budget(partial_results="fringe").start()
        with metered(meter):
            _world, stats = program.evaluate(chain_edges(6))
        assert meter.counts["join"] == stats.join_steps


class TestDeadlineAcceptance:
    """The ISSUE.md acceptance criterion: a dense-order transitive-closure
    query that runs for seconds unbudgeted returns a sound partial fringe
    under a 50 ms deadline."""

    N = 55  # long chain: the full closure has N*(N+1)/2 tuples

    def test_deadline_yields_sound_partial_fringe(self):
        part_world, part_stats = _evaluate(
            _chain_db(self.N),
            budget=Budget(deadline_seconds=0.05, partial_results="fringe"),
        )
        assert part_stats.incomplete
        assert part_stats.budget["budget_kind"] == "deadline"

        full_world, full_stats = _evaluate(_chain_db(self.N))
        assert not full_stats.incomplete
        part = _atom_sets(part_world.relation("T"))
        full = _atom_sets(full_world.relation("T"))
        assert part < full
        # the fringe made real progress before the deadline
        assert len(part) >= self.N
