"""The rule compiler: PlanCache lifecycle, IR rendering, budget parity.

The equivalence matrix (compiled vs. interpreted fixpoints across theories
and semantics) lives in ``test_compile_equivalence.py``; this module covers
the cache machinery itself -- the prepared-query pattern the server relies
on -- plus the lowered-IR pretty printer and the budget-tick contract.
"""

from dataclasses import replace

import pytest

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.compile import PLAN_CACHE, PlanCache, render_plan
from repro.core.datalog import DatalogProgram, EngineOptions, EvaluationStats
from repro.core.generalized import GeneralizedDatabase
from repro.errors import BudgetExceededError
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget

TC_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""


@pytest.fixture(autouse=True)
def _fresh_cache():
    PLAN_CACHE.clear()
    yield
    PLAN_CACHE.clear()


def _chain_db(theory, n):
    db = GeneralizedDatabase(theory)
    edge = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edge.add_point([i, i + 1])
    return db


def _program(theory, options=None, rules_text=TC_RULES):
    rules = parse_rules(rules_text, theory=theory)
    return DatalogProgram(rules, theory, options=options or EngineOptions.all_on())


class TestPlanCache:
    def test_cold_then_warm(self):
        theory = DenseOrderTheory()
        program = _program(theory)
        _, cold = program.evaluate(_chain_db(theory, 4))
        assert (cold.compile_hits, cold.compile_misses) == (0, 1)
        assert cold.compiled_rules > 0  # variants were lowered
        _, warm = program.evaluate(_chain_db(theory, 4))
        assert (warm.compile_hits, warm.compile_misses) == (1, 0)
        assert warm.compiled_rules == 0  # nothing re-lowered on a hit
        assert PLAN_CACHE.stats()["entries"] == 1

    def test_warm_across_program_objects(self):
        # the shell re-parses rules on every .run: a *different*
        # DatalogProgram with the same rule text, schema, options, and
        # theory instance must hit the same cache entry
        theory = DenseOrderTheory()
        _program(theory).evaluate(_chain_db(theory, 4))
        _, stats = _program(theory).evaluate(_chain_db(theory, 4))
        assert (stats.compile_hits, stats.compile_misses) == (1, 0)
        assert PLAN_CACHE.stats()["entries"] == 1

    def test_rule_edit_recompiles(self):
        theory = DenseOrderTheory()
        _program(theory).evaluate(_chain_db(theory, 4))
        edited = TC_RULES + "U(x) :- T(x, y).\n"
        _, stats = _program(theory, rules_text=edited).evaluate(
            _chain_db(theory, 4)
        )
        assert (stats.compile_hits, stats.compile_misses) == (0, 1)
        assert stats.compiled_rules > 0
        assert PLAN_CACHE.stats()["entries"] == 2  # both programs cached

    def test_theory_instance_keys_the_entry(self):
        # constraint theories carry mutable solver caches, so compiled
        # closures are only valid for the instance they closed over
        a, b = DenseOrderTheory(), DenseOrderTheory()
        _program(a).evaluate(_chain_db(a, 4))
        _, stats = _program(b).evaluate(_chain_db(b, 4))
        assert (stats.compile_hits, stats.compile_misses) == (0, 1)

    def test_options_change_invalidates_stale_closures(self):
        # the stale-closure hazard: closures bake in probe/filter choices,
        # so an EngineOptions change between evaluations must evict and
        # re-lower, never reuse
        theory = DenseOrderTheory()
        on = EngineOptions.all_on()
        off_probes = replace(on, index_probes=False)
        _program(theory, on).evaluate(_chain_db(theory, 4))
        _, stats = _program(theory, off_probes).evaluate(_chain_db(theory, 4))
        assert stats.compile_invalidations == 1
        assert (stats.compile_hits, stats.compile_misses) == (0, 1)
        # the stale all_on entry was evicted, not kept alongside
        assert PLAN_CACHE.stats()["entries"] == 1
        # steady state under the new options is a plain hit again
        _, again = _program(theory, off_probes).evaluate(_chain_db(theory, 4))
        assert (again.compile_hits, again.compile_invalidations) == (1, 0)
        # and flipping back invalidates once more
        _, back = _program(theory, on).evaluate(_chain_db(theory, 4))
        assert back.compile_invalidations == 1

    def test_compile_rules_off_bypasses_cache(self):
        theory = DenseOrderTheory()
        options = replace(EngineOptions.all_on(), compile_rules=False)
        _, stats = _program(theory, options).evaluate(_chain_db(theory, 4))
        assert stats.compile_misses == 0 and stats.compiled_firings == 0
        assert PLAN_CACHE.stats()["entries"] == 0

    def test_all_off_disables_compilation(self):
        theory = DenseOrderTheory()
        _, stats = _program(theory, EngineOptions.all_off()).evaluate(
            _chain_db(theory, 4)
        )
        assert stats.compiled_firings == 0 and stats.fastpath_leaves == 0

    def test_lru_bound(self):
        cache = PlanCache(maxsize=2)
        theory = DenseOrderTheory()
        programs = [
            _program(theory, rules_text=TC_RULES + f"U{i}(x) :- T(x, y).\n")
            for i in range(3)
        ]
        for program in programs:
            cache.fetch(program)
        assert len(cache) == 2
        # the oldest entry was evicted: fetching it again is a miss
        _, hit, _ = cache.fetch(programs[0])
        assert not hit
        _, hit, _ = cache.fetch(programs[2])
        assert hit


class TestCompiledFiringStats:
    def test_compiled_firings_and_fastpath_counted(self):
        theory = DenseOrderTheory()
        world, stats = _program(theory).evaluate(_chain_db(theory, 6))
        assert stats.compiled_firings > 0
        # a ground chain is all-points: every derived tuple takes the
        # point-emit leaf, skipping quantifier elimination entirely
        assert stats.fastpath_leaves == stats.tuples_derived > 0
        assert len(world.relation("T")) == 6 * 7 // 2

    def test_equality_theory_also_fastpaths(self):
        theory = EqualityTheory()
        _, stats = _program(theory).evaluate(_chain_db(theory, 5))
        assert stats.fastpath_leaves > 0


class TestStatsMerge:
    def test_merge_is_additive(self):
        a = EvaluationStats(join_steps=3, rule_firings=1, index_probes=2)
        b = EvaluationStats(join_steps=4, rule_firings=5, pin_prunes=7)
        a.merge(b)
        assert a.join_steps == 7
        assert a.rule_firings == 6
        assert a.index_probes == 2
        assert a.pin_prunes == 7

    def test_merge_leaves_round_bookkeeping_alone(self):
        a = EvaluationStats(iterations=2, per_round_new=[1])
        a.merge(EvaluationStats(iterations=9, per_round_new=[5, 5]))
        assert a.iterations == 2
        assert a.per_round_new == [1]

    def test_merge_folds_compiler_counters(self):
        a, b = EvaluationStats(), EvaluationStats()
        for stats, base in ((a, 1), (b, 10)):
            stats.compile_hits = base
            stats.compile_misses = base + 1
            stats.compile_invalidations = base + 2
            stats.compiled_rules = base + 3
            stats.compiled_firings = base + 4
            stats.fastpath_leaves = base + 5
            stats.compile_seconds = base / 10
        a.merge(b)
        assert a.compile_hits == 11
        assert a.compile_misses == 13
        assert a.compile_invalidations == 15
        assert a.compiled_rules == 17
        assert a.compiled_firings == 19
        assert a.fastpath_leaves == 21
        assert a.compile_seconds == pytest.approx(1.1)

    def test_as_dict_exposes_compiler_counters(self):
        exposed = EvaluationStats().as_dict()
        for key in (
            "compile_hits",
            "compile_misses",
            "compile_invalidations",
            "compiled_rules",
            "compiled_firings",
            "fastpath_leaves",
            "compile_seconds",
        ):
            assert key in exposed


class TestRenderPlan:
    def test_render_shows_order_steps_and_leaf(self):
        theory = DenseOrderTheory()
        program = _program(theory)
        world, _ = program.evaluate(_chain_db(theory, 4))
        text = render_plan(program, program.rules[1], world)
        assert "rule: T(x, y) :- T(x, z), E(z, y)" in text
        assert "order: [" in text
        assert "step 0:" in text and "step 1:" in text
        assert "leaf:" in text
        assert "sizes: T=10, E=4" in text

    def test_planner_off_keeps_program_order(self):
        theory = DenseOrderTheory()
        options = replace(EngineOptions.all_on(), join_planner=False)
        program = _program(theory, options)
        text = render_plan(program, program.rules[1], None)
        assert "order: [0, 1]" in text

    def test_planner_reorders_on_live_sizes(self):
        # E is tiny, T huge after closure over a denser graph: the greedy
        # planner starts from the smaller relation
        theory = DenseOrderTheory()
        program = _program(theory)
        world, _ = program.evaluate(_chain_db(theory, 8))
        assert len(world.relation("T")) > len(world.relation("E"))
        text = render_plan(program, program.rules[1], world)
        assert "order: [1, 0]" in text  # E (position 1) scans first


class TestBudgetTickParity:
    """Compiled loops tick the shared meter exactly like interpreted ones."""

    def _trip(self, budget, compile_rules):
        theory = DenseOrderTheory()
        options = replace(
            EngineOptions.all_on(), budget=budget, compile_rules=compile_rules
        )
        with pytest.raises(BudgetExceededError) as info:
            _program(theory, options).evaluate(_chain_db(theory, 20))
        return info.value.report

    @pytest.mark.parametrize(
        "budget",
        [Budget(joins=17), Budget(tuples=9), Budget(rounds=3)],
        ids=["joins", "tuples", "rounds"],
    )
    def test_same_trip_counts(self, budget):
        compiled = self._trip(budget, compile_rules=True)
        interpreted = self._trip(budget, compile_rules=False)
        assert compiled.budget_kind == interpreted.budget_kind
        assert compiled.counts == interpreted.counts
