"""Property tests: every engine configuration computes the reference fixpoint.

The compiled closures (:mod:`repro.core.compile`) are the engine's only join
executor.  These tests check them against the naive reference evaluator
(:mod:`repro.core.reference`), which fires every rule over the cartesian
product of its body tuples straight from the paper's definition, across
all four theories and all three semantics (auto, stratified, inflationary),
under naive and semi-naive iteration, with every ablation layer on and
with every one off.  A fringe run cut short by a budget must be a sound
under-approximation of the reference fixpoint.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.core.calculus import relation_complement_dnf
from repro.core.datalog import DatalogProgram, EngineOptions
from repro.core.generalized import GeneralizedDatabase
from repro.core.reference import evaluate_reference
from repro.logic.parser import parse_rules
from repro.runtime.budget import Budget

POSITIVE_RULES = """
T(x, y) :- E(x, y).
T(x, y) :- T(x, z), E(z, y).
"""

NEGATION_RULES = POSITIVE_RULES + """
U(x, y) :- V(x), V(y), not T(x, y).
"""

SEMANTICS = ("auto", "stratified", "inflationary")

CONFIGURATIONS = (EngineOptions.all_on(), EngineOptions.all_off())


def _random_dense_db(theory, rng, size):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    nodes = max(2, size)
    for _ in range(size + 1):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b:
            continue
        edges.add_point([a, b])
    if rng.random() < 0.5:
        # a non-point tuple forces the general (context-building) path
        lo = rng.randrange(nodes)
        edges.add_tuple(
            [
                theory.le(Fraction(lo), "x"),
                theory.lt("x", "y"),
                theory.le("y", Fraction(lo + 1)),
            ]
        )
    vertices = db.create_relation("V", ("x",))
    for v in range(min(nodes, 4)):
        vertices.add_point([v])
    return db


def _random_equality_db(theory, rng, size):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    nodes = max(2, size)
    for _ in range(size + 1):
        a = rng.randrange(nodes)
        b = rng.randrange(nodes)
        if a == b:
            continue
        edges.add_point([a, b])
    if rng.random() < 0.5:
        edges.add_tuple([theory.eq("x", theory.const(0)), theory.ne("x", "y")])
    vertices = db.create_relation("V", ("x",))
    for v in range(min(nodes, 4)):
        vertices.add_point([v])
    return db


def _fingerprint(world, names):
    return {
        name: frozenset(frozenset(t.atoms) for t in world.relation(name))
        for name in names
    }


def _assert_matches_reference(make_theory, make_db, seed, size):
    rng = random.Random(seed)
    for rules_text, names in (
        (POSITIVE_RULES, ("T",)),
        (NEGATION_RULES, ("T", "U")),
    ):
        layout_seed = rng.randrange(1 << 30)
        for semantics in SEMANTICS:
            theory = make_theory()
            db = make_db(theory, random.Random(layout_seed), size)
            reference = evaluate_reference(
                parse_rules(rules_text, theory=theory), theory, db, semantics
            )
            expected = _fingerprint(reference, names)
            for options in CONFIGURATIONS:
                for semi_naive in (True, False):
                    theory = make_theory()
                    db = make_db(theory, random.Random(layout_seed), size)
                    program = DatalogProgram(
                        parse_rules(rules_text, theory=theory),
                        theory,
                        options=options,
                    )
                    world, _stats = program.evaluate(
                        db, semi_naive=semi_naive, semantics=semantics
                    )
                    assert _fingerprint(world, names) == expected, (
                        f"engine fixpoint differs from the reference "
                        f"(options={options.as_dict()}, semantics={semantics}, "
                        f"semi_naive={semi_naive}, seed={seed})"
                    )


class TestCompiledEquivalence:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_dense_order_programs(self, seed, size):
        _assert_matches_reference(DenseOrderTheory, _random_dense_db, seed, size)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5))
    def test_equality_programs(self, seed, size):
        _assert_matches_reference(
            EqualityTheory, _random_equality_db, seed, size
        )


class TestFourTheoryMatrix:
    """Engine configurations vs the reference over conformance cases.

    Covers all four theories (dense order, equality, boolean, real
    polynomial) under both fixpoint orders and the generated case's own
    semantics, including the theories the compiler forces onto the
    general (non-pointwise) path.  Results are compared with the
    conformance harness's semantic oracles: the boolean and polynomial
    theories have no unique canonical form per point set.
    """

    @staticmethod
    def _datalog_spec(theory_name, seed):
        from repro.conformance.generators import generate_case

        for probe in range(25):
            spec = generate_case(theory_name, seed + probe)
            if spec.kind == "datalog":
                return spec
        return None

    @staticmethod
    def _target(world, spec, case):
        from repro.core.generalized import GeneralizedRelation

        result = GeneralizedRelation("result", case.output, case.theory)
        for item in world.relation(spec.target):
            result.add(item)
        return result

    def _assert_matrix(self, theory_name, seed):
        from repro.conformance.oracles import compare_relations
        from repro.conformance.spec import build_case

        spec = self._datalog_spec(theory_name, seed)
        if spec is None:
            return
        case = build_case(spec)
        world = evaluate_reference(
            case.rules, case.theory, case.database, spec.semantics
        )
        expected = self._target(world, spec, case)
        for options in CONFIGURATIONS:
            for semi_naive in (True, False):
                case = build_case(spec)
                program = DatalogProgram(
                    case.rules, case.theory, options=options
                )
                world, _stats = program.evaluate(
                    case.database,
                    semi_naive=semi_naive,
                    semantics=spec.semantics,
                )
                found = compare_relations(
                    expected,
                    self._target(world, spec, case),
                    "reference",
                    "engine",
                    spec.theory,
                    spec.m,
                )
                assert found is None, (
                    f"{theory_name} engine differs from the reference "
                    f"(seed={seed}, options={options.as_dict()}, "
                    f"semi_naive={semi_naive}): {found.describe()}"
                )

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_dense_order(self, seed):
        self._assert_matrix("dense_order", seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_equality(self, seed):
        self._assert_matrix("equality", seed)

    @settings(max_examples=8, deadline=None)
    @given(st.integers(0, 10_000))
    def test_boolean(self, seed):
        self._assert_matrix("boolean", seed)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 10_000))
    def test_real_poly(self, seed):
        self._assert_matrix("real_poly", seed)


def _contained(item, complement, theory):
    """Whether a generalized tuple's point set lies inside a relation, given
    the relation's complement DNF over the tuple's variables: the tuple
    conjoined with any disjunct of the complement is unsatisfiable."""
    return not any(
        theory.is_satisfiable(tuple(item.atoms) + disjunct)
        for disjunct in complement
    )


class TestFringeSoundness:
    """A budget-tripped fringe run under-approximates the reference."""

    @pytest.mark.parametrize(
        "kind, limits",
        [("joins", st.integers(1, 20)), ("tuples", st.integers(1, 8)),
         ("rounds", st.integers(1, 3))],
        ids=["joins", "tuples", "rounds"],
    )
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_fringe_is_contained_in_reference(self, kind, limits, data):
        limit = data.draw(limits, label="limit")
        seed = data.draw(st.integers(0, 10_000), label="seed")
        rules_text = data.draw(
            st.sampled_from((POSITIVE_RULES, NEGATION_RULES)), label="rules"
        )
        semantics = data.draw(st.sampled_from(SEMANTICS), label="semantics")
        theory = DenseOrderTheory()
        rules = parse_rules(rules_text, theory=theory)
        db = _random_dense_db(theory, random.Random(seed), 3)
        # a chain through five vertices makes the closure deep enough for
        # each budget to trip before the fixpoint
        edges = db.relation("E")
        for i in range(5):
            edges.add_point([i, i + 1])
        reference = evaluate_reference(rules, theory, db, semantics)
        budget = Budget(partial_results="fringe", **{kind: limit})
        program = DatalogProgram(
            rules, theory, options=replace(EngineOptions.all_on(), budget=budget)
        )
        world, stats = program.evaluate(db, semantics=semantics)
        assert stats.incomplete
        assert stats.budget is not None
        for name in program.idb_predicates():
            relation = world.relation(name)
            complement = relation_complement_dnf(
                reference.relation(name), relation.variables, theory
            )
            for item in relation:
                assert _contained(item, complement, theory), (
                    f"fringe tuple {item} of {name} is outside the reference "
                    f"fixpoint ({kind}={limit}, semantics={semantics}, "
                    f"seed={seed})"
                )
