"""The naive reference evaluator (``repro.core.reference``).

It is the oracle the engine is checked against, so it gets an independent
check of its own: on small dense-order programs its fixpoint must denote the
same point set as the least fixpoint of the Section 3.2 ``T_P`` operator
(:class:`repro.core.herbrand.HerbrandProgram`), which derives r-configurations
instead of constraint conjunctions.  Both are compared on sample points, as
``test_herbrand_fringe.py`` compares the engine.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dense_order import DenseOrderTheory, le, lt
from repro.core.generalized import GeneralizedDatabase
from repro.core.herbrand import HerbrandProgram
from repro.core.reference import evaluate_reference
from repro.errors import EvaluationError, FixpointDivergenceError
from repro.logic.parser import parse_rules

#: positive dense-order programs over E(x, y): plain, constrained and
#: nonlinear closures, and a non-recursive join
PROGRAMS = (
    """
    T(x, y) :- E(x, y).
    T(x, y) :- T(x, z), E(z, y).
    """,
    """
    T(x, y) :- E(x, y), x < y.
    T(x, y) :- T(x, z), T(z, y).
    """,
    """
    T(x, y) :- E(x, y).
    T(x, y) :- E(x, z), T(z, y), y <= 2.
    """,
    """
    T(x, y) :- E(x, z), E(z, y).
    """,
)

NODES = 4


def _database(theory, rng, interval):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for _ in range(NODES):
        a, b = rng.randrange(NODES), rng.randrange(NODES)
        edges.add_point([a, b])
    if interval:
        low = rng.randrange(NODES - 1)
        edges.add_tuple([le(Fraction(low), "x"), lt("x", "y"), le("y", Fraction(low + 1))])
    return db


def _samples():
    """Every constant, every midpoint between neighbours, and both ends."""
    values = [Fraction(k, 2) for k in range(-1, 2 * NODES)]
    return [[a, b] for a in values for b in values]


@settings(max_examples=8, deadline=None)
@given(
    program=st.sampled_from(PROGRAMS),
    seed=st.integers(0, 10_000),
    interval=st.booleans(),
)
def test_reference_matches_herbrand_least_fixpoint(program, seed, interval):
    theory = DenseOrderTheory()
    rules = parse_rules(program, theory=theory)
    db = _database(theory, random.Random(seed), interval)
    herbrand = HerbrandProgram(rules, db)
    expected = herbrand.as_relations(herbrand.least_fixpoint()).relation("T")
    got = evaluate_reference(rules, theory, db).relation("T")
    for point in _samples():
        assert got.contains_values(point) == expected.contains_values(point), (
            f"reference and T_P disagree at {point} (seed={seed}, "
            f"interval={interval}, program={program.split()})"
        )


def _chain(theory, n):
    db = GeneralizedDatabase(theory)
    edges = db.create_relation("E", ("x", "y"))
    for i in range(n):
        edges.add_point([i, i + 1])
    vertices = db.create_relation("V", ("x",))
    for i in range(n + 1):
        vertices.add_point([i])
    return db


def test_stratified_and_inflationary_negation_differ():
    # U is the complement of T over V x V.  Stratified, T is complete
    # before U reads it; inflationary, the first round already derives U
    # from the still-empty T, and U never retracts
    theory = DenseOrderTheory()
    rules = parse_rules(
        """
        T(x, y) :- E(x, y).
        T(x, y) :- T(x, z), E(z, y).
        U(x, y) :- V(x), V(y), not T(x, y).
        """,
        theory=theory,
    )
    db = _chain(theory, 3)
    stratified = evaluate_reference(rules, theory, db, "stratified").relation("U")
    inflationary = evaluate_reference(rules, theory, db, "inflationary").relation("U")
    assert stratified.contains_values([2, 0])
    assert not stratified.contains_values([0, 2])
    assert inflationary.contains_values([0, 2])
    auto = evaluate_reference(rules, theory, db).relation("U")
    assert frozenset(auto.keys()) == frozenset(stratified.keys())


def test_negation_through_recursion():
    theory = DenseOrderTheory()
    rules = parse_rules("P(x) :- V(x), not P(x).", theory=theory)
    db = _chain(theory, 1)
    with pytest.raises(EvaluationError, match="not stratifiable"):
        evaluate_reference(rules, theory, db, "stratified")
    # auto falls back to inflationary: round one derives every vertex
    world = evaluate_reference(rules, theory, db)
    assert len(world.relation("P")) == 2


def test_bad_semantics_and_divergence_bound():
    theory = DenseOrderTheory()
    rules = parse_rules("T(x, y) :- E(x, y).", theory=theory)
    with pytest.raises(EvaluationError, match="unknown semantics"):
        evaluate_reference(rules, theory, _chain(theory, 1), "wellfounded")
    recursive = parse_rules(
        "T(x, y) :- E(x, y).\nT(x, y) :- T(x, z), E(z, y).", theory=theory
    )
    with pytest.raises(FixpointDivergenceError):
        evaluate_reference(recursive, theory, _chain(theory, 4), max_iterations=2)
