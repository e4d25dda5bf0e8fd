"""A naive reference evaluator for Datalog with constraints (Section 1.2).

This is the oracle the engine is checked against, written for obviousness
straight from the paper's closed-form definition of rule firing
(Definition 1.10).  One firing of a rule

    R0(x0) :- R1(x1), ..., Rk(xk), not N1(y1), ..., not Nm(ym), phi

takes every choice of one generalized tuple of each ``Ri`` (renamed onto
``xi``) and one disjunct of each ``Nj``'s complement DNF (renamed onto
``yj``), conjoins them with the rule's constraints ``phi``, keeps the
conjunction if it is satisfiable, eliminates the body-only variables, and
adds each resulting conjunction over ``x0`` to ``R0``.
:meth:`GeneralizedRelation.add` deduplicates on the canonical form.

Every round fires every rule against the current database and adds the
derived tuples only after the round, so a round is one application of the
paper's immediate-consequence operator.  There are no caches, indexes,
join planner, semi-naive deltas or compiled closures here: the engine's
:mod:`repro.core.compile` executor must compute the same point sets under
every :class:`~repro.core.datalog.EngineOptions` configuration.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from repro.constraints.base import ConstraintTheory
from repro.core.calculus import relation_complement_dnf
from repro.core.datalog import DatalogProgram, EngineOptions, Rule
from repro.core.generalized import GeneralizedDatabase, GeneralizedTuple
from repro.errors import EvaluationError, FixpointDivergenceError


def evaluate_reference(
    rules: Sequence[Rule],
    theory: ConstraintTheory,
    database: GeneralizedDatabase,
    semantics: str = "auto",
    max_iterations: int = 10_000,
) -> GeneralizedDatabase:
    """The fixpoint of ``rules`` over ``database``, as a new database.

    ``semantics`` means what it means for :meth:`DatalogProgram.evaluate`:
    ``"auto"`` takes the least fixpoint of a positive program, and runs a
    program with negation stratified when it is stratifiable and
    inflationary otherwise; ``"stratified"`` raises on a program that is
    not stratifiable; ``"inflationary"`` fires every rule every round and
    never retracts.
    """
    if semantics not in ("auto", "stratified", "inflationary"):
        raise EvaluationError(f"unknown semantics {semantics!r}")
    # the program object supplies the arities and the stratification only:
    # no semantic rewrite, and no closure guard (the caller chose the rules)
    program = DatalogProgram(
        rules,
        theory,
        allow_unsafe_recursion=True,
        options=EngineOptions(optimize_semantic=False),
    )
    world = database.copy()
    for name in sorted(program.idb_predicates()):
        if name not in world:
            arity = program.arities[name]
            world.create_relation(name, tuple(f"_{i}" for i in range(arity)))
    if semantics == "inflationary" or not program.has_negation():
        _saturate(program.rules, world, theory, max_iterations)
        return world
    strata = program.stratify()
    if strata is None:
        if semantics == "stratified":
            raise EvaluationError(
                "program is not stratifiable (negation through recursion)"
            )
        _saturate(program.rules, world, theory, max_iterations)
        return world
    for stratum in strata:
        _saturate(stratum, world, theory, max_iterations)
    return world


def _saturate(
    rules: Sequence[Rule],
    world: GeneralizedDatabase,
    theory: ConstraintTheory,
    max_iterations: int,
) -> None:
    """Fire ``rules`` round after round until a round adds nothing."""
    for _ in range(max_iterations):
        derived = [item for rule in rules for item in _fire(rule, world, theory)]
        added = [world.relation(name).add(item) for name, item in derived]
        if not any(added):
            return
    raise FixpointDivergenceError(max_iterations)


def _fire(
    rule: Rule, world: GeneralizedDatabase, theory: ConstraintTheory
) -> Iterator[tuple[str, GeneralizedTuple]]:
    """Every head tuple one firing of ``rule`` derives (Definition 1.10)."""
    head = rule.head
    drop = tuple(v for v in rule.variables() if v not in head.args)
    choices = [
        [tuple(t.rename(atom.args).atoms) for t in world.relation(atom.name)]
        for atom in rule.positive_atoms
    ]
    choices += [
        relation_complement_dnf(world.relation(atom.name), atom.args, theory)
        for atom in rule.negative_atoms
    ]
    constraints = tuple(rule.constraint_atoms)
    for combination in itertools.product(*choices):
        conjunction = constraints + tuple(
            atom for part in combination for atom in part
        )
        if not theory.is_satisfiable(conjunction):
            continue
        for eliminated in theory.eliminate(conjunction, drop):
            yield head.name, GeneralizedTuple(head.args, eliminated)
