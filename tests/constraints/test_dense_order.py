"""Tests for the dense linear order theory (Section 3 of the paper)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.dense_order import (
    DenseOrderTheory,
    OrderAtom,
    between,
    eq,
    gt,
    le,
    lt,
    ne,
)
from repro.constraints.terms import Const, Var
from repro.errors import TheoryError
from repro.logic.syntax import Or

theory = DenseOrderTheory()


class TestAtoms:
    def test_gt_normalizes_to_lt(self):
        atom = gt("x", "y")
        assert atom.op == "<"
        assert atom.left == Var("y")
        assert atom.right == Var("x")

    def test_symmetric_operand_order(self):
        assert eq("y", "x") == eq("x", "y")
        assert ne(3, "x") == ne("x", 3)
        # variables sort before constants, whichever side they are given on
        assert eq(3, "x").left == Var("x") == eq("x", 3).left

    def test_constants_are_fractions(self):
        atom = lt("x", 3)
        assert atom.right == Const(Fraction(3))

    def test_non_fraction_constant_rejected(self):
        with pytest.raises(TheoryError):
            OrderAtom("<", Var("x"), Const("hello"))

    def test_bad_operator_rejected(self):
        with pytest.raises(TheoryError):
            OrderAtom(">", Var("x"), Var("y"))

    def test_holds(self):
        point = {"x": Fraction(1), "y": Fraction(2)}
        assert lt("x", "y").holds(point)
        assert not lt("y", "x").holds(point)
        assert le("x", 1).holds(point)
        assert eq("y", 2).holds(point)
        assert ne("x", "y").holds(point)

    def test_rename(self):
        assert lt("x", "y").rename({"x": "a"}) == lt("a", "y")

    def test_between(self):
        atoms = between("x", 0, 1)
        assert all(a.holds({"x": Fraction(1, 2)}) for a in atoms)
        assert not all(a.holds({"x": Fraction(2)}) for a in atoms)


class TestNegation:
    def test_negate_lt(self):
        negation = theory.negate_atom(lt("x", "y"))
        assert isinstance(negation, Or)
        assert set(negation.children) == {lt("y", "x"), eq("x", "y")}

    def test_negate_le(self):
        assert theory.negate_atom(le("x", "y")) == lt("y", "x")

    def test_negate_eq(self):
        assert theory.negate_atom(eq("x", "y")) == ne("x", "y")

    def test_negate_ne(self):
        assert theory.negate_atom(ne("x", "y")) == eq("x", "y")


class TestSatisfiability:
    def test_empty_is_satisfiable(self):
        assert theory.is_satisfiable(())

    def test_simple_chain(self):
        assert theory.is_satisfiable((lt("x", "y"), lt("y", "z")))

    def test_strict_cycle_unsat(self):
        assert not theory.is_satisfiable((lt("x", "y"), lt("y", "x")))

    def test_weak_cycle_is_equality(self):
        assert theory.is_satisfiable((le("x", "y"), le("y", "x")))
        assert not theory.is_satisfiable((le("x", "y"), le("y", "x"), ne("x", "y")))

    def test_constant_sandwich(self):
        assert theory.is_satisfiable((lt(0, "x"), lt("x", 1)))
        assert not theory.is_satisfiable((lt(1, "x"), lt("x", 0)))

    def test_point_interval(self):
        # 1 <= x <= 1 forces x = 1
        atoms = (le(1, "x"), le("x", 1))
        assert theory.is_satisfiable(atoms)
        assert not theory.is_satisfiable(atoms + (ne("x", 1),))

    def test_density_no_integrality(self):
        # in a dense order there is always a point strictly between constants
        assert theory.is_satisfiable((lt(0, "x"), lt("x", Fraction(1, 10**9))))

    def test_disequality_chain_satisfiable(self):
        atoms = (ne("x", "y"), ne("y", "z"), ne("x", "z"))
        assert theory.is_satisfiable(atoms)

    def test_implied_equality_contradiction(self):
        # x <= y <= z <= x forces x = z; x != z contradicts
        atoms = (le("x", "y"), le("y", "z"), le("z", "x"), ne("x", "z"))
        assert not theory.is_satisfiable(atoms)

    def test_equality_to_distinct_constants(self):
        assert not theory.is_satisfiable((eq("x", 1), eq("x", 2)))


class TestEntailment:
    def test_transitive(self):
        assert theory.entails((lt("x", "y"), lt("y", "z")), lt("x", "z"))

    def test_constant_bound(self):
        assert theory.entails((eq("x", 1),), lt(0, "x"))
        assert not theory.entails((lt(0, "x"),), eq("x", 1))

    def test_weak_strengthening(self):
        assert theory.entails((le("x", "y"), ne("x", "y")), lt("x", "y"))

    def test_equivalent(self):
        left = (le("x", "y"), le("y", "x"))
        right = (eq("x", "y"),)
        assert theory.equivalent(left, right)
        assert not theory.equivalent(left, (lt("x", "y"),))


class TestCanonicalize:
    def test_unsat_returns_none(self):
        assert theory.canonicalize((lt("x", "y"), lt("y", "x"))) is None

    def test_weak_cycle_becomes_equality(self):
        canonical = theory.canonicalize((le("x", "y"), le("y", "x")))
        assert canonical == (eq("x", "y"),)

    def test_redundancy_pruned(self):
        canonical = theory.canonicalize((lt("x", "y"), lt("y", "z"), lt("x", "z")))
        assert canonical == tuple(sorted((lt("x", "y"), lt("y", "z")), key=str))

    def test_equivalent_conjunctions_same_form(self):
        left = theory.canonicalize((le("x", "y"), ne("x", "y")))
        right = theory.canonicalize((lt("x", "y"),))
        assert left == right

    def test_idempotent(self):
        atoms = (lt(0, "x"), lt("x", "y"), le("y", 5), ne("x", 3))
        once = theory.canonicalize(atoms)
        twice = theory.canonicalize(once)
        assert once == twice


class TestElimination:
    def test_density_combination(self):
        result = theory.eliminate((lt("x", "z"), lt("z", "y")), ["z"])
        assert len(result) == 1
        assert theory.equivalent(result[0], (lt("x", "y"),))

    def test_weak_weak_combination(self):
        result = theory.eliminate((le("x", "z"), le("z", "y")), ["z"])
        assert theory.equivalent(result[0], (le("x", "y"),))

    def test_equality_substitution(self):
        result = theory.eliminate((eq("z", "x"), lt("z", "y")), ["z"])
        assert theory.equivalent(result[0], (lt("x", "y"),))

    def test_unbounded_side_vanishes(self):
        result = theory.eliminate((lt("x", "z"),), ["z"])
        assert result == [()] or theory.equivalent(result[0], ())

    def test_disequality_dropped_by_density(self):
        result = theory.eliminate((lt(0, "z"), lt("z", 1), ne("z", Fraction(1, 2))), ["z"])
        assert len(result) == 1
        assert theory.equivalent(result[0], ())

    def test_disequality_kept_under_equality(self):
        # exists z (z = x and z != y)  ==  x != y, here as the DNF x<y or y<x
        result = theory.eliminate((eq("z", "x"), ne("z", "y")), ["z"])
        for x_val, y_val, expected in [
            (Fraction(1), Fraction(2), True),
            (Fraction(2), Fraction(1), True),
            (Fraction(1), Fraction(1), False),
        ]:
            point = {"x": x_val, "y": y_val}
            holds = any(all(a.holds(point) for a in conj) for conj in result)
            assert holds == expected

    def test_punctured_interval_projection_is_disjunction(self):
        # the regression for the soundness bug: exists x with a <= x <= b and
        # x != c must exclude the collapsed point a = b = c
        result = theory.eliminate((le("a", "x"), le("x", "b"), ne("x", "c")), ["x"])
        collapsed = {"a": Fraction(0), "b": Fraction(0), "c": Fraction(0)}
        assert not any(
            all(a.holds(collapsed) for a in conj) for conj in result
        )
        open_interval = {"a": Fraction(0), "b": Fraction(1), "c": Fraction(0)}
        assert any(all(a.holds(open_interval) for a in conj) for conj in result)

    def test_unsat_gives_empty(self):
        assert theory.eliminate((lt("z", 0), lt(1, "z")), ["z"]) == []

    def test_multiple_variables(self):
        atoms = (lt("a", "u"), lt("u", "v"), lt("v", "b"))
        result = theory.eliminate(atoms, ["u", "v"])
        assert theory.equivalent(result[0], (lt("a", "b"),))

    def test_projection_semantics_by_sampling(self):
        # points satisfying the projection extend to the full constraint
        atoms = (lt(0, "z"), lt("z", "x"), lt("x", 10), ne("z", "x"))
        result = theory.eliminate(atoms, ["z"])
        assert len(result) == 1
        point = theory.sample_point(result[0], ["x"])
        assert point is not None
        extended = theory.sample_point(atoms, ["x", "z"])
        assert extended is not None
        assert all(a.holds(extended) for a in atoms)


class TestSamplePoint:
    def test_simple(self):
        point = theory.sample_point((lt(0, "x"), lt("x", 1)), ["x"])
        assert point is not None and 0 < point["x"] < 1

    def test_unsat(self):
        assert theory.sample_point((lt("x", 0), lt(1, "x")), ["x"]) is None

    def test_respects_disequalities(self):
        # avoid every dyadic-ish candidate: x in [0,1], x != 0, 1/2, 1/4, 3/4, 1
        forbidden = [0, Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), 1]
        atoms = tuple([le(0, "x"), le("x", 1)] + [ne("x", f) for f in forbidden])
        point = theory.sample_point(atoms, ["x"])
        assert point is not None
        assert all(a.holds(point) for a in atoms)

    def test_equalities_propagate(self):
        atoms = (eq("x", "y"), eq("y", 7))
        point = theory.sample_point(atoms, ["x", "y"])
        assert point == {"x": Fraction(7), "y": Fraction(7)}

    def test_unconstrained_variable(self):
        point = theory.sample_point((), ["x"])
        assert point is not None and "x" in point


@st.composite
def random_conjunction(draw):
    variables = ["a", "b", "c"]
    constants = [Fraction(0), Fraction(1), Fraction(2)]
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["<", "<=", "=", "!="]))
        left = draw(st.sampled_from(variables))
        right_kind = draw(st.booleans())
        right = draw(st.sampled_from(variables if right_kind else constants))
        if left == right:
            continue
        atoms.append(OrderAtom(op, Var(left), _term(right)))
    return tuple(atoms)


def _term(value):
    if isinstance(value, str):
        return Var(value)
    return Const(value)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_conjunction())
    def test_sample_point_satisfies(self, atoms):
        point = theory.sample_point(atoms, ["a", "b", "c"])
        if theory.is_satisfiable(atoms):
            assert point is not None
            assert all(a.holds(point) for a in atoms)
        else:
            assert point is None

    @settings(max_examples=150, deadline=None)
    @given(random_conjunction())
    def test_canonicalize_preserves_solutions(self, atoms):
        canonical = theory.canonicalize(atoms)
        if canonical is None:
            assert not theory.is_satisfiable(atoms)
        else:
            assert theory.equivalent(atoms, canonical)

    @settings(max_examples=100, deadline=None)
    @given(random_conjunction())
    def test_elimination_is_projection(self, atoms):
        result = theory.eliminate(atoms, ["c"])
        # soundness: every sample of the projection extends to the original
        for conj in result:
            point = theory.sample_point(conj, ["a", "b"])
            assert point is not None
            extended = theory.sample_point(
                tuple(atoms)
                + (eq("a", point["a"]), eq("b", point["b"])),
                ["a", "b", "c"],
            )
            assert extended is not None
        # completeness: a sample of the original satisfies the projection
        full = theory.sample_point(atoms, ["a", "b", "c"])
        if full is not None:
            assert any(
                all(atom.holds(full) for atom in conj) for conj in result
            )


class TestEliminationExactness:
    @settings(max_examples=150, deadline=None)
    @given(random_conjunction(), st.integers(-1, 3), st.integers(-1, 3))
    def test_projection_matches_satisfiability(self, atoms, a_val, b_val):
        """exists c . conj holds at (a, b) iff conj + (a = a_val, b = b_val)
        is satisfiable -- two independent decision paths must agree."""
        result = theory.eliminate(atoms, ["c"])
        point = {"a": Fraction(a_val), "b": Fraction(b_val)}
        via_projection = any(
            all(atom.holds(point) for atom in conj) for conj in result
        )
        via_sat = theory.is_satisfiable(
            tuple(atoms) + (eq("a", a_val), eq("b", b_val))
        )
        assert via_projection == via_sat, (atoms, point)
