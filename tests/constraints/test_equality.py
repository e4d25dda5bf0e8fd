"""Tests for equality constraints over an infinite domain (Section 4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.constraints.equality import EqualityAtom, EqualityTheory, const, eq, ne
from repro.constraints.terms import Const, Var
from repro.errors import TheoryError

theory = EqualityTheory()


class TestAtoms:
    def test_symmetric_normalization(self):
        assert eq("y", "x") == eq("x", "y")
        assert ne("y", "x") == ne("x", "y")
        assert eq(5, "x").left == Var("x") == eq("x", 5).left

    def test_string_constants_via_const(self):
        atom = eq("x", const("red"))
        assert atom.holds({"x": "red"})
        assert not atom.holds({"x": "blue"})

    def test_integer_constants(self):
        atom = eq("x", 5)
        assert atom.holds({"x": 5})

    def test_bad_operator(self):
        with pytest.raises(TheoryError):
            EqualityAtom("<", Var("x"), Var("y"))

    def test_rename(self):
        assert ne("x", "y").rename({"y": "z"}) == ne("x", "z")


class TestNegation:
    def test_negate_eq(self):
        assert theory.negate_atom(eq("x", "y")) == ne("x", "y")

    def test_negate_ne(self):
        assert theory.negate_atom(ne("x", "y")) == eq("x", "y")


class TestSatisfiability:
    def test_empty(self):
        assert theory.is_satisfiable(())

    def test_chain_of_equalities(self):
        assert theory.is_satisfiable((eq("x", "y"), eq("y", "z")))

    def test_contradiction(self):
        assert not theory.is_satisfiable((eq("x", "y"), ne("x", "y")))

    def test_transitivity_contradiction(self):
        atoms = (eq("x", "y"), eq("y", "z"), ne("x", "z"))
        assert not theory.is_satisfiable(atoms)

    def test_two_distinct_constants(self):
        assert not theory.is_satisfiable((eq("x", 1), eq("x", 2)))

    def test_infinite_domain_many_disequalities(self):
        # over an infinite domain any disequality graph is satisfiable
        atoms = tuple(
            ne(f"x{i}", f"x{j}") for i in range(5) for j in range(i + 1, 5)
        )
        assert theory.is_satisfiable(atoms)

    def test_disequality_from_constants(self):
        assert theory.is_satisfiable((eq("x", 1), eq("y", 2)))
        assert not theory.is_satisfiable((eq("x", 1), eq("y", 1), ne("x", "y")))


class TestCanonicalize:
    def test_unsat_none(self):
        assert theory.canonicalize((eq("x", "y"), ne("x", "y"))) is None

    def test_constant_becomes_representative(self):
        canonical = theory.canonicalize((eq("x", "y"), eq("y", 3)))
        assert set(canonical) == {eq("x", 3), eq("y", 3)}

    def test_redundant_constant_disequality_dropped(self):
        # x = 1 and y = 2 makes x != y redundant (distinct constants)
        canonical = theory.canonicalize((eq("x", 1), eq("y", 2), ne("x", "y")))
        assert set(canonical) == {eq("x", 1), eq("y", 2)}

    def test_equivalent_same_form(self):
        left = theory.canonicalize((eq("x", "y"), eq("y", "z")))
        right = theory.canonicalize((eq("x", "z"), eq("z", "y")))
        assert left == right


class TestElimination:
    def test_substitution(self):
        result = theory.eliminate((eq("z", "x"), ne("z", "y")), ["z"])
        assert len(result) == 1
        assert theory.equivalent(result[0], (ne("x", "y"),))

    def test_pure_disequalities_vanish(self):
        # exists z (z != x and z != y) is true over an infinite domain
        result = theory.eliminate((ne("z", "x"), ne("z", "y")), ["z"])
        assert len(result) == 1
        assert theory.equivalent(result[0], ())

    def test_unsat_empty(self):
        assert theory.eliminate((eq("z", 1), eq("z", 2)), ["z"]) == []

    def test_chain(self):
        result = theory.eliminate((eq("x", "z"), eq("z", "y")), ["z"])
        assert theory.equivalent(result[0], (eq("x", "y"),))

    def test_constant_propagation(self):
        result = theory.eliminate((eq("z", 7), eq("x", "z")), ["z"])
        assert theory.equivalent(result[0], (eq("x", 7),))


class TestEntailment:
    def test_transitive(self):
        assert theory.entails((eq("x", "y"), eq("y", "z")), eq("x", "z"))

    def test_constant_disequality(self):
        assert theory.entails((eq("x", 1), eq("y", 2)), ne("x", "y"))

    def test_not_entailed(self):
        assert not theory.entails((ne("x", "y"),), eq("x", "y"))


class TestSamplePoint:
    def test_fresh_elements_distinct(self):
        atoms = (ne("x", "y"), ne("y", "z"), ne("x", "z"))
        point = theory.sample_point(atoms, ["x", "y", "z"])
        assert len({point["x"], point["y"], point["z"]}) == 3

    def test_constants_respected(self):
        point = theory.sample_point((eq("x", 5), eq("x", "y")), ["x", "y"])
        assert point == {"x": 5, "y": 5}

    def test_unsat(self):
        assert theory.sample_point((eq("x", 1), ne("x", 1)), ["x"]) is None

    def test_custom_fresh_factory(self):
        custom = EqualityTheory(fresh_factory=lambda i: f"fresh{i}")
        point = custom.sample_point((ne("x", "y"),), ["x", "y"])
        assert point["x"] != point["y"]
        assert str(point["x"]).startswith("fresh")


@st.composite
def random_eq_conjunction(draw):
    variables = ["a", "b", "c"]
    constants = [1, 2]
    atoms = []
    for _ in range(draw(st.integers(0, 6))):
        op = draw(st.sampled_from(["=", "!="]))
        left = draw(st.sampled_from(variables))
        use_var = draw(st.booleans())
        right = draw(st.sampled_from(variables if use_var else constants))
        if left == right:
            continue
        right_term = Var(right) if isinstance(right, str) else Const(right)
        atoms.append(EqualityAtom(op, Var(left), right_term))
    return tuple(atoms)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_eq_conjunction())
    def test_sample_point_iff_satisfiable(self, atoms):
        point = theory.sample_point(atoms, ["a", "b", "c"])
        if theory.is_satisfiable(atoms):
            assert point is not None
            assert all(a.holds(point) for a in atoms)
        else:
            assert point is None

    @settings(max_examples=150, deadline=None)
    @given(random_eq_conjunction())
    def test_canonicalize_equivalence(self, atoms):
        canonical = theory.canonicalize(atoms)
        if canonical is None:
            assert not theory.is_satisfiable(atoms)
        else:
            assert theory.equivalent(atoms, canonical)

    @settings(max_examples=100, deadline=None)
    @given(random_eq_conjunction())
    def test_elimination_sound_and_complete(self, atoms):
        result = theory.eliminate(atoms, ["c"])
        full = theory.sample_point(atoms, ["a", "b", "c"])
        if full is not None:
            assert any(all(atom.holds(full) for atom in conj) for conj in result)
        for conj in result:
            reduced = theory.sample_point(conj, ["a", "b"])
            assert reduced is not None
