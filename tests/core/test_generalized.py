"""Tests for generalized tuples, relations and databases (Definitions 1.3/1.4)."""

from fractions import Fraction

import pytest

from repro.constraints.dense_order import DenseOrderTheory, eq, le, lt, ne
from repro.constraints.equality import EqualityTheory
from repro.constraints.equality import eq as eeq
from repro.core.generalized import (
    GeneralizedDatabase,
    GeneralizedRelation,
    GeneralizedTuple,
)
from repro.errors import ArityError, UnknownRelationError
from repro.runtime.budget import Budget, metered

order = DenseOrderTheory()


class TestGeneralizedTuple:
    def test_scope_enforced(self):
        with pytest.raises(ArityError):
            GeneralizedTuple(("x",), (lt("x", "y"),))

    def test_rename(self):
        t = GeneralizedTuple(("x", "y"), (lt("x", "y"),))
        renamed = t.rename(("a", "b"))
        assert renamed.variables == ("a", "b")
        assert renamed.atoms == (lt("a", "b"),)

    def test_rename_arity_mismatch(self):
        t = GeneralizedTuple(("x",), (lt("x", 1),))
        with pytest.raises(ArityError):
            t.rename(("a", "b"))

    def test_holds(self):
        t = GeneralizedTuple(("x", "y"), (lt("x", "y"), lt(0, "x")))
        assert t.holds({"x": Fraction(1), "y": Fraction(2)})
        assert not t.holds({"x": Fraction(2), "y": Fraction(1)})


class TestGeneralizedRelation:
    def test_infinite_set_membership(self):
        r = GeneralizedRelation("R", ("x", "y"), order)
        r.add_tuple([lt("x", "y")])
        assert r.contains_values([Fraction(0), Fraction(1)])
        assert not r.contains_values([Fraction(1), Fraction(0)])

    def test_dedup_by_canonical_form(self):
        r = GeneralizedRelation("R", ("x", "y"), order)
        assert r.add_tuple([le("x", "y"), ne("x", "y")])
        # equivalent constraint: same canonical form, not added again
        assert not r.add_tuple([lt("x", "y")])
        assert len(r) == 1

    def test_unsat_tuple_dropped(self):
        r = GeneralizedRelation("R", ("x",), order)
        assert not r.add_tuple([lt("x", 0), lt(1, "x")])
        assert len(r) == 0

    def test_classical_points(self):
        # Example 1.5: the relational model is the equality special case
        r = GeneralizedRelation("r", ("x", "y"), order)
        r.add_point([1, 2])
        r.add_point([3, 4])
        assert len(r) == 2
        assert r.contains_values([Fraction(1), Fraction(2)])
        assert not r.contains_values([Fraction(1), Fraction(4)])

    def test_add_point_arity(self):
        r = GeneralizedRelation("r", ("x",), order)
        with pytest.raises(ArityError):
            r.add_point([1, 2])

    def test_constants(self):
        r = GeneralizedRelation("R", ("x",), order)
        r.add_tuple([lt(0, "x"), lt("x", 5)])
        assert r.constants() == {Fraction(0), Fraction(5)}

    def test_discard(self):
        r = GeneralizedRelation("R", ("x",), order)
        r.add_tuple([lt(0, "x")])
        t = GeneralizedTuple(("x",), (lt(0, "x"),))
        assert r.discard(t)
        assert len(r) == 0
        assert not r.discard(t)

    def test_sample_points(self):
        r = GeneralizedRelation("R", ("x",), order)
        r.add_tuple([lt(0, "x"), lt("x", 1)])
        r.add_tuple([eq("x", 5)])
        points = r.sample_points()
        assert len(points) == 2
        assert all(r.contains_point(p) for p in points)

    def test_variable_rename_on_add(self):
        r = GeneralizedRelation("R", ("a", "b"), order)
        r.add(GeneralizedTuple(("x", "y"), (lt("x", "y"),)))
        assert r.contains_values([Fraction(0), Fraction(1)])

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ArityError):
            GeneralizedRelation("R", ("x", "x"), order)

    def test_works_with_equality_theory(self):
        eqt = EqualityTheory()
        r = GeneralizedRelation("R", ("x", "y"), eqt)
        r.add_tuple([eeq("x", "y")])
        assert r.contains_values([7, 7])
        assert not r.contains_values([7, 8])


def _point(values, variables=("a", "b")):
    """A derived point tuple carrying its constant vector (the compiled
    point leaf's output shape), over variables unlike the relation's."""
    vector = tuple(Fraction(v) for v in values)
    atoms = tuple(eq(var, value) for var, value in zip(variables, vector))
    return GeneralizedTuple(tuple(variables), atoms, vector)


class TestPointPath:
    def test_point_is_stored_canonically_and_deduped(self):
        r = GeneralizedRelation("R", ("x", "y"), order)
        stored = r.add_canonical(_point((1, 2)))
        assert stored is not None
        assert stored.variables == ("x", "y")
        assert stored.atoms == order.canonicalize((eq("x", 1), eq("y", 2)))
        assert stored.point == (Fraction(1), Fraction(2))
        version = r.version
        assert r.add_canonical(_point((1, 2))) is None
        assert r.version == version
        # the general spelling of the same point is a duplicate too
        assert not r.add_point([1, 2])
        assert len(r) == 1

    def test_point_field_does_not_change_identity(self):
        plain = GeneralizedTuple(("x",), (eq("x", 1),))
        tagged = GeneralizedTuple(("x",), (eq("x", 1),), (Fraction(1),))
        assert plain == tagged and hash(plain) == hash(tagged)

    def test_point_stored_through_general_path_is_duplicate(self):
        r = GeneralizedRelation("R", ("x", "y"), order)
        # c <= x <= c canonicalizes to the pin x = c
        assert r.add_tuple([le(1, "x"), le("x", 1), le(2, "y"), le("y", 2)])
        version = r.version
        assert r.add_canonical(_point((1, 2))) is None
        assert r.add_canonical(_point((1, 2))) is None
        assert r.version == version
        assert len(r) == 1

    @pytest.mark.parametrize("removal", ["discard", "discard_key", "clear"])
    def test_removed_point_is_readmitted(self, removal):
        r = GeneralizedRelation("R", ("x", "y"), order)
        stored = r.add_canonical(_point((1, 2)))
        if removal == "discard":
            assert r.discard(_point((1, 2)))
        elif removal == "discard_key":
            assert r.discard_key(frozenset(stored.atoms)) is not None
        else:
            r.clear()
        assert len(r) == 0
        version = r.version
        meter = Budget().start()
        with metered(meter):
            again = r.add_canonical(_point((1, 2)))
        assert again == stored
        assert r.version == version + 1
        assert meter.counts["tuple"] == 1
        assert len(r) == 1

    def test_point_arity_checked(self):
        r = GeneralizedRelation("R", ("x",), order)
        with pytest.raises(ArityError):
            r.add_canonical(_point((1, 2)))

    def test_equality_theory_point(self):
        theory = EqualityTheory()
        r = GeneralizedRelation("R", ("x", "y"), theory)
        item = GeneralizedTuple(("a", "b"), (eeq("a", 1), eeq("b", 1)), (1, 1))
        stored = r.add_canonical(item)
        assert stored is not None
        assert stored.atoms == theory.canonicalize((eeq("x", 1), eeq("y", 1)))
        assert not r.add_point([1, 1])


class TestGeneralizedDatabase:
    def test_create_and_lookup(self):
        db = GeneralizedDatabase(order)
        r = db.create_relation("R", ("x",))
        assert db.relation("R") is r
        assert "R" in db
        with pytest.raises(UnknownRelationError):
            db.relation("S")

    def test_duplicate_name_rejected(self):
        db = GeneralizedDatabase(order)
        db.create_relation("R", ("x",))
        with pytest.raises(ArityError):
            db.create_relation("R", ("y",))

    def test_copy_is_deep_for_tuples(self):
        db = GeneralizedDatabase(order)
        r = db.create_relation("R", ("x",))
        r.add_tuple([lt(0, "x")])
        clone = db.copy()
        clone.relation("R").add_tuple([lt("x", 0)])
        assert len(db.relation("R")) == 1
        assert len(clone.relation("R")) == 2

    def test_constants_union(self):
        db = GeneralizedDatabase(order)
        db.create_relation("R", ("x",)).add_tuple([lt(0, "x")])
        db.create_relation("S", ("y",)).add_tuple([eq("y", 7)])
        assert db.constants() == {Fraction(0), Fraction(7)}
