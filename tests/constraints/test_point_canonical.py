"""The theories' solver-free canonical point form matches the solver's."""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from repro.constraints.dense_order import DenseOrderTheory
from repro.constraints.equality import EqualityTheory
from repro.runtime.chaos import ChaosTheory

NAMES = ("x", "y", "z", "a", "b", "x0", "x1", "T_2", "v10")


def _pins(theory, variables, values):
    return tuple(
        theory.equality(var, theory.constant(value))
        for var, value in zip(variables, values)
    )


@st.composite
def points(draw, distinct):
    arity = draw(st.integers(min_value=1, max_value=4))
    variables = draw(st.permutations(NAMES))[:arity]
    pool = st.integers(min_value=-5, max_value=5)
    if distinct:
        values = draw(st.lists(pool, min_size=arity, max_size=arity, unique=True))
    else:
        # at most two distinct constants, so shared constants are common
        first, second = draw(pool), draw(pool)
        values = draw(
            st.lists(
                st.sampled_from((first, second)), min_size=arity, max_size=arity
            )
        )
    return tuple(variables), tuple(values)


THEORIES = (
    (DenseOrderTheory, Fraction),
    (EqualityTheory, int),
)


class TestPointCanonical:
    @given(points(distinct=True))
    def test_distinct_constants_match_solver(self, point):
        variables, values = point
        for make, wrap in THEORIES:
            theory = make()
            values_in = tuple(wrap(v) for v in values)
            pins = _pins(theory, variables, values_in)
            assert theory.point_canonical(variables, values_in) == (
                theory._canonicalize(pins)
            )
            # the solver-free branch leaves the canonicalize memo untouched
            assert theory.cache.stats.canon_misses == 0

    @given(points(distinct=False))
    def test_shared_constants_match_solver(self, point):
        # constants are the preferred class representatives, so a shared
        # constant still canonicalizes to the sorted pins, not x = y
        variables, values = point
        for make, wrap in THEORIES:
            theory = make()
            values_in = tuple(wrap(v) for v in values)
            pins = _pins(theory, variables, values_in)
            assert tuple(sorted(pins, key=str)) == theory._canonicalize(pins)
            assert theory.point_canonical(variables, values_in) == (
                theory._canonicalize(pins)
            )
            assert theory.cache.stats.canon_misses == 0

    def test_wrapped_theory_uses_canonicalize(self):
        # the base-class default: no solver-free shortcut on a wrapper, so
        # fault injection still sees every canonicalization
        theory = ChaosTheory(DenseOrderTheory())
        values = (Fraction(1), Fraction(2))
        assert not theory.sorted_pins_canonical
        assert theory.point_canonical(("x", "y"), values) == (
            DenseOrderTheory().point_canonical(("x", "y"), values)
        )
