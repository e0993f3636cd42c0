import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegel_runge as sr
from siegel_runge.runge import DivisorIncidence

from oracles import negation_orbit_divisor_count


def incidence(r, subsets):
    return DivisorIncidence(r, subsets)


class TestIncidenceValues:
    def test_three_lines_general_position(self):
        # all pairs meet, no triple point
        inc = incidence(3, [{1, 2}, {1, 3}, {2, 3}])
        assert sr.m_y_value(inc) == 2

    def test_pairwise_disjoint(self):
        inc = incidence(4, [{1}, {2}, {3}, {4}])
        assert sr.m_y_value(inc) == 1

    def test_common_point(self):
        inc = incidence(4, [{1, 2, 3, 4}])
        assert sr.m_y_value(inc) == 4

    def test_lines_with_all_crossings_excluded(self):
        # Y swallows the three pairwise intersection points
        inc = incidence(3, [{1}, {2}, {3}])
        assert sr.m_y_value(inc) == 1

    def test_lines_with_one_crossing_excluded(self):
        inc = incidence(3, [{1, 2}, {1, 3}])
        assert sr.m_y_value(inc) == 2

    def test_shrinking_family_shrinks_m(self):
        full = incidence(3, [{1, 2}, {1, 3}, {2, 3}])
        cut = incidence(3, [{1}, {2}, {3}])
        assert sr.m_y_value(cut) <= sr.m_y_value(full)


class TestIncidenceNormalization:
    def test_antichain(self):
        inc = incidence(3, [{1}, {1, 2}, {2}, {3}, {1, 2}])
        assert inc.outside_y == (frozenset({3}), frozenset({1, 2}))

    def test_any_iterable_of_iterables(self):
        # lists, tuples, generators and sets of indices all give the same antichain
        want = DivisorIncidence(3, (frozenset({1, 2}), frozenset({2, 3})))
        assert DivisorIncidence(3, [[1, 2], [2, 3]]) == want
        assert DivisorIncidence(3, ((2, 1), iter([3, 2]))) == want
        assert DivisorIncidence(3, (s for s in [{1, 2}, {2, 3}])) == want
        assert want.outside_y == (frozenset({1, 2}), frozenset({2, 3}))

    def test_order_independent(self):
        a = incidence(4, [{1, 2}, {3}, {4}, {2, 1}])
        b = incidence(4, [{4}, {1, 2}, {3}])
        assert a == b

    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda r: st.tuples(
                st.just(r),
                st.lists(
                    st.sets(st.integers(min_value=1, max_value=r), min_size=1, max_size=r),
                    max_size=8,
                ),
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_normalization_idempotent_and_order_free(self, data):
        r, subsets = data
        family = subsets + [{i} for i in range(1, r + 1)]  # force coverage
        inc1 = incidence(r, family)
        inc2 = incidence(r, list(reversed(family)))
        again = incidence(r, [set(s) for s in inc1.outside_y])
        assert inc1 == inc2 == again

    def test_covered_divisor_required(self):
        with pytest.raises(sr.InvalidInputError):
            incidence(3, [{1, 2}])

    def test_uncovered_divisors_are_named_briefly(self):
        # the message once listed all 999999 uncovered indices, 7.9 MB
        with pytest.raises(sr.InvalidInputError) as info:
            incidence(10**6, [{1}])
        message = str(info.value)
        assert len(message) < 1000
        assert "999999 divisors" in message and "[2, 3, 4, 5, 6, 7, 8, 9, 10, 11]" in message

    def test_index_bounds(self):
        with pytest.raises(sr.InvalidInputError):
            incidence(2, [{1}, {2}, {3}])

    def test_empty_family_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            incidence(1, [])

    def test_zero_divisors_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            incidence(0, [])

    @pytest.mark.parametrize("subsets", [None, 3, [1, 2, 3]], ids=["none", "int", "flat"])
    def test_subsets_must_be_iterables(self, subsets):
        # None raised a bare TypeError
        with pytest.raises(sr.InvalidInputError):
            incidence(3, subsets)

    @pytest.mark.parametrize(("r", "subsets"), [(3.9, [{1, 2}, {3}]), (3, [{1.5, 2}, {3}])],
                             ids=["r", "index"])
    def test_non_integral_data_rejected(self, r, subsets):
        # int() truncated these to r = 3 and index 1
        with pytest.raises(sr.InvalidInputError):
            incidence(r, subsets)

    def test_integral_floats_accepted(self):
        assert incidence(3.0, [{1.0, 2}, {3}]) == incidence(3, [{1, 2}, {3}])


class TestCondition:
    def test_examples(self):
        assert sr.runge_condition(1, 9, 10).holds
        assert not sr.runge_condition(1, 10, 10).holds
        assert sr.runge_condition(13, 9, 130).holds
        assert not sr.runge_condition(13, 10, 130).holds

    def test_validation(self):
        with pytest.raises(sr.InvalidInputError):
            sr.runge_condition(0, 1, 1)

    @given(
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=2, max_value=50),
        st.integers(min_value=1, max_value=2500),
    )
    @settings(max_examples=300, deadline=None)
    def test_monotonicity(self, m, s, r):
        if sr.runge_condition(m, s, r).holds:
            assert sr.runge_condition(m, s - 1, r).holds
            assert sr.runge_condition(m - 1, s, r).holds

    def test_verdict_json(self):
        assert sr.runge_condition(1, 9, 10).to_json() == {
            "holds": True, "m": 1, "s": 9, "r": 10,
        }


class TestSiegelSpecialization:
    @pytest.mark.parametrize("n,count", [(2, 10), (4, 130), (6, 650)])
    def test_divisor_count_formula(self, n, count):
        assert sr.siegel_divisor_count(n) == count

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_divisor_count_matches_enumeration(self, n):
        assert sr.siegel_divisor_count(n) == negation_orbit_divisor_count(n)

    @pytest.mark.parametrize("n,value", [(2, 1), (4, 13), (6, 33)])
    def test_m_y_formula(self, n, value):
        assert sr.siegel_m_y(n) == value

    def test_level_validation(self):
        for bad in (1, 3, 0, -2, 22):
            with pytest.raises(sr.InvalidInputError):
                sr.siegel_divisor_count(bad)
            with pytest.raises(sr.InvalidInputError):
                sr.siegel_m_y(bad)

    def test_condition_examples(self):
        assert sr.siegel_runge_condition(2, 9).holds
        assert not sr.siegel_runge_condition(2, 10).holds
        assert sr.siegel_runge_condition(4, 9).holds
        assert not sr.siegel_runge_condition(4, 10).holds

    def test_verdict_carries_formulas(self):
        v = sr.siegel_runge_condition(4, 9)
        assert v.m_used == 13 and v.r == 130


# (function, integral arguments, positions of the integer arguments)
INTEGER_ARGUMENTS = [
    (sr.siegel_m_y, (2,), (0,)),
    (sr.siegel_divisor_count, (4,), (0,)),
    (sr.siegel_runge_condition, (2, 9), (0, 1)),
    (sr.runge_condition, (1, 9, 10), (0, 1, 2)),
    (sr.bound_case_a, (3,), (0,)),
    (sr.bound_case_b, (3, 1, 1.0), (0, 1)),
]


INTEGER_ARGUMENT_CASES = [
    pytest.param(fn, args, pos, id=f"{fn.__name__}-{pos}")
    for fn, args, positions in INTEGER_ARGUMENTS
    for pos in positions
]


def _with(args, pos, value):
    return args[:pos] + (value,) + args[pos + 1:]


class TestIntegerArguments:
    @pytest.mark.parametrize("bad", [0.5, 0.9, float("nan")], ids=["half", "nine-tenths", "nan"])
    @pytest.mark.parametrize(("fn", "args", "pos"), INTEGER_ARGUMENT_CASES)
    def test_non_integral_rejected(self, fn, args, pos, bad):
        # int() truncated siegel_m_y(2.9) to level 2, and runge_condition and
        # the bound cases took 1.5 as given or echoed a truncated count
        value = bad if math.isnan(bad) else args[pos] + bad
        with pytest.raises(sr.InvalidInputError):
            fn(*_with(args, pos, value))

    @pytest.mark.parametrize(("fn", "args", "pos"), INTEGER_ARGUMENT_CASES)
    def test_integral_floats_accepted(self, fn, args, pos):
        # repr tells 2.0 from 2, so the echoed counts must be the checked ints
        assert repr(fn(*_with(args, pos, float(args[pos])))) == repr(fn(*args))


class TestSiegelIncidence:
    def test_witness(self):
        inc = sr.siegel_incidence()
        assert inc.r == 10
        assert sr.m_y_value(inc) == 1
        assert sr.runge_condition(sr.m_y_value(inc), 9, inc.r).holds

    def test_matches_closed_formula(self):
        assert sr.m_y_value(sr.siegel_incidence()) == sr.siegel_m_y(2)
