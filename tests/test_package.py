import cmath
import contextlib
import copy
import importlib
import inspect
import io
import math
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import siegel_runge as sr
from siegel_runge.cli import dispatch

#: Every name the package exports, by the module that defines it.
EXPORTS = {
    "embedding": ["ProjectivePoint", "archimedean_height_estimate", "is_product_locus", "near_zero_coordinates",
                  "projective_distance", "psi", "relation_rank", "relation_singular_values"],
    "errors": ["ConditioningError", "InconsistencyError", "InvalidInputError", "MIN_TUBE_PARAMETER",
               "NonConvergenceError", "ResourceLimitError", "SiegelRungeError"],
    "halfspace": ["J", "ReductionResult", "SiegelPoint", "SymplecticMatrix", "act", "gl2_embedding",
                  "gottschling_matrices", "in_tube", "is_level2", "is_symplectic", "reduce_to_fundamental_domain",
                  "translation"],
    "heights": ["BoundReport", "bound_case_a", "bound_case_b", "weil_height_gaussian", "weil_height_rational"],
    "runge": ["DivisorIncidence", "RungeVerdict", "m_y_value", "runge_condition", "siegel_divisor_count",
              "siegel_incidence", "siegel_m_y", "siegel_runge_condition"],
    "sampling": ["random_level2_matrix", "random_symplectic_matrix", "sample_reduced_points"],
    "theta": ["Characteristic", "ThetaValue", "all_characteristics", "even_characteristics", "odd_characteristics",
              "tail_bound", "theta_constant", "theta_fourth_vector", "truncation_radius"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestLazyExports:
    @pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items() for n in names])
    def test_name_resolves_to_its_module_object_and_is_cached(self, module, name):
        vars(sr).pop(name, None)
        assert getattr(sr, name) is getattr(importlib.import_module(f"siegel_runge.{module}"), name)
        # a cached name is a plain global: later lookups never reach __getattr__
        assert name in vars(sr)

    def test_all_and_dir_list_the_exports(self):
        assert sorted(sr.__all__) == NAMES
        assert dir(sr) == NAMES
        assert len(NAMES) == 52

    @pytest.mark.parametrize("module", sr._MODULE_EXPORTS)
    def test_table_lists_what_each_module_defines(self, module):
        # the table is the one declaration: it lists every public class and
        # function a module defines, lru_cache wrappers included, and no class
        # or function a module only imports
        mod = importlib.import_module(f"siegel_runge.{module}")
        listed = sr._MODULE_EXPORTS[module]
        assert not hasattr(mod, "__all__")
        defined = {name for name, obj in vars(mod).items() if not name.startswith("_")
                   and (inspect.isclass(obj) or inspect.isroutine(obj)) and obj.__module__ == mod.__name__}
        assert defined <= set(listed)
        for name in listed:
            obj = getattr(sr, name)
            assert vars(mod)[name] is obj
            if inspect.isclass(obj) or inspect.isroutine(obj):
                assert obj.__module__ == mod.__name__
        assert sorted(listed) == EXPORTS[module]

    def test_array_free_modules_resolve_without_numpy(self):
        code = ("import sys\n"
                "import siegel_runge as sr\n"
                "for module in ('errors', 'halfspace', 'heights', 'runge'):\n"
                "    for name in sr._MODULE_EXPORTS[module]:\n"
                "        getattr(sr, name)\n"
                "print('numpy' in sys.modules)\n"
                "for name in sr.__all__:\n"
                "    getattr(sr, name)\n"
                "print('numpy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(sr.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == ["False", "True"]

    def test_star_import(self):
        namespace = {}
        exec("from siegel_runge import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sr.no_such_name


class TestMutationList:
    def test_each_edit_applies_once(self):
        # tests/mutants.py applies each edit to a copy of the source, so a
        # change that moves mutated code updates the list with it
        from mutants import misplaced
        assert misplaced() == []


# --- The records: immutable, compared, printed and pickled by their fields ---

_POINT = sr.SiegelPoint(0.4 + 0.9j, 0.1 + 0.2j, -0.2 + 1.3j)
_COORDS = np.array([1.5 + 0.5j, 2.0, -1.0j, 0.25, 3.0, 1.0, 1.0, 0.5j, 2.0, 1.0])

#: Each record's fields, in order, and two factories: one gives a fresh record
#: with the same fields on every call, the other a record that differs.
RECORDS = {
    "SiegelPoint": (("tau1", "tau2", "tau4"), lambda: sr.SiegelPoint(0.4 + 0.9j, 0.1 + 0.2j, -0.2 + 1.3j),
                    lambda: sr.SiegelPoint(0.4 + 0.9j, 0.1 + 0.2j, -0.2 + 1.4j)),
    "SymplecticMatrix": (("rows",), lambda: sr.SymplecticMatrix(sr.J.rows), lambda: sr.translation([[1, 0], [0, 0]])),
    "ReductionResult": (("reduced", "transform", "iterations", "cocycle"),
                        lambda: sr.reduce_to_fundamental_domain(_POINT),
                        lambda: sr.reduce_to_fundamental_domain(sr.act(sr.J, _POINT))),
    "BoundReport": (("condition_holds", "h_psi_bound", "h_faltings_bound", "inputs"),
                    lambda: sr.bound_case_a(1), lambda: sr.bound_case_a(5)),
    "DivisorIncidence": (("r", "outside_y"), lambda: sr.DivisorIncidence(3, [[1, 2], [1, 3], [2, 3]]),
                         sr.siegel_incidence),
    "RungeVerdict": (("m_used", "s", "r", "holds"), lambda: sr.runge_condition(1, 1, 2),
                     lambda: sr.runge_condition(1, 3, 2)),
    "Characteristic": (("bits",), lambda: sr.Characteristic((0, 1, 0, 1)), lambda: sr.Characteristic((1, 1, 0, 0))),
    "ThetaValue": (("value", "error_bound", "radius", "terms"), lambda: sr.ThetaValue(0.5 + 0.25j, 1e-12, 3, 126),
                   lambda: sr.ThetaValue(0.5 + 0.25j, 1e-12, 4, 209)),
    # a fresh point shares the coordinate array, so its fields compare as equal
    "ProjectivePoint": (("coords", "tol"), lambda: sr.ProjectivePoint(_COORDS, 1e-8),
                        lambda: sr.ProjectivePoint(_COORDS, 1e-9)),
}

#: Records with a field that cannot be hashed, so hashing them raises TypeError.
UNHASHABLE = {"BoundReport", "ProjectivePoint"}

#: Records the library builds, through the positional constructor of _Record.
RESULTS = {"ReductionResult", "BoundReport", "RungeVerdict", "ThetaValue"}


def _same(x, y):
    """Equal records; a ProjectivePoint by its fields, since a copied
    coordinate array makes == ambiguous."""
    if isinstance(x, sr.ProjectivePoint):
        return (type(y) is sr.ProjectivePoint and np.array_equal(x.coords, y.coords)
                and (x.tol, x.sup) == (y.tol, y.sup))
    return type(y) is type(x) and x == y


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    def test_equality_and_hash_by_fields(self, name):
        fields, make, other = RECORDS[name]
        x, y = make(), make()
        assert x is not y and x == y and not x != y
        assert x != other() and not x == other()
        values = tuple(getattr(x, f) for f in fields)
        assert x != values and x != object()
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == hash(y) == hash(values)
            assert len({x, y, other()}) == 2

    def test_repr_lists_the_fields(self, name):
        fields, make, _ = RECORDS[name]
        x = make()
        inner = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
        assert repr(x) == f"{name}({inner})"
        assert "sup=" not in repr(x)

    def test_fields_cannot_be_set_or_deleted(self, name):
        fields, make, other = RECORDS[name]
        x = make()
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(x, f, getattr(other(), f))
            with pytest.raises(AttributeError):
                delattr(x, f)
        with pytest.raises(AttributeError):
            x.extra = 1
        assert _same(x, make())

    @pytest.mark.parametrize("through", [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
                             ids=["pickle", "copy", "deepcopy"])
    def test_pickle_and_copy_round_trip(self, name, through):
        _, make, _ = RECORDS[name]
        x = make()
        assert _same(x, through(x))

    def test_constructor_takes_exactly_the_fields(self, name):
        fields, make, _ = RECORDS[name]
        x = make()
        values = tuple(getattr(x, f) for f in fields)
        assert _same(x, type(x)(*values))
        # the base constructor names the count; a validating one is Python's own
        match = f"takes {len(fields)} fields" if name in RESULTS else "positional argument"
        for wrong in (values[:-1], values + (values[-1],)):
            with pytest.raises(TypeError, match=match):
                type(x)(*wrong)

    def test_only_characteristics_are_ordered(self, name):
        _, make, other = RECORDS[name]
        x, y = make(), other()
        if name != "Characteristic":
            with pytest.raises(TypeError):
                x < y
            return
        assert (x < y, x <= y, x > y, x >= y, x <= make(), x >= make()) == (True, True, False, False, True, True)
        assert sorted(reversed(sr.all_characteristics())) == list(sr.all_characteristics())
        with pytest.raises(TypeError):
            x < x.bits


# --- One validation policy (the errors module docstring) ---------------------
#
# A raw value -- a number, a sequence of numbers, a CLI flag -- that is
# malformed raises InvalidInputError at the public boundary, and the CLI exits
# 2 on it; a well-formed one gives a result or a documented SiegelRungeError,
# never a bare exception.  Each draw is labelled valid or not by the
# documented contract of its parameter.  Valid counts stay small, so that no
# draw starts real work.

HUGE = 2**100

TAU = sr.SiegelPoint(0.1 + 1.1j, 0.2 + 0.3j, -0.3 + 1.2j)
TAU_JSON = '{"tau1": [0.1, 1.1], "tau2": [0.2, 0.3], "tau4": [-0.3, 1.2]}'
COORDS = (1.5 + 0.5j, 2.0, -1.0j, 0.25, 3.0, 1.0, 1.0, 0.5j, 2.0, 1.0)
ZERO = sr.Characteristic((0, 0, 0, 0))


def _gen(xs):
    return (x for x in xs)


#: Values that no raw-number parameter accepts.
NOT_A_NUMBER = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.sampled_from(["1", "0.5", "nan", "-1", "1e3"]),
    st.complex_numbers(max_magnitude=10),
    st.decimals(allow_nan=False, allow_infinity=False, places=2, min_value=-10, max_value=10),
    st.lists(st.integers(0, 3), max_size=3),
    st.lists(st.lists(st.integers(0, 3), min_size=1, max_size=3), min_size=2, max_size=3),
    st.sets(st.integers(0, 3), max_size=3),
    st.lists(st.integers(0, 3), max_size=3).map(_gen),
)


def _labelled(valid, invalid):
    return st.one_of(valid.map(lambda v: (v, True)), invalid.map(lambda v: (v, False)))


def integer(least, most, low=None, none_ok=False):
    """Draws for an integer parameter >= least, which reads integral floats,
    fractions and numpy and bool integers as ints; valid draws lie in
    [low, most], low defaulting to least."""
    low = least if low is None else low
    ok = st.integers(low, most)
    valid = st.one_of(ok, st.integers(low, min(most, 2**1000)).map(float), ok.map(Fraction),
                      st.integers(low, min(most, 2**62)).map(np.int64),
                      st.booleans().filter(lambda b: low <= b <= most))
    invalid = st.one_of(
        NOT_A_NUMBER.filter(lambda v: not (none_ok and v is None)),
        st.floats().filter(lambda x: not x.is_integer()),
        st.integers(max_value=least - 1),
        st.integers(-HUGE, least - 1).map(float),
        st.integers(-HUGE, least - 1).map(np.float64),
        st.booleans().filter(lambda b: b < least),
        st.fractions(-100, 100, max_denominator=7).filter(lambda q: q.denominator != 1),
    )
    return _labelled(st.one_of(valid, st.none()) if none_ok else valid, invalid)


def real(low, high=math.inf):
    """Draws for a real parameter whose float lies in [low, high), or in
    (0, high) for low = 0."""
    def inside(x):
        try:
            y = float(x)
        except OverflowError:
            return False
        return (0 < y if low == 0 else low <= y) and y < high

    numbers = st.one_of(st.floats(), st.integers(-HUGE, HUGE), st.fractions(-10, 10), st.floats().map(np.float64),
                        st.booleans(), st.sampled_from([2**1100, -2**1100]))
    return _labelled(numbers.filter(inside), st.one_of(NOT_A_NUMBER, numbers.filter(lambda x: not inside(x))))


def level():
    """Draws for an even level 2 <= n <= 20."""
    valid = st.sampled_from(range(2, 21, 2))
    invalid = st.one_of(NOT_A_NUMBER, st.integers(-HUGE, HUGE).filter(lambda n: n % 2 or not 2 <= n <= 20),
                        st.floats().filter(lambda x: not x.is_integer()))
    return _labelled(st.one_of(valid, valid.map(float)), invalid)


def tau_entry(positive_definite):
    """Draws for one entry of tau, the other two fixed: a finite number z
    with positive_definite(Im z)."""
    numbers = st.one_of(st.complex_numbers(allow_nan=True, allow_infinity=True), st.floats(),
                        st.integers(-HUGE, HUGE), st.sampled_from([2**1100, -2**1100]))

    def ok(z):
        return (not isinstance(z, int) or abs(z) < 2**1000) and cmath.isfinite(z) and positive_definite(complex(z).imag)

    not_numbers = st.one_of(st.none(), st.text(max_size=3), st.lists(st.integers(0, 3), max_size=3),
                            st.sets(st.integers(0, 3), max_size=3), st.lists(st.integers(0, 3)).map(_gen),
                            st.decimals(allow_nan=False, allow_infinity=False, places=1, max_value=3))
    return _labelled(numbers.filter(ok), st.one_of(not_numbers, numbers.filter(lambda z: not ok(z))))


def matrix(n, entries):
    """Malformed n x n matrices of the given entries: a wrong row count, a
    ragged row, a set, mapping or generator for the matrix or its rows, a
    scalar, a string, a nest of matrices, or one malformed entry."""
    row = st.lists(entries, min_size=n, max_size=n)
    square = st.lists(row, min_size=n, max_size=n)
    bad_entry = st.one_of(st.none(), st.text(max_size=2), st.lists(st.integers(0, 1), max_size=2),
                          st.floats(allow_nan=True).filter(lambda x: not math.isfinite(x)))

    def ragged(m, i, r):
        return [r if k == i else m[k] for k in range(n)]

    def poke(m, i, j, x):
        m[i][j] = x
        return m

    return _labelled(st.nothing(), st.one_of(
        st.none(), st.integers(), st.floats(), st.text(max_size=4),
        st.lists(row, max_size=n + 2).filter(lambda m: len(m) != n),
        st.builds(ragged, square, st.integers(0, n - 1), st.lists(entries, max_size=n + 1).filter(lambda r: len(r) != n)),
        square.map(lambda m: [set(r) for r in m]),
        square.map(lambda m: dict(enumerate(m))),
        square.map(_gen),
        square.map(lambda m: [_gen(r) for r in m]),
        square.map(lambda m: [m] * n),
        st.builds(poke, square, st.integers(0, n - 1), st.integers(0, n - 1), bad_entry),
    ))


def sequence(valid, invalid, generators=True):
    """Draws for a raw sequence from samples; with ``generators`` each list or
    tuple sample is drawn as a generator too."""
    def drawn(samples):
        listed = [v for v in samples if type(v) in (list, tuple)]
        return st.one_of(st.sampled_from(samples), st.sampled_from(listed).map(_gen) if generators and listed
                         else st.nothing())
    return _labelled(drawn(valid), drawn(invalid))


#: (export, parameter) -> (call with the drawn value, draws).
BOUNDARY = {
    ("ProjectivePoint", "coords"): (lambda v: sr.ProjectivePoint(v, 1e-8), sequence(
        [list(COORDS), COORDS, [1] * 10, np.array(COORDS)],
        [None, 3, "x" * 10, ["1"] * 10, [None] * 10, list(COORDS)[:9], list(COORDS) + [1.0], [[1]] * 10,
         [[1, 2]] + [[1]] * 9, [math.nan] * 10, [1, math.inf] * 5, set(range(10)), _gen(COORDS)],
        generators=False)),
    ("ProjectivePoint", "tol"): (lambda v: sr.ProjectivePoint(COORDS, v), real(0)),
    ("SiegelPoint", "tau1"): (lambda v: sr.SiegelPoint(v, 0.2, 1.2j), tau_entry(lambda y: y > 0)),
    ("SiegelPoint", "tau2"): (lambda v: sr.SiegelPoint(1.1j, v, 1.2j), tau_entry(lambda y: 1.2 - y * (y / 1.1) > 0)),
    ("SiegelPoint", "tau4"): (lambda v: sr.SiegelPoint(1.1j, 0.2, v), tau_entry(lambda y: y > 0)),
    ("SiegelPoint.from_matrix", "tau"): (sr.SiegelPoint.from_matrix, matrix(2, st.just(1j))),
    ("SymplecticMatrix", "rows"): (sr.SymplecticMatrix, matrix(4, st.integers(-2, 2))),
    ("act", "gamma"): (lambda v: sr.act(v, TAU), matrix(4, st.integers(-2, 2))),
    ("act", "tau"): (lambda v: sr.act(sr.J, v), matrix(2, st.just(1j))),
    ("archimedean_height_estimate", "points"): (lambda v: sr.archimedean_height_estimate(v, 1), sequence(
        [[[1, 2]], [np.array([1 + 1j, 2])], [(3.0,)], [sr.ProjectivePoint(COORDS, 1e-8)]],
        [None, 3, "x", [], [None], ["1"], [[]], [["1", "2"]], [[[1, 2], [3]]], [{1, 2}], [_gen([1, 2])],
         [[math.nan]], [[0, 0]], [[1], [1]]])),
    ("archimedean_height_estimate", "degree"): (lambda v: sr.archimedean_height_estimate([COORDS], v),
                                                integer(1, 2)),
    ("archimedean_height_estimate", "multiplicities"): (
        lambda v: sr.archimedean_height_estimate([COORDS, COORDS], 2, v), sequence(
            [[1, 1], (1.0, True), None],
            [3, 2.5, "x", "11", [1], [1, 1, 1], [2, 0], [3, -1], [1.5, 0.5], [None, 1], [[1], [1]], ["1", "1"],
             [math.nan, 1], {1}])),
    ("bound_case_a", "field_kind"): (lambda v: sr.bound_case_a(1, v), sequence(
        ["rational", "imaginary_quadratic"], [None, 3, "Q", "x", "", [], ["rational"]])),
    ("bound_case_a", "s_p"): (sr.bound_case_a, integer(0, HUGE)),
    ("bound_case_b", "archimedean_places"): (lambda v: sr.bound_case_b(0, v, 1.0), integer(1, HUGE)),
    ("bound_case_b", "s_p"): (lambda v: sr.bound_case_b(v, 1, 1.0), integer(0, HUGE)),
    ("bound_case_b", "t"): (lambda v: sr.bound_case_b(0, 1, v), real(sr.MIN_TUBE_PARAMETER)),
    ("Characteristic", "bits"): (sr.Characteristic, sequence(
        [[0, 0, 0, 0], (1, 0, 0, 1), [1.0, True, False, 0], np.array([0, 1, 1, 0])],
        [None, 5, "0101", [0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 2], [0, 0, 0, -1], [0.5, 0, 0, 0],
         ["0", 0, 0, 0], [None, 0, 0, 0], [[0], [0], [0], [0]], [math.nan, 0, 0, 0], {0, 1}])),
    ("DivisorIncidence", "r"): (lambda v: sr.DivisorIncidence(v, [[1]]), integer(1, 1)),
    ("DivisorIncidence", "outside_y"): (lambda v: sr.DivisorIncidence(3, v), sequence(
        [[[1, 2], [3]], [{1, 2, 3}], [(1,), range(2, 4)]],
        [None, 3, "123", [1, 2, 3], [["1"], [2, 3]], [[None], [1, 2, 3]], [[1.5, 2], [3]], [[math.nan], [1, 2, 3]],
         [[0, 1, 2, 3]], [[1, 2, 3, 4]], [[1, 2]], [], [[[1], [2]], [3]]])),
    ("gl2_embedding", "u"): (sr.gl2_embedding, matrix(2, st.integers(-1, 1))),
    ("in_tube", "t"): (lambda v: sr.in_tube(TAU, v), real(sr.MIN_TUBE_PARAMETER)),
    ("is_level2", "gamma"): (sr.is_level2, matrix(4, st.integers(-2, 2))),
    ("is_product_locus", "tau"): (sr.is_product_locus, matrix(2, st.just(1j))),
    ("is_symplectic", "m"): (sr.is_symplectic, matrix(4, st.integers(-2, 2))),
    ("psi", "tau"): (sr.psi, matrix(2, st.just(1j))),
    ("psi", "tol"): (lambda v: sr.psi(TAU, v), real(0)),
    ("random_level2_matrix", "entry_bound"): (
        lambda v: sr.random_level2_matrix(np.random.default_rng(1), 3, v), integer(1, HUGE, low=32)),
    ("random_level2_matrix", "max_word"): (
        lambda v: sr.random_level2_matrix(np.random.default_rng(1), v), integer(1, 4)),
    ("random_symplectic_matrix", "entry_bound"): (
        lambda v: sr.random_symplectic_matrix(np.random.default_rng(1), 3, v), integer(1, HUGE, none_ok=True)),
    ("random_symplectic_matrix", "max_word"): (
        lambda v: sr.random_symplectic_matrix(np.random.default_rng(1), v), integer(1, 4)),
    ("reduce_to_fundamental_domain", "tau"): (sr.reduce_to_fundamental_domain, matrix(2, st.just(1j))),
    ("runge_condition", "m_y"): (lambda v: sr.runge_condition(v, 1, 1), integer(1, HUGE)),
    ("runge_condition", "r"): (lambda v: sr.runge_condition(1, 1, v), integer(1, HUGE)),
    ("runge_condition", "s"): (lambda v: sr.runge_condition(1, v, 1), integer(1, HUGE)),
    ("sample_reduced_points", "n"): (lambda v: sr.sample_reduced_points(v, 0), integer(1, 3)),
    ("sample_reduced_points", "seed"): (lambda v: sr.sample_reduced_points(1, v), integer(0, HUGE)),
    ("siegel_divisor_count", "n"): (sr.siegel_divisor_count, level()),
    ("siegel_m_y", "n"): (sr.siegel_m_y, level()),
    ("siegel_runge_condition", "n"): (lambda v: sr.siegel_runge_condition(v, 1), level()),
    ("siegel_runge_condition", "s_l"): (lambda v: sr.siegel_runge_condition(2, v), integer(1, HUGE)),
    ("tail_bound", "radius"): (lambda v: sr.tail_bound(v, 1.0), integer(0, 2**1100)),
    ("tail_bound", "y_min"): (lambda v: sr.tail_bound(3, v), real(0)),
    ("theta_constant", "m"): (lambda v: sr.theta_constant(v, TAU), sequence(
        [ZERO], [None, (0, 0, 0, 0), "0000", [0, 0, 0, 0]])),
    ("theta_constant", "tau"): (lambda v: sr.theta_constant(ZERO, v), matrix(2, st.just(1j))),
    ("theta_constant", "tol"): (lambda v: sr.theta_constant(ZERO, TAU, v), real(0, 1.0)),
    ("theta_fourth_vector", "tau"): (sr.theta_fourth_vector, matrix(2, st.just(1j))),
    ("theta_fourth_vector", "tol"): (lambda v: sr.theta_fourth_vector(TAU, v), real(0)),
    ("translation", "b"): (sr.translation, matrix(2, st.integers(-2, 2))),
    ("truncation_radius", "tol"): (lambda v: sr.truncation_radius(1.0, v), real(0, 1.0)),
    ("truncation_radius", "y_min"): (lambda v: sr.truncation_radius(v, 1e-10), real(0)),
    ("weil_height_gaussian", "coords"): (sr.weil_height_gaussian, sequence(
        [[(1, 1), 2], [1 + 1j, [0, 3]], [3j]],
        [None, 3, "12", [], [0, (0, 0)], [(1, 2, 3)], [(1.5, 0)], [None], ["1,1"], [math.nan], [1.5j],
         [[1], [1, 2]]])),
    ("weil_height_rational", "coords"): (sr.weil_height_rational, sequence(
        [[1, 2], (6.0, 10, True), {3, 4}],
        [None, 3, "12", [], [0, 0], [2.5], [None], [math.nan], [[1]], [1j], ["1", "2"]])),
}

#: Parameters that take a library object or a numpy Generator, not a raw value.
NOT_RAW = {
    "in_tube": {"reduced_tau"},
    "m_y_value": {"incidence"},
    "near_zero_coordinates": {"p"},
    "projective_distance": {"p", "q"},
    "random_level2_matrix": {"rng"},
    "random_symplectic_matrix": {"rng"},
    "relation_rank": {"samples"},
    "relation_singular_values": {"samples"},
}

#: Exports that read no argument: result records, which the library builds, and constants.
NO_ARGUMENTS = {"BoundReport", "ReductionResult", "RungeVerdict", "ThetaValue", "J", "MIN_TUBE_PARAMETER"}


def _flag(kind, inside):
    """Draws of text for a CLI flag, labelled valid when the flag's argparse
    type reads it to a value inside the documented range."""
    def valid(text):
        try:
            return inside(kind(text))
        except ValueError:
            return False

    text = st.one_of(st.text(max_size=5), st.sampled_from(["nan", "inf", "-inf", "1e400", "1e-400", "", "0x1", "2.5",
                                                           "-1", "0", "1,1", "0,0,0,2", "1,2,3"]),
                     st.floats().map(repr), st.integers(-HUGE, HUGE).map(str))
    return text.map(lambda t: (t, valid(t)))


def _bits(text):
    return tuple(int(x) for x in text.split(","))


#: (command, flag) -> (argv with {} for the drawn text, draws).
CLI_FLAGS = {
    ("theta", "--tol"): (["theta", "--tau", TAU_JSON, "--char", "0,0,0,0", "--tol", "{}"],
                         _flag(float, lambda x: 0 < x < 1)),
    ("theta", "--char"): (["theta", "--tau", TAU_JSON, "--char", "{}"],
                          _flag(_bits, lambda b: len(b) == 4 and set(b) <= {0, 1})),
    ("embed", "--tol"): (["embed", "--tau", TAU_JSON, "--tol", "{}"], _flag(float, lambda x: 0 < x < math.inf)),
    ("tube", "--t"): (["tube", "--tau", TAU_JSON, "--t", "{}"],
                      _flag(float, lambda x: sr.MIN_TUBE_PARAMETER <= x < math.inf)),
    ("rank", "--samples"): (["rank", "--samples", "{}"], _flag(int, lambda n: 10 <= n <= 100_000)),
    ("rank", "--seed"): (["rank", "--samples", "10", "--seed", "{}"], _flag(int, lambda n: n >= 0)),
    ("runge", "--n"): (["runge", "--n", "{}", "--s", "1"], _flag(int, lambda n: n in range(2, 21, 2))),
    ("runge", "--s"): (["runge", "--n", "2", "--s", "{}"], _flag(int, lambda n: n >= 1)),
    ("bounds", "--sp"): (["bounds", "--case", "a", "--sp", "{}"], _flag(int, lambda n: n >= 0)),
    ("bounds", "--field"): (["bounds", "--case", "a", "--sp", "1", "--field", "{}"],
                            _flag(str, lambda f: f in ("Q", "Qi", "rational", "imaginary_quadratic"))),
    ("bounds", "--places"): (["bounds", "--case", "b", "--sp", "0", "--t", "1", "--places", "{}"],
                             _flag(int, lambda n: n >= 1)),
    ("bounds", "--t"): (["bounds", "--case", "b", "--sp", "0", "--places", "1", "--t", "{}"],
                        _flag(float, lambda x: sr.MIN_TUBE_PARAMETER <= x < math.inf)),
    ("height", "--rational"): (["height", "--rational", "{}"], _flag(int, lambda n: n != 0)),
    ("height", "--gaussian"): (["height", "--gaussian", "{}"], _flag(_bits, lambda b: len(b) == 2 and any(b))),
}


def _exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch(argv)


class TestValidationPolicy:
    def test_every_raw_parameter_is_drawn(self):
        raw = set()
        for name in NAMES:
            obj = getattr(sr, name)
            if name in NO_ARGUMENTS or isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            raw |= {(name, p) for p in inspect.signature(obj).parameters if p not in NOT_RAW.get(name, ())}
        assert raw | {("SiegelPoint.from_matrix", "tau")} == set(BOUNDARY)

    @pytest.mark.parametrize("name, param", sorted(BOUNDARY), ids=[f"{n}-{p}" for n, p in sorted(BOUNDARY)])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_malformed_raw_value_is_invalid_input(self, name, param, data):
        call, draws = BOUNDARY[name, param]
        value, valid = data.draw(draws, label="(value, valid)")
        if not valid:
            with pytest.raises(sr.InvalidInputError):
                call(value)
            return
        try:
            call(value)
        except sr.InvalidInputError as exc:
            raise AssertionError(f"a valid {param} was refused: {exc}") from exc
        except sr.SiegelRungeError:
            pass  # a documented failure of a valid request, such as ResourceLimitError

    @pytest.mark.parametrize("command, flag", sorted(CLI_FLAGS), ids=[f"{c}{f}" for c, f in sorted(CLI_FLAGS)])
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(data=st.data())
    def test_malformed_flag_exits_two(self, command, flag, data):
        argv, draws = CLI_FLAGS[command, flag]
        text, valid = data.draw(draws, label="(text, valid)")
        assume(not valid)
        assert _exit_code([text if a == "{}" else a for a in argv]) == 2
