import json
import math

import numpy as np
import pytest

import siegel_runge as sr
from siegel_runge.cli import dispatch
from siegel_runge.json_io import (
    dumps_canonical,
    projective_point_from_json,
    siegel_point_from_json,
    siegel_point_to_json,
    symplectic_from_json,
)

from oracles import theta_1d

TAU_I = '{"tau1": [0, 1], "tau2": [0, 0], "tau4": [0, 1]}'


def run_ok(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestVerdictCommands:
    def test_runge_level_two(self, capsys):
        data = run_ok(capsys, ["runge", "--n", "2", "--s", "9"])
        assert data["holds"] is True and data["m"] == 1 and data["r"] == 10

    def test_runge_strictness(self, capsys):
        assert run_ok(capsys, ["runge", "--n", "2", "--s", "10"])["holds"] is False

    def test_runge_from_incidence_file(self, capsys, tmp_path):
        path = tmp_path / "inc.json"
        path.write_text(json.dumps({"r": 3, "outside_Y": [[1, 2], [1, 3], [2, 3]]}))
        data = run_ok(capsys, ["runge", "--incidence-file", str(path), "--s", "1"])
        assert data == {"holds": True, "m": 2, "s": 1, "r": 3}

    def test_runge_needs_exactly_one_source(self, capsys):
        assert dispatch(["runge", "--n", "2", "--s", "9", "--incidence-file", "x.json"]) == 2

    def test_bounds_case_a(self, capsys):
        data = run_ok(capsys, ["bounds", "--case", "a", "--sp", "3", "--field", "Q"])
        assert data["holds"] is True
        assert data["h_psi"] == 10.75 and data["h_faltings"] == 1070

    def test_bounds_case_b(self, capsys):
        data = run_ok(capsys, ["bounds", "--case", "b", "--sp", "0", "--places", "1", "--t", "1.0"])
        assert data["holds"] is True
        assert data["h_psi"] == pytest.approx(4 * math.pi + 6.14, abs=1e-9)

    def test_bounds_case_b_missing_args(self, capsys):
        assert dispatch(["bounds", "--case", "b", "--sp", "0"]) == 2

    def test_tube(self, capsys):
        assert run_ok(capsys, ["tube", "--tau", TAU_I, "--t", "0.9"])["holds"] is True
        assert run_ok(capsys, ["tube", "--tau", TAU_I, "--t", "1.1"])["holds"] is False

    def test_tube_small_parameter_is_input_error(self, capsys):
        assert dispatch(["tube", "--tau", TAU_I, "--t", "0.5"]) == 2


class TestHeights:
    def test_rational(self, capsys):
        code = dispatch(["height", "--rational", "2", "4", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == '{"height": 1.38629436112}\n'

    def test_gaussian(self, capsys):
        data = run_ok(capsys, ["height", "--gaussian", "1,1", "2,0"])
        assert data["height"] == pytest.approx(0.5 * math.log(2), abs=1e-11)

    def test_zero_coordinates_rejected(self, capsys):
        assert dispatch(["height", "--rational", "0", "0"]) == 2


class TestNumericCommands:
    def test_theta_value(self, capsys):
        data = run_ok(capsys, ["theta", "--tau", TAU_I, "--char", "0,0,0,0"])
        want = theta_1d(0, 0, 1j) ** 2
        got = complex(data["value"][0], data["value"][1])
        assert abs(got - want) <= 1e-9
        assert data["error_bound"] <= 1e-10

    def test_embed_round_trips(self, capsys):
        data = run_ok(capsys, ["embed", "--tau", TAU_I])
        point = projective_point_from_json(data)
        assert data["order"] == "lex(a1,a2,b1,b2)"
        assert len(point.coords) == 10

    def test_vanishing(self, capsys):
        data = run_ok(capsys, ["vanishing", "--tau", TAU_I])
        assert data == {"indices": [9], "rel_tol": 1e-06}

    def test_reduce_round_trips(self, capsys):
        tau = sr.act(
            sr.translation([[3, -1], [-1, 2]]), sr.SiegelPoint(0.1 + 1.1j, 0.2j, 1.3j)
        )
        data = run_ok(capsys, ["reduce", "--tau", dumps_canonical(siegel_point_to_json(tau))])
        reduced = siegel_point_from_json(data["reduced"])
        witness = symplectic_from_json(data["transform"])
        assert np.max(np.abs(sr.act(witness, tau).matrix - reduced.matrix)) <= 1e-9
        assert data["iterations"] <= 1000

    def test_rank(self, capsys):
        data = run_ok(capsys, ["rank", "--samples", "12", "--seed", "1"])
        assert data["rank"] == 5
        assert data["n_samples"] == 12 and data["seed"] == 1
        assert len(data["singular_values"]) == 10

    def test_tau_from_file(self, capsys, tmp_path):
        path = tmp_path / "tau.json"
        path.write_text(TAU_I)
        data = run_ok(capsys, ["vanishing", "--tau-file", str(path)])
        assert data["indices"] == [9]


class TestDeterminismAndErrors:
    def test_byte_identical_output(self, capsys):
        argv = ["embed", "--tau", '{"tau1": [0.13, 1.02], "tau2": [0.21, 0.25], "tau4": [-0.04, 1.31]}']
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_rank_byte_identical(self, capsys):
        argv = ["rank", "--samples", "10", "--seed", "3"]
        assert dispatch(argv) == 0
        first = capsys.readouterr().out
        assert dispatch(argv) == 0
        assert first == capsys.readouterr().out

    def test_malformed_json_is_exit_two(self, capsys):
        assert dispatch(["embed", "--tau", "{"]) == 2

    def test_not_in_h2_is_exit_two(self, capsys):
        assert dispatch(["embed", "--tau", '{"tau1": [0, -1], "tau2": [0, 0], "tau4": [0, 1]}']) == 2

    def test_numerical_failure_is_exit_one(self, capsys):
        # valid input, but the tolerance is unreachable at this depth
        nearly_degenerate = '{"tau1": [0, 1e-07], "tau2": [0, 0], "tau4": [0, 1e-07]}'
        assert dispatch(["embed", "--tau", nearly_degenerate]) == 1

    def test_unknown_subcommand_is_exit_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize("y", ["1e-60", "1e-120"])
    @pytest.mark.parametrize("command", [["theta", "--char", "0,0,0,0"], ["embed"]],
                             ids=["theta", "embed"])
    def test_tiny_imaginary_part_is_numerical_failure(self, capsys, command, y):
        # a valid point of H2 whose theta sums need a radius past the cap
        tau = f'{{"tau1": [0, {y}], "tau2": [0, 0], "tau4": [0, {y}]}}'
        assert dispatch([*command, "--tau", tau]) == 1
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("command", [["theta", "--char", "0,0,0,0"], ["embed"]],
                             ids=["theta", "embed"])
    def test_far_apart_eigenvalues_are_numerical_failure(self, capsys, command):
        # y_min = 1e-60 is positive; the theta sums need a radius past the cap
        tau = '{"tau1": [0, 1e-60], "tau2": [0, 0], "tau4": [0, 1]}'
        assert dispatch([*command, "--tau", tau]) == 1
        assert capsys.readouterr().err.startswith("numerical failure:")


class TestCanonicalSerializer:
    def test_twelve_significant_digits(self):
        assert dumps_canonical({"x": math.log(4)}) == '{"x": 1.38629436112}'

    def test_integers_stay_integers(self):
        assert dumps_canonical({"n": 10, "f": 10.0}) == '{"n": 10, "f": 10}'

    def test_nested_structures(self):
        assert dumps_canonical([1, [2.5, "s"], {"a": None, "b": True}]) == (
            '[1, [2.5, "s"], {"a": null, "b": true}]'
        )

    def test_non_finite_rejected(self):
        with pytest.raises(sr.InvalidInputError):
            dumps_canonical({"x": float("nan")})
