import importlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import siegel_runge as sr
from siegel_runge import theta
from siegel_runge.cli import build_parser, dispatch, dumps_canonical, siegel_point_from_json, siegel_point_to_json

from oracles import jacobi_fourth_powers, theta_1d

TAU_I = '{"tau1": [0, 1], "tau2": [0, 0], "tau4": [0, 1]}'
SQUEEZED = '{"tau1": [3.13, 0.2], "tau2": [-0.79, 0.05], "tau4": [1.96, 0.3]}'
REDUCED = ('{"tau1": [0.0328308813305, 1.96936618739], "tau2": [-0.0942514670301, 0.646605667881], '
           '"tau4": [0.367995105265, 2.74981227577]}')

#: Exact stdout of commands whose digits involve no BLAS summation order
#: (embed, theta and rank may differ in their last digit between builds).
GOLDEN = {
    "runge": (["runge", "--n", "4", "--s", "9"], '{"holds": true, "m": 13, "s": 9, "r": 130}'),
    "runge-fails": (["runge", "--n", "2", "--s", "10"], '{"holds": false, "m": 1, "s": 10, "r": 10}'),
    "bounds-a": (["bounds", "--case", "a", "--sp", "3", "--field", "Qi"],
                 '{"case": "a", "holds": true, "h_psi": 10.75, "h_faltings": 1070, "s_p": 3, '
                 '"field": "imaginary_quadratic"}'),
    "bounds-b": (["bounds", "--case", "b", "--sp", "2", "--places", "3", "--t", "1.25"],
                 '{"case": "b", "holds": true, "h_psi": 21.8479632679, "h_faltings": 1519.00798792, '
                 '"s_p": 2, "places": 3, "t": 1.25}'),
    "height-rational": (["height", "--rational", "6", "10", "15"], '{"height": 2.7080502011}'),
    "height-gaussian": (["height", "--gaussian", "1,1", "2,0", "3,-4"], '{"height": 1.60943791243}'),
    "reduce": (["reduce", "--tau", SQUEEZED],
               '{"reduced": ' + REDUCED + ', "transform": [[2, -1, -7, 3], [-1, -2, 2, 3], '
               '[0, 1, 1, -2], [-1, 0, 3, -1]], "iterations": 3}'),
    "tube": (["tube", "--tau", SQUEEZED, "--t", "1.9"],
             '{"holds": true, "t": 1.9, "im_tau4": 2.74981227577, "reduced": ' + REDUCED + '}'),
    "vanishing-product": (["vanishing", "--tau", TAU_I], '{"indices": [9], "rel_tol": 1e-06}'),
    "vanishing-cusp": (["vanishing", "--tau", '{"tau1": [0, 1], "tau2": [0, 0], "tau4": [0, 50]}'],
                       '{"indices": [4, 5, 8, 9], "rel_tol": 1e-06}'),
}


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

    @pytest.mark.parametrize("payload", ['{"r": 3}', "[1, 2]", '{"r": "x", "outside_Y": [[1]]}',
                                         '{"r": 3, "outside_Y": [["a"]]}',
                                         '{"r": 3.9, "outside_Y": [[1.5, 2], [3]]}'],
                             ids=["no-subsets", "list", "r-not-int", "index-not-int", "non-integral"])
    def test_malformed_incidence_file_is_exit_two(self, capsys, tmp_path, payload):
        path = tmp_path / "inc.json"
        path.write_text(payload)
        assert dispatch(["runge", "--incidence-file", str(path), "--s", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: malformed DivisorIncidence JSON")

    def test_uncovered_divisors_in_incidence_file_is_exit_two(self, capsys, tmp_path):
        path = tmp_path / "inc.json"
        path.write_text(json.dumps({"r": 10**6, "outside_Y": [[1]]}))
        assert dispatch(["runge", "--incidence-file", str(path), "--s", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed DivisorIncidence JSON") and len(err) < 1000

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

    def test_unserializable_bound_is_no_traceback(self, capsys):
        # 4 pi t overflows to inf, and the serializer's refusal escaped dispatch as a traceback, exit 1
        assert dispatch(["bounds", "--case", "b", "--sp", "0", "--places", "1", "--t", "1e308"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "cannot serialize non-finite numbers" in err


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

    def test_theta_payload_keeps_its_keys(self, capsys):
        # ThetaValue's radius and terms stay off stdout
        data = run_ok(capsys, ["theta", "--tau", TAU_I, "--char", "0,0,0,0"])
        assert list(data) == ["char", "value", "error_bound"]

    def test_embed_round_trips(self, capsys):
        data = run_ok(capsys, ["embed", "--tau", TAU_I])
        point = sr.ProjectivePoint([complex(re, im) for re, im in data["coords"]], 1e-8)
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
        witness = sr.SymplecticMatrix(data["transform"])
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

    @pytest.mark.parametrize("samples", ["9", "100001", "100000000", "-5"])
    def test_samples_out_of_range_is_exit_two_before_any_work(self, capsys, monkeypatch, samples):
        # 10^8 samples ran for hours, and 9 were all sampled and embedded
        # before relation_singular_values refused them
        from siegel_runge import embedding, sampling

        def spy(*args, **kwargs):
            raise AssertionError("sampled or embedded despite the bad sample count")

        monkeypatch.setattr(embedding, "psi", spy)
        monkeypatch.setattr(sampling, "sample_reduced_points", spy)
        monkeypatch.setattr(sampling, "_reduced_draws", spy)
        assert dispatch(["rank", "--samples", samples, "--seed", "1"]) == 2
        assert "--samples must be between 10 and 100000" in capsys.readouterr().err

    def test_negative_seed_is_exit_two_before_any_work(self, capsys, monkeypatch):
        # numpy's ValueError ended in a traceback and exit 1
        from siegel_runge import embedding

        monkeypatch.setattr(embedding, "psi", None)
        assert dispatch(["rank", "--samples", "10", "--seed", "-1"]) == 2
        assert "seed must be an integer >= 0" in capsys.readouterr().err

    def test_rank_stdout_is_the_pipeline_output(self, capsys):
        points = [sr.psi(t) for t in sr.sample_reduced_points(12, 3)]
        want = dumps_canonical({"rank": sr.relation_rank(points), "n_samples": 12, "seed": 3,
                                "singular_values": [float(s) for s in sr.relation_singular_values(points)]})
        assert dispatch(["rank", "--samples", "12", "--seed", "3"]) == 0
        assert capsys.readouterr().out == want + "\n"

    @pytest.mark.parametrize("argv", [["reduce", "--tau-file", "{path}"],
                                      ["runge", "--incidence-file", "{path}", "--s", "1"]],
                             ids=["tau-file", "incidence-file"])
    def test_file_not_utf8_is_exit_two(self, capsys, tmp_path, argv):
        # the bytes ff fe 00 ended in a UnicodeDecodeError traceback and exit 1
        path = tmp_path / "in.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert dispatch([arg.format(path=path) for arg in argv]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path} is not UTF-8 text")

    @pytest.mark.parametrize("argv", [["reduce", "--tau-file", "{path}"],
                                      ["runge", "--incidence-file", "{path}", "--s", "1"]],
                             ids=["tau-file", "incidence-file"])
    def test_missing_file_is_exit_two(self, capsys, tmp_path, argv):
        path = tmp_path / "missing.json"
        assert dispatch([arg.format(path=path) for arg in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_rank_takes_one_svd(self, capsys, monkeypatch):
        # the rank was taken by a second SVD of the same samples
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or svd(*args, **kwargs))
        assert run_ok(capsys, ["rank", "--samples", "12"])["rank"] == 5
        assert len(calls) == 1

    def test_rank_fills_its_matrix_from_an_iterator(self, capsys, monkeypatch):
        # rank kept all its samples and their points in two lists; the
        # singular values now take the points one at a time
        from siegel_runge import embedding

        seen = []
        helper = embedding._singular_values
        monkeypatch.setattr(embedding, "_singular_values",
                            lambda points, n: seen.append((type(points), n)) or helper(points, n))
        assert run_ok(capsys, ["rank", "--samples", "12", "--seed", "3"])["rank"] == 5
        assert len(seen) == 1 and seen[0][1] == 12
        assert not issubclass(seen[0][0], (list, tuple))

    def test_malformed_json_is_exit_two(self, capsys):
        assert dispatch(["embed", "--tau", "{"]) == 2

    @pytest.mark.parametrize("tau", ['{"tau1": [0, 1], "tau4": [0, 1]}',
                                     '{"tau1": [0], "tau2": [0, 0], "tau4": [0, 1]}',
                                     '{"tau1": 1, "tau2": [0, 0], "tau4": [0, 1]}'],
                             ids=["missing-entry", "short-pair", "number-for-pair"])
    def test_malformed_point_is_exit_two(self, capsys, tau):
        assert dispatch(["embed", "--tau", tau]) == 2
        assert capsys.readouterr().err.startswith("error: malformed SiegelPoint JSON")

    def test_not_in_h2_is_exit_two(self, capsys):
        assert dispatch(["embed", "--tau", '{"tau1": [0, -1], "tau2": [0, 0], "tau4": [0, 1]}']) == 2

    def test_numerical_failure_is_exit_one(self, capsys):
        # valid input, but the tolerance is unreachable at this depth: theta
        # sums at tau itself, where the box radius would pass the cap
        nearly_degenerate = '{"tau1": [0, 1e-07], "tau2": [0, 0], "tau4": [0, 1e-07]}'
        assert dispatch(["theta", "--char", "0,0,0,0", "--tau", nearly_degenerate]) == 1

    def test_unknown_subcommand_is_exit_two(self, capsys):
        assert dispatch(["frobnicate"]) == 2

    @pytest.mark.parametrize(("command", "y"), [(["theta", "--char", "0,0,0,0"], "1e-60"),
                                                (["theta", "--char", "0,0,0,0"], "1e-120"),
                                                (["embed"], "1e-120")],
                             ids=["theta-1e-60", "theta-1e-120", "embed-1e-120"])
    def test_tiny_imaginary_part_is_numerical_failure(self, capsys, command, y):
        # theta sums at tau, where the box radius would pass the cap; embed
        # goes through the fundamental domain, and at 1e-120 its factor
        # det(tau)^2 = y^4 underflows
        tau = f'{{"tau1": [0, {y}], "tau2": [0, 0], "tau4": [0, {y}]}}'
        assert dispatch([*command, "--tau", tau]) == 1
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize("command", [["embed"], ["vanishing"]], ids=["embed", "vanishing"])
    def test_vanishing_cocycle_is_numerical_failure(self, capsys, command):
        # the point reduces, but its cocycle det(tau) = 1e-400 underflows to
        # 0, and with it the tolerance of the sum at the reduced point
        tau = '{"tau1": [0, 1e-200], "tau2": [0, 0], "tau4": [0, 1e-200]}'
        assert dispatch([*command, "--tau", tau]) == 1
        assert capsys.readouterr().err.startswith("numerical failure: det(C tau + D)^2")

    @pytest.mark.parametrize("command", [["reduce"], ["tube", "--t", "1"]], ids=["reduce", "tube"])
    def test_tiny_scale_point_reduces(self, capsys, command):
        # det(tau) = 1e-400 underflowed in the first Gottschling step, which
        # refused the point as ill-conditioned; the cocycle test is redone
        # at a scale where it does not
        tau = sr.SiegelPoint(1e-200j, 0, 1e-200j)
        res = sr.reduce_to_fundamental_domain(tau)
        assert res.reduced == sr.act(res.transform, tau) == sr.SiegelPoint(1e200j, 0, 1e200j)
        assert res.cocycle == 0
        out = run_ok(capsys, [*command, "--tau", '{"tau1": [0, 1e-200], "tau2": [0, 0], "tau4": [0, 1e-200]}'])
        assert siegel_point_from_json(out["reduced"]) == res.reduced
        with pytest.raises(sr.ResourceLimitError, match="underflows the tolerance"):
            sr.psi(tau)

    @pytest.mark.parametrize("command", [["theta", "--char", "0,0,0,0"]], ids=["theta"])
    def test_far_apart_eigenvalues_are_numerical_failure(self, capsys, command):
        # y_min = 1e-60 is positive; the theta sums at tau need a radius past
        # the cap (embed goes through the fundamental domain, tested below)
        tau = '{"tau1": [0, 1e-60], "tau2": [0, 0], "tau4": [0, 1]}'
        assert dispatch([*command, "--tau", tau]) == 1
        assert capsys.readouterr().err.startswith("numerical failure:")

    @pytest.mark.parametrize(("y1", "y4"), [("1e-60", "1e-60"), ("1e-60", "1")],
                             ids=["tiny", "far-apart"])
    def test_embed_of_tiny_imaginary_part_goes_through_the_domain(self, capsys, y1, y4):
        # psi at diag(i y1, i y4) is evaluated at the reduced point; the
        # Jacobi inversion on each axis gives the values
        tau = f'{{"tau1": [0, {y1}], "tau2": [0, 0], "tau4": [0, {y4}]}}'
        coords = run_ok(capsys, ["embed", "--tau", tau])["coords"]
        got = np.array([complex(*c) for c in coords])
        want = jacobi_fourth_powers(float(y1), float(y4))
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want))


class TestGoldenOutput:
    @pytest.mark.parametrize("name", GOLDEN)
    def test_exact_stdout(self, capsys, name):
        argv, want = GOLDEN[name]
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == want + "\n"

    def test_console_script(self, capsys, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        with open(pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["siegel-runge"]
        module, _, name = target.partition(":")
        entry = getattr(importlib.import_module(module), name)
        monkeypatch.setattr(sys, "argv", ["siegel-runge", "runge", "--n", "2", "--s", "9"])
        assert entry() == 0
        assert json.loads(capsys.readouterr().out) == {"holds": True, "m": 1, "s": 9, "r": 10}


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

    def test_tuple_rejected(self):
        # _run builds lists only
        with pytest.raises(sr.InvalidInputError, match="type tuple"):
            dumps_canonical({"x": (1, 2)})


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Runs the CLI module as ``python -m siegel_runge.cli`` does, then reports on
#: stderr which of numpy, dataclasses and the package's modules were imported;
#: the exit code passes through.
PROBE = ("import runpy, sys\n"
         "try:\n"
         "    runpy.run_module('siegel_runge.cli', run_name='__main__', alter_sys=True)\n"
         "finally:\n"
         "    print('loaded:', *sorted(m for m in sys.modules if m in ('numpy', 'dataclasses')\n"
         "                             or m.startswith('siegel_runge.')), file=sys.stderr)\n")

INCIDENCE = {"r": 3, "outside_Y": [[1, 2], [1, 3], [2, 3]]}

#: Commands that must run without numpy, with their exit codes and the one
#: module each loads besides cli and errors.
ARRAY_FREE = {
    "reduce": (["reduce", "--tau", SQUEEZED], 0, "halfspace"),
    "tube": (["tube", "--tau", SQUEEZED, "--t", "1.9"], 0, "halfspace"),
    "runge-n": (["runge", "--n", "4", "--s", "9"], 0, "runge"),
    "runge-incidence": (["runge", "--incidence-file", "{incidence}", "--s", "1"], 0, "runge"),
    "bounds-a": (["bounds", "--case", "a", "--sp", "3", "--field", "Qi"], 0, "heights"),
    "bounds-b": (["bounds", "--case", "b", "--sp", "2", "--places", "3", "--t", "1.25"], 0, "heights"),
    "height-rational": (["height", "--rational", "6", "10", "15"], 0, "heights"),
    "height-gaussian": (["height", "--gaussian", "1,1", "2,0", "3,-4"], 0, "heights"),
    "help": (["--help"], 0, None),
    "usage-error": (["bounds", "--sp", "1"], 2, None),
}

#: Commands that sum theta series; they load numpy and must still work.
NUMERIC = {
    "theta": ["theta", "--tau", TAU_I, "--char", "0,0,0,0"],
    "embed": ["embed", "--tau", TAU_I],
    "vanishing": ["vanishing", "--tau", TAU_I],
    "rank": ["rank", "--samples", "12", "--seed", "3"],
}


def run_child(argv):
    """The CLI in a fresh interpreter: (exit code, stdout, the set of loaded
    modules among numpy, dataclasses and the package's, cli being __main__)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, env=env,
                          timeout=120)
    last = proc.stderr.strip().splitlines()[-1].split()
    assert last[0] == "loaded:", proc.stderr
    return proc.returncode, proc.stdout, set(last[1:])


def run_in_process(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = dispatch(argv)
    except SystemExit as exc:  # --help exits from inside argparse
        code = exc.code
    return code, capsys.readouterr().out


class TestColdPath:
    @pytest.mark.parametrize("name", ARRAY_FREE)
    def test_array_free_commands_load_only_their_module(self, capsys, monkeypatch, tmp_path, name):
        path = tmp_path / "inc.json"
        path.write_text(json.dumps(INCIDENCE))
        argv, want_code, module = ARRAY_FREE[name]
        argv = [a.replace("{incidence}", str(path)) for a in argv]
        code, out, loaded = run_child(argv)
        assert code == want_code
        assert loaded == {"siegel_runge.errors"} | ({f"siegel_runge.{module}"} if module else set())
        assert (code, out) == run_in_process(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("name", NUMERIC)
    def test_numeric_commands_still_work(self, capsys, monkeypatch, name):
        code, out, loaded = run_child(NUMERIC[name])
        assert code == 0
        assert "numpy" in loaded and "dataclasses" not in loaded
        assert (code, out) == run_in_process(capsys, monkeypatch, NUMERIC[name])

    def test_package_and_cli_import_without_numpy(self):
        code = ("import sys, siegel_runge, siegel_runge.cli\n"
                "print(*sorted(m for m in sys.modules if m in ('numpy', 'dataclasses')\n"
                "              or m.startswith('siegel_runge.')))\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.split() == ["siegel_runge.cli", "siegel_runge.errors"]

    def test_matrix_arguments_are_read_without_numpy(self):
        code = ("import sys\n"
                "import siegel_runge as sr\n"
                "rows = [[1, 0, 1, 2], [0, 1, 2, 3], [0, 0, 1, 0], [0, 0, 0, 1]]\n"
                "tau = [[0.1 + 1.1j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 1.2j]]\n"
                "g = sr.SymplecticMatrix(rows)\n"
                "assert sr.translation([[1, 2], [2, 3]]) == g\n"
                "assert sr.is_symplectic(rows) and not sr.is_level2(rows)\n"
                "sr.gl2_embedding([[2, 1], [1, 1]])\n"
                "assert sr.act(rows, tau) == sr.act(g, sr.SiegelPoint.from_matrix(tau))\n"
                "assert sr.SiegelPoint.from_matrix(tau).tau2 == 0.2 + 0.3j\n"
                "sr.reduce_to_fundamental_domain(tau)\n"
                "print('numpy' in sys.modules)\n")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "False"

    def test_tol_defaults_are_the_theta_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["theta", "--tau", TAU_I, "--char", "0,0,0,0"]).tol == theta.DEFAULT_TOL
        assert parser.parse_args(["embed", "--tau", TAU_I]).tol == theta.DEFAULT_TOL_FOURTH
