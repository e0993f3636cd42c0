"""JSON-in/JSON-out command-line interface.

One subcommand per capability: theta evaluation, fundamental-domain
reduction, the projective embedding, vanishing analysis, relation rank from
seeded samples, tube membership, Runge verdicts, the explicit bound cases
and Weil heights.  Verdicts live in the payload ("holds"), never in the
exit code: 0 means the run succeeded, 2 malformed input, 1 numerical
failure.  The JSON wire format lives here too: :func:`dumps_canonical`
prints floats with 12 significant digits, so output is byte-reproducible
for identical arguments and seed; :func:`siegel_point_to_json` and
:func:`siegel_point_from_json` encode a point of H2; ``_run`` builds the
``embed`` and ``reduce`` payloads and ``_parse_incidence`` reads
DivisorIncidence JSON for ``runge --incidence-file``.

Each branch of ``_run`` imports the modules it runs, so a call loads only
its own: ``reduce`` and ``tube`` load halfspace, ``runge`` runge, and
``bounds`` and ``height`` heights, none of them numpy.  Only ``theta``,
``embed``, ``vanishing`` and ``rank`` sum theta series and load the numpy
modules theta, embedding and sampling.  At import this module loads only
errors, whose constants the parser reads.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import DEFAULT_TOL, DEFAULT_TOL_FOURTH, InvalidInputError, SiegelRungeError

#: Most samples ``rank`` takes; each costs a psi evaluation and a row of 10 complexes.
_MAX_SAMPLES = 100_000


def dumps_canonical(obj) -> str:
    """Serialize the dicts, lists, strings, numbers and None of ``_run``
    deterministically.

    Dict insertion order is kept; floats use fixed 12-significant-digit
    formatting; ints stay ints.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return json.dumps(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise InvalidInputError("cannot serialize non-finite numbers")
        return f"{float(obj):.12g}"
    if isinstance(obj, dict):
        inner = ", ".join(f"{json.dumps(str(k))}: {dumps_canonical(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, list):
        return "[" + ", ".join(dumps_canonical(v) for v in obj) + "]"
    raise InvalidInputError(f"cannot serialize object of type {type(obj).__name__}")


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def siegel_point_to_json(tau) -> dict:
    return {"tau1": _pair(tau.tau1), "tau2": _pair(tau.tau2), "tau4": _pair(tau.tau4)}


def siegel_point_from_json(data: dict):
    from .halfspace import SiegelPoint

    try:
        vals = [complex(data[k][0], data[k][1]) for k in ("tau1", "tau2", "tau4")]
    except (KeyError, TypeError, IndexError) as exc:
        raise InvalidInputError(f"malformed SiegelPoint JSON: {exc}") from exc
    return SiegelPoint(*vals)


_TAU_HELP = "SiegelPoint JSON {\"tau1\":[re,im],\"tau2\":[re,im],\"tau4\":[re,im]}"


def _add_tau_arguments(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--tau", help=_TAU_HELP)
    group.add_argument("--tau-file", help="path to a file holding the same JSON")


def _read_json(path: str):
    """The JSON in the file at path; a file that is not UTF-8 is malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path} is not UTF-8 text: {exc}") from exc


def _parse_tau(args):
    data = _read_json(args.tau_file) if args.tau_file is not None else json.loads(args.tau)
    return siegel_point_from_json(data)


def _parse_incidence(path: str):
    from .runge import DivisorIncidence

    data = _read_json(path)
    try:
        return DivisorIncidence(data["r"], data["outside_Y"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed DivisorIncidence JSON: {exc}") from exc


def _ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers, the argparse type of --char and --gaussian."""
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegel-runge",
        description="theta constants, Siegel reduction, the P^9 embedding, "
        "heights and Runge-condition arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("theta", help="evaluate one theta constant")
    _add_tau_arguments(p)
    p.add_argument("--char", required=True, type=_ints, help="characteristic bits a1,a2,b1,b2 (1 means 1/2)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = sub.add_parser("reduce", help="reduce to the fundamental domain")
    _add_tau_arguments(p)

    p = sub.add_parser("embed", help="the ten theta fourth powers as a projective point")
    _add_tau_arguments(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL_FOURTH)

    p = sub.add_parser("vanishing", help="indices of near-zero embedding coordinates")
    _add_tau_arguments(p)

    p = sub.add_parser("rank", help="rank of the span of seeded sample embeddings")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("tube", help="cusp-tube membership of the reduced representative")
    _add_tau_arguments(p)
    p.add_argument("--t", type=float, required=True)

    p = sub.add_parser("runge", help="the condition m_Y * s < r")
    p.add_argument("--s", type=int, required=True, help="number of bad places")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="even level for the closed-formula case")
    group.add_argument("--incidence-file", help="DivisorIncidence JSON instead of --n")

    p = sub.add_parser("bounds", help="explicit height-bound cases")
    p.add_argument("--case", choices=("a", "b"), required=True)
    p.add_argument("--sp", type=int, required=True, help="count of product-reduction places")
    p.add_argument("--field", default="rational",
                   help="'rational'/'Q' or 'imaginary_quadratic' (case a)")
    p.add_argument("--places", type=int, default=None, help="archimedean place count (case b)")
    p.add_argument("--t", type=float, default=None, help="tube parameter (case b)")

    p = sub.add_parser("height", help="Weil height of integer or Gaussian coordinates")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rational", type=int, nargs="+", metavar="INT")
    group.add_argument("--gaussian", type=_ints, nargs="+", metavar="RE,IM")

    return parser


def _run(args) -> dict:
    if args.command == "theta":
        from .theta import Characteristic, theta_constant

        tau = _parse_tau(args)
        m = Characteristic(args.char)
        tv = theta_constant(m, tau, args.tol)
        return {
            "char": list(m.bits),
            "value": [tv.value.real, tv.value.imag],
            "error_bound": tv.error_bound,
        }

    if args.command == "reduce":
        from .halfspace import reduce_to_fundamental_domain

        res = reduce_to_fundamental_domain(_parse_tau(args))
        return {
            "reduced": siegel_point_to_json(res.reduced),
            "transform": [list(r) for r in res.transform.rows],
            "iterations": res.iterations,
        }

    if args.command == "embed":
        from .embedding import psi

        point = psi(_parse_tau(args), tol=args.tol)
        return {"coords": [_pair(z) for z in point.coords], "order": "lex(a1,a2,b1,b2)"}

    if args.command == "vanishing":
        from .embedding import DEFAULT_REL_TOL, near_zero_coordinates, psi

        indices = near_zero_coordinates(psi(_parse_tau(args)))
        return {"indices": sorted(indices), "rel_tol": DEFAULT_REL_TOL}

    if args.command == "rank":
        if not 10 <= args.samples <= _MAX_SAMPLES:
            raise InvalidInputError(f"--samples must be between 10 and {_MAX_SAMPLES}, got {args.samples}")
        from .embedding import _numerical_rank, _singular_values, psi
        from .sampling import _reduced_draws

        svals = _singular_values(map(psi, _reduced_draws(args.samples, args.seed)), args.samples)
        return {
            "rank": _numerical_rank(svals),
            "n_samples": args.samples,
            "seed": args.seed,
            "singular_values": [float(s) for s in svals],
        }

    if args.command == "tube":
        from .halfspace import in_tube, reduce_to_fundamental_domain

        reduced = reduce_to_fundamental_domain(_parse_tau(args)).reduced
        return {
            "holds": in_tube(reduced, args.t),
            "t": args.t,
            "im_tau4": reduced.tau4.imag,
            "reduced": siegel_point_to_json(reduced),
        }

    if args.command == "runge":
        from .runge import m_y_value, runge_condition, siegel_runge_condition

        if args.n is not None:
            return siegel_runge_condition(args.n, args.s).to_json()
        inc = _parse_incidence(args.incidence_file)
        return runge_condition(m_y_value(inc), args.s, inc.r).to_json()

    if args.command == "bounds":
        from .heights import bound_case_a, bound_case_b

        if args.case == "a":
            field = {"Q": "rational", "Qi": "imaginary_quadratic"}.get(args.field, args.field)
            return bound_case_a(args.sp, field).to_json()
        return bound_case_b(args.sp, args.places, args.t).to_json()

    if args.command == "height":
        from .heights import weil_height_gaussian, weil_height_rational

        if args.rational is not None:
            return {"height": weil_height_rational(args.rational)}
        return {"height": weil_height_gaussian(args.gaussian)}

    raise InvalidInputError(f"unknown command {args.command!r}")  # pragma: no cover


def dispatch(argv=None) -> int:
    """Run one subcommand; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        text = dumps_canonical(_run(args))
    except (InvalidInputError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SiegelRungeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(dispatch())
