"""Command-line surface.

JSON in, CSV/JSON out. Exit codes: 0 success, 2 invariant violation,
3 input error, 4 numerical failure; an error's class decides between
3 and 4 (matcore.InputError, matcore.NumericalFailure). The commands
that sample (contract, props, counterexample) draw from named Philox
substreams of --seed, so identical invocations produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

import numpy as np

from . import props as props_mod
from .domains import MEMBERSHIP_MARGIN, BallKernel, KernelDomain, NormBound, SpectralDisk, contains, sample_triples
from .freeprob import DENSITY_EPS, DENSITY_POINTS, DENSITY_TOL, SCALAR_KINDS, SOLVE_MAX_ITER
from .freeprob import ScalarLaw, ScalarPower, density_grid
from .matcore import InputError, NumericalFailure, from_json, mat_from_json, mat_to_json
from .matcore import finite_at_least_zero, positive_finite
from .metric import CONTRACTION_TOL, QUAD_POINTS, RAY_TOL, REFINEMENT_BUDGET
from .metric import check_contraction, d_upper, delta_auto_tilde, delta_routes, delta_tilde, dtilde_upper
from .ncpoint import direction, point, sample_outcomes
from .sampling import rng_stream, scaled, selfadjoint_disk_draw

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_INPUT = 3
EXIT_NUMERICAL = 4
# The most points one flag may ask for in one stack (distance --refine r asks for 2^r).
MAX_REFINE = 16
MAX_STACK_POINTS = 2**MAX_REFINE


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's rule for a negative number value, with an exponent: -1e-3 is not a flag
        self._negative_number_matcher = re.compile(r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on bad flags; 2 means invariant violation here
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load(path, family: str):
    """The registered object of `family` in the JSON file at path."""
    return from_json(_load_json(path), family)


def _load_domain(args) -> object:
    if args.domain is not None:
        return _load(args.domain, "domain")
    return KernelDomain(_load(args.kernel, "kernel"))


def _load_direction(path, base_dim: int):
    obj = _load_json(path)
    if isinstance(obj, dict) and "row_level" in obj:
        return from_json(obj, "direction")
    return direction(mat_from_json(obj), base_dim)


def _at_least_one(flag: str, value: int):
    """Reject a count flag below 1 before any work is done."""
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _at_most(flag: str, value: int, limit: int):
    """Reject a flag that asks for a stack larger than limit before any work is done."""
    if value > limit:
        raise ValueError(f"{flag} must be at most {limit}, got {value}")


def _write_text(path, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _delta_rows_csv(level: int, results) -> str:
    lines = ["level,method,value,bracket_lo,bracket_hi,iterations"]
    for r in results:
        lines.append(
            f"{level},{r.method},{r.value!r},{r.bracket[0]!r},{r.bracket[1]!r},{r.iterations}"
        )
    return "\n".join(lines) + "\n"


def _result_json(result) -> dict:
    """A result record's fields by name, without a note that is None,
    the points of a division as matrices."""
    out = {k: v for k, v in vars(result).items() if k != "note" or v is not None}
    if "division" in out:
        out["division"] = [mat_to_json(p.mat) for p in out["division"]]
    return out


def cmd_delta(args) -> int:
    positive_finite("--tol", args.tol)
    finite_at_least_zero("--margin", args.margin)
    dom = _load_domain(args)
    a, c = _load(args.a, "point"), _load(args.c, "point")
    b = _load_direction(args.b, a.base_dim)
    results = delta_routes(dom, a, c, b, tol=args.tol, margin=args.margin)
    payload = {"level": a.level, "results": [_result_json(r) for r in results]}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        _write_text(args.out, _delta_rows_csv(a.level, results))
    return EXIT_OK


def cmd_distance(args) -> int:
    _at_least_one("--quad-points", args.quad_points)
    _at_most("--quad-points", args.quad_points, MAX_STACK_POINTS)
    _at_most("--refine", args.refine, MAX_REFINE)
    dom = _load_domain(args)
    a, c = _load(args.a, "point"), _load(args.c, "point")
    bound = dtilde_upper(dom, a, c, refinement_budget=args.refine)
    path = d_upper(dom, a, c, quad_points=args.quad_points)
    payload = {"dtilde_upper": _result_json(bound), "d_upper": _result_json(path)}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    return EXIT_OK


def cmd_contract(args) -> int:
    _at_least_one("--samples", args.samples)
    _at_most("--samples", args.samples, MAX_STACK_POINTS)
    _at_least_one("--base-dim", args.base_dim)
    finite_at_least_zero("--tol", args.tol)
    f = _load(args.function, "function")
    src, dst = _load(args.src, "domain"), _load(args.dst, "domain")
    rng = rng_stream(args.seed, "contract")
    levels = [int(s) for s in args.levels.split(",") if s]
    if not levels:
        raise ValueError("--levels needs at least one level")
    for level in levels:
        _at_least_one("--levels", level)
    triples = sample_triples(src, rng, levels, args.samples, args.base_dim)
    rep = check_contraction(f, src, dst, triples, equality=args.equality, tol=args.tol)
    payload = {k: v for k, v in rep.items() if k != "rows"}
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.out:
        lines = ["lhs,rhs"]
        lines += [f"{lhs!r},{rhs!r}" for lhs, rhs in rep["rows"]]
        _write_text(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if rep["ok"] else EXIT_VIOLATION


def _build_model(args):
    if args.law is not None:
        return ScalarLaw(args.law, variance=args.variance, atom=args.atom)
    # the law parameters have defaults, so argparse cannot tell them apart from unset
    for flag, value, unset in (("--variance", args.variance, 1.0), ("--atom", args.atom, 0.0)):
        if value != unset:
            raise ValueError(f"{flag} goes with --law only, got {value!r} with --model")
    return _load(args.model, "model")


def _build_rho(args):
    if args.rho is not None:
        return _load(args.rho, "cp-map")
    return ScalarPower(args.rho_t)


def cmd_convolve(args) -> int:
    _at_least_one("--points", args.points)
    _at_most("--points", args.points, MAX_STACK_POINTS)
    _at_least_one("--max-iter", args.max_iter)
    positive_finite("--eps", args.eps)
    positive_finite("--tol", args.tol)
    model = _build_model(args)
    rho = _build_rho(args)
    result = density_grid(
        model,
        rho,
        args.xmin,
        args.xmax,
        points=args.points,
        eps=args.eps,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    lines = ["x,density,residual,iterations"]
    for row in result.rows:
        lines.append(f"{row.x!r},{row.density!r},{row.residual!r},{row.iterations}")
    csv_text = "\n".join(lines) + "\n"
    converged = sum(1 for row in result.rows if row.converged)
    if args.out:
        _write_text(args.out, csv_text)
        summary = {
            "points": len(result.rows),
            "converged": converged,
            "eps": result.eps,
            "mass": result.mass,
            "out": args.out,
        }
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        sys.stdout.write(csv_text)
    return EXIT_OK if converged else EXIT_NUMERICAL


def cmd_props(args) -> int:
    results = props_mod.run_suite(args.seed)
    report = props_mod.report_csv(results)
    sys.stdout.write(report)
    if args.out:
        _write_text(args.out, report)
    return EXIT_OK if props_mod.all_passed(results) else EXIT_VIOLATION


def cmd_counterexample(args) -> int:
    _at_least_one("--samples", args.samples)
    _at_most("--samples", args.samples, MAX_STACK_POINTS)
    # spectrum inside the disk at every level, norm bounded by the level
    graded = SpectralDisk(0.0, 1.0, NormBound("level", 1.0))
    big = np.zeros((4, 4), dtype=complex)
    big[0, 2] = 3.0
    big[1, 3] = 0.5
    small = np.array([[0.0, 3.0], [0.0, 0.0]], dtype=complex)
    level4_accepted = contains(graded, point(big))
    level2_accepted = contains(graded, point(small))

    # bounded gauge on the self-adjoint slice of a small spectral disk,
    # against blow-up at the boundary of the unit ball
    disk = SpectralDisk(0.0, 0.25, NormBound("constant", 1.0))
    rng = rng_stream(args.seed, "counterexample")
    pairs = []
    for _ in range(args.samples):
        lvl = int(rng.integers(1, 3))
        pairs.append((selfadjoint_disk_draw(rng, lvl, 1, 0.25), selfadjoint_disk_draw(rng, lvl, 1, 0.25)))
    worst = 0.0
    # one stacked delta_auto_tilde per level; a level whose stack fails is redone pair by pair
    for tilde in sample_outcomes(scaled(pairs), lambda a, c, _name: delta_auto_tilde(disk, a, c), "sample"):
        worst = max(worst, tilde.value)
    bounded = bool(worst <= 4.0 / 3.0 + 1e-9)
    r = 1.0 - 1e-3
    blowup_val = delta_tilde(BallKernel(), point(np.zeros((1, 1))), point(np.array([[r]]))).value
    blowup = bool(blowup_val > 10.0)

    payload = {
        "matrix_convexity": {
            "level4_accepted": level4_accepted,
            "level2_accepted": level2_accepted,
            "reproduced": level4_accepted and not level2_accepted,
        },
        "bounded_tilde": {
            "samples": args.samples,
            "max_tilde": worst,
            "bound": 4.0 / 3.0,
            "bounded": bounded,
            "ball_tilde_at_r": blowup_val,
            "blowup": blowup,
            "reproduced": bounded and blowup,
        },
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write_text(args.out, text)
    ok = payload["matrix_convexity"]["reproduced"] and payload["bounded_tilde"]["reproduced"]
    return EXIT_OK if ok else EXIT_VIOLATION


@functools.cache
def build_parser() -> _Parser:
    # built once per process: each tree is cyclic garbage once dropped,
    # and parse_args leaves the parser unchanged
    parser = _Parser(prog="ncmetric", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None)

    def add_seeded(p):
        p.add_argument("--seed", type=int, default=0)
        add_common(p)

    def add_domain(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--domain")
        group.add_argument("--kernel")

    p = sub.add_parser("delta", help="infinitesimal metric by every applicable method")
    add_domain(p)
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=RAY_TOL)
    p.add_argument("--margin", type=float, default=MEMBERSHIP_MARGIN)
    add_common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser(
        "distance",
        help="division distance upper bound and midpoint estimate of the path distance",
    )
    add_domain(p)
    p.add_argument("--a", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--refine", type=int, default=REFINEMENT_BUDGET)
    p.add_argument("--quad-points", type=int, default=QUAD_POINTS)
    add_common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("contract", help="Schwarz-Pick contraction report for a function")
    p.add_argument("--function", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--levels", default="1,2")
    p.add_argument("--base-dim", type=int, default=1)
    p.add_argument("--equality", action="store_true")
    p.add_argument("--tol", type=float, default=CONTRACTION_TOL)
    add_seeded(p)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("convolve", help="spectral density of a free convolution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--law", choices=SCALAR_KINDS)
    group.add_argument("--model")
    p.add_argument("--variance", type=float, default=1.0)
    p.add_argument("--atom", type=float, default=0.0)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--rho-t", type=float)
    group.add_argument("--rho")
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--points", type=int, default=DENSITY_POINTS)
    p.add_argument("--eps", type=float, default=DENSITY_EPS)
    p.add_argument("--tol", type=float, default=DENSITY_TOL)
    p.add_argument("--max-iter", type=int, default=SOLVE_MAX_ITER)
    add_common(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("props", help="run the cross-module invariant suite")
    add_seeded(p)
    p.set_defaults(func=cmd_props)

    p = sub.add_parser("counterexample", help="reproduce the graded-norm and bounded-gauge counterexamples")
    p.add_argument("--samples", type=int, default=50)
    add_seeded(p)
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # a JSONDecodeError is a ValueError
    except (InputError, ValueError, TypeError, KeyError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
