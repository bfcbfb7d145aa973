"""Command-line entry point.

Exit codes: 0 all assertions pass, 2 assertion failure or numerical failure
(NonConvergenceError), 3 configuration error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import pathlib
import sys
import tempfile

import numpy as np

from ..bodies import BodyParseError, NonConvergenceError, VPolytope, load_body, save_body
from ..constructions import NeedleSpec, augment, cross_section, prism_needle
from ..grassmann import full_space
from ..metrics import SamplingPlan, delta_j, hausdorff, intrinsic_volume
from .config import ConfigError, ExperimentConfig
from .runners import (
    AssertionFailure,
    run_fibers,
    run_lemma,
    run_thm1,
    run_thm2,
    run_thm3,
    run_validation,
)
from .tables import write_csv, write_svg

EXIT_OK = 0
EXIT_ASSERTION = 2
EXIT_CONFIG = 3
EXIT_IO = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit(2) collides with code 2
        raise ConfigError(message)


MODE_HELP = ("auto: the exact in-flat value, with no subspace drawn, for a single or "
             "nested flat operand at every j, otherwise exact per sample for j <= 2 and "
             "for a single operand, and Monte Carlo for a pair at j >= 3; mc: per-sample "
             "Monte Carlo everywhere (a cross-check)")


def _thm_commands() -> dict:
    """Each thm command: its help, its runner, and its SVG's x column, y
    columns and log-log axes.  Built on each call, so each runner is the one
    bound to its name here at that moment: perfbench's span tracer rebinds
    those names."""
    return {
        "thm1": ("drift experiment", run_thm1, "L_i", ["delta_hat", "claimed_bound"], True),
        "thm2": ("dyadic-Cauchy experiment", run_thm2,
                 "m", ["step_delta_hat", "claimed_step"], False),
        "thm3": ("empty-set floor experiment", run_thm3,
                 "m", ["delta_to_empty_hat", "claimed_floor"], False),
    }


@functools.cache  # one tree per process: parse_args leaves the parser unchanged
def _build_parser() -> _Parser:
    top = _Parser(prog="projmetrics",
                  description="Projection-averaged metrics on convex bodies")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def sampling_flags(p):
        p.add_argument("--subspaces", type=int, default=2000)
        p.add_argument("--points", type=int, default=2000)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--mode", choices=["auto", "mc"], default="auto", help=MODE_HELP)

    p = sub.add_parser("metric", help="distance between two bodies of one dimension "
                                      "(a body's distance to the empty set is `intrinsic`)")
    p.add_argument("--body-a", required=True)
    p.add_argument("--body-b", required=True)
    p.add_argument("-j", type=int, required=True)
    sampling_flags(p)

    p = sub.add_parser("intrinsic", help="intrinsic volume of a body")
    p.add_argument("--body", required=True)
    p.add_argument("-j", type=int, required=True)
    sampling_flags(p)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two bodies")
    p.add_argument("--body-a", required=True)
    p.add_argument("--body-b", required=True)

    def runner_flags(p):
        p.add_argument("-d", type=int, required=True)
        p.add_argument("-j", type=int, required=True)
        p.add_argument("--steps", type=int, default=6)
        p.add_argument("--l0", type=float, default=2.0,
                       help="first needle length; thm1 only, thm2/thm3 ignore it")
        p.add_argument("--out", required=True)
        p.add_argument("--svg")
        p.add_argument("--workers", type=int, default=1)
        sampling_flags(p)

    for command, (help_text, *_) in _thm_commands().items():
        runner_flags(sub.add_parser(command, help=help_text))

    p = sub.add_parser("lemma", help="good-subspace statistics")
    p.add_argument("-d", type=int, required=True)
    p.add_argument("-j", type=int, required=True)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("validate", help="cross-validation checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fibers", help="fiber-difference profile over a 2-plane")
    p.add_argument("--body-a", required=True)
    p.add_argument("--body-b", required=True)
    p.add_argument("--plane", default="e1e2")
    p.add_argument("--grid", type=int, default=200)
    p.add_argument("--tube", help="needle cross-section body, in ambient coordinates")
    p.add_argument("--out", required=True)

    p = sub.add_parser("reproduce", help="every experiment table at desk scale")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=42)

    return top


def _mode(name: str) -> str:
    return "monte_carlo" if name == "mc" else name


def _check_dims(d: int, j: int) -> None:
    if not 1 <= j <= d <= 8:
        raise ConfigError(f"need 1 <= j <= d <= 8, got (d={d}, j={j})")


def _load(path):
    try:
        return load_body(path)
    except (BodyParseError, OSError) as exc:
        raise ConfigError(str(exc)) from exc


def _dispatch(args) -> int:
    if args.command == "metric":
        a, b = _load(args.body_a), _load(args.body_b)
        _check_dims(a.ambient_dim, args.j)
        plan = SamplingPlan(args.subspaces, args.points, args.seed, _mode(args.mode))
        est = delta_j(a, b, args.j, plan)
        print(f"delta_{args.j} = {est.value:.17g} std_error {est.std_error:.17g} "
              f"n_subspaces {est.n_subspaces} exact {str(est.exact).lower()}")
        return EXIT_OK

    if args.command == "intrinsic":
        body = _load(args.body)
        _check_dims(body.ambient_dim, args.j)
        plan = SamplingPlan(args.subspaces, args.points, args.seed, _mode(args.mode))
        est = intrinsic_volume(body, args.j, plan)
        print(f"V_{args.j} = {est.value:.17g} std_error {est.std_error:.17g} "
              f"n_subspaces {est.n_subspaces} exact {str(est.exact).lower()}")
        return EXIT_OK

    if args.command == "hausdorff":
        a, b = _load(args.body_a), _load(args.body_b)
        print(f"d_H = {hausdorff(a, b):.17g}")
        return EXIT_OK

    thm = _thm_commands().get(args.command)
    if thm is not None:
        _, run, x_col, y_cols, log_log = thm
        table = run(ExperimentConfig(d=args.d, j=args.j, seed=args.seed,
                                     n_subspaces=args.subspaces, n_points=args.points,
                                     steps=args.steps, l0=args.l0, workers=args.workers,
                                     mode=_mode(args.mode)))
        write_csv(table, args.out)
        if args.svg:
            write_svg(table, x_col, y_cols, args.svg, log_log=log_log)
        return EXIT_OK

    if args.command == "lemma":
        cfg = ExperimentConfig(d=args.d, j=args.j, seed=args.seed,
                               n_subspaces=args.samples, n_points=1)
        write_csv(run_lemma(cfg), args.out)
        return EXIT_OK

    if args.command == "validate":
        table = run_validation(seed=args.seed)
        write_csv(table, args.out)
        failed = [case for case, passed in zip(table.column("case"), table.column("passed"))
                  if passed == "false"]
        if failed:
            raise AssertionFailure("validation checks failed: " + ", ".join(failed))
        return EXIT_OK

    if args.command == "fibers":
        a, b = _load(args.body_a), _load(args.body_b)
        tube = None if args.tube is None else _load(args.tube)
        if tube is not None and tube.ambient_dim != a.ambient_dim:
            raise ConfigError(f"tube dimension {tube.ambient_dim} does not match "
                              f"body dimension {a.ambient_dim}")
        table = run_fibers(a, b, args.plane, args.grid, tube=tube)
        write_csv(table, args.out)
        return EXIT_OK

    if args.command == "reproduce":
        return _reproduce(pathlib.Path(args.out_dir), args.seed)

    raise ConfigError(f"unknown command {args.command!r}")


def _reproduce(out: pathlib.Path, seed: int) -> int:
    """Every experiment table, each through the same dispatch as its own
    subcommand: thm1/2/3 at d=3, j=2, lemma at d=4, j=2, the fiber profile
    of the unit square grown by a thin prism needle, and the validation
    checks."""
    out.mkdir(parents=True, exist_ok=True)
    thm = ["-d", "3", "-j", "2", "--seed", seed]
    with tempfile.TemporaryDirectory() as tmp:
        square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        spec = NeedleSpec(x0=np.array([0.5, 0.5]), u=np.array([1.0, 0.0]),
                          plane=full_space(2), length=8.0, eps=0.01, kind="prism")
        tube = VPolytope(spec.x0 + cross_section(spec.plane, spec.u, spec.eps).vertices)
        for name, body in (("square", square), ("tube", tube),
                           ("grown", augment(square, prism_needle(spec)))):
            save_body(body, f"{tmp}/{name}.body")
        runs = {
            "thm1_d3_j2.csv": ["thm1", *thm, "--svg", out / "thm1_d3_j2.svg"],
            "thm2_d3_j2.csv": ["thm2", *thm],
            "thm3_d3_j2.csv": ["thm3", *thm],
            "lemma_d4_j2.csv": ["lemma", "-d", "4", "-j", "2", "--seed", seed],
            "fibers_needle.csv": ["fibers", "--body-a", f"{tmp}/grown.body", "--body-b",
                                  f"{tmp}/square.body", "--grid", "400",
                                  "--tube", f"{tmp}/tube.body"],
            "validation.csv": ["validate", "--seed", seed],
        }
        for name, argv in runs.items():
            _dispatch(_build_parser().parse_args([str(a) for a in (*argv, "--out", out / name)]))
            print(f"{argv[0]} -> {out / name}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except ValueError as exc:  # ConfigError, parse errors, domain errors
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except NonConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_ASSERTION
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
