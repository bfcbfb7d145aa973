#!/usr/bin/env python3
"""Run every experiment at desk scale and write the tables/plots to out/.

Roughly a minute end to end; pass --quick for a fast smoke pass.
"""

import argparse
import pathlib
import sys

import numpy as np

from projmetrics.bodies import VPolytope
from projmetrics.constructions import NeedleSpec, augment, cross_section, prism_needle
from projmetrics.grassmann import full_space
from projmetrics.experiments import (
    ExperimentConfig,
    run_fibers,
    run_lemma,
    run_thm1,
    run_thm2,
    run_thm3,
    run_validation,
    write_csv,
    write_svg,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    n_sub = 300 if args.quick else 2000
    steps = 3 if args.quick else 6

    cfg = ExperimentConfig(d=3, j=2, seed=args.seed, n_subspaces=n_sub,
                           steps=steps, l0=2.0, workers=args.workers)
    table = run_thm1(cfg)
    write_csv(table, out / "thm1_d3_j2.csv")
    write_svg(table, "L_i", ["delta_hat", "claimed_bound"], out / "thm1_d3_j2.svg",
              log_log=True)
    print(f"thm1  -> {out / 'thm1_d3_j2.csv'}")

    table = run_thm2(cfg)
    write_csv(table, out / "thm2_d3_j2.csv")
    print(f"thm2  -> {out / 'thm2_d3_j2.csv'}")

    table = run_thm3(cfg)
    write_csv(table, out / "thm3_d3_j2.csv")
    print(f"thm3  -> {out / 'thm3_d3_j2.csv'}")

    lemma_cfg = ExperimentConfig(d=4, j=2, seed=args.seed,
                                 n_subspaces=1000 if args.quick else 10_000, n_points=1)
    write_csv(run_lemma(lemma_cfg), out / "lemma_d4_j2.csv")
    print(f"lemma -> {out / 'lemma_d4_j2.csv'}")

    # square plus a thin prism needle: where did the hull gain fiber length?
    square = VPolytope([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    spec = NeedleSpec(x0=np.array([0.5, 0.5]), u=np.array([1.0, 0.0]),
                      plane=full_space(2), length=8.0, eps=0.01, kind="prism")
    tube = VPolytope(spec.x0 + cross_section(spec.plane, spec.u, spec.eps).vertices)
    table = run_fibers(augment(square, prism_needle(spec)), square, "e1e2", 400, tube=tube)
    write_csv(table, out / "fibers_needle.csv")
    footer = dict(c.split(": ", 1) for c in table.footer_comments)
    print(f"fibers -> {out / 'fibers_needle.csv'} (diff_measure_outside_tube "
          f"{float(footer['diff_measure_outside_tube']):.6f}, tube_measure "
          f"{float(footer['tube_measure']):.6f})")

    table = run_validation(seed=args.seed)
    write_csv(table, out / "validation.csv")
    failures = [row for row in table.rows if row[-1] == "false"]
    print(f"validate -> {out / 'validation.csv'} ({len(failures)} failures)")
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
