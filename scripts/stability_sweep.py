#!/usr/bin/env python3
"""Smallest Rayleigh quotients of the layer extension across dimensions.

For each ambient dimension the monotone layer is extended constantly in the
radial coordinate on a 129x129 grid, the second variation's smallest
Rayleigh quotient is computed, and the radial test-function inequality is
probed on a doubling cutoff schedule.
"""

import argparse
import sys

from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import LabError
from onephase_lab.experiments import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/stability_sweep")
    ap.add_argument("--dims", default="3,4,5")
    ap.add_argument("--nodes", type=int, default=129)
    args = ap.parse_args()

    for n in (int(d) for d in args.dims.split(",")):
        cfg = ExperimentConfig(
            experiment="stability",
            out_dir=f"{args.out}/n{n}",
            n=n,
            ns=args.nodes,
            nt=args.nodes,
            alpha=0.5 * ((n - 2) / 2.0 + (n - 2) ** 0.5) if 2 < n < 6 else 0.5,
        )
        report = run(cfg)
        ray = report.results["rayleigh"]
        print(f"n={n}: rayleigh_min = {ray['min']:.8f} ({ray['verdict']}, {ray['iterations']} iterations)")
        for row in report.results["probes"]:
            print(
                f"   probe alpha={row['alpha']:.3f} R={row['R']:.2f} eps={row['eps_inner']:.4f}: "
                f"defect = {row['defect']:.3e} [{row['verdict']}]"
            )


if __name__ == "__main__":
    try:
        main()
    except LabError as exc:
        sys.exit(f"Error: {exc}")
