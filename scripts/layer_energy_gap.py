#!/usr/bin/env python3
"""Layer-energy vs sharp-interface-energy gap along a shrinking width family.

Rescales the monotone layer by widths eps, evaluates the layer energy on a
fixed window, and reports the gap to the sharp ramp energy together with the
sup-distance of the rescaled profile to the ramp.
"""

import argparse
import sys

from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import LabError
from onephase_lab.experiments import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/layer_energy_gap")
    ap.add_argument("--epsilons", default="1,0.5,0.25,0.125,0.0625")
    args = ap.parse_args()

    eps = tuple(float(x) for x in args.epsilons.split(","))
    cfg = ExperimentConfig(experiment="blowdown", out_dir=args.out, epsilons=eps)
    report = run(cfg)
    for row in report.results["family"]:
        print(
            f"eps={row['epsilon']:<8g} layer energy = {row['layer_energy']:.6f}  "
            f"gap = {row['gap']:.6f}  sup distance to ramp = {row['sup_distance_to_ramp']:.5f}"
        )
    print("gap nonincreasing:", report.results["gap_nonincreasing_within_1e-4"])


if __name__ == "__main__":
    try:
        main()
    except LabError as exc:
        sys.exit(f"Error: {exc}")
