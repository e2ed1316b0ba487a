#!/usr/bin/env python3
"""Shoot the three canonical 1D profiles and print their classification.

Writes the panels (ramp slope above, at, and below 1) as x,u,du tables and a
JSON report under --out.
"""

import argparse
import json
import sys

from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import LabError
from onephase_lab.experiments import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/profile_gallery")
    ap.add_argument("--halfwidth", type=float, default=30.0)
    args = ap.parse_args()

    cfg = ExperimentConfig(experiment="figure1", out_dir=args.out, halfwidth=args.halfwidth)
    report = run(cfg)
    for name, row in report.results["panels"].items():
        defect = row["case_defect"]
        print(f"{name}: a = {row['a']:.9f}, b = {row['b']:.9f}, defect = {defect:.3e}")
    print(json.dumps(report.timings))
    print(f"panels written to {args.out}/fig_case_*.csv")


if __name__ == "__main__":
    try:
        main()
    except LabError as exc:
        sys.exit(f"Error: {exc}")
