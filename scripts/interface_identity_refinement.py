#!/usr/bin/env python3
"""Refinement study of the interface identity grad(u_s).nu = H u_s.

Solves the planar neck configuration (exact conformal reference data) at a
sequence of resolutions and prints the sup defect of the identity along the
interface; one-sided boundary stencils make the defect decay at first order.
"""

import argparse
import sys

import numpy as np

from onephase_lab.config import ExperimentConfig
from onephase_lab.errors import LabError
from onephase_lab.experiments import run


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/interface_identity")
    ap.add_argument("--resolutions", default="64,128,256")
    args = ap.parse_args()

    defects, res_list = [], [int(x) for x in args.resolutions.split(",")]
    for res in res_list:
        cfg = ExperimentConfig(
            experiment="onephase",
            out_dir=f"{args.out}/h{res}",
            onephase_preset="strip_neck",
            onephase_resolution=res,
        )
        report = run(cfg)
        row = report.results["normal_derivative_identity"]
        defects.append(row["max_defect"])
        solve = report.results["masked_solve"]
        print(
            f"h=1/{res}: identity defect = {row['max_defect']:.5f}, "
            f"|grad u|-1 on interface = {row['gradient_defect']:.2e}, "
            f"solve error vs exact = {solve['sup_error_vs_exact']:.2e}"
        )
    if len(defects) > 1:
        slope = -np.polyfit(np.log(res_list), np.log(defects), 1)[0]
        print(f"measured decay order: {slope:.2f}")


if __name__ == "__main__":
    try:
        main()
    except LabError as exc:
        sys.exit(f"Error: {exc}")
