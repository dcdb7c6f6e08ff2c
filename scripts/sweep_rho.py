"""Sweep the importance/latency weight rho and print the summary table.

Usage: python3 scripts/sweep_rho.py [--values 0.4:0.8:0.1] [--rounds N] [--out DIR]
"""

import argparse

from hpfl.experiment import parse_sweep_values, run_sweep
from hpfl.scenario import Scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--values", default="0.4:0.8:0.1")
    ap.add_argument("--rounds", type=int, default=30)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    # uncapped selection so the threshold rule, not the cap, shapes the sweep
    scn = Scenario(rounds=args.rounds, seed=args.seed, a_max=5)
    rows = run_sweep(scn, "rho", parse_sweep_values(args.values),
                     out_dir=args.out)
    print("  rho  final_loss  mean_latency  mean_importance  mean_A_eff")
    for row in rows:
        print("%5.2f  %10.4f  %12.4f  %15.4f  %10.2f"
              % (row["value"], row["final_loss"], row["mean_latency"],
                 row["mean_importance"], row["mean_a_eff"]))


if __name__ == "__main__":
    main()
