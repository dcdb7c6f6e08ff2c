"""Audit-grade run: pin the step size to 1/meta_lip and check the
per-round loss-change bound against recomputed exact global gradients,
and print the bound's median slack over the rounds that moved the loss.

Usage: python3 scripts/audit_run.py [--rounds N] [--seed N] [--out DIR]
"""

import argparse
import statistics

from hpfl.experiment import run_audit
from hpfl.scenario import Scenario


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    scn = Scenario(family="quadratic", dim=12, rounds=args.rounds,
                   seed=args.seed)
    engine, rows, frac = run_audit(scn, out_dir=args.out)
    print("beta = 1/meta_lip = %.6g" % engine.beta)
    if not rows:
        print("bound held in 0/0 rounds: no rounds audited")
        return
    print("bound held in %d/%d rounds (%.1f%%)"
          % (sum(r["holds"] for r in rows), len(rows), 100.0 * frac))
    worst = max(rows, key=lambda r: r["descent"] - r["bound"])
    print("tightest round %d: descent %.4g vs bound %.4g"
          % (worst["round"], worst["descent"], worst["bound"]))
    slack = [r["bound"] / abs(r["descent"]) for r in rows if r["descent"]]
    if slack:
        print("median slack bound/|descent| over %d rounds with a nonzero "
              "descent: %.4g" % (len(slack), statistics.median(slack)))


if __name__ == "__main__":
    main()
