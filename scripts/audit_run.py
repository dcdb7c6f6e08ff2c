"""Audit-grade run: pin the step size to 1/meta_lip and check the
per-round loss-change bound against recomputed exact global gradients.

Usage: python3 scripts/audit_run.py [--rounds N] [--seed N] [--out DIR]
"""

import argparse

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
    result, rows, frac = run_audit(scn, out_dir=args.out)
    print("beta = 1/meta_lip = %.6g" % result.engine.beta)
    if not rows:
        print("bound held in 0/0 rounds: no rounds audited")
        return
    print("bound held in %d/%d rounds (%.1f%%)"
          % (sum(r["holds"] for r in rows), len(rows), 100.0 * frac))
    worst = max(rows, key=lambda r: r["descent"] - r["bound"])
    print("tightest round %d: descent %.4g vs bound %.4g"
          % (worst["round"], worst["descent"], worst["bound"]))


if __name__ == "__main__":
    main()
