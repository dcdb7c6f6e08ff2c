"""Command line interface: run experiments, audit the bound, sweep knobs.

Exit codes: 0 on success, 1 when the run diverges (a loss, gradient,
or update stops being finite), 2 on configuration errors (a ConfigError,
or a file that cannot be read or written), 3 when the bandwidth budget
cannot cover the minimum per-link floor.  Any other exception is a
defect and propagates with its traceback.
"""

import argparse
import sys

from .bandwidth import InfeasibleAllocationError
from .experiment import (parse_sweep_values, run_audit, run_experiment,
                         run_sweep, write_outputs)
from .meta import NonFiniteError
from .scenario import CHOICES, ConfigError, Scenario, load_scenario

EXIT_OK = 0
EXIT_DIVERGED = 1
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _add_common(p):
    p.add_argument("--config", help="scenario JSON; omit for all defaults")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--rounds", type=int, help="override the round count")
    p.add_argument("--out", default="out", help="output directory")
    for field in ("mode", "selection", "allocation"):
        p.add_argument("--" + field, choices=CHOICES[field])
    p.add_argument("--rho", type=float, help="importance/latency weight")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hpfl",
        description="Hierarchical personalized federated learning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common(p_run)

    p_audit = sub.add_parser(
        "audit", help="run with step size 1/meta_lip and check the bound")
    _add_common(p_audit)

    p_sweep = sub.add_parser("sweep", help="re-run over a grid of one knob")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", default="rho", help="scenario field to vary")
    p_sweep.add_argument("--values", required=True,
                         help="start:stop:step (inclusive) or comma list")
    return parser


def _scenario_from(args):
    scn = load_scenario(args.config) if args.config else Scenario()
    overrides = {}
    for field in ("seed", "rounds", "mode", "selection", "allocation", "rho"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    return scn.replace(**overrides)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        scenario = _scenario_from(args)
        if args.command == "run":
            result = run_experiment(scenario)
            write_outputs(result, args.out)
            print("wrote %s (%d rounds)" % (args.out, len(result.records)))
        elif args.command == "audit":
            result, rows, frac = run_audit(scenario, out_dir=args.out)
            if rows:
                print("wrote %s; bound held in %.1f%% of %d rounds"
                      % (args.out, 100.0 * frac, len(rows)))
            else:
                print("wrote %s; no rounds audited" % args.out)
        else:
            values = parse_sweep_values(args.values)
            run_sweep(scenario, args.param, values, out_dir=args.out)
            print("wrote %s (%d values of %s)"
                  % (args.out, len(values), args.param))
    except NonFiniteError as exc:
        print("run diverged: %s" % exc, file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleAllocationError as exc:
        print("infeasible allocation: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
