#!/usr/bin/env python3
"""Scan the Gaussian-regularized defect between the ill-defined quartic
charge and the well-defined one.

The squared-delta difference makes the defect diverge like 1/width; the
scan prints the log-log slope and, optionally, writes the raw scan as
CSV for external plotting.
"""

import argparse
import csv
import math
import sys

from qnls.charges import fit_loglog_slope, g4_defect_scan, one_over_eps_remainders
from qnls.planewaves import Coupling, RapiditySet, build_bethe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rapidities", default="1,2",
                        help="comma-separated reals (2 or 3 of them)")
    parser.add_argument("--coupling", type=float, default=0.5)
    parser.add_argument("--box", type=float, default=2.0 * math.pi)
    parser.add_argument("--m-min", type=int, default=2)
    parser.add_argument("--m-max", type=int, default=12)
    parser.add_argument("--csv", help="write the scan to this CSV file")
    args = parser.parse_args(argv)

    raps = [float(t) for t in args.rapidities.split(",")]
    w = build_bethe(RapiditySet.of(raps), Coupling(args.coupling))
    eps = [2.0 ** (-m) for m in range(args.m_min, args.m_max + 1)]
    scan = g4_defect_scan(w, eps, args.box)
    slope = fit_loglog_slope(scan)
    amplitude, remainders = one_over_eps_remainders(scan)

    print(f"N={len(raps)} c={args.coupling} box={args.box}")
    print(f"{'width':>12} {'defect':>14} {'defect*width':>14} {'remainder':>12}")
    for (e, v), r in zip(scan, remainders):
        print(f"{e:12.6f} {v:14.6e} {v * e:14.6f} {r:12.4f}")
    print(f"log-log slope: {slope:.4f} (divergence exponent)")
    print(f"fitted 1/width amplitude: {amplitude:.6f}")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["width", "defect", "remainder"])
            for (e, v), r in zip(scan, remainders):
                writer.writerow([e, v, r])
        print(f"scan written to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
