#!/usr/bin/env python3
"""Stress scan of the period quadrature on seeded random genus-2 curves.

Each curve has six real branch points with gaps log-uniform in [0.05, 5].
For each curve and each tolerance (1e-11, then 1e-8), starting from empty
memos: the period matrix, the certificate rho4 at eps 0.05 against a
second curve that moves only the last branch point, and G_1, G_2 by both
quadrature rules.

stdout carries one line per (curve, tolerance) with the number of
quadrature nodes built (rows of the nested levels, deterministic for a
given program) and rho4, then the total; the wall time goes to stderr.

    python3 scripts/period_scan.py [--curves N] [--seed S]
"""

import argparse
import math
import random
import sys
import time

sys.path.insert(0, "src")

from torcycle import period

TOLS = (1e-11, 1e-8)
GAPS = (0.05, 5.0)
MEMOS = (period.standard_contours, period._a_periods, period.cauchy_kernel_coeffs,
         period._G, period._level_rows)


def random_curves(seed: int, count: int):
    """``count`` pairs (roots, roots2): roots2 moves the last branch point
    right by 0.5 to 1.5.  The first root sits 0.4 to 0.8 right of half the
    first gap, so the cuts stay clear of the base point and the eps-circle."""
    rng = random.Random(seed)
    lo, hi = math.log(GAPS[0]), math.log(GAPS[1])
    for _ in range(count):
        gaps = [math.exp(rng.uniform(lo, hi)) for _ in range(5)]
        roots = [gaps[0] / 2 + rng.uniform(0.4, 0.8)]
        for gap in gaps:
            roots.append(roots[-1] + gap)
        yield roots, roots[:5] + [roots[5] + rng.uniform(0.5, 1.5)]


def scan(count: int = 40, seed: int = 5, out=sys.stdout) -> int:
    """Run the scan on ``count`` curves, print a line per (curve, tol) and
    return the total number of quadrature nodes built."""
    rows = period._level_rows
    built = 0

    def counted(*key):
        nonlocal built
        misses = rows.cache_info().misses
        level = rows(*key)
        built += len(level) if rows.cache_info().misses > misses else 0
        return level

    period._level_rows = counted
    try:
        for k, (roots, roots2) in enumerate(random_curves(seed, count)):
            curve, curve2 = period.HyperellipticCurve(roots), period.HyperellipticCurve(roots2)
            for tol in TOLS:
                for memo in MEMOS:
                    memo.cache_clear()
                before = built
                period.period_matrix(curve, tol)
                cert = period.rho4(period.PeriodConfig(eps=0.05, tol=tol, curve1=curve,
                                                       curve2=curve2))
                for i in (1, 2):
                    for rule in ("contour", "segments"):
                        period.compute_G(curve, i, 0.05, tol, rule)
                print(f"{k}\t{tol:g}\t{built - before}\t{cert.value.real:+.9e}", file=out)
    finally:
        period._level_rows = rows
    print(f"nodes_built\t{built}", file=out)
    return built


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--curves", type=int, default=40)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    start = time.perf_counter()
    scan(args.curves, args.seed)
    print(f"wall {time.perf_counter() - start:.3f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
