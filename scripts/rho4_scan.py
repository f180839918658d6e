#!/usr/bin/env python3
"""Stability scan of the nonvanishing certificate: the computed value
across inner-circle radii and quadrature tolerances, with |rho4| over its
error (the segment rule's a-priori bound, carried through), plus the two
independent quadrature routes for the double integrals: the production
segment rule and the ellipse contours that cross-check it."""

import sys

sys.path.insert(0, "src")

from torcycle import period


def main():
    print("eps        tol      rho4                          |rho4|/err")
    for eps in (0.02, 0.05, 0.1, 0.2):
        for tol in (1e-8, 1e-10, 1e-12):
            cert = period.rho4(period.PeriodConfig(eps=eps, tol=tol))
            ratio = abs(cert.value) / max(cert.quadrature_error, 1e-300)
            print(
                f"{eps:<9g}{tol:<9g}{cert.value.real:+.12e} "
                f"{cert.value.imag:+.2e}i   {ratio:.2e}"
            )

    print("\ndouble-integral routes (contour vs segment decomposition):")
    for i in (1, 2):
        gc, ec = period.compute_G(period.BASE_CURVE_1, i, eps=None, rule="contour")
        gs, es = period.compute_G(period.BASE_CURVE_1, i, eps=None, rule="segments")
        print(f"  G{i}: contour {gc:+.12e}  segments {gs:+.12e}  "
              f"diff {abs(gc - gs):.2e}")


if __name__ == "__main__":
    main()
