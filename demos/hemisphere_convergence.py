"""Quadrature and boundary geometry of the discretized half-sphere.

The upper half of the 3-sphere carries the squashed metrics
g_{s,t}; its boundary is the equatorial 2-sphere, swept by the frame
directions V1 and V3.  This script builds the cell-centered chart at a
few resolutions and shows three narratives:

  1. the volume quadrature converges to the closed form
     vol = pi^2 sqrt(s t) at better than second order;
  2. the boundary is minimal: the exact mean curvature of both faces
     vanishes to roundoff for every (s, t);
  3. minimal does not mean totally geodesic: for anisotropic metrics
     the exact second fundamental form is bounded away from zero while
     the mean curvature (its trace) cancels.
"""

import numpy as np

from relyamabe import BergerParams, HopfGrid, boundary_second_form, chart_metric, integrate


def volume_convergence(params: BergerParams) -> None:
    exact = np.pi**2 * np.sqrt(params.s * params.t)
    print(f"volume quadrature for (s, t) = ({params.s:g}, {params.t:g}); exact {exact:.8f}")
    print(f"{'N':>4} {'volume':>14} {'abs error':>12} {'ratio':>7}")
    prev = None
    for n in (8, 16, 32):
        metric = chart_metric(HopfGrid.cube(n), params)
        vol = integrate(np.ones(metric.grid.shape), metric)
        err = abs(vol - exact)
        ratio = f"{prev / err:7.2f}" if prev and err > 0 else "      -"
        print(f"{n:4d} {vol:14.8f} {err:12.3e} {ratio}")
        prev = err
    print()


def boundary_minimality() -> None:
    print("boundary faces at the points of each grid (max |H| = mean")
    print("curvature, max ||II|| = second fundamental form, both exact):")
    print(f"{'(s, t)':>10} {'N':>4} {'max |H|':>12} {'max ||II||':>12}")
    for s, t in [(1.0, 1.0), (1.0, 3.0), (2.0, 4.0)]:
        for n in (16, 32):
            rep = boundary_second_form(chart_metric(HopfGrid.cube(n), BergerParams(s, t)))
            max_h, max_ii = rep.max_abs_mean_curvature, rep.max_ii_norm
            print(f"({s:3.1f},{t:3.1f}) {n:4d} {max_h:12.3e} {max_ii:12.4f}")
    print()
    print("For the round metric both quantities are zero (the equator is")
    print("totally geodesic).  For squashed metrics the mean curvature still")
    print("vanishes to roundoff, so the boundary is minimal for every (s, t),")
    print("but ||II|| does not: individual directions curve, only the trace")
    print("cancels.  The grid only picks the points at which both are reported.")


def main() -> None:
    for params in (BergerParams(1.0, 1.0), BergerParams(1.0, 3.0), BergerParams(2.0, 4.0)):
        volume_convergence(params)
    boundary_minimality()


if __name__ == "__main__":
    main()
