"""Minimize the conformal quotient on the discretized half-sphere.

For a metric g on the half-sphere with minimal boundary, the quotient

    Q(f) = (8 |df|^2 + R f^2 integrated) / (f^6 integrated)^(1/3)

over positive trial functions f estimates the relative conformal
invariant of (g, boundary).  For the round hemisphere the constant
function is the true minimizer and the value is 6 * pi^(4/3); for the
squashed metrics the constant is expected to stay minimal, and the
descent provides numerical evidence.

The script runs the normalized-descent minimizer, prints the descent
trace, and compares against the closed-form energy of the metric.
"""

import numpy as np

from relyamabe import (
    BergerParams,
    HopfGrid,
    berger_scalar_closed,
    chart_metric,
    estimate,
)


def show_trace(trace) -> None:
    head = ", ".join(f"{v:.6f}" for v in trace[:4])
    tail = ", ".join(f"{v:.6f}" for v in trace[-3:])
    print(f"  descent trace ({len(trace)} accepted steps):")
    print(f"    start  {head}, ...")
    print(f"    end    ..., {tail}")


def run_case(name: str, params: BergerParams, n: int) -> None:
    scalar = berger_scalar_closed(params)
    exact = scalar * (np.pi**2 * np.sqrt(params.s * params.t)) ** (2.0 / 3.0)
    metric = chart_metric(HopfGrid.cube(n), params)
    result = estimate(metric, scalar)

    u = result.minimizer
    spread = float(np.ptp(u) / np.abs(np.mean(u)))
    rel = (result.value - exact) / exact
    print(f"{name}: N={n}, R={scalar:g}")
    print(f"  closed-form energy   {exact:.6f}")
    print(f"  estimated quotient   {result.value:.6f}  ({rel:+.3%} relative)")
    print(f"  converged={result.converged} after {result.iterations_used} iterations;")
    print(f"  minimizer spread (max - min)/mean = {spread:.2e} (0 would be exactly constant),")
    print(f"  boundary flux of the minimizer = {result.neumann_residual_of_minimizer:.2e}")
    show_trace(result.trace)
    print()


def main() -> None:
    run_case("round hemisphere", BergerParams(1.0, 1.0), n=16)
    run_case("round hemisphere, refined", BergerParams(1.0, 1.0), n=32)
    run_case("squashed (s, t) = (1, 3.5)", BergerParams(1.0, 3.5), n=32)
    print("For constant R the constant is an exact critical point of the discrete")
    print("quotient (A 1 = 0, so the gradient at a constant u is 2 R u): the descent")
    print("never leaves it, so the spread and the boundary flux read 0 and the")
    print("estimate is the plain energy Q(1) to rounding.  That agrees with what the")
    print("comparison criterion in the criterion module predicts for this family,")
    print("but the descent cannot see a lower minimum elsewhere.")


if __name__ == "__main__":
    main()
