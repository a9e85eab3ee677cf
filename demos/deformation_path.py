"""Walk a one-parameter deformation toward a scalar-flat endpoint.

Fix s = 1 and stretch the fiber direction from t = 3 to t = 4.  Along
this path the scalar curvature R = 8 - 2t decreases linearly and hits
zero exactly at the endpoint, while the comparison criterion against
the round hemisphere stays applicable at every interior sample.  The
path checker verifies that combination and reports the terminal window
delta: the length of the final parameter stretch on which the
criterion holds all the way into the flat endpoint.

A second run shows the diagnostic for a path that stops short of the
scalar-flat endpoint, which the checker rejects.
"""

from relyamabe import HypothesisViolationError, corollary_path_check


def show_samples(report) -> None:
    print(f"{'t':>8} {'scalar R':>10} {'min pencil eig':>15} {'gamma':>8}  verdict")
    samples = report.samples
    picks = [0, len(samples) // 4, len(samples) // 2, 3 * len(samples) // 4, len(samples) - 1]
    for s in samples[picks]:
        print(
            f"{s['t']:8.3f} {s['scalar']:10.4f} {s['min_eig']:15.6f} {s['gamma']:8.4f}"
            f"  {s['verdict']}"
        )


def main() -> None:
    print("path g_{1,t}, t from 3 to 4, 101 samples:")
    report = corollary_path_check(1.0, 3.0, 4.0, steps=101)
    show_samples(report)
    print(f"  endpoint scalar curvature: {report.endpoint_scalar:.2e} (scalar-flat)")
    print(f"  terminal window delta:     {report.delta:.6f}")
    print("  The criterion applies on the whole window (min pencil eigenvalue")
    print("  stays nonnegative), so delta spans the full parameter interval.")
    print()

    print("path g_{1,t}, t from 2 to 4, 101 samples:")
    report = corollary_path_check(1.0, 2.0, 4.0, steps=101)
    show_samples(report)
    print(f"  terminal window delta: {report.delta:.6f}")
    print()

    print("path stopping at t = 3.9 (no scalar-flat endpoint):")
    try:
        corollary_path_check(1.0, 3.0, 3.9, steps=51)
    except HypothesisViolationError as exc:
        print(f"  rejected: {exc}")


if __name__ == "__main__":
    main()
