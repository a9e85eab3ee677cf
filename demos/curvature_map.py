"""Map the two-parameter family of squashed 3-sphere metrics.

Each metric g_{s,t} = diag(1, s, t) in the invariant frame is classified
by where it sits relative to two analytic curves in the (s, t) plane:

  * t = (1 + sqrt(s))^2 — above it the scalar curvature is negative, so
    the conformal invariant is nonpositive and the comparison with the
    round hemisphere is automatic;
  * t = s + sqrt(s) + 1 — between the two curves the eigenvalue pencil
    of the comparison criterion is positive semidefinite and the
    criterion applies (strictly above the curve, with a kernel on it).

The script prints an ASCII region map of the square [1, 4] x [1, 4],
the two curve positions for a few slices, and a table of landmark
metrics with their scalar curvature and Einstein deviation.
"""

import numpy as np

from relyamabe import (
    BergerParams,
    berger_classify,
    berger_sweep,
    boundary_curve,
    scalar_sign_curve,
)

GLYPHS = {
    "Einstein": "E",
    "Theorem1Strict": "#",
    "Theorem1Boundary": "B",
    "PositiveScalarUnresolved": ".",
    "AutoYamabeNonpositive": "-",
}


def ascii_map(n: int = 33) -> None:
    vals = np.linspace(1.0, 4.0, n)
    # one stacked classification of the grid: verdicts[i, j] is that of
    # (s, t) = (vals[i], vals[j]), "invalid" where s > t
    verdicts = berger_sweep(vals, vals)["verdict"].reshape(n, n)
    print("legend: # criterion strict   B criterion boundary   . unresolved")
    print("        - scalar curvature <= 0 (automatic)   E Einstein (round)")
    print()
    header = "      s = 1" + " " * (n - 8) + "4"
    print(header)
    for j in reversed(range(n)):
        # the family is normalized to s <= t; the lower wedge is its
        # mirror image (swapping the two stretched directions is an
        # isometry), so read the row of the sorted pair
        row = [GLYPHS[verdicts[min(i, j), max(i, j)]] for i in range(n)]
        t = vals[j]
        label = f"t={t:4.2f} " if abs(t - round(t)) < 1e-9 else "       "
        print(label + "".join(row))
    print()


def curve_table() -> None:
    print("analytic transition curves (closed form, within one ulp):")
    print(f"{'s':>6} {'criterion curve t*':>20} {'scalar-flat curve t0':>22}")
    for s in (1.0, 1.5, 2.25, 3.0, 4.0):
        print(f"{s:6.2f} {boundary_curve(s):20.8f} {scalar_sign_curve(s):22.8f}")
    print()


def landmarks() -> None:
    print("landmark metrics:")
    print(f"{'(s, t)':>12} {'verdict':>26} {'scalar R':>10} {'Einstein dev':>13}")
    for s, t in [(1, 1), (1, 2), (1, 3), (1, 3.5), (2, 4), (1, 4.5)]:
        cls = berger_classify(BergerParams(float(s), float(t)))
        print(
            f"({s:4.1f},{t:4.1f}) {cls.verdict:>26} "
            f"{cls.scalar:10.4f} {cls.einstein_deviation:13.4f}"
        )
    print()
    print("The round metric (1, 1) is the unique Einstein point of the family;")
    print("stretching the fiber (t up) first keeps R > 0 without the criterion")
    print("applying, then crosses t = s + sqrt(s) + 1 where the comparison")
    print("with the round hemisphere kicks in, and finally loses positive")
    print("scalar curvature entirely at t = (1 + sqrt(s))^2.")


def main() -> None:
    ascii_map()
    curve_table()
    landmarks()


if __name__ == "__main__":
    main()
