"""Why some Gauss maps close up and others tear.

The period defect of a tube candidate is controlled by two circle means:
with f = c/(2 z g), the real periods vanish exactly when

    a0[1/g] = -conj(a0[g]).

This script measures the defect by quadrature, predicts it from the means,
and shows the match on maps that close (g = z, g = z^2) and on one that
tears (g = z + 2).
"""

import numpy as np

from tubeflux import (
    Annulus,
    HoloFn,
    MinimalTube,
    NotATubeError,
    a0,
    defect_from_means,
    period_defect,
    tube_from_gauss,
)

ANN = Annulus(2.0)


def inspect(text):
    g = HoloFn.parse(text, ANN)
    data = tube_from_gauss(g, 1.0)
    direct = period_defect(data)
    predicted = defect_from_means(g, 1.0)
    m, minv = a0(g), a0(1.0 / g)
    print(f"g = {text}")
    print(f"  a0[g]   = {m:+.6f}")
    print(f"  a0[1/g] = {minv:+.6f}")
    print(f"  defect (quadrature) = {np.array2string(direct, precision=6, suppress_small=True)}")
    print(f"  defect (from means) = {np.array2string(predicted, precision=6, suppress_small=True)}")
    try:
        MinimalTube(data)
        print("  -> closes: a genuine tube\n")
    except NotATubeError as exc:
        print(f"  -> tears: {exc}\n")


def main():
    print("Balanced maps close:\n")
    inspect("z")
    inspect("z^2")

    print("An offset breaks the balance:\n")
    inspect("z + 2")

    print("The mean of 1/(z+2) on the unit circle is 1/2 while the mean of")
    print("z + 2 is 2, so the second component keeps a period of -pi*(2 + 1/2)")
    print("= -2.5*pi: exactly the defect measured above.  No scaling of f can")
    print("fix this; the mismatch lives in the Gauss map itself.")


if __name__ == "__main__":
    main()
