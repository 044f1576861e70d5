"""The two-slit family: born balanced, and never beaten by an offset map.

For each nome q the theta quotient (theta1/theta3)^2, read on the ring
sqrt(q) < |z| < 1/sqrt(q), sends the rims onto two real slits placed so
that a0[g] = lambda and a0[1/g] = -lambda hold simultaneously.  The sweep
compares each ring's width log R with the ceiling width log R0(lambda);
the ratio staying below 1 is the numerical content of the extremality
question.  The offset family lam + a(z + kappa/z) is scanned last: it can
never balance, which is the negative result that makes the theta family
interesting.
"""

from tubeflux import (
    FamilyBalanceError,
    boundary_reality,
    calibrate_candidate,
    conjecture_sweep,
    joukowski_family,
)


def main():
    q_grid = [0.05 * k for k in range(1, 19)]
    print(f"{'q':>5} {'R':>9} {'lambda':>13} {'lnR':>8} {'lnR0':>9} {'ratio':>8}")
    for row in conjecture_sweep(q_grid):
        print(
            f"{row.q:5.2f} {row.R:9.4f} {row.lam:13.6g} "
            f"{row.lnR:8.4f} {row.lnR0:9.4f} {row.ratio:8.5f}"
        )

    print("\nthe ratio climbs with q but stays below 1: every ring is narrower")
    print("than its ceiling, and the gap closes as the slits run apart.")

    cand = calibrate_candidate(0.25)
    reality = boundary_reality(cand)
    print(f"\nrim-image reality check at q = 0.25 (scaled): {reality['rel']:.2e}")
    print(f"slit endpoints: ({cand.slit_neg:+.6f}, {cand.slit_pos:+.6f}), "
          f"product {cand.slit_neg * cand.slit_pos:+.3f}")

    print("\nand the offset family, asked to do the same job:")
    try:
        joukowski_family(cand.lam, cand.annulus.R)
    except FamilyBalanceError as exc:
        diag = exc.diagnostics
        print(f"  residual floor {diag['residual_floor']:.6f} over "
              f"{diag['n_scanned']} parameter pairs (theoretical floor "
              f"{diag['theoretical_floor']:.6f})")
        print("  the attainable means of 1/g stay a fixed distance from the")
        print("  target, so no member of that family ever closes at a tilt.")


if __name__ == "__main__":
    main()
