#!/usr/bin/env python3
"""Full desk-scale analysis of f = x^2*y^2 + y^2*z^2 + z^2*x^2.

For each requested prime: the invariant report, the sharp Frobenius-kernel
witness when tau is m-primary, and an injectivity table around the predicted
bound.  The quartic is singular along three lines yet its non-F-pure locus
is only the origin, which is what makes the sharp bound interesting.

Usage:
    python3 scripts/reproduce_squares_quartic.py
    python3 scripts/reproduce_squares_quartic.py --primes 3 5 7 11 --window 4
"""

import argparse

from fsing.frobenius import CompleteIntersection, compute_tau
from fsing.invariants import analyze
from fsing.localcoh import frobenius_action, is_zero, kernel_witness, verify_injectivity
from fsing.ring import RingDescriptor, parse_polynomial

FORM = "x^2*y^2 + y^2*z^2 + z^2*x^2"


def build(p):
    ring = RingDescriptor(p, ("x", "y", "z"))
    return CompleteIntersection(ring, (parse_polynomial(FORM, ring),))


def print_report(report):
    data = report.to_json_dict()
    width = max(len(k) for k in data)
    for key, value in data.items():
        print(f"  {key.ljust(width)}  {value}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[3, 5, 7])
    parser.add_argument(
        "--window", type=int, default=3, help="degrees below the bound to verify"
    )
    args = parser.parse_args()

    for p in args.primes:
        ci = build(p)
        report = analyze(ci)
        print(f"== p = {p}: S/(f) for f = {FORM}")
        print_report(report)

        tau_result = compute_tau(ci)
        if tau_result.ell is None:
            print("  no sharp witness: tau is not m-primary proper")
            print()
            continue

        witness = kernel_witness(ci, tau_result)
        image_zero = is_zero(frobenius_action(witness))
        print(f"  witness   [{witness.numerator} / (x*y*z)^{witness.q}]")
        print(f"  degree    {witness.degree}   frobenius image zero: {image_zero}")

        bound = report.thmA_bound
        print("  degree  dim  kernel_dim")
        for t in range(bound - args.window, bound + 2):
            row = verify_injectivity(ci, t)
            marker = "  <- bound" if t == bound else ""
            print(f"  {t:6d}  {row.dim_source:3d}  {row.dim_kernel:10d}{marker}")
        print()


if __name__ == "__main__":
    main()
