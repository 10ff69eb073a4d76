#!/usr/bin/env python3
"""Survey diagonal hypersurfaces x_0^k + ... + x_n^k over small primes.

One row per (p, k, variables): F-purity at the origin, the class of the
non-F-pure locus, and the three degree bounds.  Diagonal forms switch
between F-pure and non-F-pure as p varies against k, so the family walks
through every branch of the classification.

Usage:
    python3 scripts/diagonal_survey.py
    python3 scripts/diagonal_survey.py --primes 2 3 --degrees 2 3 4 5 6 --vars 3
"""

import argparse

from fsing.frobenius import CompleteIntersection
from fsing.invariants import analyze
from fsing.ring import Polynomial, RingDescriptor

HEADER = ("p", "k", "vars", "fpure", "tau_class", "ell", "thmA", "cor", "thmB", "isolated")


def diagonal(p, k, nv):
    ring = RingDescriptor(p, tuple("xyzw"[:nv]))
    form = Polynomial.zero(ring)
    for i in range(nv):
        form = form + Polynomial.variable(ring, i) ** k
    return CompleteIntersection(ring, (form,))


def cell(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--vars", type=int, nargs="+", default=[2, 3])
    args = parser.parse_args()

    rows = [HEADER]
    for p in args.primes:
        for k in args.degrees:
            for nv in args.vars:
                ci = diagonal(p, k, nv)
                report = analyze(ci)
                rows.append(
                    (
                        str(p),
                        str(k),
                        str(nv),
                        cell(report.fpure_at_m),
                        report.tau_class.value,
                        cell(report.ell),
                        cell(report.thmA_bound),
                        cell(report.cor_bound),
                        cell(report.thmB_threshold),
                        cell(report.isolated_singularity),
                    )
                )

    widths = [max(len(row[i]) for row in rows) for i in range(len(HEADER))]
    for row in rows:
        print("  ".join(value.ljust(w) for value, w in zip(row, widths)).rstrip())


if __name__ == "__main__":
    main()
