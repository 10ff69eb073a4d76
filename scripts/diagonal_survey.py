#!/usr/bin/env python3
"""Survey diagonal hypersurfaces x_0^k + ... + x_n^k over small primes, or
take a census of every form of one shape.

One row per (p, k, variables): F-purity at the origin, the class of the
non-F-pure locus, and the three degree bounds.  Diagonal forms switch
between F-pure and non-F-pure as p varies against k, so the family walks
through every branch of the classification.

With --census NAME the survey runs instead over every form of a pinned
shape up to scaling (tests/test_census.py's forms_up_to_scaling), prints
how many forms fall in each tau class and exits 1 unless each count is the
pinned one.  In both modes every m-primary tau is checked for Theorem A's
sharpness: Frobenius on the top local cohomology has a kernel at
a(R) - reg(S/tau) and is injective one degree below; a form that fails
exits 1 at once.

Usage:
    python3 scripts/diagonal_survey.py
    python3 scripts/diagonal_survey.py --primes 2 3 --degrees 2 3 4 5 6 --vars 3
    python3 scripts/diagonal_survey.py --census plane-quartics-f2
"""

import argparse
import sys

from collections import Counter
from pathlib import Path

from fsing.frobenius import CompleteIntersection
from fsing.invariants import analyze
from fsing.localcoh import verify_injectivity
from fsing.ring import Polynomial, RingDescriptor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_census import forms_up_to_scaling

HEADER = ("p", "k", "vars", "fpure", "tau_class", "ell", "thmA", "cor", "thmB", "isolated")

# name: (p, degree, variables, {tau class: forms}); a route change that
# moves a count is wrong
CENSUSES = {
    # all 32,767 plane quartics over F_2: none is F-pure, as f = f^(p-1)
    # has no term of degree 4 with every exponent below 2
    "plane-quartics-f2": (2, 4, 3, {
        "non_f_pure_locus_positive_dimensional": 12607,
        "isolated_non_f_pure_point": 20160,
    }),
}


def diagonal(p, k, nv):
    ring = RingDescriptor(p, tuple("xyzw"[:nv]))
    form = Polynomial.zero(ring)
    for i in range(nv):
        form = form + Polynomial.variable(ring, i) ** k
    return CompleteIntersection(ring, (form,))


def survey(cis):
    """The report of each complete intersection, analyzed once; exits 1 on
    the first m-primary tau whose Theorem A bound is not sharp."""
    for ci in cis:
        report = analyze(ci)
        bound = report.thmA_bound
        if bound is not None and (not verify_injectivity(ci, bound).dim_kernel
                                  or verify_injectivity(ci, bound - 1).dim_kernel):
            sys.exit(f"Theorem A is not sharp at {bound} on {', '.join(map(str, ci.forms))}")
        yield report


def cell(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def census(name) -> int:
    p, degree, nv, pinned = CENSUSES[name]
    ring = RingDescriptor(p, tuple("xyzw"[:nv]))
    cis = (CompleteIntersection(ring, (f,)) for f in forms_up_to_scaling(ring, degree))
    counts = Counter(report.tau_class.value for report in survey(cis))
    for kind, count in sorted(counts.items()):
        print(f"{kind}  {count}  (pinned {pinned.get(kind, 0)})")
    return int(counts != pinned)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5, 7])
    parser.add_argument("--degrees", type=int, nargs="+", default=[2, 3, 4, 5])
    parser.add_argument("--vars", type=int, nargs="+", default=[2, 3])
    parser.add_argument("--census", choices=sorted(CENSUSES), help="every form of a pinned shape instead")
    args = parser.parse_args()
    if args.census:
        return census(args.census)

    shapes = [(p, k, nv) for p in args.primes for k in args.degrees for nv in args.vars]
    rows = [HEADER]
    for (p, k, nv), report in zip(shapes, survey(diagonal(*shape) for shape in shapes)):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
