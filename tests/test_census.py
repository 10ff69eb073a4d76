"""Every form of a small shape, up to scaling: each class count is pinned, so
a route change that moves one shows, and the paper's Theorems A and B are
asserted on every case they speak to, not only on seeded draws."""

import itertools

from collections import Counter

from cases import ring

from fsing.frobenius import CompleteIntersection
from fsing.invariants import analyze
from fsing.localcoh import verify_injectivity
from fsing.ring import Polynomial, monomials_of_degree


def forms_up_to_scaling(r, degree):
    """Every nonzero form of this degree whose first nonzero coefficient,
    in monomials_of_degree's order, is 1."""
    monos = monomials_of_degree(r, degree)
    for k in range(len(monos)):
        for rest in itertools.product(range(r.p), repeat=len(monos) - k - 1):
            yield Polynomial(r, dict(zip(monos[k:], (1,) + rest)))


def test_theorem_a_on_every_plane_cubic_over_f2():
    # Theorem A: with tau m-primary and proper, Frobenius on the top local
    # cohomology has a kernel at a(R) - reg(S/tau) and is injective one
    # degree below
    classes = Counter()
    for f in forms_up_to_scaling(ring(2), 3):
        ci = CompleteIntersection(f.ring, (f,))
        report = analyze(ci)
        classes[report.tau_class.value] += 1
        if report.thmA_bound is not None:
            assert verify_injectivity(ci, report.thmA_bound).dim_kernel >= 1, f
            assert verify_injectivity(ci, report.thmA_bound - 1).dim_kernel == 0, f
    assert classes == {
        "everywhere_f_pure": 512,
        "non_f_pure_locus_positive_dimensional": 343,
        "isolated_non_f_pure_point": 168,
    }


def test_theorem_b_on_every_binary_quartic_over_f5():
    # Theorem B: an isolated singularity with p >= (n+1-c)(d-c) = 3 has
    # Frobenius injective in every negative degree from -(n+1-c)d on
    classes = Counter()
    for f in forms_up_to_scaling(ring(5, "xy"), 4):
        ci = CompleteIntersection(f.ring, (f,))
        report = analyze(ci)
        classes[report.tau_class.value, report.isolated_singularity] += 1
        if report.isolated_singularity:
            assert ci.ring.p >= report.thmB_threshold
            for t in range(report.cor_bound, 0):
                assert verify_injectivity(ci, t).dim_kernel == 0, (f, t)
    assert classes == {
        ("isolated_non_f_pure_point", True): 600,
        ("non_f_pure_locus_positive_dimensional", False): 181,
    }
