"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v`; the ACCEPTANCE lines are
emitted outside capture so they always show.
"""

import random
import re
import time

from pathlib import Path

from oracles import (
    colon_piece_kernel,
    degree_index,
    ideal_piece_matrix,
    in_row_space,
    least_surviving_generator,
    m_bracket,
    m_q,
    maximal_ideal,
    monomial,
    oracle_m_q,
    oracle_membership,
    random_homogeneous,
    random_ideal_gens,
    random_m_primary_gens,
    rank,
    regularity_artinian,
)

from cases import diagonal_ci, packed, ring, squares_ci

from fsing.frobenius import TauClass, bracket_power, compute_tau, frobenius_root_principal
from fsing.groebner import Ideal
from fsing.invariants import (
    a_invariant,
    analyze,
    find_stable_q,
    isolated_singularity_test,
    thmA_bound,
    thmB_threshold,
)
from fsing.localcoh import (
    frobenius_action,
    graded_piece_basis,
    is_zero,
    kernel_witness,
    verify_injectivity,
)
from fsing.ring import Polynomial, monomials_of_degree


class _Criterion:
    def __init__(self, number, name, capsys):
        self.number = number
        self.name = name
        self.capsys = capsys

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "FAIL" if exc_type else "PASS"
        with self.capsys.disabled():
            print(f"ACCEPTANCE {self.number} {self.name}: {status}")
        return False


def criterion(number, name, capsys):
    return _Criterion(number, name, capsys)


# ---------------------------------------------------------------------------


def test_criterion_01_example_reproduction(capsys):
    with criterion(1, "example_reproduction", capsys):
        for p in (3, 5, 7):
            started = time.monotonic()
            ci = squares_ci(p)
            assert compute_tau(ci).tau == maximal_ideal(ci.ring)
            for t in range(-5, 1):
                assert verify_injectivity(ci, t).injective, (p, t)
            at_bound = verify_injectivity(ci, 1)
            assert at_bound.dim_source >= 1
            assert at_bound.dim_kernel >= 1
            assert graded_piece_basis(ci, 2).dim == 0
            assert graded_piece_basis(ci, 3).dim == 0
            assert time.monotonic() - started < 30, f"p={p} over budget"


def test_criterion_02_closed_form_m_q(capsys):
    with criterion(2, "closed_form_m_q", capsys):
        for a, b in ((2, 3), (3, 3), (2, 5)):
            for p in (2, 3, 5):
                r = ring(p, "xy")
                I = Ideal(
                    r,
                    (
                        monomial(r, (a, 0)),
                        monomial(r, (0, b)),
                    ),
                )
                for e in range(4):
                    q = p**e
                    if q <= a:
                        expected = 0
                    elif q <= b:
                        expected = q - a
                    else:
                        expected = 2 * q - (a + b)
                    assert m_q(I, q) == expected, (a, b, p, q)


def test_criterion_03_stabilization(capsys):
    with criterion(3, "stabilization", capsys):
        rng = random.Random(2503)
        for trial in range(20):
            p = rng.choice((2, 3, 5))
            nv = 3 if trial % 3 == 0 else 2
            r = ring(p, "xyz"[:nv])
            I = Ideal(r, random_m_primary_gens(rng, r, 4))
            reg = regularity_artinian(I)
            q, generator = find_stable_q(I, reg)
            assert generator == least_surviving_generator(I, q)
            for test_q in (q, q * p):
                assert nv * test_q - m_q(I, test_q) == reg + nv


THM_A_SUITE = (
    (lambda: squares_ci(3), 1),
    (lambda: squares_ci(5), 1),
    (lambda: squares_ci(7), 1),
    (lambda: diagonal_ci(2, 3, names="xy"), 1),
    (lambda: diagonal_ci(2, 3), 0),
    (lambda: diagonal_ci(3, 4), 0),
    (lambda: diagonal_ci(2, 5), -1),
)


def test_criterion_04_thmA_sharpness(capsys):
    with criterion(4, "thmA_sharpness", capsys):
        for build, expected_bound in THM_A_SUITE:
            ci = build()
            result = compute_tau(ci)
            assert result.kind is TauClass.ISOLATED_NON_F_PURE_POINT
            bound = thmA_bound(ci, result)
            assert bound == expected_bound
            witness = kernel_witness(ci, result)
            assert witness.q == ci.ring.p
            assert not is_zero(witness)
            assert witness.degree == a_invariant(ci) - result.ell == bound
            assert is_zero(frobenius_action(witness))
            for t in range(bound - 5, bound):
                assert verify_injectivity(ci, t).injective, (ci.forms, t)


def test_criterion_05_thmB_spot_checks(capsys):
    with criterion(5, "thmB_spot_checks", capsys):
        started = time.monotonic()
        for p in (5, 7):
            ci = diagonal_ci(p, 3)
            assert isolated_singularity_test(ci)
            assert thmB_threshold(ci) == 4 <= p
            dims = []
            for t in range(-5, 0):
                result = verify_injectivity(ci, t)
                assert result.injective, (p, t)
                dims.append(result.dim_source)
            assert dims == [15, 12, 9, 6, 3]
        assert time.monotonic() - started < 60


def test_criterion_06_kernel_criterion(capsys):
    with criterion(6, "kernel_criterion", capsys):
        ci = squares_ci(3)
        tau = compute_tau(ci).tau
        for t in range(-2, 2):
            basis = graded_piece_basis(ci, t)
            colon = m_bracket(ci.ring, basis.q).colon(tau)
            assert basis.dim > 0 or t > 1  # the window exercises real classes
            for alpha in basis.classes:
                killed = is_zero(frobenius_action(alpha))
                assert killed == colon.contains(alpha.numerator), (t, alpha.numerator)


def test_criterion_07_oracle_equivalence(capsys):
    with criterion(7, "oracle_equivalence", capsys):
        rng = random.Random(2507)

        # 40 membership instances, half constructed to be members
        for trial in range(40):
            p = rng.choice((2, 3, 5))
            nv = rng.choice((2, 3))
            r = ring(p, "xyz"[:nv])
            gens = random_ideal_gens(rng, r, 4, 5, min_gens=2)
            g = None
            if trial % 2 == 0:
                target = max(h.degree() for h in gens) + rng.randint(0, 2)
                acc = Polynomial.zero(r)
                for h in gens:
                    shift = target - h.degree()
                    if shift < 0:
                        continue
                    mu = rng.choice(monomials_of_degree(r, shift))
                    acc = acc + h * monomial(r, mu)
                if acc:
                    g = acc
            if g is None:
                g = random_homogeneous(rng, r, rng.randint(1, 5))
            assert Ideal(r, gens).contains(g) == oracle_membership(g, gens, r)

        # 30 colon instances, compared degree by degree
        for _ in range(30):
            p = rng.choice((2, 3, 5))
            nv = rng.choice((2, 3))
            r = ring(p, "xyz"[:nv])
            igens = random_ideal_gens(rng, r, 3, 5)
            jgens = random_ideal_gens(rng, r, 2, 3)
            s = rng.randint(0, 6)
            oracle_vectors = colon_piece_kernel(igens, jgens, s, r)
            C = Ideal(r, igens).colon(Ideal(r, jgens))
            basis, _ = degree_index(r, s)
            if C.is_unit():
                engine_dim = len(basis)
            else:
                engine_dim = rank(
                    ideal_piece_matrix(C.groebner(), s, r), p
                )
            assert engine_dim == len(oracle_vectors)
            if not C.is_unit():
                piece = ideal_piece_matrix(C.groebner(), s, r)
                for v in oracle_vectors:
                    assert in_row_space(piece, v, p)

        # 30 M_q instances
        for _ in range(30):
            p = rng.choice((2, 3, 5))
            nv = rng.choice((2, 3))
            r = ring(p, "xyz"[:nv])
            gens = random_m_primary_gens(rng, r, 5)
            if nv == 2:
                q = p ** rng.choice((1, 2))
            else:
                q = p if p in (3, 5) else p ** rng.choice((1, 2))
            assert m_q(Ideal(r, gens), q) == oracle_m_q(gens, q, r)


def test_criterion_08_frobenius_root_property(capsys):
    with criterion(8, "frobenius_root_property", capsys):
        rng = random.Random(2508)
        inside = outside = 0
        for trial in range(200):
            p = rng.choice((2, 3, 5))
            nv = rng.choice((2, 3))
            r = ring(p, "xyz"[:nv])
            max_deg = 3 if (p == 5 and nv == 3) else 4
            kgens = random_ideal_gens(rng, r, 3, max_deg, min_gens=2)
            K = Ideal(r, kgens)
            h = None
            if trial % 2 == 0:
                top = max(g.degree() for g in kgens)
                target = p * top + rng.randint(0, 2)
                acc = Polynomial.zero(r)
                for g in kgens:
                    shift = target - p * g.degree()
                    if shift < 0:
                        continue
                    mu = rng.choice(monomials_of_degree(r, shift))
                    acc = acc + g**p * monomial(r, mu)
                if acc:
                    h = acc
            if h is None:
                h = random_homogeneous(rng, r, rng.randint(1, 6))
            member = bracket_power(K, p).contains(h)
            root_inside = all(K.contains(g) for g in frobenius_root_principal(packed(h)).generators)
            assert member == root_inside
            inside += member
            outside += not member
        assert inside >= 30 and outside >= 30  # the suite exercises both sides


def test_criterion_09_flatness_identity(capsys):
    with criterion(9, "flatness_identity", capsys):
        rng = random.Random(2509)
        for trial in range(50):
            p = rng.choice((2, 3, 5))
            e = rng.choice((1, 2))
            nv = 2 if (p == 5 and e == 2) else rng.choice((2, 3))
            r = ring(p, "xyz"[:nv])
            q = p**e
            degree = rng.randint(1, 4)
            monos = monomials_of_degree(r, degree)
            if trial % 2 == 0:
                g = monomial(r, rng.choice(monos))
            else:
                pair = rng.sample(monos, 2)
                g = monomial(r, pair[0]) + monomial(r, pair[1])
            lhs = m_bracket(r, q * p).colon(Ideal(r, (g**p,)))
            rhs = bracket_power(m_bracket(r, q).colon(Ideal(r, (g,))), p)
            assert lhs == rhs, (p, q, str(g))


def test_criterion_10_degree_law(capsys):
    with criterion(10, "degree_law", capsys):
        surveyed = 0
        plan = (
            (squares_ci(3), range(-5, 2)),
            (diagonal_ci(5, 3), range(-4, 1)),
            (diagonal_ci(2, 3, names="xy"), range(-6, 2)),
        )
        for ci, window in plan:
            p = ci.ring.p
            for t in window:
                basis = graded_piece_basis(ci, t)
                for alpha in basis.classes:
                    assert frobenius_action(alpha).degree == p * alpha.degree == p * t
                    surveyed += 1
        for build, _ in THM_A_SUITE:
            ci = build()
            witness = kernel_witness(ci, compute_tau(ci))
            assert frobenius_action(witness).degree == ci.ring.p * witness.degree
            surveyed += 1
        assert surveyed >= 100


# frozen from the per-class Frobenius root (one generator per residue class,
# about 24 s at p = 41); the span basis must give the same report
SQUARES_P41_REPORT = {
    "a_invariant": 1,
    "reg_s_mod_tau": 0,
    "ell": 0,
    "thmA_bound": 1,
    "cor_bound": -8,
    "thmB_threshold": 6,
    "fpure_at_m": False,
    "tau_class": "isolated_non_f_pure_point",
    "isolated_singularity": False,
}


def test_squares_quartic_at_large_primes():
    assert analyze(squares_ci(41)).to_json_dict() == SQUARES_P41_REPORT
    # analyze raises InternalError if either of tau's self-checks fails;
    # an m-primary tau with ell = 0 is m itself
    report = analyze(squares_ci(61))
    assert (report.tau_class.value, report.ell) == ("isolated_non_f_pure_point", 0)


def test_readme_python_example_runs():
    # the README's Python API example names only what exists, and runs as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert blocks
    for block in blocks:
        exec(block, {})
