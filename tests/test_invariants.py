import dataclasses

from collections import Counter

import pytest

from oracles import (
    cofactor_jacobian_minors,
    evaluate,
    jacobian_ideal,
    least_surviving_generator,
    m_bracket,
    m_q,
    maximal_ideal,
    monomial,
    nullspace,
    oracle_isolated_singularity,
    oracle_m_q,
    oracle_quotient_dim,
    power_containment,
    random_homogeneous,
    random_ideal_gens,
    random_m_primary_gens,
    rank,
    regularity_artinian,
    rows_matrix,
    scan_stabilization_check,
    tuple_annihilation_rows,
)

from cases import diagonal_ci, hypersurface, poly, report_from_json, ring, squares_ci

from fsing import groebner
from fsing.errors import InternalError, RegularSequenceError, ResourceLimit
from fsing.frobenius import CompleteIntersection, TauClass, compute_tau, hilbert_function
from fsing.groebner import Ideal
from fsing.invariants import (
    a_invariant,
    analyze,
    cor_bound,
    find_stable_q,
    isolated_singularity_test,
    stabilization_check,
    thmA_bound,
    thmB_threshold,
)
from fsing.ring import Polynomial, monomials_of_degree

R3 = ring(3)


def m_power(r, k):
    return Ideal(
        r, tuple(monomial(r, m) for m in monomials_of_degree(r, k))
    )


def two_var_powers(p, a, b):
    r = ring(p, "xy")
    return r, Ideal(r, (poly(f"x^{a}", r), poly(f"y^{b}", r)))


# ---------------------------------------------------------------------------
# regularity and power containment


def test_regularity_examples():
    assert regularity_artinian(maximal_ideal(R3)) == 0
    for a, b in ((2, 3), (3, 3), (2, 5)):
        _, I = two_var_powers(5, a, b)
        assert regularity_artinian(I) == a + b - 2
    assert regularity_artinian(Ideal(R3, tuple(poly(f"{v}^3", R3) for v in "xyz"))) == 6


def test_regularity_errors():
    with pytest.raises(ValueError, match="zero ring"):
        regularity_artinian(Ideal(R3, (Polynomial.constant(R3, 1),)))
    with pytest.raises(ValueError, match="Artinian"):
        regularity_artinian(Ideal(R3, (poly("x", R3),)))


def test_power_containment_examples():
    assert power_containment(m_power(R3, 2), 2)
    r, I = two_var_powers(5, 2, 3)
    assert not power_containment(I, 3)  # x*y^2 is missed
    tau = compute_tau(squares_ci(3)).tau
    assert power_containment(tau, 1)
    assert not power_containment(tau, 0)
    with pytest.raises(ValueError):
        power_containment(I, -1)


def test_regularity_against_containment(rng):
    for _ in range(6):
        p = rng.choice((2, 3, 5))
        r = ring(p, "xy")
        I = Ideal(r, random_m_primary_gens(rng, r, 4))
        reg = regularity_artinian(I)
        first = next(k for k in range(reg + 2) if power_containment(I, k))
        assert first == reg + 1


# ---------------------------------------------------------------------------
# M_q


def test_m_q_examples():
    r5, I5 = two_var_powers(5, 2, 3)
    assert m_q(I5, 5) == 2 * 5 - (2 + 3)
    r2, I2 = two_var_powers(2, 2, 3)
    assert m_q(I2, 2) == 0  # q <= min(a, b): the colon is everything
    assert m_q(I2, 4) == 2 * 4 - (2 + 3)
    assert m_q(maximal_ideal(R3), 3) == 6  # socle generator (xyz)^2


def test_m_q_closed_form_two_variable_powers():
    # three regimes: 0 for q <= a, q - a in between, 2q - (a+b) past b
    for a, b in ((2, 3), (3, 3), (2, 5)):
        for p in (2, 3, 5):
            q = p
            while q <= p**2:
                r, I = two_var_powers(p, a, b)
                if q <= a:
                    expected = 0
                elif q <= b:
                    expected = q - a
                else:
                    expected = 2 * q - (a + b)
                assert m_q(I, q) == expected, (a, b, p, q)
                q *= p


def test_m_q_validation():
    with pytest.raises(ValueError, match="zero ideal"):
        m_q(Ideal.zero(R3), 3)
    with pytest.raises(ValueError, match="proper"):
        m_q(Ideal(R3, (Polynomial.constant(R3, 1),)), 3)
    with pytest.raises(ValueError, match="power"):
        m_q(maximal_ideal(R3), 6)


def test_m_q_matches_oracle(rng):
    for _ in range(6):
        p = rng.choice((2, 3, 5))
        nv = rng.choice((2, 3))
        r = ring(p, "xyz"[:nv])
        gens = random_m_primary_gens(rng, r, 4)
        q = p if (nv == 3 or p == 5) else p ** rng.choice((1, 2))
        assert m_q(Ideal(r, gens), q) == oracle_m_q(gens, q, r)


def groebner_colon_pick(I, q):
    """The first least-degree reduced-basis generator of the Groebner colon
    (m^[q] : I) with a monomial below q, stripped to those monomials."""
    best = None
    for g in m_bracket(I.ring, q).colon(I).groebner():
        if any(max(m) < q for m in g.terms):
            if best is None or g.degree() < best.degree():
                best = g
    return {m: c for m, c in best.terms.items() if max(m) < q}


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_least_generator_matches_groebner_colon(rng, p):
    # the kernel scan against the Groebner colon, on forms plus pure powers,
    # forms alone (often not m-primary) and tau of seeded CIs; without
    # m-primary I both routes walk every degree, so q^nv stays small there
    qs = [q for q in (p, p**2, p**3) if q <= 27]
    for nv in (2, 3, 4):
        r = ring(p, "xyzw"[:nv])
        ideals = [Ideal(r, random_m_primary_gens(rng, r, 3)) for _ in range(3)]
        ideals += [Ideal(r, random_ideal_gens(rng, r, 3, 3)) for _ in range(2)]
        while len(ideals) < 7:
            forms = tuple(
                random_homogeneous(rng, r, rng.randint(2, 3))
                for _ in range(rng.randint(1, 2))
            )
            try:
                ideals.append(compute_tau(CompleteIntersection(r, forms)).tau)
            except RegularSequenceError:
                continue
        for I in ideals:
            if I.is_unit():
                continue
            small = [q for q in qs if q == p or q**nv <= 729]
            q = rng.choice(qs if I.is_zero_dimensional() else small)
            assert least_surviving_generator(I, q).terms == groebner_colon_pick(I, q), (I, q)


# ---------------------------------------------------------------------------
# stabilization


def test_stabilization_examples():
    # a certified q hands back its certificate, the least surviving generator
    for I, q in ((maximal_ideal(R3), 3), (maximal_ideal(R3), 9)):
        assert stabilization_check(I, q, 0) == least_surviving_generator(I, q)
    _, I5 = two_var_powers(5, 2, 3)
    assert stabilization_check(I5, 5, regularity_artinian(I5)) == least_surviving_generator(I5, 5)
    _, I2 = two_var_powers(2, 2, 3)
    reg2 = regularity_artinian(I2)
    assert stabilization_check(I2, 2, reg2) is None
    assert stabilization_check(I2, 4, reg2) == least_surviving_generator(I2, 4)
    with pytest.raises(ValueError, match="power"):
        stabilization_check(maximal_ideal(R3), 6, 0)


def test_stabilization_check_matches_the_scan(rng):
    # one kernel at the predicted degree against the top-down scan, on
    # m-primary ideals at q = p, p^2, p^3 while q^nv stays small; about one
    # pair in nine is not certified
    pairs = uncertified = 0
    for p in (2, 3, 5, 7):
        for nv in (2, 3):
            r = ring(p, "xyz"[:nv])
            qs = [q for q in (p, p**2, p**3) if q**nv <= 3000]
            for _ in range(30):
                I = Ideal(r, random_m_primary_gens(rng, r, 4))
                reg = regularity_artinian(I)
                for q in qs:
                    certificate = stabilization_check(I, q, reg)
                    assert certificate == scan_stabilization_check(I, q), (I, q)
                    pairs += 1
                    uncertified += certificate is None
    assert pairs >= 400 and uncertified >= 20, (pairs, uncertified)


def test_kernel_below_the_predicted_degree_is_zero(rng):
    # Matlis duality over S/m^[q]: the colon modulo m^[q] in degree t has the
    # dimension of S/(I + m^[q]) in degree (n+1)(q-1) - t.  So it is zero one
    # degree below s = (n+1)(q-1) - reg(S/I), and at s it has the dimension
    # of that quotient in degree reg(S/I); dense kernels of the tuple-keyed
    # rows, on m-primary ideals at q = p, p^2, p^3 while q^nv stays small
    pairs = nonzero = 0
    for p in (2, 3, 5, 7):
        for nv in (2, 3):
            r = ring(p, "xyz"[:nv])
            qs = [q for q in (p, p**2, p**3) if q**nv <= 3000]
            for _ in range(10):
                I = Ideal(r, random_m_primary_gens(rng, r, 4))
                reg = regularity_artinian(I)
                for q in qs:
                    s = nv * (q - 1) - reg
                    dims = []
                    for t in (s - 1, s):
                        coords = monomials_of_degree(r, t, below=q)
                        rows = tuple_annihilation_rows(I.generators, coords, q)
                        dims.append(len(nullspace(rows_matrix(rows, len(coords)), p)))
                    bracket = m_bracket(r, q).generators
                    assert dims == [0, oracle_quotient_dim(I.generators + bracket, reg, r)], (I, q)
                    pairs += 1
                    nonzero += dims[1] > 0
    assert pairs >= 150 and 0 < nonzero < pairs, (pairs, nonzero)


def test_find_stable_q():
    result = compute_tau(squares_ci(3))
    tau = result.tau
    assert find_stable_q(tau, result.ell) == (3, least_surviving_generator(tau, 3))
    _, I2 = two_var_powers(2, 2, 3)
    reg2 = regularity_artinian(I2)
    assert find_stable_q(I2, reg2) == (4, least_surviving_generator(I2, 4))
    with pytest.raises(ResourceLimit, match="no stabilization certificate"):
        find_stable_q(I2, reg2, max_q=2)


def test_stable_q_is_at_most_the_least_power_above_ell(rng):
    # past ell = reg(S/I), m^[q] is zero in degree ell, so by duality the
    # kernel at s has the dimension of (S/I)_ell, which is nonzero: the
    # search stops at the least power of p above ell, or earlier
    later = attained = 0
    for _ in range(150):
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 3)
        r = ring(p, "xyz"[:nv])
        I = Ideal(r, random_m_primary_gens(rng, r, rng.randint(1, 4 if nv == 2 else 3)))
        reg = regularity_artinian(I)
        bound = p
        while bound <= reg:
            bound *= p
        q, _ = find_stable_q(I, reg)
        assert q <= bound, (I, q, bound)
        later += q > p
        attained += q == bound > p
    assert later > attained > 0


def test_containment_iff_m_q_bound(rng):
    # for stable q: (n+1)q - M_q(I) <= n + ell exactly when m^ell lies in I
    for _ in range(6):
        p = rng.choice((2, 3, 5))
        r = ring(p, "xy")
        I = Ideal(r, random_m_primary_gens(rng, r, 4))
        reg = regularity_artinian(I)
        qs = [find_stable_q(I, reg)[0]]
        qs.append(qs[0] * p)
        values = {q: 2 * q - m_q(I, q) for q in qs}
        for ell in range(reg + 3):
            bound_holds = all(values[q] <= 1 + ell for q in qs)
            assert bound_holds == power_containment(I, ell)


def test_colon_reversal_iff_containment(rng):
    # (m^[q] : I) inside (m^[q] : m^ell) exactly when m^ell lies in I
    for _ in range(4):
        p = rng.choice((2, 3))
        r = ring(p, "xy")
        I = Ideal(r, random_m_primary_gens(rng, r, 3))
        reg = regularity_artinian(I)
        qs = [find_stable_q(I, reg)[0]]
        qs.append(qs[0] * p)
        for ell in range(1, reg + 3):
            reversed_all = all(
                all(
                    m_bracket(r, q).colon(m_power(r, ell)).contains(g)
                    for g in m_bracket(r, q).colon(I).generators
                )
                for q in qs
            )
            assert reversed_all == power_containment(I, ell)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("nv", [2, 3])
def test_bracket_colon_power_identity(p, nv):
    # (m^[q] : m^ell) = m^[q] + m^((n+1)q - (n + ell)) for ell <= q
    r = ring(p, "xyz"[:nv])
    qs = [p]
    if (nv == 2 and p**2 <= 25) or (nv == 3 and p <= 3):
        qs.append(p**2)
    for q in qs:
        for ell in range(1, min(q, 6) + 1):
            lhs = m_bracket(r, q).colon(m_power(r, ell))
            rhs = Ideal(
                r, m_bracket(r, q).generators + m_power(r, nv * q - (nv - 1 + ell)).generators
            )
            assert lhs == rhs, (p, nv, q, ell)


# ---------------------------------------------------------------------------
# bounds


def test_a_invariant_examples():
    assert a_invariant(squares_ci(3)) == 1
    assert a_invariant(diagonal_ci(5, 3)) == 0
    r4 = ring(5, "xyzw")
    ci = CompleteIntersection(r4, (poly("x^2", r4), poly("y^3", r4)))
    assert a_invariant(ci) == 1


def test_thmA_bound_examples():
    ci = squares_ci(3)
    assert thmA_bound(ci, compute_tau(ci)) == 1
    fermat2 = diagonal_ci(2, 3)
    result = compute_tau(fermat2)
    assert result.kind is TauClass.ISOLATED_NON_F_PURE_POINT
    assert thmA_bound(fermat2, result) == 0 - result.ell


def test_thmA_bound_rejects_wrong_tau_shape():
    flat = hypersurface(3, "x^2*y^2", names="xy")
    with pytest.raises(ValueError, match="m-primary"):
        thmA_bound(flat, compute_tau(flat))
    pure = hypersurface(5, "x*y", names="xy")
    with pytest.raises(ValueError, match="m-primary"):
        thmA_bound(pure, compute_tau(pure))


def test_thmA_bound_checks_the_corollary_bound():
    # a(R) - ell never lies below -(n+1-c)d; an ell past that is a bug
    ci = squares_ci(3)
    result = compute_tau(ci)
    assert thmA_bound(ci, dataclasses.replace(result, ell=9)) == cor_bound(ci) == -8
    with pytest.raises(InternalError, match="^Theorem A bound below the corollary bound$"):
        thmA_bound(ci, dataclasses.replace(result, ell=10))


def test_closed_form_bounds():
    # (n, c, d) = (2, 1, 4), (1, 2, 2) and (2, 1, 3)
    quartic = squares_ci(3)
    assert cor_bound(quartic) == -8
    assert thmB_threshold(quartic) == 6
    r2 = ring(3, "xy")
    lines = CompleteIntersection(r2, (poly("x", r2), poly("y", r2)))
    assert cor_bound(lines) == 0
    assert thmB_threshold(lines) == 0
    assert thmB_threshold(diagonal_ci(5, 3)) == 4


def test_thmA_dominates_cor_bound():
    family = [
        squares_ci(3),
        squares_ci(5),
        squares_ci(7),
        diagonal_ci(2, 3, names="xy"),
        diagonal_ci(2, 3),
        diagonal_ci(3, 4),
        diagonal_ci(2, 5),
    ]
    for ci in family:
        result = compute_tau(ci)
        assert result.kind is TauClass.ISOLATED_NON_F_PURE_POINT
        assert thmA_bound(ci, result) >= cor_bound(ci)


# ---------------------------------------------------------------------------
# Hilbert series


def artinian_series(degrees):
    """Hilbert series of S/(x_0^d_0, ..., x_n^d_n), n + 1 = len(degrees):
    prod(1 - t^d) / (1 - t)^(n+1) is a polynomial of degree sum(d - 1)."""
    nv = len(degrees)
    return [hilbert_function(degrees, nv, s) for s in range(sum(degrees) - nv + 1)]


def test_hilbert_series_examples():
    assert artinian_series([2, 2]) == [1, 2, 1]
    assert len(artinian_series([4, 3, 3])) == 8  # degree 7


def test_hilbert_series_matches_artinian_data():
    for a, b in ((2, 3), (3, 3), (2, 5)):
        series = artinian_series([a, b])
        assert len(series) - 1 == a + b - 2
        assert series == series[::-1]  # complete intersections are Gorenstein
        assert sum(series) == a * b
        _, I = two_var_powers(5, a, b)
        assert regularity_artinian(I) == len(series) - 1


# ---------------------------------------------------------------------------
# Jacobian and isolated singularities


def test_jacobian_examples():
    fermat = diagonal_ci(5, 3)
    r5 = ring(5)
    assert jacobian_ideal(fermat) == Ideal(
        r5, tuple(poly(f"3*{v}^2", r5) for v in "xyz")
    )
    assert isolated_singularity_test(fermat)
    assert not isolated_singularity_test(squares_ci(3))
    # linear forms: a constant minor makes the critical ideal the unit ideal
    assert isolated_singularity_test(CompleteIntersection(R3, (poly("x", R3), poly("y + z", R3))))
    assert isolated_singularity_test(hypersurface(3, "x + y"))


def test_jacobian_codimension_two_snapshot():
    r4 = ring(5, "xyzw")
    ci = CompleteIntersection(
        r4, (poly("x*z - y*w", r4), poly("x^2 + y^2 + z^2 + w^2", r4))
    )
    minors = jacobian_ideal(ci)
    assert len(minors.generators) == 6  # all 2x2 row pairs of a 4x2 matrix
    assert isolated_singularity_test(ci) is False


def test_jacobian_minors_match_cofactor_expansion(rng):
    # expansion along the last column from the smaller minors against one
    # cofactor expansion per minor, on seeded CIs with c <= 4
    checked = 0
    while checked < 60:
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 5)
        c = rng.randint(1, min(nv, 4))
        r = ring(p, "xyzwv"[:nv])
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(1, 3 if c <= 2 else 2)) for _ in range(c)
        )
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        minors, reference = jacobian_ideal(ci), Ideal(r, cofactor_jacobian_minors(ci))
        assert minors.generators == reference.generators
        assert minors.groebner() == reference.groebner()
        checked += 1


def test_isolated_singularity_test_matches_the_dense_oracle(rng, monkeypatch):
    # two families: random forms, which often lack some x_i^deg, and forms
    # holding x_i^deg for every i, which no coordinate point satisfies; each
    # verdict matches the dense oracle and the complete reduced basis, and
    # the route is the one the generators call for: a coordinate point
    # exactly when every minor and form vanishes at some e_i, else the basis
    # stopped at pure-power leads exactly when the answer is yes
    real, routes = groebner._buchberger, []

    def spy(*args):
        basis = real(*args)
        routes.append("pure powers" if basis is None else "complete basis")
        return basis

    monkeypatch.setattr(groebner, "_buchberger", spy)
    seen = Counter()
    while len(seen) < 3 or min(seen.values()) < 25:
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 3)
        r = ring(p, "xyz"[:nv])
        forms = [random_homogeneous(rng, r, rng.randint(2, 4)) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            degree = forms[0].degree()
            powers = [tuple(degree * (j == i) for j in range(nv)) for i in range(nv)]
            forms[0] = Polynomial(r, forms[0].terms | {m: rng.randrange(1, p) for m in powers})
        try:
            ci = CompleteIntersection(r, tuple(forms))
        except RegularSequenceError:
            continue
        routes.clear()
        verdict = isolated_singularity_test(ci)
        route = routes[0] if routes else "coordinate point"
        gens = cofactor_jacobian_minors(ci) + list(ci.forms)
        axes = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
        on_axis = any(not any(evaluate(g, e) for g in gens) for e in axes)
        assert (route == "coordinate point") == on_axis, ci.forms
        assert verdict == (route == "pure powers"), ci.forms
        assert verdict == oracle_isolated_singularity(ci), ci.forms
        critical = Ideal(r, jacobian_ideal(ci).generators + ci.forms)
        assert verdict == (critical.is_unit() or critical.is_zero_dimensional()), ci.forms
        seen[route] += 1


def test_positive_dimensional_tau_is_never_an_isolated_singularity(rng):
    # V(tau), the non-F-pure locus, lies in the singular locus, so analyze
    # reads isolated_singularity = False off a positive-dimensional tau; on
    # every draw its report equals the one the full Jacobian test gives
    classes, isolated, positive = set(), set(), 0
    while positive < 100:
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 4)
        r = ring(p, "xyzw"[:nv])
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(1, 3), rng.choice((0.2, 0.6)))
            for _ in range(rng.randint(1, 2))
        )
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        report, full = analyze(ci), isolated_singularity_test(ci)
        assert report == dataclasses.replace(report, isolated_singularity=full), forms
        if report.tau_class is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL:
            assert full is False, forms
            positive += 1
        classes.add(report.tau_class)
        isolated.add(full)
    assert classes == set(TauClass)
    assert isolated == {True, False}


def change_coordinates(g, matrix):
    """g(Ax): each x_i goes to sum_j A[i][j] x_j, scalars as constants."""
    r = g.ring
    images = [sum((Polynomial.constant(r, a) * Polynomial.variable(r, j) for j, a in enumerate(row)),
                  Polynomial.zero(r)) for row in matrix]
    total = Polynomial.zero(r)
    for m, c in g.terms.items():
        term = Polynomial.constant(r, c)
        for image, e in zip(images, m):
            term = term * image**e
        total = total + term
    return total


def test_analyze_is_unchanged_by_a_linear_change_of_coordinates(rng):
    # every invariant of the report is one of R up to graded isomorphism; a
    # general change of coordinates, unlike the benchmark's diagonal ones,
    # takes Buchberger, the Frobenius root and the coordinate points of tau
    # and of the Jacobian test down other paths
    classes, isolated, draws = set(), set(), 0
    while draws < 100:
        nv = rng.randint(2, 4)
        r = ring(rng.choice((2, 3, 5, 7)), "xyzw"[:nv])
        forms = tuple(random_homogeneous(rng, r, rng.randint(1, 3 if nv < 4 else 2), rng.choice((0.3, 0.7)))
                      for _ in range(rng.randint(1, 2)))
        matrix = [[rng.randrange(r.p) for _ in range(nv)] for _ in range(nv)]
        if rank(matrix, r.p) < nv:
            continue
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        report = analyze(ci).to_json_dict()
        moved = CompleteIntersection(r, tuple(change_coordinates(g, matrix) for g in forms))
        assert analyze(moved).to_json_dict() == report, (forms, matrix)
        classes.add(report["tau_class"])
        isolated.add(report["isolated_singularity"])
        draws += 1
    assert classes == {kind.value for kind in TauClass}
    assert isolated == {True, False}


# ---------------------------------------------------------------------------
# the aggregate report


SQUARES_P3_REPORT = {
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

CODIM_TWO_P5_REPORT = {
    "a_invariant": 0,
    "reg_s_mod_tau": None,
    "ell": None,
    "thmA_bound": None,
    "cor_bound": -8,
    "thmB_threshold": 4,
    "fpure_at_m": True,
    "tau_class": "everywhere_f_pure",
    "isolated_singularity": False,
}


def test_analyze_squares_quartic_p3():
    assert analyze(squares_ci(3)).to_json_dict() == SQUARES_P3_REPORT


def test_analyze_codimension_two_snapshot():
    r4 = ring(5, "xyzw")
    ci = CompleteIntersection(
        r4, (poly("x*z - y*w", r4), poly("x^2 + y^2 + z^2 + w^2", r4))
    )
    assert analyze(ci).to_json_dict() == CODIM_TWO_P5_REPORT


def test_report_json_roundtrip():
    report = analyze(squares_ci(3))
    assert report_from_json(report.to_json_dict()) == report
    assert list(report.to_json_dict()) == list(SQUARES_P3_REPORT)


def test_report_cross_field_checks():
    # ell is stored once, so the one check left across fields is Theorem A's
    # bound against the corollary's
    good = report_from_json(SQUARES_P3_REPORT)
    with pytest.raises(AssertionError):
        dataclasses.replace(good, thmA_bound=-9)
