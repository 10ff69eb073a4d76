import collections
import dataclasses
import itertools
import math
import re
import time

import pytest

from oracles import (
    degree_index,
    evaluate,
    grevlex_key,
    m_bracket,
    maximal_ideal,
    monomial,
    non_f_pure_at,
    oracle_quotient_dim,
    per_eps_root,
    poly_vector,
    projective_points,
    random_homogeneous,
    random_ideal_gens,
    rank,
    tau_class_by_basis,
)

from cases import SQUARES_QUARTIC, diagonal_ci, hypersurface, poly, ring, squares_ci

from fsing import frobenius, groebner
from fsing.cli import load_problem
from fsing.errors import InternalError, RegularSequenceError, RingMismatch
from fsing.frobenius import (
    CompleteIntersection,
    TauClass,
    bracket_power,
    compute_tau,
    fedder_test_at_m,
    frobenius_root_principal,
    groups_in_root,
    hilbert_function,
)
from fsing.groebner import Ideal
from fsing.ring import Polynomial, monomials_of_degree

R3 = ring(3)
R5_2 = ring(5, "xy")


# ---------------------------------------------------------------------------
# bracket powers


def test_m_bracket_examples():
    assert m_bracket(R3, 3) == Ideal(
        R3, (poly("x^3", R3), poly("y^3", R3), poly("z^3", R3))
    )
    assert m_bracket(R3, 1) == Ideal(R3, (poly("x", R3), poly("y", R3), poly("z", R3)))
    for bad in (6, 2, 0):
        with pytest.raises(ValueError):
            m_bracket(R3, bad)


def test_colon_piece_lists_no_coordinates_for_an_empty_kernel(monkeypatch):
    # x is outside m^[2], so (m^[2] : x) has no degree-0 piece; in degree 1
    # only x*x lies in m^[2]
    x = (poly("x", R3),)

    def refuse(*args, **kwargs):
        raise AssertionError("coordinates listed for an empty kernel")

    monkeypatch.setattr(frobenius, "monomials_of_degree", refuse)
    assert frobenius.colon_piece(x, R3, 0, 2) == []
    monkeypatch.undo()
    assert frobenius.colon_piece(x, R3, 1, 2) == list(x)


def test_bracket_power_of_principal_ideal():
    r = ring(2, "xy")
    I = Ideal(r, (poly("x + y", r),))
    assert bracket_power(I, 2) == Ideal(r, (poly("x^2 + y^2", r),))
    with pytest.raises(ValueError):
        bracket_power(I, 3)


def test_bracket_power_distributes_over_sums(rng):
    for _ in range(6):
        p = rng.choice((2, 3, 5))
        r = ring(p, "xy")
        I = Ideal(r, random_ideal_gens(rng, r, 2, 3))
        J = Ideal(r, random_ideal_gens(rng, r, 2, 3))
        lhs = bracket_power(Ideal(r, I.generators + J.generators), p)
        rhs = Ideal(r, bracket_power(I, p).generators + bracket_power(J, p).generators)
        assert lhs == rhs


def test_bracket_power_is_generator_independent(rng):
    for _ in range(6):
        p = rng.choice((2, 3))
        r = ring(p, "xy")
        I = Ideal(r, random_ideal_gens(rng, r, 3, 3))
        regenerated = Ideal(r, I.groebner())
        assert bracket_power(I, p) == bracket_power(regenerated, p)


def test_bracket_power_basis_matches_fresh_buchberger(rng):
    # Frobenius is flat (Kunz), so the q-th powers of a reduced basis are the
    # reduced basis of the bracket power, with no Buchberger run on it
    for p in (2, 3, 5):
        r = ring(p)
        for q in (p, p * p):
            for _ in range(3):
                I = Ideal(r, random_ideal_gens(rng, r, 3, 3))
                fresh = Ideal(r, tuple(g**q for g in I.generators))
                assert bracket_power(I, q).groebner() == fresh.groebner()


# ---------------------------------------------------------------------------
# Frobenius roots


def test_root_examples():
    assert frobenius_root_principal(poly("x^3", R3)) == Ideal(R3, (poly("x", R3),))
    assert frobenius_root_principal(poly("x^2*y", R3)).is_unit()
    assert frobenius_root_principal(poly("x^7*y^5", R3)) == Ideal(
        R3, (poly("x^2*y", R3),)
    )
    f = poly(SQUARES_QUARTIC, R3)
    assert frobenius_root_principal(f**2) == maximal_ideal(R3)


def test_root_of_zero():
    assert frobenius_root_principal(Polynomial.zero(R3)).is_zero()


@pytest.mark.parametrize("p", [7, 11])
def test_root_reduces_its_rows_shortest_first(p):
    # the root's generators are tau's Buchberger inputs; reduced in input
    # order, the same 9 generators would carry 14 terms at p = 7, 15 at 11
    f = poly("x^3 + x*y*z + y^2*z + z^3 + x^2*y", ring(p))
    generators = frobenius_root_principal(f ** (p - 1)).generators
    assert len(generators) == 9
    assert sum(len(g.terms) for g in generators) == 13


def test_root_satisfies_defining_containment(rng):
    for _ in range(12):
        p = rng.choice((2, 3, 5))
        r = ring(p, rng.choice(("xy", "xyz")))
        h = random_homogeneous(rng, r, rng.randint(1, 6))
        root = frobenius_root_principal(h)
        assert bracket_power(root, p).contains(h)


def test_root_is_minimal_over_constructed_memberships(rng):
    # whenever h is a combination sum g_i^p * mu_i, the root must land in (g_i)
    for _ in range(12):
        p = rng.choice((2, 3))
        r = ring(p, "xy")
        gens = random_ideal_gens(rng, r, 2, 2)
        target = p * max(g.degree() for g in gens) + rng.randint(0, 2)
        h = Polynomial.zero(r)
        for g in gens:
            shift = target - p * g.degree()
            mus = monomials_of_degree(r, shift)
            h = h + g**p * monomial(r, rng.choice(mus))
        if not h:
            continue
        I = Ideal(r, gens)
        assert all(I.contains(g) for g in frobenius_root_principal(h).generators)


def test_span_root_matches_the_per_eps_root(rng):
    # the span basis and the raw per-class roots give tau the same reduced
    # basis, and in each degree the basis has as many elements as the raw
    # roots have rank
    checked = 0
    while checked < 16:
        p = rng.choice((2, 3, 5, 7, 11, 13))
        r = ring(p, "xyzw"[: rng.randint(2, 4)])
        c = rng.randint(1, 2)
        forms = tuple(random_homogeneous(rng, r, rng.randint(2, 3)) for _ in range(c))
        if (p - 1) * sum(g.degree() for g in forms) * r.nvars > 100:
            continue  # keep f^(p-1) and the raw Buchberger small
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        raw = per_eps_root(ci.fpow)
        span = frobenius_root_principal(ci.fpow).generators
        assert (
            Ideal(r, ci.forms + span).groebner()
            == Ideal(r, ci.forms + raw).groebner()
        )
        for s in {g.degree() for g in raw}:
            _, index = degree_index(r, s)
            rows = [poly_vector(g, index) for g in raw if g.degree() == s]
            assert sum(g.degree() == s for g in span) == rank(rows, p)
        checked += 1


# ---------------------------------------------------------------------------
# complete intersections


def test_ci_derived_fields():
    ci = squares_ci(3)
    assert ci.c == 1
    assert ci.n == 2
    assert ci.degrees == (4,)
    assert ci.d == 4
    assert ci.f == ci.forms[0]
    assert ci.fpow == ci.f**2
    assert ci.fpow is ci.fpow

    r4 = ring(5, "xyzw")
    forms = (poly("x*z - y*w", r4), poly("x^2 + y^2 + z^2 + w^2", r4))
    ci2 = CompleteIntersection(r4, forms)
    assert ci2.c == 2
    assert ci2.n == 3
    assert ci2.degrees == (2, 2)
    assert ci2.d == 4
    assert ci2.f == forms[0] * forms[1]


def test_ci_is_frozen():
    ci = squares_ci(3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ci.d = 5


def test_ci_accepts_linear_pair():
    ci = CompleteIntersection(R3, (poly("x", R3), poly("y", R3)))
    assert ci.degrees == (1, 1)


def test_ci_rejects_overlapping_monomial_forms():
    # V(xy, yz) contains the plane y = 0, so codimension drops
    with pytest.raises(RegularSequenceError, match="not a regular sequence"):
        CompleteIntersection(R3, (poly("x*y", R3), poly("y*z", R3)))


def test_ci_rejects_repeated_form():
    g = poly("x^2 + y*z", R3)
    with pytest.raises(RegularSequenceError):
        CompleteIntersection(R3, (g, g))


def test_ci_rejects_non_artinian_full_length():
    with pytest.raises(RegularSequenceError, match="not a regular sequence"):
        CompleteIntersection(
            ring(5, "xy"), (poly("x^2", R5_2), poly("x*y", R5_2))
        )


def test_ci_shape_validation():
    with pytest.raises(RegularSequenceError, match="need between 1 and 3 forms"):
        CompleteIntersection(R3, tuple(poly(v, R3) for v in "xyz") * 2)
    with pytest.raises(RegularSequenceError, match="positive degree"):
        CompleteIntersection(R3, (Polynomial.zero(R3),))
    with pytest.raises(RegularSequenceError, match="positive degree"):
        CompleteIntersection(R3, (Polynomial.constant(R3, 2),))
    with pytest.raises(RegularSequenceError, match="positive degree"):
        CompleteIntersection(R3, (poly("x + x^2", R3),))
    with pytest.raises(RingMismatch):
        CompleteIntersection(R3, (poly("x", R5_2),))


def test_artinian_ci_accepted_with_matching_histogram():
    # (x^2, y^3): quotient dimensions 1, 2, 2, 1 over degrees 0..3
    ci = CompleteIntersection(R5_2, (poly("x^2", R5_2), poly("y^3", R5_2)))
    assert ci.d == 5


def test_full_length_ci_check_matches_groebner_artinian_test(rng):
    # n+1 forms are a regular sequence exactly when the quotient is Artinian;
    # the Groebner test is a route independent of the rank comparison
    verdicts = []
    for _ in range(60):
        r = ring(rng.choice((2, 3, 5)), rng.choice(("xy", "xyz")))
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(1, 2), density=rng.choice((0.3, 0.6)))
            for _ in range(r.nvars)
        )
        try:
            CompleteIntersection(r, forms)
            accepted = True
        except RegularSequenceError:
            accepted = False
        assert accepted == Ideal(r, forms).is_zero_dimensional()
        verdicts.append(accepted)
    assert 10 <= sum(verdicts) <= 50


def coprime_lead_forms(rng, r, max_degree):
    """2 to n+1 forms whose grevlex leads have disjoint supports: the
    variables, shuffled, are cut into one run per form, each form's lead is
    a random monomial on its run, and its other terms lie below the lead."""
    variables = list(range(r.nvars))
    rng.shuffle(variables)
    c = rng.randint(2, r.nvars)
    cuts = [0] + sorted(rng.sample(range(1, r.nvars), c - 1)) + [r.nvars]
    forms = []
    for run in (variables[a:b] for a, b in zip(cuts, cuts[1:])):
        degree = rng.randint(1, max_degree)
        lead = [0] * r.nvars
        for _ in range(degree):
            lead[rng.choice(run)] += 1
        lead = tuple(lead)
        terms = {m: rng.randrange(r.p) for m in monomials_of_degree(r, degree)
                 if grevlex_key(m) < grevlex_key(lead) and rng.random() < 0.5}
        terms[lead] = rng.randrange(1, r.p)
        forms.append(Polynomial(r, terms))
        assert forms[-1].leading_monomial() == lead
    return tuple(forms)


def test_coprime_leads_construct_without_a_rank(rng, monkeypatch):
    # forms with pairwise coprime leads are a Groebner basis whose leads are
    # a regular sequence of monomials, so construction ranks no degree; the
    # dense quotient dimensions confirm the Hilbert function of a regular
    # sequence in every degree up to d
    def refuse(*args):
        raise AssertionError("the regular-sequence check took a rank")

    monkeypatch.setattr(frobenius, "quotient_dims", refuse)
    for _ in range(40):
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 4)
        r = ring(p, "xyzw"[:nv])
        forms = coprime_lead_forms(rng, r, 3 if nv < 4 else 2)
        ci = CompleteIntersection(r, forms)
        for s in range(ci.d + 1):
            assert oracle_quotient_dim(forms, s, r) == hilbert_function(ci.degrees, nv, s), (forms, s)


def test_leads_that_share_a_variable_take_the_rank_check(monkeypatch):
    r = ring(5, "xyzw")
    real, ranked = frobenius.quotient_dims, []

    def counted(*args):
        for s, dim in real(*args):
            ranked.append(s)
            yield s, dim

    monkeypatch.setattr(frobenius, "quotient_dims", counted)
    forms = (poly("x^2 + y^2 + z^2 + w^2", r), poly("x*y + z*w", r))
    assert CompleteIntersection(r, forms).degrees == (2, 2)
    assert ranked == [1, 2, 3, 4]  # leads x^2 and x*y share x: degrees 1 to 4
    # c = n+1: the Hilbert function 1, 2, 1 reaches 0 at d - n = 3, where
    # the scan stops, so degree d = 4 is not ranked
    ranked.clear()
    r = ring(5, "xy")
    assert CompleteIntersection(r, (poly("x^2 + y^2", r), poly("x*y", r))).d == 4
    assert ranked == [1, 2, 3]
    with pytest.raises(
        RegularSequenceError,
        match=r"^not a regular sequence: quotient dimension 5 in degree 3, expected 4$",
    ):
        CompleteIntersection(R3, (poly("x*y", R3), poly("x*z", R3)))


def test_quotient_dims_match_the_dense_oracle(rng):
    # the one count of dim (S/I)_s against dense ranks in every degree from
    # 1 to d, on sparse and dense forms in 2-6 variables with c from 1 to n+1,
    # c = n+1 in every third draw; a degree is added to a random form while
    # d < 3c and S has fewer than 300 monomials of degree at most d
    swept = collections.Counter()
    for draw in range(35):
        nv = 2 + draw % 5
        r = ring(rng.choice((2, 3, 5, 7)), "xyzwuv"[:nv])
        c = nv if draw % 3 == 0 else rng.randint(1, nv - 1)
        degrees = [1] * c
        while sum(degrees) < 3 * c and math.comb(sum(degrees) + nv, nv) < 300:
            degrees[rng.randrange(c)] += 1
        density = 0.9 if draw % 2 else 2 / math.comb(nv + 1, 2)
        forms = tuple(random_homogeneous(rng, r, e, density) for e in degrees)
        dims = frobenius.quotient_dims([g.terms for g in forms], nv, r.p)
        for s, dim in itertools.islice(dims, sum(degrees)):
            assert dim == oracle_quotient_dim(forms, s, r), (forms, s)
        swept[nv, c == nv] += 1
    assert all(swept[nv, True] and swept[nv, False] for nv in range(2, 7))


def krull_dimension(forms, r):
    # dim S/J = dim S/in(J): the most variables no lead is supported on alone
    supports = [{i for i, e in enumerate(m) if e} for m in Ideal(r, forms).leading_monomials()]
    return max(len(free) for k in range(r.nvars + 1)
               for free in map(set, itertools.combinations(range(r.nvars), k))
               if not any(support <= free for support in supports))


def non_regular_draw(rng, r, c, family):
    # both families lie in an ideal of height below c
    if family == "linear":
        # every form passes through the common linear space of k < c linear forms
        linear = [random_homogeneous(rng, r, 1) for _ in range(rng.randint(1, c - 1))]
        cofactor_degrees = [rng.randint(0, 2) for _ in range(c)]
        return tuple(sum((l * random_homogeneous(rng, r, e) for l in linear), Polynomial.zero(r))
                     for e in cofactor_degrees)
    # forms in the first m < c variables, each times a random factor
    m = rng.randint(1, c - 1)
    pad = (0,) * (r.nvars - m)
    small = (random_homogeneous(rng, ring(r.p, r.variables[:m]), rng.randint(1, 2)) for _ in range(c))
    return tuple(Polynomial(r, {e + pad: a for e, a in g.terms.items()})
                 * random_homogeneous(rng, r, rng.randint(0, 1)) for g in small)


def test_regular_sequence_check_matches_krull_dimension(rng, monkeypatch):
    # the check compares Hilbert functions up to degree d = sum d_j, and
    # these draws, most with c < n+1, guard that bound: refused exactly when
    # dim S/J > nv - c, at the first degree where the dense quotient
    # dimension leaves the complete intersection's Hilbert function
    real, ranked = frobenius.quotient_dims, []
    monkeypatch.setattr(frobenius, "quotient_dims", lambda *args: ranked.append(1) or real(*args))
    message = re.compile(r"^not a regular sequence: quotient dimension (\d+) in degree (\d+), expected (\d+)$")
    verdicts = collections.Counter()
    for draw in range(330):
        r = ring(rng.choice((2, 3, 5, 7)), "xyzw"[:rng.randint(3, 4)])
        c = rng.randint(2, r.nvars)
        family = ("random", "linear", "factor")[draw % 3]
        while True:
            if family == "random":
                forms = tuple(random_homogeneous(rng, r, rng.randint(1, 3 if r.nvars < 4 else 2))
                              for _ in range(c))
            else:
                forms = non_regular_draw(rng, r, c, family)
            leads = [g.leading_monomial() for g in forms if g]
            if len(leads) == c and any(any(map(min, a, b)) for k, a in enumerate(leads) for b in leads[:k]):
                break
        ranked.clear()
        degrees = tuple(g.degree() for g in forms)
        regular = krull_dimension(forms, r) == r.nvars - c
        try:
            CompleteIntersection(r, forms)
        except RegularSequenceError as e:
            dim, s, expected = map(int, message.match(str(e)).groups())
            first = next(t for t in range(sum(degrees) + 1)
                         if oracle_quotient_dim(forms, t, r) != hilbert_function(degrees, r.nvars, t))
            assert (s, dim, expected) == (first, oracle_quotient_dim(forms, first, r),
                                          hilbert_function(degrees, r.nvars, first)), forms
            accepted = False
        else:
            accepted = True
        assert ranked, forms  # the rank route ran
        assert accepted == regular, (forms, family)
        verdicts[family, accepted, c < r.nvars] += 1
    # c < n+1 draws are accepted and refused, and only the random family is accepted
    assert all(verdicts[family, family == "random", True] for family in ("random", "linear", "factor"))
    assert {family for family, accepted, _ in verdicts if accepted} == {"random"}


# ---------------------------------------------------------------------------
# tau


def test_tau_of_squares_quartic_p3():
    result = compute_tau(squares_ci(3))
    assert result.tau == maximal_ideal(R3)
    assert result.kind is TauClass.ISOLATED_NON_F_PURE_POINT
    assert result.ell == 0


def test_tau_of_monomial_hypersurface_is_unit():
    result = compute_tau(hypersurface(5, "x*y", names="xy"))
    assert result.kind is TauClass.EVERYWHERE_F_PURE
    assert result.ell is None


def test_containment_self_checks_run_only_for_proper_tau(monkeypatch):
    # the unit ideal's bracket power contains f^(p-1), so only Fedder's test
    # runs for it; an m-primary tau settled by ranks runs the root-membership
    # check and Fedder's test, and builds no basis
    calls = collections.Counter()

    def spy(owner, name):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a: calls.update([name]) or real(*a))

    spy(frobenius, "groups_in_root")
    spy(frobenius, "fedder_test_at_m")
    spy(groebner.Ideal, "groebner")
    pure = load_problem("problems/monomial_xy_p5.ci").ci
    assert compute_tau(pure).kind is TauClass.EVERYWHERE_F_PURE
    assert calls == {"fedder_test_at_m": 1}
    calls.clear()
    assert compute_tau(load_problem("problems/squares_p3.ci").ci).ell == 0
    assert calls == {"groups_in_root": 1, "fedder_test_at_m": 1}


def test_root_membership_check_needs_every_root_row(monkeypatch):
    # groups_in_root groups f^(p-1) on its own and reduces each g_eps on the
    # root's rows: with any one row dropped some g_eps is left over, and
    # compute_tau reports the broken root as an internal error
    for ci in (squares_ci(3), diagonal_ci(5, 3), hypersurface(3, "x^2*y^2", names="xy")):
        rows = frobenius_root_principal(ci.fpow).generators
        assert groups_in_root(ci.fpow, Ideal(ci.ring, rows))
        for i in range(len(rows)):
            assert not groups_in_root(ci.fpow, Ideal(ci.ring, rows[:i] + rows[i + 1:])), (ci.forms, i)
    real = frobenius.frobenius_root_principal
    monkeypatch.setattr(
        frobenius, "frobenius_root_principal", lambda h: Ideal(h.ring, real(h).generators[1:])
    )
    with pytest.raises(InternalError, match=r"tau\^\[p\] misses f\^\(p-1\)"):
        compute_tau(squares_ci(3))


def test_tau_certificates_match_the_basis_route(rng, monkeypatch):
    # compute_tau settles tau's class by a constant generator, by a
    # coordinate point or by degree-wise ranks, and runs Buchberger only
    # when none does: kind and ell against the route by tau's reduced basis,
    # and the two containments that define tau on its basis (compute_tau
    # checks only the second, and not on a basis).  The routes are told
    # apart by the kind and by whether compute_tau ran Buchberger; x^2*y +
    # y^3 at p = 2 has tau (x + y), zero at (1:1) but at no coordinate
    # point, the pair at p = 2 a positive-dimensional tau with no F_2 point,
    # and the pair at p = 3 an m-primary tau generated in degrees 3-4 with
    # ell = 4, which its ranks up to degree 4 cannot settle
    built = []
    real = groebner._buchberger
    monkeypatch.setattr(groebner, "_buchberger", lambda *args: built.append(args) or real(*args))
    pinned = [
        (2, "xy", ("x^2*y + y^3",)),
        (2, "xyz", ("x^2 + z^2", "y^3 + z^3 + y*z^2")),
        (3, "xy", ("x^3 + y^3", "x^4 + x^3*y + x*y^3")),
    ]
    cis = []
    for p, names, forms in pinned:
        r = ring(p, names)
        cis.append(CompleteIntersection(r, tuple(poly(g, r) for g in forms)))
    while len(cis) < 400:
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 4)
        r = ring(p, "xyzw"[:nv])
        top = {2: 4, 3: 3, 4: 3 if p < 5 else 2}[nv]
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(2, top), rng.choice((0.3, 0.7)))
            for _ in range(rng.randint(1, min(2, nv)))
        )
        try:
            cis.append(CompleteIntersection(r, forms))
        except RegularSequenceError:
            continue
    route_of_kind = {
        TauClass.EVERYWHERE_F_PURE: "unit",
        TauClass.ISOLATED_NON_F_PURE_POINT: "ranks",
        TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL: "point",
    }
    routes = collections.Counter()
    for k, ci in enumerate(cis):
        built.clear()
        result = compute_tau(ci)
        route = "basis" if built else route_of_kind[result.kind]
        kind, ell, forms, fpow = tau_class_by_basis(ci, result.tau.generators)
        assert (result.kind, result.ell) == (kind, ell), ci.forms
        assert forms and fpow, ci.forms
        if k < len(pinned):
            assert route == "basis", ci.forms
        if k == 2:  # the m-primary pin
            assert (result.kind, result.ell) == (TauClass.ISOLATED_NON_F_PURE_POINT, 4)
        routes[route] += 1
    assert set(routes) == {"unit", "ranks", "point", "basis"}, routes


def fallback_ci():
    # a positive-dimensional tau with no coordinate zero, which only
    # Buchberger decides
    r = ring(2, "xyz")
    return CompleteIntersection(r, (poly("x^2 + z^2", r), poly("y^3 + z^3 + y*z^2", r)))


def test_ranks_past_the_top_degree_stop_at_the_macaulay_bound(monkeypatch):
    # past the largest generator degree D the ranks go on only where
    # artinian says yes, and an Artinian S/tau is zero by (n+1)(D-1)+1: a
    # wrong yes on this positive-dimensional tau, which has no coordinate
    # zero, ends as an internal error, not a search without end
    ci = fallback_ci()
    assert compute_tau(ci).kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    monkeypatch.setattr(frobenius, "artinian", lambda ideal: True)
    with pytest.raises(InternalError, match="artinian and the ranks disagree"):
        compute_tau(ci)


def test_compute_tau_tests_the_coordinate_points_once(monkeypatch):
    # zero_degree tries them before its ranks; artinian, which decides
    # this tau, does not try them again
    ci = fallback_ci()
    calls, real = [], groebner.zero_at_coordinate_point
    for module in (frobenius, groebner):
        monkeypatch.setattr(module, "zero_at_coordinate_point", lambda *args: calls.append(args) or real(*args))
    assert compute_tau(ci).kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    assert len(calls) == 1


def test_compute_tau_validates_one_ideal(monkeypatch):
    # the Frobenius root's Ideal is validated at frobenius_root_principal;
    # tau, the checked forms plus the root's rows, is built without checks
    ci = fallback_ci()
    built, real = [], Ideal.__init__
    monkeypatch.setattr(Ideal, "__init__", lambda self, *args: built.append(args) or real(self, *args))
    assert compute_tau(ci).kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    assert len(built) == 1


def test_tau_of_diagonal_cubic_two_vars_p2():
    result = compute_tau(diagonal_ci(2, 3, names="xy"))
    assert result.tau == maximal_ideal(ring(2, "xy"))
    assert result.ell == 0


def test_tau_kind_matches_hilbert_function_oracle(rng):
    # S/tau's Hilbert function by dense ranks, without Groebner bases: tau is
    # generated in degrees <= D, so an Artinian S/tau vanishes from degree
    # B = (n+1)(D-1)+1 on (over the algebraic closure the degree-D piece
    # holds a regular sequence of n+1 forms, and Hilbert functions do not
    # change under field extension), while a positive-dimensional one never does
    seen = set()
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 3)
        r = ring(p, "xyz"[:nv])
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(2, 3)) for _ in range(rng.randint(1, 2))
        )
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        result = compute_tau(ci)
        gens = result.tau.generators
        top = nv * (max(g.degree() for g in gens) - 1) + 1
        dims = [oracle_quotient_dim(gens, s, r) for s in range(top + 1)]
        assert (result.kind is TauClass.EVERYWHERE_F_PURE) == (dims[0] == 0), ci.forms
        positive = result.kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
        assert positive == (dims[top] != 0), ci.forms
        if result.kind is TauClass.ISOLATED_NON_F_PURE_POINT:
            assert result.ell == max(s for s, dim in enumerate(dims) if dim), ci.forms
        else:
            assert result.ell is None
        seen.add(result.kind)
    assert seen == set(TauClass)


def test_tau_result_is_unhashable():
    with pytest.raises(TypeError):
        hash(compute_tau(squares_ci(3)))


def test_tau_minimality_probe():
    # dropping any root generator either leaves tau unchanged or breaks the
    # bracket containment that defines it
    for ci in (squares_ci(3), diagonal_ci(2, 3, names="xy"), diagonal_ci(5, 3)):
        p = ci.ring.p
        fpow = ci.f ** (p - 1)
        root = frobenius_root_principal(fpow)
        tau = Ideal(ci.ring, ci.forms + root.generators)
        for i in range(len(root.generators)):
            kept = root.generators[:i] + root.generators[i + 1 :]
            smaller = Ideal(ci.ring, ci.forms + kept)
            if smaller == tau:
                continue
            assert not bracket_power(smaller, p).contains(fpow)


# ---------------------------------------------------------------------------
# F-purity at m


def test_fedder_examples():
    assert fedder_test_at_m(hypersurface(5, "x*y", names="xy"))
    assert not fedder_test_at_m(squares_ci(3))
    # diagonal cubic in three variables: the p = 7 multinomial coefficient
    # 6!/(2!2!2!) = 90 = 6 mod 7 survives, the p = 5 expansion has no
    # monomial with all exponents below 5
    assert fedder_test_at_m(diagonal_ci(7, 3))
    assert not fedder_test_at_m(diagonal_ci(5, 3))


def test_fedder_agrees_with_tau_being_unit():
    family = [
        squares_ci(3),
        squares_ci(5),
        hypersurface(5, "x*y", names="xy"),
        diagonal_ci(5, 3),
        diagonal_ci(7, 3),
        diagonal_ci(2, 3, names="xy"),
    ]
    for ci in family:
        assert fedder_test_at_m(ci) == (compute_tau(ci).kind is TauClass.EVERYWHERE_F_PURE)
        # the exponent test against the Groebner membership test in m^[p]
        assert fedder_test_at_m(ci) == (not m_bracket(ci.ring, ci.ring.p).contains(ci.fpow))


def test_tau_vanishes_exactly_at_the_non_f_pure_points(rng):
    # Fedder's criterion point by point: at every F_p-rational point P of
    # V(forms), f^(p-1) moved to P lies in the bracket power of P's maximal
    # ideal exactly when every generator of tau vanishes at P.  Sparse draws
    # are singular along whole lines often enough to give both answers; the
    # draws take about a second, and the budget fails a run far slower
    deadline = time.perf_counter() + 60
    seen = {True: 0, False: 0}
    while min(seen.values()) < 150:
        assert time.perf_counter() < deadline, seen
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 3)
        r = ring(p, "xyz"[:nv])
        forms = tuple(
            random_homogeneous(rng, r, rng.randint(2, 4 if p < 5 else 3), rng.choice((0.2, 0.6)))
            for _ in range(rng.randint(1, nv - 1))
        )
        try:
            ci = CompleteIntersection(r, forms)
        except RegularSequenceError:
            continue
        tau = compute_tau(ci).tau.generators
        for point in projective_points(r):
            if any(evaluate(g, point) for g in forms):
                continue
            bad = non_f_pure_at(ci, point)
            assert bad == all(evaluate(g, point) == 0 for g in tau), (forms, point)
            seen[bad] += 1


def test_classification_three_ways():
    def classify(ci):
        return compute_tau(ci).kind

    assert classify(diagonal_ci(7, 3)) is TauClass.EVERYWHERE_F_PURE
    assert classify(squares_ci(3)) is TauClass.ISOLATED_NON_F_PURE_POINT
    flat = hypersurface(3, "x^2*y^2", names="xy")
    assert classify(flat) is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    result = compute_tau(flat)
    assert result.tau == Ideal(flat.ring, (poly("x*y", flat.ring),))
    assert result.ell is None
