import itertools

from collections import Counter

import pytest

from oracles import (
    grevlex_key,
    leading_coefficient,
    maximal_ideal,
    mono_lcm,
    mono_quotient,
    oracle_colon_piece_dim,
    oracle_membership,
    random_homogeneous,
    random_ideal_gens,
    ideal_piece_matrix,
    degree_index,
    evaluate,
    rank,
    monomial,
)

from fsing import groebner
from fsing.errors import RegularSequenceError, RingMismatch
from fsing.frobenius import CompleteIntersection, bracket_power, compute_tau
from fsing.groebner import (
    Ideal,
    _block_desc,
    artinian,
    normal_form,
    zero_at_coordinate_point,
)
from fsing.ring import (
    Polynomial,
    RingDescriptor,
    grevlex_desc,
    mono_divides,
    monomials_of_degree,
    parse_polynomial,
)

R3 = RingDescriptor(3, ("x", "y", "z"))
R5_2 = RingDescriptor(5, ("x", "y"))


def P(text, ring=R3):
    return parse_polynomial(text, ring)


def ideal(ring, *texts):
    return Ideal(ring, tuple(parse_polynomial(t, ring) for t in texts))


def m_power(ring, k):
    return Ideal(
        ring, tuple(monomial(ring, m) for m in monomials_of_degree(ring, k))
    )


def assert_reduced_basis(I: Ideal):
    leads = I.leading_monomials()
    keys = [grevlex_desc(l) for l in leads]
    assert keys == sorted(keys)
    for i, g in enumerate(I.groebner()):
        assert leading_coefficient(g) == 1
        others = [l for j, l in enumerate(leads) if j != i]
        for m in g.terms:
            assert not any(mono_divides(l, m) for l in others)


def assert_buchberger_criterion(I: Ideal):
    ring = I.ring
    els = I.groebner()
    for i in range(len(els)):
        for j in range(i + 1, len(els)):
            li = els[i].leading_monomial()
            lj = els[j].leading_monomial()
            lcm = mono_lcm(li, lj)
            s = els[i] * monomial(ring, mono_quotient(lcm, li)) - els[
                j
            ] * monomial(ring, mono_quotient(lcm, lj))
            assert not normal_form(s, I)


# ---------------------------------------------------------------------------
# basis computation


def test_monomial_ideal_is_its_own_basis():
    I = ideal(R3, "x^2", "x*y", "y^2")
    assert [str(g) for g in I.groebner()] == ["x^2", "x*y", "y^2"]
    assert_reduced_basis(I)


def test_linear_forms_reduce_to_variables():
    I = Ideal(R5_2, (P("x + y", R5_2), P("x - y", R5_2)))
    assert [str(g) for g in I.groebner()] == ["x", "y"]


def test_singular_locus_of_squares_quartic_is_positive_dimensional():
    f = P("x^2*y^2 + y^2*z^2 + x^2*z^2")
    gens = [f] + [f.partial_derivative(i) for i in range(3)]
    I = Ideal(R3, tuple(gens))
    assert not I.is_zero_dimensional()


def test_basis_cached_and_idempotent():
    I = ideal(R3, "x^2 + y*z", "y^2")
    gb = I.groebner()
    assert I.groebner() is gb
    again = Ideal(R3, gb)
    assert again.groebner() == gb


def test_degenerate_bases():
    assert len(Ideal.zero(R3).groebner()) == 0
    unit = Ideal(R3, (Polynomial.constant(R3, 2),))
    assert [str(g) for g in unit.groebner()] == ["1"]
    assert unit.is_unit()
    assert not Ideal.zero(R3).is_unit()
    assert Ideal.zero(R3).is_zero()


def test_basis_is_a_tuple_of_monic_polynomials_with_descending_leads(rng):
    for p in (2, 3, 5):
        ring = RingDescriptor(p, ("x", "y", "z"))
        for _ in range(4):
            gb = Ideal(ring, random_ideal_gens(rng, ring, 3, 4)).groebner()
            assert isinstance(gb, tuple)
            assert all(isinstance(g, Polynomial) and leading_coefficient(g) == 1 for g in gb)
            keys = [grevlex_desc(g.leading_monomial()) for g in gb]
            assert all(a < b for a, b in zip(keys, keys[1:]))


def test_bracket_power_basis_is_the_powers_of_the_basis(rng):
    # Frobenius is flat, so Buchberger's own basis of I^[q] is the q-th
    # powers of the reduced basis of I
    I = Ideal(R3, random_ideal_gens(rng, R3, 3, 3))
    power = bracket_power(I, 9)
    assert power.groebner() == tuple(g.frobenius_power(9) for g in I.groebner())
    assert all(power.contains(g**9) for g in I.generators)
    assert not power.contains(P("x*y*z"))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_buchberger_criterion_on_random_ideals(rng, p):
    for nv in (2, 3):
        ring = RingDescriptor(p, tuple("xyz"[:nv]))
        for _ in range(6):
            I = Ideal(ring, random_ideal_gens(rng, ring, 3, 4))
            assert_buchberger_criterion(I)
            assert_reduced_basis(I)


def sympy_reduced_basis(sympy, gens, ring):
    """sympy's reduced grevlex basis mod p, made monic, as term dicts."""
    p = ring.p
    symbols = sympy.symbols(ring.variables)
    # from_dict converts the dict's coefficients in place, so it gets a copy
    polys = [sympy.Poly.from_dict(dict(g.terms), *symbols, modulus=p) for g in gens]
    out = []
    for g in sympy.groebner(polys, *symbols, modulus=p, order="grevlex").polys:
        terms = {m: int(c) % p for m, c in g.terms() if int(c) % p}
        inv = pow(terms[min(terms, key=grevlex_desc)], -1, p)
        out.append({m: c * inv % p for m, c in terms.items()})
    return sorted(out, key=lambda t: grevlex_desc(min(t, key=grevlex_desc)))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_reduced_basis_matches_sympy(rng, p):
    sympy = pytest.importorskip("sympy")
    for nv in (2, 3, 4):
        ring = RingDescriptor(p, tuple("xyzw"[:nv]))
        for _ in range(4):
            gens = random_ideal_gens(rng, ring, 3, 3)
            ours = [g.terms for g in Ideal(ring, gens).groebner()]
            assert ours == sympy_reduced_basis(sympy, gens, ring)
        # tau of generated complete intersections: the forms plus the
        # Frobenius root of f^(p-1)
        checked = 0
        while checked < 3:
            forms = tuple(
                random_homogeneous(rng, ring, rng.randint(2, 3))
                for _ in range(rng.randint(1, 2))
            )
            try:
                ci = CompleteIntersection(ring, forms)
            except RegularSequenceError:
                continue
            tau = compute_tau(ci).tau
            ours = [g.terms for g in tau.groebner()]
            assert ours == sympy_reduced_basis(sympy, tau.generators, ring)
            checked += 1
    # ideals generated by monomials, with repeats and non-unit coefficients;
    # drawn last, so the ideals above are the same draws as before
    for nv in (2, 3, 4):
        ring = RingDescriptor(p, tuple("xyzw"[:nv]))
        for _ in range(4):
            gens = [
                monomial(
                    ring,
                    rng.choice(monomials_of_degree(ring, rng.randint(1, 4))),
                    rng.randrange(1, p),
                )
                for _ in range(rng.randint(1, 6))
            ]
            ours = [g.terms for g in Ideal(ring, gens).groebner()]
            assert ours == sympy_reduced_basis(sympy, gens, ring)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_redundant_and_permuted_inputs(rng, monkeypatch, p):
    # Buchberger reduces each input when its turn comes, so duplicates,
    # multiples and reorderings of the generators must leave the reduced
    # basis, and every intersection with the ideal, unchanged
    sympy = pytest.importorskip("sympy")
    targets = []
    plain_normal_form = groebner._normal_form_dict
    monkeypatch.setattr(
        groebner, "_normal_form_dict",
        lambda target, *rest: targets.append(target) or plain_normal_form(target, *rest),
    )
    for nv in (2, 3):
        ring = RingDescriptor(p, tuple("xyz"[:nv]))

        def shift():
            return monomial(ring, rng.choice(monomials_of_degree(ring, rng.randint(1, 2))))

        for _ in range(3):
            gens = random_ideal_gens(rng, ring, 3, 3, min_gens=2)
            basis = Ideal(ring, gens).groebner()
            other = Ideal(ring, random_ideal_gens(rng, ring, 2, 2))
            meet = Ideal(ring, gens).intersection(other)
            shuffled = list(gens)
            rng.shuffle(shuffled)
            variants = [
                gens + gens,
                gens + tuple(g * Polynomial.constant(ring, rng.randrange(1, p)) for g in gens),
                gens + tuple(g * shift() for g in gens),
                tuple(g * shift() for g in gens) + gens,
                gens[::-1],
                tuple(shuffled),
            ]
            for variant in variants:
                ours = Ideal(ring, variant).groebner()
                assert ours == basis, variant
                assert [g.terms for g in ours] == sympy_reduced_basis(sympy, variant, ring)
                assert Ideal(ring, variant).intersection(other) == meet, variant
                assert other.intersection(Ideal(ring, variant)) == meet, variant
            # every input after the first reduces to zero, so no pair is
            # made: Buchberger reduces the inputs and no S-polynomial, and
            # the last reduction tail-reduces the one basis element
            first = gens[0]
            multiples = (first,) + tuple(first * shift() for _ in range(4)) + (first,)
            targets.clear()
            ours = Ideal(ring, multiples).groebner()
            assert len(targets) == len(multiples) + 1
            assert (sorted(sorted(t.items()) for t in targets[:-1])
                    == sorted(sorted(g.terms.items()) for g in multiples))
            assert [g.terms for g in ours] == sympy_reduced_basis(sympy, (first,), ring)
            assert Ideal(ring, multiples).intersection(other) == Ideal(ring, (first,)).intersection(other)


def block_key(e):
    # the elimination block order's ascending key, as a reference
    return (e[0], grevlex_key(e[1:]))


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_descending_keys_reverse_the_ascending_keys(nvars):
    monos = [m for m in itertools.product(range(5), repeat=nvars) if sum(m) <= 4]
    assert sorted(monos, key=grevlex_desc) == sorted(monos, key=grevlex_key, reverse=True)
    assert sorted(monos, key=_block_desc) == sorted(monos, key=block_key, reverse=True)


# ---------------------------------------------------------------------------
# normal form and membership


def test_membership_examples():
    bracket = ideal(R3, "x^3", "y^3", "z^3")
    assert bracket.contains(P("x^3"))
    assert not bracket.contains(P("(x*y*z)^2"))
    f = P("x^2*y^2 + y^2*z^2 + x^2*z^2")
    assert bracket.contains(f**2)


def test_normal_form_properties(rng):
    ring = R3
    I = ideal(ring, "x^2 + y*z", "y^3")
    for _ in range(10):
        g = random_homogeneous(rng, ring, rng.randint(1, 5))
        r = normal_form(g, I)
        assert normal_form(r, I) == r
        assert I.contains(g - r)
        assert I.contains(g) == (not r)


def test_membership_matches_oracle(rng):
    for _ in range(15):
        p = rng.choice((2, 3, 5))
        nv = rng.choice((2, 3))
        ring = RingDescriptor(p, tuple("xyz"[:nv]))
        gens = random_ideal_gens(rng, ring, 3, 4)
        I = Ideal(ring, gens)
        g = random_homogeneous(rng, ring, rng.randint(1, 5))
        assert I.contains(g) == oracle_membership(g, gens, ring)


def test_normal_form_ring_mismatch():
    with pytest.raises(RingMismatch):
        normal_form(P("x", R5_2), ideal(R3, "x"))


# ---------------------------------------------------------------------------
# equality


def test_equality_examples():
    assert ideal(R3, "x", "y") == ideal(R3, "x + y", "y")
    assert ideal(R3, "x") != ideal(R3, "y")
    assert (ideal(R3, "x") == 5) is False


def test_ideals_are_unhashable():
    with pytest.raises(TypeError):
        hash(ideal(R3, "x"))


def test_generator_validation():
    with pytest.raises(ValueError):
        ideal(R3, "x + x^2")  # not homogeneous
    with pytest.raises(RingMismatch):
        Ideal(R3, (P("x", R5_2),))
    # zero generators are dropped
    assert Ideal(R3, (Polynomial.zero(R3), P("x"))).generators == (P("x"),)


# ---------------------------------------------------------------------------
# intersection


def test_intersection_examples():
    assert ideal(R3, "x").intersection(ideal(R3, "y")) == ideal(R3, "x*y")
    assert ideal(R3, "x^2").intersection(ideal(R3, "x")) == ideal(R3, "x^2")
    lhs = ideal(R5_2, "x^2", "y").intersection(ideal(R5_2, "x", "y^2"))
    assert lhs == ideal(R5_2, "x^2", "x*y", "y^2")


def test_intersection_with_zero():
    assert ideal(R3, "x").intersection(Ideal.zero(R3)).is_zero()


def test_intersection_properties(rng):
    for _ in range(8):
        p = rng.choice((2, 3, 5))
        ring = RingDescriptor(p, ("x", "y"))
        I = Ideal(ring, random_ideal_gens(rng, ring, 2, 3))
        J = Ideal(ring, random_ideal_gens(rng, ring, 2, 3))
        meet = I.intersection(J)
        assert meet == J.intersection(I)
        assert all(I.contains(g) and J.contains(g) for g in meet.generators)
        assert all(meet.contains(a * b) for a in I.generators for b in J.generators)


def test_elimination_survives_variable_named_t():
    ring = RingDescriptor(5, ("t", "x"))
    lhs = Ideal(ring, (parse_polynomial("t + x", ring),))
    rhs = Ideal(ring, (parse_polynomial("x", ring),))
    assert lhs.intersection(rhs) == Ideal(
        ring, (parse_polynomial("t*x + x^2", ring),)
    )


# ---------------------------------------------------------------------------
# colon


def test_colon_examples():
    assert ideal(R5_2, "x^3", "y^3").colon(ideal(R5_2, "x^2", "y^2")) == ideal(
        R5_2, "x^3", "y^3", "x*y"
    )
    assert ideal(R3, "x^3", "y^3", "z^3").colon(maximal_ideal(R3)) == ideal(
        R3, "x^3", "y^3", "z^3", "(x*y*z)^2"
    )


def test_colon_by_unit_is_identity(rng):
    one = Ideal(R3, (Polynomial.constant(R3, 1),))
    for _ in range(5):
        I = Ideal(R3, random_ideal_gens(rng, R3, 3, 4))
        assert I.colon(one) == I


def test_colon_by_zero_raises():
    with pytest.raises(ValueError):
        ideal(R3, "x").colon(Ideal.zero(R3))


def test_colon_correctness_random(rng):
    for _ in range(8):
        p = rng.choice((2, 3, 5))
        nv = rng.choice((2, 3))
        ring = RingDescriptor(p, tuple("xyz"[:nv]))
        igens = random_ideal_gens(rng, ring, 3, 4)
        jgens = random_ideal_gens(rng, ring, 2, 3)
        I, J = Ideal(ring, igens), Ideal(ring, jgens)
        C = I.colon(J)
        # everything returned multiplies J into I
        for g in C.groebner():
            for h in jgens:
                assert I.contains(g * h)
        # and nothing of the true colon is missed, degree by degree
        cg = C.groebner()
        for s in range(9):
            dim_true = oracle_colon_piece_dim(igens, jgens, s, ring)
            basis, _ = degree_index(ring, s)
            if C.is_unit():
                dim_found = len(basis)
            elif cg:
                dim_found = rank(ideal_piece_matrix(cg, s, ring), p)
            else:
                dim_found = 0
            assert dim_found == dim_true


# ---------------------------------------------------------------------------
# dimension zero and standard monomials


def test_is_zero_dimensional_examples():
    assert ideal(R3, "x^3", "y^3", "z^3").is_zero_dimensional()
    assert not ideal(R3, "x^2*y^2 + y^2*z^2 + x^2*z^2").is_zero_dimensional()
    with pytest.raises(ValueError):
        Ideal(R3, (Polynomial.constant(R3, 1),)).is_zero_dimensional()


def test_zero_dimensional_needs_every_variable():
    assert not ideal(R3, "x^2", "y^2").is_zero_dimensional()
    # mixed leads: a pure power can be hidden behind a reduction
    I = ideal(R5_2, "x^2 + y^2", "x*y")
    assert I.is_zero_dimensional()


def test_artinian_and_coordinate_zeros_match_the_basis(rng):
    # artinian against the complete reduced basis, zero_at_coordinate_point
    # against evaluation at each e_i, on seeded homogeneous ideals of four
    # kinds: the unit ideal (a constant generator), forms that all vanish at
    # some e_i, forms that hold every x_i^deg between them yet cut out more
    # than the origin, and Artinian ones; a no keeps the completed basis
    seen = Counter()
    while len(seen) < 4 or min(seen.values()) < 40:
        p = rng.choice((2, 3, 5, 7))
        nv = rng.randint(2, 4)
        r = RingDescriptor(p, tuple("xyzw"[:nv]))
        gens = list(random_ideal_gens(rng, r, nv + 1, 3 if nv < 4 else 2))
        if rng.random() < 0.5:
            d = gens[0].degree()
            powers = {tuple(d * (j == i) for j in range(nv)): rng.randrange(1, p) for i in range(nv)}
            gens[0] = Polynomial(r, gens[0].terms | powers)
        if rng.random() < 0.1:
            gens.append(Polynomial.constant(r, rng.randrange(1, p)))
        I = Ideal(r, tuple(gens))
        terms = [g.terms for g in I.generators]
        axes = [tuple(int(j == i) for j in range(nv)) for i in range(nv)]
        on_axis = any(not any(evaluate(g, e) for g in I.generators) for e in axes)
        assert zero_at_coordinate_point(terms, nv) == on_axis, gens
        unit = I.is_unit()
        expected = unit or I.is_zero_dimensional()
        fresh = Ideal(r, tuple(gens))
        assert artinian(fresh) == expected, gens
        if not expected:
            assert fresh._gb == I.groebner(), gens
        assert not (on_axis and expected), gens
        seen["unit" if unit else "coordinate zero" if on_axis else "Artinian" if expected else "positive-dimensional"] += 1


def test_standard_monomials_examples():
    assert maximal_ideal(R3).standard_monomials() == [(0, 0, 0)]
    box = ideal(R5_2, "x^2", "y^3").standard_monomials()
    assert sorted(box) == sorted(
        [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)]
    )
    assert ideal(R5_2, "x^2", "x*y", "y^3").standard_monomials() == [
        (0, 0),
        (1, 0),
        (0, 1),
        (0, 2),
    ]


def test_standard_monomials_requires_zero_dimensional():
    with pytest.raises(ValueError):
        ideal(R3, "x").standard_monomials()


def test_standard_monomials_bound_the_ideal(rng):
    # I + m^k = I once k clears the top standard-monomial degree
    for _ in range(5):
        p = rng.choice((2, 3, 5))
        ring = RingDescriptor(p, ("x", "y"))
        gens = [
            monomial(ring, (rng.randint(1, 3), 0)),
            monomial(ring, (0, rng.randint(1, 3))),
        ]
        if rng.random() < 0.5:
            gens.append(random_homogeneous(rng, ring, rng.randint(1, 3)))
        I = Ideal(ring, tuple(gens))
        top = max(sum(m) for m in I.standard_monomials())
        assert Ideal(ring, I.generators + m_power(ring, top + 1).generators) == I
        assert Ideal(ring, I.generators + m_power(ring, top).generators) != I


def test_sorted_by_degree_then_order():
    sm = ideal(R5_2, "x^2", "y^3").standard_monomials()
    degrees = [sum(m) for m in sm]
    assert degrees == sorted(degrees)
