import itertools
import math

import pytest

from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    _exact_divide,
    evaluate_expression,
    leading_coefficient,
    mono_gcd,
    mono_lcm,
    mono_mul,
    mono_quotient,
    monomial,
    pow_binary,
    random_expression,
    random_homogeneous,
    render_expression,
    subexpressions,
)

from fsing.errors import InternalError, ParseError, ResourceLimit, RingMismatch
from fsing.ring import (
    EXPONENT_CAP,
    Polynomial,
    RingDescriptor,
    exact_quotient,
    grevlex_desc,
    is_power_of,
    is_prime,
    mono_divides,
    monomials_of_degree,
    packing,
    parse_polynomial,
)

R2 = RingDescriptor(2, ("x", "y", "z"))
R3 = RingDescriptor(3, ("x", "y", "z"))
R5 = RingDescriptor(5, ("x", "y"))
R2_5VARS = RingDescriptor(2, ("a", "b", "c", "d", "e"))


def polys(ring, max_degree=4, max_terms=6):
    monos = [
        m for s in range(max_degree + 1) for m in monomials_of_degree(ring, s)
    ]
    term = st.tuples(st.sampled_from(monos), st.integers(1, ring.p - 1))
    return st.lists(term, max_size=max_terms).map(lambda ts: Polynomial(ring, ts))


# ---------------------------------------------------------------------------
# parsing


def test_parse_squares_quartic():
    f = parse_polynomial("x^2*y^2 + y^2*z^2 + z^2*x^2", R3)
    assert len(f.terms) == 3
    assert f.degree() == 4
    assert f.is_homogeneous()
    assert f.terms.get((2, 2, 0)) == 1


def test_parse_zero():
    assert parse_polynomial("0", R3) == Polynomial.zero(R3)
    assert not parse_polynomial("0", R5)


def test_parse_coefficient_reduction():
    # 3x + x = 4x = 0 mod 2
    assert not parse_polynomial("3*x + x", R2)
    assert parse_polynomial("7*x", R5) == parse_polynomial("2*x", R5)
    assert parse_polynomial("-x", R5) == parse_polynomial("4*x", R5)


def test_parse_parentheses_and_signs():
    assert parse_polynomial("(x + y)^2", R5) == parse_polynomial(
        "x^2 + 2*x*y + y^2", R5
    )
    assert parse_polynomial("-(x - y)", R5) == parse_polynomial("y - x", R5)
    assert parse_polynomial("x - (-y)", R5) == parse_polynomial("x + y", R5)
    # a sign is only allowed at the head of an expression
    with pytest.raises(ParseError):
        parse_polynomial("x - - y", R5)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "end of input"),
        ("x +", "end of input"),
        ("2x", "missing operator"),
        ("x y", "missing operator"),
        ("w + x", "unknown variable 'w'"),
        ("x^", "expected integer exponent"),
        ("x^y", "expected integer exponent"),
        ("(x + y", "expected ')'"),
        ("x + @", "unexpected character '@'"),
        ("x^2147483648", "exponent overflow"),
        ("x^2000000000 * x^2000000000", "exponent overflow"),
        # ASCII digits only: str.isdigit takes both, int() refuses the first
        ("x^\u00b2", "unexpected character '\u00b2' at position 2"),
        ("2 + \u0663*x", "unexpected character '\u0663' at position 4"),
        pytest.param(  # past Python's digit limit for int(str)
            "x + " + "1" * 5000 + "*y", "5000-digit integer at position 4", id="5000-digit"
        ),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_polynomial(text, R3)
    assert fragment in str(err.value)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + qq", R3)
    assert err.value.position == 4


def test_parse_matches_tree_evaluation(rng):
    # random trees rendered to text against their value by Polynomial
    # arithmetic; the draws must reach each corner of the grammar
    seen = dict.fromkeys(("nested parentheses", "^0", "leading minus", "constant >= p", "constant 0 mod p"), 0)
    for p in (2, 3, 5, 7, 101):
        ring = RingDescriptor(p, ("x", "y", "z"))
        for _ in range(60):
            tree = random_expression(rng, ring)
            text = render_expression(tree)
            assert parse_polynomial(text, ring) == evaluate_expression(tree, ring), text
            nodes = list(subexpressions(tree))
            constants = [node[1] for node in nodes if node[0] == "int"]
            parens = [node for node in nodes if node[0] == "paren"]
            seen["nested parentheses"] += any(len([n for n in subexpressions(n) if n[0] == "paren"]) > 1 for n in parens)
            seen["^0"] += any(node[0] == "pow" and node[2] == 0 for node in nodes)
            seen["leading minus"] += any(node[0] == "sum" and node[1][0][0] == "-" for node in nodes)
            seen["constant >= p"] += any(c >= p for c in constants)
            seen["constant 0 mod p"] += any(c % p == 0 for c in constants)
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "text, error, message, position",
    [
        ("(x^2000000000)^2", ParseError, "exponent overflow at position 15", 15),
        ("(y*x^1073741824)^2", ParseError, "exponent overflow at position 17", 17),
        ("x^2147483648", ParseError, "exponent overflow at position 2", 2),
        # a product's degree passes the cap left to right, whatever follows
        ("x^2000000000*x^2000000000", ParseError, "exponent overflow", None),
        ("x^2000000000*x^2000000000*0", ParseError, "exponent overflow", None),
        ("x^2000000000*(y+z)*x^2000000000", ParseError, "exponent overflow", None),
        ("x*y + q", ParseError, "unknown variable 'q' at position 6", 6),
        ("(x+y+z)^400", ResourceLimit, "a product of degree 400 spans 10827401 monomials, cap 1000000", None),
        ("(x+y+z)^200*(x+y+z)^200", ResourceLimit,
         "a product of degree 200 spans 1373701 monomials, cap 1000000", None),
    ],
)
def test_parse_error_corpus(text, error, message, position):
    with pytest.raises(error) as err:
        parse_polynomial(text, R3)
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


@pytest.mark.parametrize(
    "text, value",
    [
        # a zero factor zeroes the product before any degree counts
        ("0*x^2000000000*x^2000000000", "0"),
        ("0^2147483647 + (x-x)^2147483647", "0"),
        ("2^2147483647*x", "2*x"),
        ("(x+y)^0*z", "z"),
        ("-(x+y+z)^2", "2*x^2 + x*y + 2*y^2 + x*z + y*z + 2*z^2"),
    ],
)
def test_parse_corner_values(text, value):
    assert str(parse_polynomial(text, R3)) == value


# ---------------------------------------------------------------------------
# printing


@pytest.mark.parametrize(
    "text, canonical",
    [
        ("y + x", "x + y"),
        ("x*x", "x^2"),
        ("2*3", "1"),  # over p=5
        ("y^2*x^2 + z^2*y^2 + x^2*z^2", None),  # canonical below
        ("0 + 0", "0"),
    ],
)
def test_print_canonicalizes(text, canonical):
    ring = R5 if text == "2*3" else R3
    if canonical is None:
        canonical = "x^2*y^2 + x^2*z^2 + y^2*z^2"
    assert str(parse_polynomial(text, ring)) == canonical


def test_print_coefficients_and_constants():
    assert str(parse_polynomial("2*x + 1", R3)) == "2*x + 1"
    assert str(Polynomial.constant(R3, 1)) == "1"
    assert str(Polynomial.zero(R3)) == "0"


@given(polys(R3))
def test_print_parse_roundtrip_p3(f):
    assert parse_polynomial(str(f), R3) == f


@given(polys(R5, max_degree=6))
def test_print_parse_roundtrip_p5(f):
    assert parse_polynomial(str(f), R5) == f


# ---------------------------------------------------------------------------
# arithmetic


def test_freshman_dream():
    x_plus_y = parse_polynomial("x + y", R2)
    assert x_plus_y**2 == parse_polynomial("x^2 + y^2", R2)


def test_square_of_squares_quartic():
    f = parse_polynomial("x^2*y^2 + y^2*z^2 + z^2*x^2", R3)
    expected = parse_polynomial(
        "x^4*y^4 + y^4*z^4 + x^4*z^4 + 2*x^2*y^4*z^2 + 2*x^4*y^2*z^2 + 2*x^2*y^2*z^4",
        R3,
    )
    assert f * f == expected
    assert f**2 == expected


@given(polys(R3))
def test_multiplication_absorbs_zero(a):
    assert a * Polynomial.zero(R3) == Polynomial.zero(R3)
    assert Polynomial.zero(R3) * a == Polynomial.zero(R3)


@pytest.mark.parametrize("ring", [R2_5VARS, R3, R5], ids=["p2_5vars", "p3", "p5"])
@given(data=st.data())
def test_ring_axioms(ring, data):
    degree = 6 if ring is R5 else 4
    a = data.draw(polys(ring, max_degree=degree))
    b = data.draw(polys(ring, max_degree=degree))
    c = data.draw(polys(ring, max_degree=degree))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a + (-a) == Polynomial.zero(ring)
    assert a - b == a + (-b)


@pytest.mark.parametrize("ring", [R2, R3, R5], ids=["p2", "p3", "p5"])
@given(data=st.data())
def test_frobenius_pow_matches_generic(ring, data):
    a = data.draw(polys(ring, max_degree=3, max_terms=4))
    p = ring.p
    generic = Polynomial.constant(ring, 1)
    for _ in range(p):
        generic = generic * a
    assert a**p == generic
    assert a ** (p * p) == (a**p) ** p


def test_pow_edge_cases():
    f = parse_polynomial("x + y", R3)
    assert f**0 == Polynomial.constant(R3, 1)
    assert f**1 == f
    with pytest.raises(ValueError):
        f ** (-1)
    assert Polynomial.zero(R3) ** 0 == Polynomial.constant(R3, 1)


def test_pow_matches_binary_powering(rng):
    # multi-term and single-term forms, mixed degrees, constants and zero,
    # against exponents 1 and ones divisible by p and by p^2
    for r in (R2, R3, R5, RingDescriptor(7, ("x", "y", "z", "w"))):
        p = r.p
        bases = [Polynomial.zero(r), Polynomial.constant(r, 1), Polynomial.constant(r, p - 1)]
        bases.append(monomial(r, (2,) + (1,) * (r.nvars - 1), p - 1))
        bases += [random_homogeneous(rng, r, rng.randint(1, 3)) for _ in range(3)]
        bases += [random_homogeneous(rng, r, 1) + random_homogeneous(rng, r, 2)]
        exponents = {1, 2, 3, p - 1, p, p + 1, 2 * p, p * p, (p - 1) * p * p}
        for f in bases:
            for e in sorted(exponents):
                if e * (f.degree() or 0) <= 60:
                    assert f**e == pow_binary(f, e), (f, e)


def test_pow_overflow_boundary():
    # degree * e == EXPONENT_CAP passes, one more raises, for single-term
    # and multi-term bases; EXPONENT_CAP = 2^31 - 1 is prime, so the
    # multi-term case at p = EXPONENT_CAP is one Frobenius power
    x = Polynomial.variable(R3, 0)
    assert x**EXPONENT_CAP == monomial(R3, (EXPONENT_CAP, 0, 0))
    with pytest.raises(OverflowError):
        (x * x) ** ((EXPONENT_CAP + 1) // 2)
    big = RingDescriptor(EXPONENT_CAP, ("x", "y"))
    f = parse_polynomial("x + 2*y", big)
    assert f**EXPONENT_CAP == parse_polynomial(f"x^{EXPONENT_CAP} + 2*y^{EXPONENT_CAP}", big)
    with pytest.raises(OverflowError):
        f ** (EXPONENT_CAP + 1)
    g = parse_polynomial("x^2 + y^2", R3)
    with pytest.raises(OverflowError):
        g ** ((EXPONENT_CAP + 1) // 2)
    # the parser maps the error to a ParseError (exit 2 from the CLI)
    with pytest.raises(ParseError, match="exponent overflow"):
        parse_polynomial(f"(x^2)^{(EXPONENT_CAP + 1) // 2}", R3)


@given(st.data())
def test_packed_sums_are_vector_sums(data):
    nvars = data.draw(st.integers(1, 5))
    top = data.draw(st.integers(0, 2**33))
    q = data.draw(st.integers(0, 2**33))
    pack, unpack, _, _ = packing(nvars, top, q)
    a = data.draw(st.lists(st.integers(0, top), min_size=nvars, max_size=nvars))
    b = [data.draw(st.integers(0, top - e)) for e in a]
    total = tuple(map(sum, zip(a, b)))
    assert pack(a) + pack(b) == pack(total)
    assert unpack(pack(a) + pack(b)) == total


@pytest.mark.parametrize("top", [0, 1, 4, 9])
def test_packed_guard_is_every_exponent_below_q(top):
    # every vector with entries at most top, against q = 1, q = top, q just
    # above top and q well above it
    for q in sorted({1, 2, max(top, 1), top + 1, 2 * top + 7}):
        pack, _, offset, guard = packing(3, top, q)
        for m in itertools.product(range(top + 1), repeat=3):
            assert (not (pack(m) + offset) & guard) == (max(m) < q), (m, top, q)


@given(st.data())
def test_packed_guard_on_wide_fields(data):
    nvars = data.draw(st.integers(1, 5))
    top = data.draw(st.integers(0, 2**33))
    q = data.draw(st.integers(1, 2**34))
    pack, _, offset, guard = packing(nvars, top, q)
    m = data.draw(st.lists(st.integers(0, top), min_size=nvars, max_size=nvars))
    assert (not (pack(m) + offset) & guard) == (max(m) < q)


@pytest.mark.parametrize("top", [127, 128, 32767, 32768, 2**31 - 1])
def test_packing_round_trip_at_field_boundaries(top, rng):
    # each top sits at the edge of an 8, 16 or 32-bit field; entries at most
    # top leave every guard bit clear, and the guard reads "below q" at q = top
    # and q = top + 1
    for nvars in (1, 2, 3, 4):
        pack, unpack, _, guard = packing(nvars, top)
        vectors = [(0,) * nvars, (top,) * nvars]
        vectors += [tuple(rng.randint(0, top) for _ in range(nvars)) for _ in range(30)]
        for q in (top, top + 1):
            qpack, _, offset, qguard = packing(nvars, top, q)
            for m in vectors + [(q - 1,) * nvars]:
                assert (not (qpack(m) + offset) & qguard) == (max(m) < q), (m, q)
        for a in vectors:
            assert not pack(a) & guard
            assert unpack(pack(a)) == a
            b = tuple(rng.randint(0, top - e) for e in a)
            total = tuple(map(sum, zip(a, b)))
            assert pack(a) + pack(b) == pack(total)
            assert unpack(pack(a) + pack(b)) == total
        # packed ints compare as lex with the last variable most significant
        assert sorted(vectors, key=pack) == sorted(vectors, key=lambda m: m[::-1])


def _division_forms(rng, ring):
    # sparse and dense forms of small degree, and a binomial
    forms = [random_homogeneous(rng, ring, rng.randint(1, 3), density) for density in (0.3, 1.0)]
    if ring.nvars > 1:
        forms.append(parse_polynomial(f"x^2 + {ring.p - 1}*{ring.variables[-1]}^2", ring))
    return forms


def test_exact_quotient_is_the_power_and_the_tuple_division(rng):
    # f^(p-1) three ways: f^p / f on packed keys, Polynomial.__pow__, and
    # grevlex division on tuples; and a product of two forms divides back
    checked = 0
    for p in (2, 3, 5, 7, 11, 13, 101):
        for nvars in (1, 2, 3, 4):
            ring = RingDescriptor(p, ("x", "y", "z", "w")[:nvars])
            forms = _division_forms(rng, ring)
            for f in forms:
                # f^(p-1) has at most the monomials of its degree, and at most
                # the compositions of p - 1 into one part per term of f
                dense = math.comb(f.degree() * (p - 1) + nvars - 1, nvars - 1)
                if min(dense, math.comb(p - 2 + len(f.terms), len(f.terms) - 1)) <= 800:
                    fp = f.frobenius_power(p)
                    assert exact_quotient(fp, f) == f ** (p - 1) == _exact_divide(fp, f), (f, p)
                    checked += 1
            for g, h in itertools.combinations(forms, 2):
                assert exact_quotient(g * h, h) == g == _exact_divide(g * h, h)
                assert exact_quotient(g * h, g) == h
    assert checked >= 60


def test_exact_quotient_refuses_a_remainder(rng):
    # a monomial that the lead of g does not divide, alone or added to a
    # multiple of g; y / x leaves a field below 0 that borrows into a guard
    # bit, x / y one that makes the key negative
    x, y = Polynomial.variable(R3, 0), Polynomial.variable(R3, 1)
    for h, g in ((x, y), (y, x), (y * y, x * y + x * x), (x * x * y, x * x * y + y * y * y)):
        with pytest.raises(InternalError):
            exact_quotient(h, g)
    for p in (2, 3, 5, 101):
        ring = RingDescriptor(p, ("x", "y", "z"))
        for _ in range(20):
            g, h = (random_homogeneous(rng, ring, rng.randint(1, 3)) for _ in range(2))
            m = monomial(ring, rng.choice(monomials_of_degree(ring, g.degree() + h.degree())))
            if len(h.terms) > 1:  # then h divides no monomial
                with pytest.raises(InternalError):
                    exact_quotient(g * h + m, h)


def test_integer_coercion():
    # arithmetic takes polynomials of one ring only; scalars are
    # Polynomial.constant
    x = Polynomial.variable(R5, 0)
    for combine in (lambda: 1 + x, lambda: x - 1, lambda: 2 * x):
        with pytest.raises(TypeError):
            combine()
    assert Polynomial.constant(R5, 3) * x == parse_polynomial("3*x", R5)
    assert x != "x"


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Polynomial.variable(R3, 0) + Polynomial.variable(R5, 0)
    with pytest.raises(RingMismatch):
        Polynomial.variable(R3, 0) * Polynomial.variable(R2, 0)


def test_exponent_cap_on_frobenius_power():
    big = monomial(R2, (2**30, 0, 0))
    with pytest.raises(OverflowError):
        big.frobenius_power(4)
    with pytest.raises(OverflowError):
        big * big


# ---------------------------------------------------------------------------
# derivatives


def test_partial_derivative_examples():
    assert parse_polynomial("x^2*y^2", R3).partial_derivative(0) == parse_polynomial(
        "2*x*y^2", R3
    )
    assert not parse_polynomial("x^3", R3).partial_derivative(0)
    f = parse_polynomial("x^2*y^2 + y^2*z^2 + z^2*x^2", R3)
    assert f.partial_derivative(1) == parse_polynomial("2*x^2*y + 2*y*z^2", R3)


def test_partial_derivative_index_range():
    with pytest.raises(ValueError):
        parse_polynomial("x", R3).partial_derivative(3)
    with pytest.raises(ValueError):
        parse_polynomial("x", R3).partial_derivative(-1)


@pytest.mark.parametrize("ring", [R2, R3, R5], ids=["p2", "p3", "p5"])
@given(data=st.data())
def test_derivative_linear_and_leibniz(ring, data):
    a = data.draw(polys(ring))
    b = data.draw(polys(ring))
    for i in range(ring.nvars):
        assert (a + b).partial_derivative(i) == a.partial_derivative(
            i
        ) + b.partial_derivative(i)
        assert (a * b).partial_derivative(i) == a.partial_derivative(
            i
        ) * b + a * b.partial_derivative(i)


# ---------------------------------------------------------------------------
# monomial enumeration and order


def test_monomials_of_degree_examples():
    assert monomials_of_degree(R3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert len(monomials_of_degree(R3, 4)) == 15
    assert monomials_of_degree(R5, 0) == [(0, 0)]
    assert monomials_of_degree(R3, -1) == []


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_monomials_of_degree_counts(nvars):
    ring = RingDescriptor(2, tuple(f"v{i}" for i in range(nvars)))
    for s in range(11):
        expected = math.comb(s + nvars - 1, nvars - 1)
        assert len(monomials_of_degree(ring, s)) == expected


def test_monomials_of_degree_below():
    # against the compositions enumerated by brute force and sorted
    for nvars in (1, 2, 3, 4):
        ring = RingDescriptor(2, tuple(f"v{i}" for i in range(nvars)))
        for s in range(9):
            every = sorted(
                (m for m in itertools.product(range(s + 1), repeat=nvars) if sum(m) == s),
                key=grevlex_desc,
            )
            assert monomials_of_degree(ring, s) == every
            for below in range(5):
                expected = [m for m in every if max(m) < below]
                assert monomials_of_degree(ring, s, below=below) == expected


def test_monomials_sorted_descending():
    for s in (2, 3, 5):
        monos = monomials_of_degree(R3, s)
        keys = [grevlex_desc(m) for m in monos]
        assert keys == sorted(keys)
        assert len(set(monos)) == len(monos)


def test_grevlex_basics():
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    # the larger monomial has the smaller key
    assert grevlex_desc(x) < grevlex_desc(y) < grevlex_desc(z)
    # degree dominates
    assert grevlex_desc((0, 0, 2)) < grevlex_desc((1, 0, 0))


@given(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)),
)
def test_grevlex_multiplicative(a, b, c):
    if grevlex_desc(a) < grevlex_desc(b):
        assert grevlex_desc(mono_mul(a, c)) < grevlex_desc(mono_mul(b, c))


def test_mono_helpers():
    a, b = (2, 1, 0), (1, 3, 0)
    assert mono_mul(a, b) == (3, 4, 0)
    assert mono_gcd(a, b) == (1, 1, 0)
    assert mono_lcm(a, b) == (2, 3, 0)
    assert mono_quotient(b, (1, 1, 0)) == (0, 2, 0)
    assert mono_divides((1, 0, 0), a)
    assert not mono_divides(a, b)


# ---------------------------------------------------------------------------
# field and descriptor validation


@pytest.mark.parametrize("p", [0, 1, 4, 9, 15, -3])
def test_composite_characteristic_rejected(p):
    with pytest.raises(ValueError):
        RingDescriptor(p, ("x",))


def test_characteristic_is_capped_before_the_primality_test():
    # trial division up to sqrt(2^61 - 1) would run for hours; 2^31 - 1, the
    # largest accepted prime, takes about 46,000 divisions
    with pytest.raises(ValueError, match="exceeds the cap 2147483647"):
        RingDescriptor(2**61 - 1, ("x",))
    assert RingDescriptor(EXPONENT_CAP, ("x",)).p == 2**31 - 1


@pytest.mark.parametrize(
    "names", [(), ("x", "x"), ("2y",), ("",), ("x", "y z")]
)
def test_bad_variable_names_rejected(names):
    with pytest.raises(ValueError):
        RingDescriptor(5, names)


def test_descriptor_properties():
    assert R3.nvars == 3
    assert R3.n == 2
    assert repr(R3) == "F_3[x, y, z]"


def test_is_prime_and_power_of():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_power_of(1, 3)
    assert is_power_of(27, 3)
    assert not is_power_of(12, 3)
    assert not is_power_of(0, 3)
    assert not is_power_of(-9, 3)


# ---------------------------------------------------------------------------
# polynomial structure


def test_no_zero_coefficients_stored():
    f = Polynomial(R3, {(1, 0, 0): 3, (0, 1, 0): 4})
    assert f.terms == {(0, 1, 0): 1}
    assert Polynomial(R3, {(1, 0, 0): 0}).terms == {}


def test_constructor_accumulates_duplicates():
    f = Polynomial(R5, [((1, 0), 2), ((1, 0), 3)])
    assert not f  # 2 + 3 = 0 mod 5


def test_constructor_validation():
    with pytest.raises(ValueError):
        Polynomial(R3, {(1, 0): 1})  # wrong length
    with pytest.raises(ValueError):
        Polynomial(R3, {(-1, 0, 0): 1})


def test_degree_and_homogeneity():
    assert Polynomial.zero(R3).degree() is None
    f = parse_polynomial("x^2 + y", R3)
    assert f.degree() == 2
    assert not f.is_homogeneous()
    assert parse_polynomial("x^2 + y*z", R3).is_homogeneous()


def test_leading_monomial():
    f = parse_polynomial("x*y + y^2 + z^2", R3)
    assert f.leading_monomial() == (1, 1, 0)
    assert leading_coefficient(f) == 1
    with pytest.raises(ValueError):
        Polynomial.zero(R3).leading_monomial()


def test_hash_consistent_with_eq():
    a = parse_polynomial("x + 2*y", R3)
    b = parse_polynomial("2*y + x", R3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
