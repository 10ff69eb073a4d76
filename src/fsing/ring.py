"""Exact arithmetic layer: the ambient ring, monomials as exponent tuples, sparse
multivariate polynomials over F_p, and the polynomial text format.

Monomial orders are realized as sort keys on exponent tuples.  Everything in
the package uses graded reverse lexicographic order with the first declared
variable largest; `grevlex_desc` is that order's one key, largest first.

Monomials are tuples wherever a caller sees them; `exact_quotient` and
`frobenius.kernel_rows` pack each into one int, a whole byte field per
exponent (`packing`), so a product is one add, "all exponents below q" one
mask, and unpacking one `struct` call.
"""

from __future__ import annotations

import heapq
import math
import struct

from dataclasses import dataclass
from operator import add, le, lshift

from .errors import InternalError, ParseError, ResourceLimit, RingMismatch

# cap on exponents, degrees and powers q, and on the characteristic p, whose
# primality test is trial division (about 46,000 divisions at the cap)
EXPONENT_CAP = 2**31 - 1
# monomials of degree <= d that a form of degree d may span, for the
# regular-sequence check and for products the parser builds
REGULAR_CHECK_CAP = 10**6


def is_prime(p: int) -> bool:
    """Trial division, adequate for characteristics up to EXPONENT_CAP."""
    if p < 2:
        return False
    return all(p % d for d in range(2, math.isqrt(p) + 1))


def check_characteristic(p: int) -> None:
    """Raise ValueError unless p is a prime at most EXPONENT_CAP; the cap is
    checked first, since trial division above it would take long."""
    if p > EXPONENT_CAP:
        raise ValueError(f"characteristic {p} exceeds the cap {EXPONENT_CAP}")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")


def is_power_of(value: int, base: int) -> bool:
    """True when value = base^e for some e >= 0."""
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


@dataclass(frozen=True)
class RingDescriptor:
    """Ambient graded polynomial ring: characteristic p and variable names.

    Variables are listed largest-first for the monomial order; with names
    ("x", "y", "z") the order satisfies x > y > z.
    """

    p: int
    variables: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        check_characteristic(self.p)
        if not self.variables:
            raise ValueError("at least one variable is required")
        seen = set()
        for name in self.variables:
            if not name or not name[0].isalpha() or not name.isidentifier():
                raise ValueError(f"bad variable name {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name {name!r}")
            seen.add(name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    @property
    def n(self) -> int:
        # projective convention: nvars = n + 1
        return len(self.variables) - 1

    def __repr__(self):
        return f"F_{self.p}[{', '.join(self.variables)}]"


# ---------------------------------------------------------------------------
# monomials: plain exponent tuples

Monomial = tuple[int, ...]


def mono_divides(a: Monomial, b: Monomial) -> bool:
    """True when a | b, i.e. componentwise a <= b."""
    return all(map(le, a, b))


def grevlex_desc(m: Monomial):
    """Sort key for grevlex with the first variable largest, largest first.

    Higher total degree sorts first; ties go to the smaller reversed exponent
    tuple, so the monomial with the smaller last exponent is larger.  The
    largest monomial has the least key: `min` finds leads, and a min-heap
    pops the largest monomial.
    """
    return (-sum(m), m[::-1])


def monomials_of_degree(
    ring: RingDescriptor, s: int, below: int | None = None
) -> list[Monomial]:
    """All monomials of total degree s, largest first; empty for s < 0.

    With `below`, only those whose exponents are all below it.
    """
    if s < 0:
        return []
    return list(_compositions(s, ring.nvars, s + 1 if below is None else below))


def _compositions(total, parts, bound):
    # grevlex-descending within one degree is ascending in the reversed
    # tuple, so the last part runs upward outermost; it is kept where the
    # other parts, each below bound, can still make up the rest of the total
    if parts == 1:
        if total < bound:
            yield (total,)
        return
    low = max(0, total - (parts - 1) * (bound - 1))
    for last in range(low, min(total, bound - 1) + 1):
        for head in _compositions(total - last, parts - 1, bound):
            yield head + (last,)


def packing(nvars: int, top: int, q: int = 0):
    """(pack, unpack, offset, guard) for exponent vectors in one int, entry i
    in field i of w bits, the least of 8, 16, 32, 64 above max(top, q).bit_length().
    While entries stay at most top, pack(a) + pack(b) == pack(a + b), and the
    entries of k are all below q iff not (k + offset) & guard: offset adds
    2^(w-1) - q to each field, guard holds each field's top bit.  Packed ints
    compare as lex with the last variable most significant, a monomial order."""
    w = max(8, 1 << max(top, q).bit_length().bit_length())
    shifts = range(0, w * nvars, w)
    ones = sum(1 << s for s in shifts)
    fields = struct.Struct(f"<{nvars}{'BHIQ'[w.bit_length() - 4]}")

    def pack(m):
        return sum(map(lshift, m, shifts))

    def unpack(k):
        return fields.unpack(k.to_bytes(fields.size, "little"))

    return pack, unpack, ((1 << (w - 1)) - q) * ones, (1 << (w - 1)) * ones


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial over F_p keyed by exponent tuples.

    Stored coefficients are always nonzero canonical representatives, so two
    polynomials are equal exactly when their term dicts are.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Monomial, int] = {}
        nvars, p = ring.nvars, ring.p
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != nvars:
                raise ValueError(f"exponent tuple {mono} has wrong length")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            acc[mono] = (acc.get(mono, 0) + coeff) % p
        self.ring = ring
        self.terms = {m: c for m, c in acc.items() if c}

    @classmethod
    def _raw(cls, ring, clean: dict) -> "Polynomial":
        # internal: clean must already be reduced mod p with zeros pruned
        poly = cls.__new__(cls)
        poly.ring = ring
        poly.terms = clean
        return poly

    @classmethod
    def zero(cls, ring) -> "Polynomial":
        return cls._raw(ring, {})

    @classmethod
    def constant(cls, ring, c: int) -> "Polynomial":
        c %= ring.p
        return cls._raw(ring, {(0,) * ring.nvars: c} if c else {})

    @classmethod
    def variable(cls, ring, index: int) -> "Polynomial":
        exps = tuple(1 if i == index else 0 for i in range(ring.nvars))
        return cls._raw(ring, {exps: 1})

    # -- queries ------------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def degree(self) -> int | None:
        """Total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(map(sum, self.terms))

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m in self.terms}) <= 1

    def sorted_terms(self):
        """Terms as ((monomial, coeff), ...), largest monomial first."""
        return tuple(sorted(self.terms.items(), key=lambda t: grevlex_desc(t[0])))

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=grevlex_desc)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if not isinstance(other, Polynomial):
            return None
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.ring.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial._raw(self.ring, out)

    def __neg__(self):
        p = self.ring.p
        return Polynomial._raw(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return Polynomial.zero(self.ring)
        if self.degree() + other.degree() > EXPONENT_CAP:
            raise OverflowError("product degree exceeds the exponent cap")
        p = self.ring.p
        acc: dict[Monomial, int] = {}
        get = acc.get
        right = other.terms.items()
        for ma, ca in self.terms.items():
            for mb, cb in right:
                mm = tuple(map(add, ma, mb))
                acc[mm] = get(mm, 0) + ca * cb
        return Polynomial._raw(self.ring, {m: v % p for m, v in acc.items() if v % p})

    def frobenius_power(self, q: int) -> "Polynomial":
        """self^q for q a power of p: scale every exponent, keep coefficients.

        Coefficientwise this uses c^q = c on F_p.
        """
        if not is_power_of(q, self.ring.p):
            raise ValueError(f"{q} is not a power of {self.ring.p}")
        if self.terms and self.degree() * q > EXPONENT_CAP:
            raise OverflowError("Frobenius power exceeds the exponent cap")
        return Polynomial._raw(
            self.ring, {tuple(e * q for e in m): c for m, c in self.terms.items()}
        )

    def __pow__(self, e: int) -> "Polynomial":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return Polynomial.constant(self.ring, 1)
        if e == 1 or not self.terms:
            return self
        if self.degree() * e > EXPONENT_CAP:
            raise OverflowError("power exceeds the exponent cap")
        p = self.ring.p
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return Polynomial._raw(self.ring, {tuple(x * e for x in m): pow(c, e, p)})
        # peel off the p-part of the exponent; those factors are term maps
        rest, k = e, 1
        while rest % p == 0:
            rest //= p
            k *= p
        # then multiply by the r-term base, r*T per step for T result terms,
        # where binary powering's last squaring of two halves costs T^2/4
        power = self
        for _ in range(rest - 1):
            power = self * power
        return power.frobenius_power(k) if k > 1 else power

    def partial_derivative(self, index: int) -> "Polynomial":
        if not 0 <= index < self.ring.nvars:
            raise ValueError(f"no variable with index {index}")
        p = self.ring.p
        out: dict[Monomial, int] = {}
        for m, c in self.terms.items():
            e = m[index]
            coeff = (c * e) % p
            if e and coeff:
                lowered = m[:index] + (e - 1,) + m[index + 1 :]
                out[lowered] = coeff
        return Polynomial._raw(self.ring, out)

    # -- printing ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            if coeff != 1 or not any(mono):
                factors.append(str(coeff))
            for name, e in zip(self.ring.variables, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"


def exact_quotient(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g for forms g | h on packed keys, largest remainder key first from a
    heap (Johnson 1974; Monagan-Pearce 2011), g's lead its largest key.  A key the
    lead does not divide borrows into a guard bit (& is two's complement): InternalError."""
    p = h.ring.p
    pack, unpack, _, guard = packing(h.ring.nvars, h.degree() or 0)
    divisor = {pack(m): c for m, c in g.terms.items()}
    lead = max(divisor)
    inv = pow(divisor.pop(lead), -1, p)
    rest = [(k - lead, c) for k, c in divisor.items()]
    work = {pack(m): c for m, c in h.terms.items()}
    heap = sorted(-k for k in work)
    push, pop, get = heapq.heappush, heapq.heappop, work.get
    quotient = {}
    # a key enters the heap with work, and is final when popped: new keys are smaller
    while heap:
        k = -pop(heap)
        c = work.pop(k) * inv % p
        if not c:
            continue
        shift = k - lead
        if shift & guard:
            raise InternalError("exact division left a remainder")
        quotient[unpack(shift)] = c
        for d, cd in rest:
            key = k + d
            if (old := get(key)) is None:
                push(heap, -key)
            work[key] = (old or 0) - c * cd
    return Polynomial._raw(h.ring, quotient)


# ---------------------------------------------------------------------------
# parsing
#
# expr    := [sign] product { (+|-) product }
# product := power { * power }
# power   := atom [ ^ INT ]
# atom    := INT | NAME | ( expr )
#
# Implicit multiplication is a syntax error; exponents are non-negative
# integer literals at most 2^31 - 1.


def _tokenize(text: str):
    tokens = []
    i, size = 0, len(text)
    while i < size:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        elif "0" <= ch <= "9":  # str.isdigit would take '²', which int() refuses
            j = i
            while j < size and "0" <= text[j] <= "9":
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past Python's digit limit for int(str)
                raise ParseError(f"{j - i}-digit integer at position {i} is too long", position=i) from None
            tokens.append(("int", value, i))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < size and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}", position=i)
    tokens.append(("end", None, size))
    return tokens


class _Parser:
    # a value is a term (exponents, coefficient mod p; zero as self.one, 0) or,
    # from a parenthesized sum of several terms on, a Polynomial; sums fill one dict
    def __init__(self, tokens, ring):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.one = one = (0,) * ring.nvars
        self.index = {v: (one[:i] + (1,) + one[i + 1 :], 1) for i, v in enumerate(ring.variables)}

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        terms = self.expression()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(
                f"unexpected {value!r} at position {pos} (missing operator?)", position=pos
            )
        return Polynomial._raw(self.ring, terms)

    def expression(self):
        p = self.ring.p
        acc: dict[Monomial, int] = {}
        sign = -1 if self.peek()[0] in "+-" and self.advance()[0] == "-" else 1
        while True:
            value = self.product()
            for m, c in value.terms.items() if isinstance(value, Polynomial) else [value]:
                acc[m] = acc.get(m, 0) + sign * c
            if self.peek()[0] not in "+-":
                return {m: c % p for m, c in acc.items() if c % p}
            sign = -1 if self.advance()[0] == "-" else 1

    def product(self):
        result = self.power()
        while self.peek()[0] == "*":
            self.advance()
            factor = self.power()
            if isinstance(result, tuple) and isinstance(factor, tuple):
                # a zero factor zeroes the product before its degree counts
                c = result[1] * factor[1] % self.ring.p
                result = tuple(map(add, result[0], factor[0])) if c else self.one, c
                if sum(result[0]) > EXPONENT_CAP:
                    raise OverflowError("product degree exceeds the exponent cap")
                continue
            result, factor = (Polynomial(self.ring, [v]) if isinstance(v, tuple) else v
                              for v in (result, factor))
            if len(result.terms) > 1 and len(factor.terms) > 1:
                self.check_size(result.degree() + factor.degree())
            result = result * factor
        return result

    def check_size(self, degree):
        # called for multi-term factors only, before multiplying: no form of
        # this degree would pass the regular-sequence check
        size = math.comb(degree + self.ring.nvars, self.ring.nvars)
        if size > REGULAR_CHECK_CAP:
            raise ResourceLimit(f"a product of degree {degree} spans {size} monomials, cap {REGULAR_CHECK_CAP}")

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        self.advance()
        kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError(f"expected integer exponent at position {pos}", position=pos)
        self.advance()
        if value > EXPONENT_CAP:
            raise ParseError(f"exponent overflow at position {pos}", position=pos)
        try:
            if isinstance(base, tuple):
                if sum(base[0]) * value > EXPONENT_CAP:  # zero is (0, ..., 0), 0
                    raise OverflowError
                return tuple(e * value for e in base[0]), pow(base[1], value, self.ring.p)
            if value > 1:
                self.check_size(base.degree() * value)
            return base**value
        except OverflowError:
            raise ParseError(f"exponent overflow at position {pos}", position=pos) from None

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return self.one, value % self.ring.p
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r} at position {pos}", position=pos)
            return self.index[value]
        if kind == "(":
            terms = self.expression()
            kind2, _, pos2 = self.advance()
            if kind2 != ")":
                raise ParseError(f"expected ')' at position {pos2}", position=pos2)
            if len(terms) > 1:
                return Polynomial._raw(self.ring, terms)
            return next(iter(terms.items()), (self.one, 0))
        if kind == "end":
            raise ParseError(f"unexpected end of input at position {pos}", position=pos)
        raise ParseError(f"unexpected {value!r} at position {pos}", position=pos)


def parse_polynomial(text: str, ring: RingDescriptor) -> Polynomial:
    """Parse the polynomial grammar above into a canonical Polynomial."""
    try:
        return _Parser(_tokenize(text), ring).parse()
    except OverflowError:
        # a product of in-range powers can still blow the cap
        raise ParseError("exponent overflow") from None
