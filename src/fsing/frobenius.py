"""Characteristic-p ideal operations: bracket powers, Frobenius roots of
principal ideals, the minimal ideal tau attached to a graded complete
intersection, and the F-purity test at the irrelevant maximal ideal.

tau is the smallest ideal containing the defining forms whose p-th bracket
power contains (f_1*...*f_c)^(p-1); the quotient is F-pure at the maximal
ideal exactly when tau is the unit ideal, and the locus where F-purity fails
is cut out by tau otherwise.
"""

from __future__ import annotations

import enum
import functools
import math

from dataclasses import dataclass, field
from operator import add

from .errors import InternalError, RegularSequenceError, ResourceLimit, RingMismatch
from .groebner import Ideal, regularity_artinian
from .linalg import echelon, rank
from .ring import (
    EXPONENT_CAP,
    REGULAR_CHECK_CAP,
    Monomial,
    Polynomial,
    RingDescriptor,
    is_power_of,
    monomials_of_degree,
    packing,
)

# monomials of degree d(p-1) that f^(p-1) may span: a bound, not the true
# term count, whose cap would refuse other inputs.  At p = 101 the squares
# quartic spans 80,601 (`analyze` 0.35 s on a 2-core machine) and
# x^3 + x*y*z + y^2*z + z^3 + x^2*y 45,451 (2.8 s)
FPOW_TERM_CAP = 10**5


def in_m_bracket(poly: Polynomial, q: int) -> bool:
    """Membership in the monomial ideal m^[q] = (x_0^q, ..., x_n^q): every
    term has an exponent of at least q."""
    return all(max(m) >= q for m in poly.terms)


def annihilation_rows(gens, coords, q: int) -> list[dict]:
    """h -> (h*g modulo m^[q] for g in gens) on the span of coords, so the
    kernel is (m^[q] : gens) modulo m^[q] in that span: one row
    {column: coefficient} per generator and product monomial below q, except
    that products one coordinate alone reaches give one unit row {column: 1}
    per column, first."""
    if not coords:
        return []
    top = max(map(max, coords)) + max((g.degree() for g in gens if g), default=0)
    pack, _, offset, guard = packing(len(coords[0]), top, q)
    packed = [pack(mu) + offset for mu in coords]
    # a row's key: the generator's index above the packed product plus offset;
    # hits holds the first column to reach a key, and -1 once a second does
    hits: dict[int, int] = {}
    rows: dict[int, dict] = {}
    setdefault = hits.setdefault
    for j, g in enumerate(gens):
        terms = {pack(m) + (j << guard.bit_length()): c for m, c in g.terms.items()}
        for col, mu in enumerate(packed):
            for m, c in terms.items():
                m += mu
                if not m & guard and (first := setdefault(m, col)) != col:
                    if first < 0:
                        rows[m][col] = c
                    else:
                        rows[m] = {first: terms[m - packed[first]], col: c}
                        hits[m] = -1
    units = dict.fromkeys(hits.values())
    units.pop(-1, None)
    return [{col: 1} for col in units] + list(rows.values())


def bracket_power(I: Ideal, q: int) -> Ideal:
    """I^[q]: the ideal generated by g^q over generators g of I.

    Because q-th power is a ring endomorphism in characteristic p, the result
    does not depend on the chosen generating set.  It is also flat (Kunz), and
    it sends leads and S-polynomials to their q-th powers, so the q-th powers
    of the reduced basis of I are the reduced basis of I^[q].
    """
    if not is_power_of(q, I.ring.p):
        raise ValueError(f"{q} is not a power of {I.ring.p}")
    powers = tuple(g.frobenius_power(q) for g in I.groebner())
    return Ideal._with_basis(I.ring, powers)


def frobenius_root_principal(h: Polynomial) -> Ideal:
    """The smallest ideal K with h in K^[p], for homogeneous h.

    Write each exponent vector as p*floor + eps with eps in {0..p-1}^(n+1)
    and group terms by eps; then h = sum over eps of (g_eps)^p * x^eps, and
    the g_eps generate K.  Coefficients carry over unchanged since c^p = c
    on F_p.  The generators returned are an echelon basis of the F_p-span of
    the g_eps, reduced shortest first; forms of different degrees share no
    monomial, so the one elimination reduces each degree on its own.
    """
    ring = h.ring
    p = ring.p
    groups: dict[Monomial, dict] = {}
    for m, c in h.terms.items():
        eps = tuple(e % p for e in m)
        # (eps, floor) determines m, so no accumulation is needed
        groups.setdefault(eps, {})[tuple(e // p for e in m)] = c
    rows = echelon(sorted(groups.values(), key=len), p)
    return Ideal(ring, tuple(Polynomial._raw(ring, r) for r in rows))


class TauClass(enum.Enum):
    EVERYWHERE_F_PURE = "everywhere_f_pure"
    ISOLATED_NON_F_PURE_POINT = "isolated_non_f_pure_point"
    NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL = "non_f_pure_locus_positive_dimensional"


@dataclass(frozen=True)
class CompleteIntersection:
    """A graded complete intersection R = S/(f_1, ..., f_c) over F_p.

    Construction validates the shape (1 <= c <= n+1, homogeneous forms of
    positive degree) and that the forms are a regular sequence: for c >= 2 by
    comparing quotient dimensions degree by degree against hilbert_function
    up to degree d = sum d_j.  By graded local duality (Bruns-Herzog,
    Cohen-Macaulay Rings, ch. 3) the same function sizes the top local
    cohomology: its degree-t piece has dimension HF_R(a(R) - t), a(R) = d - (n+1).
    Derived fields: degrees d_j, their sum d, and the product form f;
    fpow = f^(p-1) is computed on first use.
    """

    ring: RingDescriptor
    forms: tuple[Polynomial, ...]
    degrees: tuple[int, ...] = field(init=False)
    d: int = field(init=False)
    f: Polynomial = field(init=False)

    def __post_init__(self):
        forms = tuple(self.forms)
        object.__setattr__(self, "forms", forms)
        nv = self.ring.nvars
        if not 1 <= len(forms) <= nv:
            raise RegularSequenceError(
                f"need between 1 and {nv} forms, got {len(forms)}"
            )
        for g in forms:
            if g.ring != self.ring:
                raise RingMismatch(f"{g.ring} vs {self.ring}")
            if not g or not g.is_homogeneous() or g.degree() < 1:
                raise RegularSequenceError(
                    f"form {g} is not homogeneous of positive degree"
                )
        degrees = tuple(g.degree() for g in forms)
        _check_regular_sequence(self.ring, forms, degrees)
        product = forms[0]
        for g in forms[1:]:
            product = product * g
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "d", sum(degrees))
        object.__setattr__(self, "f", product)

    @functools.cached_property
    def fpow(self) -> Polynomial:
        ring = self.ring
        degree = self.d * (ring.p - 1)
        # in one variable the monomial count below is 1, whatever the degree
        if degree > EXPONENT_CAP:
            raise ResourceLimit(f"f^(p-1) has degree {degree}, above the exponent cap {EXPONENT_CAP}")
        size = math.comb(degree + ring.n, ring.n)
        if size > FPOW_TERM_CAP:
            raise ResourceLimit(
                f"f^(p-1) spans {size} monomials of degree {degree}, "
                f"cap {FPOW_TERM_CAP}"
            )
        return self.f ** (ring.p - 1)

    @property
    def c(self) -> int:
        return len(self.forms)

    @property
    def n(self) -> int:
        return self.ring.n


def hilbert_function(degrees, nvars: int, s: int) -> int:
    """HF(s) of S/(regular sequence of forms of these degrees), S in nvars
    variables: the coefficient of T^s in prod(1 - T^d) / (1 - T)^nvars, 0
    for s < 0.  Computed at s alone, never as a list up to s, from the
    numerator as a {degree: coefficient} dict, where equal degrees merge."""
    numerator = {0: 1}
    for d in degrees:
        shifted = dict(numerator)
        for k, c in numerator.items():
            shifted[k + d] = shifted.get(k + d, 0) - c
        numerator = shifted
    return sum(c * math.comb(s - k + nvars - 1, nvars - 1)
               for k, c in numerator.items() if k <= s)


def _check_regular_sequence(ring, forms, degrees):
    nv = ring.nvars
    top = sum(degrees)
    size = math.comb(top + nv, nv)  # monomials of degree <= top
    if size > REGULAR_CHECK_CAP:
        raise ResourceLimit(f"regular-sequence check spans {size} monomials, cap {REGULAR_CHECK_CAP}")
    if len(forms) == 1:
        return  # S is a domain: one nonzero form is a regular sequence
    # quotient dimension in each degree by linear algebra; when c = n+1,
    # agreement up to degree d forces degree d to be zero: an Artinian quotient
    for s in range(top + 1):
        rows = []
        for g, dg in zip(forms, degrees):
            terms = g.terms.items()
            for mu in monomials_of_degree(ring, s - dg):
                rows.append({tuple(map(add, m, mu)): c for m, c in terms})
        dim = hilbert_function((), nv, s) - rank(rows, ring.p)
        expected = hilbert_function(degrees, nv, s)
        if dim != expected:
            raise RegularSequenceError(
                f"not a regular sequence: quotient dimension {dim} in degree {s}, "
                f"expected {expected}"
            )


@dataclass(frozen=True)
class TauResult:
    """tau together with its class, decided once by compute_tau.

    ell is the top degree in which S/tau is nonzero, present exactly when
    kind is ISOLATED_NON_F_PURE_POINT (tau m-primary and proper).
    """

    tau: Ideal
    kind: TauClass
    ell: int | None

    __hash__ = None


def compute_tau(ci: CompleteIntersection) -> TauResult:
    """The smallest ideal containing the forms whose p-th bracket power
    contains f^(p-1): the defining forms plus the Frobenius root of f^(p-1).
    Three self-checks follow: tau contains the forms, tau^[p] contains
    f^(p-1), and Fedder's test agrees with tau being the unit ideal.
    """
    fpow = ci.fpow
    root = frobenius_root_principal(fpow)
    tau = Ideal(ci.ring, ci.forms + root.generators)
    ell = None
    if tau.is_unit():
        kind = TauClass.EVERYWHERE_F_PURE
    elif tau.is_zero_dimensional():
        kind = TauClass.ISOLATED_NON_F_PURE_POINT
        ell = regularity_artinian(tau)
    else:
        kind = TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    # re-check the two defining conditions on the constructed ideal
    if not all(tau.contains(g) for g in ci.forms):
        raise InternalError("tau misses a defining form")
    if not bracket_power(tau, ci.ring.p).contains(fpow):
        raise InternalError("tau^[p] misses f^(p-1)")
    # Fedder's test and the unit-tau verdict are independent computations
    # of the same fact
    if fedder_test_at_m(ci) != (kind is TauClass.EVERYWHERE_F_PURE):
        raise InternalError("Fedder's test and the unit-tau verdict disagree")
    return TauResult(tau=tau, kind=kind, ell=ell)


def fedder_test_at_m(ci: CompleteIntersection) -> bool:
    """F-purity at the maximal ideal: f^(p-1) outside (x_0^p, ..., x_n^p)."""
    return not in_m_bracket(ci.fpow, ci.ring.p)

