"""Characteristic-p ideal operations: bracket powers, the rows of
multiplication maps modulo them, Frobenius roots of principal ideals, the
minimal ideal tau attached to a graded complete intersection, and the
F-purity test at the irrelevant maximal ideal.

tau is the smallest ideal containing the defining forms whose p-th bracket
power contains (f_1*...*f_c)^(p-1); the quotient is F-pure at the maximal
ideal exactly when tau is the unit ideal, and the locus where F-purity fails
is cut out by tau otherwise.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math

from dataclasses import dataclass, field
from operator import add, floordiv, mod

from .errors import InternalError, RegularSequenceError, ResourceLimit, RingMismatch
from .groebner import Ideal, artinian, zero_at_coordinate_point
from .linalg import echelon, nullspace
from .ring import (
    EXPONENT_CAP,
    REGULAR_CHECK_CAP,
    Monomial,
    Polynomial,
    RingDescriptor,
    exact_quotient,
    is_power_of,
    monomials_of_degree,
    packing,
)

# monomials of degree d(p-1) that f^(p-1) may span: a bound, not the true
# term count, whose cap would refuse other inputs.  At p = 101 the squares
# quartic spans 80,601 (`analyze` 0.24 s on a 2-core machine) and
# x^3 + x*y*z + y^2*z + z^3 + x^2*y 45,451 (0.42 s)
FPOW_TERM_CAP = 10**5


def in_m_bracket(poly: Polynomial, q: int) -> bool:
    """Membership in the monomial ideal m^[q] = (x_0^q, ..., x_n^q): every
    term has an exponent of at least q."""
    return all(max(m) >= q for m in poly.terms)


def kernel_rows(maps, nvars: int, s: int, q: int, max_images: int | None = None):
    """The maps h -> g*h^scale modulo m^[scale*q], one per (g, scale) in
    maps, on the degree-s monomials below q, as rows: (alive, rows).  alive
    lists, ascending, the positions in monomials_of_degree(ring, s, below=q)
    of the coordinates that no unit row kills; rows holds each map's other
    rows in turn, on alive's indices, none empty.  The kernel of the maps
    together has dimension len(alive) - rank(rows).

    A unit row, an image monomial one coordinate alone reaches, forces that
    coordinate to 0 in every kernel vector: its column is struck from every
    row, and its images past that row are not built.  With big the largest
    scale, each map's images are multiplied by big/scale, so every map sends
    the coordinate mu to big*mu plus its scaled terms, below big*q.  If
    k + big*mu = k' + big*mu', then k = k' mod big in every exponent, so a
    second coordinate reaches an image only through a term of the same
    residues, one lookup each; a term with an exponent of at least
    big*(q - lo), lo the least exponent of a coordinate, reaches no image.
    The coordinates are enumerated packed, in monomials_of_degree's order,
    a range of keys at a time: with the first two exponents left to set,
    moving one unit from x_0 to x_1 adds big*(2^w - 1).  Raises
    ResourceLimit once the first map's distinct images, coordinate by
    coordinate, exceed max_images; they are counted only when the
    coordinates times that map's terms could.
    """
    big = max(scale for _, scale in maps)
    lo = max(0, s - (nvars - 1) * (q - 1))
    # a field that k - k' takes below 0 borrows into a value of at least
    # 2^(w-1), which no packed coordinate has, so the lookups are exact
    top = max(big // scale * g.degree() for g, scale in maps)
    pack, _, offset, guard = packing(nvars, top, big * q)
    w = guard.bit_length() // nvars  # guard holds the top bit of each field
    step = big * ((1 << w) - 1)
    keys: list[int] = [big * s + offset] if nvars == 1 and 0 <= s < q else []

    def fill(total, parts, base):
        # exponents parts..nvars-1 are set in base; each range is empty when
        # high < low, as for total < 0
        low, high = max(0, total - (parts - 1) * (q - 1)), min(total, q - 1)
        if parts > 2:
            for last in range(low, high + 1):
                fill(total - last, parts - 1, base + big * (last << w * (parts - 1)))
        else:
            start = base + big * (total - low + (low << w))
            keys.extend(range(start, start + (high - low) * step + 1, step))

    if nvars > 1:
        fill(s, nvars, offset)
    terms, tables = [], []
    for g, scale in maps:
        groups: dict[Monomial, list[int]] = {}
        tables.append(rows := {})
        for m, c in g.terms.items():
            m = [big // scale * e for e in m]
            if max(m) < big * (q - lo):
                group = groups.setdefault(tuple([e % big for e in m]), [])
                group.append(k := pack(m))
                terms.append((k, c, group, rows))
    # a second coordinate reaches an image only through another term
    terms = [(k, c, [o for o in group if o != k], rows) for k, c, group, rows in terms]
    first = [k for k, _, _, rows in terms if rows is tables[0]]
    if max_images is not None and len(keys) * len(first) > max_images:
        images: set[int] = set()
        for base in keys:
            images.update(key for key in [base + k for k in first] if not key & guard)
            if len(images) > max_images:
                raise ResourceLimit(f"{len(images)} image monomials exceed the cap {max_images}")
    present = set(keys)
    alive: list[int] = []
    for index, base in enumerate(keys):
        entries = []
        for k, c, others, rows in terms:
            key = base + k
            if key & guard:
                continue  # in the bracket power
            for other in others:
                if key - other in present:
                    break
            else:
                break  # key is a unit row, which kills mu
            entries.append((rows, key, c))
        else:
            col = len(alive)
            alive.append(index)
            for rows, key, c in entries:
                if key in rows:
                    rows[key][col] = c
                else:
                    rows[key] = {col: c}
    return alive, [row for rows in tables for row in rows.values()]


def colon_piece(gens, ring: RingDescriptor, s: int, q: int) -> list[Polynomial]:
    """The degree-s piece of (m^[q] : (gens)) modulo m^[q] as its reduced
    basis, monic forms with leads ascending: on ascending columns (reversed
    monomials_of_degree), each nullspace vector's largest column is its own
    free column, where every other vector is 0."""
    alive, rows = kernel_rows([(g, 1) for g in gens], ring.nvars, s, q)
    last = len(alive) - 1
    kernel = nullspace([{last - col: c for col, c in row.items()} for row in rows], last + 1, ring.p)
    if not kernel:
        return []
    coords = monomials_of_degree(ring, s, below=q)
    columns = [coords[i] for i in reversed(alive)]
    return [Polynomial._raw(ring, {m: c for m, c in zip(columns, v) if c}) for v in kernel]


def bracket_power(I: Ideal, q: int) -> Ideal:
    """I^[q]: the ideal generated by g^q over generators g of I.

    Because q-th power is a ring endomorphism in characteristic p, the result
    does not depend on the chosen generating set.  It is also flat (Kunz), and
    it sends leads and S-polynomials to their q-th powers, so the reduced
    basis of I^[q], which Buchberger computes on first use, is the q-th
    powers of the reduced basis of I.
    """
    if not is_power_of(q, I.ring.p):
        raise ValueError(f"{q} is not a power of {I.ring.p}")
    return Ideal._raw(I.ring, tuple(g.frobenius_power(q) for g in I.generators))


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
    ps = (p,) * ring.nvars
    groups: dict[Monomial, dict] = {}
    for m, c in h.terms.items():
        # (eps, floor) determines m, so no accumulation is needed
        groups.setdefault(tuple(map(mod, m, ps)), {})[tuple(map(floordiv, m, ps))] = c
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
    positive degree) and that the forms are a regular sequence: for c >= 2
    forms, two of whose grevlex leads share a variable, quotient_dims must
    equal hilbert_function up to degree d = sum d_j.  By graded local
    duality (Bruns-Herzog, Cohen-Macaulay Rings, ch. 3) the same function
    sizes the top local cohomology: its degree-t piece has dimension
    HF_R(a(R) - t), a(R) = d - (n+1).  Derived fields: degrees d_j, their
    sum d, and the product form f; fpow = f^(p-1) is computed on first use.
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
        for j, g in enumerate(forms, 1):
            if g.ring != self.ring:
                raise RingMismatch(f"{g.ring} vs {self.ring}")
            if not g or not g.is_homogeneous() or g.degree() < 1:
                raise RegularSequenceError(f"form {j} ({g}) is not homogeneous of positive degree")
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
        # f^p is a term map of f, so f^(p-1) = f^p / f; one product (p <= 3) costs
        # less, and a single term's power is a term map, whose f^p may pass the cap
        f, p = self.f, ring.p
        if p <= 3 or len(f.terms) == 1:
            return f ** (p - 1)
        return exact_quotient(f.frobenius_power(p), f)

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
    # forms whose grevlex leads are pairwise coprime are a Groebner basis
    # (Buchberger's product criterion), so in(J) is generated by coprime
    # monomials of their degrees, a regular sequence, and S/J has the Hilbert
    # function of S/in(J)
    leads = [g.leading_monomial() for g in forms]
    if not any(any(map(min, a, b)) for k, a in enumerate(leads) for b in leads[:k]):
        return
    # otherwise the quotient dimensions from degree 1 to d.  Only c = n+1 expects
    # 0, at d - n, and then S/J, generated in degree 0, is Artinian
    for s, dim in quotient_dims([g.terms for g in forms], nv, ring.p):
        expected = hilbert_function(degrees, nv, s)
        if dim != expected:
            raise RegularSequenceError(f"not a regular sequence: quotient dimension {dim} "
                                       f"in degree {s}, expected {expected}")
        if not expected or s == top:
            return


def quotient_dims(gens, nvars: int, p: int):
    """(s, dim (S/I)_s) for s = 1, 2, 3, ..., I generated over F_p by the
    homogeneous {monomial: coefficient} dicts gens, all of positive degree,
    so that (S/I)_0 = F_p: I_s is the echelon of x_i times each pivot row of
    I_(s-1), plus the generators of degree s."""
    by_degree: dict[int, list[dict]] = {}
    for g in gens:
        by_degree.setdefault(sum(next(iter(g))), []).append(g)
    shifts = [tuple(int(i == j) for j in range(nvars)) for i in range(nvars)]
    piece: list[dict] = []
    for s in itertools.count(1):
        rows = [{tuple(map(add, m, e)): c for m, c in row.items()} for row in piece for e in shifts]
        piece = echelon(by_degree.get(s, []) + rows, p)
        yield s, math.comb(s + nvars - 1, nvars - 1) - len(piece)


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
    contains f^(p-1): the defining forms plus the Frobenius root of f^(p-1),
    so it contains the forms by construction.

    Its class is read off zero_degree, the least degree from which S/tau is
    zero: 0 for the unit ideal, None for a positive-dimensional tau, else s
    for an m-primary one, with ell = s - 1.  Two self-checks follow: for
    proper tau, tau^[p] contains f^(p-1) (groups_in_root); Fedder's test
    agrees with tau being the unit ideal.
    """
    fpow = ci.fpow
    root = frobenius_root_principal(fpow)
    tau = Ideal._raw(ci.ring, ci.forms + root.generators)
    s = zero_degree(tau)
    if s == 0:
        kind, ell = TauClass.EVERYWHERE_F_PURE, None
    elif s is None:
        kind, ell = TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL, None
    else:
        kind, ell = TauClass.ISOLATED_NON_F_PURE_POINT, s - 1
    # the unit ideal's bracket power holds f^(p-1)
    unit = kind is TauClass.EVERYWHERE_F_PURE
    if not unit and not groups_in_root(fpow, root):
        raise InternalError("tau^[p] misses f^(p-1)")
    # Fedder's test and the unit-tau verdict are independent computations
    # of the same fact: a constant root row is a term of f^(p-1) with every
    # exponent below p, so this checks the root's grouping and elimination
    if fedder_test_at_m(ci) != unit:
        raise InternalError("Fedder's test and the unit-tau verdict disagree")
    return TauResult(tau=tau, kind=kind, ell=ell)


def zero_degree(ideal: Ideal) -> int | None:
    """The least s at which the ideal's generators span every degree-s
    monomial; None when there is none.  Once the degree-s piece of the
    ideal is all of S_s, so is every later piece, so S/ideal is zero from
    s on and nonzero in degree s - 1.  Such s exists exactly when S/ideal
    is Artinian.  Certificates, cheapest first: a constant generator gives
    0 (the unit ideal); a coordinate point where every generator vanishes
    gives None; then s is quotient_dims' first 0 from degree 1 on.  Past
    the largest generator degree D it is read on only if artinian says so,
    and reaches 0 by (n+1)(D-1)+1, as over the algebraic closure the
    degree-D piece then holds a regular sequence of n+1 forms of degree D."""
    ring, gens = ideal.ring, [g.terms for g in ideal.generators]
    degrees = [sum(next(iter(g))) for g in gens]
    if 0 in degrees:
        return 0
    if zero_at_coordinate_point(gens, ring.nvars):
        return None
    top = max(degrees)
    dims = quotient_dims(gens, ring.nvars, ring.p)
    for s, dim in itertools.islice(dims, ring.nvars * (top - 1) + 1):
        if not dim:
            return s
        if s == top and not artinian(ideal):
            return None
    raise InternalError("artinian and the ranks disagree: S/ideal is nonzero past (n+1)(D-1)+1")


def groups_in_root(h: Polynomial, root: Ideal) -> bool:
    """Whether h lies in root^[p], by the stronger test that each g_eps of
    h = sum over eps of (g_eps)^p * x^eps reduces to 0 on root's generators
    as pivot rows, keyed by least monomial: S is free over S^p on the x^eps.
    The grouping and the reduction are this loop's own, apart from
    frobenius_root_principal's and from echelon."""
    p = h.ring.p
    ps = (p,) * h.ring.nvars
    pivots = {min(g.terms): g.terms for g in root.generators}
    groups: dict[Monomial, dict] = {}
    for m, c in h.terms.items():
        groups.setdefault(tuple(map(mod, m, ps)), {})[tuple(map(floordiv, m, ps))] = c
    for row in groups.values():
        while row:
            col = min(row)
            if col not in pivots:
                return False
            pivot = pivots[col]
            factor = row[col] * pow(pivot[col], -1, p)
            for c, e in pivot.items():
                row[c] = e = (row.get(c, 0) - factor * e) % p
                if not e:
                    del row[c]
    return True


def fedder_test_at_m(ci: CompleteIntersection) -> bool:
    """F-purity at the maximal ideal: f^(p-1) outside (x_0^p, ..., x_n^p)."""
    return not in_m_bracket(ci.fpow, ci.ring.p)

