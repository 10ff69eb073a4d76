"""Groebner bases over F_p and the ideal toolkit built on them.

The engine is Buchberger's algorithm with the normal selection strategy
(lowest lcm first) and both classical pair criteria, producing the unique
reduced basis.  The ambient order is always grevlex; intersections and
colons go through one auxiliary variable under a block order that
eliminates it.  Ideals generated by monomials short-circuit the engine:
their minimal generating set already is the reduced basis, intersections
are pairwise lcms, and colons by a monomial divide generator by generator.
"""

from __future__ import annotations

import heapq

from bisect import insort
from operator import add, le, sub

from .errors import RingMismatch
from .ring import (
    Monomial,
    Polynomial,
    RingDescriptor,
    mono_divides,
    mono_gcd,
    mono_lcm,
    mono_quotient,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# engine: polynomials as raw term dicts, each order as one descending key
#
# A descending key sorts monomials largest first: the largest monomial has
# the least key, so `min` finds leads and a min-heap pops the largest term.


def _grevlex_desc(m: Monomial):
    # ring.grevlex_key with its order reversed: higher degree first, then
    # the smaller reversed exponent tuple
    return (-sum(m), m[::-1])


def _lead(terms: dict, desc) -> Monomial:
    return min(terms, key=desc)


def _monic(terms: dict, p: int, desc) -> dict:
    lc = terms[_lead(terms, desc)]
    if lc == 1:
        return terms
    inv = pow(lc, -1, p)
    return {m: (c * inv) % p for m, c in terms.items()}


def _normal_form_dict(target: dict, leads: list, polys: list, desc, p: int) -> dict:
    """Full normal form of target against monic divisors with cached leads."""
    if not leads or not target:
        return dict(target)
    if all(len(t) == 1 for t in polys):
        # monomial divisors only delete monomials, never create them
        return {
            m: c for m, c in target.items() if not any(all(map(le, l, m)) for l in leads)
        }
    divisors = list(zip(leads, polys))
    work = dict(target)
    get, pop, push, heappop = work.get, work.pop, heapq.heappush, heapq.heappop
    heap = [(desc(m), m) for m in work]
    heapq.heapify(heap)
    remainder: dict[Monomial, int] = {}
    while heap:
        _, m = heappop(heap)
        c = get(m)
        if not c:
            continue  # stale heap entry
        for lm, terms in divisors:
            if all(map(le, lm, m)):
                shift = tuple(map(sub, m, lm))
                for bm, bc in terms.items():
                    mm = tuple(map(add, bm, shift))
                    nv = (get(mm, 0) - c * bc) % p
                    if nv:
                        if mm not in work:
                            push(heap, (desc(mm), mm))
                        work[mm] = nv
                    else:
                        pop(mm, None)
                break
        else:
            # irreducible; all later monomials are strictly smaller
            remainder[m] = c
            del work[m]
    return remainder


def _interreduce(terms_list: list, leads: list, desc, p: int) -> list:
    """Minimalize leads, tail-reduce, and sort lead-descending."""
    # smallest lead first; a stable reverse sort keeps equal leads in order
    order = sorted(range(len(terms_list)), key=lambda i: desc(leads[i]), reverse=True)
    kept: list[int] = []
    for i in order:
        if not any(mono_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    out = []
    for i in kept:
        other_leads = [leads[k] for k in kept if k != i]
        other_terms = [terms_list[k] for k in kept if k != i]
        reduced = _normal_form_dict(terms_list[i], other_leads, other_terms, desc, p)
        out.append(_monic(reduced, p, desc))
    out.sort(key=lambda d: desc(_lead(d, desc)))
    return out


def _buchberger(inputs: list, desc, p: int) -> list:
    """Reduced Groebner basis of the ideal spanned by `inputs` (term dicts)."""
    seeds = [t for t in inputs if t]
    if not seeds:
        return []
    basis_terms: list[dict] = []
    basis_leads: list[Monomial] = []
    pending: set[tuple[int, int]] = set()
    # pairs ascending by (desc(lcm), -i, -j): the last one has the lowest
    # lcm, and among equal lcms the lowest i, then the lowest j
    queue: list = []

    def insert(terms: dict):
        terms = _monic(terms, p, desc)
        j = len(basis_terms)
        basis_terms.append(terms)
        lmj = _lead(terms, desc)
        basis_leads.append(lmj)
        for i in range(j):
            lmi = basis_leads[i]
            lcm = tuple(map(max, lmi, lmj))
            if lcm == tuple(map(add, lmi, lmj)):
                continue  # coprime leads: S-polynomial reduces to zero
            pending.add((i, j))
            insort(queue, (desc(lcm), -i, -j))

    for t in seeds:
        insert(dict(t))

    while queue:
        _, i, j = queue.pop()
        i, j = -i, -j
        pending.discard((i, j))
        lmi, lmj = basis_leads[i], basis_leads[j]
        lcm = tuple(map(max, lmi, lmj))
        # chain criterion: a third lead dividing the lcm whose pairs with i
        # and j are both already handled makes this pair redundant
        redundant = False
        for k, lmk in enumerate(basis_leads):
            if k == i or k == j or not all(map(le, lmk, lcm)):
                continue
            if (min(i, k), max(i, k)) not in pending and (
                min(j, k),
                max(j, k),
            ) not in pending:
                redundant = True
                break
        if redundant:
            continue
        si = tuple(map(sub, lcm, lmi))
        sj = tuple(map(sub, lcm, lmj))
        spoly: dict[Monomial, int] = {}
        get = spoly.get
        for m, c in basis_terms[i].items():
            mm = tuple(map(add, m, si))
            spoly[mm] = (get(mm, 0) + c) % p
        for m, c in basis_terms[j].items():
            mm = tuple(map(add, m, sj))
            spoly[mm] = (get(mm, 0) - c) % p
        spoly = {m: c for m, c in spoly.items() if c}
        h = _normal_form_dict(spoly, basis_leads, basis_terms, desc, p)
        if h:
            insert(h)

    return _interreduce(basis_terms, basis_leads, desc, p)


def _minimal_monomials(monos) -> list[Monomial]:
    """Divisibility-minimal elements, deduplicated, lead-descending."""
    unique = sorted(set(monos), key=_grevlex_desc, reverse=True)
    kept: list[Monomial] = []
    for m in unique:
        if not any(mono_divides(k, m) for k in kept):
            kept.append(m)
    kept.sort(key=_grevlex_desc)
    return kept


# ---------------------------------------------------------------------------
# public types


class GroebnerBasis:
    """The unique reduced Groebner basis: monic elements, leads descending."""

    __slots__ = ("ring", "elements", "_leads", "_dicts")

    def __init__(self, ring: RingDescriptor, elements: tuple[Polynomial, ...]):
        self.ring = ring
        self.elements = tuple(elements)
        self._leads = None
        self._dicts = None

    def leading_monomials(self) -> list[Monomial]:
        if self._leads is None:
            self._leads = [g.leading_monomial() for g in self.elements]
        return self._leads

    def _term_dicts(self):
        if self._dicts is None:
            self._dicts = [g.terms for g in self.elements]
        return self._dicts

    def is_unit(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].degree() == 0

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.elements) or "0"
        return f"GB({inside})"


def normal_form(g: Polynomial, basis: GroebnerBasis) -> Polynomial:
    """Remainder of g on division by the basis; zero iff g is in the ideal."""
    if g.ring != basis.ring:
        raise RingMismatch(f"{g.ring} vs {basis.ring}")
    reduced = _normal_form_dict(
        g.terms, basis.leading_monomials(), basis._term_dicts(), _grevlex_desc, basis.ring.p
    )
    return Polynomial._raw(basis.ring, reduced)


class Ideal:
    """Homogeneous ideal given by generators, with a cached reduced basis.

    Generators must be homogeneous and share the ambient ring; zero
    generators are dropped.  Equality (`==`) is ideal equality, decided by
    comparing reduced bases, so Ideal is deliberately unhashable.
    """

    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: RingDescriptor, generators=()):
        gens = []
        for g in generators:
            if g.ring != ring:
                raise RingMismatch(f"{g.ring} vs {ring}")
            if not g:
                continue
            if not g.is_homogeneous():
                raise ValueError(f"generator {g} is not homogeneous")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = None

    @classmethod
    def zero(cls, ring) -> "Ideal":
        return cls(ring, ())

    @classmethod
    def _with_basis(cls, ring, gb: GroebnerBasis) -> "Ideal":
        ideal = cls(ring, gb.elements)
        ideal._gb = gb
        return ideal

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    # -- basis and membership -------------------------------------------------

    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            if all(len(g.terms) == 1 for g in self.generators):
                minimal = _minimal_monomials(g.leading_monomial() for g in self.generators)
                elements = tuple(Polynomial._raw(self.ring, {m: 1}) for m in minimal)
            else:
                dicts = _buchberger(
                    [dict(g.terms) for g in self.generators], _grevlex_desc, self.ring.p
                )
                elements = tuple(Polynomial._raw(self.ring, d) for d in dicts)
            self._gb = GroebnerBasis(self.ring, elements)
        return self._gb

    def normal_form(self, g: Polynomial) -> Polynomial:
        return normal_form(g, self.groebner())

    def contains(self, g: Polynomial) -> bool:
        return not self.normal_form(g)

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return self.groebner().is_unit()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner().elements == other.groebner().elements

    __hash__ = None

    # -- constructive operations ----------------------------------------------

    def __add__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Ideal(self.ring, self.generators + other.generators)

    def __mul__(self, other: "Ideal") -> "Ideal":
        if not isinstance(other, Ideal):
            return NotImplemented
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return Ideal(
            self.ring, tuple(a * b for a in self.generators for b in other.generators)
        )

    def intersection(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.is_zero() or other.is_zero():
            return Ideal.zero(self.ring)
        if self._is_monomial_presented() and other._is_monomial_presented():
            lcms = [
                mono_lcm(a, b)
                for a in self._minimal_presentation()
                for b in other._minimal_presentation()
            ]
            return Ideal(
                self.ring,
                tuple(Polynomial._raw(self.ring, {m: 1}) for m in _minimal_monomials(lcms)),
            )
        return _intersection_elimination(self, other)

    def colon(self, other: "Ideal") -> "Ideal":
        """(self : other), intersected over a generating set of other."""
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        result = None
        for g in other.groebner().elements:
            part = self._colon_principal(g)
            result = part if result is None else result.intersection(part)
        return result

    def _colon_principal(self, g: Polynomial) -> "Ideal":
        if g.degree() == 0:
            return self
        if self._is_monomial_presented() and len(g.terms) == 1:
            gm = g.leading_monomial()
            quotients = [
                mono_quotient(m, mono_gcd(m, gm)) for m in self._minimal_presentation()
            ]
            return Ideal(
                self.ring,
                tuple(
                    Polynomial._raw(self.ring, {m: 1}) for m in _minimal_monomials(quotients)
                ),
            )
        meet = self.intersection(Ideal(self.ring, (g,)))
        return Ideal(self.ring, tuple(_exact_divide(h, g) for h in meet.generators))

    def _is_monomial_presented(self) -> bool:
        return all(len(g.terms) == 1 for g in self.generators)

    def _minimal_presentation(self) -> list[Monomial]:
        return _minimal_monomials(g.leading_monomial() for g in self.generators)

    # -- dimension-zero structure ----------------------------------------------

    def is_zero_dimensional(self) -> bool:
        """True when the quotient by self is a finite-dimensional algebra.

        Decided by pure variable powers among the lead monomials; raises on
        the unit ideal, whose quotient is the zero ring.
        """
        gb = self.groebner()
        if gb.is_unit():
            raise ValueError("unit ideal: the quotient is the zero ring")
        leads = gb.leading_monomials()
        nv = self.ring.nvars
        for i in range(nv):
            if not any(
                lm[i] > 0 and all(lm[j] == 0 for j in range(nv) if j != i) for lm in leads
            ):
                return False
        return True

    def standard_monomials(self) -> list[Monomial]:
        """Monomials outside the lead-term ideal, by degree then order."""
        if not self.is_zero_dimensional():
            raise ValueError("standard monomial basis requires a zero-dimensional ideal")
        leads = self.groebner().leading_monomials()
        out: list[Monomial] = []
        s = 0
        while True:
            level = [
                m
                for m in monomials_of_degree(self.ring, s)
                if not any(mono_divides(l, m) for l in leads)
            ]
            if not level:
                return out
            out.extend(level)
            s += 1


def maximal_ideal(ring: RingDescriptor) -> Ideal:
    """The irrelevant maximal ideal (x_0, ..., x_n)."""
    return Ideal(ring, tuple(Polynomial.variable(ring, i) for i in range(ring.nvars)))


# ---------------------------------------------------------------------------
# elimination internals


def _elimination_ring(ring: RingDescriptor) -> RingDescriptor:
    name, k = "t", 0
    while name in ring.variables:
        k += 1
        name = f"t{k}"
    return RingDescriptor(ring.p, (name,) + ring.variables)


def _block_desc(e: Monomial):
    # auxiliary variable first: any monomial containing it beats any without;
    # ties go to grevlex on the rest
    return (-e[0], -sum(e[1:]), e[:0:-1])


def _lift(terms: dict, t_exp: int) -> dict:
    return {(t_exp,) + m: c for m, c in terms.items()}


def _intersection_elimination(I: Ideal, J: Ideal) -> Ideal:
    ring = I.ring
    p = ring.p
    inputs = [_lift(g.terms, 1) for g in I.generators]
    for h in J.generators:
        d = _lift(h.terms, 0)
        for m, c in _lift(h.terms, 1).items():
            d[m] = -c % p
        inputs.append(d)
    gens: list[Polynomial] = []
    for d in _buchberger(inputs, _block_desc, p):
        if any(m[0] for m in d):
            continue
        projected = Polynomial._raw(ring, {m[1:]: c for m, c in d.items()})
        # elements of a homogeneous ideal split into components inside it
        gens.extend(projected.homogeneous_components().values())
    return Ideal(ring, tuple(gens))


def _exact_divide(h: Polynomial, g: Polynomial) -> Polynomial:
    """h / g for h in the principal ideal (g); division must come out exact."""
    ring = h.ring
    p = ring.p
    glm = g.leading_monomial()
    ginv = pow(g.leading_coefficient(), -1, p)
    work = dict(h.terms)
    get, pop = work.get, work.pop
    quotient: dict[Monomial, int] = {}
    while work:
        m = min(work, key=_grevlex_desc)
        if not all(map(le, glm, m)):
            raise ArithmeticError(f"{h} is not divisible by {g}")
        c = (work[m] * ginv) % p
        shift = tuple(map(sub, m, glm))
        quotient[shift] = c
        for bm, bc in g.terms.items():
            mm = tuple(map(add, bm, shift))
            nv = (get(mm, 0) - c * bc) % p
            if nv:
                work[mm] = nv
            else:
                pop(mm, None)
    return Polynomial._raw(ring, quotient)
