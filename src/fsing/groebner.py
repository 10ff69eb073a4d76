"""Groebner bases over F_p and the ideal toolkit built on them.

The engine is Buchberger's algorithm with the normal selection strategy
(lowest lcm first) and both classical pair criteria, producing the unique
reduced basis.  Inputs are taken in turn, each when the queue reaches its
lead, and reduced against the basis so far first: one that reduces to zero
makes no pairs.  The ambient order is always grevlex; intersections and
colons go through one auxiliary variable under a block order that
eliminates it.  `artinian` runs the engine only until it can say whether
S/I is finite-dimensional.
"""

from __future__ import annotations

import heapq

from bisect import insort
from itertools import chain
from operator import add, le, sub

from .errors import RingMismatch
from .ring import (
    Monomial,
    Polynomial,
    RingDescriptor,
    exact_quotient,
    grevlex_desc,
    mono_divides,
    monomials_of_degree,
)

# ---------------------------------------------------------------------------
# engine: polynomials as raw term dicts, each order as one descending key
#
# A descending key sorts monomials largest first: the largest monomial has
# the least key, so `min` finds leads and a min-heap pops the largest term.
# The ambient order's key is ring.grevlex_desc; _block_desc is elimination's.


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


def _buchberger(inputs: list, desc, p: int, stop=None) -> list | None:
    """Reduced Groebner basis of the ideal spanned by `inputs` (term dicts);
    None once stop, if given, holds for a new element's lead."""
    seeds = [t for t in inputs if t]
    basis_terms: list[dict] = []
    basis_leads: list[Monomial] = []
    pending: set[tuple[int, int]] = set()
    # pairs ascending by (desc(lcm), -i, -j): the last one has the lowest
    # lcm, and among equal lcms the lowest i, then the lowest j; input k
    # waits as (desc(lead), 1, k), taken before the pairs of its key
    queue = sorted((desc(_lead(t, desc)), 1, k) for k, t in enumerate(seeds))

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
        return stop is not None and stop(lmj)

    while queue:
        _, i, j = queue.pop()
        if i == 1:
            # an input, reduced against the basis so far; zero makes no pairs
            h = _normal_form_dict(seeds[j], basis_leads, basis_terms, desc, p)
            if h and insert(h):
                return None
            continue
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
        if h and insert(h):
            return None

    return _interreduce(basis_terms, basis_leads, desc, p)


def pure_powers(monomials) -> set[int]:
    """The i for which some monomial is a power of x_i; 1 is a power of each."""
    return {i for m in monomials for i, e in enumerate(m) if e == sum(m)}


def zero_at_coordinate_point(gens, nvars: int) -> bool:
    """Whether the forms gens, as term dicts, all vanish at some coordinate
    point e_i: a form vanishes there exactly when it lacks x_i^deg."""
    return len(pure_powers(chain.from_iterable(gens))) < nvars


def artinian(ideal: "Ideal") -> bool:
    """Whether S/ideal is finite-dimensional, the zero ring included: yes
    once Buchberger's leads hold a power of every variable (1 is a power of
    each).  Such powers in the lead-term ideal are multiples of leads that
    are powers too, so a basis completed without them answers no, and is
    kept as the ideal's reduced basis."""
    ring = ideal.ring
    pure: set[int] = set()

    def holds_every_power(lead: Monomial) -> bool:
        pure.update(pure_powers([lead]))
        return len(pure) == ring.nvars

    basis = _buchberger([g.terms for g in ideal.generators], grevlex_desc, ring.p, holds_every_power)
    if basis is not None:
        ideal._gb = tuple(Polynomial._raw(ring, d) for d in basis)
    return basis is None


# ---------------------------------------------------------------------------
# public types


def normal_form(g: Polynomial, ideal: "Ideal") -> Polynomial:
    """Remainder of g on division by the ideal's reduced basis; zero iff g
    is in the ideal."""
    if g.ring != ideal.ring:
        raise RingMismatch(f"{g.ring} vs {ideal.ring}")
    polys = [b.terms for b in ideal.groebner()]
    reduced = _normal_form_dict(
        g.terms, ideal.leading_monomials(), polys, grevlex_desc, ideal.ring.p
    )
    return Polynomial._raw(ideal.ring, reduced)


class Ideal:
    """Homogeneous ideal given by generators, with a cached reduced basis.

    Generators must be homogeneous and share the ambient ring; zero
    generators are dropped.  `Ideal._raw(ring, generators)` skips those
    checks.  Equality (`==`) is ideal equality, decided by comparing
    reduced bases, so Ideal is deliberately unhashable.
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
    def _raw(cls, ring, generators: tuple[Polynomial, ...]) -> "Ideal":
        # internal: generators must already be nonzero forms of ring
        ideal = cls.__new__(cls)
        ideal.ring = ring
        ideal.generators = generators
        ideal._gb = None
        return ideal

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"Ideal({inside})"

    # -- basis and membership -------------------------------------------------

    def groebner(self) -> tuple[Polynomial, ...]:
        """The reduced basis: monic elements, leads descending."""
        if self._gb is None:
            dicts = _buchberger([g.terms for g in self.generators], grevlex_desc, self.ring.p)
            self._gb = tuple(Polynomial._raw(self.ring, d) for d in dicts)
        return self._gb

    def leading_monomials(self) -> list[Monomial]:
        """The leads of the reduced basis, in its order, found on each call."""
        return [g.leading_monomial() for g in self.groebner()]

    def contains(self, g: Polynomial) -> bool:
        return not normal_form(g, self)

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        gb = self.groebner()
        return len(gb) == 1 and gb[0].degree() == 0

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner() == other.groebner()

    __hash__ = None

    # -- constructive operations ----------------------------------------------

    def intersection(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if self.is_zero() or other.is_zero():
            return Ideal.zero(self.ring)
        return _intersection_elimination(self, other)

    def colon(self, other: "Ideal") -> "Ideal":
        """(self : other), intersected over a generating set of other."""
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        if other.is_zero():
            raise ValueError("colon by the zero ideal")
        result = None
        for g in other.groebner():
            part = self._colon_principal(g)
            result = part if result is None else result.intersection(part)
        return result

    def _colon_principal(self, g: Polynomial) -> "Ideal":
        if g.degree() == 0:
            return self
        meet = self.intersection(Ideal(self.ring, (g,)))
        return Ideal(self.ring, tuple(exact_quotient(h, g) for h in meet.generators))

    # -- dimension-zero structure ----------------------------------------------

    def is_zero_dimensional(self) -> bool:
        """True when the quotient by self is a finite-dimensional algebra.

        Decided by pure variable powers among the lead monomials; raises on
        the unit ideal, whose quotient is the zero ring.
        """
        if self.is_unit():
            raise ValueError("unit ideal: the quotient is the zero ring")
        return len(pure_powers(self.leading_monomials())) == self.ring.nvars

    def standard_monomials(self) -> list[Monomial]:
        """Monomials outside the lead-term ideal, by degree then order."""
        if not self.is_zero_dimensional():
            raise ValueError("standard monomials need an Artinian quotient")
        leads = self.leading_monomials()
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


# ---------------------------------------------------------------------------
# elimination internals


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
        # every input is homogeneous in x, so each element free of t
        # projects to one form
        if not any(m[0] for m in d):
            gens.append(Polynomial._raw(ring, {m[1:]: c for m, c in d.items()}))
    return Ideal(ring, tuple(gens))
