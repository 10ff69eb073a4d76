"""Numeric invariants and degree bounds for graded complete intersections.

For m-primary I, M_q(I) is the largest ell with (m^[q] : I) contained in
m^[q] + m^ell: the least degree in which the colon has an element outside
m^[q].  By Matlis duality M_q(I) >= (n+1)(q-1) - reg(S/I) at every q, with
equality once q is large enough.  `stabilization_check` certifies equality
at a concrete q by one kernel modulo m^[q], in the degree reg(S/I) predicts,
which is how "q large enough" is made effective throughout.
"""

from __future__ import annotations

import itertools

from dataclasses import dataclass

from .errors import InternalError, ResourceLimit
from .frobenius import CompleteIntersection, TauClass, TauResult, colon_piece, compute_tau
from .groebner import Ideal, artinian, zero_at_coordinate_point
from .ring import Polynomial, is_power_of

DEFAULT_MAX_Q_EXPONENT = 6


def stabilization_check(I: Ideal, q: int, ell: int) -> Polynomial | None:
    """Certify (n+1)q - M_q(I) = reg(S/I) + (n+1) at this q, for m-primary
    proper I with ell = reg(S/I); the certificate is I's least surviving
    generator at q, None when the identity fails.

    Modulo m^[q] the colon (m^[q] : I) in degree t is the kernel of I's
    annihilation rows on the degree-t monomials below q, the annihilator of
    I in the Gorenstein ring A = S/m^[q] of socle degree (n+1)(q-1).  By
    Matlis duality its dimension is that of (A/IA) in degree (n+1)(q-1) - t,
    a quotient of S/I there.  Below s = (n+1)(q-1) - reg(S/I) that degree
    passes reg(S/I), where S/I is zero, so the kernel is zero: M_q(I) >= s
    always, with equality iff the kernel at s is nonzero.  colon_piece
    lists the kernel's reduced basis with leads ascending, so the
    certificate, its last form, is the element with the largest lead.
    """
    ring = I.ring
    if not is_power_of(q, ring.p):
        raise ValueError(f"{q} is not a power of {ring.p}")
    s = ring.nvars * (q - 1) - ell
    piece = colon_piece(I.generators, ring, s, q)
    return piece[-1] if piece else None


def find_stable_q(I: Ideal, ell: int, max_q: int | None = None) -> tuple[int, Polynomial]:
    """Smallest q = p^e, e >= 1, certified stable for m-primary proper I
    with ell = reg(S/I), and its certificate.

    It is at most the least power of p above ell: past ell,
    m^[q] is zero in degree ell, so by stabilization_check's duality the
    kernel at s has the dimension of (S/I)_ell, nonzero.  Hence the default
    cap p^6 refuses only when ell >= p^6."""
    p = I.ring.p
    cap = max_q if max_q is not None else p**DEFAULT_MAX_Q_EXPONENT
    q = p
    while q <= cap:
        if (generator := stabilization_check(I, q, ell)) is not None:
            return q, generator
        q *= p
    raise ResourceLimit(f"no stabilization certificate for any q <= {cap}")


def a_invariant(ci: CompleteIntersection) -> int:
    """Top degree of the top local cohomology of R: d - (n+1)."""
    return ci.d - ci.ring.nvars


def thmA_bound(ci: CompleteIntersection, tau_result: TauResult) -> int:
    """a(R) - reg(S/tau): Frobenius is injective on the top local cohomology
    strictly below this degree, with a guaranteed kernel element at it.
    It never lies below the corollary bound, which is checked here."""
    if tau_result.ell is None:
        raise ValueError("the injectivity bound needs m-primary proper tau")
    bound = a_invariant(ci) - tau_result.ell
    if bound < cor_bound(ci):
        raise InternalError("Theorem A bound below the corollary bound")
    return bound


def cor_bound(ci: CompleteIntersection) -> int:
    """Uniform injectivity bound -(n+1-c)*d, independent of tau."""
    return -(ci.n + 1 - ci.c) * ci.d


def thmB_threshold(ci: CompleteIntersection) -> int:
    """Primes >= (n+1-c)*(d-c) give Frobenius injectivity in negative
    degrees for isolated singularities."""
    return (ci.n + 1 - ci.c) * (ci.d - ci.c)


def _jacobian_minors(ci: CompleteIntersection) -> tuple[Polynomial, ...]:
    """The c x c minors of the Jacobian matrix, zeros included.

    Each k x k minor on the first k columns expands along column k into the
    (k-1) x (k-1) minors on its other rows, so all of them together take
    at most sum_k comb(n+1, k)*k products.
    """
    ring, (first, *rest) = ci.ring, ci.forms
    minors = {(i,): first.partial_derivative(i) for i in range(ring.nvars)}
    for k, g in enumerate(rest, 1):
        column = [g.partial_derivative(i) for i in range(ring.nvars)]
        larger = {}
        for rows in itertools.combinations(range(ring.nvars), k + 1):
            total = Polynomial.zero(ring)
            for t, i in enumerate(rows):
                term = column[i] * minors[rows[:t] + rows[t + 1:]]
                total = total - term if (t + k) % 2 else total + term
            larger[rows] = total
        minors = larger
    return tuple(minors.values())


def isolated_singularity_test(ci: CompleteIntersection) -> bool:
    """Whether the Jacobian ideal plus the forms, C, cuts out at most the
    origin: C is the unit ideal or S/C is finite-dimensional.  No if they
    all vanish at some e_i, and so on the line through it; else artinian."""
    gens = _jacobian_minors(ci) + ci.forms
    if zero_at_coordinate_point([g.terms for g in gens], ci.ring.nvars):
        return False
    return artinian(Ideal(ci.ring, gens))


def isolated_singularity(ci: CompleteIntersection, tau_result: TauResult) -> bool:
    """The isolated-singularity test, settled by tau where it can be: V(tau),
    the non-F-pure locus, lies in the singular locus, as regular points are
    F-pure (Kunz), so a positive-dimensional tau is not isolated and needs
    no Jacobian basis."""
    positive_dimensional = tau_result.kind is TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    return not positive_dimensional and isolated_singularity_test(ci)


@dataclass(frozen=True)
class AnalysisReport:
    """Every invariant the library computes for one complete intersection.

    tau_class is compute_tau's verdict; the two optional fields are present
    exactly when it is ISOLATED_NON_F_PURE_POINT.  ell is reg(S/tau), the
    top degree of S/tau, computed once by compute_tau and stored once; the
    report schema lists it under both names, reg_s_mod_tau and ell.
    """

    a_invariant: int
    ell: int | None
    thmA_bound: int | None
    cor_bound: int
    thmB_threshold: int
    fpure_at_m: bool
    tau_class: TauClass
    isolated_singularity: bool

    def __post_init__(self):
        # thmA_bound checks this too; a report read back from JSON is not
        # built by it
        if self.thmA_bound is not None and self.thmA_bound < self.cor_bound:
            raise InternalError("Theorem A bound below the corollary bound")

    def to_json_dict(self) -> dict:
        data = {"a_invariant": self.a_invariant, "reg_s_mod_tau": self.ell} | vars(self)
        data["tau_class"] = self.tau_class.value
        return data


def analyze(ci: CompleteIntersection) -> AnalysisReport:
    """Run every test and bound on one complete intersection."""
    tau_result = compute_tau(ci)
    return AnalysisReport(
        a_invariant=a_invariant(ci),
        ell=tau_result.ell,
        thmA_bound=None if tau_result.ell is None else thmA_bound(ci, tau_result),
        cor_bound=cor_bound(ci),
        thmB_threshold=thmB_threshold(ci),
        # compute_tau has checked this verdict against Fedder's test
        fpure_at_m=tau_result.kind is TauClass.EVERYWHERE_F_PURE,
        tau_class=tau_result.kind,
        isolated_singularity=isolated_singularity(ci, tau_result),
    )
