"""Top local cohomology of a graded complete intersection, made concrete.

A class is a fraction [g/x^q] with x^q = (x_0...x_n)^q, subject to g times
each defining form landing in the bracket power m^[q]; the class vanishes
exactly when g itself lies in m^[q], and Frobenius sends [g/x^q] to
[f^(p-1)g^p/x^(pq)].  Since m^[q] is a monomial ideal, all membership here
is per-monomial divisibility, never a basis computation.

In degree t the numerators are spans of coordinate monomials below q, and
the annihilation constraints are a matrix A over F_p on them: the graded
piece is the kernel of A, of dimension HF_R(a(R) - t) by graded local
duality, as R is Gorenstein (Bruns-Herzog, Cohen-Macaulay Rings, ch. 3);
the rank of A is the tests' oracle for it.  Frobenius is F_p-linear on
numerators, since c^p = c, so it is a matrix Phi on the same coordinates,
and its kernel in degree t is one nullity, of Phi stacked on A.  Both are
multiplication maps modulo a bracket power, whose rows come from one
builder, frobenius.kernel_rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalError, ResourceLimit
from .frobenius import (
    CompleteIntersection, TauResult, colon_piece, hilbert_function, in_m_bracket, kernel_rows,
)
from .invariants import a_invariant, find_stable_q
from .linalg import rank
from .ring import EXPONENT_CAP, Monomial, Polynomial, is_power_of, monomials_of_degree

DEFAULT_MAX_COLUMNS = 20000


@dataclass(frozen=True)
class CohClass:
    """A local cohomology class [numerator / (x_0...x_n)^q].

    degree is the internal degree of the class: deg(numerator) - (n+1)q + d.
    """

    numerator: Polynomial
    q: int
    ci: CompleteIntersection
    degree: int

    def to_json_dict(self) -> dict:
        return {"numerator": str(self.numerator), "q": self.q, "degree": self.degree}


def make_class(g: Polynomial, q: int, ci: CompleteIntersection) -> CohClass:
    """Validated class [g/x^q]; g must be nonzero homogeneous and must
    annihilate every defining form modulo m^[q]."""
    if not g:
        raise ValueError("zero numerator; represent the zero class by a "
                         "numerator inside the bracket power")
    if g.ring != ci.ring:
        raise ValueError(f"numerator lives in {g.ring}, not {ci.ring}")
    if not g.is_homogeneous():
        raise ValueError(f"numerator {g} is not homogeneous")
    if not is_power_of(q, ci.ring.p):
        raise ValueError(f"{q} is not a power of {ci.ring.p}")
    for j, form in enumerate(ci.forms):
        if not in_m_bracket(form * g, q):
            raise ValueError(
                f"annihilation failure: form {j + 1} times the numerator is "
                f"not in the bracket power with q = {q}"
            )
    degree = g.degree() - ci.ring.nvars * q + ci.d
    return CohClass(numerator=g, q=q, ci=ci, degree=degree)


def is_zero(alpha: CohClass) -> bool:
    return in_m_bracket(alpha.numerator, alpha.q)


def frobenius_action(alpha: CohClass) -> CohClass:
    """[g/x^q] -> [f^(p-1) g^p / x^(pq)], the natural Frobenius on classes."""
    ci = alpha.ci
    p = ci.ring.p
    if alpha.q * p > EXPONENT_CAP:
        raise OverflowError("denominator exponent exceeds the cap")
    # make_class's checks hold for the image of a valid class: S is a domain,
    # so the product is nonzero and homogeneous, and f_j*f^(p-1)*g^p is a
    # multiple of (f_j*g)^p, which lies in m^[pq]
    numerator = ci.fpow * alpha.numerator**p
    degree = numerator.degree() - ci.ring.nvars * alpha.q * p + ci.d
    if degree != p * alpha.degree:
        raise InternalError("Frobenius did not multiply the degree by p")
    return CohClass(numerator=numerator, q=alpha.q * p, ci=ci, degree=degree)


def kernel_witness(
    ci: CompleteIntersection, tau_result: TauResult, max_q: int | None = None
) -> CohClass:
    """A nonzero class of degree a(R) - ell killed by Frobenius.

    Works at a q certified stable for tau, with the numerator the certificate
    found: tau's least surviving generator at that q, which the certificate
    puts in degree (n+1)(q-1) - ell, so the class is in degree a(R) - ell.
    """
    if tau_result.ell is None:
        raise ValueError("kernel witness needs m-primary proper tau")
    q, generator = find_stable_q(tau_result.tau, tau_result.ell, max_q)
    witness = make_class(generator, q, ci)
    if is_zero(witness):
        raise InternalError("the witness class is zero")
    try:
        image = frobenius_action(witness)
    except OverflowError as e:  # q is stable, but pq is past the cap
        raise ResourceLimit(str(e)) from None
    if not is_zero(image):
        raise InternalError("Frobenius does not kill the witness")
    return witness


@dataclass(frozen=True)
class GradedPieceBasis:
    """Basis of the degree-t piece of the top local cohomology.

    Coordinates are the degree-s monomials with all exponents below q, where
    s = t - d + (n+1)q; the classes are [g/x^q] for g over the reduced basis
    of (m^[q] : J)_s modulo m^[q], leads ascending, each checked by make_class.
    """

    degree: int
    q: int
    coordinates: tuple[Monomial, ...]
    classes: tuple[CohClass, ...]

    @property
    def dim(self) -> int:
        return len(self.classes)


def _admissible(q: int, t: int, ci: CompleteIntersection) -> bool:
    # every class of internal degree t must be writable over the denominator
    # x^q; then numerators have non-negative degree, (n+1)q + t - d >= n(q-1)
    return q >= ci.d - t - ci.ring.n


def _piece(ci: CompleteIntersection, t: int, q: int | None, max_cols: int):
    """(q, s) for internal degree t: the coordinates are the degree-s
    monomials below q, counted here and refused over max_cols before any is
    built.  q defaults to the smallest admissible power of p.
    """
    ring = ci.ring
    p = ring.p
    if q is None:
        q = 1
        while not _admissible(q, t, ci):
            q *= p
            if q > EXPONENT_CAP:
                raise ResourceLimit("no admissible q below the exponent cap")
    else:
        if not is_power_of(q, p):
            raise ValueError(f"{q} is not a power of {p}")
        if not _admissible(q, t, ci):
            raise ValueError(f"q = {q} cannot represent degree {t}")
    s = t - ci.d + ring.nvars * q
    # S/m^[q] is the complete intersection of the forms x_i^q
    count = hilbert_function((q,) * ring.nvars, ring.nvars, s)
    if count > max_cols:
        raise ResourceLimit(f"{count} coordinate monomials exceed the cap {max_cols}")
    return q, s


def graded_piece_basis(
    ci: CompleteIntersection, t: int, q: int | None = None, max_cols: int = DEFAULT_MAX_COLUMNS
) -> GradedPieceBasis:
    """Solve the annihilation constraints for internal degree t.

    q defaults to the smallest admissible power of p; any admissible power
    gives the same dimension.
    """
    q, s = _piece(ci, t, q, max_cols)
    classes = tuple(make_class(g, q, ci) for g in colon_piece(ci.forms, ci.ring, s, q))
    return GradedPieceBasis(t, q, tuple(monomials_of_degree(ci.ring, s, below=q)), classes)


@dataclass(frozen=True)
class InjectivityResult:
    degree: int
    dim_source: int
    dim_kernel: int

    @property
    def injective(self) -> bool:
        return self.dim_kernel == 0

    def to_json_dict(self) -> dict:
        return dict(vars(self))


def verify_injectivity(
    ci: CompleteIntersection, t: int, max_cols: int = DEFAULT_MAX_COLUMNS
) -> InjectivityResult:
    """Kernel dimension of Frobenius on the degree-t piece, by one rank.

    The piece is the kernel of the annihilation rows A on the coordinate
    monomials; its dimension is HF_R(a(R) - t) by graded local duality
    (Bruns-Herzog, ch. 3), with ncols - rank(A) the tests' oracle.
    Frobenius sends a coordinate mu to f^(p-1) mu^p modulo m^[pq], so a
    class is killed exactly when its vector is in the kernel of Phi stacked
    on A: one nullity of kernel_rows, Phi first.  max_cols caps both the
    coordinates and Phi's image monomials.
    """
    q, s = _piece(ci, t, None, max_cols)
    p = ci.ring.p
    dim = hilbert_function(ci.degrees, ci.ring.nvars, a_invariant(ci) - t)
    if dim == 0:
        return InjectivityResult(degree=t, dim_source=0, dim_kernel=0)
    maps = [(ci.fpow, p)] + [(g, 1) for g in ci.forms]
    alive, rows = kernel_rows(maps, ci.ring.nvars, s, q, max_cols)
    kernel = len(alive) - rank(rows, p)
    return InjectivityResult(degree=t, dim_source=dim, dim_kernel=kernel)
