"""Degreewise linear-algebra oracles, independent of the Groebner engine.

Everything here works with explicit coefficient matrices over F_p: the
degree-s piece of an ideal is the row space of all generator multiples of
that degree, membership is a rank comparison, and colon pieces are kernels
of rowspace constraints.  Slow and obviously correct, which is the point.
The named ideals (`m_bracket`, `maximal_ideal`), `power_containment` and
`jacobian_ideal` are the exception: test helpers built on
fsing.groebner.Ideal.  So are the references that `src/` once used and
replaced by a shorter route: the top-down kernel scan for M_q, cofactor
expansion for Jacobian minors, tau's class by its reduced basis, reg(S/I)
by standard monomials, binary powering, grevlex division and tuple-keyed
rows.  Expression trees are the parser's reference.
"""

import itertools
import math

import numpy as np

from fsing.errors import InternalError
from fsing.frobenius import TauClass, bracket_power
from fsing.groebner import Ideal, normal_form
from fsing.invariants import _jacobian_minors
from fsing.ring import Polynomial, grevlex_desc, is_power_of, mono_divides, monomials_of_degree


def monomial(ring, mono, c=1):
    """The polynomial c * x^mono."""
    return Polynomial(ring, {tuple(mono): c})


def leading_coefficient(g):
    """The coefficient of g's grevlex-leading monomial."""
    return g.terms[g.leading_monomial()]


def grevlex_key(m):
    """Ascending grevlex key, the reference for fsing.ring.grevlex_desc:
    total degree first, ties broken by the reversed, negated exponent tuple."""
    return (sum(m), tuple(-e for e in reversed(m)))


def as_matrix(rows, ncols):
    """Stack an iterable of length-ncols vectors; empty input is (0, ncols)."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


def rows_matrix(rows, ncols):
    """The dense (len(rows), ncols) matrix of sparse {column: entry} rows,
    filled in place by index."""
    rows = list(rows)
    matrix = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        matrix[i, list(row)] = list(row.values())
    return matrix


def rref(matrix, p):
    """Dense reduced row echelon form over F_p, on numpy int64 matrices.

    Returns (rref_matrix, pivot_columns); the input is not modified.  Entries
    stay in [0, p) with p word-sized, so int64 never overflows before the
    reductions mod p.
    """
    m = np.array(matrix, dtype=np.int64) % p
    nrows, ncols = m.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def nullspace(matrix, p):
    """Dense basis of the right kernel as int64 vectors, free columns
    ascending, the reference for the sparse fsing.linalg.nullspace."""
    m = np.array(matrix, dtype=np.int64)
    ncols = m.shape[1]
    if m.shape[0] == 0:
        return [np.eye(ncols, dtype=np.int64)[i] for i in range(ncols)]
    reduced, pivots = rref(m, p)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        v = np.zeros(ncols, dtype=np.int64)
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-reduced[r, fc]) % p
        basis.append(v)
    return basis


def rank(matrix, p) -> int:
    """Dense rank by forward elimination, the reference for the sparse
    fsing.linalg.rank: each pivot clears only the rows below it, on the
    columns from its own on, where rref also reduces the rows above.
    Entries stay in [0, p), as in rref."""
    m = np.array(matrix, dtype=np.int64) % p
    if m.size == 0:
        return 0
    nrows, ncols = m.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        below = r + 1 + np.nonzero(m[r + 1:, c])[0]
        if below.size:
            factors = m[below, c] * pow(int(m[r, c]), -1, p) % p
            m[below, c:] = (m[below, c:] - np.outer(factors, m[r, c:])) % p
        r += 1
    return r


def in_row_space(matrix, vector, p) -> bool:
    """True when vector lies in the row space of matrix."""
    m = np.asarray(matrix, dtype=np.int64)
    v = np.asarray(vector, dtype=np.int64).reshape(1, -1)
    if m.shape[0] == 0:
        return not np.any(v % p)
    return rank(m, p) == rank(np.vstack([m, v]), p)


def poly_vector(g, index):
    vec = np.zeros(len(index), dtype=np.int64)
    for m, c in g.terms.items():
        vec[index[m]] = c
    return vec


def degree_index(ring, s):
    basis = monomials_of_degree(ring, s)
    return basis, {m: i for i, m in enumerate(basis)}


def ideal_piece_matrix(gens, s, ring):
    """Rows spanning the degree-s piece of the ideal the gens generate."""
    basis, index = degree_index(ring, s)
    rows = []
    for g in gens:
        shift = s - g.degree()
        for mu in monomials_of_degree(ring, shift):
            rows.append(poly_vector(g * monomial(ring, mu), index))
    return as_matrix(rows, len(basis))


def oracle_membership(g, gens, ring):
    """g in (gens), for homogeneous g, by rank comparison in its degree."""
    if not g:
        return True
    _, index = degree_index(ring, g.degree())
    return in_row_space(ideal_piece_matrix(gens, g.degree(), ring), poly_vector(g, index), ring.p)


def mult_matrix(h, s, ring):
    """Multiplication by h as a matrix from degree s to degree s + deg h."""
    _, src_index = degree_index(ring, s)
    _, dst_index = degree_index(ring, s + h.degree())
    out = np.zeros((len(dst_index), len(src_index)), dtype=np.int64)
    for mu, col in src_index.items():
        for m, c in h.terms.items():
            out[dst_index[mono_mul(m, mu)], col] = (
                out[dst_index[mono_mul(m, mu)], col] + c
            ) % ring.p
    return out


def colon_piece_kernel(i_gens, j_gens, s, ring):
    """Basis vectors of the degree-s piece of (I : J), as coefficient vectors.

    v is in the piece iff for every generator h of J the vector of v*h lies
    in the row space of I's piece, i.e. is annihilated by the kernel of that
    piece's matrix.
    """
    p = ring.p
    _, index = degree_index(ring, s)
    constraints = []
    for h in j_gens:
        piece = ideal_piece_matrix(i_gens, s + h.degree(), ring)
        kernel = nullspace(piece, p)
        if not kernel:
            continue  # full row space in that degree; h constrains nothing
        constraints.append((as_matrix(kernel, piece.shape[1]) @ mult_matrix(h, s, ring)) % p)
    if not constraints:
        stacked = as_matrix([], len(index))
    else:
        stacked = np.vstack(constraints)
    return nullspace(stacked, p)


def oracle_colon_piece_dim(i_gens, j_gens, s, ring):
    return len(colon_piece_kernel(i_gens, j_gens, s, ring))


def oracle_m_q(i_gens, q, ring):
    """First degree where (m^[q] : I) has an element outside m^[q]."""
    bracket = [
        monomial(ring, tuple(q if j == i else 0 for j in range(ring.nvars)))
        for i in range(ring.nvars)
    ]
    socle_degree = ring.nvars * (q - 1)
    for s in range(socle_degree + 1):
        piece = ideal_piece_matrix(bracket, s, ring)
        for v in colon_piece_kernel(bracket, i_gens, s, ring):
            if not in_row_space(piece, v, ring.p):
                return s
    raise AssertionError("socle generator not found; oracle is broken")


def oracle_quotient_dim(gens, s, ring):
    basis, _ = degree_index(ring, s)
    return len(basis) - rank(ideal_piece_matrix(gens, s, ring), ring.p)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_quotient(a, b):
    """a / b for monomials; the caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_gcd(a, b):
    return tuple(map(min, a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def per_eps_root(h):
    """The Frobenius root of h as the raw g_eps, one per residue class eps of
    the exponents mod p, with h = sum of g_eps^p * x^eps: a generating set of
    the root, not reduced to a basis of its span."""
    p = h.ring.p
    groups = {}
    for m, c in h.terms.items():
        groups.setdefault(tuple(e % p for e in m), {})[tuple(e // p for e in m)] = c
    return tuple(Polynomial(h.ring, terms) for terms in groups.values())


# ---------------------------------------------------------------------------
# named ideals, and m^ell in I by the Groebner engine's membership test


def m_bracket(ring, q):
    """The bracket power (x_0^q, ..., x_n^q) of the maximal ideal."""
    if not is_power_of(q, ring.p):
        raise ValueError(f"{q} is not a power of {ring.p}")
    return Ideal(ring, tuple(
        monomial(ring, tuple(q if j == i else 0 for j in range(ring.nvars)))
        for i in range(ring.nvars)
    ))


def maximal_ideal(ring):
    """The irrelevant maximal ideal (x_0, ..., x_n)."""
    return m_bracket(ring, 1)


def power_containment(I, ell):
    """Whether m^ell is contained in I; checks the degree-ell monomials."""
    if ell < 0:
        raise ValueError("negative power")
    return all(
        I.contains(monomial(I.ring, m))
        for m in monomials_of_degree(I.ring, ell)
    )


# ---------------------------------------------------------------------------
# M_q by scanning kernels modulo m^[q] down from the socle degree, the
# reference for fsing.invariants.stabilization_check


def least_surviving_generator(I, q):
    """The first least-degree reduced-basis generator of (m^[q] : I) outside
    m^[q], whose degree is M_q(I).  Modulo m^[q] the colon in degree s is the
    kernel of I's annihilation rows on the degree-s monomials below q; it is
    nonzero from M_q(I) up to the socle degree (n+1)(q-1), as below that some
    x_i*g stays outside m^[q], so the scan walks down from there.  On
    ascending coordinates the last nullspace vector is the reduced-basis
    element with the largest lead, the one the basis lists first."""
    if I.is_zero():
        raise ValueError("M_q of the zero ideal is undefined")
    if I.is_unit():
        raise ValueError("M_q needs a proper ideal")
    if not is_power_of(q, I.ring.p):
        raise ValueError(f"{q} is not a power of {I.ring.p}")
    ring, pick = I.ring, None
    for s in range(ring.nvars * (q - 1), -1, -1):
        coords = monomials_of_degree(ring, s, below=q)[::-1]
        rows = tuple_annihilation_rows(I.generators, coords, q)
        kernel = nullspace(rows_matrix(rows, len(coords)), ring.p)
        if not kernel:
            break
        pick = Polynomial(ring, {m: int(c) for m, c in zip(coords, kernel[-1]) if c})
    if pick is None:
        # the socle monomial (x_0...x_n)^(q-1) kills every form of positive degree
        raise InternalError("colon collapsed to the bracket power")
    return pick


def m_q(I, q):
    """M_q(I) = max{ell : (m^[q] : I) inside m^[q] + m^ell}: membership in
    m^[q] + m^ell is monomial-by-monomial, so the maximum is the least degree
    in which the colon has an element outside m^[q]; 0 when the colon is the
    unit ideal."""
    return least_surviving_generator(I, q).degree()


def scan_stabilization_check(I, q):
    """fsing.invariants.stabilization_check by the scan: the least surviving
    generator when (n+1)q - M_q(I) = reg(S/I) + (n+1), else None."""
    nv = I.ring.nvars
    g = least_surviving_generator(I, q)
    return g if nv * q - g.degree() == regularity_artinian(I) + nv else None


# ---------------------------------------------------------------------------
# Jacobian minors by cofactor expansion, the reference for the minors of
# fsing.invariants.isolated_singularity_test


def jacobian_ideal(ci):
    """The ideal of the c x c minors of the Jacobian matrix (df_j/dx_i),
    as fsing.invariants expands them."""
    return Ideal(ci.ring, _jacobian_minors(ci))


def cofactor_det(matrix):
    """Determinant of a square matrix of polynomials, along the first column."""
    if len(matrix) == 1:
        return matrix[0][0]
    total = Polynomial.zero(matrix[0][0].ring)
    for i, row in enumerate(matrix):
        rest = [r[1:] for j, r in enumerate(matrix) if j != i]
        term = row[0] * cofactor_det(rest)
        total = total - term if i % 2 else total + term
    return total


def cofactor_jacobian_minors(ci):
    """The c x c minors of (df_j/dx_i), one per row set in lexicographic
    order, each expanded on its own: c! products per minor."""
    partials = [[g.partial_derivative(i) for g in ci.forms] for i in range(ci.ring.nvars)]
    return [
        cofactor_det([partials[i] for i in rows])
        for rows in itertools.combinations(range(ci.ring.nvars), ci.c)
    ]


def oracle_isolated_singularity(ci):
    """Whether the Jacobian minors plus the forms, C, cut out at most the
    origin, by one dense rank, the reference for
    fsing.invariants.isolated_singularity_test.  C is generated in degrees
    <= D, so S/C vanishes in degree B = (n+1)(D-1)+1 exactly when it is
    finite-dimensional: over the algebraic closure the ideal that C's
    degree-D piece generates has the same zero set and, when m-primary, holds
    a regular sequence of n+1 forms of degree D.  The unit ideal vanishes in
    every degree."""
    gens = [g for g in cofactor_jacobian_minors(ci) if g] + list(ci.forms)
    top = ci.ring.nvars * (max(g.degree() for g in gens) - 1) + 1
    return oracle_quotient_dim(gens, top, ci.ring) == 0


# ---------------------------------------------------------------------------
# tau's class by its reduced basis, the reference for the certificates of
# fsing.frobenius.compute_tau


def regularity_artinian(I):
    """Top degree in which S/I is nonzero, for m-primary proper I, by its
    standard monomials, the reference for fsing.frobenius.zero_degree;
    standard_monomials raises ValueError for any other I."""
    return max(map(sum, I.standard_monomials()))


def tau_class_by_basis(ci, gens):
    """(kind, ell, contains the forms, bracket power contains f^(p-1)) for
    the ideal tau of the forms gens, by Buchberger: the unit ideal by its
    basis, m-primary by pure powers among its leads, ell = reg(S/tau) by its
    standard monomials; both containments by normal forms on its basis and
    on the basis of tau^[p]."""
    tau = Ideal(ci.ring, gens)
    ell = None
    if tau.is_unit():
        kind = TauClass.EVERYWHERE_F_PURE
    elif tau.is_zero_dimensional():
        kind, ell = TauClass.ISOLATED_NON_F_PURE_POINT, regularity_artinian(tau)
    else:
        kind = TauClass.NON_F_PURE_LOCUS_POSITIVE_DIMENSIONAL
    forms = not any(normal_form(g, tau) for g in ci.forms)
    fpow = not normal_form(ci.fpow, bracket_power(tau, ci.ring.p))
    return kind, ell, forms, fpow


# ---------------------------------------------------------------------------
# F_p-rational points, and Fedder's criterion at one of them, the reference
# for the zero set of fsing.frobenius.compute_tau's tau


def projective_points(ring):
    """One representative of each F_p-rational point of P^n, its first
    nonzero coordinate 1."""
    for k in range(ring.nvars):
        for rest in itertools.product(range(ring.p), repeat=ring.nvars - k - 1):
            yield (0,) * k + (1,) + rest


def evaluate(g, point):
    """g at a point of F_p^(n+1)."""
    p = g.ring.p
    total = 0
    for m, c in g.terms.items():
        for a, e in zip(point, m):
            c = c * pow(a, e, p) % p
        total += c
    return total % p


def _dict_mul(a, b, p):
    out = {}
    for m, c in a.items():
        for n, d in b.items():
            k = mono_mul(m, n)
            out[k] = (out.get(k, 0) + c * d) % p
    return {m: c for m, c in out.items() if c}


def non_f_pure_at(ci, point):
    """Fedder's criterion at a point P of V(forms): dehomogenize at a
    coordinate where P is 1, move P to the origin, and P is non-F-pure iff
    every term of the moved f^(p-1) has an exponent of at least p, that is
    f^(p-1) lies in the bracket power of P's maximal ideal.  Plain dict
    arithmetic on the product of the forms, binomial by binomial."""
    p, k, nv = ci.ring.p, point.index(1), ci.ring.nvars
    moved = {}
    for m, c in ci.f.terms.items():
        # x_k -> 1, and x_j -> x_j + a_j for every other j
        term = {(0,) * nv: c}
        for j, (e, a) in enumerate(zip(m, point)):
            if j != k:
                term = _dict_mul(term, {
                    tuple(t * (i == j) for i in range(nv)): math.comb(e, t) * pow(a, e - t, p)
                    for t in range(e + 1)
                }, p)
        for b, c in term.items():
            moved[b] = (moved.get(b, 0) + c) % p
    power = {(0,) * nv: 1}
    for _ in range(p - 1):
        power = _dict_mul(power, moved, p)
    return all(max(m) >= p for m in power)


# ---------------------------------------------------------------------------
# tuple-keyed references for the kernels that pack monomials into ints


def pow_binary(f, e):
    """f^e by binary powering with Polynomial.__mul__, the reference for
    Polynomial.__pow__."""
    result = Polynomial.constant(f.ring, 1)
    base = f
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _exact_divide(h, g):
    """h / g for h in the principal ideal (g), by grevlex division on
    exponent tuples, the reference for fsing.ring.exact_quotient; raises
    ArithmeticError when the division leaves a remainder."""
    p = h.ring.p
    glm = g.leading_monomial()
    ginv = pow(leading_coefficient(g), -1, p)
    work = dict(h.terms)
    quotient = {}
    while work:
        m = min(work, key=grevlex_desc)
        if not mono_divides(glm, m):
            raise ArithmeticError(f"{h} is not divisible by {g}")
        c = (work[m] * ginv) % p
        shift = mono_quotient(m, glm)
        quotient[shift] = c
        for bm, bc in g.terms.items():
            mm = mono_mul(bm, shift)
            nv = (work.get(mm, 0) - c * bc) % p
            if nv:
                work[mm] = nv
            else:
                work.pop(mm, None)
    return Polynomial(h.ring, quotient)


def tuple_map_rows(g, scale, coords, q):
    """h -> g*h^scale modulo m^[scale*q] on the span of coords, the reference
    for one map of fsing.frobenius.kernel_rows: image monomials as tuples,
    one row per image monomial in order of first appearance, built for every
    term and coordinate, with no cap, no residue classes and no stop at a
    coordinate's first unit row."""
    rows = {}
    for col, mu in enumerate(coords):
        mu = tuple(e * scale for e in mu)
        for m, c in g.terms.items():
            m = mono_mul(m, mu)
            if max(m) < scale * q:
                rows.setdefault(m, {})[col] = c
    return list(rows.values())


def tuple_annihilation_rows(gens, coords, q):
    """The annihilation rows, h -> (h*g modulo m^[q] for g in gens) on the
    span of coords: one row per (generator index, monomial), in order of
    first appearance, single-entry rows included as they come."""
    return [row for g in gens for row in tuple_map_rows(g, 1, coords, q)]


def tuple_frobenius_rows(ci, coords, q):
    """The Frobenius image rows, mu -> f^(p-1) mu^p modulo m^[pq]."""
    return tuple_map_rows(ci.fpow, ci.ring.p, coords, q)


def struck_rows(rows_by_map, ncols):
    """What fsing.frobenius.kernel_rows makes of uncollapsed rows, given one
    list per map: alive, the columns of no single-entry row of any map,
    ascending, and for each map its longer rows restricted to alive and
    renumbered, the empty ones dropped."""
    units = {c for rows in rows_by_map for row in rows if len(row) == 1 for c in row}
    alive = [c for c in range(ncols) if c not in units]
    index = {c: i for i, c in enumerate(alive)}
    struck = []
    for rows in rows_by_map:
        restricted = ({index[c]: e for c, e in row.items() if c in index} for row in rows if len(row) > 1)
        struck.append([row for row in restricted if row])
    return alive, struck


# ---------------------------------------------------------------------------
# seeded instance samplers shared by property suites


def random_homogeneous(rng, ring, degree, density=0.6):
    monos = monomials_of_degree(ring, degree)
    while True:
        terms = {
            m: rng.randrange(1, ring.p)
            for m in monos
            if rng.random() < density
        }
        if terms:
            return Polynomial(ring, terms)


def random_ideal_gens(rng, ring, max_gens, max_degree, min_gens=1):
    count = rng.randint(min_gens, max_gens)
    return tuple(
        random_homogeneous(rng, ring, rng.randint(1, max_degree)) for _ in range(count)
    )


def random_m_primary_gens(rng, ring, max_degree):
    """Pure variable powers plus a few extra forms: always m-primary."""
    gens = [
        monomial(
            ring,
            tuple(
                rng.randint(1, max_degree) if j == i else 0
                for j in range(ring.nvars)
            ),
        )
        for i in range(ring.nvars)
    ]
    for _ in range(rng.randint(0, 2)):
        gens.append(random_homogeneous(rng, ring, rng.randint(1, max_degree)))
    return tuple(gens)


# ---------------------------------------------------------------------------
# expression trees over the polynomial grammar, the reference for the parser:
# ("sum", [(sign, product), ...]) with sign "", "+" or "-" (only the first
# may be ""), ("prod", [power, ...]), ("pow", atom, exponent or None), and
# atoms ("int", n), ("var", name) and ("paren", sum)


def random_expression(rng, ring, depth=3, max_degree=12):
    """A random tree whose degree bound stays at most max_degree; constants
    include 0, p, multiples of p and values past p, and exponents include 0."""
    p = ring.p

    def sum_(d):
        signs = [rng.choice(("", "+", "-"))] + [rng.choice("+-") for _ in range(rng.randint(0, 2))]
        return ("sum", [(sign, ("prod", [power(d) for _ in range(rng.randint(1, 3))])) for sign in signs])

    def power(d):
        return ("pow", atom(d), rng.choice((None, None, 0, 1, 2, 3)))

    def atom(d):
        r = rng.random()
        if d and r < 0.3:
            return ("paren", sum_(d - 1))
        if r < 0.55:
            return ("int", rng.choice((0, 1, p - 1, p, 3 * p, p + 2, rng.randrange(10**6))))
        return ("var", rng.choice(ring.variables))

    while True:
        tree = sum_(depth)
        if degree_bound(tree) <= max_degree:
            return tree


def subexpressions(node):
    """The tree's nodes, node first."""
    yield node
    kind = node[0]
    if kind == "sum":
        children = [product for _, product in node[1]]
    elif kind == "prod":
        children = node[1]
    else:
        children = [node[1]] if kind in ("pow", "paren") else []
    for child in children:
        yield from subexpressions(child)


def degree_bound(node):
    kind = node[0]
    if kind == "sum":
        return max(degree_bound(product) for _, product in node[1])
    if kind == "prod":
        return sum(map(degree_bound, node[1]))
    if kind == "pow":
        return degree_bound(node[1]) * (1 if node[2] is None else node[2])
    if kind == "paren":
        return degree_bound(node[1])
    return 1 if kind == "var" else 0


def render_expression(node):
    kind = node[0]
    if kind == "sum":
        head, *rest = node[1]
        return head[0] + render_expression(head[1]) + "".join(
            f" {sign} {render_expression(product)}" for sign, product in rest
        )
    if kind == "prod":
        return "*".join(map(render_expression, node[1]))
    if kind == "pow":
        return render_expression(node[1]) + ("" if node[2] is None else f"^{node[2]}")
    if kind == "paren":
        return f"({render_expression(node[1])})"
    return str(node[1])


def evaluate_expression(node, ring):
    """The tree's value by Polynomial's +, - and * alone."""
    kind = node[0]
    if kind == "sum":
        total = Polynomial.zero(ring)
        for sign, product in node[1]:
            value = evaluate_expression(product, ring)
            total = total - value if sign == "-" else total + value
        return total
    if kind == "prod":
        result = Polynomial.constant(ring, 1)
        for factor in node[1]:
            result = result * evaluate_expression(factor, ring)
        return result
    if kind == "pow":
        base = evaluate_expression(node[1], ring)
        return base if node[2] is None else pow_binary(base, node[2])
    if kind == "paren":
        return evaluate_expression(node[1], ring)
    if kind == "int":
        return Polynomial.constant(ring, node[1])
    return Polynomial.variable(ring, ring.variables.index(node[1]))
