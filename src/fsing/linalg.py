"""Linear algebra over F_p: echelon and rank are sparse, on {column: entry} rows.

rref and nullspace are dense, on numpy integer matrices; entries stay in
[0, p) with p word-sized, so int64 arithmetic never overflows before the
reductions mod p.
"""

import numpy as np


def from_sparse(rows, ncols) -> np.ndarray:
    """Dense matrix from rows given as {column: entry} dicts."""
    m = np.zeros((len(rows), ncols), dtype=np.int64)
    for i, row in enumerate(rows):
        m[i, list(row)] = list(row.values())
    return m


def rref(matrix, p):
    """Reduced row echelon form over F_p.

    Returns (rref_matrix, pivot_columns); the input is not modified.
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


def echelon(rows, p) -> list[dict]:
    """Monic pivot rows, at distinct least columns, spanning the F_p-space of
    the {column: entry} rows; columns may be any totally ordered keys.
    Shortest rows first, each row is reduced by its least column against the
    pivots found so far, and what is left becomes a new pivot."""
    pivots: dict = {}
    for row in sorted(rows, key=len):
        row = {c: e % p for c, e in row.items() if e % p}
        while row:
            col = min(row)
            if col not in pivots:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: e * inv % p for c, e in row.items()}
                break
            factor = row[col]
            for c, e in pivots[col].items():
                row[c] = e = (row.get(c, 0) - factor * e) % p
                if not e:
                    del row[c]
    return list(pivots.values())


def rank(rows, p) -> int:
    """Rank over F_p of {column: entry} rows."""
    return len(echelon(rows, p))


def nullspace(matrix, p):
    """Basis of the right kernel as int64 vectors, free columns ascending."""
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

