"""Dense linear algebra over F_p on numpy integer matrices.

Entries stay in [0, p) with p word-sized, so int64 arithmetic never
overflows before the reductions mod p.
"""

import numpy as np


def as_matrix(rows, ncols) -> np.ndarray:
    """Stack an iterable of length-ncols vectors; empty input is (0, ncols)."""
    rows = list(rows)
    if not rows:
        return np.zeros((0, ncols), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


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


def rank(matrix, p) -> int:
    m = np.asarray(matrix)
    if m.size == 0:
        return 0
    return len(rref(m, p)[1])


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

