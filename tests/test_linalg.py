import numpy as np
import pytest

import oracles

from oracles import as_matrix, in_row_space, rank, rref

from fsing import linalg
from fsing.linalg import nullspace


def random_matrix(rng, p, nrows, ncols):
    return as_matrix(
        [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)], ncols
    )


def sparse(matrix):
    """{column: entry} rows of a dense matrix."""
    return [{c: int(e) for c, e in enumerate(row) if e} for row in matrix]


def test_as_matrix_shapes():
    assert as_matrix([], 4).shape == (0, 4)
    assert as_matrix([[1, 2]], 2).shape == (1, 2)
    assert as_matrix([], 0).shape == (0, 0)


def test_rank_examples():
    assert rank(as_matrix([[1, 2], [2, 4]], 2), 5) == 1
    assert rank(as_matrix([[1, 0], [0, 1]], 2), 2) == 2
    assert rank(as_matrix([[2, 4], [1, 2]], 3), 3) == 1
    assert rank(as_matrix([], 3), 3) == 0
    assert rank(as_matrix([[0, 0, 0]], 3), 5) == 0


def random_sparse_rows(rng, p, nrows, ncols):
    """{column: entry} rows with zero, negative and >= p entries, empty
    rows, and duplicate or scaled copies of earlier rows."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            scale = rng.choice((1, -1, p + 1, rng.randrange(1, p)))
            rows.append({c: e * scale for c, e in rng.choice(rows).items()})
            continue
        cols = rng.sample(range(ncols), rng.randint(0, ncols))
        rows.append({c: rng.choice((0, p, rng.randrange(-2 * p, 2 * p))) for c in cols})
    return rows


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_sparse_rank_matches_dense_rref(rng, p):
    assert linalg.rank([], p) == 0
    assert linalg.rank([{}, {0: p}, {1: 0}], p) == 0
    assert linalg.echelon([{}, {0: p}], p) == []
    for _ in range(200):
        ncols = rng.randint(1, 10)
        rows = random_sparse_rows(rng, p, rng.randint(0, 12), ncols)
        # reduced first: scaled entries can overflow int64 at p = 2^31 - 1
        dense = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
        expected = len(rref(as_matrix(dense, ncols), p)[1])
        assert linalg.rank(rows, p) == expected
        pivots = linalg.echelon(rows, p)
        assert len(pivots) == expected
        # monic at distinct least columns, entries reduced and nonzero
        leads = [min(row) for row in pivots]
        assert len(set(leads)) == len(leads)
        assert all(row[lead] == 1 for row, lead in zip(pivots, leads))
        assert all(0 < e < p for row in pivots for e in row.values())
        # same row space: the pivots are independent, and stacking them on
        # the input adds no rank
        echelon_dense = [[row.get(c, 0) for c in range(ncols)] for row in pivots]
        assert rank(as_matrix(echelon_dense, ncols), p) == expected
        assert rank(as_matrix(dense + echelon_dense, ncols), p) == expected


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_sparse_nullspace_matches_dense_oracle(rng, p):
    # the reduced echelon form is unique, so the vectors agree one for one
    for _ in range(200):
        ncols = rng.randint(1, 10)
        rows = random_sparse_rows(rng, p, rng.randint(0, 12), ncols)
        dense = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
        expected = [tuple(int(x) for x in v)
                    for v in oracles.nullspace(as_matrix(dense, ncols), p)]
        assert linalg.nullspace(rows, ncols, p) == expected


def test_rref_known_cases():
    # det([[2,1],[1,4]]) = 7 = 2 mod 5: invertible
    R, pivots = rref(as_matrix([[2, 1], [1, 4]], 2), 5)
    assert np.array_equal(R, np.eye(2, dtype=np.int64))
    assert pivots == [0, 1]
    # det([[2,1],[1,3]]) = 5 = 0 mod 5: rank one
    R, pivots = rref(as_matrix([[2, 1], [1, 3]], 2), 5)
    assert np.array_equal(R, as_matrix([[1, 3], [0, 0]], 2))
    assert pivots == [0]


def _is_rref(R, p):
    pivots = []
    for row in np.asarray(R):
        nz = np.flatnonzero(row)
        if nz.size == 0:
            continue
        col = nz[0]
        if pivots and col <= pivots[-1]:
            return False
        if row[col] != 1:
            return False
        pivots.append(col)
    # pivot columns are elementary
    for col in pivots:
        if np.count_nonzero(np.asarray(R)[:, col]) != 1:
            return False
    return True


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_properties_random(rng, p):
    for _ in range(25):
        A = random_matrix(rng, p, rng.randint(0, 6), rng.randint(1, 8))
        R, pivots = rref(A, p)
        assert _is_rref(R, p)
        assert len(pivots) == rank(A, p)
        # row spaces agree in both directions
        for row in A:
            assert in_row_space(R, row, p)
        for row in R:
            if row.any():
                assert in_row_space(A, row, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_random(rng, p):
    for _ in range(25):
        ncols = rng.randint(1, 8)
        A = random_matrix(rng, p, rng.randint(0, 6), ncols)
        kernel = nullspace(sparse(A), ncols, p)
        assert len(kernel) == ncols - rank(A, p)
        for v in kernel:
            assert not ((A @ np.array(v)) % p).any()
        # kernel vectors are independent: each has 1 at its own free column
        # and 0 at the free columns of the others
        if kernel:
            K = as_matrix(kernel, ncols)
            assert rank(K, p) == len(kernel)


def test_nullspace_deterministic(rng):
    A = random_matrix(rng, 3, 4, 6)
    first = [tuple(v) for v in nullspace(sparse(A), 6, 3)]
    second = [tuple(v) for v in nullspace(sparse(A), 6, 3)]
    assert first == second


def test_nullspace_of_zero_matrix():
    kernel = nullspace([{0: 0, 1: 0, 2: 0}], 3, 5)
    assert len(kernel) == 3
    assert sorted(tuple(v) for v in kernel) == [
        (0, 0, 1),
        (0, 1, 0),
        (1, 0, 0),
    ]


def test_in_row_space_examples():
    A = as_matrix([[1, 1, 0], [0, 1, 1]], 3)
    assert in_row_space(A, np.array([1, 2, 1]), 5)
    assert not in_row_space(A, np.array([1, 0, 1]), 5)
    # empty matrix spans only zero
    assert in_row_space(as_matrix([], 3), np.zeros(3, dtype=np.int64), 5)
    assert not in_row_space(as_matrix([], 3), np.array([1, 0, 0]), 5)
