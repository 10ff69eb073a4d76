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


def check_pivots(pivots, rows, ncols, p):
    """Pivot rows against the dense oracle on the rows they should span;
    returns that rank."""
    # reduced first: scaled entries can overflow int64 at p = 2^31 - 1
    dense = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    expected = len(rref(as_matrix(dense, ncols), p)[1])
    assert isinstance(pivots, list)
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
    return expected


def check_echelon(rows, ncols, p):
    """echelon, rank and nullspace of rows against the dense oracle."""
    expected = check_pivots(linalg.echelon(rows, p), rows, ncols, p)
    assert linalg.rank(rows, p) == expected
    dense = [[row.get(c, 0) % p for c in range(ncols)] for row in rows]
    # the reduced echelon form is unique, so the vectors agree one for one
    kernel = [tuple(int(x) for x in v) for v in oracles.nullspace(as_matrix(dense, ncols), p)]
    assert linalg.nullspace(rows, ncols, p) == kernel


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_sparse_rank_matches_dense_rref(rng, p):
    assert linalg.rank([], p) == 0
    assert linalg.rank([{}, {0: p}, {1: 0}], p) == 0
    assert linalg.echelon([{}, {0: p}], p) == []
    for _ in range(200):
        ncols = rng.randint(1, 10)
        check_echelon(random_sparse_rows(rng, p, rng.randint(0, 12), ncols), ncols, p)


def unit_heavy_rows(rng, p, ncols):
    """Rows most of which have one entry: duplicate and scaled unit rows,
    single entries that are 0 mod p, longer rows on unit columns, and rows
    left with one entry once the unit columns are struck."""
    units = rng.sample(range(ncols), rng.randint(1, ncols))
    rows = []
    for _ in range(rng.randint(1, 16)):
        kind = rng.random()
        if kind < 0.4:
            # a unit row, often a duplicate or multiple of another
            rows.append({rng.choice(units): rng.choice((1, -1, p + 1, rng.randrange(1, p)))})
        elif kind < 0.5:
            # one entry, but 0 mod p: no pivot
            rows.append({rng.randrange(ncols): rng.choice((0, p, -p))})
        elif kind < 0.6:
            # one entry left mod p among zeros
            cols = rng.sample(range(ncols), rng.randint(2, min(3, ncols)) if ncols > 1 else 1)
            rows.append({c: (rng.randrange(1, p) if i == 0 else p * rng.randint(-1, 1))
                         for i, c in enumerate(cols)})
        elif kind < 0.8:
            # one column off the units, the rest on them
            others = [c for c in range(ncols) if c not in units] or units
            row = {c: rng.randrange(1, p) for c in rng.sample(units, rng.randint(1, len(units)))}
            row[rng.choice(others)] = rng.randrange(-p, p)
            rows.append(row)
        else:
            cols = rng.sample(range(ncols), rng.randint(2, ncols) if ncols > 1 else 1)
            rows.append({c: rng.randrange(-2 * p, 2 * p) for c in cols})
    rng.shuffle(rows)
    return rows


def test_unit_pivots_example():
    # at p = 5: a unit row and a scaled duplicate, a lone entry 0 mod p, a
    # row with one entry left mod p, and two longer rows that keep one entry
    # once the unit columns 2 and 3 are struck
    rows = [{2: 3}, {2: 12}, {0: 5}, {0: 2, 2: 1}, {1: 10, 3: 4}, {1: 1, 2: 4, 3: 2}]
    assert linalg.echelon(rows, 5) == [{2: 1}, {3: 1}, {0: 1}, {1: 1}]
    assert linalg.nullspace(rows, 5, 5) == [(0, 0, 0, 0, 1)]
    assert rows[1] == {2: 12} and rows[3] == {0: 2, 2: 1}


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_unit_rows_match_dense_rref(rng, p):
    # single-entry rows become unit pivots before elimination; verify's
    # Frobenius image rows are nearly all of this kind
    for _ in range(300):
        ncols = rng.randint(1, 10)
        check_echelon(unit_heavy_rows(rng, p, ncols), ncols, p)


def check_seeded_echelon(seed, rest, ncols, p):
    """An elimination continued from earlier pivots, by stacking: echelon of
    the pivots of seed followed by rest, and of seed followed by rest, against
    the dense oracle on all the rows."""
    pivots = linalg.echelon(seed, p)
    before = [dict(row) for row in pivots]
    for stacked in (pivots + rest, seed + rest):
        expected = check_pivots(linalg.echelon(stacked, p), seed + rest, ncols, p)
        assert linalg.rank(stacked, p) == expected
    # the earlier pivots are read, never changed
    assert pivots == before


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_echelon_continues_from_earlier_pivots(rng, p):
    # verify stacks the longer Frobenius image rows above the annihilation
    # rows; any split of a row set, stacked again, gives the same span
    for _ in range(300):
        ncols = rng.randint(1, 10)
        if rng.random() < 0.5:
            rows = unit_heavy_rows(rng, p, ncols)
        else:
            rows = random_sparse_rows(rng, p, rng.randint(0, 12), ncols)
        cut = rng.randint(0, len(rows))
        check_seeded_echelon(rows[:cut], rows[cut:], ncols, p)


def test_unit_row_on_the_lead_of_a_seeded_pivot():
    # at p = 5 the earlier pivot {0: 1, 1: 2, 2: 3} leads at column 0, where
    # the unit row {0: 4} stacked after it lands: the unit pivot takes
    # column 0, and what is left of the longer row, {1: 2, 2: 3}, is reduced
    # instead of being lost
    seed = [{0: 1, 1: 2, 2: 3}]
    pivots = linalg.echelon(seed, 5)
    assert pivots == seed
    assert linalg.echelon(pivots + [{0: 4}], 5) == [{0: 1}, {1: 1, 2: 4}]
    assert linalg.rank(pivots + [{0: 4}], 5) == 2
    assert pivots == seed
    check_seeded_echelon(seed, [{0: 4}, {2: 1, 3: 1}], 4, 5)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2**31 - 1])
def test_row_order_leaves_rank_and_nullspace_unchanged(rng, p):
    # the longer rows are reduced in the order given: the work and the pivot
    # rows returned depend on it, the span does not
    for _ in range(300):
        ncols = rng.randint(1, 10)
        rows = unit_heavy_rows(rng, p, ncols)
        shuffled = rng.sample(rows, len(rows))
        assert linalg.rank(shuffled, p) == linalg.rank(rows, p)
        assert linalg.nullspace(shuffled, ncols, p) == linalg.nullspace(rows, ncols, p)


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
