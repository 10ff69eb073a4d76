"""Linear algebra over F_p on sparse {column: entry} rows.

`echelon` is the one elimination: `rank` counts its pivot rows, and
`nullspace` back-substitutes them into the reduced echelon form.  Rows with
one nonzero entry are unit pivots, whose columns are struck from the other
rows before elimination (structured Gaussian elimination, LaMacchia-Odlyzko
1990).  The other rows are reduced in the order given: the span, and so the
rank and the reduced echelon form, do not depend on it, but the work and the
pivot rows returned do, so a caller that cares states its order.
"""


def echelon(rows, p) -> list[dict]:
    """Monic pivot rows, at distinct least columns, spanning the F_p-space of
    the {column: entry} rows; columns may be any totally ordered keys.  One
    pass takes each row with a single entry nonzero mod p as the unit pivot
    {c: 1}, and strikes the unit columns from the longer rows, a row
    operation that leaves the span unchanged.  Then, in the order given, each
    longer row is reduced by its least column against the pivots found so
    far, and what is left becomes a new pivot."""
    units, pivots, longer = set(), {}, []
    for row in rows:
        # a single-entry row is not copied
        if len(row) > 1:
            row = {c: e % p for c, e in row.items() if e % p}
        if len(row) > 1:
            longer.append(row)
        else:
            for c, e in row.items():
                if e % p and c not in units:
                    units.add(c)
                    pivots[c] = {c: 1}
    for row in longer:
        if units:
            row = {c: e for c, e in row.items() if c not in units}
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


def nullspace(rows, ncols, p) -> list[tuple[int, ...]]:
    """Basis of the right kernel of {column: entry} rows on columns
    0..ncols-1: one vector per free column, ascending, with 1 there, 0 at the
    other free columns and minus that column of the reduced echelon form at
    each pivot column."""
    reduced: dict = {}
    # largest pivot first, so the pivot rows to the right are already reduced
    for row in sorted(echelon(rows, p), key=min, reverse=True):
        lead = min(row)
        for col in [c for c in row if c in reduced]:
            factor = row[col]
            for c, e in reduced[col].items():
                row[c] = (row.get(c, 0) - factor * e) % p
        reduced[lead] = row
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        v = [0] * ncols
        v[free] = 1
        for col, row in reduced.items():
            v[col] = -row.get(free, 0) % p
        basis.append(tuple(v))
    return basis
