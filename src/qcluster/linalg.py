"""Minimal exact linear algebra over the rationals.

Matrices carry explicit shapes so zero-dimensional spaces behave.  There is
no block assembly here: `decorated` writes each block's rows in place.  One
rule holds for every exact rational stored here and in `quiver` and
`decorated`: it is an int when it is integral and a fractions.Fraction only
when it is not (`exact`).  Every division goes through Fraction, so no value
is ever a float.  Vectors are column tuples.  Every span, basis, kernel and
coordinate question goes through one incremental `Echelon`, and so does the
Serre polynomial fit in `grassmannian`.  `rref` stays as a target the bench
tracer names and as the tests' reference row reduction.
"""

from __future__ import annotations

from fractions import Fraction


def exact(x):
    """The rational x as an int when it is integral, else as the Fraction x."""
    return x.numerator if x.denominator == 1 else x


class Mat:
    """An immutable rows x cols matrix of exact rationals (see `exact`)."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.a = tuple((0,) * cols for _ in range(rows))
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match shape")
            self.a = tuple(tuple(map(exact, r)) for r in entries)

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols)

    def column(self, j: int) -> tuple:
        return tuple(self.a[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.a for x in r)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.a == other.a)

    def __add__(self, other: "Mat") -> "Mat":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __sub__(self, other: "Mat") -> "Mat":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def scale(self, c) -> "Mat":
        return Mat(self.rows, self.cols, [[c * x for x in r] for r in self.a])

    def __mul__(self, other: "Mat") -> "Mat":
        assert self.cols == other.rows, "shape mismatch in matrix product"
        out = [[0] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            row = self.a[i]
            for t in range(self.cols):
                x = row[t]
                if x:
                    orow = other.a[t]
                    oi = out[i]
                    for j in range(other.cols):
                        if orow[j]:
                            oi[j] += x * orow[j]
        return Mat(self.rows, other.cols, out)

    def apply(self, v: tuple) -> tuple:
        assert len(v) == self.cols
        return tuple(sum(self.a[i][j] * v[j] for j in range(self.cols))
                     for i in range(self.rows))

    def __repr__(self):
        return f"Mat({self.rows}x{self.cols}, {[list(r) for r in self.a]})"


def rref(mat: Mat):
    """Reduced row echelon form; returns (Mat, pivot column list)."""
    a = [list(r) for r in mat.a]
    pivots = []
    r = 0
    for c in range(mat.cols):
        piv = next((i for i in range(r, mat.rows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = Fraction(1, a[r][c])
        a[r] = [x * inv for x in a[r]]
        for i in range(mat.rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == mat.rows:
            break
    return Mat(mat.rows, mat.cols, a), pivots


class Echelon:
    """A row echelon basis of the vectors added so far, built one at a time.

    Vectors are sparse {index: value} dicts.  Each stored row is keyed by
    its leading (smallest) index, scaled to lead 1, and records its
    combination {n: coefficient} of the added vectors, n counting every
    call to `add`, so one reduction both tests span membership and gives
    coordinates.
    """

    __slots__ = ("rows", "added")

    def __init__(self):
        self.rows: dict[int, tuple[dict, dict]] = {}
        self.added = 0

    def reduce(self, vec: dict):
        """(residual, combination) with vec = residual + sum c_n * vector n.

        The residual is zero at every leading index; it is {} exactly when
        vec lies in the span.
        """
        res = {i: x for i, x in vec.items() if x}
        comb = {}
        # each row is zero at the leads of the rows before it, so one pass in
        # insertion order leaves the residual zero at every lead
        for lead, (row, row_comb) in self.rows.items():
            f = res.get(lead)
            if not f:
                continue
            for i, x in row.items():
                s = res.get(i, 0) - f * x
                if s:
                    res[i] = s
                else:
                    del res[i]
            for n, x in row_comb.items():
                comb[n] = comb.get(n, 0) + f * x
        return res, comb

    def add(self, vec: dict):
        """Add vec: None when it is independent of the vectors before it,
        else its combination {n: c} of them."""
        res, comb = self.reduce(vec)
        n = self.added
        self.added += 1
        if not res:
            return comb
        lead = min(res)
        inv = exact(Fraction(1, res[lead]))
        comb = {m: exact(-x * inv) for m, x in comb.items()}
        comb[n] = inv
        self.rows[lead] = ({i: exact(x * inv) for i, x in res.items()}, comb)
        return None

    def extend(self, vectors) -> list[tuple]:
        """Add column tuples in order; those that were independent."""
        return [v for v in vectors if self.add(dict(enumerate(v))) is None]


def column_echelon(mat: Mat):
    """An Echelon of mat's columns, added in order.

    Returns (echelon, basis, kernel, coords).  `basis` holds the columns
    independent of the ones before them.  `kernel` is a basis of ker mat,
    one vector per other column j: e_j minus its combination of basis
    columns, the kernel read off the RREF.  `coords` is the len(basis) x
    cols Mat with B * coords = mat, where B has the columns of `basis`.  A
    combination index is a column index.
    """
    ech = Echelon()
    basis, kernel, coords, place = [], [], [], {}
    for j in range(mat.cols):
        col = mat.column(j)
        comb = ech.add(dict(enumerate(col)))
        if comb is None:
            place[j] = len(basis)
            basis.append(col)
            coords.append([0] * mat.cols)
            coords[-1][j] = 1
            continue
        vec = [0] * mat.cols
        vec[j] = 1
        for i, c in comb.items():
            vec[i] = exact(-c)
            coords[place[i]][j] = c
        kernel.append(tuple(vec))
    return ech, basis, kernel, Mat(len(basis), mat.cols, coords)
