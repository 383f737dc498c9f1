"""Minimal exact linear algebra over the rationals.

Matrices carry explicit shapes so zero-dimensional spaces behave; entries
are fractions.Fraction throughout.  Vectors are column tuples.
"""

from __future__ import annotations

from fractions import Fraction


class Mat:
    """An immutable rows x cols matrix of Fractions."""

    __slots__ = ("rows", "cols", "a")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.a = tuple((Fraction(0),) * cols for _ in range(rows))
        else:
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise ValueError("entry grid does not match shape")
            self.a = tuple(tuple(Fraction(x) for x in r) for r in entries)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols)

    @staticmethod
    def from_columns(cols: list[tuple], dim: int) -> "Mat":
        return Mat(dim, len(cols), [[c[i] for c in cols] for i in range(dim)])

    def column(self, j: int) -> tuple:
        return tuple(self.a[i][j] for i in range(self.rows))

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.a for x in r)

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.a == other.a)

    def __hash__(self):
        return hash((self.rows, self.cols, self.a))

    def __add__(self, other: "Mat") -> "Mat":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __sub__(self, other: "Mat") -> "Mat":
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.a, other.a)])

    def __neg__(self) -> "Mat":
        return Mat(self.rows, self.cols, [[-x for x in r] for r in self.a])

    def scale(self, c) -> "Mat":
        c = Fraction(c)
        return Mat(self.rows, self.cols, [[c * x for x in r] for r in self.a])

    def __mul__(self, other: "Mat") -> "Mat":
        assert self.cols == other.rows, "shape mismatch in matrix product"
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
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


def hstack(mats: list[Mat]) -> Mat:
    rows = mats[0].rows if mats else 0
    assert all(m.rows == rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = [[Fraction(0)] * cols for _ in range(rows)]
    off = 0
    for m in mats:
        for i in range(rows):
            out[i][off:off + m.cols] = m.a[i]
        off += m.cols
    return Mat(rows, cols, out)


def vstack(mats: list[Mat]) -> Mat:
    cols = mats[0].cols if mats else 0
    assert all(m.cols == cols for m in mats)
    entries = [list(r) for m in mats for r in m.a]
    return Mat(len(entries), cols, entries)


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
        inv = Fraction(1) / a[r][c]
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


def rank(mat: Mat) -> int:
    return len(rref(mat)[1])


def column_space_basis(mat: Mat, reverse: bool = False) -> list[tuple]:
    """Basis of the column space chosen among the matrix's own columns."""
    order = range(mat.cols - 1, -1, -1) if reverse else range(mat.cols)
    basis: list[tuple] = []
    for j in order:
        cand = mat.column(j)
        if not in_span(basis, cand, mat.rows):
            basis.append(cand)
    return basis


def kernel_basis(mat: Mat) -> list[tuple]:
    """Columns v with mat v = 0."""
    red, pivots = rref(mat)
    free = [c for c in range(mat.cols) if c not in pivots]
    out = []
    for fc in free:
        v = [Fraction(0)] * mat.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.a[r][fc]
        out.append(tuple(v))
    return out


def in_span(basis: list[tuple], v: tuple, dim: int) -> bool:
    return coordinates_in(basis, v, dim) is not None


def coordinates_in(basis: list[tuple], v: tuple, dim: int):
    """Coordinates of v in the given (independent) columns, or None."""
    if not basis:
        return [] if all(x == 0 for x in v) else None
    aug = Mat(dim, len(basis) + 1,
              [[basis[j][i] for j in range(len(basis))] + [v[i]] for i in range(dim)])
    red, pivots = rref(aug)
    if len(basis) in pivots:
        return None
    coords = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        coords[pc] = red.a[r][len(basis)]
    return coords


def extend_basis(inner: list[tuple], outer: list[tuple], dim: int,
                 reverse: bool = False) -> list[tuple]:
    """Vectors from `outer` extending a basis of span(inner) to span(inner+outer)."""
    basis = list(inner)
    added = []
    cand = list(reversed(outer)) if reverse else list(outer)
    for v in cand:
        if not in_span(basis, v, dim):
            basis.append(v)
            added.append(v)
    return added


def solve_matrix(basis: list[tuple], target: Mat, dim: int) -> Mat:
    """X with from_columns(basis) * X = target; target columns must lie in span."""
    cols = []
    for j in range(target.cols):
        coords = coordinates_in(basis, target.column(j), dim)
        if coords is None:
            raise ValueError("column not in span")
        cols.append(tuple(coords))
    return Mat.from_columns(cols, len(basis))


def invert(mat: Mat) -> Mat:
    assert mat.rows == mat.cols
    aug = hstack([mat, Mat.identity(mat.rows)])
    red, pivots = rref(aug)
    if pivots[:mat.rows] != list(range(mat.rows)):
        raise ValueError("matrix is singular")
    return Mat(mat.rows, mat.rows, [row[mat.rows:] for row in red.a])
