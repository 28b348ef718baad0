"""Exact dense matrix algorithms over the supported rings.

Reduced row-echelon form and solving over fields, Hermite and Smith
normal forms over the integers, kernels, canonical column spans, and
the structure of finitely generated abelian cokernels.  Everything is
pure and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Optional, Sequence

from .errors import DescriptorMismatch, ShapeError, UnsupportedRing
from .rings import Integers, PolyQuotient, PrimeField, Rationals, RingDescriptor, RingElement, _cleared_fractions


@dataclass(frozen=True)
class RingMatrix:
    """Immutable dense matrix with entries in one ring.

    Entries are stored row-major as raw payloads; the descriptor
    supplies the arithmetic.
    """

    ring: RingDescriptor
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative matrix dimension")
        if len(self.entries) != self.rows * self.cols:
            raise ShapeError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} "
                f"entries, got {len(self.entries)}"
            )

    @staticmethod
    def from_rows(ring: RingDescriptor, rows: Sequence[Sequence], cols: Optional[int] = None) -> "RingMatrix":
        rows = [list(r) for r in rows]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise ShapeError("ragged rows")
            if cols is not None and cols != width:
                raise ShapeError(f"declared {cols} columns, rows have {width}")
            cols = width
        elif cols is None:
            cols = 0
        entries = tuple(ring.element(v).value for row in rows for v in row)
        return RingMatrix(ring, len(rows), cols, entries)

    @staticmethod
    def from_columns(ring: RingDescriptor, columns: Sequence[Sequence], rows: Optional[int] = None) -> "RingMatrix":
        columns = [list(c) for c in columns]
        if columns:
            height = len(columns[0])
            if any(len(c) != height for c in columns):
                raise ShapeError("ragged columns")
            if rows is not None and rows != height:
                raise ShapeError(f"declared {rows} rows, columns have {height}")
            rows = height
        elif rows is None:
            rows = 0
        data = [[col[i] for col in columns] for i in range(rows)]
        return RingMatrix.from_rows(ring, data, cols=len(columns))

    @staticmethod
    def _of_rows(ring: RingDescriptor, rows: Sequence[Sequence], cols: int) -> "RingMatrix":
        # Rows of payloads that are already canonical, as the package's
        # own algorithms produce them; nothing is re-canonicalised.
        return RingMatrix(ring, len(rows), cols, tuple(v for row in rows for v in row))

    @staticmethod
    def _of_columns(ring: RingDescriptor, columns: Sequence[Sequence], rows: int) -> "RingMatrix":
        return RingMatrix(ring, rows, len(columns), tuple(c[i] for i in range(rows) for c in columns))

    @staticmethod
    def zeros(ring: RingDescriptor, rows: int, cols: int) -> "RingMatrix":
        z = ring.zero()
        return RingMatrix(ring, rows, cols, (z,) * (rows * cols))

    @staticmethod
    def identity(ring: RingDescriptor, n: int) -> "RingMatrix":
        z, o = ring.zero(), ring.one()
        entries = tuple(o if i == j else z for i in range(n) for j in range(n))
        return RingMatrix(ring, n, n, entries)

    def entry(self, i: int, j: int):
        return self.entries[i * self.cols + j]

    def element(self, i: int, j: int) -> RingElement:
        return RingElement(self.ring, self.entry(i, j))

    def row_list(self, i: int) -> list:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def to_lists(self) -> list[list]:
        return [self.row_list(i) for i in range(self.rows)]

    def to_str_rows(self) -> list[list[str]]:
        fmt = self.ring.format_payload
        return [[fmt(v) for v in self.row_list(i)] for i in range(self.rows)]

    def column(self, j: int) -> "RingMatrix":
        entries = tuple(self.entry(i, j) for i in range(self.rows))
        return RingMatrix(self.ring, self.rows, 1, entries)

    def columns(self) -> list["RingMatrix"]:
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "RingMatrix":
        entries = tuple(self.entry(i, j) for j in range(self.cols) for i in range(self.rows))
        return RingMatrix(self.ring, self.cols, self.rows, entries)

    def _check_ring(self, other: "RingMatrix") -> None:
        if self.ring != other.ring:
            raise DescriptorMismatch(f"cannot mix {self.ring} with {other.ring}")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition needs equal shapes")
        add = self.ring.add
        entries = tuple(add(a, b) for a, b in zip(self.entries, other.entries))
        return RingMatrix(self.ring, self.rows, self.cols, entries)

    def __sub__(self, other: "RingMatrix") -> "RingMatrix":
        return self + (-other)

    def __neg__(self) -> "RingMatrix":
        neg = self.ring.neg
        return RingMatrix(self.ring, self.rows, self.cols, tuple(neg(a) for a in self.entries))

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        k, w = self.cols, other.cols
        rows = [self.entries[i * k : (i + 1) * k] for i in range(self.rows)]
        cols = [other.entries[j::w] for j in range(w)]
        return RingMatrix(self.ring, self.rows, w, tuple(self.ring.products(rows, cols)))

    def scale(self, scalar) -> "RingMatrix":
        s = self.ring.element(scalar).value
        mul = self.ring.mul
        return RingMatrix(self.ring, self.rows, self.cols, tuple(mul(s, a) for a in self.entries))

    def hstack(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        if self.rows != other.rows:
            raise ShapeError("hstack needs equal row counts")
        data = [self.row_list(i) + other.row_list(i) for i in range(self.rows)]
        return RingMatrix._of_rows(self.ring, data, self.cols + other.cols)

    def vstack(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        if self.cols != other.cols:
            raise ShapeError("vstack needs equal column counts")
        return RingMatrix(self.ring, self.rows + other.rows, self.cols, self.entries + other.entries)

    def block_diag(self, other: "RingMatrix") -> "RingMatrix":
        self._check_ring(other)
        top = self.hstack(RingMatrix.zeros(self.ring, self.rows, other.cols))
        bottom = RingMatrix.zeros(self.ring, other.rows, self.cols).hstack(other)
        return top.vstack(bottom)

    @property
    def is_zero(self) -> bool:
        z = self.ring.is_zero
        return all(z(a) for a in self.entries)

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(r) for r in self.to_str_rows()) + "]"


@dataclass(frozen=True)
class RrefResult:
    matrix: RingMatrix
    rank: int
    pivots: tuple[int, ...]
    transform: RingMatrix


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular and diagonal D whose entries
    form a divisibility chain d1 | d2 | ..."""

    U: RingMatrix
    D: RingMatrix
    V: RingMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        k = min(self.D.rows, self.D.cols)
        return tuple(self.D.entry(i, i) for i in range(k))


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Z^free_rank plus cyclic torsion Z/d1 x ... with d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        # Only the canonical form, so that equal groups compare equal.
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion entries must exceed 1")
        if any(e % d for d, e in zip(self.torsion, self.torsion[1:])):
            raise ValueError("torsion entries must form a divisibility chain")

    @property
    def is_free(self) -> bool:
        return not self.torsion

    def direct_sum(self, other: "AbelianGroupStructure") -> "AbelianGroupStructure":
        merged = list(self.torsion) + list(other.torsion)
        if not merged:
            return AbelianGroupStructure(self.free_rank + other.free_rank, ())
        # Canonicalise the combined torsion through the Smith form of a
        # diagonal relations matrix.
        k = len(merged)
        diag = [[merged[i] if i == j else 0 for j in range(k)] for i in range(k)]
        d = _snf_int(diag, k, k)
        factors = tuple(d[i][i] for i in range(k) if d[i][i] > 1)
        return AbelianGroupStructure(self.free_rank + other.free_rank, factors)

    def __str__(self) -> str:
        parts = ["Z"] * self.free_rank + [f"Z/{d}" for d in self.torsion]
        return " + ".join(parts) if parts else "0"


def _require_field(m: RingMatrix, what: str) -> None:
    if not m.ring.is_field:
        raise UnsupportedRing(f"{what} needs a field, got {m.ring}")


def _require_integers(m: RingMatrix, what: str) -> None:
    if not isinstance(m.ring, Integers):
        raise UnsupportedRing(f"{what} needs the integers, got {m.ring}")


def _gauss_jordan(ring: RingDescriptor, a: list[list], ncols: int) -> list[int]:
    """Reduce the rows ``a`` in place to reduced row-echelon form in their
    first ``ncols`` columns; returns the pivot columns.

    Columns past ``ncols`` are riders: they get the same row operations,
    so an appended identity becomes the row transform and an appended
    right-hand side its image under that transform.

    Over GF(p) the rows are residues: each pivot row is made monic with
    one modular inverse and each entry takes one ``% p``.  Over Q each
    row is cleared by the lcm d_i of its denominators and the
    elimination is fraction-free Gauss-Jordan (Bareiss 1968; Nakos,
    Turner and Williams 1997): every row but the pivot row becomes
    (pv * row - f * pivot_row) // prev, where pv is the pivot and prev
    the one before it.  Sylvester's identity makes each division exact,
    provided every other row is updated, also one whose entry f is
    already zero.  Afterwards a pivot row is D times its reduced form
    and any other row D * d_i times its remainder, D being the last
    pivot, so each nonzero output entry is one Fraction.
    """
    if isinstance(ring, Rationals):
        cleared = [_cleared_fractions(row) for row in a]
        a[:] = [row for row, _ in cleared]
        dens = [den for _, den in cleared]
        p = 0
    else:
        p = ring.p
    prev = 1
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        for sel in range(r, len(a)):
            if a[sel][col]:
                break
        else:
            continue
        a[r], a[sel] = a[sel], a[r]
        if p:
            inv = pow(a[r][col], -1, p)
            top = a[r] = [x * inv % p for x in a[r]]
            for i, row in enumerate(a):
                f = row[col]
                if f and i != r:
                    a[i] = [(x - f * y) % p for x, y in zip(row, top)]
        else:
            dens[r], dens[sel] = dens[sel], dens[r]
            top = a[r]
            pv = top[col]
            for i, row in enumerate(a):
                if i != r:
                    f = row[col]
                    a[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
            prev = pv
        pivots.append(col)
    if not p:
        zero = Fraction(0)
        rank = len(pivots)
        for i, row in enumerate(a):
            den = prev if i < rank else prev * dens[i]
            a[i] = [Fraction(x, den) if x else zero for x in row]
    return pivots


def rref(m: RingMatrix) -> RrefResult:
    """Reduced row-echelon form with its invertible row transform.

    Returns (R, rank, pivots, T) with T @ m = R.
    """
    _require_field(m, "rref")
    ring = m.ring
    a = m.hstack(RingMatrix.identity(ring, m.rows)).to_lists()
    pivots = _gauss_jordan(ring, a, m.cols)
    return RrefResult(
        RingMatrix._of_rows(ring, [row[: m.cols] for row in a], m.cols),
        len(pivots),
        tuple(pivots),
        RingMatrix._of_rows(ring, [row[m.cols :] for row in a], m.rows),
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_int(mat: list[list[int]], ncols: int):
    """Row-style Hermite form of the first ``ncols`` columns of ``mat``:
    returns the reduced rows and the pivot columns.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot).  Columns past ``ncols`` are riders that get the same
    row operations, so an appended identity becomes a unimodular U with
    U*mat = H.
    """
    h = list(mat)
    piv_row = 0
    pivots: list[int] = []
    for col in range(ncols):
        sel = None
        for i in range(piv_row, len(h)):
            if h[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        h[piv_row], h[sel] = h[sel], h[piv_row]
        for i in range(piv_row + 1, len(h)):
            if h[i][col] == 0:
                continue
            top, row = h[piv_row], h[i]
            g, s, t = _xgcd(top[col], row[col])
            p_, q_ = top[col] // g, row[col] // g
            if (s, t) != (1, 0):
                h[piv_row] = [s * x + t * y for x, y in zip(top, row)]
            h[i] = [-q_ * x + p_ * y for x, y in zip(top, row)]
        if h[piv_row][col] < 0:
            h[piv_row] = [-x for x in h[piv_row]]
        piv = h[piv_row][col]
        for i in range(piv_row):
            q = h[i][col] // piv
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[piv_row])]
        pivots.append(col)
        piv_row += 1
    return h, pivots


def hnf(m: RingMatrix) -> tuple[RingMatrix, RingMatrix]:
    """Hermite normal form (H, U) of an integer matrix with U @ m = H."""
    _require_integers(m, "hnf")
    ring = m.ring
    h, _ = _hnf_int(m.hstack(RingMatrix.identity(ring, m.rows)).to_lists(), m.cols)
    return (
        RingMatrix._of_rows(ring, [row[: m.cols] for row in h], m.cols),
        RingMatrix._of_rows(ring, [row[m.cols :] for row in h], m.rows),
    )


def _snf_int(mat: list[list[int]], nrows: int, ncols: int) -> list[list[int]]:
    """Smith form of the first ``nrows`` rows and ``ncols`` columns of
    ``mat``: returns the reduced rows, whose leading block is diagonal
    with entries forming a divisibility chain.

    The pivot is always a minimal-absolute-value nonzero entry of the
    remaining submatrix, which keeps intermediate growth low.  Columns
    past ``ncols`` ride along with the row operations and rows past
    ``nrows`` with the column operations, so identities appended there
    become unimodular U and V with U*mat*V = D.
    """
    a = [row[:] for row in mat]
    t = 0
    while t < min(nrows, ncols):
        best = None
        where = None
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
        if where is None:
            break
        i0, j0 = where
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        piv = a[t][t]
        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] == 0:
                continue
            q = a[i][t] // piv
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
            if a[i][t] != 0:
                dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] == 0:
                continue
            q = a[t][j] // piv
            if q:
                for row in a:
                    row[j] -= q * row[t]
            if a[t][j] != 0:
                dirty = True
        if dirty:
            continue
        offender = None
        for i in range(t + 1, nrows):
            if any(x % piv for x in a[i][t + 1 : ncols]):
                offender = i
                break
        if offender is not None:
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        t += 1
    return a


def snf(m: RingMatrix) -> SmithDecomposition:
    """Smith normal form of an integer matrix."""
    _require_integers(m, "snf")
    ring = m.ring
    u_riders = m.hstack(RingMatrix.identity(ring, m.rows)).to_lists()
    a = _snf_int(u_riders + RingMatrix.identity(ring, m.cols).to_lists(), m.rows, m.cols)
    return SmithDecomposition(
        RingMatrix._of_rows(ring, [row[m.cols :] for row in a[: m.rows]], m.rows),
        RingMatrix._of_rows(ring, [row[: m.cols] for row in a[: m.rows]], m.cols),
        RingMatrix._of_rows(ring, a[m.rows :], m.cols),
    )


def column_canonical(m: RingMatrix) -> RingMatrix:
    """Canonical generator matrix of the column span.

    Over a field this is the reduced-echelon basis of the column
    space; over the integers the Hermite basis of the column lattice.
    Two generator matrices span the same submodule exactly when their
    canonical forms are equal.
    """
    rows = m.transpose().to_lists()
    if isinstance(m.ring, Integers):
        rows, pivots = _hnf_int(rows, m.rows)
    else:
        _require_field(m, "column_canonical")
        pivots = _gauss_jordan(m.ring, rows, m.rows)
    return RingMatrix._of_columns(m.ring, rows[: len(pivots)], m.rows)


def column_space_sum(a: RingMatrix, b: RingMatrix) -> RingMatrix:
    """Canonical generators of col(a) + col(b)."""
    a._check_ring(b)
    if a.rows != b.rows:
        raise ShapeError("summed column spaces need equal ambient rank")
    return column_canonical(a.hstack(b))


def column_rank(m: RingMatrix) -> int:
    """Rank of the column span (lattice rank over the integers)."""
    return column_canonical(m).cols


def membership(v: RingMatrix, g: RingMatrix) -> bool:
    """Whether column v lies in the span of g's columns over the ring."""
    if v.cols != 1:
        raise ShapeError("membership expects a single column")
    if v.rows != g.rows:
        raise ShapeError("ambient ranks differ")
    if v.is_zero:
        return True
    return column_canonical(g) == column_canonical(g.hstack(v))


def solve_right(a: RingMatrix, b: RingMatrix) -> Optional[RingMatrix]:
    """Solve a @ X = b exactly; None when no solution exists.

    Over the integers only integral solutions count, found through the
    Hermite form of the column lattice.
    """
    a._check_ring(b)
    if a.rows != b.rows:
        raise ShapeError("solve_right needs equal row counts")
    if isinstance(a.ring, Integers):
        return _solve_right_int(a, b)
    _require_field(a, "solve_right")
    ring = a.ring
    rows = a.hstack(b).to_lists()
    pivots = _gauss_jordan(ring, rows, a.cols)
    for row in rows[len(pivots) :]:
        if any(not ring.is_zero(x) for x in row[a.cols :]):
            return None
    x = [[ring.zero() for _ in range(b.cols)] for _ in range(a.cols)]
    for row, pivot_col in zip(rows, pivots):
        x[pivot_col] = row[a.cols :]
    return RingMatrix._of_rows(ring, x, b.cols)


def _hermite_reduce(basis: list[list[int]], pivots: list[int], target: Sequence[int]) -> tuple[list, Sequence]:
    """Quotients y and remainder of target modulo a row Hermite basis.

    ``basis`` is a row-style Hermite basis (row r is zero before its
    pivot ``pivots[r]``, and the pivots increase).  Walking the pivots,
    y[r] is the floor quotient at pivot r and y[r] * basis[r] is
    subtracted, so the remainder is zero exactly when the target lies in
    the lattice, and y are then its coordinates.  Columns of ``basis``
    past the target's length are ignored.
    """
    y = []
    for row, p in zip(basis, pivots):
        q = target[p] // row[p]
        y.append(q)
        if q:
            target = [x - q * h for x, h in zip(target, row)]
    return y, target


def _back_substitute(basis: list[list[int]], pivots: list[int], target: Sequence[int]) -> Optional[list[int]]:
    """Coordinates of target over a row Hermite basis, or None when it
    is not in the lattice."""
    y, rest = _hermite_reduce(basis, pivots, target)
    return None if any(rest) else y


def _solve_right_int(a: RingMatrix, b: RingMatrix) -> Optional[RingMatrix]:
    n = a.rows
    # Rows [H | U] with U @ a^T = H, so a @ U^T is the column staircase H^T.
    h, pivots = _hnf_int(a.transpose().hstack(RingMatrix.identity(a.ring, a.cols)).to_lists(), n)
    cols_x = []
    for j in range(b.cols):
        y = _back_substitute(h, pivots, b.entries[j :: b.cols])
        if y is None:
            return None
        # x = U^T @ y
        cols_x.append([sum(row[n + i] * c for row, c in zip(h, y)) for i in range(a.cols)])
    return RingMatrix._of_columns(a.ring, cols_x, a.cols)


def kernel_basis(m: RingMatrix) -> RingMatrix:
    """Columns spanning ker(m): a basis over a field, a lattice basis
    over the integers.  The zero kernel yields a 0-column matrix."""
    ring = m.ring
    if isinstance(ring, Integers):
        h, pivots = _hnf_int(m.transpose().hstack(RingMatrix.identity(ring, m.cols)).to_lists(), m.rows)
        return RingMatrix._of_columns(ring, [row[m.rows :] for row in h[len(pivots) :]], m.cols)
    _require_field(m, "kernel_basis")
    rows = m.to_lists()
    pivots = _gauss_jordan(ring, rows, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        vec = [ring.zero()] * m.cols
        vec[f] = ring.one()
        for row, p in zip(rows, pivots):
            vec[p] = ring.neg(row[f])
        cols.append(vec)
    return RingMatrix._of_columns(ring, cols, m.cols)


def cokernel_structure(g: RingMatrix, ambient_rank: int) -> AbelianGroupStructure:
    """Structure of Z^ambient_rank / col(g) through the Smith form."""
    _require_integers(g, "cokernel_structure")
    if g.rows != ambient_rank:
        raise ShapeError("generators do not live in the stated ambient module")
    d = _snf_int(g.to_lists(), g.rows, g.cols)
    diag = [d[i][i] for i in range(min(g.rows, g.cols))]
    nonzero = [x for x in diag if x != 0]
    return AbelianGroupStructure(
        ambient_rank - len(nonzero),
        tuple(x for x in nonzero if x > 1),
    )


def _det_int(mat: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; divisions are exact.
    n = len(mat)
    if n == 0:
        return 1
    a = [row[:] for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _det_berkowitz(m: RingMatrix):
    # Division-free Berkowitz: the characteristic polynomial of each
    # leading principal block follows from the previous one by a
    # Toeplitz product, O(n^4) ring operations, exact in any commutative
    # ring, zero divisors included.
    ring = m.ring
    rows = m.to_lists()
    neg, dot = ring.neg, ring.dot
    poly = [ring.one()]  # det(x I - A_r), leading coefficient first
    for r in range(m.rows):
        head = [row[:r] for row in rows[:r]]
        col = [row[r] for row in rows[:r]]
        # First column of the Toeplitz factor: 1, -a_rr, -R C, -R A_r C, ...
        t = [ring.one(), neg(rows[r][r])]
        for k in range(r):
            if k:
                col = ring.products(head, (col,))
            t.append(neg(dot(rows[r][:r], col)))
        poly.append(ring.zero())
        poly = [dot(poly[: i + 1], t[i::-1]) for i in range(r + 2)]
    return poly[-1] if m.rows % 2 == 0 else neg(poly[-1])


def det(m: RingMatrix) -> RingElement:
    """Exact determinant of a square matrix."""
    if m.rows != m.cols:
        raise ShapeError("determinant needs a square matrix")
    ring = m.ring
    if isinstance(ring, Rationals):
        # Clearing row i's denominators scales the determinant by den_i.
        cleared = [_cleared_fractions(row) for row in m.to_lists()]
        num = _det_int([row for row, _ in cleared])
        return RingElement(ring, Fraction(num, prod(den for _, den in cleared)))
    if isinstance(ring, (Integers, PrimeField)):
        # Over GF(p) the residues are integers; the determinant commutes
        # with reduction mod p.
        return RingElement(ring, ring.from_int(_det_int(m.to_lists())))
    if isinstance(ring, PolyQuotient):
        return RingElement(ring, _det_berkowitz(m))
    raise UnsupportedRing(f"det not implemented over {ring}")


def invert(m: RingMatrix) -> Optional[RingMatrix]:
    """Two-sided inverse over a field, or None if singular."""
    _require_field(m, "invert")
    if m.rows != m.cols:
        raise ShapeError("inverse needs a square matrix")
    res = rref(m)
    if res.rank != m.rows:
        return None
    return res.transform
