"""Exact dense matrix algorithms over the supported rings.

Reduced row-echelon form and solving over fields, Hermite and Smith
normal forms over the integers, kernels, canonical column spans, and
the structure of finitely generated abelian cokernels.  Everything is
pure and exact; there is no floating point anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Optional, Sequence

from .errors import DescriptorMismatch, ShapeError, UnsupportedRing
from .rings import Integers, Rationals, RingDescriptor, RingElement, _cleared_fractions


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

    def product_entries(self, other: "RingMatrix") -> Iterator:
        """Row-major entries of self @ other as a stream: each row is
        multiplied when the stream reaches it, so a comparison that
        stops at the first differing entry skips the rows after it."""
        self._check_ring(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        k, w = self.cols, other.cols
        rows = (self.entries[i * k : (i + 1) * k] for i in range(self.rows))
        cols = [other.entries[j::w] for j in range(w)]
        return self.ring.products(rows, cols)

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        return RingMatrix(self.ring, self.rows, other.cols, tuple(self.product_entries(other)))

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


def _snf_int(mat: list[list[int]], nrows: int, ncols: int) -> list[list[int]]:
    """Smith form of the first ``nrows`` rows and ``ncols`` columns of
    ``mat``: returns the reduced rows, whose leading block is diagonal
    with entries forming a divisibility chain.

    The pivot is always the first minimal-absolute-value nonzero entry
    of the remaining submatrix, which keeps intermediate growth low.
    Columns past ``ncols`` ride along with the row operations and rows
    past ``nrows`` with the column operations, so identities appended
    there become unimodular U and V with U*mat*V = D.
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
                    if best == 1:
                        break
            if best == 1:
                # No entry is smaller: the search ends at the first unit.
                break
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


def _saturated(rows: Sequence[Sequence[int]], n: int) -> Optional[bool]:
    """Whether Z^n / span(rows) is free, for independent integer rows
    of length n: True when it is free, False when it has torsion, and
    None when a row depends on those before it (undecided).

    Unimodular column operations, row by row, over the columns not yet
    used: when the row's entries there have a gcd g other than 1 the
    quotient has torsion; otherwise extended-gcd merges of two columns
    at a time make an entry +-1, the other columns are cleared against
    it, and that column is retired.  Column operations keep the gcd of
    the maximal minors, and the end form [T | 0] has the one nonzero
    maximal minor det T = +-prod g, so the quotient is free exactly when
    every g is 1 (Newman, Integral Matrices, 1972, ch. II).  A row that
    vanishes on the remaining columns is a combination of the rows
    before it.  True is exact for any rows, False only for independent
    ones: a later row may undo the torsion of the earlier ones.

    On a Hermite basis with unit pivots each row finds its 1 at its own
    pivot, where the rows below are zero, so no column work happens and
    the test costs O(n d).  The rows are not changed.
    """
    a = [list(row) for row in rows]
    live = list(range(n))
    for k, row in enumerate(a):
        nonzero = [j for j in live if row[j]]
        if not nonzero:
            return None
        for p in nonzero:
            if row[p] in (1, -1):
                break
        else:
            if gcd(*(row[j] for j in nonzero)) != 1:
                return False
            p = nonzero[0]
            for j in nonzero[1:]:
                g, s, t = _xgcd(row[p], row[j])
                x, y = row[p] // g, row[j] // g
                for r in a[k:]:
                    r[p], r[j] = s * r[p] + t * r[j], x * r[j] - y * r[p]
                if g == 1:
                    break
        live.remove(p)
        # Clearing the row against column p changes only the rows below
        # that are nonzero there.
        below = [r for r in a[k + 1 :] if r[p]]
        if below:
            u = row[p]
            clear = [(j, u * row[j]) for j in live if row[j]]
            for r in below:
                c = r[p]
                for j, f in clear:
                    r[j] -= f * c
    return True


def cokernel_structure(g: RingMatrix, ambient_rank: int) -> AbelianGroupStructure:
    """Structure of Z^ambient_rank / col(g).

    The saturation test decides a free quotient without a Smith form;
    ``_snf_int`` runs only when it finds torsion or dependent columns.
    """
    _require_integers(g, "cokernel_structure")
    if g.rows != ambient_rank:
        raise ShapeError("generators do not live in the stated ambient module")
    return _cokernel_of_rows([g.entries[j :: g.cols] for j in range(g.cols)], ambient_rank)


def _cokernel_of_rows(rows: Sequence[Sequence[int]], n: int) -> AbelianGroupStructure:
    """Structure of Z^n / span(rows), for integer rows of length n: free
    of rank n - len(rows) when the saturation test says so, and otherwise
    read from a Smith form."""
    if _saturated(rows, n):
        return AbelianGroupStructure(n - len(rows), ())
    return _smith_cokernel(rows, n)


def _smith_cokernel(rows: Sequence[Sequence[int]], n: int) -> AbelianGroupStructure:
    """Structure of Z^n / span(rows), for integer rows of length n, read
    from the Smith form of the n x len(rows) matrix whose columns they are."""
    d = _snf_int([list(col) for col in zip(*rows)], n, len(rows))
    nonzero = [x for x in (d[i][i] for i in range(min(n, len(rows)))) if x != 0]
    return AbelianGroupStructure(n - len(nonzero), tuple(x for x in nonzero if x > 1))


def det(m: RingMatrix) -> RingElement:
    """Exact determinant of a square matrix over any supported ring.

    Division-free Berkowitz (1984): the characteristic polynomial of
    each leading principal block follows from the previous one by a
    Toeplitz product, O(n^4) ring operations, exact in any commutative
    ring, zero divisors included.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant needs a square matrix")
    ring = m.ring
    rows = m.to_lists()
    neg, products = ring.neg, ring.products

    def dot(xs, ys):
        return next(products((xs,), (ys,)))

    poly = [ring.one()]  # det(x I - A_r), leading coefficient first
    for r in range(m.rows):
        head = [row[:r] for row in rows[:r]]
        col = [row[r] for row in rows[:r]]
        # First column of the Toeplitz factor: 1, -a_rr, -R C, -R A_r C, ...
        t = [ring.one(), neg(rows[r][r])]
        for k in range(r):
            if k:
                col = list(products(head, (col,)))
            t.append(neg(dot(rows[r][:r], col)))
        poly.append(ring.zero())
        poly = [dot(poly[: i + 1], t[i::-1]) for i in range(r + 2)]
    return RingElement(ring, poly[-1] if m.rows % 2 == 0 else neg(poly[-1]))


def invert(m: RingMatrix) -> Optional[RingMatrix]:
    """Two-sided inverse over a field, or None if singular."""
    _require_field(m, "invert")
    if m.rows != m.cols:
        raise ShapeError("inverse needs a square matrix")
    res = rref(m)
    if res.rank != m.rows:
        return None
    return res.transform
