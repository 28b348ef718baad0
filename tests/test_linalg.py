"""Echelon forms, normal forms, kernels, and cokernel structure."""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsys import (
    AbelianGroupStructure,
    Integers,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingMatrix,
    ShapeError,
    cokernel_structure,
    column_canonical,
    column_rank,
    column_space_sum,
    det,
    hnf,
    kernel_basis,
    membership,
    parse_polynomial,
    rref,
    snf,
    solve_right,
)
from ringsys import linalg
from ringsys.linalg import _det_berkowitz
from ringsys.rings import PRIME_BOUND
from util import minors_gcd_invariants, rand_matrix, reference_det_expansion, reference_gauss_jordan

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def rank_deficient(ring, rows, cols, rng):
    """A random rows x cols matrix of rank at most min(rows, cols) - 1,
    through a thinner inner dimension (the zero matrix when that is 0)."""
    inner = rng.randint(0, max(min(rows, cols) - 1, 0))
    return rand_matrix(ring, rows, inner, rng) @ rand_matrix(ring, inner, cols, rng)


class TestConstruction:
    def test_from_columns_declared_height(self):
        assert RingMatrix.from_columns(Q, [[1, 2]], rows=2) == mat(Q, [[1], [2]])
        assert RingMatrix.from_columns(Q, [], rows=3) == RingMatrix.zeros(Q, 3, 0)
        with pytest.raises(ShapeError):
            RingMatrix.from_columns(Q, [[1, 2]], rows=3)
        with pytest.raises(ShapeError):
            RingMatrix.from_columns(Z, [[1, 2], [3, 4]], rows=0)


class TestRref:
    def test_identity(self):
        res = rref(RingMatrix.identity(Q, 3))
        assert res.rank == 3
        assert res.pivots == (0, 1, 2)

    def test_gf2_all_ones(self):
        assert rref(mat(F2, [[1, 1], [1, 1]])).rank == 1

    def test_dependent_rows(self):
        # hand row-reduction: rows 1 and 2 proportional, third independent
        res = rref(mat(Q, [[1, 2], [2, 4], [0, 1]]))
        assert res.rank == 2

    def test_transform_and_echelon_axioms(self):
        rng = random.Random(42)
        for _ in range(150):
            m = rand_matrix(Q, rng.randint(0, 5), rng.randint(0, 5), rng)
            res = rref(m)
            assert res.transform @ m == res.matrix
            # pivot columns are unit vectors, pivots strictly increase
            for r, c in enumerate(res.pivots):
                col = [res.matrix.entry(i, c) for i in range(m.rows)]
                assert col[r] == Fraction(1)
                assert all(x == 0 for i, x in enumerate(col) if i != r)
            assert list(res.pivots) == sorted(res.pivots)
            assert res.rank == rref(m.transpose()).rank

    def test_rank_deficient_transform_pinned(self):
        # rows cleared by different denominators (6, 4, 35); the second
        # is 3/2 times the first, so the last row of T is its own
        # remainder, which the kernel scales back by its denominator
        res = rref(mat(Q, [["1/2", "1/3", "1"], ["3/4", "1/2", "3/2"], ["2/5", "0", "1/7"]]))
        assert (res.rank, res.pivots) == (2, (0, 1))
        assert res.matrix.to_str_rows() == [["1", "0", "5/14"], ["0", "1", "69/28"], ["0", "0", "0"]]
        assert res.transform.to_str_rows() == [["0", "0", "5/2"], ["3", "0", "-15/4"], ["-3/2", "1", "0"]]

    def test_needs_field(self):
        with pytest.raises(Exception):
            rref(mat(Z, [[1]]))


class TestSolveRight:
    def test_identity_solution(self):
        b = mat(Q, [[1, 2], [3, 4]])
        assert solve_right(RingMatrix.identity(Q, 2), b) == b

    def test_integer_divisibility(self):
        assert solve_right(mat(Z, [[2]]), mat(Z, [[3]])) is None
        assert solve_right(mat(Q, [[2]]), mat(Q, [[3]])) == mat(Q, [["3/2"]])

    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_solutions_check_out(self, ring):
        rng = random.Random(7)
        hits = 0
        for _ in range(200):
            a = rand_matrix(ring, rng.randint(1, 4), rng.randint(1, 4), rng)
            b = rand_matrix(ring, a.rows, rng.randint(1, 2), rng)
            x = solve_right(a, b)
            if x is not None:
                assert a @ x == b
                hits += 1
        assert hits > 10

    def test_constructed_instances_are_found(self):
        rng = random.Random(13)
        for ring in (Q, Z, F2):
            for _ in range(100):
                a = rand_matrix(ring, rng.randint(1, 4), rng.randint(1, 4), rng)
                x_true = rand_matrix(ring, a.cols, 2, rng)
                b = a @ x_true
                x = solve_right(a, b)
                assert x is not None and a @ x == b


class TestKernel:
    def test_zero_kernel(self):
        assert kernel_basis(RingMatrix.identity(Q, 3)).cols == 0

    def test_full_kernel(self):
        k = kernel_basis(RingMatrix.zeros(Q, 2, 2))
        assert k.cols == 2 and column_rank(k) == 2

    def test_sum_constraint(self):
        m = mat(Q, [[1, 1, 1]])
        k = kernel_basis(m)
        assert (m @ k).is_zero and column_rank(k) == 2

    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_kernel_axioms(self, ring):
        rng = random.Random(3)
        for _ in range(120):
            m = rand_matrix(ring, rng.randint(0, 4), rng.randint(0, 4), rng)
            k = kernel_basis(m)
            assert (m @ k).is_zero
            assert column_rank(k) == k.cols

    def test_integer_kernel_is_saturated(self):
        # lattice kernel: membership of any rational kernel vector scaled
        # to integrality
        m = mat(Z, [[2, -4]])
        k = kernel_basis(m)
        assert column_canonical(k) == mat(Z, [[2], [1]])


class TestFieldKernelsAgainstRref:
    """column_canonical, kernel_basis and solve_right over fields read off
    what the public rref gives: its R rows and T @ b."""

    @staticmethod
    def cases(ring, rng):
        for k in range(150):
            r, c = rng.randint(0, 5), rng.randint(0, 5)
            if k % 10 == 0:
                r = 0
            elif k % 10 == 1:
                c = 0
            yield rank_deficient(ring, r, c, rng) if k % 2 else rand_matrix(ring, r, c, rng)

    @pytest.mark.parametrize("ring", [Q, F2, PrimeField(101)], ids=str)
    def test_column_canonical(self, ring):
        for m in self.cases(ring, random.Random(5)):
            res = rref(m.transpose())
            rows = [res.matrix.row_list(i) for i in range(res.rank)]
            assert column_canonical(m) == RingMatrix.from_rows(ring, rows, cols=m.rows).transpose()

    @pytest.mark.parametrize("ring", [Q, F2, PrimeField(101)], ids=str)
    def test_kernel_basis(self, ring):
        for m in self.cases(ring, random.Random(6)):
            res = rref(m)
            cols = []
            for f in (c for c in range(m.cols) if c not in res.pivots):
                vec = [ring.zero()] * m.cols
                vec[f] = ring.one()
                for r, p in enumerate(res.pivots):
                    vec[p] = ring.neg(res.matrix.entry(r, f))
                cols.append(vec)
            assert kernel_basis(m) == RingMatrix.from_columns(ring, cols, rows=m.cols)

    @pytest.mark.parametrize("ring", [Q, F2, PrimeField(101)], ids=str)
    def test_solve_right(self, ring):
        rng = random.Random(7)
        solved = 0
        for a in self.cases(ring, rng):
            b = rand_matrix(ring, a.rows, rng.randint(0, 2), rng)
            if rng.random() < 0.5:
                b = a @ rand_matrix(ring, a.cols, b.cols, rng)
            res = rref(a)
            c = res.transform @ b
            x = solve_right(a, b)
            if not all(c.row_list(i) == [ring.zero()] * b.cols for i in range(res.rank, a.rows)):
                assert x is None
                continue
            expected = [[ring.zero()] * b.cols for _ in range(a.cols)]
            for r, p in enumerate(res.pivots):
                expected[p] = c.row_list(r)
            assert x == RingMatrix.from_rows(ring, expected, cols=b.cols)
            solved += 1
        assert solved > 50


class TestHnf:
    def test_diagonal_fixed_point(self):
        h, u = hnf(mat(Z, [[2, 0], [0, 3]]))
        assert h == mat(Z, [[2, 0], [0, 3]])
        assert u == RingMatrix.identity(Z, 2)

    def test_gcd_column(self):
        h, u = hnf(mat(Z, [[4], [6]]))
        assert u @ mat(Z, [[4], [6]]) == h
        assert h == mat(Z, [[2], [0]])

    def test_zero_matrix(self):
        m = RingMatrix.zeros(Z, 2, 2)
        h, u = hnf(m)
        assert h == m and u == RingMatrix.identity(Z, 2)

    def test_axioms_random(self):
        from ringsys.linalg import _det_int

        rng = random.Random(77)
        for _ in range(200):
            m = rand_matrix(Z, rng.randint(0, 5), rng.randint(0, 5), rng, span=9)
            h, u = hnf(m)
            assert u @ m == h
            assert abs(_det_int(u.to_lists())) == 1
            # echelon with positive pivots, reduced entries above
            last = -1
            for i in range(h.rows):
                row = h.row_list(i)
                nz = next((j for j, x in enumerate(row) if x), None)
                if nz is None:
                    assert all(not any(h.row_list(r)) for r in range(i, h.rows))
                    break
                assert nz > last
                last = nz
                piv = row[nz]
                assert piv > 0
                for r in range(i):
                    assert 0 <= h.entry(r, nz) < piv


class TestSnf:
    def test_diag_2_3(self):
        # oracle: d1 = gcd of entries = 1, d1*d2 = gcd of 2x2 minors = 6
        d = snf(mat(Z, [[2, 0], [0, 3]]))
        assert d.invariant_factors == (1, 6)

    def test_identity_and_zero(self):
        assert snf(RingMatrix.identity(Z, 3)).invariant_factors == (1, 1, 1)
        assert snf(mat(Z, [[0]])).invariant_factors == (0,)

    def test_axioms_random(self):
        from ringsys.linalg import _det_int

        rng = random.Random(11)
        for _ in range(250):
            m = rand_matrix(Z, rng.randint(0, 6), rng.randint(0, 6), rng, span=9)
            dec = snf(m)
            assert dec.U @ m @ dec.V == dec.D
            assert abs(_det_int(dec.U.to_lists())) == 1
            assert abs(_det_int(dec.V.to_lists())) == 1
            facs = dec.invariant_factors
            for a, b in zip(facs, facs[1:]):
                assert a >= 0 and b >= 0
                if a == 0:
                    assert b == 0
                else:
                    assert b % a == 0

    def test_against_minors_gcd_oracle(self):
        rng = random.Random(23)
        for _ in range(120):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            rows = [[rng.randint(-6, 6) for _ in range(m)] for _ in range(n)]
            expected = minors_gcd_invariants(rows)
            got = list(snf(mat(Z, rows)).invariant_factors)
            assert got == expected


class TestTransformFree:
    def test_same_forms_as_transformed(self):
        # H, D, the echelon form and the pivots do not depend on what
        # rides along: identity columns for U (and the field transform),
        # identity rows below for V.
        from ringsys.linalg import _gauss_jordan, _hnf_int, _snf_int

        rng = random.Random(31)
        for k in range(200):
            r, c = rng.randint(0, 6), rng.randint(0, 6)
            if k % 3 == 0:  # rank at most 2: a product through `inner` dimensions
                inner = rng.randint(0, 2)
                left = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(r)]
                right = [[rng.randint(-4, 4) for _ in range(c)] for _ in range(inner)]
                rows = [[sum(x * y for x, y in zip(lr, col)) for col in zip(*right)] if inner else [0] * c for lr in left]
            else:
                rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
            with_u = [row + [1 if i == j else 0 for j in range(r)] for i, row in enumerate(rows)]
            h, pivots = _hnf_int(rows, c)
            hu, u_pivots = _hnf_int(with_u, c)
            assert u_pivots == pivots and [row[:c] for row in hu] == h
            d = _snf_int(rows, r, c)
            duv = _snf_int(with_u + [[1 if i == j else 0 for j in range(c)] for i in range(c)], r, c)
            assert [row[:c] for row in duv[:r]] == d
            reduced = [[Fraction(x, 3) for x in row] for row in rows]
            with_t = [row + [Fraction(x) for x in u[c:]] for row, u in zip(reduced, with_u)]
            f_pivots = _gauss_jordan(Q, reduced, c)
            assert _gauss_jordan(Q, with_t, c) == f_pivots
            assert [row[:c] for row in with_t] == reduced


class TestBackSubstitution:
    def test_agrees_with_solve_right(self):
        # Coordinates over a Hermite basis by back-substitution, against
        # solve_right: exact for lattice members, None for targets off by
        # a multiple the pivot does not divide or outside the span.
        from ringsys.linalg import _back_substitute

        rng = random.Random(41)
        seen = set()
        for k in range(300):
            n = rng.randint(1, 6)
            basis = column_canonical(rand_matrix(Z, n, rng.randint(0, 5), rng, span=4))
            rows = [list(basis.entries[j :: basis.cols]) for j in range(basis.cols)]
            pivots = [next(p for p, x in enumerate(r) if x) for r in rows]
            coeffs = [rng.randint(-5, 5) for _ in rows]
            inside = [sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n)]
            targets = [(inside, coeffs)]
            for r, p in zip(rows, pivots):
                if r[p] > 1:
                    off = inside[:]
                    off[p] += rng.choice([t for t in range(1, 2 * r[p]) if t % r[p]])
                    targets.append((off, None))
            for j in set(range(n)) - set(pivots):
                targets.append(([x + (i == j) for i, x in enumerate(inside)], None))
            for target, expected in targets:
                y = _back_substitute(rows, pivots, target)
                assert y == expected
                x = solve_right(basis, RingMatrix.from_columns(Z, [target], rows=n))
                assert (x is None) == (y is None)
                if x is not None:
                    assert list(x.entries) == y
                seen.add((len(rows), expected is None))
        assert {(0, False), (0, True), (5, False), (5, True)} <= seen

    def test_zero_column_basis(self):
        from ringsys.linalg import _back_substitute

        assert _back_substitute([], [], [0, 0, 0]) == []
        assert _back_substitute([], [], [0, 1, 0]) is None
        assert _back_substitute([], [], []) == []
        empty = RingMatrix.zeros(Z, 3, 0)
        assert solve_right(empty, mat(Z, [[0], [0], [0]])) == RingMatrix.zeros(Z, 0, 1)
        assert solve_right(empty, mat(Z, [[0], [1], [0]])) is None


class TestColumnSpaces:
    def test_unit_vectors(self):
        e1 = mat(Q, [[1], [0], [0]])
        e2 = mat(Q, [[0], [1], [0]])
        s = column_space_sum(e1, e2)
        assert s.cols == 2 and membership(e1, s) and membership(e2, s)

    def test_idempotent(self):
        rng = random.Random(5)
        for ring in (Q, Z, F2):
            for _ in range(60):
                a = rand_matrix(ring, rng.randint(1, 4), rng.randint(0, 3), rng)
                assert column_space_sum(a, a).cols == column_rank(a)

    def test_gcd_lattice(self):
        a = mat(Z, [[2], [0]])
        b = mat(Z, [[3], [0]])
        assert column_space_sum(a, b) == mat(Z, [[1], [0]])

    def test_commutative_associative_canonical(self):
        rng = random.Random(9)
        for ring in (Q, Z, F2):
            for _ in range(60):
                n = rng.randint(1, 4)
                a = rand_matrix(ring, n, rng.randint(0, 3), rng)
                b = rand_matrix(ring, n, rng.randint(0, 3), rng)
                c = rand_matrix(ring, n, rng.randint(0, 3), rng)
                assert column_space_sum(a, b) == column_space_sum(b, a)
                assert column_space_sum(column_space_sum(a, b), c) == column_space_sum(
                    a, column_space_sum(b, c)
                )


class TestMembership:
    def test_zero_always_member(self):
        assert membership(RingMatrix.zeros(Z, 3, 1), RingMatrix.zeros(Z, 3, 0))

    def test_integer_scaling(self):
        g = mat(Z, [[2], [0]])
        assert not membership(mat(Z, [[1], [0]]), g)
        assert membership(mat(Q, [[1], [0]]), mat(Q, [[2], [0]]))

    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_agrees_with_solve_right(self, ring):
        rng = random.Random(31)
        for _ in range(170):
            n = rng.randint(1, 4)
            g = rand_matrix(ring, n, rng.randint(0, 3), rng)
            v = rand_matrix(ring, n, 1, rng)
            assert membership(v, g) == (solve_right(g, v) is not None)


class TestCokernel:
    def test_free(self):
        assert cokernel_structure(RingMatrix.zeros(Z, 3, 0), 3) == AbelianGroupStructure(3, ())

    def test_z_mod_2(self):
        assert cokernel_structure(mat(Z, [[2]]), 1) == AbelianGroupStructure(0, (2,))

    def test_torsion_six(self):
        assert cokernel_structure(mat(Z, [[2, 0], [0, 3]]), 2) == AbelianGroupStructure(0, (6,))

    def test_direct_sum_canonicalises(self):
        a = AbelianGroupStructure(1, (2,))
        b = AbelianGroupStructure(0, (3,))
        assert a.direct_sum(b) == AbelianGroupStructure(1, (6,))
        c = AbelianGroupStructure(0, (2,))
        assert a.direct_sum(c) == AbelianGroupStructure(1, (2, 2))

    @pytest.mark.parametrize(
        "free_rank, torsion",
        [(0, (2, 3)), (1, (4, 2)), (0, (2, 4, 6)), (-1, ()), (0, (1,)), (0, (0,))],
        ids=["coprime", "decreasing", "broken-chain", "negative-rank", "unit", "zero"],
    )
    def test_only_the_canonical_form_is_accepted(self, free_rank, torsion):
        # Z/2 + Z/3 is Z/6; accepting (2, 3) would make two spellings of
        # one group compare unequal.
        with pytest.raises(ValueError):
            AbelianGroupStructure(free_rank, torsion)
        assert AbelianGroupStructure(0, (2, 4, 12)).torsion == (2, 4, 12)


class TestDet:
    def test_identity_and_swap(self):
        assert str(det(RingMatrix.identity(Q, 4))) == "1"
        assert str(det(mat(Q, [[0, 1], [1, 0]]))) == "-1"

    def test_integer_matches_field(self):
        rng = random.Random(2)
        for _ in range(120):
            n = rng.randint(0, 5)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            di = det(mat(Z, rows))
            dq = det(mat(Q, rows))
            assert Fraction(di.value) == dq.value

    def test_quotient_ring_triangular(self):
        vars_ = ("x", "y", "z")
        ring = PolyQuotient(vars_, parse_polynomial("x^2+y^2+z^2-1", vars_))
        rows = [
            ["1", "0", "0", "0", "0"],
            ["x", "1", "0", "0", "0"],
            ["y", "0", "1", "0", "0"],
            ["z", "0", "0", "1", "0"],
            ["0", "0", "0", "0", "1"],
        ]
        assert str(det(RingMatrix.from_rows(ring, rows))) == "1"

    def test_quotient_ring_uses_relation(self):
        vars_ = ("x", "y", "z")
        ring = PolyQuotient(vars_, parse_polynomial("x^2+y^2+z^2-1", vars_))
        m = RingMatrix.from_rows(ring, [["x", "-1*y"], ["y", "x"]])
        assert str(det(m)) == "y^2 + x^2"
        m2 = RingMatrix.from_rows(ring, [["z", "-1"], ["x^2+y^2", "z"]])
        assert str(det(m2)) == "1"

    def test_shape_guard(self):
        with pytest.raises(ShapeError):
            det(mat(Q, [[1, 2]]))

    def test_berkowitz_matches_subset_expansion(self):
        vars_ = ("x", "y", "z")
        sphere = PolyQuotient(vars_, parse_polynomial("x^2+y^2+z^2-1", vars_))
        gf7 = PrimeField(7)
        lits = ["0", "0", "1", "-1", "x", "y", "z", "x*y-z", "2*z^2+x", "1/2*y"]
        rng = random.Random(71)
        for n in range(7):
            for _ in range(4):
                m = RingMatrix.from_rows(sphere, [[rng.choice(lits) for _ in range(n)] for _ in range(n)], cols=n)
                assert det(m).value == reference_det_expansion(m)
                m7 = rand_matrix(gf7, n, n, rng)
                assert _det_berkowitz(m7) == reference_det_expansion(m7) == det(m7).value
        # Bareiss on cleared rows over Q and on residues over GF(p), up to
        # the largest prime below PRIME_BOUND; singular inputs included.
        big = PrimeField(3_317_044_064_679_887_385_961_813)
        assert 0 < PRIME_BOUND - big.p < 200
        rng = random.Random(17)
        for n in range(7):
            for _ in range(6):
                rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)] for _ in range(n)]
                m = RingMatrix.from_rows(Q, rows, cols=n)
                assert det(m).value == reference_det_expansion(m)
                for ring in (F2, PrimeField(101), big):
                    m = RingMatrix.from_rows(ring, [[rng.randrange(ring.p) for _ in range(n)] for _ in range(n)], cols=n)
                    singular = rank_deficient(ring, n, n, rng)
                    assert det(m).value == reference_det_expansion(m)
                    assert det(singular).value == reference_det_expansion(singular)

    def test_quotient_ring_product_rule_past_the_old_cap(self):
        # 13 x 13 is past the subset expansion's former 12 x 12 limit.
        vars_ = ("x", "y", "z")
        sphere = PolyQuotient(vars_, parse_polynomial("x^2+y^2+z^2-1", vars_))
        rng = random.Random(13)
        diag, off = ["1", "-1", "x", "z", "y+1"], ["1", "-1", "x", "y", "z"]

        def triangular(lower):
            rows = [
                [
                    rng.choice(diag) if i == j else rng.choice(off) if (i > j) == lower and rng.random() < 0.2 else "0"
                    for j in range(13)
                ]
                for i in range(13)
            ]
            rng.shuffle(rows)
            return RingMatrix.from_rows(sphere, rows, cols=13)

        x, y = triangular(True), triangular(False)
        dx, dy = det(x), det(y)
        assert not dx.is_zero and not dy.is_zero
        assert det(x @ y) == dx * dy


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.data(),
)
def test_snf_axioms_hypothesis(n, m, data):
    rows = [
        [data.draw(st.integers(-9, 9)) for _ in range(m)]
        for _ in range(n)
    ]
    dec = snf(RingMatrix.from_rows(Z, rows, cols=m))
    assert dec.U @ RingMatrix.from_rows(Z, rows, cols=m) @ dec.V == dec.D
    facs = [f for f in dec.invariant_factors if f]
    for a, b in zip(facs, facs[1:]):
        assert b % a == 0


# The package's field elimination against the generic ring-operation
# loop in tests/util.py, entry by entry, through every public kernel.
DIFFERENTIAL_FIELDS = [Q, F2, PrimeField(101), PrimeField(3317044064679887385961813)]


@st.composite
def field_matrices(draw):
    ring = draw(st.sampled_from(DIFFERENTIAL_FIELDS))
    if ring == Q:
        # several distinct denominators per row
        entry = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7, 12]))
    else:
        entry = st.one_of(st.integers(-3, 3), st.integers(0, ring.p - 1))

    def matrix(r, c):
        return RingMatrix.from_rows(ring, [[draw(entry) for _ in range(c)] for _ in range(r)], cols=c)

    r, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    if draw(st.booleans()):
        inner = draw(st.integers(0, max(min(r, c) - 1, 0)))
        m = matrix(r, inner) @ matrix(inner, c)
    else:
        m = matrix(r, c)
    k = draw(st.integers(0, 2))
    return m, matrix(c, k), matrix(r, k)


def _field_kernels(m, x, b):
    def lists(mat):
        return None if mat is None else (mat.rows, mat.cols, mat.to_lists())

    res = rref(m)
    return (
        lists(res.matrix),
        res.rank,
        res.pivots,
        lists(res.transform),
        lists(linalg.invert(m)) if m.rows == m.cols else None,
        lists(solve_right(m, m @ x)),
        lists(solve_right(m, b)),
        lists(kernel_basis(m)),
        lists(column_canonical(m)),
    )


@settings(max_examples=300, deadline=None)
@given(field_matrices())
def test_field_kernels_match_reference_gauss_jordan(case):
    m, x, b = case
    got = _field_kernels(m, x, b)
    with mock.patch.object(linalg, "_gauss_jordan", reference_gauss_jordan):
        expected = _field_kernels(m, x, b)
    assert got == expected
    # payloads keep their type: Fractions over Q, residues in [0, p) over GF(p)
    entries = [v for _, _, rows in (got[0], got[3]) for row in rows for v in row]
    if m.ring == Q:
        assert all(type(v) is Fraction for v in entries)
    else:
        assert all(type(v) is int and 0 <= v < m.ring.p for v in entries)
