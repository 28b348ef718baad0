"""Chain computation, signatures, Brunovsky data, canonical certificates."""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringsys import (
    AbelianGroupStructure,
    Integers,
    NotLocallyBrunovsky,
    NotReachable,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingMatrix,
    ShapeError,
    UnsupportedRing,
    ZSignature,
    brunovsky,
    canonical_certificate,
    canonical_pair,
    cokernel_structure,
    column_canonical,
    compute_chain,
    conjugate_partition,
    det,
    direct_sum,
    dynamic_enlarge,
    from_pair,
    gamma,
    invert,
    parse_polynomial,
    signature_from_report,
    solve_right,
    z_signature,
)
from ringsys import linalg
from ringsys.invariants import _field_staircase, _hermite_chain
from util import (
    certificate_from_action,
    combine_structures,
    pad_family,
    rand_invertible,
    rand_locally_brunovsky_pair,
    rand_matrix,
    rand_partition,
    rand_system,
    reference_canonical_certificate,
    reference_cokernel,
    reference_field_chain,
    reference_field_report,
    reference_integer_chain,
    reference_integer_report,
)

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F3 = PrimeField(3)
F101 = PrimeField(101)


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def _signature_or_error(fn, sigma):
    try:
        return fn(sigma)
    except NotLocallyBrunovsky as exc:
        return f"NotLocallyBrunovsky: {exc}"


def _scaled_input(b, j, c):
    # b over Z with its column j multiplied by c.
    cols = [[c * x for x in col.entries] if t == j else col.entries for t, col in enumerate(b.columns())]
    return RingMatrix.from_columns(Z, cols, rows=b.rows)


def _rand_integer_pair(rng, k):
    """Pairs over Z for the fast-path cross-checks, cycling through
    locally Brunovsky, torsion (one input generator scaled),
    unreachable, unstructured, B = 0 and n = 0 cases."""
    kind = k % 6
    n = 0 if kind == 5 else rng.randint(1, 5)
    if kind in (0, 1):
        _, a, b = rand_locally_brunovsky_pair(Z, rng, n, extra_cols=rng.randint(0, 1))
        if kind == 1:
            b = _scaled_input(b, rng.randrange(b.cols), rng.randint(2, 3))
        return a, b
    if kind == 2:
        return _rand_unreachable_pair(Z, rng, n, rng.randint(0, 2))
    if kind == 3:
        return rand_matrix(Z, n, n, rng), rand_matrix(Z, n, rng.randint(1, 3), rng)
    return rand_matrix(Z, n, n, rng), RingMatrix.zeros(Z, n, rng.randint(0, 2))


def _unit_pivots(basis):
    return all(next(x for x in basis.entries[k :: basis.cols] if x) == 1 for k in range(basis.cols))


def _hermite_levels(sigma):
    # _hermite_chain's levels as column Hermite bases, the form of
    # reference_integer_chain.
    return tuple(RingMatrix.from_columns(Z, rows, rows=sigma.state_rank) for rows, _ in _hermite_chain(sigma))


def _structure_branches(rep, levels):
    """The rule or general path each structure of an integer report
    takes: the saturation test finds M_i free behind Hermite pivots all
    1 or behind other pivots (read from ``levels``, the chain as column
    Hermite bases); I_i is free when M_{i-1} is; Z_i splits off I_i when
    I_{i+1} is free; an M_i with torsion is read from I_{i+1} when
    M_{i+1} is free, and from a Smith form otherwise."""
    m = (AbelianGroupStructure(rep.state_rank, ()),) + rep.M
    for i in range(1, rep.s + 1):
        yield "I free by rule" if m[i - 1].is_free else "I by Smith form"
    layers = rep.I + (AbelianGroupStructure(0, ()),)
    for i in range(1, rep.s + 1):
        yield "Z split" if layers[i].is_free else "Z general"
    for i in range(1, rep.s + 1):
        if m[i].is_free:
            yield "M free, unit pivots" if _unit_pivots(levels[i]) else "M free, other pivots"
        elif i < rep.s and m[i + 1].is_free:
            yield "M split"
        else:
            yield "M by Smith form"


def _rand_unreachable_pair(ring, rng, n, m):
    """Block triangular pair whose inputs miss the last r >= 1 state
    coordinates, conjugated by a random invertible map."""
    r = rng.randint(1, n)
    full = rand_matrix(ring, n, n, rng)
    rows = [
        [ring.zero() if i >= n - r and j < n - r else full.entry(i, j) for j in range(n)]
        for i in range(n)
    ]
    a = RingMatrix.from_rows(ring, rows, cols=n)
    b = rand_matrix(ring, n - r, m, rng).vstack(RingMatrix.zeros(ring, r, m))
    p = rand_invertible(ring, n, rng)
    p_inv = solve_right(p, RingMatrix.identity(ring, n)) if ring == Z else invert(p)
    return p @ a @ p_inv, p @ b


def _rational_twist(a, b, rng):
    """(D a D^-1, D b E) for random diagonal D, E over Q whose entries
    have several distinct denominators; spans and reachability are
    unchanged."""
    def diag(k):
        d = [Fraction(rng.choice([1, -1, 2, 3, -5, 7]), rng.choice([1, 2, 3, 5, 7, 9])) for _ in range(k)]
        return RingMatrix.from_rows(Q, [[d[i] if i == j else 0 for j in range(k)] for i in range(k)], cols=k)

    d = diag(a.rows)
    return d @ a @ invert(d), d @ b @ diag(b.cols)


def _rand_field_pair(ring, rng, k):
    """Pairs over a field for the rank-only signature cross-check,
    cycling through B = 0, n = 0, unreachable pairs, reachable pairs
    with zero or dependent extra inputs, and unstructured pairs; over Q
    the entries then get several distinct denominators."""
    kind = k % 6
    n = 0 if kind == 1 else rng.randint(1, 7)
    m = rng.randint(0, 3)
    if kind == 0:
        a, b = rand_matrix(ring, n, n, rng), RingMatrix.zeros(ring, n, m)
    elif kind == 2:
        a, b = _rand_unreachable_pair(ring, rng, n, m)
    elif kind == 3:
        _, a, b = rand_locally_brunovsky_pair(ring, rng, n, extra_cols=rng.randint(0, 2))
        mix = rand_matrix(ring, b.cols, rng.randint(1, 2), rng, span=rng.choice([0, 2]))
        cols = [c.entries for c in b.columns() + (b @ mix).columns()]
        rng.shuffle(cols)
        b = RingMatrix.from_columns(ring, cols, rows=n)
    else:
        a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, m, rng)
    if ring == Q:
        a, b = _rational_twist(a, b, rng)
    return a, b


def _check_field_chain(sigma):
    """compute_chain over a field against the from-scratch chain: the
    reduced echelon form of each staircase prefix is the reference
    N_i, and the report's ranks and layers are the reference's."""
    rep = compute_chain(sigma)
    chain, s, i_dims, z_dims, reachable = reference_field_chain(sigma)
    dims, basis, _ = _field_staircase(sigma.endo, sigma.input_gens)
    n = sigma.state_rank
    assert tuple(column_canonical(RingMatrix.from_columns(sigma.ring, basis[:d], rows=n)) for d in dims) == chain
    assert rep.chain_dims == tuple(c.cols for c in chain)
    assert (rep.s, rep.I, rep.Z, rep.reachable) == (s, i_dims, z_dims, reachable)
    return rep


class TestChainExamples:
    def test_gamma_chain(self):
        for p in (0, 1, 3):
            rep = compute_chain(gamma(Q, p))
            assert rep.reachable and rep.locally_brunovsky
            if p:
                assert rep.chain_dims == (0, p)
                assert rep.I == (p,) and rep.Z == (p,)
            assert z_signature(gamma(Q, p)) == ZSignature((p,) if p else ())

    def test_shift_chain(self):
        # hand-run: N1 = <e1>, N2 = <e1, e2>; layer dims 1, 1; kernels 0, 1
        s = from_pair(mat(Q, [[0, 0], [1, 0]]), mat(Q, [[1], [0]]))
        rep = compute_chain(s)
        assert rep.chain_dims == (0, 1, 2)
        assert rep.s == 2 and rep.reachable
        assert rep.I == (1, 1)
        assert rep.Z == (0, 1)
        assert z_signature(s) == ZSignature((0, 1))

    def test_integer_torsion_blocks_brunovsky(self):
        s = from_pair(mat(Z, [[0]]), mat(Z, [[2]]))
        rep = compute_chain(s)
        assert not rep.reachable
        assert rep.M == (AbelianGroupStructure(0, (2,)),)
        assert not rep.locally_brunovsky
        with pytest.raises(NotLocallyBrunovsky):
            z_signature(s)

    def test_integer_rank_stall_lattice_growth(self):
        # N1 = <2e1, e2> and N2 = Z^2 share rank 2 but differ as lattices;
        # stabilisation must be detected by canonical equality, not rank.
        s = from_pair(mat(Z, [[0, 1], [0, 0]]), mat(Z, [[2, 0], [0, 1]]))
        rep = compute_chain(s)
        assert rep.chain_dims == (0, 2, 2)
        assert rep.s == 2 and rep.reachable
        assert rep.M[0] == AbelianGroupStructure(0, (2,))
        assert not rep.locally_brunovsky

    def test_integer_canonical_pairs_are_brunovsky(self):
        rng = random.Random(15)
        for _ in range(20):
            n = rng.randint(1, 4)
            parts = rand_partition(rng, n)
            s = from_pair(*canonical_pair(Z, parts))
            rep = compute_chain(s)
            assert rep.reachable and rep.locally_brunovsky
            ranks = [st.free_rank for st in rep.I] + [0]
            assert z_signature(s).entries == tuple(
                ranks[i] - ranks[i + 1] for i in range(rep.s)
            )

    def test_quotient_ring_unsupported(self):
        vars_ = ("x",)
        ring = PolyQuotient(vars_, parse_polynomial("x^2-1", vars_))
        s = from_pair(RingMatrix.zeros(ring, 1, 1), RingMatrix.identity(ring, 1))
        with pytest.raises(UnsupportedRing):
            compute_chain(s)

    def test_quotient_ring_signature_unsupported(self):
        vars_ = ("x",)
        ring = PolyQuotient(vars_, parse_polynomial("x^2-1", vars_))
        s = from_pair(RingMatrix.zeros(ring, 1, 1), RingMatrix.identity(ring, 1))
        with pytest.raises(UnsupportedRing):
            z_signature(s)

    def test_empty_input_not_reachable(self):
        s = from_pair(mat(Q, [[1, 0], [0, 1]]), RingMatrix.zeros(Q, 2, 0))
        rep = compute_chain(s)
        assert rep.s == 0 and not rep.reachable

    def test_zero_system_reachable(self):
        rep = compute_chain(gamma(Q, 0))
        assert rep.s == 0 and rep.reachable and rep.locally_brunovsky


class TestChainProperties:
    @pytest.mark.parametrize("ring", [Q, F2], ids=str)
    def test_stabilisation_bound_over_fields(self, ring):
        rng = random.Random(16)
        for _ in range(60):
            s = rand_system(ring, rng, n_max=5)
            rep = compute_chain(s)
            assert rep.s <= s.state_rank
            # chain is strictly increasing up to s
            dims = rep.chain_dims
            assert all(dims[i] < dims[i + 1] for i in range(len(dims) - 1))

    def test_layer_dims_telescoping(self):
        rng = random.Random(17)
        for _ in range(60):
            s = rand_system(Q, rng, n_max=5)
            rep = compute_chain(s)
            dims = rep.chain_dims
            assert rep.I == tuple(dims[i + 1] - dims[i] for i in range(rep.s))
            # surjectivity of the induced maps: z_i = i_i - i_{i+1}
            delta = list(rep.I) + [0]
            assert rep.Z == tuple(delta[i] - delta[i + 1] for i in range(rep.s))

    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_direct_sum_additivity(self, ring):
        rng = random.Random(18)
        for _ in range(40):
            s1, s2 = rand_system(ring, rng), rand_system(ring, rng)
            r1, r2 = compute_chain(s1), compute_chain(s2)
            rs = compute_chain(direct_sum(s1, s2))
            smax = max(r1.s, r2.s, rs.s)
            for i in range(smax + 1):
                d1 = r1.chain_dims[min(i, r1.s)]
                d2 = r2.chain_dims[min(i, r2.s)]
                assert rs.chain_dims[min(i, rs.s)] == d1 + d2
            for i in range(1, smax + 1):
                for kind in ("M", "I", "Z"):
                    lhs = combine_structures(pad_family(r1, kind, i), pad_family(r2, kind, i))
                    assert lhs == pad_family(rs, kind, i)

    @pytest.mark.parametrize("p", [0, 1, 3])
    @pytest.mark.parametrize("ring", [Q, F101, Z], ids=str)
    def test_signature_additivity_with_gamma(self, ring, p):
        # sig(Gamma_p + sigma) = sig(sigma) + (p): the same shift on both
        # sides, which is why dynamic equivalence does not depend on p.
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(1, 4)
            _, a, b = rand_locally_brunovsky_pair(ring, rng, n)
            s = from_pair(a, b)
            sig = z_signature(s)
            enlarged = z_signature(dynamic_enlarge(s, p))
            padded = (sig.entries + (0,))[0] + p, *(sig.entries + (0,))[1:]
            assert enlarged.entries == ZSignature(padded).entries
            assert enlarged == sig + ZSignature((p,))

    @pytest.mark.parametrize("ring", [Q, F2, F101], ids=str)
    def test_field_chain_matches_reference(self, ring):
        rng = random.Random(26)
        seen = set()
        for k in range(80):
            n = 0 if k % 10 == 1 else rng.randint(1, 6)
            m = rng.randint(0, 3)
            if k % 8 == 0:
                a, b = rand_matrix(ring, n, n, rng), RingMatrix.zeros(ring, n, m)
            elif k % 4 == 2 and n:
                a, b = _rand_unreachable_pair(ring, rng, n, m)
            else:
                a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, m, rng)
            sigma = from_pair(a, b)
            rep = _check_field_chain(sigma)
            seen.add(rep.reachable)
        assert seen == {True, False}
        # State rank 12-16, over Q with several denominators, where the
        # back-reduced chain's entries grow.
        for _ in range(3):
            n = rng.randint(12, 16)
            a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, rng.randint(1, 3), rng)
            _check_field_chain(from_pair(*(_rational_twist(a, b, rng) if ring == Q else (a, b))))

    @pytest.mark.parametrize("ring", [Q, F2, F3, F101], ids=str)
    def test_field_signature_matches_reference(self, ring):
        """The rank-only staircase against the signature read off the
        from-scratch chain (or the same refusal), and brunovsky's
        indices against the chain's I ranks, on the pairs of
        _rand_field_pair and a few of state rank 12-16.  The staircase
        of the raw pair has the same ranks, and its basis is kept
        primitive over Q and reduced mod p over GF(p)."""
        rng = random.Random(29)
        pairs = [_rand_field_pair(ring, rng, k) for k in range(240)]
        for _ in range(4):
            n = rng.randint(12, 16)
            a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, rng.randint(1, 3), rng)
            pairs.append(_rational_twist(a, b, rng) if ring == Q else (a, b))
        seen = Counter()
        for a, b in pairs:
            sigma = from_pair(a, b)
            expected = _signature_or_error(lambda s: signature_from_report(reference_field_report(s)), sigma)
            assert _signature_or_error(z_signature, sigma) == expected
            dims, basis, _ = _field_staircase(sigma.endo, sigma.input_gens)
            # The raw input columns, zero and dependent ones included,
            # give the same staircase as the canonical ones.
            assert _field_staircase(a, b)[0] == dims
            if ring == Q:
                assert all(math.gcd(*v) == 1 for v in basis)
            else:
                assert all(0 <= x < ring.p for v in basis for x in v)
            if isinstance(expected, ZSignature):
                assert brunovsky(sigma).indices == conjugate_partition(compute_chain(sigma).I)
            else:
                with pytest.raises(NotReachable):
                    brunovsky(sigma)
            seen[sigma.state_rank == 0, sigma.input_gens.cols == 0, isinstance(expected, ZSignature)] += 1
        assert set(seen) == {(True, True, True), (False, True, False), (False, False, False), (False, False, True)}

    def test_integer_chain_and_signature_match_reference(self):
        # The incremental Hermite staircase against the from-scratch
        # chain, and the rank-only signature against the one read off
        # the full I/Z structures (or the same refusal).
        rng = random.Random(27)
        stall = (mat(Z, [[0, 1], [0, 0]]), mat(Z, [[2, 0], [0, 1]]))
        pairs = [stall] + [_rand_integer_pair(rng, k) for k in range(240)]
        seen = set()
        for a, b in pairs:
            sigma = from_pair(a, b)
            rep = compute_chain(sigma)
            chain = reference_integer_chain(sigma)
            assert _hermite_levels(sigma) == chain
            assert rep.chain_dims == tuple(c.cols for c in chain)
            expected = _signature_or_error(lambda s: signature_from_report(reference_integer_report(s)), sigma)
            assert _signature_or_error(z_signature, sigma) == expected
            seen.add((sigma.state_rank == 0, rep.reachable, rep.locally_brunovsky))
        assert seen == {(True, True, True), (False, True, True), (False, True, False), (False, False, False)}

    def test_integer_structures_match_reference(self):
        # The back-substituted M/I/Z structures against the solve_right /
        # kernel_basis path, on the same systems as above plus
        # torsion-heavy ones: one input column of a locally Brunovsky
        # pair scaled by 2-6.
        rng = random.Random(27)
        stall = (mat(Z, [[0, 1], [0, 0]]), mat(Z, [[2, 0], [0, 1]]))
        pairs = [stall] + [_rand_integer_pair(rng, k) for k in range(240)]
        rng = random.Random(28)
        for _ in range(60):
            _, a, b = rand_locally_brunovsky_pair(Z, rng, rng.randint(1, 5), extra_cols=rng.randint(0, 1))
            pairs.append((a, _scaled_input(b, rng.randrange(b.cols), rng.randint(2, 6))))
        torsion = Counter()
        branches = Counter()
        for a, b in pairs:
            sigma = from_pair(a, b)
            rep = compute_chain(sigma)
            assert rep == reference_integer_report(sigma)
            levels = reference_integer_chain(sigma)
            assert _hermite_levels(sigma) == levels
            for family in "MIZ":
                torsion[family] += sum(not x.is_free for x in getattr(rep, family))
            branches.update(_structure_branches(rep, levels))
        assert min(torsion.values()) > 0
        # Every split rule and every general path is exercised.
        kinds = {"I free by rule", "I by Smith form", "Z split", "Z general"}
        kinds |= {"M free, unit pivots", "M free, other pivots", "M split", "M by Smith form"}
        assert set(branches) == kinds, branches

    @pytest.mark.parametrize("ring", [Q, F2], ids=str)
    def test_feedback_invariance_of_signature(self, ring):
        rng = random.Random(20)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(1, 3)
            a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, m, rng)
            p = rand_invertible(ring, n, rng)
            k = rand_matrix(ring, m, n, rng)
            q = rand_invertible(ring, m, rng)
            s1, s2, _ = certificate_from_action(a, b, p, k, q)
            r1, r2 = compute_chain(s1), compute_chain(s2)
            assert r1.I == r2.I and r1.Z == r2.Z and r1.M == r2.M
            assert r1.reachable == r2.reachable


class TestQuotientStructure:
    @pytest.mark.parametrize(
        "columns, n, unit, expected",
        [
            ([[2, 1]], 2, False, AbelianGroupStructure(1, ())),
            ([[2, 3]], 2, False, AbelianGroupStructure(1, ())),
            ([[2, 0]], 2, False, AbelianGroupStructure(1, (2,))),
            ([], 3, True, AbelianGroupStructure(3, ())),
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3, True, AbelianGroupStructure(0, ())),
        ],
        ids=["non-unit-pivot-free", "no-unit-entry-free", "torsion", "no-columns", "identity"],
    )
    def test_hand_built_bases(self, columns, n, unit, expected):
        basis = column_canonical(RingMatrix.from_columns(Z, columns, rows=n))
        assert basis.cols == len(columns) and _unit_pivots(basis) == unit
        assert cokernel_structure(basis, n) == reference_cokernel(basis, n) == expected

    def test_random_hermite_bases_match_smith_form(self):
        rng = random.Random(31)
        kinds = Counter()
        for _ in range(400):
            n, k = rng.randint(0, 5), rng.randint(0, 4)
            basis = column_canonical(rand_matrix(Z, n, k, rng, span=rng.randint(1, 4)))
            expected = reference_cokernel(basis, n)
            assert cokernel_structure(basis, n) == expected
            kinds["unit" if _unit_pivots(basis) else "free" if expected.is_free else "torsion"] += 1
        assert set(kinds) == {"unit", "free", "torsion"}, kinds


class TestSmithFormCount:
    """Smith forms are left to modules with torsion: counted on locally
    Brunovsky systems built as the benchmark builds them (a unimodular
    (P, K, Q) acting on a Brunovsky pair), and on the same systems with
    one input column scaled."""

    @pytest.fixture
    def smith_calls(self, monkeypatch):
        # The diagonal of every Smith form taken.
        calls = []
        smith = linalg._snf_int

        def counted(mat, nrows, ncols):
            d = smith(mat, nrows, ncols)
            calls.append([d[i][i] for i in range(min(nrows, ncols))])
            return d

        monkeypatch.setattr(linalg, "_snf_int", counted)
        return calls

    @staticmethod
    def _brunovsky_pairs(rng):
        for _ in range(40):
            yield rand_locally_brunovsky_pair(Z, rng, rng.randint(1, 6), extra_cols=rng.randint(0, 1))

    def test_z_signature_takes_no_smith_form(self, smith_calls):
        other_pivots = 0
        for parts, a, b in self._brunovsky_pairs(random.Random(61)):
            sigma = from_pair(a, b)
            assert z_signature(sigma) == ZSignature(tuple(parts.count(i) for i in range(1, parts[0] + 1)))
            other_pivots += sum(not _unit_pivots(level) for level in reference_integer_chain(sigma)[1:])
        assert smith_calls == []
        # Free levels behind other pivots than 1 are there to be decided.
        assert other_pivots > 0

    def test_invariants_takes_smith_forms_only_for_torsion(self, smith_calls):
        rng = random.Random(62)
        torsion_seen = 0
        for _, a, b0 in self._brunovsky_pairs(rng):
            for b in (b0, _scaled_input(b0, rng.randrange(b0.cols), rng.randint(2, 4))):
                smith_calls.clear()
                rep = compute_chain(from_pair(a, b))
                with_torsion = sum(not x.is_free for x in rep.M + rep.I + rep.Z)
                assert all(any(abs(x) > 1 for x in d) for d in smith_calls), smith_calls
                assert len(smith_calls) <= with_torsion
                torsion_seen += with_torsion
        assert torsion_seen > 0


class TestBrunovsky:
    def test_shift_pair_already_canonical(self):
        s = from_pair(mat(Q, [[0, 0], [1, 0]]), mat(Q, [[1], [0]]))
        data = brunovsky(s)
        assert data.indices == (2,)
        assert data.canonical_endo == mat(Q, [[0, 0], [1, 0]])
        assert data.canonical_input == mat(Q, [[1], [0]])

    def test_gamma_indices(self):
        assert brunovsky(gamma(Q, 3)).indices == (1, 1, 1)

    def test_not_reachable(self):
        s = from_pair(RingMatrix.zeros(Q, 3, 3), mat(Q, [[1, 0], [0, 1], [0, 0]]))
        with pytest.raises(NotReachable):
            brunovsky(s)

    def test_conjugate_partition_identity(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 5)
            parts, a, b = rand_locally_brunovsky_pair(Q, rng, n)
            s = from_pair(a, b)
            rep = compute_chain(s)
            data = brunovsky(s)
            assert data.indices == parts
            delta = tuple(rep.I)
            assert conjugate_partition(data.indices) == delta
            for i in range(1, (data.indices[0] if data.indices else 0) + 1):
                assert rep.Z[i - 1] == sum(1 for k in data.indices if k == i)
                assert delta[i - 1] == sum(1 for k in data.indices if k >= i)

    def test_signature_matches_canonical_system(self):
        rng = random.Random(22)
        for _ in range(25):
            n = rng.randint(1, 5)
            _, a, b = rand_locally_brunovsky_pair(Q, rng, n)
            s = from_pair(a, b)
            data = brunovsky(s)
            assert z_signature(s) == z_signature(from_pair(data.canonical_endo, data.canonical_input))

    @pytest.mark.parametrize("indices", [(2, 0), (0,), (-1,), (3, -2, 1)])
    def test_canonical_pair_refuses_nonpositive_indices(self, indices):
        with pytest.raises(ValueError, match="indices must be positive"):
            canonical_pair(Q, indices)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=0, max_size=6))
def test_conjugate_partition_is_an_involution(parts):
    parts = tuple(sorted(parts, reverse=True))
    conj = conjugate_partition(parts)
    assert list(conj) == sorted(conj, reverse=True)
    assert sum(conj) == sum(parts)
    assert conjugate_partition(conj) == parts


class TestCanonicalCertificate:
    def test_already_canonical_accepts_identity_style(self):
        a_c, b_c = canonical_pair(Q, (2, 1))
        cert = canonical_certificate(a_c, b_c)
        assert cert.canonical_endo == a_c
        assert cert.canonical_input == b_c
        assert cert.P @ (a_c + b_c @ cert.K) @ invert(cert.P) == a_c
        assert cert.P @ b_c @ cert.Q == b_c

    def test_scaled_input_forces_unit_scaling(self):
        # B_c = P B Q must undo the factor 2 somewhere; any valid triple
        # is acceptable, and the one with Q = [1/2] explicitly verifies.
        a = mat(Q, [[0, 0], [1, 0]])
        b = mat(Q, [[2], [0]])
        cert = canonical_certificate(a, b)
        assert cert.P @ b @ cert.Q == cert.canonical_input == mat(Q, [[1], [0]])
        manual_q = mat(Q, [["1/2"]])
        assert RingMatrix.identity(Q, 2) @ b @ manual_q == cert.canonical_input
        assert a == cert.canonical_endo

    def test_random_actions_recovered(self):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 5)
            parts, a, b = rand_locally_brunovsky_pair(Q, rng, n, extra_cols=rng.randint(0, 2))
            cert = canonical_certificate(a, b)
            p_inv = invert(cert.P)
            assert cert.P @ (a + b @ cert.K) @ p_inv == cert.canonical_endo
            assert cert.P @ b @ cert.Q == cert.canonical_input
            assert invert(cert.Q) is not None

    def test_gf2_actions_recovered(self):
        rng = random.Random(24)
        for _ in range(40):
            n = rng.randint(1, 4)
            parts, a, b = rand_locally_brunovsky_pair(F2, rng, n)
            cert = canonical_certificate(a, b)
            assert cert.P @ (a + b @ cert.K) @ invert(cert.P) == cert.canonical_endo
            assert cert.P @ b @ cert.Q == cert.canonical_input

    def test_unreachable_rejected(self):
        with pytest.raises(NotReachable):
            canonical_certificate(RingMatrix.zeros(Q, 2, 2), RingMatrix.zeros(Q, 2, 1))

    def test_needs_field(self):
        with pytest.raises(UnsupportedRing):
            canonical_certificate(mat(Z, [[0]]), mat(Z, [[1]]))

    @pytest.mark.parametrize(
        "a_shape, b_rows", [((2, 3), 2), ((2, 2), 3)], ids=["non-square-endo", "input-rows-differ"]
    )
    def test_shape_is_checked(self, a_shape, b_rows):
        a = RingMatrix.zeros(Q, *a_shape)
        b = RingMatrix.identity(Q, b_rows)
        with pytest.raises(ShapeError, match="expected an n x n endomorphism and an n-row input matrix"):
            canonical_certificate(a, b)

    @pytest.mark.parametrize("ring", [Q, F2, F3, F101], ids=str)
    def test_matches_reference_construction(self, ring):
        """The triple read from the staircase equals the one the
        per-chain solves build, field for field, on reachable pairs with
        dependent or zero extra inputs, on n = 0 and m = 0, and on
        unreachable pairs, which both reject."""
        rng = random.Random(61)
        pairs = [
            (RingMatrix.zeros(ring, 0, 0), RingMatrix.zeros(ring, 0, 0)),
            (RingMatrix.zeros(ring, 0, 0), RingMatrix.zeros(ring, 0, 2)),
        ]
        for _ in range(40):
            n = rng.randint(1, 6)
            _, a, b = rand_locally_brunovsky_pair(ring, rng, n, extra_cols=rng.randint(0, 3))
            if rng.random() < 0.5:
                # Dependent or zero extra columns: combinations of the
                # existing inputs, appended and shuffled in.
                mix = rand_matrix(ring, b.cols, rng.randint(1, 3), rng, span=rng.choice([0, 2]))
                cols = [c.entries for c in b.columns() + (b @ mix).columns()]
                rng.shuffle(cols)
                b = RingMatrix.from_columns(ring, cols, rows=n)
            pairs.append((a, b))
        for _ in range(4):
            # n = 10..14 with 2..4 inputs: chains of unequal lengths plus
            # a dependent or zero column, so that the chain vectors carry
            # components along other chains.
            n = rng.randint(10, 14)
            parts = (0,)
            while len(set(parts)) < 2:
                cuts = sorted(rng.sample(range(1, n), rng.randint(1, 2)))
                parts = tuple(sorted((y - x for x, y in zip([0] + cuts, cuts + [n])), reverse=True))
            a_c, b_c = canonical_pair(ring, parts)
            k = len(parts)
            p = rand_invertible(ring, n, rng)
            a = p @ (a_c + b_c @ rand_matrix(ring, k, n, rng, span=2)) @ invert(p)
            b = p @ b_c @ rand_invertible(ring, k, rng)
            extra = b @ rand_matrix(ring, k, 1, rng, span=rng.choice([0, 2]))
            cols = [c.entries for c in b.columns() + extra.columns()]
            rng.shuffle(cols)
            pairs.append((a, RingMatrix.from_columns(ring, cols, rows=n)))
        for a, b in pairs:
            got, want = canonical_certificate(a, b), reference_canonical_certificate(a, b)
            assert got.indices == want.indices
            assert (got.P, got.K, got.Q) == (want.P, want.K, want.Q)
            assert (got.canonical_endo, got.canonical_input) == (want.canonical_endo, want.canonical_input)
        unreachable = [(RingMatrix.zeros(ring, 2, 2), RingMatrix.zeros(ring, 2, 0))]
        for _ in range(10):
            n = rng.randint(1, 5)
            unreachable.append(_rand_unreachable_pair(ring, rng, n, rng.randint(0, 3)))
        for a, b in unreachable:
            for fn in (canonical_certificate, reference_canonical_certificate):
                with pytest.raises(NotReachable):
                    fn(a, b)

    @pytest.mark.parametrize("ring", [Q, F2, F3, F101], ids=str)
    def test_certificates_are_invertible(self, ring, monkeypatch):
        """On the pairs of test_matches_reference_construction, det P is
        nonzero and Q is a column permutation of a unit upper triangular
        matrix: the facts the internal check leaves to its two
        identities and to the construction.  P^{-1} also comes from the
        closed loop without an inversion: its column (j, 0) is column t
        of B Q, for the t-th chain j, and column (j, l+1) is (A + B K)
        times column (j, l).  The certificates are collected by running
        that test with canonical_certificate recorded."""
        certs = []

        def recorded(a, b, build=canonical_certificate):
            certs.append((a, b, build(a, b)))
            return certs[-1][2]

        monkeypatch.setitem(globals(), "canonical_certificate", recorded)
        self.test_matches_reference_construction(ring)
        assert len(certs) == 46
        for a, b, cert in certs:
            assert not ring.is_zero(det(cert.P).value)
            # Column t of Q is column lows[t] of a unit upper triangular
            # matrix: its lowest nonzero entry is a 1, in a row no other
            # column ends in.
            lows = []
            for column in cert.Q.columns():
                low = max(i for i, x in enumerate(column.entries) if not ring.is_zero(x))
                assert column.entries[low] == ring.one()
                lows.append(low)
            assert sorted(lows) == list(range(cert.Q.cols))
            closed, chain_vectors = a + b @ cert.K, []
            for t, d in enumerate(cert.indices):
                v = (b @ cert.Q).column(t)
                for _ in range(d):
                    chain_vectors.append(v.entries)
                    v = closed @ v
            v_matrix = RingMatrix.from_columns(ring, chain_vectors, rows=a.rows)
            assert cert.P @ v_matrix == RingMatrix.identity(ring, a.rows)

    @pytest.mark.parametrize("ring", [Q, F101], ids=str)
    def test_corrupted_inverse_fails_verification(self, ring, monkeypatch):
        """With one entry of a dual row of W^{-1} off by one, the P, K
        and Q read from it fail the identities and the internal check
        raises.  The dual rows are the rows at the last kept column
        A^(mu_j - 1) b_j of each chain, which the construction shifts by
        A into P, and each of their entries is corrupted in turn."""
        rng = random.Random(62)
        for _ in range(10):
            _, a, b = rand_locally_brunovsky_pair(ring, rng, rng.randint(2, 6), extra_cols=rng.randint(0, 2))
            canonical_certificate(a, b)
            selected = _field_staircase(a, b)[2]
            mu = Counter(j for j, _ in selected)
            dual_rows = [r for r, (j, l) in enumerate(selected) if l == mu[j] - 1]
            for index in [r * a.rows + c for r in dual_rows for c in range(a.rows)]:

                def off_by_one(w, index=index):
                    w_inv = invert(w)
                    entries = list(w_inv.entries)
                    entries[index] = ring.add(entries[index], ring.one())
                    return RingMatrix(ring, w_inv.rows, w_inv.cols, tuple(entries))

                with monkeypatch.context() as patch:
                    patch.setattr("ringsys.invariants.invert", off_by_one)
                    with pytest.raises(RuntimeError, match="^canonical certificate failed internal verification$"):
                        canonical_certificate(a, b)

    @pytest.mark.parametrize("ring", [Q, F101], ids=str)
    def test_perturbed_target_fails_verification(self, ring, monkeypatch):
        """The check refuses a K or a Q that is off, seen through the
        canonical pair it compares with.  Checking P (A + B K) against
        A_c + B_c E, the canonical pair closed by a feedback E with one
        entry 1, is checking K - Q E P against A_c, since P B Q = B_c;
        Q E P is nonzero because P and Q are invertible, and E runs over
        every entry.  Checking P B Q against 2 B_c is checking P B (Q/2)
        against B_c, which the first identity cannot see."""
        rng = random.Random(63)
        for _ in range(6):
            _, a, b = rand_locally_brunovsky_pair(ring, rng, rng.randint(2, 6), extra_cols=rng.randint(0, 2))
            blocks, n = len(canonical_certificate(a, b).indices), a.rows
            units = [tuple(ring.one() if k == i else ring.zero() for k in range(blocks * n)) for i in range(blocks * n)]
            targets = [lambda a_c, b_c, e=RingMatrix(ring, blocks, n, unit): (a_c + b_c @ e, b_c) for unit in units]
            targets.append(lambda a_c, b_c: (a_c, b_c + b_c))
            for target in targets:
                with monkeypatch.context() as patch:
                    perturbed = lambda ring, indices: target(*canonical_pair(ring, indices))
                    patch.setattr("ringsys.invariants.canonical_pair", perturbed)
                    with pytest.raises(RuntimeError, match="^canonical certificate failed internal verification$"):
                        canonical_certificate(a, b)


class TestReportBuildsNoMatrix:
    """The report holds what ``invariants`` prints, read from the
    staircase: ``compute_chain`` builds no RingMatrix over a field, nor
    over Z on locally Brunovsky systems, where the saturation test and
    the split rules give every structure.  Systems are built before
    counting starts."""

    @staticmethod
    def _count_matrices(monkeypatch):
        built = []
        check = RingMatrix.__post_init__

        def counted(self):
            built.append((self.rows, self.cols))
            check(self)

        monkeypatch.setattr(RingMatrix, "__post_init__", counted)
        return built

    @pytest.mark.parametrize("ring", [Q, F2, F101], ids=str)
    def test_over_fields(self, ring, monkeypatch):
        rng = random.Random(63)
        systems = [from_pair(*_rand_field_pair(ring, rng, k)) for k in range(30)]
        built = self._count_matrices(monkeypatch)
        reports = [compute_chain(sigma) for sigma in systems]
        assert built == []
        assert {rep.reachable for rep in reports} == {True, False}

    def test_over_integers(self, monkeypatch):
        systems = [from_pair(a, b) for _, a, b in TestSmithFormCount._brunovsky_pairs(random.Random(64))]
        built = self._count_matrices(monkeypatch)
        reports = [compute_chain(sigma) for sigma in systems]
        assert built == []
        assert all(rep.locally_brunovsky for rep in reports)


@st.composite
def _torsion_probe_pairs(draw):
    # Integer pairs, n = 2-7, m = 1-2, entries in [-3, 3]; in half of
    # them one input column is scaled by 2-6, which makes torsion likely.
    n, m = draw(st.integers(2, 7)), draw(st.integers(1, 2))
    entries = st.integers(-3, 3)
    a = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    b = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    if draw(st.booleans()):
        j, c = draw(st.integers(0, m - 1)), draw(st.integers(2, 6))
        b = [[c * x if k == j else x for k, x in enumerate(row)] for row in b]
    return a, b


@settings(max_examples=150, deadline=None)
@given(pair=_torsion_probe_pairs())
def test_integer_torsion_matches_mod_p_chain_ranks(pair):
    """An oracle for the M_i over Z that needs no Hermite or Smith code.
    The Krylov columns reduced mod p span (N_i + pZ^n) / pZ^n, and
    Z^n / (N_i + pZ^n) is M_i / p M_i.  So level i of the GF(p) chain
    has rank d_i - t_p(M_i), where t_p counts the torsion factors of M_i
    that p divides.  Both chains stay constant past their last level."""
    a, b = pair
    rep = compute_chain(from_pair(mat(Z, a), mat(Z, b)))
    m = (AbelianGroupStructure(rep.state_rank, ()),) + rep.M
    for p in (2, 3, 5, 7):
        field = PrimeField(p)
        dims = compute_chain(from_pair(mat(field, a), mat(field, b))).chain_dims
        for i in range(max(len(dims), len(rep.chain_dims))):
            k = min(i, rep.s)
            t_p = sum(1 for t in m[k].torsion if t % p == 0)
            assert dims[min(i, len(dims) - 1)] == rep.chain_dims[k] - t_p, (p, i)
