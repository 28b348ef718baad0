"""Chain computation, signatures, Brunovsky data, canonical certificates."""

from __future__ import annotations

import random
from collections import Counter

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
    UnsupportedRing,
    ZSignature,
    brunovsky,
    canonical_certificate,
    canonical_pair,
    certificate_from_action,
    compute_chain,
    conjugate_partition,
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
from util import (
    combine_structures,
    pad_family,
    rand_invertible,
    rand_locally_brunovsky_pair,
    rand_matrix,
    rand_partition,
    rand_system,
    reference_field_chain,
    reference_integer_chain,
    reference_integer_report,
)

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F101 = PrimeField(101)


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def _signature_or_error(fn, sigma):
    try:
        return fn(sigma)
    except NotLocallyBrunovsky as exc:
        return f"NotLocallyBrunovsky: {exc}"


def _rand_integer_pair(rng, k):
    """Pairs over Z for the fast-path cross-checks, cycling through
    locally Brunovsky, torsion (one input generator scaled),
    unreachable, unstructured, B = 0 and n = 0 cases."""
    kind = k % 6
    n = 0 if kind == 5 else rng.randint(1, 5)
    if kind in (0, 1):
        _, a, b = rand_locally_brunovsky_pair(Z, rng, n, extra_cols=rng.randint(0, 1))
        if kind == 1:
            j, k = rng.randrange(b.cols), rng.randint(2, 3)
            cols = [[k * x for x in c.entries] if i == j else c.entries for i, c in enumerate(b.columns())]
            b = RingMatrix.from_columns(Z, cols, rows=n)
        return a, b
    if kind == 2:
        return _rand_unreachable_pair(Z, rng, n, rng.randint(0, 2))
    if kind == 3:
        return rand_matrix(Z, n, n, rng), rand_matrix(Z, n, rng.randint(1, 3), rng)
    return rand_matrix(Z, n, n, rng), RingMatrix.zeros(Z, n, rng.randint(0, 2))


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
            rep = compute_chain(sigma)
            assert (rep.chain, rep.s, rep.I, rep.Z, rep.reachable) == reference_field_chain(sigma)
            seen.add(rep.reachable)
        assert seen == {True, False}

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
            assert rep.chain == reference_integer_chain(sigma)
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
            j, c = rng.randrange(b.cols), rng.randint(2, 6)
            cols = [[c * x for x in col.entries] if t == j else col.entries for t, col in enumerate(b.columns())]
            pairs.append((a, RingMatrix.from_columns(Z, cols, rows=b.rows)))
        torsion = Counter()
        for a, b in pairs:
            sigma = from_pair(a, b)
            rep = compute_chain(sigma)
            assert rep == reference_integer_report(sigma)
            for family in "MIZ":
                torsion[family] += sum(not x.is_free for x in getattr(rep, family))
        assert min(torsion.values()) > 0

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
