"""Direct sums, trivial systems, enlargement, morphisms, biproducts."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from ringsys import (
    DescriptorMismatch,
    Integers,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingMatrix,
    ShapeError,
    SystemMorphism,
    UnsupportedRing,
    biproduct_witnesses,
    column_canonical,
    direct_sum,
    dynamic_enlarge,
    from_pair,
    gamma,
    identity_morphism,
    is_morphism,
    membership,
    parse_polynomial,
    swap_matrix,
    zero_system,
)
from util import certificate_from_action, rand_invertible, rand_matrix, rand_system

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F3 = PrimeField(3)


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


class TestFromPair:
    def test_trivial_pair_gives_gamma(self):
        s = from_pair(mat(Q, [[0]]), mat(Q, [[1]]))
        assert s == gamma(Q, 1)

    def test_bad_pairs_raise(self):
        with pytest.raises(ShapeError):
            from_pair(mat(Q, [[0, 1]]), mat(Q, [[1]]))
        with pytest.raises(ShapeError):
            from_pair(mat(Q, [[0]]), mat(Q, [[1], [0]]))
        with pytest.raises(DescriptorMismatch):
            from_pair(mat(Q, [[0]]), mat(Z, [[1]]))

    def test_duplicate_columns_collapse(self):
        # systems compare by input module: equal, with equal hashes, and
        # the canonical generators of either matrix; each keeps its own
        for ring in (Q, F3, Z):
            b1 = mat(ring, [[1, 1], [0, 0]])
            b2 = mat(ring, [[1], [0]])
            a = RingMatrix.zeros(ring, 2, 2)
            s1, s2 = from_pair(a, b1), from_pair(a, b2)
            assert s1 == s2 and hash(s1) == hash(s2)
            assert s1.input_gens == column_canonical(b1) == column_canonical(b2) == s2.input_gens
            assert (s1.generators, s2.generators) == (b1, b2)

    def test_quotient_ring_generators_kept_verbatim(self):
        vars_ = ("x", "y", "z")
        ring = PolyQuotient(vars_, parse_polynomial("x^2+y^2+z^2-1", vars_))
        b = RingMatrix.from_rows(ring, [["x", "x"], ["y", "y"]])
        a = RingMatrix.zeros(ring, 2, 2)
        s = from_pair(a, b)
        assert s.input_gens == b
        assert s == from_pair(a, RingMatrix.from_rows(ring, [["x", "x"], ["y", "y"]]))
        assert hash(s) == hash(from_pair(a, b))
        # the same span from other generators is a different system here
        assert s != from_pair(a, RingMatrix.from_rows(ring, [["x"], ["y"]]))

    def test_many_to_one_scaling(self):
        # a unit multiple of a generator spans the same module
        for ring, unit in ((Q, 2), (F3, 2), (Z, -1)):
            a = RingMatrix.zeros(ring, 1, 1)
            s1, s2 = from_pair(a, mat(ring, [[unit]])), from_pair(a, mat(ring, [[1]]))
            assert s1 == s2 and hash(s1) == hash(s2)
            assert s1.input_gens == column_canonical(mat(ring, [[unit]])) == s2.input_gens


class TestDirectSum:
    def test_zero_is_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            s = rand_system(Q, rng)
            assert direct_sum(s, zero_system(Q)) == s
            assert direct_sum(zero_system(Q), s) == s

    def test_gammas_add(self):
        assert direct_sum(gamma(Q, 1), gamma(Q, 1)) == gamma(Q, 2)

    def test_block_shapes(self):
        s1 = rand_system(Q, random.Random(2), n_max=2)
        s2 = rand_system(Q, random.Random(3), n_max=3)
        total = direct_sum(s1, s2)
        assert total.state_rank == s1.state_rank + s2.state_rank
        for i in range(s1.state_rank):
            for j in range(s2.state_rank):
                assert total.endo.entry(i, s1.state_rank + j) == Q.zero()
                assert total.endo.entry(s1.state_rank + i, j) == Q.zero()

    def test_ring_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            direct_sum(gamma(Q, 1), gamma(Z, 1))


class TestGammaAndEnlarge:
    def test_gamma_zero_is_zero_system(self):
        assert gamma(Q, 0) == zero_system(Q)

    def test_gamma_full_input(self):
        g = gamma(Q, 2)
        assert g.endo.is_zero
        assert g.input_gens == RingMatrix.identity(Q, 2)

    def test_enlarge_zero_is_identity(self):
        s = rand_system(Q, random.Random(4))
        assert dynamic_enlarge(s, 0) == s

    def test_enlarge_pair_block_structure(self):
        a = mat(Q, [[1, 2], [3, 4]])
        b = mat(Q, [[1], [0]])
        e = dynamic_enlarge(from_pair(a, b), 2)
        assert e.endo == RingMatrix.zeros(Q, 2, 2).block_diag(a)
        assert e.generators == RingMatrix.identity(Q, 2).block_diag(b)

    def test_enlarging_gamma(self):
        assert dynamic_enlarge(gamma(Q, 2), 3) == gamma(Q, 5)


class TestIsMorphism:
    def test_identity_and_zero(self):
        s = rand_system(Q, random.Random(5))
        n = s.state_rank
        assert is_morphism(RingMatrix.identity(Q, n), s, s)
        assert is_morphism(RingMatrix.zeros(Q, n, n), s, s)

    def test_swap(self):
        rng = random.Random(6)
        s1, s2 = rand_system(Q, rng), rand_system(Q, rng)
        sw = swap_matrix(s1, s2)
        assert is_morphism(sw, direct_sum(s1, s2), direct_sum(s2, s1))
        assert is_morphism(sw.transpose(), direct_sum(s2, s1), direct_sum(s1, s2))

    def test_quotient_ring_unsupported(self):
        vars_ = ("x",)
        ring = PolyQuotient(vars_, parse_polynomial("x^2-1", vars_))
        s = from_pair(RingMatrix.zeros(ring, 1, 1), RingMatrix.identity(ring, 1))
        with pytest.raises(UnsupportedRing):
            is_morphism(RingMatrix.identity(ring, 1), s, s)

    def test_construction_gate(self):
        # a map violating the input condition is refused at construction
        s1 = from_pair(RingMatrix.zeros(Q, 2, 2), mat(Q, [[1], [0]]))
        s2 = from_pair(RingMatrix.zeros(Q, 2, 2), mat(Q, [[1], [0]]))
        bad = mat(Q, [[0, 0], [1, 0]])  # sends B1 to span(e2) outside B2
        assert not is_morphism(bad, s1, s2)
        with pytest.raises(ValueError):
            SystemMorphism(s1, s2, bad)

    def test_integer_inputs_are_a_lattice(self):
        # [1] sends Z into Z, not into 2Z; [2] does.
        s1 = from_pair(mat(Z, [[0]]), mat(Z, [[1]]))
        s2 = from_pair(mat(Z, [[0]]), mat(Z, [[2]]))
        assert not is_morphism(mat(Z, [[1]]), s1, s2)
        assert is_morphism(mat(Z, [[2]]), s1, s2)

    @pytest.mark.parametrize("ring", [Q, F3, Z], ids=str)
    def test_defect_alone_refused(self, ring):
        # diag(1, 2) keeps B = span(e1) but not the shift: the defect
        # A phi - phi A is -e2 e1^T, outside B.
        s = from_pair(mat(ring, [[0, 0], [1, 0]]), mat(ring, [[1], [0]]))
        phi = mat(ring, [[1, 0], [0, 2]])
        assert phi @ s.input_gens == s.input_gens
        assert not is_morphism(phi, s, s)

    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_random_maps_match_membership(self, ring):
        rng = random.Random(8)
        verdicts = Counter()
        for _ in range(150):
            s1, s2 = rand_system(ring, rng), rand_system(ring, rng)
            if rng.random() < 0.5:
                s2 = from_pair(s2.endo, s2.input_gens.hstack(rand_matrix(ring, s2.state_rank, 2, rng)))
            phi = rand_matrix(ring, s2.state_rank, s1.state_rank, rng, span=rng.choice([0, 1, 2]))
            defect = s2.endo @ phi - phi @ s1.endo
            columns = (phi @ s1.input_gens).columns() + defect.columns()
            expected = all(membership(v, s2.input_gens) for v in columns)
            assert is_morphism(phi, s1, s2) == expected
            verdicts[expected] += 1
        assert verdicts[True] and verdicts[False], verdicts


class TestCompositionClosure:
    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_action_isomorphisms_compose(self, ring):
        rng = random.Random(8)
        for _ in range(25):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            a = rand_matrix(ring, n, n, rng)
            b = rand_matrix(ring, n, m, rng)
            p1 = rand_invertible(ring, n, rng)
            k1 = rand_matrix(ring, m, n, rng)
            q1 = rand_invertible(ring, m, rng)
            s1, s2, _ = certificate_from_action(a, b, p1, k1, q1)
            m2 = s2.input_gens.cols
            p2 = rand_invertible(ring, n, rng)
            k2 = rand_matrix(ring, m2, n, rng)
            q2 = rand_invertible(ring, m2, rng)
            _, s3, _ = certificate_from_action(s2.endo, s2.input_gens, p2, k2, q2)
            f = SystemMorphism(s1, s2, p1)
            g = SystemMorphism(s2, s3, p2)
            composed = g.compose(f)
            assert composed.matrix == p2 @ p1
            assert is_morphism(composed.matrix, s1, s3)

    def test_iso_characterisation(self):
        # phi and its inverse both morphisms force phi(B1) = B2
        rng = random.Random(9)
        for _ in range(25):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            a, b = rand_matrix(Q, n, n, rng), rand_matrix(Q, n, m, rng)
            p = rand_invertible(Q, n, rng)
            k = rand_matrix(Q, m, n, rng)
            q = rand_invertible(Q, m, rng)
            s1, s2, cert = certificate_from_action(a, b, p, k, q)
            assert is_morphism(cert.phi, s1, s2)
            assert is_morphism(cert.psi, s2, s1)
            assert column_canonical(cert.phi @ s1.input_gens) == s2.input_gens


class TestBiproduct:
    @pytest.mark.parametrize("ring", [Q, F2, Z], ids=str)
    def test_witness_identities(self, ring):
        rng = random.Random(10)
        s1, s2 = rand_system(ring, rng, n_max=3), rand_system(ring, rng, n_max=3)
        pi1, pi2, i1, i2 = biproduct_witnesses(s1, s2)
        n1, n2 = s1.state_rank, s2.state_rank
        assert pi1.matrix @ i1.matrix == RingMatrix.identity(ring, n1)
        assert pi2.matrix @ i2.matrix == RingMatrix.identity(ring, n2)
        assert (pi1.matrix @ i2.matrix).is_zero
        total = i1.matrix @ pi1.matrix + i2.matrix @ pi2.matrix
        assert total == RingMatrix.identity(ring, n1 + n2)

    def test_pairing_through_product(self):
        rng = random.Random(12)
        for _ in range(15):
            s1, s2 = rand_system(Q, rng, n_max=2), rand_system(Q, rng, n_max=2)
            src = rand_system(Q, rng, n_max=2)
            # morphisms into the factors: zero maps always qualify
            psi1 = RingMatrix.zeros(Q, s1.state_rank, src.state_rank)
            psi2 = RingMatrix.zeros(Q, s2.state_rank, src.state_rank)
            paired = psi1.vstack(psi2)
            total = direct_sum(s1, s2)
            assert is_morphism(paired, src, total)
            pi1, pi2, _, _ = biproduct_witnesses(s1, s2)
            assert pi1.matrix @ paired == psi1
            assert pi2.matrix @ paired == psi2

    def test_identity_morphism(self):
        s = rand_system(Q, random.Random(13))
        assert identity_morphism(s).matrix == RingMatrix.identity(Q, s.state_rank)


def test_associativity_on_the_nose():
    rng = random.Random(14)
    s1, s2, s3 = (rand_system(Q, rng, n_max=2) for _ in range(3))
    assert direct_sum(direct_sum(s1, s2), s3) == direct_sum(s1, direct_sum(s2, s3))
