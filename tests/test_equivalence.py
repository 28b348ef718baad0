"""Equivalence deciders, Grothendieck classes, certificates, oracle."""

from __future__ import annotations

import random

import pytest

from ringsys import (
    DescriptorMismatch,
    Integers,
    IsoCertificate,
    K0Class,
    NotLocallyBrunovsky,
    OrbitSizeError,
    PrimeField,
    Rationals,
    RingMatrix,
    canonical_pair,
    certificate_from_action,
    direct_sum,
    direct_sum_certificate,
    dynamic_enlarge,
    dynamic_equivalent,
    enlarge_certificate,
    feedback_equivalent,
    feedback_equivalent_pairs_bruteforce,
    from_pair,
    gamma,
    identity_certificate,
    is_morphism,
    k0_class,
    orbit_crosscheck,
    stabilize_certificate,
    stable_equivalent,
    verify_certificate,
    z_signature,
    zero_system,
)
from util import rand_invertible, rand_locally_brunovsky_pair, rand_matrix, rand_system

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F3 = PrimeField(3)


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def lb_system(ring, rng, n):
    _, a, b = rand_locally_brunovsky_pair(ring, rng, n)
    return from_pair(a, b)


class TestFeedbackEquivalent:
    def test_reflexive(self):
        rng = random.Random(30)
        for _ in range(10):
            s = lb_system(Q, rng, rng.randint(1, 4))
            assert feedback_equivalent(s, s)

    def test_gamma_sums(self):
        assert feedback_equivalent(direct_sum(gamma(Q, 1), gamma(Q, 1)), gamma(Q, 2))

    def test_distinct_partitions_differ(self):
        s21 = from_pair(*canonical_pair(F2, (2, 1)))
        s3 = from_pair(*canonical_pair(F2, (3,)))
        assert z_signature(s21) == type(z_signature(s21))((1, 1))
        assert z_signature(s3).entries == (0, 0, 1)
        assert not feedback_equivalent(s21, s3)

    def test_requires_locally_brunovsky(self):
        bad = from_pair(mat(Z, [[0]]), mat(Z, [[2]]))
        with pytest.raises(NotLocallyBrunovsky):
            feedback_equivalent(bad, bad)

    def test_ring_mismatch(self):
        with pytest.raises(DescriptorMismatch):
            feedback_equivalent(gamma(Q, 1), gamma(F2, 1))


class TestDynamicAndStable:
    def test_collapse_over_field(self):
        rng = random.Random(31)
        for _ in range(30):
            s1 = lb_system(Q, rng, rng.randint(1, 4))
            s2 = lb_system(Q, rng, rng.randint(1, 4))
            f = feedback_equivalent(s1, s2)
            assert dynamic_equivalent(s1, s2, p_max=3) == f
            assert stable_equivalent(s1, s2) == f

    def test_enlargement_is_never_stably_equivalent_to_original(self):
        rng = random.Random(32)
        systems = [zero_system(Q)] + [lb_system(Q, rng, rng.randint(1, 4)) for _ in range(15)]
        for s in systems:
            assert not stable_equivalent(s, direct_sum(s, gamma(Q, 1)))

    def test_equal_enlargements(self):
        rng = random.Random(33)
        s = lb_system(Q, rng, 3)
        e = dynamic_enlarge(s, 2)
        assert feedback_equivalent(e, e) and dynamic_equivalent(e, e) and stable_equivalent(e, e)

    def test_cancellation_of_signatures(self):
        # signature of the enlargement determines the original's
        rng = random.Random(34)
        for _ in range(20):
            s1 = lb_system(Q, rng, rng.randint(1, 4))
            s2 = lb_system(Q, rng, rng.randint(1, 4))
            p = rng.randint(1, 3)
            e_equal = feedback_equivalent(dynamic_enlarge(s1, p), dynamic_enlarge(s2, p))
            assert e_equal == feedback_equivalent(s1, s2)

    def test_negative_p_max_rejected(self):
        s = from_pair(*canonical_pair(Q, (2, 1)))
        assert dynamic_equivalent(s, s, p_max=0)
        with pytest.raises(ValueError):
            dynamic_equivalent(s, s, p_max=-1)

    def test_over_integers(self):
        s21 = from_pair(*canonical_pair(Z, (2, 1)))
        s3 = from_pair(*canonical_pair(Z, (3,)))
        assert not feedback_equivalent(s21, s3)
        assert not dynamic_equivalent(s21, s3)
        assert not stable_equivalent(s21, s3)
        assert stable_equivalent(s21, s21)


class TestK0Class:
    def test_gamma(self):
        assert k0_class(gamma(Q, 3)).entries == (3,)

    def test_partition_2_2_1(self):
        s = from_pair(*canonical_pair(Q, (2, 2, 1)))
        assert k0_class(s).entries == (1, 2)

    def test_partition_2_vs_1_1(self):
        a = k0_class(from_pair(*canonical_pair(Q, (2,))))
        b = k0_class(from_pair(*canonical_pair(Q, (1, 1))))
        assert a.entries == (0, 1) and b.entries == (2,)
        assert a != b

    def test_monoid_homomorphism(self):
        rng = random.Random(35)
        for _ in range(100):
            s1 = lb_system(Q, rng, rng.randint(1, 4))
            s2 = lb_system(Q, rng, rng.randint(1, 4))
            assert k0_class(direct_sum(s1, s2)) == k0_class(s1) + k0_class(s2)

    def test_zero_system_is_neutral(self):
        assert k0_class(zero_system(Q)) == K0Class(())
        rng = random.Random(36)
        s = lb_system(Q, rng, 2)
        assert k0_class(s) + K0Class(()) == k0_class(s)


class TestVerifyCertificate:
    def test_identity_certificate(self):
        rng = random.Random(37)
        for ring in (Q, F3, Z):
            s = rand_system(ring, rng, n_max=3)
            assert verify_certificate(s, s, identity_certificate(s)).accepted

    def test_action_certificates(self):
        rng = random.Random(38)
        for ring in (Q, F3, Z):
            for _ in range(15):
                n, m = rng.randint(1, 3), rng.randint(1, 2)
                a, b = rand_matrix(ring, n, n, rng), rand_matrix(ring, n, m, rng)
                p = rand_invertible(ring, n, rng)
                k = rand_matrix(ring, m, n, rng)
                q = rand_invertible(ring, m, rng)
                s1, s2, cert = certificate_from_action(a, b, p, k, q)
                assert verify_certificate(s1, s2, cert).accepted
                assert is_morphism(cert.phi, s1, s2)
                assert is_morphism(cert.psi, s2, s1)

    def test_reject_order_is_deterministic(self):
        rng = random.Random(39)
        s = rand_system(Q, rng, n_max=3)
        n = s.state_rank or 1
        s = lb_system(Q, rng, n)
        good = identity_certificate(s)
        one = RingMatrix.identity(Q, s.state_rank)
        bad_phi = one.scale(2)
        r = verify_certificate(s, s, IsoCertificate(bad_phi, good.psi, good.U, good.V, good.Kw))
        assert not r.accepted and r.reason == "inverse"
        m = s.input_gens.cols
        if m:
            bad_u = good.U.scale(2)
            r = verify_certificate(s, s, IsoCertificate(good.phi, good.psi, bad_u, good.V, good.Kw))
            assert not r.accepted and r.reason == "U-identity"
            bad_v = good.V.scale(2)
            r = verify_certificate(s, s, IsoCertificate(good.phi, good.psi, good.U, bad_v, good.Kw))
            assert not r.accepted and r.reason == "V-identity"
            bad_kw = RingMatrix.zeros(Q, m, s.state_rank)
            ent = list(bad_kw.entries)
            ent[0] = Q.one()
            bad_kw = RingMatrix(Q, m, s.state_rank, tuple(ent))
            r = verify_certificate(s, s, IsoCertificate(good.phi, good.psi, good.U, good.V, bad_kw))
            assert not r.accepted and r.reason == "Kw-identity"

    def test_direct_sum_descends_to_classes(self):
        rng = random.Random(40)
        for _ in range(10):
            n1, n2 = rng.randint(1, 3), rng.randint(1, 2)
            a1, b1 = rand_matrix(Q, n1, n1, rng), rand_matrix(Q, n1, 1, rng)
            a2, b2 = rand_matrix(Q, n2, n2, rng), rand_matrix(Q, n2, 1, rng)
            s1, s1x, c1 = certificate_from_action(
                a1, b1, rand_invertible(Q, n1, rng), rand_matrix(Q, 1, n1, rng), rand_invertible(Q, 1, rng)
            )
            s2, s2x, c2 = certificate_from_action(
                a2, b2, rand_invertible(Q, n2, rng), rand_matrix(Q, 1, n2, rng), rand_invertible(Q, 1, rng)
            )
            total_cert = direct_sum_certificate(c1, c2)
            assert verify_certificate(direct_sum(s1, s2), direct_sum(s1x, s2x), total_cert).accepted


class TestCertificateChains:
    def test_feedback_implies_dynamic_implies_stable(self):
        rng = random.Random(41)
        for _ in range(20):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            a, b = rand_matrix(F3, n, n, rng), rand_matrix(F3, n, m, rng)
            p = rand_invertible(F3, n, rng)
            k = rand_matrix(F3, m, n, rng)
            q = rand_invertible(F3, m, rng)
            s1, s2, cert = certificate_from_action(a, b, p, k, q)
            for pp in (1, 2):
                dyn = enlarge_certificate(cert, F3, pp)
                assert verify_certificate(
                    dynamic_enlarge(s1, pp), dynamic_enlarge(s2, pp), dyn
                ).accepted
            common = rand_system(F3, rng, n_max=3)
            stab = stabilize_certificate(cert, common)
            assert verify_certificate(
                direct_sum(s1, common), direct_sum(s2, common), stab
            ).accepted


class TestBruteForce:
    def test_identical_pairs(self):
        a, b = canonical_pair(F2, (2,))
        assert feedback_equivalent_pairs_bruteforce(a, b, a, b)

    def test_partition_2_vs_1_1_over_gf2(self):
        a1, b1 = canonical_pair(F2, (2,))
        b1 = b1.hstack(RingMatrix.zeros(F2, 2, 1))
        a2, b2 = canonical_pair(F2, (1, 1))
        assert not feedback_equivalent_pairs_bruteforce(a1, b1, a2, b2)

    def test_transformed_pair_found(self):
        rng = random.Random(42)
        for _ in range(5):
            n, m = rng.randint(1, 3), rng.randint(1, 2)
            a = rand_matrix(F2, n, n, rng)
            b = rand_matrix(F2, n, m, rng)
            p = rand_invertible(F2, n, rng)
            k = rand_matrix(F2, m, n, rng)
            q = rand_invertible(F2, m, rng)
            _, s2, _ = certificate_from_action(a, b, p, k, q)
            from ringsys import invert

            a2 = p @ (a + b @ k) @ invert(p)
            b2 = p @ b @ q
            assert feedback_equivalent_pairs_bruteforce(a, b, a2, b2)

    def test_size_guard(self):
        a, b = canonical_pair(F3, (3,))
        b = b.hstack(RingMatrix.zeros(F3, 3, 1))
        with pytest.raises(OrbitSizeError):
            feedback_equivalent_pairs_bruteforce(a, b, a, b)

    def test_crosscheck_small(self):
        records = orbit_crosscheck(p=2, max_n=2, max_m=2)
        assert records and all(r.agree for r in records)

    def test_crosscheck_gf3_small(self):
        records = orbit_crosscheck(p=3, max_n=2, max_m=2)
        assert records and all(r.agree for r in records)
