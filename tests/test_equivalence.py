"""Equivalence deciders, Grothendieck classes, certificates, oracle."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from ringsys import (
    DescriptorMismatch,
    Integers,
    IsoCertificate,
    NotLocallyBrunovsky,
    OrbitSizeError,
    Poly,
    PolyQuotient,
    PrimeField,
    Rationals,
    RingMatrix,
    ShapeError,
    UnsupportedRing,
    ZSignature,
    canonical_pair,
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
    parse_polynomial,
    stabilize_certificate,
    stable_equivalent,
    verify_certificate,
    z_signature,
    zero_system,
)
from ringsys import rings
from util import (
    certificate_from_action,
    rand_invertible,
    rand_locally_brunovsky_pair,
    rand_matrix,
    rand_system,
    reference_verify,
)

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F3 = PrimeField(3)
SPHERE = PolyQuotient(("x", "y", "z"), parse_polynomial("x^2+y^2+z^2-1", ("x", "y", "z")))


def mat(ring, rows):
    return RingMatrix.from_rows(ring, rows)


def reduce_mod(m, field):
    rows = [[field.canonical_payload(x) for x in m.row_list(i)] for i in range(m.rows)]
    return RingMatrix.from_rows(field, rows, cols=m.cols)


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


def relation_verdicts(s1, s2, common):
    """Feedback, dynamic and stable equivalence of s1 and s2 read from
    their definitions, each through feedback_equivalent alone: the
    dynamic verdicts compare the enlargements by p = 1, 2, 3, and the
    stable one the sums with the common system."""
    f = feedback_equivalent(s1, s2)
    d = [feedback_equivalent(dynamic_enlarge(s1, p), dynamic_enlarge(s2, p)) for p in (1, 2, 3)]
    st = feedback_equivalent(direct_sum(s1, common), direct_sum(s2, common))
    return f, d, st


class TestDynamicAndStable:
    def test_collapse_over_field(self):
        rng = random.Random(31)
        verdicts = Counter()
        for _ in range(30):
            s1 = lb_system(Q, rng, rng.randint(1, 4))
            s2 = lb_system(Q, rng, rng.randint(1, 4))
            f, d, st = relation_verdicts(s1, s2, lb_system(Q, rng, rng.randint(1, 3)))
            assert d == [f] * 3 and st == f
            assert dynamic_equivalent(s1, s2) == f and stable_equivalent(s1, s2) == f
            verdicts[f] += 1
        assert verdicts[True] and verdicts[False]

    def test_enlargement_is_never_stably_equivalent_to_original(self):
        rng = random.Random(32)
        systems = [zero_system(Q)] + [lb_system(Q, rng, rng.randint(1, 4)) for _ in range(15)]
        for s in systems:
            assert not stable_equivalent(s, direct_sum(s, gamma(Q, 1)))

    def test_equal_enlargements(self):
        # the enlargements of a system and of its image under a random
        # feedback action are related in all three senses
        rng = random.Random(33)
        s = lb_system(Q, rng, 3)
        m = s.generators.cols
        _, t, _ = certificate_from_action(
            s.endo, s.generators, rand_invertible(Q, 3, rng), rand_matrix(Q, m, 3, rng), rand_invertible(Q, m, rng)
        )
        e, e2 = dynamic_enlarge(s, 2), dynamic_enlarge(t, 2)
        assert relation_verdicts(e, e2, lb_system(Q, rng, 2)) == (True, [True] * 3, True)

    def test_cancellation_of_signatures(self):
        # signature of the enlargement determines the original's
        rng = random.Random(34)
        for _ in range(20):
            s1 = lb_system(Q, rng, rng.randint(1, 4))
            s2 = lb_system(Q, rng, rng.randint(1, 4))
            p = rng.randint(1, 3)
            e_equal = feedback_equivalent(dynamic_enlarge(s1, p), dynamic_enlarge(s2, p))
            assert e_equal == feedback_equivalent(s1, s2)

    def test_over_integers(self):
        rng = random.Random(37)
        s21 = from_pair(*canonical_pair(Z, (2, 1)))
        s3 = from_pair(*canonical_pair(Z, (3,)))
        assert relation_verdicts(s21, s3, lb_system(Z, rng, 3)) == (False, [False] * 3, False)
        assert relation_verdicts(s21, s21, lb_system(Z, rng, 3)) == (True, [True] * 3, True)
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
        assert k0_class(zero_system(Q)) == ZSignature(())
        rng = random.Random(36)
        s = lb_system(Q, rng, 2)
        assert k0_class(s) + ZSignature(()) == k0_class(s)


def random_matrices(ring, rng, nonzero=False):
    """rand(rows, cols): a random matrix over ring; over the sphere ring
    its entries are rational multiples of monomials, none of them zero
    when nonzero is set."""

    def rand(rows, cols):
        if ring != SPHERE:
            return rand_matrix(ring, rows, cols, rng)
        entries = []
        for _ in range(rows * cols):
            c = rng.choice((-3, -2, -1, 1, 2, 3)) if nonzero else rng.randint(-3, 3)
            coeffs = {(rng.randint(0, 2), rng.randint(0, 1), rng.randint(0, 2)): c}
            entries.append(Poly.from_dict(3, coeffs).scale(Fraction(1, rng.randint(1, 3))))
        return RingMatrix.from_rows(ring, [entries[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)

    return rand


def unit_lower(ring, rand, size):
    """A unit lower-triangular matrix I + N and its inverse, the finite
    sum of the powers of -N, which exists over any ring."""
    nil = RingMatrix.from_rows(
        ring, [[x if i > j else ring.zero() for j, x in enumerate(r)] for i, r in enumerate(rand(size, size).to_lists())], cols=size
    )
    inv, power = RingMatrix.identity(ring, size), RingMatrix.identity(ring, size)
    for _ in range(size):
        power = power @ -nil
        inv = inv + power
    return RingMatrix.identity(ring, size) + nil, inv


def action_certificate(ring, rng, n, m):
    """Two systems related by a random feedback action (P, K, Q) and the
    certificate of their isomorphism; over the sphere ring P and Q are
    unit lower-triangular, since invert needs a field."""
    rand = random_matrices(ring, rng)
    a, b, k = rand(n, n), rand(n, m), rand(m, n)
    if ring != SPHERE:
        return certificate_from_action(a, b, rand_invertible(ring, n, rng), k, rand_invertible(ring, m, rng))
    (p, p_inv), (q, q_inv) = unit_lower(ring, rand, n), unit_lower(ring, rand, m)
    s2 = from_pair(p @ (a + b @ k) @ p_inv, p @ b @ q)
    return from_pair(a, b), s2, IsoCertificate(p, p_inv, q_inv, q, q_inv @ k)


def with_entry_bumped(cert, w, i, j):
    """cert with 1 added to entry (i, j) of its w-th witness."""
    witnesses = list(cert.witnesses())
    m = witnesses[w]
    entries = list(m.entries)
    entries[i * m.cols + j] = m.ring.add(entries[i * m.cols + j], m.ring.one())
    witnesses[w] = RingMatrix(m.ring, m.rows, m.cols, tuple(entries))
    return IsoCertificate(*witnesses)


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

    def test_endpoints_over_different_rings_are_refused(self):
        s_q = from_pair(mat(Q, [[0]]), mat(Q, [[1]]))
        s_f = from_pair(mat(F2, [[0]]), mat(F2, [[1]]))
        with pytest.raises(DescriptorMismatch):
            verify_certificate(s_q, s_f, identity_certificate(s_q))

    @pytest.mark.parametrize(
        "inputs, u, message",
        [(1, RingMatrix.zeros(Q, 0, 0), "U must be 1x1, got 0x0"), (0, RingMatrix.identity(Q, 1), "U must be 0x0, got 1x1")],
        ids=["entryless-where-1x1-is-due", "1x1-on-a-0-input-system"],
    )
    def test_witness_shape_is_checked(self, inputs, u, message):
        # only an entryless witness against an entryless expectation is
        # the zero map; an entryless one where entries are due, or the
        # reverse, is a shape error
        s = from_pair(mat(Q, [[0]]), RingMatrix.identity(Q, 1) if inputs else RingMatrix.zeros(Q, 1, 0))
        good = identity_certificate(s)
        with pytest.raises(ShapeError, match=f"^{message}$"):
            verify_certificate(s, s, IsoCertificate(good.phi, good.psi, u, good.V, good.Kw))

    def test_one_product_matches_reference(self):
        """verify_certificate decides the inverse identity from phi psi
        alone; verdicts and reasons match the two-product reference."""
        rng = random.Random(41)
        checked = {}
        for ring in (Q, PrimeField(101), Z, SPHERE):
            for _ in range(12):
                for i, (s1, s2, cert) in enumerate(self._certificates(ring, rng)):
                    got = verify_certificate(s1, s2, cert)
                    assert got == reference_verify(s1, s2, cert)
                    assert got.accepted or i > 0
                    checked[got.reason] = checked.get(got.reason, 0) + 1
        assert set(checked) == {None, "inverse", "U-identity", "V-identity", "Kw-identity"}

    def test_streamed_verdicts_match_reference(self):
        """Each identity stops at its first differing entry: certificates
        with n up to 6, each witness bumped at its first entry and at its
        last, so a stream rejects at its first row or runs to its last;
        verdicts and reasons match the reference's full products."""
        rng = random.Random(42)
        checked = Counter()
        for ring in (Q, PrimeField(101), Z, SPHERE):
            for n in range(1, 7):
                s1, s2, cert = action_certificate(ring, rng, n, rng.randint(1, 2))
                assert verify_certificate(s1, s2, cert).accepted
                for w, matrix in enumerate(cert.witnesses()):
                    for i, j in ((0, 0), (matrix.rows - 1, matrix.cols - 1)):
                        bad = with_entry_bumped(cert, w, i, j)
                        got = verify_certificate(s1, s2, bad)
                        assert got == reference_verify(s1, s2, bad)
                        checked[got.reason] += 1
        assert set(checked) == {"inverse", "U-identity", "V-identity", "Kw-identity"}

    def test_reject_stops_at_first_differing_row(self, monkeypatch):
        """Counted in quotient-ring reductions at the core that reduce
        and products share, one per entry of a dense product: a phi psi
        that differs in row 0 costs at most n before Reject(inverse),
        one that differs only in its last row runs to it, and an Accept
        costs what its six full products cost."""
        rng = random.Random(43)
        n, m = 5, 2
        rand = random_matrices(SPHERE, rng, nonzero=True)
        (l1, l1_inv), (l2, l2_inv) = unit_lower(SPHERE, rand, n), unit_lower(SPHERE, rand, n)
        phi, psi = l1 @ l2.transpose(), l2_inv.transpose() @ l1_inv
        a, b = rand(n, n), rand(n, m)
        s1, s2 = from_pair(a, b), from_pair(phi @ a @ psi, phi @ b)
        one = RingMatrix.identity(SPHERE, m)
        cert = IsoCertificate(phi, psi, one, one, RingMatrix.zeros(SPHERE, m, n))
        assert all(map(bool, phi.entries))  # so every entry of phi psi is reduced

        calls = []
        reduce = rings._reduce_packed

        def counted(coeffs, *args):
            calls.append(coeffs)
            return reduce(coeffs, *args)

        monkeypatch.setattr(rings, "_reduce_packed", counted)
        assert phi @ psi == RingMatrix.identity(SPHERE, n) and len(calls) == n * n
        calls.clear()
        mapped = phi @ s1.input_gens
        g2 = s2.input_gens
        # U, V, and Kw as A2 phi = [phi | g2][A1; Kw]
        for x, y in ((g2, one), (mapped, one), (s2.endo, phi), (phi.hstack(g2), s1.endo.vstack(cert.Kw))):
            x @ y
        full = n * n + len(calls)
        calls.clear()
        assert verify_certificate(s1, s2, cert).accepted and len(calls) == full

        early, late = with_entry_bumped(cert, 0, 0, 0), with_entry_bumped(cert, 0, n - 1, n - 1)
        calls.clear()
        assert str(verify_certificate(s1, s2, early)) == "Reject(inverse)" and 1 <= len(calls) <= n
        calls.clear()
        assert str(verify_certificate(s1, s2, late)) == "Reject(inverse)" and n * (n - 1) < len(calls) <= n * n

    @staticmethod
    def _certificates(ring, rng):
        """A valid certificate, the same with one entry of a witness
        perturbed, and certificates between systems of different state
        ranks, one of them with phi psi = I."""
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        rand = random_matrices(ring, rng)
        s1, s2, cert = action_certificate(ring, rng, n, m)
        yield s1, s2, cert
        for w, matrix in enumerate(cert.witnesses()):
            if matrix.entries:
                i = rng.randrange(len(matrix.entries))
                yield s1, s2, with_entry_bumped(cert, w, *divmod(i, matrix.cols))
        # a smaller target: phi = [I 0] and psi = [I; 0] give phi psi = I
        # but psi phi != I; then the same with random maps
        n2 = rng.randint(0, n - 1)
        t = from_pair(rand(n2, n2), rand(n2, m))
        phi = RingMatrix.identity(ring, n2).hstack(RingMatrix.zeros(ring, n2, n - n2))
        assert phi @ phi.transpose() == RingMatrix.identity(ring, n2)
        m1, mt = s1.input_gens.cols, t.input_gens.cols
        yield s1, t, IsoCertificate(phi, phi.transpose(), rand(mt, m1), rand(m1, mt), rand(mt, n))
        yield t, s1, IsoCertificate(phi.transpose(), phi, rand(m1, mt), rand(mt, m1), rand(m1, n2))
        yield s1, t, IsoCertificate(rand(n2, n), rand(n, n2), rand(mt, m1), rand(m1, mt), rand(mt, n))

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

    # n <= 2 over GF(3), where GL_3(3) would trip the size guard
    @pytest.mark.parametrize("field, max_n", [(F2, 3), (F3, 2)], ids=["GF2", "GF3"])
    def test_transformed_pair_found(self, field, max_n):
        rng = random.Random(42)
        for _ in range(5):
            n, m = rng.randint(1, max_n), rng.randint(1, 2)
            a = rand_matrix(field, n, n, rng)
            b = rand_matrix(field, n, m, rng)
            p = rand_invertible(field, n, rng)
            k = rand_matrix(field, m, n, rng)
            q = rand_invertible(field, m, rng)
            _, s2, _ = certificate_from_action(a, b, p, k, q)
            assert feedback_equivalent_pairs_bruteforce(a, b, s2.endo, s2.generators)

    def test_size_guard(self):
        a, b = canonical_pair(F3, (3,))
        b = b.hstack(RingMatrix.zeros(F3, 3, 1))
        with pytest.raises(OrbitSizeError):
            feedback_equivalent_pairs_bruteforce(a, b, a, b)

    def test_without_inputs_it_decides_similarity(self):
        # m = 0: the orbit is the similarity class of A
        jordan = mat(F2, [[0, 1], [0, 0]])
        no_inputs = RingMatrix.zeros(F2, 2, 0)
        assert feedback_equivalent_pairs_bruteforce(jordan, no_inputs, jordan.transpose(), no_inputs)
        zero, one = RingMatrix.zeros(F2, 2, 2), RingMatrix.identity(F2, 2)
        assert not feedback_equivalent_pairs_bruteforce(zero, no_inputs, one, no_inputs)

    def test_empty_state_is_one_orbit(self):
        a, b = RingMatrix.zeros(F2, 0, 0), RingMatrix.zeros(F2, 0, 1)
        assert feedback_equivalent_pairs_bruteforce(a, b, a, b)

    def test_refusals_are_typed(self):
        a, b = canonical_pair(F2, (1,))
        with pytest.raises(UnsupportedRing):
            feedback_equivalent_pairs_bruteforce(*canonical_pair(Q, (1,)), *canonical_pair(Q, (1,)))
        with pytest.raises(DescriptorMismatch):
            feedback_equivalent_pairs_bruteforce(a, b, *canonical_pair(F3, (1,)))
        with pytest.raises(ShapeError):
            feedback_equivalent_pairs_bruteforce(a, b, *canonical_pair(F2, (2,)))
        with pytest.raises(ShapeError):
            feedback_equivalent_pairs_bruteforce(mat(F2, [[0, 1]]), b, a, b)
        big = canonical_pair(F2, (4,))
        with pytest.raises(OrbitSizeError, match="n <= 3"):
            feedback_equivalent_pairs_bruteforce(*big, *big)

    def test_crosscheck_small(self):
        records = orbit_crosscheck(p=2, max_n=2, max_m=2)
        assert records and all(r.agree for r in records)

    def test_crosscheck_gf3_small(self):
        records = orbit_crosscheck(p=3, max_n=2, max_m=2)
        assert records and all(r.agree for r in records)


class TestIntegerReductions:
    def test_signature_and_verdicts_agree_with_reductions(self):
        # A locally Brunovsky pair over Z has free chain quotients, so its
        # chain reduces mod p to the chain of its reduction: the signature
        # is the same over GF(2) and GF(3), and the orbit oracle on the
        # reductions decides feedback equivalence over Z.
        rng = random.Random(34)
        by_shape = {}
        for _ in range(60):
            _, a, b = rand_locally_brunovsky_pair(Z, rng, rng.randint(1, 3), extra_cols=rng.randint(0, 1))
            if b.cols > 2:
                continue
            sig = z_signature(from_pair(a, b))
            for field in (F2, F3):
                assert z_signature(from_pair(reduce_mod(a, field), reduce_mod(b, field))) == sig
            by_shape.setdefault((a.rows, b.cols), []).append((a, b))
        verdicts = Counter()
        for (n, _), pairs in sorted(by_shape.items()):
            for field in (F2, F3) if n <= 2 else (F2,):
                for (a1, b1), (a2, b2) in combinations(pairs[:6], 2):
                    verdict = feedback_equivalent(from_pair(a1, b1), from_pair(a2, b2))
                    oracle = feedback_equivalent_pairs_bruteforce(
                        *(reduce_mod(x, field) for x in (a1, b1, a2, b2))
                    )
                    assert verdict == oracle
                    verdicts[field.p, verdict] += 1
        assert set(verdicts) == {(2, True), (2, False), (3, True), (3, False)}, verdicts
