"""Acceptance suite: one test per criterion, exact tolerances, one
pass/fail line each (run with -s to see them).

All checks are exact (integer/rational/quotient-ring arithmetic); the
stated tolerances are therefore zero failures everywhere, plus the 60
second wall-clock budget on the exhaustive oracle comparison.
"""

from __future__ import annotations

import random
import time

from ringsys import (
    Integers,
    IsoCertificate,
    PrimeField,
    Rationals,
    RingMatrix,
    brunovsky,
    canonical_certificate,
    canonical_pair,
    cokernel_structure,
    compute_chain,
    det,
    direct_sum,
    dynamic_enlarge,
    dynamic_equivalent,
    enlarge_certificate,
    feedback_equivalent,
    from_pair,
    gamma,
    invert,
    orbit_crosscheck,
    snf,
    stabilize_certificate,
    stable_equivalent,
    verify_certificate,
    zero_system,
)
from ringsys.fixtures import sphere_fixture_path
from ringsys.sysfile import parse
from util import (
    certificate_from_action,
    combine_structures,
    hnf,
    pad_family,
    rand_invertible,
    rand_locally_brunovsky_pair,
    rand_matrix,
    rand_system,
)

Q = Rationals()
Z = Integers()
F2 = PrimeField(2)
F3 = PrimeField(3)


def _report(number: int, text: str) -> None:
    print(f"[acceptance] criterion {number}: PASS - {text}")


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    records = orbit_crosscheck(p=2, max_n=3, max_m=2)
    elapsed = time.monotonic() - start
    disagreements = [r for r in records if not r.agree]
    assert not disagreements
    # sanity: the sweep saw both verdicts
    assert any(r.classifier for r in records) and any(not r.classifier for r in records)
    assert elapsed < 60.0
    _report(1, f"{len(records)} class comparisons agree with the orbit oracle in {elapsed:.1f}s")


def test_criterion_2_direct_sum_additivity():
    failures = 0
    checked = 0
    for ring, seed in ((Q, 101), (F2, 102), (Z, 103)):
        rng = random.Random(seed)
        for _ in range(100):
            s1 = rand_system(ring, rng, n_max=5)
            s2 = rand_system(ring, rng, n_max=5)
            r1, r2 = compute_chain(s1), compute_chain(s2)
            rs = compute_chain(direct_sum(s1, s2))
            smax = max(r1.s, r2.s, rs.s)
            for i in range(smax + 1):
                lhs = r1.chain_dims[min(i, r1.s)] + r2.chain_dims[min(i, r2.s)]
                if lhs != rs.chain_dims[min(i, rs.s)]:
                    failures += 1
            for i in range(1, smax + 1):
                for kind in ("M", "I", "Z"):
                    lhs = combine_structures(pad_family(r1, kind, i), pad_family(r2, kind, i))
                    if lhs != pad_family(rs, kind, i):
                        failures += 1
                    checked += 1
    assert failures == 0
    _report(2, f"300 random pairs over Q, GF(2), Z: {checked} structure sums match")


def test_criterion_3_equivalence_collapse_over_field():
    rng = random.Random(104)
    systems = [zero_system(Q)]
    for _ in range(100):
        _, a, b = rand_locally_brunovsky_pair(Q, rng, rng.randint(1, 5))
        systems.append(from_pair(a, b))
    # Each relation read from its definition: dynamic as the enlargements
    # by p = 1, 2, 3, stable as the sums with a common random system.
    common_rng = random.Random(106)
    mismatches = 0
    for _ in range(100):
        s1, s2 = rng.choice(systems), rng.choice(systems)
        c = common_rng.choice(systems)
        f = feedback_equivalent(s1, s2)
        d = [feedback_equivalent(dynamic_enlarge(s1, p), dynamic_enlarge(s2, p)) for p in (1, 2, 3)]
        st = feedback_equivalent(direct_sum(s1, c), direct_sum(s2, c))
        if d != [f] * 3 or st != f or dynamic_equivalent(s1, s2) != f or stable_equivalent(s1, s2) != f:
            mismatches += 1
    assert mismatches == 0
    for s in systems:
        assert not stable_equivalent(s, direct_sum(s, gamma(Q, 1)))
    _report(3, "100 pairs: enlargements by p = 1-3 and sums with a common system keep the feedback verdict; no system matches its own enlargement")


def test_criterion_4_certificate_chain_over_gf3():
    rng = random.Random(105)
    for _ in range(50):
        n, m = rng.randint(1, 3), rng.randint(1, 2)
        a = rand_matrix(F3, n, n, rng)
        b = rand_matrix(F3, n, m, rng)
        p = rand_invertible(F3, n, rng)
        k = rand_matrix(F3, m, n, rng)
        q = rand_invertible(F3, m, rng)
        s1, s2, cert = certificate_from_action(a, b, p, k, q)
        assert verify_certificate(s1, s2, cert).accepted
        pp = rng.randint(1, 2)
        dyn = enlarge_certificate(cert, F3, pp)
        assert verify_certificate(dynamic_enlarge(s1, pp), dynamic_enlarge(s2, pp), dyn).accepted
        common = rand_system(F3, rng, n_max=3)
        stab = stabilize_certificate(cert, common)
        assert verify_certificate(direct_sum(s1, common), direct_sum(s2, common), stab).accepted
    _report(4, "50 GF(3) feedback certificates extend to dynamic and stable certificates")


def test_criterion_5_sphere_fixture():
    fixture = parse(sphere_fixture_path())
    ring = fixture.ring
    # exact reduction through the sphere relation
    assert ring.element("x^2+y^2+z^2") == ring.element("1")
    entry = fixture.certificates["cert_main"]
    src = fixture.system(entry.source)
    tgt = fixture.system(entry.target)
    assert verify_certificate(src, tgt, entry.certificate).accepted
    phi = entry.certificate.phi
    rejected = 0
    for i in range(phi.rows):
        for j in range(phi.cols):
            entries = list(phi.entries)
            entries[i * phi.cols + j] = ring.add(entries[i * phi.cols + j], ring.one())
            bad = RingMatrix(ring, phi.rows, phi.cols, tuple(entries))
            cert = IsoCertificate(
                bad, entry.certificate.psi, entry.certificate.U, entry.certificate.V, entry.certificate.Kw
            )
            if not verify_certificate(src, tgt, cert).accepted:
                rejected += 1
    assert rejected == phi.rows * phi.cols
    # the sibling certificate for the locally Brunovsky input module
    entry2 = fixture.certificates["cert_orth"]
    assert verify_certificate(
        fixture.system(entry2.source), fixture.system(entry2.target), entry2.certificate
    ).accepted
    _report(5, "enlarged sphere systems verify; all 25 perturbations reject")


def test_criterion_6_canonical_form_soundness():
    rng = random.Random(106)
    for _ in range(100):
        n = rng.randint(1, 5)
        parts, a, b = rand_locally_brunovsky_pair(Q, rng, n, extra_cols=rng.randint(0, 1))
        cert = canonical_certificate(a, b)
        assert cert.P @ (a + b @ cert.K) @ invert(cert.P) == cert.canonical_endo
        assert cert.P @ b @ cert.Q == cert.canonical_input
        # idempotence on canonical pairs
        a_c, b_c = canonical_pair(Q, parts)
        data = brunovsky(from_pair(a_c, b_c))
        assert data.indices == parts
        assert data.canonical_endo == a_c and data.canonical_input == b_c
    _report(6, "100 random reachable pairs: certificate identities exact, idempotent on canonical pairs")


def test_criterion_7_normal_form_kernels():
    rng = random.Random(107)
    for _ in range(500):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        mat = RingMatrix.from_rows(
            Z, [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)], cols=m
        )
        dec = snf(mat)
        assert dec.U @ mat @ dec.V == dec.D
        assert det(dec.U).value in (1, -1)
        assert det(dec.V).value in (1, -1)
        facs = dec.invariant_factors
        assert all(f >= 0 for f in facs)
        for x, y in zip(facs, facs[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0
        h, u = hnf(mat)
        assert u @ mat == h
        assert det(u).value in (1, -1)
    diag = RingMatrix.from_rows(Z, [[2, 0], [0, 3]])
    assert cokernel_structure(diag, 2).torsion == (6,)
    assert cokernel_structure(diag, 2).free_rank == 0
    _report(7, "500 integer matrices satisfy SNF/HNF axioms; coker(diag(2,3)) = Z/6")
