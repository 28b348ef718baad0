"""Decision procedures for feedback, dynamic, and stable equivalence,
signature classes in the Grothendieck group, and ring-agnostic
verification of feedback-isomorphism certificates.

Over the rationals, prime fields, and the integers the three
equivalences all collapse to equality of Z-layer signatures, for the
reasons given in ``dynamic_equivalent`` and ``stable_equivalent``; the
test suite checks the collapse against enlargements, direct sums and
the orbit oracle rather than assuming it.  Certificate verification
needs nothing but ring arithmetic, so it also works over polynomial
quotient rings where membership is undecidable here.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, fields
from typing import Optional

from .errors import DescriptorMismatch, OrbitSizeError, ShapeError, UnsupportedRing
from .invariants import ZSignature, canonical_pair, z_signature
from .linalg import RingMatrix
from .rings import PrimeField, RingDescriptor
from .systems import LinearSystem, from_pair, gamma


# The relations ``equiv --mode`` names; each is decided by signature
# equality, as feedback_equivalent decides it.
MODES = ("feedback", "dynamic", "stable")


@dataclass(frozen=True)
class IsoCertificate:
    """Witness bundle making a feedback isomorphism checkable by
    arithmetic alone.

    phi/psi are mutually inverse state maps; U, V witness that phi
    carries the source input module onto the target one; Kw witnesses
    that the commutation defect lands inside the target input module.
    """

    phi: RingMatrix
    psi: RingMatrix
    U: RingMatrix
    V: RingMatrix
    Kw: RingMatrix

    def witnesses(self) -> tuple[RingMatrix, ...]:
        """The five matrices, in the order of WITNESSES."""
        return tuple(getattr(self, name) for name in WITNESSES)


# The certificate's field names, in declaration order: the one list that
# readers, writers and block sums of certificates walk.
WITNESSES = tuple(f.name for f in fields(IsoCertificate))


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.accepted

    def __str__(self) -> str:
        return "Accept" if self.accepted else f"Reject({self.reason})"


def verify_certificate(s1: LinearSystem, s2: LinearSystem, cert: IsoCertificate) -> VerifyResult:
    """Check the four defining identities by exact ring arithmetic.

    Accept establishes a feedback isomorphism between s1 and s2 over
    any supported ring; a Reject names the first identity that failed,
    in the fixed order inverse, U, V, Kw.  Each identity compares two
    streams of product entries in row-major order and stops at the
    first entry that differs, so a Reject costs the rows up to its
    first wrong one; an Accept computes every product in full.
    """
    if s1.ring != s2.ring:
        raise DescriptorMismatch("certificate endpoints live in different rings")
    n1, n2 = s1.state_rank, s2.state_rank
    g1, g2 = s1.input_gens, s2.input_gens

    def conform(m: RingMatrix, rows: int, cols: int, name: str) -> RingMatrix:
        if m.rows == rows and m.cols == cols:
            return m
        # an entryless matrix against an entryless expectation is the
        # same (unique) zero map; the file format cannot spell its shape
        if not m.entries and rows * cols == 0:
            return RingMatrix.zeros(m.ring, rows, cols)
        raise ShapeError(f"{name} must be {rows}x{cols}, got {m.rows}x{m.cols}")

    def agree(xs, ys) -> bool:
        # entry streams of one conformed shape, so of equal length
        return all(map(operator.eq, xs, ys))

    phi = conform(cert.phi, n2, n1, "phi")
    psi = conform(cert.psi, n1, n2, "psi")
    u = conform(cert.U, g2.cols, g1.cols, "U")
    v = conform(cert.V, g1.cols, g2.cols, "V")
    kw = conform(cert.Kw, g2.cols, n1, "Kw")
    # One product decides the inverse identity.  Every supported ring is
    # commutative and nonzero: there phi psi = I forces det phi det psi
    # = 1, so psi phi = I as well, and maps between free modules of
    # different ranks are never mutually inverse.
    if n1 != n2 or not agree(phi.product_entries(psi), RingMatrix.identity(s1.ring, n2).entries):
        return VerifyResult(False, "inverse")
    mapped = phi @ g1
    if not agree(g2.product_entries(u), mapped.entries):
        return VerifyResult(False, "U-identity")
    if not agree(mapped.product_entries(v), g2.entries):
        return VerifyResult(False, "V-identity")
    # A2 phi - phi A1 = g2 Kw, as the block product A2 phi = [phi | g2][A1; Kw]
    if not agree(s2.endo.product_entries(phi), phi.hstack(g2).product_entries(s1.endo.vstack(kw))):
        return VerifyResult(False, "Kw-identity")
    return VerifyResult(True)


def identity_certificate(sigma: LinearSystem) -> IsoCertificate:
    """The trivial certificate of sigma against itself."""
    ring = sigma.ring
    n = sigma.state_rank
    m = sigma.input_gens.cols
    return IsoCertificate(
        RingMatrix.identity(ring, n),
        RingMatrix.identity(ring, n),
        RingMatrix.identity(ring, m),
        RingMatrix.identity(ring, m),
        RingMatrix.zeros(ring, m, n),
    )


def direct_sum_certificate(c1: IsoCertificate, c2: IsoCertificate) -> IsoCertificate:
    """Block-diagonal certificate for the direct sum of two certified
    isomorphisms; the workhorse behind dynamic and stable extensions."""
    return IsoCertificate(*map(RingMatrix.block_diag, c1.witnesses(), c2.witnesses()))


def enlarge_certificate(cert: IsoCertificate, ring: RingDescriptor, p: int) -> IsoCertificate:
    """Certificate between the p-fold dynamic enlargements (ancillary
    block first, as in dynamic_enlarge)."""
    return direct_sum_certificate(identity_certificate(gamma(ring, p)), cert)


def stabilize_certificate(cert: IsoCertificate, common: LinearSystem) -> IsoCertificate:
    """Certificate between s_i + common given one between the s_i."""
    return direct_sum_certificate(cert, identity_certificate(common))


def k0_class(sigma: LinearSystem) -> ZSignature:
    """Class of the system in the group completion: its signature, the
    rank sequence of its Z-layers."""
    return z_signature(sigma)


def feedback_equivalent(s1: LinearSystem, s2: LinearSystem) -> bool:
    """Signature test: complete for locally Brunovsky systems over Q,
    GF(p), and Z, where projective modules are determined by rank."""
    if s1.ring != s2.ring:
        raise DescriptorMismatch("cannot compare systems over different rings")
    return z_signature(s1) == z_signature(s2)


def dynamic_equivalent(s1: LinearSystem, s2: LinearSystem) -> bool:
    """Whether some enlargement by p ancillary variables makes the
    systems feedback equivalent.  By additivity,
    sig(Gamma_p + sigma) = sig(sigma) + (p), so enlarging both systems by
    the same p shifts both signatures alike, and every p >= 0 gives the
    verdict of p = 0."""
    return feedback_equivalent(s1, s2)


def stable_equivalent(s1: LinearSystem, s2: LinearSystem) -> bool:
    """Equality in the group completion.  The signature is that class,
    and over the supported rings the rank map is injective, so this
    collapses to feedback equivalence."""
    return feedback_equivalent(s1, s2)


# ---------------------------------------------------------------------------
# Exhaustive orbit search over small prime fields: the independent test
# oracle for the signature classifier.  It shares no algorithm with
# linalg: GL_n(p) comes from Leibniz determinants, and the orbit
# relation is checked in a form that needs no inverse.


def _rows(flat, rows: int, cols: int):
    return tuple(flat[i * cols : (i + 1) * cols] for i in range(rows))


@functools.cache
def _gl(n: int, p: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Every n x n matrix over GF(p) whose Leibniz determinant is nonzero."""
    signed = [
        (perm, (-1) ** sum(i > j for i, j in itertools.combinations(perm, 2)))
        for perm in itertools.permutations(range(n))
    ]
    mats = (_rows(flat, n, n) for flat in itertools.product(range(p), repeat=n * n))
    return tuple(
        mat
        for mat in mats
        if sum(sign * math.prod(row[j] for row, j in zip(mat, perm)) for perm, sign in signed) % p
    )


def _mat_mul(x, y, cols: int, p: int):
    """x y mod p with cols columns, so a row-less y still gives len(x) rows."""
    return tuple(
        tuple(sum(a * row[j] for a, row in zip(rx, y)) % p for j in range(cols)) for rx in x
    )


def _as_int_rows(m: RingMatrix):
    return tuple(tuple(int(v) for v in m.row_list(i)) for i in range(m.rows))


def feedback_equivalent_pairs_bruteforce(
    a1: RingMatrix,
    b1: RingMatrix,
    a2: RingMatrix,
    b2: RingMatrix,
    bound: int = 1_000_000,
) -> bool:
    """Exhaustive search for (P, K, Q) with P invertible,
    A2 P = P (A1 + B1 K) and B2 = P B1 Q over a small prime field.

    This deliberately stays a dumb orbit scan: it is the independent
    oracle the signature-based classifier is validated against.
    """
    ring = a1.ring
    if not isinstance(ring, PrimeField):
        raise UnsupportedRing("the orbit oracle runs over small prime fields")
    if ring != b1.ring or ring != a2.ring or ring != b2.ring:
        raise DescriptorMismatch("mixed rings in orbit search")
    n, m = a1.rows, b1.cols
    if (a1.cols, a2.rows, a2.cols, b1.rows, b2.rows, b2.cols) != (n, n, n, n, n, m):
        raise ShapeError("orbit search compares pairs of identical shape")
    p = ring.p
    if n > 3 or m > 2 or p not in (2, 3):
        raise OrbitSizeError("orbit search supports n <= 3, m <= 2, p in {2, 3}")
    size = len(_gl(n, p)) * p ** (m * n) * len(_gl(m, p)) if n and m else 0
    if size > bound:
        raise OrbitSizeError(f"search space {size} exceeds bound {bound}")
    ia1, ib1, ia2, ib2 = map(_as_int_rows, (a1, b1, a2, b2))
    closed_loops = {
        tuple(
            tuple((a + b) % p for a, b in zip(ra, rb))
            for ra, rb in zip(ia1, _mat_mul(ib1, _rows(flat, m, n), n, p))
        )
        for flat in itertools.product(range(p), repeat=m * n)
    }
    for pm in _gl(n, p):
        pb = _mat_mul(pm, ib1, m, p)
        if not any(_mat_mul(pb, qm, m, p) == ib2 for qm in _gl(m, p)):
            continue
        a2p = _mat_mul(ia2, pm, n, p)
        if any(_mat_mul(pm, c, n, p) == a2p for c in closed_loops):
            return True
    return False


def _partitions(n: int, max_parts: int, largest: Optional[int] = None):
    if not n:
        yield ()
        return
    if max_parts == 0:
        return
    top = min(n, largest) if largest is not None else n
    for first in range(top, 0, -1):
        for rest in _partitions(n - first, max_parts - 1, first):
            yield (first,) + rest


@dataclass(frozen=True)
class OrbitCheckRecord:
    n: int
    m: int
    left: tuple[int, ...]
    right: tuple[int, ...]
    classifier: bool
    oracle: bool

    @property
    def agree(self) -> bool:
        return self.classifier == self.oracle


def orbit_crosscheck(
    p: int = 2, max_n: int = 3, max_m: int = 2, bound: int = 1_000_000
) -> list[OrbitCheckRecord]:
    """Compare the signature classifier with the orbit oracle on every
    pair of reachable canonical systems of matching shape."""
    ring = PrimeField(p)
    records = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            shapes = []
            for parts in _partitions(n, m):
                a, b = canonical_pair(ring, parts)
                b = b.hstack(RingMatrix.zeros(ring, n, m - b.cols))
                shapes.append((parts, a, b))
            for i, (parts_i, ai, bi) in enumerate(shapes):
                for parts_j, aj, bj in shapes[i:]:
                    classifier = feedback_equivalent(from_pair(ai, bi), from_pair(aj, bj))
                    oracle = feedback_equivalent_pairs_bruteforce(ai, bi, aj, bj, bound=bound)
                    records.append(
                        OrbitCheckRecord(n, m, parts_i, parts_j, classifier, oracle)
                    )
    return records
