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

import itertools
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
# oracle for the signature classifier.

_GL_CACHE: dict[tuple[int, int], list[tuple[tuple[int, ...], ...]]] = {}


def _det_mod(mat, n: int, p: int) -> int:
    a = [list(row) for row in mat]
    det = 1
    for k in range(n):
        sel = next((i for i in range(k, n) if a[i][k] % p), None)
        if sel is None:
            return 0
        if sel != k:
            a[k], a[sel] = a[sel], a[k]
            det = -det
        piv = a[k][k] % p
        det = det * piv % p
        inv = pow(piv, p - 2, p)
        for i in range(k + 1, n):
            f = a[i][k] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[k])]
    return det % p


def _gl(n: int, p: int) -> list[tuple[tuple[int, ...], ...]]:
    key = (n, p)
    if key not in _GL_CACHE:
        mats = []
        for flat in itertools.product(range(p), repeat=n * n):
            mat = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            if _det_mod(mat, n, p):
                mats.append(mat)
        _GL_CACHE[key] = mats
    return _GL_CACHE[key]


def _mat_mul(x, y, p: int):
    rows = len(x)
    inner = len(y)
    cols = len(y[0]) if inner else 0
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(inner)) % p for j in range(cols))
        for i in range(rows)
    )


def _mat_add(x, y, p: int):
    return tuple(tuple((a + b) % p for a, b in zip(rx, ry)) for rx, ry in zip(x, y))


def _mat_inv(x, n: int, p: int):
    a = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(x)]
    for k in range(n):
        sel = next(i for i in range(k, n) if a[i][k] % p)
        a[k], a[sel] = a[sel], a[k]
        inv = pow(a[k][k] % p, p - 2, p)
        a[k] = [v * inv % p for v in a[k]]
        for i in range(n):
            if i != k and a[i][k] % p:
                f = a[i][k]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[k])]
    return tuple(tuple(row[n:]) for row in a)


def _as_int_rows(m: RingMatrix):
    return tuple(tuple(int(v) for v in m.row_list(i)) for i in range(m.rows))


def feedback_equivalent_pairs_bruteforce(
    a1: RingMatrix,
    b1: RingMatrix,
    a2: RingMatrix,
    b2: RingMatrix,
    bound: int = 1_000_000,
) -> bool:
    """Exhaustive search for (P, K, Q) with A2 = P(A1+B1K)P^-1 and
    B2 = P B1 Q over a small prime field.

    This deliberately stays a dumb orbit scan: it is the independent
    oracle the signature-based classifier is validated against.
    """
    ring = a1.ring
    if not isinstance(ring, PrimeField):
        raise UnsupportedRing("the orbit oracle runs over small prime fields")
    if ring != b1.ring or ring != a2.ring or ring != b2.ring:
        raise DescriptorMismatch("mixed rings in orbit search")
    n, m = a1.rows, b1.cols
    if a2.rows != n or b2.rows != n or b2.cols != m:
        raise ShapeError("orbit search compares pairs of identical shape")
    p = ring.p
    if n > 3 or m > 2 or p not in (2, 3):
        raise OrbitSizeError("orbit search supports n <= 3, m <= 2, p in {2, 3}")
    size = len(_gl(n, p)) * p ** (m * n) * len(_gl(m, p)) if n and m else 0
    if size > bound:
        raise OrbitSizeError(f"search space {size} exceeds bound {bound}")
    ia1, ib1, ia2, ib2 = map(_as_int_rows, (a1, b1, a2, b2))
    if n == 0:
        return True
    k_shapes = [
        tuple(flat[i * n : (i + 1) * n] for i in range(m))
        for flat in itertools.product(range(p), repeat=m * n)
    ]
    for pm in _gl(n, p):
        pb = _mat_mul(pm, ib1, p)
        if m and not any(_mat_mul(pb, qm, p) == ib2 for qm in _gl(m, p)):
            continue
        if m == 0 and ib2 != pb:
            continue
        p_inv = _mat_inv(pm, n, p)
        for km in k_shapes or [tuple()]:
            if m:
                closed = _mat_add(ia1, _mat_mul(ib1, km, p), p)
            else:
                closed = ia1
            if _mat_mul(_mat_mul(pm, closed, p), p_inv, p) == ia2:
                return True
    return False


def _partitions(n: int, max_parts: int, largest: Optional[int] = None):
    if n == 0:
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
