"""Invariant module chains, signature data, and canonical forms.

For a system (R^n, f, B) the chain N_0 = 0, N_i = B + f(N_{i-1})
stabilises and carries three derived families: quotients M_i = X/N_i,
layers I_i = N_i/N_{i-1}, and the kernels Z_i of the f-induced maps
I_i -> I_{i+1}.  Over a field these are dimensions; over the integers
they are finitely generated abelian groups, read from split exact
sequences where a module in them is free and from Smith forms of
presentation matrices otherwise.  The finite-support sequence of the
Z-layers is a complete feedback invariant on the class of systems whose
invariants are all projective, and over fields it is equivalent to the
classical controllability partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd
from operator import mul
from typing import Sequence, Union

from .errors import NotLocallyBrunovsky, NotReachable, ShapeError, UnsupportedRing
from .linalg import (
    AbelianGroupStructure,
    RingMatrix,
    _back_substitute,
    _hnf_int,
    cokernel_structure,
    invert,
)
from .rings import Integers, PolyQuotient, Rationals, RingDescriptor, _cleared_fractions
from .systems import LinearSystem

ModuleStructure = Union[int, AbelianGroupStructure]


@dataclass(frozen=True)
class InvariantReport:
    """Stabilised chain data of one system.

    ``chain`` holds canonical generator matrices for N_0 through N_s.
    Over a field the module entries are dimensions; over the integers
    they are AbelianGroupStructure values.
    """

    ring: RingDescriptor
    state_rank: int
    chain: tuple[RingMatrix, ...]
    s: int
    M: tuple[ModuleStructure, ...]
    I: tuple[ModuleStructure, ...]
    Z: tuple[ModuleStructure, ...]
    reachable: bool
    locally_brunovsky: bool

    @property
    def chain_dims(self) -> tuple[int, ...]:
        return tuple(m.cols for m in self.chain)


@dataclass(frozen=True)
class ZSignature:
    """Finite-support sequence of Z-layer ranks; trailing zeros dropped.

    It is also the system's class in the group completion: equal
    classes mean stably feedback isomorphic systems, and addition
    mirrors the direct sum of systems.
    """

    entries: tuple[int, ...]

    def __post_init__(self):
        trimmed = list(self.entries)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "entries", tuple(trimmed))

    def __add__(self, other: "ZSignature") -> "ZSignature":
        pairs = zip_longest(self.entries, other.entries, fillvalue=0)
        return ZSignature(tuple(x + y for x, y in pairs))

    def __str__(self) -> str:
        return "(" + ", ".join(map(str, self.entries)) + ")"


@dataclass(frozen=True)
class BrunovskyData:
    """Non-increasing index partition with its canonical matrix pair."""

    indices: tuple[int, ...]
    canonical_endo: RingMatrix
    canonical_input: RingMatrix

    def __post_init__(self):
        if any(k <= 0 for k in self.indices):
            raise ValueError("indices must be positive")
        if list(self.indices) != sorted(self.indices, reverse=True):
            raise ValueError("indices must be non-increasing")


def _structure_rank(structure: ModuleStructure) -> int:
    if isinstance(structure, AbelianGroupStructure):
        return structure.free_rank
    return structure


def compute_chain(sigma: LinearSystem) -> InvariantReport:
    """Full invariant report of a system over Q, GF(p), or Z."""
    if isinstance(sigma.ring, PolyQuotient):
        raise UnsupportedRing("invariant chains need decidable submodule arithmetic")
    if sigma.ring.is_field:
        return _report_over_field(sigma)
    return _report_over_integers(sigma, _hermite_chain(sigma))


def _hermite_chain(sigma: LinearSystem) -> list[RingMatrix]:
    """Canonical bases of N_0 < N_1 < ... < N_s over the integers.

    One Hermite basis is kept, its rows the generators, as in
    ``column_canonical``.  N_{i+1} = N_i + A^i B, and the offer A^i b
    may be replaced by anything congruent to it modulo N_i: if
    w = A^i b - x with x in N_i, then A w differs from A^{i+1} b by A x,
    which lies in N_{i+1}.  Each step therefore reduces the offers
    modulo the basis, stops when every remainder vanishes (the
    remainder of a lattice member is zero), and otherwise inserts the
    remainders and offers A times them next.
    """
    ring, n = sigma.ring, sigma.state_rank
    a = sigma.endo.to_lists()
    b = sigma.input_gens
    basis: list[list[int]] = []
    pivots: list[int] = []
    chain = [RingMatrix.zeros(ring, n, 0)]
    offers = [list(b.entries[j :: b.cols]) for j in range(b.cols)]
    while True:
        for i, w in enumerate(offers):
            for row, p in zip(basis, pivots):
                q = w[p] // row[p]
                if q:
                    w = [x - q * y for x, y in zip(w, row)]
            offers[i] = w
        offers = [w for w in offers if any(w)]
        if not offers:
            return chain
        h, pivots = _hnf_int(basis + offers, n)
        basis = h[: len(pivots)]
        chain.append(RingMatrix._of_columns(ring, basis, n))
        offers = [[sum(map(mul, arow, w)) for arow in a] for w in offers]


def _rank_staircase(
    a: Sequence[Sequence[int]], columns: Sequence[Sequence[int]], p: int
) -> tuple[list[int], list, list[tuple[int, int]]]:
    """dim N_0, ..., dim N_s of a Krylov staircase, a basis of N_s, and
    the Krylov columns it selects.

    ``a`` is the rows of A and ``columns`` the columns of B, as residues
    mod p, or as integers when p is 0 (a pair over Q with its
    denominators cleared).  Level 0 offers the columns of B and level
    l + 1 offers A times each remainder kept at level l.  A remainder
    differs from its Krylov column A^l b_j by a vector of the span so
    far, and A maps that span into the span ahead of column j's next
    offer, so each offer is dependent exactly when its Krylov column
    is.  ``selected`` therefore lists, as (j, l), the columns A^l b_j
    that the level-major greedy scan of [B, AB, ...] keeps, in order,
    and ``basis[:k]`` spans what the first k of them span.  No basis is
    fully reduced: each basis vector is zero at the pivots of those
    kept before it, and one pass over the basis in order leaves a
    remainder that vanishes exactly when the offer is dependent.  Over
    the integers the elimination is fraction-free, w <- g w - f v with
    the pivot pair (g, f) divided by its gcd, and each kept vector is
    made primitive by dividing out the gcd of its entries.  Over GF(p)
    kept vectors are monic and each entry takes one ``% p``.
    """
    basis: list[tuple[int, list[int]]] = []
    selected: list[tuple[int, int]] = []
    dims = [0]
    offers = list(enumerate(columns))
    while True:
        kept = []
        for j, w in offers:
            for q, v in basis:
                f = w[q]
                if not f:
                    continue
                if p:
                    w = [(x - f * y) % p for x, y in zip(w, v)]
                else:
                    c = gcd(f, v[q])
                    f, g = f // c, v[q] // c
                    w = [g * x - f * y for x, y in zip(w, v)]
            q = next((i for i, x in enumerate(w) if x), None)
            if q is None:
                continue
            if p:
                inv = pow(w[q], -1, p)
                w = [x * inv % p for x in w]
            else:
                c = gcd(*w)
                w = [x // c for x in w]
            basis.append((q, w))
            selected.append((j, len(dims) - 1))
            kept.append((j, w))
        if not kept:
            return dims, [v for _, v in basis], selected
        dims.append(len(basis))
        if p:
            offers = [(j, [sum(map(mul, row, w)) % p for row in a]) for j, w in kept]
        else:
            offers = [(j, [sum(map(mul, row, w)) for row in a]) for j, w in kept]


def _field_staircase(a: RingMatrix, b: RingMatrix) -> tuple[list[int], list, list[tuple[int, int]]]:
    # _rank_staircase of a pair over Q or GF(p).  Over Q, a is scaled by
    # the lcm of all its denominators and each column of b by the lcm of
    # its own; nonzero scalars change no span.
    n = a.rows
    entries = a.entries
    columns = [b.entries[j :: b.cols] for j in range(b.cols)]
    if isinstance(a.ring, Rationals):
        entries = _cleared_fractions(entries)[0]
        columns = [_cleared_fractions(w)[0] for w in columns]
        p = 0
    else:
        p = a.ring.p
    return _rank_staircase([entries[i * n : (i + 1) * n] for i in range(n)], columns, p)


def _layer_ranks(dims: list[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # Ranks of I_i and Z_i from the ranks of N_0, ..., N_s: f induces a
    # surjection I_i -> I_{i+1}, so rank Z_i = rank I_i - rank I_{i+1}.
    i_ranks = tuple(y - x for x, y in zip(dims, dims[1:]))
    return i_ranks, tuple(x - y for x, y in zip(i_ranks, i_ranks[1:] + (0,)))


def _report_over_field(sigma: LinearSystem) -> InvariantReport:
    ring, n = sigma.ring, sigma.state_rank
    dims, basis, _ = _field_staircase(sigma.endo, sigma.input_gens)
    # basis[k] vanishes at the pivots of basis[:k].  Made monic and
    # cleared from the vectors kept before it, the first dims[i] vectors
    # sorted by pivot are the reduced echelon basis of N_i, which is what
    # column_canonical gives for any generators of N_i.
    p = 0 if isinstance(ring, Rationals) else ring.p
    reduced: dict[int, list] = {}
    chain = [RingMatrix.zeros(ring, n, 0)]
    for lo, hi in zip(dims, dims[1:]):
        for v in basis[lo:hi]:
            q = next(i for i, x in enumerate(v) if x)
            if not p:
                v = [Fraction(x, v[q]) for x in v]
            for r, u in reduced.items():
                g = u[q]
                if g:
                    u = [x - g * y for x, y in zip(u, v)]
                    reduced[r] = [x % p for x in u] if p else u
            reduced[q] = v
        chain.append(RingMatrix._of_columns(ring, [reduced[q] for q in sorted(reduced)], n))
    i_dims, z_dims = _layer_ranks(dims)
    reachable = dims[-1] == n
    return InvariantReport(
        ring=ring,
        state_rank=n,
        chain=tuple(chain),
        s=len(chain) - 1,
        M=tuple(n - d for d in dims[1:]),
        I=i_dims,
        Z=z_dims,
        reachable=reachable,
        locally_brunovsky=reachable,
    )


def _hermite_rows(m: RingMatrix) -> tuple[list[list[int]], list[int]]:
    # The columns of a column Hermite basis as rows, with their pivots.
    rows = [list(m.entries[k :: m.cols]) for k in range(m.cols)]
    return rows, [next(p for p, x in enumerate(r) if x) for r in rows]


def _coordinates(basis: tuple[list[list[int]], list[int]], vectors, message: str) -> list[list[int]]:
    # Coordinates of each vector over a Hermite basis, by back-substitution.
    coords = []
    for v in vectors:
        y = _back_substitute(*basis, v)
        if y is None:
            raise RuntimeError(message)
        coords.append(y)
    return coords


def _unit_pivots(basis: RingMatrix) -> bool:
    """Whether every pivot of a column Hermite basis is 1.

    The rows at the pivots then form a unit lower-triangular minor, so
    the basis extends to a basis of Z^n and Z^n / col(basis) is free.
    """
    cols = basis.cols
    return all(next(filter(None, basis.entries[k::cols])) == 1 for k in range(cols))


def _quotient_structure(basis: RingMatrix, n: int) -> AbelianGroupStructure:
    """Z^n / col(basis) for a column Hermite basis: free of rank n - d
    when its pivots are all 1, and otherwise read from the Smith form."""
    if _unit_pivots(basis):
        return AbelianGroupStructure(n - basis.cols, ())
    return cokernel_structure(basis, n)


def _report_over_integers(sigma: LinearSystem, chain: list[RingMatrix]) -> InvariantReport:
    """M, I and Z structures over Z, read off the Hermite chain.

    Every chain basis is in Hermite form, so coordinates over it come
    from back-substitution.  rel[i] writes N_{i-1} in the basis of N_i
    and presents I_i.  Four exact rules give most of the rest:

    - I_i lies in M_{i-1}, and submodules of free modules are free over
      a PID, so I_i is free of rank d_i - d_{i-1} when M_{i-1} is.  That
      is decided by the unit pivots of chain[i - 1] alone (always true
      for M_0 = Z^n), never by the M rule below, which reads M_{i-1}
      from I_i; only the other I_i take a Smith form.
    - f induces a surjection I_i -> I_{i+1} with kernel Z_i.  When
      I_{i+1} is free it splits, so Z_i has rank I_i - rank I_{i+1}
      and the torsion of I_i.  The chain stops when f(N_s) <= N_s, so
      I_{s+1} = 0 and the rule always gives Z_s = I_s.
    - 0 -> I_i -> M_{i-1} -> M_i -> 0 splits when M_i is free, so
      M_{i-1} then has rank n - d_{i-1} and the torsion of I_i; the M
      are read top down from M_s.
    - Any other M_i is a chain-level quotient (``_quotient_structure``).

    When I_{i+1} has torsion, Z_i is L / col(rel[i]) for the lattice L
    of those x with f_mat x in col(rel[i+1]), where f_mat writes f(N_i)
    in the basis of N_{i+1}.  L is read from one Hermite form of the
    rows (f_mat x | x) and (rel[i+1] z | 0): with the image coordinates
    first, the rows whose pivot lies past them have a zero image part,
    and their tails are the Hermite basis of L.
    """
    ring = sigma.ring
    n = sigma.state_rank
    s = len(chain) - 1
    dims = [c.cols for c in chain]
    bases = [_hermite_rows(c) for c in chain]
    # rel[i][k]: column k of chain[i - 1] in the basis of chain[i].
    rel = [None] + [
        _coordinates(bases[i], bases[i - 1][0], "chain is not increasing") for i in range(1, s + 1)
    ]
    i_structs = tuple(
        AbelianGroupStructure(dims[i] - dims[i - 1], ())
        if _unit_pivots(chain[i - 1])
        else cokernel_structure(RingMatrix._of_columns(ring, rel[i], dims[i]), dims[i])
        for i in range(1, s + 1)
    )
    # layers[i] is I_i for 1 <= i <= s + 1, with I_{s+1} = 0.
    layers = (None,) + i_structs + (AbelianGroupStructure(0, ()),)
    m_down: list[AbelianGroupStructure] = []  # M_s, M_{s-1}, ..., M_1
    for i in range(s, 0, -1):
        if m_down and m_down[-1].is_free:
            m_down.append(AbelianGroupStructure(n - dims[i], layers[i + 1].torsion))
        else:
            m_down.append(_quotient_structure(chain[i], n))
    m_structs = tuple(reversed(m_down))
    z_structs = []
    for i in range(1, s + 1):
        if layers[i + 1].is_free:
            rank = layers[i].free_rank - layers[i + 1].free_rank
            z_structs.append(AbelianGroupStructure(rank, layers[i].torsion))
            continue
        d, r = dims[i], dims[i + 1]
        image = sigma.endo @ chain[i]
        f_cols = _coordinates(
            bases[i + 1],
            (image.entries[j :: d] for j in range(d)),
            "chain construction violated f(N_i) <= N_{i+1}",
        )
        rows = [f + [1 if k == j else 0 for k in range(d)] for j, f in enumerate(f_cols)]
        rows += [g + [0] * d for g in rel[i + 1]]
        h, pivots = _hnf_int(rows, r + d)
        keep = [k for k, p in enumerate(pivots) if p >= r]
        preimage = ([h[k][r:] for k in keep], [pivots[k] - r for k in keep])
        y = _coordinates(preimage, rel[i], "relations escaped their preimage lattice")
        z_structs.append(cokernel_structure(RingMatrix._of_columns(ring, y, len(keep)), len(keep)))
    reachable = chain[s] == RingMatrix.identity(ring, n)
    structures = list(m_structs) + list(i_structs) + list(z_structs)
    locally = reachable and all(st.is_free for st in structures)
    return InvariantReport(
        ring=ring,
        state_rank=n,
        chain=tuple(chain),
        s=s,
        M=m_structs,
        I=i_structs,
        Z=tuple(z_structs),
        reachable=reachable,
        locally_brunovsky=locally,
    )


_NOT_LOCALLY_BRUNOVSKY = "signature classifies locally Brunovsky systems only"


def signature_from_report(report: InvariantReport) -> ZSignature:
    if not report.locally_brunovsky:
        raise NotLocallyBrunovsky(_NOT_LOCALLY_BRUNOVSKY)
    return ZSignature(tuple(_structure_rank(z) for z in report.Z))


def z_signature(sigma: LinearSystem) -> ZSignature:
    """Complete feedback invariant of a locally Brunovsky system.

    Over Z it comes from the chain ranks alone.  I_i = N_i/N_{i-1} lies
    in M_{i-1} and Z_i in I_i, and submodules of free modules are free
    over a PID, so the system is locally Brunovsky exactly when it is
    reachable and every M_i = Z^n/N_i is torsion-free; the ranks of the
    Z_i are then differences of chain ranks.  A level whose Hermite
    pivots are all 1 has a free quotient outright, and only the others
    take a Smith form (``_quotient_structure``).  The I_i and Z_i
    structures are never built.  Over Q and GF(p) every module is free,
    so the system is locally Brunovsky exactly when it is reachable, and
    the ranks come from ``_rank_staircase`` on integer or residue data.
    A quotient ring is refused, as ``compute_chain`` refuses it.
    """
    ring, n = sigma.ring, sigma.state_rank
    if isinstance(ring, Integers):
        chain = _hermite_chain(sigma)
        reachable = chain[-1] == RingMatrix.identity(ring, n)
        if not reachable or not all(_quotient_structure(c, n).is_free for c in chain[1:-1]):
            raise NotLocallyBrunovsky(_NOT_LOCALLY_BRUNOVSKY)
        dims = [c.cols for c in chain]
    elif ring.is_field:
        dims = _field_staircase(sigma.endo, sigma.input_gens)[0]
        if dims[-1] != n:
            raise NotLocallyBrunovsky(_NOT_LOCALLY_BRUNOVSKY)
    else:
        raise UnsupportedRing("invariant chains need decidable submodule arithmetic")
    return ZSignature(_layer_ranks(dims)[1])


def conjugate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugate of a non-increasing partition."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1))


def canonical_pair(ring: RingDescriptor, indices: tuple[int, ...]) -> tuple[RingMatrix, RingMatrix]:
    """Shift-block pair realising the given index partition.

    The endomorphism is a direct sum of nilpotent shift blocks, one per
    index; the input matrix has one column per block carrying the unit
    vector at the block's first coordinate.
    """
    n = sum(indices)
    zero, one = ring.zero(), ring.one()
    a = [[zero] * n for _ in range(n)]
    b = [[zero] * len(indices) for _ in range(n)]
    offset = 0
    for j, k in enumerate(indices):
        for l in range(k - 1):
            a[offset + l + 1][offset + l] = one
        b[offset][j] = one
        offset += k
    return (
        RingMatrix._of_rows(ring, a, n),
        RingMatrix._of_rows(ring, b, len(indices)),
    )


def brunovsky(sigma: LinearSystem) -> BrunovskyData:
    """Index partition and canonical pair of a reachable field system."""
    if not sigma.ring.is_field:
        raise UnsupportedRing("canonical form needs a field")
    dims = _field_staircase(sigma.endo, sigma.input_gens)[0]
    if dims[-1] != sigma.state_rank:
        raise NotReachable("chain stabilised below the full state module")
    indices = conjugate_partition(_layer_ranks(dims)[0])
    a_c, b_c = canonical_pair(sigma.ring, indices)
    return BrunovskyData(indices, a_c, b_c)


@dataclass(frozen=True)
class CanonicalCertificate:
    """Invertible (P, Q) and feedback K straightening a reachable pair.

    The defining identities are A_c = P (A + B K) P^{-1} and
    B_c = P B Q, with B_c padded by zero columns to the width of B;
    ``indices`` is the Brunovsky partition of the canonical pair.
    """

    P: RingMatrix
    K: RingMatrix
    Q: RingMatrix
    canonical_endo: RingMatrix
    canonical_input: RingMatrix
    indices: tuple[int, ...]


def canonical_certificate(a: RingMatrix, b: RingMatrix) -> CanonicalCertificate:
    """Exact feedback certificate carrying a reachable pair to canonical form.

    Any valid certificate is acceptable; this construction is
    deterministic (lowest-index columns first, blocks ordered by
    decreasing length) and the returned triple is verified against the
    canonical pair before being handed back.
    """
    if not a.ring.is_field:
        raise UnsupportedRing("canonical certificates need a field")
    if a.rows != a.cols or b.rows != a.rows:
        raise ShapeError("expected an n x n endomorphism and an n-row input matrix")
    ring = a.ring
    n, m = a.rows, b.cols
    # Level-major greedy selection of Krylov columns A^l b_j, as (j, l);
    # mu[j] is the length of input column j's chain.
    selected = _field_staircase(a, b)[2]
    if len(selected) < n:
        raise NotReachable("pair is not reachable")
    mu = Counter(j for j, _ in selected)

    chains = sorted((j for j in range(m) if mu[j] > 0), key=lambda j: (-mu[j], j))
    indices = tuple(mu[j] for j in chains)
    order = chains + [j for j in range(m) if not mu[j]]

    # Input column j first repeats at level mu[j]: A^mu[j] b_j is a
    # combination of the selected columns W kept before it.  W is a
    # basis, so one inversion gives every column's unique coordinates,
    # and those on columns kept later are zero; skipping zeros skips
    # every column at a level past mu[j].  Moving the level-mu[j] terms into Q's column c_j
    # leaves A^mu[j] B c_j = sum_l A^l B u_l over lower levels: B c_j is
    # a purified chain root (zero when mu[j] = 0), and
    # v_{l+1} = A v_l + B k_l with k_l = -u_{mu[j]-1-l} walks the chain
    # up to a top that the closed loop kills.
    powers = [b]
    for _ in range(max(indices, default=0)):
        powers.append(a @ powers[-1])
    w_mat = RingMatrix._of_columns(ring, [powers[l].entries[j::m] for j, l in selected], n)
    coords = invert(w_mat) @ RingMatrix._of_columns(ring, [powers[mu[j]].entries[j::m] for j in order], n)
    zero, one = ring.zero(), ring.one()
    v_columns, k_columns, q_columns = [], [], []
    for t, j in enumerate(order):
        depth = mu[j]
        c = [zero] * m
        c[j] = one
        minus_u = [[zero] * m for _ in range(depth)]
        for (owner, lvl), x in zip(selected, coords.entries[t::m]):
            if ring.is_zero(x):
                continue
            if lvl == depth:
                c[owner] = ring.neg(x)
            else:
                minus_u[lvl][owner] = ring.neg(x)
        q_columns.append(c)
        for l in range(depth):
            vec = b @ RingMatrix(ring, m, 1, tuple(c)) if l == 0 else a @ vec + b @ k_l
            k_l = RingMatrix(ring, m, 1, tuple(minus_u[depth - 1 - l]))
            v_columns.append(vec.entries)
            k_columns.append(k_l.entries)

    v_mat = RingMatrix._of_columns(ring, v_columns, n)
    p = invert(v_mat)
    if p is None:
        raise RuntimeError("straightened chain vectors failed to form a basis")
    k = RingMatrix._of_columns(ring, k_columns, m) @ p
    q = RingMatrix._of_columns(ring, q_columns, m)

    a_c, b_c = canonical_pair(ring, indices)
    b_c_padded = b_c.hstack(RingMatrix.zeros(ring, n, m - b_c.cols))

    closed = p @ (a + b @ k) @ v_mat
    if closed != a_c or (p @ b @ q) != b_c_padded:
        raise RuntimeError("canonical certificate failed internal verification")
    return CanonicalCertificate(p, k, q, a_c, b_c_padded, indices)
