"""Invariant module chains, signature data, and canonical forms.

For a system (R^n, f, B) the chain N_0 = 0, N_i = B + f(N_{i-1})
stabilises and carries three derived families: quotients M_i = X/N_i,
layers I_i = N_i/N_{i-1}, and the kernels Z_i of the f-induced maps
I_i -> I_{i+1}.  Over a field these are dimensions; over the integers
they are finitely generated abelian groups: an exact saturation test
decides which chain quotients are free, split exact sequences give
most of the rest, and Smith forms of presentation matrices read only
modules with torsion.  The finite-support sequence of the
Z-layers is a complete feedback invariant on the class of systems whose
invariants are all projective, and over fields it is equivalent to the
classical controllability partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import zip_longest
from math import gcd
from operator import mul
from typing import Sequence, Union

from .errors import NotLocallyBrunovsky, NotReachable, ShapeError, UnsupportedRing
from .linalg import (
    AbelianGroupStructure,
    RingMatrix,
    _back_substitute,
    _cokernel_of_rows,
    _hermite_insert,
    _hermite_reduce,
    _hermite_reduce_above,
    _hnf_int,
    _saturated,
    _smith_cokernel,
    invert,
)
from .rings import Integers, PolyQuotient, Rationals, RingDescriptor, _cleared_fractions
from .systems import LinearSystem

ModuleStructure = Union[int, AbelianGroupStructure]
# A chain level over Z: the rows of a row Hermite basis and their pivots.
_Level = tuple[list[list[int]], list[int]]


@dataclass(frozen=True)
class InvariantReport:
    """Stabilised chain data of one system, as ``invariants`` prints it.

    ``chain_dims`` holds the ranks of N_0 through N_s.  Over a field the
    module entries are dimensions; over the integers they are
    AbelianGroupStructure values.
    """

    ring: RingDescriptor
    state_rank: int
    chain_dims: tuple[int, ...]
    s: int
    M: tuple[ModuleStructure, ...]
    I: tuple[ModuleStructure, ...]
    Z: tuple[ModuleStructure, ...]
    reachable: bool
    locally_brunovsky: bool


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
    """Full invariant report of a system over Q, GF(p), or Z, read from
    one Krylov staircase: the ranks of ``_field_staircase`` over a field,
    the levels of ``_hermite_chain`` over Z.  No matrix of N_i is built.
    """
    if isinstance(sigma.ring, PolyQuotient):
        raise UnsupportedRing("invariant chains need decidable submodule arithmetic")
    if sigma.ring.is_field:
        return _report_over_field(sigma)
    return _report_over_integers(sigma, _hermite_chain(sigma))


def _hermite_chain(sigma: LinearSystem) -> list[_Level]:
    """Row Hermite bases of N_0 < N_1 < ... < N_s over the integers,
    each as its rows and their pivot columns, the form ``_hnf_int``
    returns, built by insertion into one running basis.

    N_{i+1} = N_i + A^i B, and the offer A^i b may be replaced by
    anything congruent to it modulo N_i: if w = A^i b - x with x in N_i,
    then A w differs from A^{i+1} b by A x, which lies in N_{i+1}.  Each
    offer is reduced (``_hermite_reduce``) modulo the running basis,
    which is N_i plus the offers of this step already kept.  A zero
    remainder is dropped: the offer lies in N_i plus the kept offers,
    A N_i lies in N_{i+1}, and A times each kept offer is offered next
    step.  Any other remainder
    is merged in by ``_hermite_insert``, and the step ends with one
    ``_hermite_reduce_above`` pass from the first row it changed, which
    makes the basis the unique Hermite form of N_{i+1}.  The next step
    offers A times the kept remainders; the chain stops when none is
    kept.  Each level is a snapshot of the basis: levels share rows,
    which is safe because rows are replaced, never changed in place.
    """
    a = sigma.endo.to_lists()
    b = sigma.generators
    basis: list[list[int]] = []
    pivots: list[int] = []
    chain: list[_Level] = [([], [])]
    offers = [list(b.entries[j :: b.cols]) for j in range(b.cols)]
    while True:
        kept = []
        start = len(basis)
        for w in offers:
            w = _hermite_reduce(basis, pivots, w)[1]
            if any(w):
                start = min(start, _hermite_insert(basis, pivots, w))
                kept.append(w)
        if not kept:
            return chain
        _hermite_reduce_above(basis, pivots, start)
        chain.append((list(basis), list(pivots)))
        offers = [[sum(map(mul, row, w)) for row in a] for w in kept]


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
    # Over a field every module is free: the report is the staircase ranks.
    n = sigma.state_rank
    dims = _field_staircase(sigma.endo, sigma.generators)[0]
    i_dims, z_dims = _layer_ranks(dims)
    reachable = dims[-1] == n
    return InvariantReport(
        ring=sigma.ring,
        state_rank=n,
        chain_dims=tuple(dims),
        s=len(dims) - 1,
        M=tuple(n - d for d in dims[1:]),
        I=i_dims,
        Z=z_dims,
        reachable=reachable,
        locally_brunovsky=reachable,
    )


def _coordinates(basis: _Level, vectors, message: str) -> list[list[int]]:
    # Coordinates of each vector over a Hermite basis, by back-substitution.
    coords = []
    for v in vectors:
        y = _back_substitute(*basis, v)
        if y is None:
            raise RuntimeError(message)
        coords.append(y)
    return coords


def _report_over_integers(sigma: LinearSystem, chain: list[_Level]) -> InvariantReport:
    """M, I and Z structures over Z, read off the Hermite chain; the
    report keeps only the ranks of its levels.

    Every chain level is a row Hermite basis, so coordinates over it
    come from back-substitution.  rel[i] writes N_{i-1} in the basis of
    N_i and presents I_i.  Only the torsion rules read it (an I_i whose
    M_{i-1} is not free, and the general Z_i path), so rel[i] is built
    on demand, at most once, and a report whose quotients are all free
    back-substitutes nothing.  The exact saturation test (``_saturated``)
    decides once per level whether M_i = Z^n/N_i is free, and four exact
    rules give most of the rest:

    - I_i lies in M_{i-1}, and submodules of free modules are free over
      a PID, so I_i is free of rank d_i - d_{i-1} when M_{i-1} is (always
      for M_0 = Z^n); only the other I_i take a Smith form.
    - f induces a surjection I_i -> I_{i+1} with kernel Z_i.  When
      I_{i+1} is free it splits, so Z_i has rank I_i - rank I_{i+1}
      and the torsion of I_i.  The chain stops when f(N_s) <= N_s, so
      I_{s+1} = 0 and the rule always gives Z_s = I_s.
    - A free M_i is Z^(n - d_i) outright.
    - 0 -> I_i -> M_{i-1} -> M_i -> 0 splits when M_i is free, so
      M_{i-1} then has rank n - d_{i-1} and the torsion of I_i.  Any
      other M_i is a chain-level quotient with torsion, read from the
      Smith form of the level's rows (``_smith_cokernel``): the
      saturation test has already found the torsion.

    Every Smith form is therefore taken on a module with torsion.

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
    dims = [len(pivots) for _, pivots in chain]

    @cache
    def relations(i: int) -> list[list[int]]:
        # rel[i]: row k is row k of chain[i - 1] in the basis of chain[i].
        return _coordinates(chain[i], chain[i - 1][0], "chain is not increasing")

    # free[i]: whether M_i is free.  Chain levels are independent rows,
    # so the test always decides.
    free = [_saturated(rows, n) for rows, _ in chain]
    i_structs = tuple(
        AbelianGroupStructure(dims[i] - dims[i - 1], ())
        if free[i - 1]
        else _cokernel_of_rows(relations(i), dims[i])
        for i in range(1, s + 1)
    )
    # layers[i] is I_i for 1 <= i <= s + 1, with I_{s+1} = 0.
    layers = (None,) + i_structs + (AbelianGroupStructure(0, ()),)
    m_structs = tuple(
        AbelianGroupStructure(n - dims[i], ())
        if free[i]
        else AbelianGroupStructure(n - dims[i], layers[i + 1].torsion)
        if i < s and free[i + 1]
        else _smith_cokernel(chain[i][0], n)
        for i in range(1, s + 1)
    )
    a = sigma.endo.to_lists()
    z_structs = []
    for i in range(1, s + 1):
        if layers[i + 1].is_free:
            rank = layers[i].free_rank - layers[i + 1].free_rank
            z_structs.append(AbelianGroupStructure(rank, layers[i].torsion))
            continue
        d, r = dims[i], dims[i + 1]
        f_cols = _coordinates(
            chain[i + 1],
            ([sum(map(mul, row, v)) for row in a] for v in chain[i][0]),
            "chain construction violated f(N_i) <= N_{i+1}",
        )
        rows = [f + [1 if k == j else 0 for k in range(d)] for j, f in enumerate(f_cols)]
        rows += [g + [0] * d for g in relations(i + 1)]
        h, pivots = _hnf_int(rows, r + d)
        keep = [k for k, p in enumerate(pivots) if p >= r]
        preimage = ([h[k][r:] for k in keep], [pivots[k] - r for k in keep])
        y = _coordinates(preimage, relations(i), "relations escaped their preimage lattice")
        z_structs.append(_cokernel_of_rows(y, len(keep)))
    reachable = dims[s] == n and free[s]
    return InvariantReport(
        ring=ring,
        state_rank=n,
        chain_dims=tuple(dims),
        s=s,
        M=m_structs,
        I=i_structs,
        Z=tuple(z_structs),
        reachable=reachable,
        # reachable with every M_i free, as z_signature proves
        locally_brunovsky=reachable and all(free),
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
    Z_i are then differences of chain ranks.  The saturation test
    (``_saturated``) decides each level's quotient, and with d = n it is
    the reachability test, so no Smith form is ever taken, and the I_i
    and Z_i structures are never built.  Over Q and GF(p) every module
    is free, and the signature is read from ``_report_over_field``, whose
    ranks come from ``_rank_staircase`` on integer or residue data, so
    "locally Brunovsky" over a field is decided in that one place.
    A quotient ring is refused, as ``compute_chain`` refuses it.
    """
    ring, n = sigma.ring, sigma.state_rank
    if isinstance(ring, Integers):
        chain = _hermite_chain(sigma)
        dims = [len(pivots) for _, pivots in chain]
        if dims[-1] != n or not all(_saturated(rows, n) for rows, _ in chain[1:]):
            raise NotLocallyBrunovsky(_NOT_LOCALLY_BRUNOVSKY)
        return ZSignature(_layer_ranks(dims)[1])
    if ring.is_field:
        return signature_from_report(_report_over_field(sigma))
    raise UnsupportedRing("invariant chains need decidable submodule arithmetic")


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
    if any(k <= 0 for k in indices):
        raise ValueError("indices must be positive")
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
    dims = _field_staircase(sigma.endo, sigma.generators)[0]
    if dims[-1] != sigma.state_rank:
        raise NotReachable("chain stabilised below the full state module")
    indices = conjugate_partition(_layer_ranks(dims)[0])
    a_c, b_c = canonical_pair(sigma.ring, indices)
    return BrunovskyData(indices, a_c, b_c)


@dataclass(frozen=True)
class CanonicalCertificate:
    """Invertible (P, Q) and feedback K straightening a reachable pair.

    The defining identities are P (A + B K) = A_c P and P B Q = B_c,
    with B_c padded by zero columns to the width of B; ``indices`` is
    the Brunovsky partition of the canonical pair.  They make P
    invertible without a determinant: together they give
    P (A + B K)^l B Q = A_c^l B_c for every l, and since the indices sum
    to n the canonical pair is reachable, so the columns of A_c^l B_c
    with l < n span the state space.  P is therefore onto, and a square
    matrix that is onto is invertible.  The same identity gives P^{-1}
    without an inversion: column l of its t-th block is
    (A + B K)^l B Q e_t.
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
    decreasing length) and the returned triple is checked against the
    two identities P (A + B K) = A_c P and P B Q = B_c before being
    handed back.  Those identities prove P invertible (see
    ``CanonicalCertificate``; the n selected columns are what make the
    indices sum to n), and Q is invertible by construction: column t of
    Q is e_order[t] minus multiples of e_o for inputs o < order[t]
    selected at the same level, so Q is a column permutation of a unit
    upper triangular matrix.

    P, K and Q are Luenberger's, read from his dual rows: with W the
    Krylov columns kept, d = mu_j and q_j the row of W^{-1} at
    A^(d-1) b_j, row (j, l) of P is q_j A^(d-1-l), and K = -Q[:, :r] F,
    where row t of F is q_j A^d for the t-th of the r chains.  They are
    his because (1) q_j A^lam B = 0 for lam < d - 1, as no column kept
    at an earlier level is A^(d-1) b_j, so the identities make row
    (j, l) equal row (j, l+1) times A; (2) his chain vectors
    v_l = A^l b_j - sum_{lam >= d-l} x A^(lam-d+l) b_o have no term
    along a chain's last kept column (it would need lam >= mu_o), so q_j
    is the row of V^{-1} at v_(d-1); and (3) K is unique on the chain
    inputs, whose columns of B are independent, and zero on the rest.
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

    # Input column j first repeats at level d = mu[j]: A^d b_j is a sum
    # of x A^lam b_o over the columns W kept before it, read from one
    # inversion of W, and column j of Q is e_j - sum x e_o over lam = d.
    powers = [b]
    for _ in range(max(indices, default=0)):
        powers.append(a @ powers[-1])
    w_inv = invert(RingMatrix._of_columns(ring, [powers[l].entries[j::m] for j, l in selected], n))
    coords = w_inv @ RingMatrix._of_columns(ring, [powers[mu[j]].entries[j::m] for j in order], n)
    zero, one = ring.zero(), ring.one()
    q_columns = []
    for t, j in enumerate(order):
        column = [zero] * m
        column[j] = one
        for (o, lam), x in zip(selected, coords.entries[t::m]):
            if lam == mu[j]:
                column[o] = ring.neg(x)
        q_columns.append(column)
    # P's block for chain j is q_j A^(d-1), ..., q_j A, q_j; F's row is q_j A^d.
    dual = {j: w_inv.row_list(r) for r, (j, l) in enumerate(selected) if l == mu[j] - 1}
    p_rows, f_rows = [], []
    for j in chains:
        shifts = [RingMatrix._of_rows(ring, [dual[j]], n)]
        for _ in range(mu[j]):
            shifts.append(shifts[-1] @ a)
        p_rows += [row.entries for row in shifts[-2::-1]]
        f_rows.append(shifts[-1].entries)
    p = RingMatrix._of_rows(ring, p_rows, n)
    k = -(RingMatrix._of_columns(ring, q_columns[: len(chains)], m) @ RingMatrix._of_rows(ring, f_rows, n))
    q = RingMatrix._of_columns(ring, q_columns, m)

    a_c, b_c = canonical_pair(ring, indices)
    b_c_padded = b_c.hstack(RingMatrix.zeros(ring, n, m - b_c.cols))

    # P(A + BK) expanded as PA + (PB)K, one block product [P | PB][A; K]:
    # A's entries stay small where A + BK takes K's large ones.
    pb = p @ b
    if p.hstack(pb) @ a.vstack(k) != a_c @ p or pb @ q != b_c_padded:
        raise RuntimeError("canonical certificate failed internal verification")
    return CanonicalCertificate(p, k, q, a_c, b_c_padded, indices)
