"""Invariant module chains, signature data, and canonical forms.

For a system (R^n, f, B) the chain N_0 = 0, N_i = B + f(N_{i-1})
stabilises and carries three derived families: quotients M_i = X/N_i,
layers I_i = N_i/N_{i-1}, and the kernels Z_i of the f-induced maps
I_i -> I_{i+1}.  Over a field these are dimensions; over the integers
they are finitely generated abelian groups computed from Smith forms
of presentation matrices.  The finite-support sequence of the Z-layers
is a complete feedback invariant on the class of systems whose
invariants are all projective, and over fields it is equivalent to the
classical controllability partition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from typing import Union

from .errors import NotLocallyBrunovsky, NotReachable, ShapeError, UnsupportedRing
from .linalg import (
    AbelianGroupStructure,
    RingMatrix,
    cokernel_structure,
    column_canonical,
    column_space_sum,
    invert,
    kernel_basis,
    solve_right,
)
from .rings import PolyQuotient, RingDescriptor
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
    chain = [RingMatrix.zeros(sigma.ring, sigma.state_rank, 0)]
    while True:
        nxt = column_space_sum(sigma.input_gens, sigma.endo @ chain[-1])
        if nxt == chain[-1]:
            break
        chain.append(nxt)
    return _report_over_integers(sigma, chain)


class _Staircase:
    """Krylov staircase N_1 <= N_2 <= ... of a pair (a, b) over a field.

    Level 0 offers the columns of b; level l + 1 offers a times each
    column selected at level l, because N_{i+1} = N_i + a W_i for any
    W_i spanning what N_i added.  A fully reduced echelon basis of the
    span so far decides each offer: the offer's remainder is zero
    exactly when it is dependent.  Every basis vector carries its
    coordinates over the selected columns, so a rejected offer gets its
    unique coordinates without a solve.  O(n^3) field operations.

    ``selected`` lists (column of b, level) in selection order,
    ``rejections`` maps each column of b to (level, coordinates over
    ``selected``, number selected before it) of its first dependent
    iterate, and ``chain[i]`` is the canonical basis of N_i, equal to
    ``column_canonical`` of any generators of N_i.
    """

    def __init__(self, a: RingMatrix, b: RingMatrix):
        self.ring, self.n = a.ring, a.rows
        self.selected: list[tuple[int, int]] = []
        self.rejections: dict[int, tuple[int, list, int]] = {}
        self.chain = [RingMatrix.zeros(a.ring, a.rows, 0)]
        self._basis: dict[int, list[list]] = {}  # pivot -> [vector, coordinates]
        offers = [(j, b.column(j)) for j in range(b.cols)]
        level = 0
        while offers:
            offers = [(j, w) for j, w in offers if self._select(j, level, w.entries)]
            if offers:
                self.chain.append(self._canonical())
            offers = [(j, a @ w) for j, w in offers]
            level += 1

    def _select(self, j: int, level: int, w) -> bool:
        ring = self.ring
        add, sub, mul, is_zero = ring.add, ring.sub, ring.mul, ring.is_zero
        coords = [ring.zero()] * self.n
        for piv, (vec, crd) in self._basis.items():
            f = w[piv]
            if not is_zero(f):
                w = [sub(x, mul(f, y)) for x, y in zip(w, vec)]
                coords = [add(x, mul(f, y)) for x, y in zip(coords, crd)]
        q = next((i for i, x in enumerate(w) if not is_zero(x)), None)
        if q is None:
            self.rejections[j] = (level, coords, len(self.selected))
            return False
        # w is the offer minus the basis combination coords, and the offer
        # becomes selected column len(self.selected).
        inv = ring.try_invert_payload(w[q])
        coords = [ring.neg(x) for x in coords]
        coords[len(self.selected)] = ring.one()
        vec = [mul(inv, x) for x in w]
        crd = [mul(inv, x) for x in coords]
        for entry in self._basis.values():
            g = entry[0][q]
            if not is_zero(g):
                entry[0] = [sub(x, mul(g, y)) for x, y in zip(entry[0], vec)]
                entry[1] = [sub(x, mul(g, y)) for x, y in zip(entry[1], crd)]
        self._basis[q] = [vec, crd]
        self.selected.append((j, level))
        return True

    def _canonical(self) -> RingMatrix:
        vecs = [self._basis[p][0] for p in sorted(self._basis)]
        entries = tuple(v[i] for i in range(self.n) for v in vecs)
        return RingMatrix(self.ring, self.n, len(vecs), entries)


def _report_over_field(sigma: LinearSystem) -> InvariantReport:
    # f induces a surjection I_i -> I_{i+1}, so Z_i = dim I_i - dim I_{i+1}.
    n = sigma.state_rank
    chain = _Staircase(sigma.endo, sigma.input_gens).chain
    s = len(chain) - 1
    dims = [m.cols for m in chain]
    i_dims = tuple(dims[i] - dims[i - 1] for i in range(1, s + 1))
    reachable = dims[s] == n
    return InvariantReport(
        ring=sigma.ring,
        state_rank=n,
        chain=tuple(chain),
        s=s,
        M=tuple(n - d for d in dims[1:]),
        I=i_dims,
        Z=tuple(x - y for x, y in zip(i_dims, i_dims[1:] + (0,))),
        reachable=reachable,
        locally_brunovsky=reachable,
    )


def _report_over_integers(sigma: LinearSystem, chain: list[RingMatrix]) -> InvariantReport:
    ring = sigma.ring
    n = sigma.state_rank
    s = len(chain) - 1
    m_structs = tuple(cokernel_structure(chain[i], n) for i in range(1, s + 1))
    # Relations of I_i = N_i / N_{i-1}: the previous basis written in the
    # current one.
    rel = [None]
    for i in range(1, s + 1):
        x = solve_right(chain[i], chain[i - 1])
        if x is None:
            raise RuntimeError("chain is not increasing")
        rel.append(x)
    i_structs = tuple(cokernel_structure(rel[i], chain[i].cols) for i in range(1, s + 1))
    z_structs = []
    for i in range(1, s + 1):
        nxt = chain[i + 1] if i < s else chain[s]
        rel_next = rel[i + 1] if i < s else RingMatrix.identity(ring, chain[s].cols)
        f_mat = solve_right(nxt, sigma.endo @ chain[i])
        if f_mat is None:
            raise RuntimeError("chain construction violated f(N_i) <= N_{i+1}")
        # Lattice of generators mapping into the relations of I_{i+1}.
        paired = kernel_basis(f_mat.hstack(-rel_next))
        top = RingMatrix.from_rows(
            ring,
            [paired.row_list(r) for r in range(chain[i].cols)],
            cols=paired.cols,
        )
        preimage = column_canonical(top)
        y = solve_right(preimage, rel[i])
        if y is None:
            raise RuntimeError("relations escaped their preimage lattice")
        z_structs.append(cokernel_structure(y, preimage.cols))
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


def signature_from_report(report: InvariantReport) -> ZSignature:
    if not report.locally_brunovsky:
        raise NotLocallyBrunovsky("signature classifies locally Brunovsky systems only")
    return ZSignature(tuple(_structure_rank(z) for z in report.Z))


def z_signature(sigma: LinearSystem) -> ZSignature:
    """Complete feedback invariant of a locally Brunovsky system."""
    return signature_from_report(compute_chain(sigma))


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
        RingMatrix.from_rows(ring, a, cols=n),
        RingMatrix.from_rows(ring, b, cols=len(indices)),
    )


def brunovsky(sigma: LinearSystem) -> BrunovskyData:
    """Index partition and canonical pair of a reachable field system."""
    if not sigma.ring.is_field:
        raise UnsupportedRing("canonical form needs a field")
    report = compute_chain(sigma)
    if not report.reachable:
        raise NotReachable("chain stabilised below the full state module")
    indices = conjugate_partition(tuple(report.I))
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
    # Level-major greedy basis selection from the columns of [B, AB, ...];
    # mu[j] is the length of input column j's chain.
    staircase = _Staircase(a, b)
    if len(staircase.selected) < n:
        raise NotReachable("pair is not reachable")
    mu = Counter(j for j, _ in staircase.selected)

    chains = sorted((j for j in range(m) if mu[j] > 0), key=lambda j: (-mu[j], j))
    indices = tuple(mu[j] for j in chains)

    # Purified chain roots: strip components along still-growing chains
    # (basis members selected at the same level the chain died).
    v_columns: list[RingMatrix] = []
    k_values: list[RingMatrix] = []
    powers_b = [b]
    for _ in range(max(indices, default=0)):
        powers_b.append(a @ powers_b[-1])
    for j in chains:
        depth = mu[j]
        _, coeffs, upto = staircase.rejections[j]
        root = b.column(j)
        for k in range(upto):
            owner, lvl = staircase.selected[k]
            if lvl == depth:
                root = root - b.column(owner).scale(coeffs[k])
        # Solve A^depth root = sum_l A^l B u_l over the reach stack.
        target = root
        for _ in range(depth):
            target = a @ target
        stack = powers_b[0]
        for l in range(1, depth):
            stack = stack.hstack(powers_b[l])
        sol = solve_right(stack, target)
        if sol is None:
            raise RuntimeError("rejected iterate escaped the reachability span")
        u = [
            RingMatrix.from_rows(ring, [[sol.entry(l * m + r, 0)] for r in range(m)], cols=1)
            for l in range(depth)
        ]
        # v_{l+1} = A^{l+1} root - sum_t A^t B u_{depth-(l+1)+t}; the
        # closed loop then shifts v_l to v_{l+1} and kills the chain top.
        vec = root
        for l in range(depth):
            v_columns.append(vec)
            k_values.append(-u[depth - 1 - l])
            if l + 1 < depth:
                acc = root
                for _ in range(l + 1):
                    acc = a @ acc
                correction = RingMatrix.zeros(ring, n, 1)
                for t in range(l + 1):
                    correction = correction + (powers_b[t] @ u[depth - (l + 1) + t])
                vec = acc - correction

    v_mat = RingMatrix.zeros(ring, n, 0)
    for col in v_columns:
        v_mat = v_mat.hstack(col)
    if v_mat.cols != n:
        raise RuntimeError("straightened chain vectors do not fill the state module")
    if n == 0:
        v_mat = RingMatrix.identity(ring, 0)
    p = invert(v_mat)
    if p is None:
        raise RuntimeError("straightened chain vectors failed to form a basis")
    u_mat = RingMatrix.zeros(ring, m, 0)
    for col in k_values:
        u_mat = u_mat.hstack(col)
    k = u_mat @ p

    a_c, b_c = canonical_pair(ring, indices)
    b_c_padded = b_c.hstack(RingMatrix.zeros(ring, n, m - b_c.cols))

    # Column transform: root columns become the block units, all other
    # input columns are combinations of roots and get cleared.
    coords = p @ b
    offsets = []
    off = 0
    for kk in indices:
        offsets.append(off)
        off += kk
    r = len(indices)
    c_rows = [[coords.entry(o, j) for j in range(m)] for o in offsets]
    c_mat = RingMatrix.from_rows(ring, c_rows, cols=m) if r else RingMatrix.zeros(ring, 0, m)
    others = [j for j in range(m) if j not in chains]
    perm = list(chains) + others
    pi_rows = [[ring.one() if perm[t] == i else ring.zero() for t in range(m)] for i in range(m)]
    pi = RingMatrix.from_rows(ring, pi_rows, cols=m)
    cp = c_mat @ pi
    t_mat = RingMatrix.from_rows(ring, [[cp.entry(i, j) for j in range(r)] for i in range(r)], cols=r)
    c_rest = RingMatrix.from_rows(
        ring, [[cp.entry(i, j) for j in range(r, m)] for i in range(r)], cols=m - r
    )
    t_inv = invert(t_mat)
    if t_inv is None:
        raise RuntimeError("root coordinate block is singular")
    q_top = t_inv.hstack(-(t_inv @ c_rest))
    q_bottom = RingMatrix.zeros(ring, m - r, r).hstack(RingMatrix.identity(ring, m - r))
    q = pi @ q_top.vstack(q_bottom)

    closed = p @ (a + b @ k) @ v_mat
    if closed != a_c or (p @ b @ q) != b_c_padded:
        raise RuntimeError("canonical certificate failed internal verification")
    return CanonicalCertificate(p, k, q, a_c, b_c_padded, indices)
